//! The RA's deep-packet-inspection module (paper §VI).
//!
//! Two stages, matching the Table III cost breakdown: a cheap *TLS
//! detection* test, and — only for handshake records of supported
//! connections — *certificate parsing*. The interception lane runs both
//! through [`StreamClassifier`], which works on a reassembled stream;
//! [`classify`] is the same logic on one isolated payload, kept as the
//! per-packet cost Table III measures.

use ritm_dictionary::{CaId, SerialNumber};
use ritm_tls::engine::RecordAssembler;
use ritm_tls::handshake::HandshakeMessage;
use ritm_tls::record::{looks_like_tls, ContentType, TlsRecord};

/// What DPI concluded about one TCP payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classification {
    /// Not TLS at all — forward untouched (the 340k pkt/s fast path).
    NotTls,
    /// TLS, but nothing the RA acts on (e.g. application data records).
    TlsOther,
    /// Contains a ClientHello; flag says whether the RITM extension is set.
    ClientHello {
        /// RITM extension present?
        ritm: bool,
        /// Session id non-empty (resumption attempt)?
        resumption: bool,
    },
    /// Contains a ServerHello (and possibly the certificate chain in the
    /// same flight).
    ServerFlight(ServerFlight),
    /// Contains a Finished message (handshake completion marker).
    Finished,
    /// A complete `RitmStatus` record — an RA further upstream already
    /// stapled ([`StreamClassifier`] only; §VIII "Multiple RAs").
    RitmStatus {
        /// Stream offset of the record's first header byte, counted from
        /// the first byte pushed into the classifier.
        offset: u64,
        /// Encoded length of the record, header included.
        len: usize,
    },
}

/// The server's first flight as seen by the RA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerFlight {
    /// Session id echoed by the server.
    pub session_id: Vec<u8>,
    /// Issuer and serial of the leaf certificate, when a chain was present.
    pub leaf: Option<(CaId, SerialNumber)>,
    /// Issuer and serial of every certificate in the chain (§VIII
    /// "Certificate chains": RAs may prove the whole chain).
    pub chain: Vec<(CaId, SerialNumber)>,
}

/// Classifies one TCP payload in isolation (blind to anything split across
/// payloads — the lane uses [`StreamClassifier`]): the first ClientHello or
/// server flight among its whole records, else a Finished, else
/// [`Classification::TlsOther`]. The `looks_like_tls` prefilter runs first
/// so non-TLS traffic pays only a few comparisons.
pub fn classify(payload: &[u8]) -> Classification {
    if !looks_like_tls(payload) {
        return Classification::NotTls;
    }
    // Prefilter matched but nothing conclusive parsed — treat as opaque
    // TLS-ish traffic and stay out of the way (non-invasiveness, §VII-F).
    let mut verdict = Classification::TlsOther;
    for c in StreamClassifier::new().push(payload) {
        match c {
            Classification::ClientHello { .. } | Classification::ServerFlight(_) => return c,
            Classification::Finished => verdict = c,
            _ => {}
        }
    }
    verdict
}

/// Stream-granular classifier for one direction of one flow.
///
/// [`classify`] is per-packet and blind to TCP fragmentation: a ClientHello
/// split across two payloads parses as `TlsOther`/`NotTls` in both. This
/// wrapper reassembles records across pushes (via
/// [`RecordAssembler`]) and carries the server-flight accumulator across
/// record boundaries, so a ServerHello in one segment and the Certificate
/// in the next still produce one [`Classification::ServerFlight`].
///
/// Until the direction's opening message (ClientHello or server flight) has
/// classified, *every* complete record yields a classification —
/// [`Classification::TlsOther`] when it is nothing else — so a caller that
/// withholds the bytes it pushes can tell "a record that is not part of the
/// opening" from "no whole record yet". After the opening, application data
/// yields nothing (and allocates nothing).
#[derive(Debug, Default)]
pub struct StreamClassifier {
    assembler: RecordAssembler,
    flight: Option<ServerFlight>,
    /// Set once the stream proved to be non-TLS; everything after is opaque.
    dead: bool,
    /// Set once a ClientHello or a server flight completed.
    opened: bool,
    /// Stream offset of the next record the assembler will complete.
    offset: u64,
}

impl StreamClassifier {
    /// Creates an empty classifier.
    pub fn new() -> Self {
        StreamClassifier::default()
    }

    /// Bytes of an incomplete record still buffered in the reassembler.
    /// Zero exactly when the stream so far ends on a record boundary.
    pub fn buffered(&self) -> usize {
        self.assembler.buffered()
    }

    /// Feeds the next chunk of stream bytes (any fragmentation), returning
    /// every classification that *completed* with this chunk, in order. An
    /// empty result means nothing conclusive yet — keep feeding.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Classification> {
        if self.dead {
            return vec![Classification::NotTls];
        }
        self.assembler.push(bytes);
        let mut out = Vec::new();
        loop {
            match self.assembler.next_record() {
                Ok(Some(rec)) => self.classify_record(&rec, &mut out),
                Ok(None) => break,
                Err(_) => {
                    // Not TLS at all: flag once and stay out of the way.
                    self.dead = true;
                    out.push(Classification::NotTls);
                    break;
                }
            }
        }
        out
    }

    fn classify_record(&mut self, rec: &TlsRecord, out: &mut Vec<Classification>) {
        let offset = self.offset;
        self.offset += rec.encoded_len() as u64;
        match rec.content_type {
            ContentType::Handshake => {}
            ContentType::RitmStatus => {
                out.push(Classification::RitmStatus {
                    offset,
                    len: rec.encoded_len(),
                });
                return;
            }
            _ => {
                if !self.opened {
                    out.push(Classification::TlsOther);
                }
                return;
            }
        }
        let Ok(messages) = HandshakeMessage::parse_all(&rec.payload) else {
            out.push(Classification::TlsOther);
            return;
        };
        for msg in messages {
            match msg {
                HandshakeMessage::ClientHello(ch) => {
                    self.opened = true;
                    out.push(Classification::ClientHello {
                        ritm: ch.has_ritm_extension(),
                        resumption: !ch.session_id.is_empty(),
                    });
                }
                HandshakeMessage::ServerHello(sh) => {
                    self.flight = Some(ServerFlight {
                        session_id: sh.session_id.clone(),
                        leaf: None,
                        chain: Vec::new(),
                    });
                }
                HandshakeMessage::Certificate(chain) => {
                    let parsed: Vec<(CaId, SerialNumber)> =
                        chain.0.iter().map(|c| (c.issuer, c.serial)).collect();
                    let leaf = parsed.first().copied();
                    let f = self.flight.get_or_insert_with(|| ServerFlight {
                        session_id: Vec::new(),
                        leaf: None,
                        chain: Vec::new(),
                    });
                    f.leaf = leaf;
                    f.chain = parsed;
                }
                HandshakeMessage::ServerHelloDone => {
                    // The full flight is complete once HelloDone arrives.
                    if let Some(f) = self.flight.take() {
                        self.opened = true;
                        out.push(Classification::ServerFlight(f));
                    }
                }
                HandshakeMessage::Finished(_) => {
                    // An abbreviated flight (SH + Finished, no certificate)
                    // completes at the Finished marker instead.
                    if let Some(f) = self.flight.take() {
                        self.opened = true;
                        out.push(Classification::ServerFlight(f));
                    }
                    out.push(Classification::Finished);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_tls::certificate::{Certificate, CertificateChain};
    use ritm_tls::extensions::Extension;
    use ritm_tls::handshake::{ClientHello, ServerHello};

    fn client_hello(ritm: bool, session: &[u8]) -> Vec<u8> {
        let mut extensions = vec![Extension::sni("example.com")];
        if ritm {
            extensions.push(Extension::ritm_request());
        }
        let msg = HandshakeMessage::ClientHello(ClientHello {
            version: 0x0303,
            random: [1u8; 32],
            session_id: session.to_vec(),
            cipher_suites: vec![0xc02f],
            extensions,
        });
        TlsRecord::new(ContentType::Handshake, HandshakeMessage::encode_all(&[msg])).to_bytes()
    }

    fn server_flight() -> Vec<u8> {
        let ca_key = SigningKey::from_seed([1u8; 32]);
        let cert = Certificate::issue(
            &ca_key,
            CaId::from_name("CA1"),
            SerialNumber::from_u24(0x073e10),
            "example.com",
            0,
            10,
            SigningKey::from_seed([2u8; 32]).verifying_key(),
            false,
        );
        let msgs = [
            HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random: [2u8; 32],
                session_id: vec![9; 32],
                cipher_suite: 0xc02f,
                extensions: vec![],
            }),
            HandshakeMessage::Certificate(CertificateChain(vec![cert])),
            HandshakeMessage::ServerHelloDone,
        ];
        TlsRecord::new(ContentType::Handshake, HandshakeMessage::encode_all(&msgs)).to_bytes()
    }

    #[test]
    fn non_tls_fast_path() {
        assert_eq!(
            classify(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
            Classification::NotTls
        );
        assert_eq!(classify(&[]), Classification::NotTls);
        assert_eq!(classify(&[0x16, 0x01]), Classification::NotTls);
    }

    #[test]
    fn client_hello_with_and_without_ritm() {
        assert_eq!(
            classify(&client_hello(true, &[])),
            Classification::ClientHello {
                ritm: true,
                resumption: false
            }
        );
        assert_eq!(
            classify(&client_hello(false, &[])),
            Classification::ClientHello {
                ritm: false,
                resumption: false
            }
        );
        assert_eq!(
            classify(&client_hello(true, &[1, 2, 3])),
            Classification::ClientHello {
                ritm: true,
                resumption: true
            }
        );
    }

    #[test]
    fn server_flight_extracts_issuer_and_serial() {
        match classify(&server_flight()) {
            Classification::ServerFlight(f) => {
                let (ca, sn) = f.leaf.expect("leaf cert parsed");
                assert_eq!(ca, CaId::from_name("CA1"));
                assert_eq!(sn, SerialNumber::from_u24(0x073e10));
                assert_eq!(f.session_id, vec![9; 32]);
                assert_eq!(f.chain.len(), 1);
            }
            other => panic!("expected server flight, got {other:?}"),
        }
    }

    #[test]
    fn application_data_is_tls_other() {
        let rec = TlsRecord::new(ContentType::ApplicationData, vec![0; 64]).to_bytes();
        assert_eq!(classify(&rec), Classification::TlsOther);
    }

    #[test]
    fn finished_detected() {
        let rec = TlsRecord::new(
            ContentType::Handshake,
            HandshakeMessage::encode_all(&[HandshakeMessage::Finished([0u8; 12])]),
        )
        .to_bytes();
        assert_eq!(classify(&rec), Classification::Finished);
    }

    #[test]
    fn garbage_that_resembles_tls_is_nonintrusive() {
        // Valid record header, garbage handshake body.
        let rec = TlsRecord::new(ContentType::Handshake, vec![0xFF; 10]).to_bytes();
        assert_eq!(classify(&rec), Classification::TlsOther);
    }

    #[test]
    fn fragmented_client_hello_classified_by_stream() {
        // Regression: per-packet classify() is blind to a ClientHello split
        // across two TCP payloads…
        let ch = client_hello(true, &[]);
        let (a, b) = ch.split_at(ch.len() / 2);
        assert_ne!(
            classify(a),
            Classification::ClientHello {
                ritm: true,
                resumption: false
            }
        );
        // …but the stream classifier reassembles it.
        let mut sc = StreamClassifier::new();
        assert_eq!(sc.push(a), vec![]);
        assert_eq!(
            sc.push(b),
            vec![Classification::ClientHello {
                ritm: true,
                resumption: false
            }]
        );
    }

    #[test]
    fn fragmented_server_flight_classified_by_stream() {
        let flight = server_flight();
        let mut sc = StreamClassifier::new();
        // Byte-by-byte: the worst possible fragmentation.
        let mut results = Vec::new();
        for &byte in &flight {
            results.extend(sc.push(&[byte]));
        }
        match results.as_slice() {
            [Classification::ServerFlight(f)] => {
                let (ca, sn) = f.leaf.expect("leaf cert parsed");
                assert_eq!(ca, CaId::from_name("CA1"));
                assert_eq!(sn, SerialNumber::from_u24(0x073e10));
                assert_eq!(f.session_id, vec![9; 32]);
            }
            other => panic!("expected one server flight, got {other:?}"),
        }
    }

    #[test]
    fn stream_classifier_flags_non_tls_once() {
        let mut sc = StreamClassifier::new();
        assert_eq!(sc.push(b"GET / HTTP/1.1"), vec![Classification::NotTls]);
        assert_eq!(sc.push(b"more"), vec![Classification::NotTls]);
    }

    #[test]
    fn stream_classifier_splits_flight_across_records() {
        // ServerHello and Certificate in *separate records*, delivered in
        // separate pushes: still one coherent flight.
        let ca_key = SigningKey::from_seed([1u8; 32]);
        let cert = Certificate::issue(
            &ca_key,
            CaId::from_name("CA1"),
            SerialNumber::from_u24(0x073e10),
            "example.com",
            0,
            10,
            SigningKey::from_seed([2u8; 32]).verifying_key(),
            false,
        );
        let sh = TlsRecord::new(
            ContentType::Handshake,
            HandshakeMessage::encode_all(&[HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random: [2u8; 32],
                session_id: vec![9; 32],
                cipher_suite: 0xc02f,
                extensions: vec![],
            })]),
        )
        .to_bytes();
        let cert_done = TlsRecord::new(
            ContentType::Handshake,
            HandshakeMessage::encode_all(&[
                HandshakeMessage::Certificate(CertificateChain(vec![cert])),
                HandshakeMessage::ServerHelloDone,
            ]),
        )
        .to_bytes();
        let mut sc = StreamClassifier::new();
        assert_eq!(sc.push(&sh), vec![]);
        match sc.push(&cert_done).as_slice() {
            [Classification::ServerFlight(f)] => {
                assert_eq!(f.session_id, vec![9; 32]);
                assert_eq!(f.chain.len(), 1);
            }
            other => panic!("expected one server flight, got {other:?}"),
        }
    }
}
