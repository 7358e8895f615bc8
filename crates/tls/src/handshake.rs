//! TLS handshake messages: ClientHello, ServerHello, Certificate,
//! ServerHelloDone, ClientKeyExchange, Finished, NewSessionTicket.
//!
//! Message framing follows RFC 5246 (`msg_type(1) ‖ length(3) ‖ body`).
//! The RITM ClientHello extension (paper §III step 1) rides in the standard
//! extensions block.

use crate::certificate::CertificateChain;
use crate::extensions::Extension;
use ritm_crypto::wire::{DecodeError, Reader, Writer};

/// The standard TLS 1.2 cipher suite this substrate always negotiates
/// (`TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256`).
pub const DEFAULT_CIPHER_SUITE: u16 = 0xc02f;

/// ClientHello body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Highest protocol version the client offers.
    pub version: u16,
    /// 32-byte client random.
    pub random: [u8; 32],
    /// Session id offered for resumption (empty for a full handshake).
    pub session_id: Vec<u8>,
    /// Offered cipher suites.
    pub cipher_suites: Vec<u16>,
    /// TLS extensions (where the RITM extension lives).
    pub extensions: Vec<Extension>,
}

impl ClientHello {
    /// Whether the RITM extension is present (what an RA's DPI checks).
    pub fn has_ritm_extension(&self) -> bool {
        self.extensions
            .iter()
            .any(|e| e.ext_type == crate::extensions::RITM_EXTENSION_TYPE)
    }
}

/// ServerHello body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Negotiated protocol version.
    pub version: u16,
    /// 32-byte server random.
    pub random: [u8; 32],
    /// Session id (echoed for resumption, fresh otherwise).
    pub session_id: Vec<u8>,
    /// Selected cipher suite.
    pub cipher_suite: u16,
    /// TLS extensions (the close-to-server deployment confirms RITM support
    /// here, §IV).
    pub extensions: Vec<Extension>,
}

impl ServerHello {
    /// Whether the server-side RITM deployment confirmation is present.
    pub fn confirms_ritm(&self) -> bool {
        self.extensions
            .iter()
            .any(|e| e.ext_type == crate::extensions::RITM_CONFIRM_EXTENSION_TYPE)
    }
}

/// A session ticket (RFC 5077) for server-stateless resumption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTicket {
    /// Ticket lifetime hint in seconds.
    pub lifetime: u32,
    /// Opaque ticket bytes.
    pub ticket: Vec<u8>,
}

/// One handshake-layer message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMessage {
    /// Type 1.
    ClientHello(ClientHello),
    /// Type 2.
    ServerHello(ServerHello),
    /// Type 11.
    Certificate(CertificateChain),
    /// Type 14.
    ServerHelloDone,
    /// Type 16 (opaque key-exchange bytes in this substrate).
    ClientKeyExchange(Vec<u8>),
    /// Type 20: 12-byte verify-data over the transcript.
    Finished([u8; 12]),
    /// Type 4 (RFC 5077).
    NewSessionTicket(SessionTicket),
}

impl HandshakeMessage {
    /// RFC 5246 message type code.
    fn msg_type(&self) -> u8 {
        match self {
            HandshakeMessage::ClientHello(_) => 1,
            HandshakeMessage::ServerHello(_) => 2,
            HandshakeMessage::NewSessionTicket(_) => 4,
            HandshakeMessage::Certificate(_) => 11,
            HandshakeMessage::ServerHelloDone => 14,
            HandshakeMessage::ClientKeyExchange(_) => 16,
            HandshakeMessage::Finished(_) => 20,
        }
    }

    /// Exact encoded size (`msg_type ‖ u24 length ‖ body`), computed
    /// without serializing.
    pub fn encoded_len(&self) -> usize {
        4 + self.body_len()
    }

    fn body_len(&self) -> usize {
        match self {
            HandshakeMessage::ClientHello(ch) => {
                2 + 32
                    + 1
                    + ch.session_id.len()
                    + 2
                    + 2 * ch.cipher_suites.len()
                    + Extension::block_len(&ch.extensions)
            }
            HandshakeMessage::ServerHello(sh) => {
                2 + 32 + 1 + sh.session_id.len() + 2 + Extension::block_len(&sh.extensions)
            }
            HandshakeMessage::Certificate(chain) => chain.encoded_len(),
            HandshakeMessage::ServerHelloDone => 0,
            HandshakeMessage::ClientKeyExchange(data) => 2 + data.len(),
            HandshakeMessage::Finished(vd) => vd.len(),
            HandshakeMessage::NewSessionTicket(t) => 4 + 2 + t.ticket.len(),
        }
    }

    /// Encodes `msg_type ‖ u24 length ‖ body` (pre-sized to
    /// [`HandshakeMessage::encoded_len`]; never reallocates).
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = self.body_bytes();
        let mut w = Writer::with_capacity(4 + body.len());
        w.u8(self.msg_type());
        w.vec24(&body);
        w.into_bytes()
    }

    fn body_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            HandshakeMessage::ClientHello(ch) => {
                w.u16(ch.version);
                w.bytes(&ch.random);
                w.vec8(&ch.session_id);
                let mut suites = Writer::new();
                for s in &ch.cipher_suites {
                    suites.u16(*s);
                }
                w.vec16(suites.as_bytes());
                Extension::encode_block(&ch.extensions, &mut w);
            }
            HandshakeMessage::ServerHello(sh) => {
                w.u16(sh.version);
                w.bytes(&sh.random);
                w.vec8(&sh.session_id);
                w.u16(sh.cipher_suite);
                Extension::encode_block(&sh.extensions, &mut w);
            }
            HandshakeMessage::Certificate(chain) => {
                w.bytes(&chain.to_bytes());
            }
            HandshakeMessage::ServerHelloDone => {}
            HandshakeMessage::ClientKeyExchange(data) => {
                w.vec16(data);
            }
            HandshakeMessage::Finished(vd) => {
                w.bytes(vd);
            }
            HandshakeMessage::NewSessionTicket(t) => {
                w.u32(t.lifetime);
                w.vec16(&t.ticket);
            }
        }
        w.into_bytes()
    }

    /// Decodes one handshake message.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or an unknown message type.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let pos = r.position();
        let msg_type = r.u8("handshake type")?;
        let body = r.vec24("handshake body")?;
        let mut b = Reader::new(body);
        let msg = match msg_type {
            1 => {
                let version = b.u16("ch version")?;
                let random = b.array("ch random")?;
                let session_id = b.vec8("ch session id")?.to_vec();
                let suites_raw = b.vec16("ch cipher suites")?;
                if suites_raw.len() % 2 != 0 {
                    return Err(DecodeError::new("odd cipher suite bytes", pos));
                }
                let cipher_suites = suites_raw
                    .chunks_exact(2)
                    .map(|c| u16::from_be_bytes([c[0], c[1]]))
                    .collect();
                let extensions = Extension::decode_block(&mut b)?;
                HandshakeMessage::ClientHello(ClientHello {
                    version,
                    random,
                    session_id,
                    cipher_suites,
                    extensions,
                })
            }
            2 => {
                let version = b.u16("sh version")?;
                let random = b.array("sh random")?;
                let session_id = b.vec8("sh session id")?.to_vec();
                let cipher_suite = b.u16("sh cipher suite")?;
                let extensions = Extension::decode_block(&mut b)?;
                HandshakeMessage::ServerHello(ServerHello {
                    version,
                    random,
                    session_id,
                    cipher_suite,
                    extensions,
                })
            }
            4 => {
                let lifetime = b.u32("ticket lifetime")?;
                let ticket = b.vec16("ticket bytes")?.to_vec();
                HandshakeMessage::NewSessionTicket(SessionTicket { lifetime, ticket })
            }
            11 => {
                let chain = CertificateChain::from_bytes(body)?;
                // CertificateChain::from_bytes consumed the whole body.
                return Ok(HandshakeMessage::Certificate(chain));
            }
            14 => HandshakeMessage::ServerHelloDone,
            16 => HandshakeMessage::ClientKeyExchange(b.vec16("cke data")?.to_vec()),
            20 => HandshakeMessage::Finished(b.array("finished verify data")?),
            _ => return Err(DecodeError::new("unknown handshake type", pos)),
        };
        b.finish("handshake body trailing bytes")?;
        Ok(msg)
    }

    /// Parses every handshake message in a record payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload is not whole messages.
    pub fn parse_all(payload: &[u8]) -> Result<Vec<HandshakeMessage>, DecodeError> {
        let mut r = Reader::new(payload);
        let mut out = Vec::new();
        while !r.is_done() {
            out.push(HandshakeMessage::decode(&mut r)?);
        }
        Ok(out)
    }

    /// Serializes a batch of handshake messages into one record payload,
    /// pre-sized via summed [`HandshakeMessage::encoded_len`] (the same
    /// exact pre-sizing the proof/status encoders use) — the returned
    /// buffer never reallocates.
    pub fn encode_all(messages: &[HandshakeMessage]) -> Vec<u8> {
        let total: usize = messages.iter().map(HandshakeMessage::encoded_len).sum();
        let mut out = Vec::with_capacity(total);
        for m in messages {
            out.extend_from_slice(&m.to_bytes());
        }
        debug_assert_eq!(out.len(), total, "encoded_len must match encoding");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extensions::Extension;

    fn sample_client_hello() -> ClientHello {
        ClientHello {
            version: 0x0303,
            random: [7u8; 32],
            session_id: vec![1, 2, 3],
            cipher_suites: vec![DEFAULT_CIPHER_SUITE, 0x002f],
            extensions: vec![Extension::ritm_request()],
        }
    }

    fn one_of_each() -> Vec<HandshakeMessage> {
        let ca_key = ritm_crypto::ed25519::SigningKey::from_seed([1u8; 32]);
        let cert = crate::certificate::Certificate::issue(
            &ca_key,
            ritm_dictionary_ca_id(),
            ritm_dictionary::SerialNumber::from_u24(7),
            "caplen.example",
            0,
            u64::MAX,
            ritm_crypto::ed25519::SigningKey::from_seed([2u8; 32]).verifying_key(),
            false,
        );
        vec![
            HandshakeMessage::ClientHello(sample_client_hello()),
            HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random: [9u8; 32],
                session_id: vec![5; 32],
                cipher_suite: DEFAULT_CIPHER_SUITE,
                extensions: vec![Extension::ritm_confirmation(), Extension::sni("x.example")],
            }),
            HandshakeMessage::Certificate(crate::certificate::CertificateChain(vec![cert])),
            HandshakeMessage::ServerHelloDone,
            HandshakeMessage::ClientKeyExchange(vec![3u8; 48]),
            HandshakeMessage::Finished([6u8; 12]),
            HandshakeMessage::NewSessionTicket(SessionTicket {
                lifetime: 300,
                ticket: vec![8u8; 96],
            }),
        ]
    }

    fn ritm_dictionary_ca_id() -> ritm_dictionary::CaId {
        ritm_dictionary::CaId::from_name("CapLenCA")
    }

    #[test]
    fn encoded_len_is_exact_for_every_variant() {
        for msg in one_of_each() {
            assert_eq!(msg.to_bytes().len(), msg.encoded_len(), "{msg:?}");
        }
    }

    #[test]
    fn encode_all_is_exactly_presized() {
        let messages = one_of_each();
        let total: usize = messages.iter().map(HandshakeMessage::encoded_len).sum();
        let out = HandshakeMessage::encode_all(&messages);
        assert_eq!(out.len(), total);
        assert_eq!(out.capacity(), out.len(), "pre-sized, no realloc");
    }

    #[test]
    fn client_hello_round_trip() {
        let msg = HandshakeMessage::ClientHello(sample_client_hello());
        let bytes = msg.to_bytes();
        let back = HandshakeMessage::parse_all(&bytes).unwrap();
        assert_eq!(back, vec![msg]);
    }

    #[test]
    fn ritm_extension_detected() {
        let ch = sample_client_hello();
        assert!(ch.has_ritm_extension());
        let mut no_ritm = ch.clone();
        no_ritm.extensions.clear();
        assert!(!no_ritm.has_ritm_extension());
    }

    #[test]
    fn server_hello_round_trip() {
        let msg = HandshakeMessage::ServerHello(ServerHello {
            version: 0x0303,
            random: [9u8; 32],
            session_id: vec![5; 32],
            cipher_suite: DEFAULT_CIPHER_SUITE,
            extensions: vec![Extension::ritm_confirmation()],
        });
        let back = HandshakeMessage::parse_all(&msg.to_bytes()).unwrap();
        assert_eq!(back, vec![msg.clone()]);
        if let HandshakeMessage::ServerHello(sh) = &back[0] {
            assert!(sh.confirms_ritm());
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn multiple_messages_in_one_payload() {
        let msgs = vec![
            HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random: [1u8; 32],
                session_id: vec![],
                cipher_suite: DEFAULT_CIPHER_SUITE,
                extensions: vec![],
            }),
            HandshakeMessage::ServerHelloDone,
        ];
        let payload = HandshakeMessage::encode_all(&msgs);
        assert_eq!(HandshakeMessage::parse_all(&payload).unwrap(), msgs);
    }

    #[test]
    fn finished_and_cke_round_trip() {
        for msg in [
            HandshakeMessage::Finished([3u8; 12]),
            HandshakeMessage::ClientKeyExchange(vec![0xAA; 48]),
            HandshakeMessage::NewSessionTicket(SessionTicket {
                lifetime: 3600,
                ticket: vec![1; 64],
            }),
            HandshakeMessage::ServerHelloDone,
        ] {
            let back = HandshakeMessage::parse_all(&msg.to_bytes()).unwrap();
            assert_eq!(back, vec![msg]);
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = HandshakeMessage::ServerHelloDone.to_bytes();
        bytes[0] = 99;
        assert!(HandshakeMessage::parse_all(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_in_body_rejected() {
        let msg = HandshakeMessage::Finished([0u8; 12]);
        let mut bytes = msg.to_bytes();
        // Grow the body by one byte and fix the u24 length.
        bytes.push(0xFF);
        bytes[3] += 1;
        assert!(HandshakeMessage::parse_all(&bytes).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let bytes = HandshakeMessage::ClientHello(sample_client_hello()).to_bytes();
        for cut in [1, 3, 10, bytes.len() - 1] {
            assert!(
                HandshakeMessage::parse_all(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }
}
