//! Property-based tests for the TLS substrate: wire-format round-trips over
//! arbitrary field values, and robustness of every parser against garbage
//! and truncation (parsers must reject, never panic, never misparse).

use proptest::prelude::*;
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
use ritm_tls::connection::{ClientConfig, ServerContext};
use ritm_tls::engine::{Action, ClientEngine, RecordAssembler, ServerEngine};
use ritm_tls::extensions::Extension;
use ritm_tls::handshake::{ClientHello, HandshakeMessage, ServerHello, SessionTicket};
use ritm_tls::record::{ContentType, TlsRecord};

/// Handshake wall-clock for the engine properties (certs below are valid
/// around it).
const NOW: u64 = 1_000_000;

fn engine_pki() -> (CertificateChain, TrustAnchors) {
    let ca_key = SigningKey::from_seed([1u8; 32]);
    let server_key = SigningKey::from_seed([2u8; 32]);
    let leaf = Certificate::issue(
        &ca_key,
        CaId::from_name("PropCA"),
        SerialNumber::from_u24(7),
        "prop.example.com",
        NOW - 100,
        NOW + 100_000,
        server_key.verifying_key(),
        false,
    );
    let mut anchors = TrustAnchors::new();
    anchors.add(CaId::from_name("PropCA"), ca_key.verifying_key());
    (CertificateChain(vec![leaf]), anchors)
}

fn engine_config(anchors: TrustAnchors) -> ClientConfig {
    ClientConfig {
        server_name: "prop.example.com".into(),
        anchors,
        enable_ritm: true,
    }
}

/// The whole records `actions` asks the driver to send; an abort fails the
/// lockstep run.
fn records_sent(actions: Vec<Action>) -> Vec<TlsRecord> {
    let mut records = Vec::new();
    for action in actions {
        match action {
            Action::SendBytes(b) => records.extend(TlsRecord::parse_stream(&b).unwrap()),
            Action::Abort { alert } => panic!("lockstep engine aborted: {alert:?}"),
            _ => {}
        }
    }
    records
}

/// Runs both engines to completion in lockstep, one whole record per
/// `feed` call, returning the exact bytes each side put on the wire.
fn lockstep_transcript(chain: CertificateChain, anchors: TrustAnchors) -> (Vec<u8>, Vec<u8>) {
    let ctx = ServerContext::new(chain, [9u8; 20]);
    let mut client = ClientEngine::new(engine_config(anchors), [2u8; 32], None);
    let mut server = ServerEngine::new(ctx, [1u8; 32]);
    let mut client_bytes = Vec::new();
    let mut server_bytes = Vec::new();
    let mut to_server = vec![client.start()];
    for _ in 0..8 {
        let mut to_client = Vec::new();
        for rec in to_server.drain(..) {
            let bytes = rec.to_bytes();
            client_bytes.extend_from_slice(&bytes);
            to_client.extend(records_sent(server.feed(NOW, &bytes)));
        }
        for rec in to_client.drain(..) {
            let bytes = rec.to_bytes();
            server_bytes.extend_from_slice(&bytes);
            to_server.extend(records_sent(client.feed(NOW, &bytes)));
        }
        if client.is_established() && to_server.is_empty() {
            break;
        }
    }
    assert!(client.is_established() && server.is_established());
    (client_bytes, server_bytes)
}

fn arb_content_type() -> impl Strategy<Value = ContentType> {
    prop_oneof![
        Just(ContentType::ChangeCipherSpec),
        Just(ContentType::Alert),
        Just(ContentType::Handshake),
        Just(ContentType::ApplicationData),
        Just(ContentType::RitmStatus),
    ]
}

fn arb_extension() -> impl Strategy<Value = Extension> {
    (any::<u16>(), prop::collection::vec(any::<u8>(), 0..64))
        .prop_map(|(ext_type, data)| Extension { ext_type, data })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn record_streams_round_trip(
        records in prop::collection::vec(
            (arb_content_type(), prop::collection::vec(any::<u8>(), 0..512)),
            0..6,
        )
    ) {
        let records: Vec<TlsRecord> = records
            .into_iter()
            .map(|(ct, payload)| TlsRecord::new(ct, payload))
            .collect();
        let stream = TlsRecord::encode_stream(&records);
        prop_assert_eq!(TlsRecord::parse_stream(&stream).unwrap(), records);
    }

    #[test]
    fn record_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = TlsRecord::parse_stream(&bytes);
    }

    #[test]
    fn client_hello_round_trips(
        random in any::<[u8; 32]>(),
        session_id in prop::collection::vec(any::<u8>(), 0..32),
        suites in prop::collection::vec(any::<u16>(), 1..8),
        extensions in prop::collection::vec(arb_extension(), 0..4),
        ritm in any::<bool>(),
    ) {
        let mut extensions = extensions;
        if ritm {
            extensions.push(Extension::ritm_request());
        }
        let msg = HandshakeMessage::ClientHello(ClientHello {
            version: 0x0303,
            random,
            session_id,
            cipher_suites: suites,
            extensions,
        });
        let parsed = HandshakeMessage::parse_all(&msg.to_bytes()).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(&parsed[0], &msg);
        if let HandshakeMessage::ClientHello(ch) = &parsed[0] {
            prop_assert_eq!(ch.has_ritm_extension(), ritm);
        }
    }

    #[test]
    fn server_hello_and_ticket_round_trip(
        random in any::<[u8; 32]>(),
        session_id in prop::collection::vec(any::<u8>(), 0..32),
        suite in any::<u16>(),
        lifetime in any::<u32>(),
        ticket in prop::collection::vec(any::<u8>(), 0..128),
        confirm in any::<bool>(),
    ) {
        let mut extensions = Vec::new();
        if confirm {
            extensions.push(Extension::ritm_confirmation());
        }
        let msgs = vec![
            HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random,
                session_id,
                cipher_suite: suite,
                extensions,
            }),
            HandshakeMessage::NewSessionTicket(SessionTicket { lifetime, ticket }),
            HandshakeMessage::ServerHelloDone,
        ];
        let payload = HandshakeMessage::encode_all(&msgs);
        let parsed = HandshakeMessage::parse_all(&payload).unwrap();
        prop_assert_eq!(&parsed, &msgs);
        if let HandshakeMessage::ServerHello(sh) = &parsed[0] {
            prop_assert_eq!(sh.confirms_ritm(), confirm);
        }
    }

    #[test]
    fn handshake_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = HandshakeMessage::parse_all(&bytes);
    }

    #[test]
    fn certificates_round_trip_and_stay_valid(
        seed in any::<[u8; 32]>(),
        serial in 1u32..0xffffff,
        subject in "[a-z]{1,20}\\.(com|org|net)",
        not_before in 0u64..1_000_000,
        lifetime in 1u64..10_000_000,
    ) {
        let ca_key = SigningKey::from_seed(seed);
        let subject_key = SigningKey::from_seed([9u8; 32]);
        let cert = Certificate::issue(
            &ca_key,
            CaId::from_name("PropCA"),
            SerialNumber::from_u24(serial),
            &subject,
            not_before,
            not_before + lifetime,
            subject_key.verifying_key(),
            false,
        );
        let back = Certificate::from_bytes(&cert.to_bytes()).unwrap();
        prop_assert_eq!(&back, &cert);
        prop_assert!(back.verify(&ca_key.verifying_key(), not_before + lifetime / 2).is_ok());
        // Truncations never parse nor panic.
        let bytes = cert.to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            prop_assert!(Certificate::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn chain_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = CertificateChain::from_bytes(&bytes);
    }

    #[test]
    fn dpi_classifier_never_panics_and_non_tls_is_stable(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // The RA's per-packet entry point must be total.
        let c1 = ritm_agent::dpi::classify(&bytes);
        let c2 = ritm_agent::dpi::classify(&bytes);
        prop_assert_eq!(c1, c2, "classification must be deterministic");
    }

    #[test]
    fn record_assembler_is_total(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..8),
    ) {
        // Arbitrary bytes in arbitrary chunks: errors are typed, never
        // panics, and an error is sticky evidence (not a crash).
        let mut asm = RecordAssembler::new();
        for chunk in &chunks {
            asm.push(chunk);
            while let Ok(Some(_)) = asm.next_record() {}
        }
    }

    #[test]
    fn engine_feed_is_total_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let (chain, anchors) = engine_pki();
        let split = split.min(bytes.len());

        // Server engine fed arbitrary bytes in two arbitrary chunks.
        let mut server = ServerEngine::new(ServerContext::new(chain, [9u8; 20]), [1u8; 32]);
        let first = server.feed(NOW, &bytes[..split]);
        let second = server.feed(NOW, &bytes[split..]);
        // Once aborted, the engine stays aborted (no revival on new bytes).
        if first.iter().any(|a| matches!(a, Action::Abort { .. })) {
            prop_assert!(
                second.iter().all(|a| matches!(a, Action::Abort { .. })),
                "latched abort must not emit traffic: {second:?}",
            );
        }

        // Client engine likewise (after its opening flight).
        let mut client = ClientEngine::new(engine_config(anchors), [2u8; 32], None);
        let _ = client.start();
        let _ = client.feed(NOW, &bytes[..split]);
        let _ = client.feed(NOW, &bytes[split..]);
    }

    #[test]
    fn engines_match_lockstep_under_fragmentation(
        chunks in prop::collection::vec(1usize..97, 1..64),
    ) {
        let (chain, anchors) = engine_pki();
        let (golden_client, golden_server) =
            lockstep_transcript(chain.clone(), anchors.clone());

        // Same keys, same randoms, fresh context: `feed` must put the bytes
        // it puts there on whole records on the wire no matter how reads
        // fragment.
        let mut client = ClientEngine::new(engine_config(anchors), [2u8; 32], None);
        let mut server = ServerEngine::new(ServerContext::new(chain, [9u8; 20]), [1u8; 32]);
        let start = client.start().to_bytes();
        let mut sent_client = start.clone();
        let mut sent_server: Vec<u8> = Vec::new();
        let mut queue_cs = start; // bytes in flight client→server
        let mut queue_sc: Vec<u8> = Vec::new();
        let mut next_chunk = 0usize;
        let mut take = |queue: &mut Vec<u8>| -> Vec<u8> {
            let n = chunks[next_chunk % chunks.len()].min(queue.len());
            next_chunk += 1;
            queue.drain(..n).collect()
        };
        for _ in 0..20_000 {
            if client.is_established()
                && server.is_established()
                && queue_cs.is_empty()
                && queue_sc.is_empty()
            {
                break;
            }
            if !queue_cs.is_empty() {
                let chunk = take(&mut queue_cs);
                for action in server.feed(NOW, &chunk) {
                    match action {
                        Action::SendBytes(b) => {
                            sent_server.extend_from_slice(&b);
                            queue_sc.extend_from_slice(&b);
                        }
                        Action::Abort { alert } => {
                            return Err(TestCaseError::fail(format!("server aborted: {alert:?}")));
                        }
                        _ => {}
                    }
                }
            }
            if !queue_sc.is_empty() {
                let chunk = take(&mut queue_sc);
                for action in client.feed(NOW, &chunk) {
                    match action {
                        Action::SendBytes(b) => {
                            sent_client.extend_from_slice(&b);
                            queue_cs.extend_from_slice(&b);
                        }
                        Action::Abort { alert } => {
                            return Err(TestCaseError::fail(format!("client aborted: {alert:?}")));
                        }
                        _ => {}
                    }
                }
            }
        }
        prop_assert!(client.is_established(), "client engine must complete");
        prop_assert!(server.is_established(), "server engine must complete");
        prop_assert_eq!(sent_client, golden_client, "client bytes diverge from lockstep");
        prop_assert_eq!(sent_server, golden_server, "server bytes diverge from lockstep");
    }
}
