//! §VII-D throughput: end-to-end packet processing through the RA's real
//! interception lane (a [`FlowTable`] over a [`RevocationAgent`]'s status
//! server) — non-TLS fast path, full RITM handshakes, and client-side
//! status validation — measured with wall-clock time over the actual
//! middlebox code path (not microbenchmarks of isolated pieces).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{FlowTable, InterceptConfig, RaConfig, RevocationAgent, StatusPayload};
use ritm_crypto::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, SerialNumber};
use ritm_net::middlebox::Middlebox;
use ritm_net::tcp::{Direction, FourTuple, SocketAddr, TcpSegment};
use ritm_net::time::SimTime;
use ritm_tls::certificate::{Certificate, CertificateChain};
use ritm_tls::extensions::Extension;
use ritm_tls::handshake::{ClientHello, HandshakeMessage, ServerHello};
use ritm_tls::record::{ContentType, TlsRecord};
use std::collections::HashMap;
use std::time::Instant;

const T0: u64 = 1_397_000_000;
const DELTA: u64 = 10;

fn tuple(port: u16) -> FourTuple {
    FourTuple {
        client: SocketAddr::new(1, port),
        server: SocketAddr::new(2, 443),
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let ca_key = SigningKey::from_seed([1u8; 32]);
    let mut ca = CaDictionary::new(
        CaId::from_name("TpCA"),
        ca_key.clone(),
        DELTA,
        1 << 10,
        &mut rng,
        T0,
    );
    let genesis = *ca.signed_root();
    let revoked: Vec<SerialNumber> = (0..50_000u32).map(SerialNumber::from_u24).collect();
    let iss = ca.insert(&revoked, &mut rng, T0 + 1).expect("insert");

    let mut ra = RevocationAgent::new(RaConfig {
        delta: DELTA,
        ..Default::default()
    });
    ra.follow_ca(ca.ca(), ca.verifying_key(), genesis).unwrap();
    ra.mirror_mut(&ca.ca())
        .unwrap()
        .apply_issuance(&iss, T0 + 1)
        .unwrap();

    let mut lane = FlowTable::new(
        ra.status_server(),
        InterceptConfig {
            delta: DELTA,
            ..Default::default()
        },
    );
    let now = SimTime::from_secs(T0 + 2);

    // --- Non-TLS packets through the full middlebox path: one plain-HTTP
    //     flow, every segment at its real sequence number.
    let n = 200_000usize;
    let request = b"GET / HTTP/1.1\r\n";
    let t = Instant::now();
    for i in 0..n {
        let seq = (i * request.len()) as u64;
        lane.process(
            TcpSegment::data(tuple(1), Direction::ToServer, seq, 0, request.to_vec()),
            now,
        );
    }
    let non_tls_rate = n as f64 / t.elapsed().as_secs_f64();

    // --- Full RITM-supported handshakes: ClientHello + ServerHello flight.
    let server_key = SigningKey::from_seed([2u8; 32]);
    let cert = Certificate::issue(
        &ca_key,
        ca.ca(),
        SerialNumber::from_u24(0x700000),
        "example.com",
        T0 - 100,
        T0 + 1_000_000,
        server_key.verifying_key(),
        false,
    );
    let ch = TlsRecord::new(
        ContentType::Handshake,
        HandshakeMessage::encode_all(&[HandshakeMessage::ClientHello(ClientHello {
            version: 0x0303,
            random: [1u8; 32],
            session_id: vec![],
            cipher_suites: vec![0xc02f],
            extensions: vec![Extension::ritm_request()],
        })]),
    );
    let flight = TlsRecord::new(
        ContentType::Handshake,
        HandshakeMessage::encode_all(&[
            HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random: [2u8; 32],
                session_id: vec![3; 32],
                cipher_suite: 0xc02f,
                extensions: vec![],
            }),
            HandshakeMessage::Certificate(CertificateChain(vec![cert])),
            HandshakeMessage::ServerHelloDone,
        ]),
    );
    let (ch, flight) = (ch.to_bytes(), flight.to_bytes());
    let hs = 20_000usize;
    let t = Instant::now();
    let mut last_out = Vec::new();
    for i in 0..hs {
        let port = 2 + (i % 60_000) as u16;
        lane.process(
            TcpSegment::data(tuple(port), Direction::ToServer, 0, 0, ch.clone()),
            now,
        );
        last_out = lane.process(
            TcpSegment::data(
                tuple(port),
                Direction::ToClient,
                0,
                ch.len() as u64,
                flight.clone(),
            ),
            now,
        );
        // Connection done: drop state so the table does not grow unbounded.
        let mut fin =
            TcpSegment::data(tuple(port), Direction::ToServer, ch.len() as u64, 0, vec![]);
        fin.flags.fin = true;
        lane.process(fin, now);
    }
    let hs_rate = hs as f64 / t.elapsed().as_secs_f64();

    // --- Client-side validations of the status the RA just stapled (the
    //     first segment it released, in front of the flight).
    let status_rec = TlsRecord::parse_stream(&last_out[0].payload)
        .unwrap()
        .into_iter()
        .find(|r| r.content_type == ContentType::RitmStatus)
        .expect("status injected");
    let payload = StatusPayload::from_bytes(&status_rec.payload).unwrap();
    let mut keys = HashMap::new();
    keys.insert(ca.ca(), ca.verifying_key());
    let chain = [(ca.ca(), SerialNumber::from_u24(0x700000))];
    let vals = 5_000usize;
    let t = Instant::now();
    for _ in 0..vals {
        ritm_client::validate_payload(&payload, &chain, &keys, DELTA, T0 + 2).expect("valid");
    }
    let val_rate = vals as f64 / t.elapsed().as_secs_f64();

    println!("§VII-D end-to-end throughput through the RA's interception lane (FlowTable)");
    println!();
    println!("  non-TLS packets/s:          {non_tls_rate:>12.0}   (paper: >340,000)");
    println!("  RITM TLS handshakes/s:      {hs_rate:>12.0}   (paper: >50,000)");
    println!("  client validations/s:       {val_rate:>12.0}   (paper: ~4,000)");
    println!();
    let stats = lane.stats();
    println!(
        "  lane stats: {} flows tracked, {} bypassed, {} statuses injected ({} B)",
        stats.flows_tracked, stats.flows_bypassed, stats.statuses_injected, stats.bytes_injected
    );
}
