//! TCP smoke test (the CI `proto-smoke` step): a real `std::net` server in
//! front of an RA's lock-free status path serves concurrent client threads
//! end to end — every response validates cryptographically, the bounded
//! acceptor pool survives more connections than workers, and shutdown is
//! clean.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent, StatusService};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, SerialNumber};
use ritm_proto::tcp::{TcpServer, TcpTransport};
use ritm_proto::{RitmRequest, RitmResponse, Service, Transport};
use std::sync::Arc;

const T0: u64 = 1_000_000;
const THREADS: u32 = 8;
const REQUESTS_PER_THREAD: u32 = 50;

#[test]
fn concurrent_tcp_clients_get_valid_statuses() {
    // CA with 200 revocations, mirrored by an RA.
    let mut rng = StdRng::seed_from_u64(2024);
    let mut ca = CaDictionary::new(
        CaId::from_name("TcpSmokeCA"),
        SigningKey::from_seed([3u8; 32]),
        10,
        1 << 10,
        &mut rng,
        T0,
    );
    let mut ra = RevocationAgent::new(RaConfig::default());
    ra.follow_ca(ca.ca(), ca.verifying_key(), *ca.signed_root())
        .unwrap();
    let serials: Vec<SerialNumber> = (0..200u32).map(|i| SerialNumber::from_u24(i * 2)).collect();
    let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
    ra.mirror_mut(&ca.ca())
        .unwrap()
        .apply_issuance(&iss, T0 + 1)
        .unwrap();

    // Serve the RA's read path over real OS sockets with a pool smaller
    // than the client count: connections must queue, not crash.
    let service = Arc::new(StatusService::new(ra.status_server()));
    let server = TcpServer::spawn(Arc::clone(&service) as Arc<dyn Service>, 4).unwrap();
    let addr = server.addr();
    let ca_id = ca.ca();
    let key = ca.verifying_key();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let mut transport = TcpTransport::connect(addr).expect("connect");
                for i in 0..REQUESTS_PER_THREAD {
                    // Mix revoked (even) and absent (odd) serials.
                    let q = SerialNumber::from_u24((t * 131 + i * 7) % 400);
                    let rt = transport
                        .round_trip(&RitmRequest::GetStatus {
                            ca: ca_id,
                            serial: q,
                        })
                        .expect("round trip");
                    let RitmResponse::Status(payload) = rt.response else {
                        panic!("expected status");
                    };
                    let outcome = payload.statuses[0]
                        .validate(&q, &key, 10, T0 + 2)
                        .expect("status validates over TCP");
                    let expect_revoked = q.as_bytes().last().unwrap().is_multiple_of(2);
                    assert_eq!(outcome.is_revoked(), expect_revoked, "serial {q}");
                    assert!(rt.meta.response_bytes > 0);
                }
            });
        }
    });

    // While clients hammered the socket, the writer side stayed usable:
    // the RA (owner) can still mutate mirrors after the fact.
    let more = ca
        .insert(&[SerialNumber::from_u24(9_999)], &mut rng, T0 + 5)
        .unwrap();
    ra.mirror_mut(&ca.ca())
        .unwrap()
        .apply_issuance(&more, T0 + 5)
        .unwrap();

    let served = server.shutdown();
    assert_eq!(served, (THREADS * REQUESTS_PER_THREAD) as u64);
}
