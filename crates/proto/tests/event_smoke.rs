//! Event-driven smoke test (the CI `event-smoke` step): one `EventServer`
//! on ≤2 OS threads serves ≥64 *simultaneously connected* OS-socket
//! clients — 8× the blocking `proto-smoke` scenario, which needs a thread
//! per connection — with every response validating cryptographically,
//! pipelined flights preserving order, and zero transport failures. Plus
//! the idle-cost half of the story: 1k+ concurrent connections parked on
//! one shared runtime decay the reactor tick to its 50ms ceiling (no
//! sub-millisecond sweeps while nothing is ready), and a live request
//! snaps the tick back.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent, StatusService};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaDictionary, CaId, SerialNumber};
use ritm_proto::event::{EventServer, EventTransport};
use ritm_proto::{RitmRequest, RitmResponse, Service, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const T0: u64 = 1_000_000;
const CLIENTS: u32 = 64;
const FLIGHTS_PER_CLIENT: u32 = 3;
const FLIGHT_SIZE: u32 = 4;

#[test]
fn sixty_four_concurrent_clients_on_two_threads() {
    // CA with 200 revocations, mirrored by an RA.
    let mut rng = StdRng::seed_from_u64(2025);
    let mut ca = CaDictionary::new(
        CaId::from_name("EvSmokeCA"),
        SigningKey::from_seed([5u8; 32]),
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

    let service = Arc::new(StatusService::new(ra.status_server()));
    let server = EventServer::spawn(Arc::clone(&service) as Arc<dyn Service>, 2).unwrap();
    assert!(server.thread_count() <= 2, "the whole point of the server");
    let addr = server.addr();
    let ca_id = ca.ca();
    let key = ca.verifying_key();

    // Every client connects before any client sends: the server holds all
    // 64 connections open at once on its ≤2 threads.
    let gate = Barrier::new(CLIENTS as usize);
    let transport_failures = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let gate = &gate;
            let transport_failures = &transport_failures;
            s.spawn(move || {
                let mut transport = EventTransport::connect(addr).expect("connect");
                gate.wait();
                for flight in 0..FLIGHTS_PER_CLIENT {
                    // One pipelined flight of FLIGHT_SIZE statuses, mixing
                    // revoked (even) and absent (odd) serials.
                    let queries: Vec<SerialNumber> = (0..FLIGHT_SIZE)
                        .map(|i| SerialNumber::from_u24((t * 131 + flight * 17 + i * 7) % 400))
                        .collect();
                    let reqs: Vec<RitmRequest> = queries
                        .iter()
                        .map(|&serial| RitmRequest::GetStatus { ca: ca_id, serial })
                        .collect();
                    for (q, result) in queries.iter().zip(transport.round_trip_many(&reqs)) {
                        let Ok(rt) = result else {
                            transport_failures.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        let RitmResponse::Status(payload) = rt.response else {
                            panic!("expected status for {q}");
                        };
                        let outcome = payload.statuses[0]
                            .validate(q, &key, 10, T0 + 2)
                            .expect("status validates over the event stack");
                        let expect_revoked = q.as_bytes().last().unwrap().is_multiple_of(2);
                        assert_eq!(outcome.is_revoked(), expect_revoked, "serial {q}");
                        assert!(rt.meta.response_bytes > 0);
                    }
                }
            });
        }
    });

    // The acceptance criterion: all clients were connected at once, served
    // from ≤2 threads, with zero transport failures.
    assert_eq!(transport_failures.load(Ordering::Relaxed), 0);
    assert!(
        server.peak_connections() >= CLIENTS as u64,
        "peak {} connections, expected ≥{CLIENTS}",
        server.peak_connections()
    );

    // The writer side stayed usable while clients hammered the socket.
    let more = ca
        .insert(&[SerialNumber::from_u24(9_999)], &mut rng, T0 + 5)
        .unwrap();
    ra.mirror_mut(&ca.ca())
        .unwrap()
        .apply_issuance(&more, T0 + 5)
        .unwrap();

    let served = server.shutdown();
    assert_eq!(served, (CLIENTS * FLIGHTS_PER_CLIENT * FLIGHT_SIZE) as u64);

    // Every request went through the encoded-response cache (hot serials
    // repeat, so some were served without building a proof).
    let encoded = service.server().encoded_cache_stats();
    assert_eq!(encoded.hits + encoded.misses, served);
    assert!(
        encoded.hits > 0,
        "hot serials must hit the encoded cache: {encoded:?}"
    );
}

#[test]
fn big_frames_do_not_pin_reader_buffers() {
    use ritm_dictionary::CaId;
    use ritm_rt::codec::DEFAULT_RETAIN_CAPACITY;

    /// Answers every request with a ~1 MiB manifest blob.
    struct Big;
    impl Service for Big {
        fn handle(&self, _req: RitmRequest) -> RitmResponse {
            RitmResponse::Manifest(vec![0xAB; 1 << 20])
        }
    }

    let server = EventServer::spawn(Arc::new(Big), 2).unwrap();
    let addr = server.addr();
    // 64 live connections, each of which has read one megabyte-scale
    // frame. Pre-shrink-policy, every one of these kept its megabyte
    // read buffer resident for the life of the (idle) connection.
    let mut transports: Vec<EventTransport> = (0..64)
        .map(|_| EventTransport::connect(addr).expect("connect"))
        .collect();
    for t in transports.iter_mut() {
        let rt = t
            .round_trip(&RitmRequest::GetManifest {
                ca: CaId::from_name("BigCA"),
            })
            .expect("big manifest round trip");
        match rt.response {
            RitmResponse::Manifest(b) => assert_eq!(b.len(), 1 << 20),
            other => panic!("expected manifest, got {other:?}"),
        }
    }
    // Steady state: large completed frames are handed off whole (shed),
    // so no idle connection pins more than the retain cap.
    let mut total = 0usize;
    for t in &transports {
        let resident = t.reader_resident_capacity();
        assert!(
            resident <= DEFAULT_RETAIN_CAPACITY,
            "a reader kept {resident} bytes resident after a 1MiB frame"
        );
        total += resident;
    }
    assert!(
        total <= 64 * DEFAULT_RETAIN_CAPACITY,
        "fleet keeps {total} bytes of read scratch resident"
    );
    drop(transports);
    server.shutdown();
}

const IDLE_CLIENTS: usize = 1024;

#[test]
fn a_thousand_idle_connections_cost_no_busy_ticks() {
    use ritm_dictionary::CaId;
    use ritm_proto::event::EventServerConfig;
    use ritm_proto::ProtoError;

    struct Nope;
    impl Service for Nope {
        fn handle(&self, _req: RitmRequest) -> RitmResponse {
            RitmResponse::Error(ProtoError::NotFound)
        }
    }

    // One SHARED runtime; the server rides on it, so the runtime's
    // reactor stats describe exactly this workload.
    let runtime = ritm_rt::Runtime::new(2);
    let handle = runtime.handle();
    let server =
        EventServer::spawn_on(Arc::new(Nope), &handle, EventServerConfig::default()).unwrap();
    let addr = server.addr();

    // 1k+ OS-socket clients connect and then say nothing: every one is a
    // parked task, not a thread. Connects are throttled to the kernel
    // accept backlog so none stalls in SYN retransmission.
    let mut conns = Vec::with_capacity(IDLE_CLIENTS);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    for i in 0..IDLE_CLIENTS {
        conns.push(std::net::TcpStream::connect(addr).expect("connect idle client"));
        if i % 64 == 0 {
            while (server.open_connections() as usize) + 96 < i {
                assert!(
                    std::time::Instant::now() < deadline,
                    "accept stalled at {i}"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
    while (server.open_connections() as usize) < IDLE_CLIENTS {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of {IDLE_CLIENTS} accepted",
            server.open_connections()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Let the idle streak decay the tick to its ceiling (500µs doubling
    // to 50ms takes ~7 sweeps ≈ 120ms; give it a comfortable margin).
    std::thread::sleep(std::time::Duration::from_millis(400));
    let reactor = handle.reactor();
    let before = reactor.stats();
    assert!(
        before.parked >= 64,
        "expected ≥64 parked connection tasks, saw {}",
        before.parked
    );
    std::thread::sleep(std::time::Duration::from_secs(1));
    let after = reactor.stats();

    let sweeps = after.sweeps - before.sweeps;
    let backoff = after.backoff_sweeps - before.backoff_sweeps;
    // At the 50ms ceiling, two phase-aligned workers perform ≲ 2 sweeps
    // per period — call it ≤120/s with scheduling jitter. The old fixed
    // 500µs tick did ~4000/s: this is the idle-CPU win.
    assert!(
        sweeps <= 120,
        "idle runtime swept {sweeps}× in 1s — backoff did not engage"
    );
    assert!(backoff > 0, "no sweep ever reached the backoff ceiling");
    // Every sweep in the window ran at the ceiling: none was sub-ms.
    assert_eq!(
        sweeps, backoff,
        "a fully idle runtime must only sweep at the decayed interval"
    );
    assert!(
        after.last_interval_micros >= 10_000,
        "last sweep interval {}µs is not decayed",
        after.last_interval_micros
    );

    // Snap-back: one live request on a fresh connection is answered
    // promptly (the ready task marks activity and the tick recovers).
    let mut t = EventTransport::connect(addr).unwrap();
    let started = std::time::Instant::now();
    let rt = t
        .round_trip(&RitmRequest::GetManifest {
            ca: CaId::from_name("IdleCA"),
        })
        .expect("idle runtime still serves");
    assert_eq!(rt.response, RitmResponse::Error(ProtoError::NotFound));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "snap-back took {:?}",
        started.elapsed()
    );
    let awake = reactor.stats();
    assert!(
        awake.activity_marks > after.activity_marks,
        "serving a request must mark reactor activity"
    );

    drop(t);
    drop(conns);
    server.shutdown();
    runtime.shutdown();
}
