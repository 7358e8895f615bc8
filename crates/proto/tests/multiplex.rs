//! Acceptance for the v2 multiplexed event stack: v2↔v2 multiplexes with
//! ids echoed, a v1 reply fails the whole flight and poisons the client,
//! out-of-order completion (a slow `CatchUpPaged` no longer head-of-line blocks
//! the `GetStatus` requests behind it), connection-count backpressure (the
//! acceptor pauses at the cap and resumes as connections close), the
//! keepalive reaper (idle connections are dropped with a typed goodbye;
//! connections with work in flight are not), and the shared
//! multi-endpoint runtime (RA + CA + edge servers on one ≤2-thread
//! reactor/executor pair, torn down independently).

use ritm_dictionary::{CaId, SerialNumber};
use ritm_proto::event::{EventServer, EventServerConfig, EventTransport};
use ritm_proto::{ProtoError, RitmRequest, RitmResponse, Service, Transport, TransportError};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answers everything with `NotFound` (enough to count round trips).
struct Nope;

impl Service for Nope {
    fn handle(&self, _req: RitmRequest) -> RitmResponse {
        RitmResponse::Error(ProtoError::NotFound)
    }
}

/// Echoes the request's CA id back, so replies are distinguishable and
/// misrouting (a reply landing in the wrong slot) is observable.
struct EchoCa;

impl Service for EchoCa {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        match req {
            RitmRequest::GetManifest { ca }
            | RitmRequest::FetchDelta { ca }
            | RitmRequest::GetStatus { ca, .. } => RitmResponse::Error(ProtoError::UnknownCa(ca)),
            _ => RitmResponse::Error(ProtoError::Unsupported),
        }
    }
}

fn negotiation_requests() -> Vec<RitmRequest> {
    (0..3)
        .map(|i| RitmRequest::GetManifest {
            ca: CaId::from_name(&format!("NegCA{i}")),
        })
        .collect()
}

#[test]
fn negotiation_v2_multiplexes_with_ids_echoed() {
    let reqs = negotiation_requests();
    // Every request frame is the v1 encoding plus the 4-byte id, and every
    // reply lands in the slot of the request it answers.
    let server = EventServer::spawn(Arc::new(EchoCa), 2).unwrap();
    let mut t = EventTransport::connect(server.addr()).unwrap();
    for (i, r) in t.round_trip_many(&reqs).into_iter().enumerate() {
        let rt = r.expect("v2 flight");
        assert_eq!(rt.meta.request_bytes as usize, reqs[i].to_frame().len() + 4);
        assert_eq!(
            rt.response,
            RitmResponse::Error(ProtoError::UnknownCa(CaId::from_name(&format!("NegCA{i}"))))
        );
    }
    drop(t);
    assert_eq!(server.shutdown(), 3);
}

#[test]
fn v1_reply_fails_the_whole_flight_and_poisons_the_transport() {
    // A v1-only peer: answers every frame, whatever it says, with a v1
    // `UnsupportedVersion { requested: 2, supported: 1 }` frame.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let reply = RitmResponse::Error(ProtoError::UnsupportedVersion {
            requested: 2,
            supported: 1,
        })
        .to_frame();
        let mut prefix = [0u8; 4];
        while stream.read_exact(&mut prefix).is_ok() {
            let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
            if stream.read_exact(&mut body).is_err() || stream.write_all(&reply).is_err() {
                break;
            }
        }
    });
    let mut t = EventTransport::connect(addr).unwrap();
    let results = t.round_trip_many(&negotiation_requests());
    // No slot is `Ok`: the reply carries no id, so no request of the
    // flight can claim it.
    assert_eq!(results.len(), 3);
    for (i, r) in results.iter().enumerate() {
        assert!(
            matches!(r, Err(TransportError::VersionMismatch { got: 1 })),
            "slot {i}: {r:?}"
        );
    }
    assert!(t.is_broken());
    drop(t);
    stub.join().unwrap();
}

const FAST_REQUESTS: u64 = 8;

/// `CatchUpPaged` stalls until every `GetStatus` behind it has been served —
/// which can only happen if the server completes requests out of order.
struct GatedCatchUp {
    fast_served: AtomicU64,
}

impl Service for GatedCatchUp {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        match req {
            RitmRequest::CatchUpPaged { .. } => {
                let start = Instant::now();
                while self.fast_served.load(Ordering::SeqCst) < FAST_REQUESTS {
                    if start.elapsed() > Duration::from_secs(10) {
                        // In-order serving would deadlock here; surface it
                        // as a distinguishable reply instead of hanging.
                        return RitmResponse::Error(ProtoError::Busy);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                RitmResponse::Error(ProtoError::NotFound)
            }
            _ => {
                self.fast_served.fetch_add(1, Ordering::SeqCst);
                RitmResponse::Error(ProtoError::Unsupported)
            }
        }
    }
}

#[test]
fn slow_catch_up_does_not_head_of_line_block_statuses() {
    let service = Arc::new(GatedCatchUp {
        fast_served: AtomicU64::new(0),
    });
    let server = EventServer::spawn(Arc::clone(&service) as Arc<dyn Service>, 2).unwrap();
    let mut t = EventTransport::connect(server.addr()).unwrap();
    let ca = CaId::from_name("HolCA");
    // The slow request goes FIRST on the wire; the fast ones ride behind
    // it on the same connection.
    let mut reqs = vec![RitmRequest::CatchUpPaged {
        ca,
        have: 0,
        limit: 64,
    }];
    reqs.extend((0..FAST_REQUESTS).map(|i| RitmRequest::GetStatus {
        ca,
        serial: SerialNumber::from_u24(i as u32),
    }));
    let results = t.round_trip_many(&reqs);
    assert_eq!(results.len(), reqs.len());
    // The gate opened: the statuses were all served while the page waited,
    // which is exactly out-of-order completion (in-order serving would
    // have answered Busy after the 10s deadline).
    assert_eq!(
        results[0].as_ref().expect("catch-up completes").response,
        RitmResponse::Error(ProtoError::NotFound),
        "CatchUpPaged must observe every status served before it finished"
    );
    for r in &results[1..] {
        assert_eq!(
            r.as_ref().expect("status completes").response,
            RitmResponse::Error(ProtoError::Unsupported)
        );
    }
    drop(t);
    server.shutdown();
}

#[test]
fn acceptor_pauses_at_the_connection_cap_and_resumes_on_close() {
    let config = EventServerConfig {
        max_connections: 2,
        ..EventServerConfig::default()
    };
    let server = EventServer::spawn_with(Arc::new(Nope), 2, config).unwrap();
    let req = RitmRequest::GetManifest {
        ca: CaId::from_name("CapCA"),
    };

    // Two connections fill the cap (a round trip each proves both live).
    let mut t1 = EventTransport::connect(server.addr()).unwrap();
    let mut t2 = EventTransport::connect(server.addr()).unwrap();
    t1.round_trip(&req).unwrap();
    t2.round_trip(&req).unwrap();

    // A third TCP connect lands in the kernel backlog — the server never
    // accepts it while at the cap, so its request gets no reply.
    let mut third = std::net::TcpStream::connect(server.addr()).unwrap();
    {
        use std::io::Write;
        third.write_all(&req.to_frame()).unwrap();
    }
    third
        .set_read_timeout(Some(Duration::from_millis(400)))
        .unwrap();
    let mut buf = [0u8; 4];
    let err = third
        .read_exact(&mut buf)
        .expect_err("no reply while over cap");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a read timeout, got {err:?}"
    );
    assert_eq!(server.open_connections(), 2);
    assert!(
        server.accept_deferrals() > 0,
        "the acceptor must have observed the cap"
    );

    // Closing one connection frees a slot: the backlogged third is
    // accepted and its already-buffered request answered.
    drop(t1);
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    third
        .read_exact(&mut buf)
        .expect("accepted after a slot freed");
    let len = u32::from_be_bytes(buf) as usize;
    let mut body = vec![0u8; len];
    third.read_exact(&mut body).unwrap();
    assert_eq!(
        RitmResponse::decode_body(&body).unwrap(),
        RitmResponse::Error(ProtoError::NotFound)
    );
    drop((t2, third));
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_with_a_typed_goodbye() {
    let config = EventServerConfig {
        keepalive: Some(Duration::from_millis(100)),
        ..EventServerConfig::default()
    };
    let server = EventServer::spawn_with(Arc::new(Nope), 2, config).unwrap();

    // A client that connects and never sends: dropped once the window
    // passes, with a best-effort IdleTimeout goodbye before the close.
    let mut idle = std::net::TcpStream::connect(server.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut prefix = [0u8; 4];
    idle.read_exact(&mut prefix).expect("goodbye frame");
    let len = u32::from_be_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    idle.read_exact(&mut body).unwrap();
    assert_eq!(
        RitmResponse::decode_body(&body).unwrap(),
        RitmResponse::Error(ProtoError::IdleTimeout { after_ms: 100 })
    );
    // ...and then EOF: the connection really is gone.
    assert_eq!(idle.read(&mut prefix).unwrap(), 0);
    assert_eq!(server.keepalive_drops(), 1);

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.open_connections(), 0);
    server.shutdown();
}

/// Sleeps past the keepalive window before answering.
struct Slow;

impl Service for Slow {
    fn handle(&self, _req: RitmRequest) -> RitmResponse {
        std::thread::sleep(Duration::from_millis(300));
        RitmResponse::Error(ProtoError::NotFound)
    }
}

#[test]
fn keepalive_never_fires_while_work_is_in_flight() {
    let config = EventServerConfig {
        keepalive: Some(Duration::from_millis(100)),
        ..EventServerConfig::default()
    };
    let server = EventServer::spawn_with(Arc::new(Slow), 2, config).unwrap();
    let mut t = EventTransport::connect(server.addr()).unwrap();
    // The handler takes 3× the keepalive window; the connection must
    // survive because its request is in flight the whole time.
    let rt = t
        .round_trip(&RitmRequest::GetManifest {
            ca: CaId::from_name("SlowCA"),
        })
        .expect("slow reply still arrives");
    assert_eq!(rt.response, RitmResponse::Error(ProtoError::NotFound));
    assert_eq!(server.keepalive_drops(), 0);
    drop(t);
    server.shutdown();
}

#[test]
fn three_endpoints_share_one_two_thread_runtime() {
    // The deployment shape: an RA status endpoint, a CA manifest endpoint,
    // and a CDN edge all multiplexed onto ONE reactor/executor pair — the
    // whole process stays within the 2-thread budget.
    let runtime = ritm_rt::Runtime::new(2);
    let handle = runtime.handle();
    let config = EventServerConfig::default();
    let ra = EventServer::spawn_on(Arc::new(Nope), &handle, config).unwrap();
    let ca = EventServer::spawn_on(Arc::new(EchoCa), &handle, config).unwrap();
    let edge = EventServer::spawn_on(Arc::new(EchoCa), &handle, config).unwrap();
    assert_eq!(ra.thread_count(), 2);
    assert_eq!(ca.thread_count(), 2);
    assert_eq!(edge.thread_count(), 2);

    let ca_id = CaId::from_name("SharedCA");
    let req = RitmRequest::GetManifest { ca: ca_id };
    let mut tr = EventTransport::connect(ra.addr()).unwrap();
    let mut tc = EventTransport::connect(ca.addr()).unwrap();
    let mut te = EventTransport::connect(edge.addr()).unwrap();
    assert_eq!(
        tr.round_trip(&req).unwrap().response,
        RitmResponse::Error(ProtoError::NotFound)
    );
    assert_eq!(
        tc.round_trip(&req).unwrap().response,
        RitmResponse::Error(ProtoError::UnknownCa(ca_id))
    );
    assert_eq!(
        te.round_trip(&req).unwrap().response,
        RitmResponse::Error(ProtoError::UnknownCa(ca_id))
    );

    // Shutting one endpoint down drains only ITS tasks; the runtime and
    // its sibling servers keep serving.
    drop(tr);
    assert_eq!(ra.shutdown(), 1);
    assert_eq!(
        tc.round_trip(&req).unwrap().response,
        RitmResponse::Error(ProtoError::UnknownCa(ca_id)),
        "sibling server must survive a peer's shutdown"
    );

    // And the runtime accepts new servers afterwards.
    let late = EventServer::spawn_on(Arc::new(Nope), &handle, config).unwrap();
    let mut tl = EventTransport::connect(late.addr()).unwrap();
    assert_eq!(
        tl.round_trip(&req).unwrap().response,
        RitmResponse::Error(ProtoError::NotFound)
    );
    drop((tc, te, tl));
    assert_eq!(ca.shutdown(), 2);
    assert_eq!(edge.shutdown(), 1);
    assert_eq!(late.shutdown(), 1);
    runtime.shutdown();
}
