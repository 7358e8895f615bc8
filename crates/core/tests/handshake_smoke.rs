//! The acceptance end-to-end for the interception lane: real sockets, both
//! sans-io engines as `ritm-rt` tasks, and the [`FlowTable`] relay inline
//! between them.
//!
//! * A benign chain completes with a stapled status that validates against
//!   the client's [`RootTracker`] (`Verdict::AllValid`).
//! * A revoked chain is reset mid-handshake — the client never establishes.
//! * An expired chain aborts at the client with `certificate_expired`.
//! * The CI `handshake-smoke` shape: many concurrent handshakes with mixed
//!   chains on one shared 2-thread runtime — every revoked flow reset,
//!   zero benign flows reset.
//! * A long-lived flow is re-stapled once Δ has passed on the relay's
//!   clock.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::intercept::{FlowTable, InterceptConfig};
use ritm_agent::serve::StatusServer;
use ritm_agent::StatusPayload;
use ritm_client::{validate_payload_tracked, RootTracker, Verdict};
use ritm_crypto::ed25519::{SigningKey, VerifyingKey};
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_net::tcp::{FourTuple, SocketAddr as SimSocketAddr};
use ritm_net::time::SimTime;
use ritm_rt::{Executor, Handle};
use ritm_tls::alert::AlertDescription;
use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
use ritm_tls::connection::{ClientConfig, ServerContext};
use ritm_tls::engine::{Action, ClientEngine, ServerEngine};
use ritm_tls::event::{drive_handshake_task, HandshakeOutcome, HandshakeTaskError};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const T0: u64 = 1_000_000;
/// Handshake wall-clock (seconds), also the simulated segment timestamp.
const NOW: u64 = T0 + 2;

/// What kind of chain a flow presents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Benign,
    Revoked,
    Expired,
}

struct World {
    ca_id: CaId,
    ca_key: SigningKey,
    status: Arc<StatusServer>,
    delta: u64,
}

impl World {
    /// Even serials 0..40 are revoked; everything else has absence proofs.
    fn new() -> Self {
        let ca_id = CaId::from_name("SmokeCA");
        let ca_key = SigningKey::from_seed([1u8; 32]);
        let mut rng = StdRng::seed_from_u64(17);
        let mut ca = CaDictionary::new(ca_id, ca_key.clone(), 10, 64, &mut rng, T0);
        let mut mirror =
            MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        mirror.set_delta(10);
        let serials: Vec<SerialNumber> = (0..20).map(|i| SerialNumber::from_u24(i * 2)).collect();
        let issuance = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
        mirror.apply_issuance(&issuance, T0 + 1).unwrap();
        let status = Arc::new(StatusServer::new());
        assert!(status.publish(mirror.snapshot()));
        World {
            ca_id,
            ca_key,
            status,
            delta: 10,
        }
    }

    fn ca_keys(&self) -> HashMap<CaId, VerifyingKey> {
        let mut keys = HashMap::new();
        keys.insert(self.ca_id, self.ca_key.verifying_key());
        keys
    }

    fn chain(&self, kind: Kind, serial_hint: u32) -> (CertificateChain, TrustAnchors) {
        let serial = match kind {
            // Odd serials are never revoked in this world.
            Kind::Benign | Kind::Expired => serial_hint * 2 + 1,
            Kind::Revoked => (serial_hint % 20) * 2,
        };
        let not_after = match kind {
            Kind::Expired => NOW - 1, // already past at handshake time
            _ => T0 + 100_000,
        };
        let server_key = SigningKey::from_seed([2u8; 32]);
        let leaf = Certificate::issue(
            &self.ca_key,
            self.ca_id,
            SerialNumber::from_u24(serial),
            "smoke.example.com",
            T0 - 100,
            not_after,
            server_key.verifying_key(),
            false,
        );
        let mut anchors = TrustAnchors::new();
        anchors.add(self.ca_id, self.ca_key.verifying_key());
        (CertificateChain(vec![leaf]), anchors)
    }
}

fn client_config(anchors: TrustAnchors) -> ClientConfig {
    ClientConfig {
        server_name: "smoke.example.com".into(),
        anchors,
        enable_ritm: true,
    }
}

fn tuple(i: u16) -> FourTuple {
    FourTuple {
        client: SimSocketAddr::new(0x0a00_0001, 10_000 + i),
        server: SimSocketAddr::new(0x0a00_0002, 443),
    }
}

type ClientOutcome = Result<(ClientEngine, HandshakeOutcome), HandshakeTaskError>;

/// Spawns the three parties of one intercepted handshake on `handle`:
/// a server engine task behind `listener`-like accept, the relay pumps,
/// and a client engine task. Returns the client's result receiver.
fn launch_flow(
    handle: &Handle,
    table: &Arc<Mutex<FlowTable>>,
    ctx: Arc<ServerContext>,
    anchors: TrustAnchors,
    session: Option<ritm_tls::session::SessionState>,
    flow_id: u16,
    collect_late_status: bool,
) -> mpsc::Receiver<ClientOutcome> {
    let server_listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    server_listener.set_nonblocking(true).expect("nonblocking");
    let server_addr = server_listener.local_addr().expect("addr");
    let mb_listener = TcpListener::bind("127.0.0.1:0").expect("bind middlebox");
    let mb_addr = mb_listener.local_addr().expect("addr");

    // Server party.
    let reactor = handle.reactor();
    handle.spawn(async move {
        let Ok((stream, _)) = ritm_rt::net::accept(&reactor, &server_listener).await else {
            return;
        };
        let engine = ServerEngine::new(ctx, [1u8; 32]);
        // Reset flows error here by design; outcome is judged client-side.
        let _ = drive_handshake_task(reactor, stream, engine, NOW).await;
    });

    // Client party.
    let (tx, rx) = mpsc::channel::<ClientOutcome>();
    let reactor = handle.reactor();
    handle.spawn(async move {
        let result = async {
            let stream = TcpStream::connect(mb_addr)?;
            let engine = ClientEngine::new(client_config(anchors), [2u8; 32], session);
            let (mut engine, stream, mut outcome) =
                drive_handshake_task(Arc::clone(&reactor), stream, engine, NOW).await?;
            // An injected status may trail the completing flight by one
            // segment (it rides behind the record that finished the
            // handshake); give it a bounded chance to arrive.
            if collect_late_status && outcome.statuses.is_empty() {
                let mut buf = [0u8; 4096];
                for _ in 0..32 {
                    let n = match ritm_rt::net::read_some(&reactor, &stream, &mut buf).await {
                        Ok(n) => n,
                        Err(_) => break,
                    };
                    if n == 0 {
                        break;
                    }
                    for action in engine.feed(NOW, &buf[..n]) {
                        if let ritm_tls::engine::Action::RitmStatus(payload) = action {
                            outcome.statuses.push(payload);
                        }
                    }
                    if !outcome.statuses.is_empty() {
                        break;
                    }
                }
            }
            Ok((engine, outcome))
        }
        .await;
        let _ = tx.send(result);
    });

    // Relay party: the middlebox accepts the client, dials the server, and
    // runs both pump tasks through the shared flow table.
    let (client_side, _) = mb_listener.accept().expect("middlebox accept");
    let server_side = TcpStream::connect(server_addr).expect("middlebox dial");
    ritm_agent::intercept::spawn_inline_relay(
        handle,
        Arc::clone(table),
        tuple(flow_id),
        client_side,
        server_side,
        SimTime::from_secs(NOW),
    )
    .expect("relay spawned");
    rx
}

#[test]
fn benign_completes_revoked_resets_expired_aborts() {
    let world = World::new();
    let table = Arc::new(Mutex::new(FlowTable::new(
        Arc::clone(&world.status),
        InterceptConfig::default(),
    )));
    let exec = Executor::new(2);
    let handle = exec.handle();

    // Benign: completes, and the stapled status validates to AllValid.
    let (chain, anchors) = world.chain(Kind::Benign, 3);
    let ctx = ServerContext::new(chain.clone(), [9u8; 20]);
    let rx = launch_flow(&handle, &table, ctx, anchors, None, 1, true);
    let (engine, outcome) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("client finished")
        .expect("benign handshake succeeds");
    assert!(engine.is_established());
    assert!(!outcome.statuses.is_empty(), "status stapled inline");
    let payload = StatusPayload::from_bytes(&outcome.statuses[0]).expect("decodes");
    let wire_chain: Vec<(CaId, SerialNumber)> = chain
        .0
        .iter()
        .map(|cert| (cert.issuer, cert.serial))
        .collect();
    let mut tracker = RootTracker::new();
    let verdict = validate_payload_tracked(
        &payload,
        &wire_chain,
        &world.ca_keys(),
        world.delta,
        NOW,
        &mut tracker,
    )
    .expect("payload validates");
    assert_eq!(verdict, Verdict::AllValid);
    assert!(tracker.newest(&world.ca_id).is_some(), "tracker advanced");

    // Revoked: reset mid-handshake; the client never establishes.
    let (chain, anchors) = world.chain(Kind::Revoked, 2);
    let ctx = ServerContext::new(chain, [9u8; 20]);
    let rx = launch_flow(&handle, &table, ctx, anchors, None, 2, false);
    let result = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("client finished");
    assert!(
        result.is_err(),
        "revoked flow must not complete: {result:?}"
    );

    // Expired: passes the middlebox (not revoked) but the client's own
    // validity check aborts the handshake.
    let (chain, anchors) = world.chain(Kind::Expired, 5);
    let ctx = ServerContext::new(chain, [9u8; 20]);
    let rx = launch_flow(&handle, &table, ctx, anchors, None, 3, false);
    let result = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("client finished");
    match result {
        Err(HandshakeTaskError::Aborted(alert)) => {
            assert_eq!(alert.description, AlertDescription::CertificateExpired);
        }
        other => panic!("expected certificate_expired abort, got {other:?}"),
    }

    let stats = table.lock().stats();
    assert_eq!(stats.flows_reset, 1);
    assert_eq!(stats.flows_tracked, 3);
    exec.shutdown();
}

#[test]
fn resumption_through_middlebox_still_gets_verdict() {
    let world = World::new();
    let table = Arc::new(Mutex::new(FlowTable::new(
        Arc::clone(&world.status),
        InterceptConfig::default(),
    )));
    let exec = Executor::new(2);
    let handle = exec.handle();

    let (chain, anchors) = world.chain(Kind::Benign, 7);
    let wire_chain: Vec<(CaId, SerialNumber)> = chain
        .0
        .iter()
        .map(|cert| (cert.issuer, cert.serial))
        .collect();
    let ctx = ServerContext::new(chain, [9u8; 20]);

    // Full handshake: the table memorizes session id → chain.
    let rx = launch_flow(
        &handle,
        &table,
        Arc::clone(&ctx),
        anchors.clone(),
        None,
        1,
        true,
    );
    let (engine, _) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("client finished")
        .expect("full handshake");
    let session = engine.session_state(NOW).expect("session captured");

    // Abbreviated handshake: no Certificate crosses the wire, yet the
    // middlebox staples from flow-table memory and the verdict validates.
    let rx = launch_flow(&handle, &table, ctx, anchors, Some(session), 2, true);
    let (engine, outcome) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("client finished")
        .expect("resumption handshake");
    assert!(engine.is_established());
    assert!(outcome.resumed, "abbreviated path taken");
    assert!(outcome.chain.is_none(), "no certificate flight");
    assert!(
        !outcome.statuses.is_empty(),
        "resumption still carries a status"
    );
    let payload = StatusPayload::from_bytes(&outcome.statuses[0]).expect("decodes");
    let verdict = validate_payload_tracked(
        &payload,
        &wire_chain,
        &world.ca_keys(),
        world.delta,
        NOW,
        &mut RootTracker::new(),
    )
    .expect("payload validates");
    assert_eq!(verdict, Verdict::AllValid);
    exec.shutdown();
}

/// The CI smoke shape: many concurrent mixed handshakes on one shared
/// 2-thread runtime. `HANDSHAKE_SMOKE_FLOWS` scales the flow count (CI
/// runs 256; the default keeps local runs snappy).
#[test]
fn concurrent_mixed_handshakes_on_shared_runtime() {
    let flows: u16 = std::env::var("HANDSHAKE_SMOKE_FLOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48);
    let world = World::new();
    let table = Arc::new(Mutex::new(FlowTable::new(
        Arc::clone(&world.status),
        InterceptConfig::default(),
    )));
    let exec = Executor::new(2);
    let handle = exec.handle();

    let mut receivers = Vec::new();
    for i in 0..flows {
        let kind = match i % 3 {
            0 => Kind::Benign,
            1 => Kind::Revoked,
            _ => Kind::Expired,
        };
        let (chain, anchors) = world.chain(kind, u32::from(i) + 1);
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let rx = launch_flow(&handle, &table, ctx, anchors, None, i, kind == Kind::Benign);
        receivers.push((kind, rx));
    }

    let mut benign_ok = 0u32;
    let mut revoked_stopped = 0u32;
    let mut expired_aborted = 0u32;
    for (kind, rx) in receivers {
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("client task finished");
        match kind {
            Kind::Benign => {
                let (engine, outcome) = result.expect("benign flow completes");
                assert!(engine.is_established());
                assert!(!outcome.statuses.is_empty(), "benign flow stapled");
                benign_ok += 1;
            }
            Kind::Revoked => {
                assert!(result.is_err(), "revoked flow must be reset");
                revoked_stopped += 1;
            }
            Kind::Expired => {
                match result {
                    Err(HandshakeTaskError::Aborted(alert)) => {
                        assert_eq!(alert.description, AlertDescription::CertificateExpired);
                    }
                    other => panic!("expected expired abort, got {other:?}"),
                }
                expired_aborted += 1;
            }
        }
    }

    let n = u32::from(flows);
    assert_eq!(benign_ok, n.div_ceil(3), "every benign flow completed");
    assert_eq!(revoked_stopped, n / 3 + u32::from(n % 3 == 2));
    assert!(expired_aborted > 0 || flows < 3);

    let stats = table.lock().stats();
    assert_eq!(
        stats.flows_reset,
        u64::from(revoked_stopped),
        "exactly the revoked flows were reset"
    );
    assert_eq!(stats.flows_tracked, u64::from(flows));
    assert!(stats.statuses_injected >= u64::from(benign_ok));
    exec.shutdown();
}

/// Reads from `stream` into `feed` — writing every `SendBytes` back — until
/// `done` holds for the actions seen so far, and returns those actions.
fn exchange(
    stream: &mut TcpStream,
    mut feed: impl FnMut(&[u8]) -> Vec<Action>,
    done: impl Fn(&[Action]) -> bool,
) -> Vec<Action> {
    let mut seen = Vec::new();
    let mut buf = [0u8; 4096];
    while !done(&seen) {
        let n = stream
            .read(&mut buf)
            .unwrap_or_else(|e| panic!("no read within the timeout ({e}) after {seen:?}"));
        assert!(n > 0, "peer closed early after {seen:?}");
        for action in feed(&buf[..n]) {
            if let Action::SendBytes(bytes) = &action {
                stream.write_all(bytes).expect("write");
            }
            seen.push(action);
        }
    }
    seen
}

fn has(actions: &[Action], wanted: fn(&Action) -> bool) -> bool {
    actions.iter().any(wanted)
}

#[test]
fn long_lived_flow_through_the_relay_is_restapled_after_delta() {
    // The relay must hand the table a clock that moves: with Δ = 1 s, a
    // server record written just over a second after the handshake is
    // re-stapled (§VIII), so the client reads a fresh status beside it.
    let world = World::new();
    let table = Arc::new(Mutex::new(FlowTable::new(
        Arc::clone(&world.status),
        InterceptConfig {
            delta: 1,
            ..Default::default()
        },
    )));
    let exec = Executor::new(2);
    let server_listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let mb_listener = TcpListener::bind("127.0.0.1:0").expect("bind middlebox");
    let mut client_stream = TcpStream::connect(mb_listener.local_addr().unwrap()).unwrap();
    let (client_side, _) = mb_listener.accept().expect("middlebox accept");
    let server_side = TcpStream::connect(server_listener.local_addr().unwrap()).unwrap();
    let (mut server_stream, _) = server_listener.accept().expect("server accept");
    ritm_agent::intercept::spawn_inline_relay(
        &exec.handle(),
        Arc::clone(&table),
        tuple(1),
        client_side,
        server_side,
        SimTime::from_secs(NOW),
    )
    .expect("relay spawned");
    for stream in [&client_stream, &server_stream] {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
    }

    let (chain, anchors) = world.chain(Kind::Benign, 11);
    let mut server = ServerEngine::new(ServerContext::new(chain.clone(), [9u8; 20]), [1u8; 32]);
    let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
    let sends = |a: &Action| matches!(a, Action::SendBytes(_));
    let completes = |a: &Action| matches!(a, Action::HandshakeComplete { .. });
    client_stream.write_all(&client.start().to_bytes()).unwrap();
    exchange(
        &mut server_stream,
        |b| server.feed(NOW, b),
        |s| has(s, sends),
    );
    let first = exchange(
        &mut client_stream,
        |b| client.feed(NOW, b),
        |s| has(s, sends),
    );
    assert!(has(&first, |a| matches!(a, Action::RitmStatus(_))));
    exchange(
        &mut server_stream,
        |b| server.feed(NOW, b),
        |s| has(s, completes),
    );
    exchange(
        &mut client_stream,
        |b| client.feed(NOW, b),
        |s| has(s, completes),
    );
    assert!(client.is_established());

    std::thread::sleep(Duration::from_millis(1_100));
    let record = server.send_data(b"still here").unwrap();
    server_stream.write_all(&record.to_bytes()).unwrap();
    let late = exchange(
        &mut client_stream,
        |b| client.feed(NOW + 1, b),
        |s| s.len() >= 2 || has(s, |a| matches!(a, Action::Abort { .. })),
    );
    let late: Vec<&Action> = late
        .iter()
        .filter(|a| !matches!(a, Action::NeedMoreData))
        .collect();
    // The lane staples at the record boundary right behind the segment
    // that triggered the re-staple.
    let [Action::ReceivedData(data), Action::RitmStatus(status)] = late.as_slice() else {
        panic!("expected the record and a fresh status, got {late:?}");
    };
    assert_eq!(data, b"still here");
    let payload = StatusPayload::from_bytes(status).expect("decodes");
    let wire_chain: Vec<(CaId, SerialNumber)> =
        chain.0.iter().map(|c| (c.issuer, c.serial)).collect();
    let verdict = validate_payload_tracked(
        &payload,
        &wire_chain,
        &world.ca_keys(),
        world.delta,
        NOW + 1,
        &mut RootTracker::new(),
    )
    .expect("the re-stapled status validates");
    assert_eq!(verdict, Verdict::AllValid);
    assert_eq!(table.lock().stats().statuses_injected, 2);
    // Closing both ends lets the relay's pumps finish.
    drop((client_stream, server_stream));
    exec.shutdown();
}
