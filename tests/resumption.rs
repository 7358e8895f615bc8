//! Integration tests for TLS session resumption under RITM (§III: "RITM
//! supports two mechanisms of TLS resumption"): the abbreviated handshake
//! carries no Certificate message, so the RA's lane serves statuses from
//! its session memory — stapled in front of the abbreviated flight, whose
//! one record also carries the server's Finished — and the client validates
//! them against identities it remembered from the original handshake.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm::agent::{FlowTable, InterceptConfig, RaConfig, RevocationAgent};
use ritm::client::{AbortReason, DowngradePolicy, RitmClient, RitmClientConfig, RitmEvent};
use ritm::crypto::SigningKey;
use ritm::dictionary::{CaDictionary, CaId, SerialNumber};
use ritm::net::middlebox::Middlebox;
use ritm::net::tcp::{Direction, FourTuple, SocketAddr, TcpSegment};
use ritm::net::time::SimTime;
use ritm::tls::certificate::{Certificate, CertificateChain, TrustAnchors};
use ritm::tls::connection::ServerContext;
use ritm::tls::engine::ServerEngine;
use ritm::tls::record::TlsRecord;
use std::collections::HashMap;
use std::sync::Arc;

const T0: u64 = 1_397_000_000;
const DELTA: u64 = 10;

struct World {
    ca: CaDictionary,
    ra: RevocationAgent,
    lane: FlowTable,
    ctx: Arc<ServerContext>,
    config: RitmClientConfig,
    rng: StdRng,
    next_port: u16,
}

/// `reset_revoked` picks the deployment: `false` staples the presence proof
/// and leaves the verdict to the client, `true` has the RA reset the flow.
fn world(reset_revoked: bool) -> World {
    let mut rng = StdRng::seed_from_u64(71);
    let ca_key = SigningKey::from_seed([1u8; 32]);
    let ca = CaDictionary::new(
        CaId::from_name("ResCA"),
        ca_key.clone(),
        DELTA,
        1 << 12,
        &mut rng,
        T0,
    );
    let mut ra = RevocationAgent::new(RaConfig {
        delta: DELTA,
        ..Default::default()
    });
    ra.follow_ca(ca.ca(), ca.verifying_key(), *ca.signed_root())
        .unwrap();

    let server_key = SigningKey::from_seed([2u8; 32]);
    let leaf = Certificate::issue(
        &ca_key,
        ca.ca(),
        SerialNumber::from_u24(0x0042),
        "example.com",
        T0 - 100,
        T0 + 1_000_000,
        server_key.verifying_key(),
        false,
    );
    let ctx = ServerContext::new(CertificateChain(vec![leaf]), [7u8; 20]).with_tickets();

    let mut anchors = TrustAnchors::new();
    anchors.add(ca.ca(), ca.verifying_key());
    let mut ca_keys = HashMap::new();
    ca_keys.insert(ca.ca(), ca.verifying_key());
    let config = RitmClientConfig {
        server_name: "example.com".into(),
        anchors,
        ca_keys,
        delta: DELTA,
        policy: DowngradePolicy::AlwaysRequire,
    };
    let lane = FlowTable::new(
        ra.status_server(),
        InterceptConfig {
            delta: DELTA,
            reset_revoked,
            ..Default::default()
        },
    );
    World {
        ca,
        ra,
        lane,
        ctx,
        config,
        rng,
        next_port: 9000,
    }
}

/// Drives one client connection through the RA's lane, returning the
/// client, its events, and the directions the lane sent an RST in.
fn connect(
    w: &mut World,
    resume: Option<(ritm::tls::session::SessionState, Vec<(CaId, SerialNumber)>)>,
    now: u64,
) -> (RitmClient, Vec<RitmEvent>, Vec<Direction>) {
    w.next_port += 1;
    let tuple = FourTuple {
        client: SocketAddr::new(1, w.next_port),
        server: SocketAddr::new(2, 443),
    };
    let mut client = RitmClient::new(w.config.clone(), [w.next_port as u8; 32], resume);
    let mut server = ServerEngine::new(w.ctx.clone(), [3u8; 32]);
    let mut events = Vec::new();
    let mut to_server = vec![client.start()];
    let (mut seq_up, mut seq_down) = (0u64, 0u64);
    for _ in 0..8 {
        let mut to_client = Vec::new();
        for rec in to_server.drain(..) {
            let seg =
                TcpSegment::data(tuple, Direction::ToServer, seq_up, seq_down, rec.to_bytes());
            seq_up = seg.seq_end();
            for out in w.lane.process(seg, SimTime::from_secs(now)) {
                for r in TlsRecord::parse_stream(&out.payload).unwrap() {
                    match server.process_record(&r, now) {
                        Ok((outs, _)) => to_client.extend(outs),
                        Err(_) => return (client, events, Vec::new()),
                    }
                }
            }
        }
        for rec in to_client.drain(..) {
            let seg =
                TcpSegment::data(tuple, Direction::ToClient, seq_down, seq_up, rec.to_bytes());
            seq_down = seg.seq_end();
            let outs = w.lane.process(seg, SimTime::from_secs(now));
            if outs.iter().any(|o| o.flags.rst) {
                let resets = outs.iter().map(|o| o.direction).collect();
                return (client, events, resets);
            }
            for out in outs {
                for r in TlsRecord::parse_stream(&out.payload).unwrap() {
                    match client.process_record(&r, now) {
                        Ok((outs, evs)) => {
                            to_server.extend(outs);
                            events.extend(evs);
                        }
                        Err(_) => return (client, events, Vec::new()),
                    }
                }
            }
        }
        if to_server.is_empty() && client.is_established() {
            break;
        }
    }
    (client, events, Vec::new())
}

#[test]
fn resumed_session_still_gets_statuses() {
    let mut w = world(false);
    // Full handshake: client remembers the session + chain identities.
    let (client, events, _) = connect(&mut w, None, T0 + 1);
    assert!(client.is_established(), "{events:?}");
    assert!(events.contains(&RitmEvent::StatusAccepted));
    let resume = client.resumption_data(T0 + 1).expect("session cached");

    // Abbreviated handshake through the same RA: no Certificate message on
    // the wire, but the RA's session cache supplies the identity.
    let (client2, events2, _) = connect(&mut w, Some(resume), T0 + 3);
    assert!(client2.is_established(), "{events2:?}");
    assert!(
        events2
            .iter()
            .any(|e| matches!(e, RitmEvent::Established { resumed: true, .. })),
        "{events2:?}"
    );
    assert!(
        events2.contains(&RitmEvent::StatusAccepted),
        "resumed session must still receive a validated status: {events2:?}"
    );
}

/// A full handshake, then the certificate is revoked between the sessions.
fn resume_after_revocation(w: &mut World) -> (RitmClient, Vec<RitmEvent>, Vec<Direction>) {
    let (client, _, _) = connect(w, None, T0 + 1);
    let resume = client.resumption_data(T0 + 1).expect("session cached");
    let serial = SerialNumber::from_u24(0x0042);
    let iss = w.ca.insert(&[serial], &mut w.rng, T0 + 2).unwrap();
    w.ra.mirror_mut(&w.ca.ca())
        .unwrap()
        .apply_issuance(&iss, T0 + 2)
        .unwrap();
    connect(w, Some(resume), T0 + 4)
}

#[test]
fn resumed_session_blocks_revoked_certificate() {
    // Resumption must fail: the RA's status now carries a presence proof.
    let mut w = world(false);
    let (client2, events2, resets) = resume_after_revocation(&mut w);
    assert!(resets.is_empty());
    assert!(!client2.is_established());
    assert!(
        events2
            .iter()
            .any(|e| matches!(e, RitmEvent::Aborted(AbortReason::Revoked { .. }))),
        "resumption must not bypass revocation: {events2:?}"
    );
}

#[test]
fn resumed_session_of_revoked_certificate_is_reset_under_hard_fail() {
    // The hard-fail twin: the RA itself resets the abbreviated flight of a
    // since-revoked certificate; the client never sees a byte of it.
    let mut w = world(true);
    let (client2, events2, resets) = resume_after_revocation(&mut w);
    assert_eq!(resets.len(), 2, "one RST each way: {resets:?}");
    assert!(resets.contains(&Direction::ToClient) && resets.contains(&Direction::ToServer));
    assert!(!client2.is_established());
    assert!(events2.is_empty(), "{events2:?}");
    assert_eq!(w.lane.stats().flows_reset, 1);
}

#[test]
fn resumption_without_ra_is_blocked_by_policy() {
    let mut w = world(false);
    let (client, _, _) = connect(&mut w, None, T0 + 1);
    let resume = client.resumption_data(T0 + 1).expect("session cached");

    // Direct client↔server resumption with no RA on the path.
    let mut client2 = RitmClient::new(w.config.clone(), [99u8; 32], Some(resume));
    let mut server = ServerEngine::new(w.ctx.clone(), [4u8; 32]);
    let mut events = Vec::new();
    let mut to_server = vec![client2.start()];
    for _ in 0..8 {
        let mut to_client = Vec::new();
        for rec in to_server.drain(..) {
            if let Ok((outs, _)) = server.process_record(&rec, T0 + 3) {
                to_client.extend(outs);
            }
        }
        for rec in to_client.drain(..) {
            if let Ok((outs, evs)) = client2.process_record(&rec, T0 + 3) {
                to_server.extend(outs);
                events.extend(evs);
            }
        }
        if to_server.is_empty() {
            break;
        }
    }
    assert!(
        events.contains(&RitmEvent::Aborted(AbortReason::MissingStatus)),
        "{events:?}"
    );
}
