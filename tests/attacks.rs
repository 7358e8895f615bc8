//! Integration tests for the §V adversary model: blocking, downgrade,
//! MITM tampering, status forgery/replay, and CA equivocation — each attack
//! must fail in the specific way the paper argues.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm::agent::{
    ConsistencyMonitor, FlowTable, InterceptConfig, RaConfig, RevocationAgent, StatusPayload,
    StatusService,
};
use ritm::ca::{CaService, EquivocatingCa, View};
use ritm::cdn::{EdgeService, Region};
use ritm::client::AbortReason;
use ritm::core::{ConnectionOptions, DeploymentModel, RitmWorld};
use ritm::crypto::SigningKey;
use ritm::dictionary::{CaDictionary, CaId, SerialNumber};
use ritm::proto::{split_frame, ProtoError, RequestEnvelope, RitmResponse, Service, PROTOCOL_V2};
use std::sync::{Arc, Mutex};

const T0: u64 = 1_397_000_000;
const DELTA: u64 = 10;

#[test]
fn blocking_attack_kills_connection_not_security() {
    // §V "MITM and Blocking Attack": dropping status messages leads to a
    // connection interruption, never to acceptance of a revoked cert.
    let mut w = RitmWorld::new(31, DELTA, DeploymentModel::CloseToClients);
    // Server never sends data after the handshake, so the RA has nothing to
    // piggyback refreshes on — equivalent to an adversary dropping them.
    let out = w.run_connection(&ConnectionOptions {
        duration_secs: 4 * DELTA,
        server_sends_at: vec![],
        ..Default::default()
    });
    let (t, reason) = out.aborted.expect("client must interrupt");
    assert_eq!(reason, AbortReason::StaleStatus);
    assert!(t > 2 * DELTA && t <= 2 * DELTA + 3, "interrupted at +{t}s");
}

#[test]
fn downgrade_attack_fails_under_network_promise() {
    let mut w = RitmWorld::new(32, DELTA, DeploymentModel::CloseToClients);
    let out = w.run_connection(&ConnectionOptions {
        with_ra: false, // tunnelled around the RA
        duration_secs: 5,
        ..Default::default()
    });
    assert!(matches!(out.aborted, Some((_, AbortReason::MissingStatus))));
}

#[test]
fn forged_status_is_rejected_and_real_one_still_counts() {
    // An on-path adversary injects a fabricated "not revoked" status for a
    // revoked certificate, signed by the wrong key.
    let mut rng = StdRng::seed_from_u64(33);
    let mut honest_ca = CaDictionary::new(
        CaId::from_name("HonestCA"),
        SigningKey::from_seed([1u8; 32]),
        DELTA,
        1 << 10,
        &mut rng,
        T0,
    );
    let victim = SerialNumber::from_u24(0x073e10);
    honest_ca
        .insert(&[victim], &mut rng, T0 + 1)
        .expect("revoked");

    // The adversary runs a parallel dictionary with the same CaId but its
    // own key, proving "absence".
    let mut evil = CaDictionary::new(
        CaId::from_name("HonestCA"),
        SigningKey::from_seed([66u8; 32]),
        DELTA,
        1 << 10,
        &mut rng,
        T0,
    );
    evil.insert(&[SerialNumber::from_u24(0x999999)], &mut rng, T0 + 1)
        .unwrap();
    let forged = evil.prove(&victim, T0 + 2).expect("forged status");

    // The client pins the honest CA key: the forged status must fail.
    let mut keys = std::collections::HashMap::new();
    keys.insert(honest_ca.ca(), honest_ca.verifying_key());
    let payload = StatusPayload::single(vec![forged]);
    let res =
        ritm::client::validate_payload(&payload, &[(honest_ca.ca(), victim)], &keys, DELTA, T0 + 2);
    assert!(res.is_err(), "forged signature must not validate");

    // The genuine status still proves the revocation.
    let genuine = honest_ca.prove(&victim, T0 + 2).expect("status");
    let payload = StatusPayload::single(vec![genuine]);
    let verdict =
        ritm::client::validate_payload(&payload, &[(honest_ca.ca(), victim)], &keys, DELTA, T0 + 2)
            .expect("genuine status validates");
    assert!(matches!(verdict, ritm::client::Verdict::Revoked { .. }));
}

#[test]
fn replayed_pre_revocation_status_expires() {
    // Replay protection: an absence status captured before revocation can
    // only be replayed for at most 2Δ — then its freshness dies.
    let mut rng = StdRng::seed_from_u64(34);
    let mut ca = CaDictionary::new(
        CaId::from_name("ReplayCA"),
        SigningKey::from_seed([2u8; 32]),
        DELTA,
        1 << 10,
        &mut rng,
        T0,
    );
    let victim = SerialNumber::from_u24(0x1234);
    let captured = ca.prove(&victim, T0).expect("pre-revocation status");
    ca.insert(&[victim], &mut rng, T0 + 1).unwrap();

    let key = ca.verifying_key();
    // Within the window the replay still passes (this is the 2Δ exposure).
    assert!(captured.validate(&victim, &key, DELTA, T0 + DELTA).is_ok());
    // Beyond it, the replay is dead.
    assert!(captured
        .validate(&victim, &key, DELTA, T0 + 3 * DELTA)
        .is_err());
}

#[test]
fn equivocating_ca_is_caught_by_cross_checking_ras() {
    let mut rng = StdRng::seed_from_u64(35);
    let cover: Vec<SerialNumber> = (1..10u32).map(SerialNumber::from_u24).collect();
    let ca = EquivocatingCa::new(
        "TwoFaceCA",
        SigningKey::from_seed([3u8; 32]),
        DELTA,
        1 << 10,
        SerialNumber::from_u24(0xdead),
        &cover,
        SerialNumber::from_u24(0xbeef),
        &mut rng,
        T0,
    );
    // RA-A saw the honest view; RA-B the hiding one. They gossip roots.
    let mut monitor_b = ConsistencyMonitor::new();
    monitor_b.register_ca(ca.ca(), ca.verifying_key());
    monitor_b.check(ca.signed_root(View::Hiding), "local");
    let reports = monitor_b.cross_check_with_peer(
        &RevocationAgent::new(RaConfig::default()),
        &[ca.signed_root(View::Honest)],
        "peer-ra",
    );
    assert_eq!(reports.len(), 1);
    assert!(reports[0].proof.verify(&ca.verifying_key()));
}

#[test]
fn non_ritm_traffic_is_untouched_by_attacked_paths() {
    // Backward compatibility under stress: even while RITM connections are
    // being attacked, plain traffic through the RA is never modified.
    use ritm::net::middlebox::Middlebox;
    use ritm::net::tcp::{Direction, FourTuple, SocketAddr, TcpSegment};
    use ritm::net::time::SimTime;

    let ra = RevocationAgent::new(RaConfig {
        delta: DELTA,
        ..Default::default()
    });
    let mut lane = FlowTable::new(ra.status_server(), InterceptConfig::default());
    let tuple = FourTuple {
        client: SocketAddr::new(1, 80),
        server: SocketAddr::new(2, 80),
    };
    let mut seq = 0;
    for payload in [
        b"GET / HTTP/1.1\r\n".to_vec(),
        vec![0u8; 0],
        vec![0xff; 1400],
    ] {
        let seg = TcpSegment::data(tuple, Direction::ToServer, seq, 0, payload);
        seq = seg.seq_end();
        let out = lane.process(seg.clone(), SimTime::from_secs(T0));
        assert_eq!(out, vec![seg]);
    }
    assert_eq!(lane.stats().flows_bypassed, 1);
    assert_eq!(lane.stats().statuses_injected, 0);
}

#[test]
fn retired_catch_up_kind_is_malformed_at_every_service() {
    // The unpaged catch-up (kind 0x03) is retired: a well-formed v2 frame
    // of it (ca ‖ have) is an unknown kind to the RA, the CA and the CDN
    // edge alike, answered `Malformed` in the peer's envelope.
    let w = RitmWorld::new(34, DELTA, DeploymentModel::CloseToClients);
    let mut body = vec![PROTOCOL_V2, 0, 0, 0, 42, 0x03];
    body.extend_from_slice(&w.ca.id().0);
    body.extend_from_slice(&0u64.to_be_bytes());
    let services: [Box<dyn Service>; 3] = [
        Box::new(StatusService::new(w.ra.status_server())),
        Box::new(CaService::new(Arc::new(Mutex::new(w.ca)))),
        Box::new(EdgeService::new(w.cdn, Region::Europe, 7)),
    ];
    for svc in &services {
        let frame = svc.serve_envelope(RequestEnvelope::decode(&body)).to_vec();
        let (reply, _) = split_frame(&frame).unwrap();
        let malformed = RitmResponse::Error(ProtoError::Malformed { offset: 5 });
        let reply = RitmResponse::decode_envelope(reply).unwrap();
        assert_eq!(reply, (PROTOCOL_V2, 42, malformed));
    }
}
