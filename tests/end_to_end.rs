//! Cross-crate integration tests: the full Fig. 1 / Fig. 3 protocol flow —
//! CA → CDN → RA → client — over the packet-level simulator.

use ritm::client::AbortReason;
use ritm::core::{ConnectionOptions, DeploymentModel, RitmWorld};

#[test]
fn handshake_delivers_initial_status_in_both_deployments() {
    for (seed, model) in [
        (1, DeploymentModel::CloseToClients),
        (2, DeploymentModel::CloseToServers),
    ] {
        let mut w = RitmWorld::new(seed, 10, model);
        let out = w.run_connection(&ConnectionOptions {
            duration_secs: 5,
            ..Default::default()
        });
        assert_eq!(out.established_at, Some(0), "{model:?}");
        assert!(out.alive_at_end, "{model:?}: {:?}", out.events);
        assert!(out.statuses_injected >= 1, "{model:?}");
    }
}

#[test]
fn revocation_before_connection_blocks_handshake() {
    let mut w = RitmWorld::new(3, 10, DeploymentModel::CloseToClients);
    let serial = w.server_serial();
    w.revoke(serial);
    let out = w.run_connection(&ConnectionOptions::default());
    assert!(matches!(
        out.aborted,
        Some((_, AbortReason::Revoked { .. }))
    ));
    assert!(!out.alive_at_end);
}

#[test]
fn mid_connection_revocation_bounded_by_two_delta() {
    for delta in [5u64, 10, 20] {
        let mut w = RitmWorld::new(4 + delta, delta, DeploymentModel::CloseToClients);
        let out = w.run_connection(&ConnectionOptions {
            duration_secs: 6 * delta,
            server_sends_at: (1..6 * delta).step_by(2).collect(),
            revoke_at: Some(delta),
            ..Default::default()
        });
        let (t, reason) = out.aborted.expect("revocation must be detected");
        assert!(
            matches!(reason, AbortReason::Revoked { .. }),
            "Δ={delta}: {reason:?}"
        );
        assert!(
            t <= delta + 2 * delta + 2,
            "Δ={delta}: revoked at +{delta}s, detected at +{t}s (> 2Δ bound)"
        );
    }
}

#[test]
fn mid_connection_revocation_resets_the_flow_under_hard_fail() {
    // The hard-fail twin of the test above: past Δ the RA does not hand an
    // established flow the presence proof, it resets it — still within 2Δ.
    let delta = 10u64;
    let mut w = RitmWorld::new(14, delta, DeploymentModel::CloseToClients).hard_fail();
    let out = w.run_connection(&ConnectionOptions {
        duration_secs: 6 * delta,
        server_sends_at: (1..6 * delta).step_by(2).collect(),
        revoke_at: Some(delta),
        ..Default::default()
    });
    assert_eq!(out.established_at, Some(0));
    let t = out.reset_at.expect("the RA must reset the flow");
    assert!(t > delta && t <= 3 * delta + 2, "reset at +{t}s");
    assert!(out.aborted.is_none(), "the client never saw the proof");
    assert!(!out.alive_at_end);
    assert_eq!(w.lane.borrow().stats().flows_reset, 1);
}

#[test]
fn consecutive_connections_share_one_ra() {
    // One RA serves many connections; state is created and torn down per
    // connection while the mirrored dictionary persists.
    let mut w = RitmWorld::new(5, 10, DeploymentModel::CloseToClients);
    for i in 0..5 {
        let out = w.run_connection(&ConnectionOptions {
            duration_secs: 3,
            ..Default::default()
        });
        assert!(out.alive_at_end, "connection {i}");
    }
    let stats = w.lane.borrow().stats();
    assert_eq!(stats.flows_tracked, 5);
    assert!(stats.statuses_injected >= 5);
}

#[test]
fn larger_delta_still_works_but_slower_detection() {
    let delta = 30u64;
    let mut w = RitmWorld::new(6, delta, DeploymentModel::CloseToClients);
    let out = w.run_connection(&ConnectionOptions {
        duration_secs: 4 * delta,
        server_sends_at: (1..4 * delta).step_by(3).collect(),
        revoke_at: Some(10),
        ..Default::default()
    });
    let (t, _) = out.aborted.expect("detected");
    assert!(t > 10, "cannot detect before the revocation reaches the RA");
    assert!(t <= 10 + 2 * delta + 2, "within 2Δ");
}

#[test]
fn world_advance_keeps_dictionaries_fresh() {
    let mut w = RitmWorld::new(7, 10, DeploymentModel::CloseToClients);
    // An hour of Δ cycles without any connection.
    w.advance(3_600);
    let out = w.run_connection(&ConnectionOptions::default());
    assert!(
        out.alive_at_end,
        "freshness must survive idling: {:?}",
        out.events
    );
}

#[test]
fn statuses_are_small_on_the_wire() {
    // §VII-D: the piggybacked status must stay in the hundreds of bytes.
    let w = RitmWorld::new(8, 10, DeploymentModel::CloseToClients);
    let payload =
        w.ra.status_server()
            .build_status(&[(w.ca.id(), w.server_serial())])
            .expect("mirrored");
    let len = payload.to_bytes().len();
    // 157 B over the world's small dictionary.
    assert!(len < 180, "status {len} B exceeds the paper's envelope");
}
