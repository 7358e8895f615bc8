//! The race-condition defence (§V): a long-lived TLS connection — think
//! VPN, TLS tunnel, or IoT session — is established seconds before its
//! certificate is revoked. Classic revocation never re-checks; RITM's RA
//! piggybacks a fresh status every Δ and the client tears the session down
//! within 2Δ.
//!
//! Run with: `cargo run --example long_lived_connection`

use ritm::client::AbortReason;
use ritm::core::{ConnectionOptions, DeploymentModel, RitmWorld};

fn main() {
    let delta = 10u64;
    let mut world = RitmWorld::new(7, delta, DeploymentModel::CloseToClients);

    println!("Δ = {delta}s; establishing a long-lived connection to example.com...");
    let outcome = world.run_connection(&ConnectionOptions {
        duration_secs: 90,
        // The server streams data every few seconds (a VPN heartbeat).
        server_sends_at: (1..90).step_by(4).collect(),
        // 25 s into the session, the CA revokes the server's certificate.
        revoke_at: Some(25),
        ..Default::default()
    });

    let established = outcome.established_at.expect("handshake completes");
    println!("connection established at +{established}s with a piggybacked absence proof");
    println!();
    for (t, event) in &outcome.events {
        println!("  t+{:<3} {:?}", t - ritm::core::EPOCH, event);
    }
    println!();
    match outcome.aborted {
        Some((t, AbortReason::Revoked { serial })) => {
            println!("certificate (serial {serial}) revoked at +25s;");
            println!("client interrupted the ESTABLISHED connection at +{t}s");
            println!("detection delay: {}s (bound: 2Δ = {}s)", t - 25, 2 * delta);
            assert!(t - 25 <= 2 * delta + 1);
        }
        other => panic!("expected a mid-connection revocation abort, got {other:?}"),
    }
    println!();

    // The hard-fail deployment: the RA does not leave the verdict to the
    // client, it resets the established flow itself at the first packet
    // past Δ after it learned of the revocation.
    let mut world = RitmWorld::new(7, delta, DeploymentModel::CloseToClients).hard_fail();
    let outcome = world.run_connection(&ConnectionOptions {
        duration_secs: 90,
        server_sends_at: (1..90).step_by(4).collect(),
        revoke_at: Some(25),
        ..Default::default()
    });
    let t = outcome.reset_at.expect("a hard-fail RA resets the flow");
    println!("same session behind a hard-fail RA: flow RESET by the RA at +{t}s");
    assert!(outcome.aborted.is_none() && !outcome.alive_at_end);
    assert!(t > 25 && t - 25 <= 2 * delta + 1);
    println!();
    println!("no other deployed revocation scheme re-checks an open connection;");
    println!("with OCSP/CRL this session would have survived until its next restart.");
}
