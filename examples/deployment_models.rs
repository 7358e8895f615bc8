//! The two §IV deployment models side by side, including the downgrade
//! attack each must resist: an adversary who tunnels traffic around the RA.
//!
//! Run with: `cargo run --example deployment_models`

use ritm::client::AbortReason;
use ritm::core::{ConnectionOptions, DeploymentModel, RitmWorld};

fn run_model(model: DeploymentModel, seed: u64) {
    println!("=== {model:?} ===");
    let mut world = RitmWorld::new(seed, 10, model);

    // Normal operation: RA on path.
    let outcome = world.run_connection(&ConnectionOptions {
        duration_secs: 15,
        server_sends_at: vec![12],
        ..Default::default()
    });
    println!(
        "  with RA on path:    established at +{}s, alive at end: {}, statuses injected: {}",
        outcome.established_at.expect("handshake completes"),
        outcome.alive_at_end,
        outcome.statuses_injected,
    );
    assert!(outcome.alive_at_end && outcome.statuses_injected >= 2);

    // Downgrade attempt: the adversary tunnels around the RA.
    let outcome = world.run_connection(&ConnectionOptions {
        with_ra: false,
        duration_secs: 5,
        ..Default::default()
    });
    match (&model, &outcome.aborted) {
        (DeploymentModel::CloseToClients, Some((t, AbortReason::MissingStatus))) => {
            println!(
                "  tunnelled past RA:  ABORTED at +{t}s (network promised an RA: AlwaysRequire)"
            );
        }
        (DeploymentModel::CloseToServers, Some((t, AbortReason::MissingStatus))) => {
            println!(
                "  tunnelled past RA:  ABORTED at +{t}s — the terminator still confirmed RITM \
                 inside the TLS-protected ServerHello, so the missing status is conclusive"
            );
        }
        (m, a) => panic!("tunnelled past RA: {m:?} -> {a:?}, expected a MissingStatus abort"),
    }
    println!();
}

fn main() {
    println!("RITM deployment models (§IV) under normal operation and a tunnelling adversary");
    println!();
    run_model(DeploymentModel::CloseToClients, 21);
    run_model(DeploymentModel::CloseToServers, 22);
    println!("close-to-clients: the access network advertises RITM (authenticated DHCP),");
    println!("  so clients reject any connection without statuses.");
    println!("close-to-servers: the TLS terminator confirms RITM inside the ServerHello,");
    println!("  which TLS integrity-protects — tampering breaks the Finished check.");
}
