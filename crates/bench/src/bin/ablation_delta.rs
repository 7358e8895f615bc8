//! Ablation over Δ (the one design knob; README, "Substitutions"): end-to-end
//! revocation-detection latency on a live connection, per-RA dissemination
//! bandwidth, and the attack window — all as functions of Δ.
//!
//! This quantifies the trade-off stated in the paper's footnote 3: "The
//! value of Δ is a trade-off between the size of the attack window and
//! efficiency."

use ritm_bench::{bytes_per_pull, print_table};
use ritm_core::{ConnectionOptions, DeploymentModel, RitmWorld};

const DELTAS: [u64; 5] = [5, 10, 30, 60, 120];

fn main() {
    println!("Ablation: Δ vs detection latency, bandwidth, and attack window");
    println!();
    let mut rows = Vec::new();
    for (i, &delta) in DELTAS.iter().enumerate() {
        // Measured: revoke mid-connection, observe when the client aborts.
        let mut world = RitmWorld::new(100 + i as u64, delta, DeploymentModel::CloseToClients);
        let revoke_at = delta / 2 + 1; // mid-period: worst-case pull lag
        let out = world.run_connection(&ConnectionOptions {
            duration_secs: 6 * delta,
            server_sends_at: (1..6 * delta).step_by(2).collect(),
            revoke_at: Some(revoke_at),
            ..Default::default()
        });
        let detection = out
            .aborted
            .as_ref()
            .map(|(t, _)| t - revoke_at)
            .expect("revocation must be detected");

        // Modelled: quiet-period bandwidth (freshness only) per day.
        let pulls_per_day = 86_400 / delta;
        let daily_kb = pulls_per_day * bytes_per_pull(0) / 1_000;

        rows.push(vec![
            format!("{delta}"),
            format!("{detection}"),
            format!("{}", 2 * delta),
            format!("{daily_kb}"),
        ]);
        assert!(
            detection <= 2 * delta + 2,
            "Δ={delta}: detection {detection}s exceeded the 2Δ bound"
        );
    }
    print_table(
        &[
            "Δ (s)",
            "measured detection (s)",
            "2Δ bound (s)",
            "quiet bandwidth (KB/day/CA)",
        ],
        &rows,
    );
    println!();
    println!("every measured detection sits within the paper's 2Δ window, and");
    println!("bandwidth scales as 1/Δ — the exact trade-off of footnote 3.");
}
