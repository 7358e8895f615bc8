//! Fig. 7: communication overhead within the dissemination network — how
//! much data a single RA moves every Δ during the week of the Heartbleed
//! disclosure, for Δ ∈ {10 s, 1 min, 5 min, 1 h, 1 day} and 254
//! dictionaries (one per observed CRL): one pull and one update per
//! dictionary, framing included (`bytes_per_pull`).
//!
//! The paper's headline numbers: ~4–5 KB/Δ at small Δ (freshness-statement
//! dominated), ~25 KB at Δ = 1 h, ~230 KB at Δ = 1 day during the peak.
//! They count the 20-byte statement alone; an idle pull here is 49 bytes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_bench::{bytes_per_pull, print_table, stats};
use ritm_workloads::heartbleed::{
    disclosure_fortnight_daily, per_period_counts, HEARTBLEED_DISCLOSURE, WEEK,
};
use ritm_workloads::isc::aggregates::CRL_COUNT;

const DELTAS: [(u64, &str); 5] = [
    (10, "10 sec"),
    (60, "1 min"),
    (300, "5 min"),
    (3_600, "1 h"),
    (86_400, "1 day"),
];

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    // Daily resolution across the disclosure fortnight (standard + extreme
    // rates).
    let series = disclosure_fortnight_daily(&mut rng);
    let window_start = HEARTBLEED_DISCLOSURE - WEEK;
    let window_end = HEARTBLEED_DISCLOSURE + WEEK;

    println!(
        "Fig. 7: per-RA pull + update bytes per Δ during the Heartbleed week, {CRL_COUNT} \
         dictionaries"
    );
    println!();
    let mut rows = Vec::new();
    for (delta, label) in DELTAS {
        // Global revocation counts per Δ-period across all CAs.
        let per_period = per_period_counts(&series, 86_400, delta, window_start, window_end);
        // The RA pulls each of the 254 dictionaries every Δ; one pull
        // carries the period's batch, the others only their freshness
        // statements. The paper attributes the week's revocations to the
        // whole CA population, so the per-RA issuance traffic is the global
        // batch.
        let samples: Vec<f64> = per_period
            .iter()
            .map(|&revs| {
                let idle_all = (CRL_COUNT as u64 - 1) * bytes_per_pull(0).total();
                (bytes_per_pull(revs).total() + idle_all) as f64 / 1_000.0
            })
            .collect();
        let s = stats(&samples);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", s.min),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.max),
        ]);
    }
    print_table(&["Δ", "min (KB/Δ)", "mean (KB/Δ)", "peak (KB/Δ)"], &rows);
    println!();
    println!("paper: ~4-5 KB/Δ at small Δ; ~25 KB at Δ=1h; ~230 KB at Δ=1day (peak)");
}
