//! Fig. 4: number of revocations issued between January 2014 and June 2015,
//! with a focus on the Heartbleed peak (16–17 April 2014).
//!
//! Regenerates both panels from the synthetic ISC time series (README,
//! "Substitutions").

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_workloads::heartbleed::{peak_days_six_hourly, weekly_series, HEARTBLEED_DISCLOSURE};

fn bar(count: u64, per_char: u64) -> String {
    "#".repeat((count / per_char.max(1)) as usize)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2014);

    println!("Fig. 4 (top): weekly revocations, Jan 2014 - Jun 2015");
    let series = weekly_series(&mut rng);
    let total: u64 = series.iter().map(|b| b.count).sum();
    for bin in &series {
        let marker = if bin.start <= HEARTBLEED_DISCLOSURE
            && HEARTBLEED_DISCLOSURE < bin.start + 7 * 86_400
        {
            " <- Heartbleed disclosure"
        } else {
            ""
        };
        println!(
            "  week@{:>10}  {:>6}  {}{}",
            bin.start,
            bin.count,
            bar(bin.count, 1_500),
            marker
        );
    }
    let peak = series.iter().max_by_key(|b| b.count).unwrap();
    println!(
        "  total: {total} revocations; peak week: {} at {}",
        peak.count, peak.start
    );

    println!();
    println!("Fig. 4 (bottom): 16-17 April 2014 in 6-hour bins");
    let bins = peak_days_six_hourly(&mut rng);
    for bin in &bins {
        println!(
            "  t@{:>10}  {:>6}  {}",
            bin.start,
            bin.count,
            bar(bin.count, 200)
        );
    }
    let peak = bins.iter().map(|b| b.count).max().unwrap();
    println!("  peak 6-hour bin: {peak} revocations (paper: ~10,000)");
}
