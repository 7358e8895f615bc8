//! Fig. 6: the monthly bill a CA pays the CDN operator for disseminating its
//! revocation list, from 1 January 2014 to 1 August 2015 (19 billing
//! cycles), for Δ ∈ {10 s, 1 min, 1 h, 1 day}, with 10 clients per RA.
//!
//! The CA is the one with the largest observed CRL (339,557 entries),
//! revoking along the Fig. 4 time-series shape; RAs are placed by city
//! population; pricing is CloudFront's aggregate-usage tier ladder, applied
//! to the updates the CDN sends (data out), not the RAs' pull requests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_bench::{billing_cycles, bytes_per_pull, print_table};
use ritm_cdn::pricing::aggregate_tiered_cost_usd;
use ritm_cdn::regions::Region;
use ritm_workloads::cities::CityModel;
use ritm_workloads::heartbleed::{rescale_to_total, weekly_series};
use ritm_workloads::isc::aggregates::LARGEST_CRL;

/// Billing cycles simulated (Jan 2014 – Aug 2015).
const CYCLES: usize = 18;
/// Seconds per 30-day billing cycle.
const CYCLE_SECS: u64 = 30 * 86_400;

/// The Fig. 6 Δ values.
const DELTAS: [(u64, &str); 4] = [(10, "10s"), (60, "1m"), (3_600, "1h"), (86_400, "1d")];

/// Monthly bill for one Δ and one cycle's revocation count.
fn monthly_bill(delta: u64, cycle_revocations: u64, ras_per_region: &[(Region, u64)]) -> f64 {
    let periods = CYCLE_SECS / delta;
    // Revocations spread uniformly over the cycle's periods (batch size per
    // period); leftover revocations land in the first periods.
    let base = cycle_revocations / periods;
    let extra_periods = cycle_revocations % periods;
    let bytes_per_ra = extra_periods * bytes_per_pull(base + 1).response
        + (periods - extra_periods) * bytes_per_pull(base).response;
    let per_region: Vec<(Region, u64)> = ras_per_region
        .iter()
        .map(|(r, n)| (*r, n * bytes_per_ra))
        .collect();
    aggregate_tiered_cost_usd(&per_region)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(6);
    let cities = CityModel::synthesize(&mut rng);
    let ras = cities.ras_per_region(10);
    let total_ras: u64 = ras.iter().map(|(_, n)| n).sum();

    // The largest CRL's 339,557 revocations, replayed along the Fig. 4
    // shape across the billing period.
    let series = rescale_to_total(&weekly_series(&mut rng), LARGEST_CRL);
    let cycles = billing_cycles(&series, CYCLES);

    println!("Fig. 6: monthly CA bill (USD), 10 clients/RA ({total_ras} RAs)");
    println!("revocation stream: largest CRL ({LARGEST_CRL} entries) on the Fig. 4 shape");
    println!();
    let mut rows = Vec::new();
    let mut per_delta_mean = Vec::new();
    for (cycle, revs) in cycles.iter().enumerate() {
        let mut row = vec![format!("{}", cycle + 1), format!("{revs}")];
        for (delta, _) in DELTAS {
            row.push(format!("{:.1}", monthly_bill(delta, *revs, &ras)));
        }
        rows.push(row);
    }
    for (i, (delta, _)) in DELTAS.iter().enumerate() {
        let mean = cycles
            .iter()
            .map(|r| monthly_bill(*delta, *r, &ras))
            .sum::<f64>()
            / CYCLES as f64;
        per_delta_mean.push(mean);
        let _ = i;
    }
    print_table(
        &[
            "cycle",
            "revocations",
            "Δ=10s ($)",
            "Δ=1m ($)",
            "Δ=1h ($)",
            "Δ=1d ($)",
        ],
        &rows,
    );
    println!();
    println!("mean monthly bill per Δ:");
    for ((_, label), mean) in DELTAS.iter().zip(&per_delta_mean) {
        println!("  Δ={label:<4} ${mean:>12.2}");
    }
    println!();
    println!(
        "shape checks: bill(10s)/bill(1m) = {:.1} (pull-dominated, ~6x), \
         Heartbleed bump visible at Δ=1d: max/min = {:.1}x",
        per_delta_mean[0] / per_delta_mean[1],
        {
            let bills: Vec<f64> = cycles
                .iter()
                .map(|r| monthly_bill(86_400, *r, &ras))
                .collect();
            let max = bills.iter().cloned().fold(f64::MIN, f64::max);
            let min = bills.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        }
    );
}
