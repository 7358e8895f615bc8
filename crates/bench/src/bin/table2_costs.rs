//! Table II: average monthly cost (in thousands of USD) as a function of Δ
//! and the number of clients served per RA (30 / 250 / 1,000). As in
//! Fig. 6, the CDN bills the updates it sends, not the RAs' pull requests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_bench::{billing_cycles, bytes_per_pull, print_table};
use ritm_cdn::pricing::aggregate_tiered_cost_usd;
use ritm_cdn::regions::Region;
use ritm_workloads::cities::CityModel;
use ritm_workloads::heartbleed::{rescale_to_total, weekly_series};
use ritm_workloads::isc::aggregates::LARGEST_CRL;

const CYCLES: usize = 18;
const CYCLE_SECS: u64 = 30 * 86_400;
const DELTAS: [(u64, &str); 4] = [
    (10, "10 sec"),
    (60, "1 min"),
    (3_600, "1 h"),
    (86_400, "1 day"),
];
const DENSITIES: [u64; 3] = [30, 250, 1_000];

fn monthly_bill(delta: u64, revs: u64, ras: &[(Region, u64)]) -> f64 {
    let periods = CYCLE_SECS / delta;
    let base = revs / periods;
    let extra = revs % periods;
    let bytes_per_ra = extra * bytes_per_pull(base + 1).response
        + (periods - extra) * bytes_per_pull(base).response;
    let per_region: Vec<(Region, u64)> = ras.iter().map(|(r, n)| (*r, n * bytes_per_ra)).collect();
    aggregate_tiered_cost_usd(&per_region)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2);
    let cities = CityModel::synthesize(&mut rng);
    let series = rescale_to_total(&weekly_series(&mut rng), LARGEST_CRL);
    let cycles = billing_cycles(&series, CYCLES);

    println!("Table II: average monthly cost (thousands of USD) vs clients/RA and Δ");
    println!();
    let mut rows = Vec::new();
    for density in DENSITIES {
        let ras = cities.ras_per_region(density);
        let mut row = vec![format!("{density}")];
        for (delta, _) in DELTAS {
            let mean = cycles
                .iter()
                .map(|r| monthly_bill(delta, *r, &ras))
                .sum::<f64>()
                / CYCLES as f64;
            row.push(format!("{:.3}", mean / 1_000.0));
        }
        rows.push(row);
    }
    print_table(
        &["clients/RA", "Δ=10 sec", "Δ=1 min", "Δ=1 h", "Δ=1 day"],
        &rows,
    );
    println!();
    println!("paper (same units): 30: 18.574/3.450/0.647/0.108;");
    println!("                    250: 2.229/0.414/0.078/0.013; 1000: 0.557/0.103/0.019/0.003");
    println!("shape: cost ~ 1/density and ~ 1/Δ at small Δ, flattening at large Δ");
}
