//! The city-population RA-placement model (§VII-C).
//!
//! The paper estimates RA count and placement from the MaxMind city
//! database: 47,980 cities totalling 2.3 billion people, with the number of
//! RAs proportional to population. The MaxMind dump is proprietary, so this
//! module synthesizes a Zipf-distributed city population with the same
//! aggregates and assigns cities to CDN regions by the regional population
//! shares.

use rand::Rng;
use ritm_cdn::regions::{Region, ALL_REGIONS};

/// Published aggregates of the MaxMind dataset used by the paper.
pub mod aggregates {
    /// Cities with population data.
    pub const CITY_COUNT: usize = 47_980;
    /// Total covered population.
    pub const TOTAL_POPULATION: u64 = 2_300_000_000;
}

/// One synthesized city.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct City {
    /// Population.
    pub population: u64,
    /// Serving CDN region.
    pub region: Region,
}

/// The synthesized city set.
#[derive(Debug, Clone)]
pub struct CityModel {
    /// All cities, population-descending.
    pub cities: Vec<City>,
}

impl CityModel {
    /// Synthesizes the city set: Zipf(s = 1.05) sizes rescaled to the exact
    /// total, regions drawn with the population shares of
    /// [`Region::population_share`].
    pub fn synthesize<R: Rng + ?Sized>(rng: &mut R) -> Self {
        use aggregates::*;
        let s = 1.05;
        let weights: Vec<f64> = (1..=CITY_COUNT).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let wsum: f64 = weights.iter().sum();
        let mut populations: Vec<u64> = weights
            .iter()
            .map(|w| ((w / wsum) * TOTAL_POPULATION as f64).floor().max(100.0) as u64)
            .collect();
        let drift = TOTAL_POPULATION as i64 - populations.iter().sum::<u64>() as i64;
        populations[0] = (populations[0] as i64 + drift) as u64;

        // Assign regions so that regional population matches the target
        // shares: each city (largest first) goes to the region with the
        // biggest remaining deficit, with small random tie-breaking noise.
        let mut deficit: Vec<(Region, f64)> = ALL_REGIONS
            .iter()
            .map(|r| (*r, r.population_share() * TOTAL_POPULATION as f64))
            .collect();
        let cities = populations
            .into_iter()
            .map(|population| {
                let jitter: f64 = rng.gen::<f64>() * 1e3;
                let (idx, _) = deficit
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        (a.1 .1 + jitter)
                            .partial_cmp(&(b.1 .1 + jitter))
                            .expect("finite")
                    })
                    .expect("regions non-empty");
                deficit[idx].1 -= population as f64;
                City {
                    population,
                    region: deficit[idx].0,
                }
            })
            .collect();
        CityModel { cities }
    }

    /// Total population (matches the aggregate exactly).
    #[cfg(test)]
    fn total_population(&self) -> u64 {
        self.cities.iter().map(|c| c.population).sum()
    }

    /// Number of RAs per region given `clients_per_ra` (the Fig. 6 /
    /// Table II parameter: 10, 30, 250, or 1,000).
    pub fn ras_per_region(&self, clients_per_ra: u64) -> Vec<(Region, u64)> {
        assert!(clients_per_ra > 0);
        let mut per: std::collections::BTreeMap<Region, u64> = Default::default();
        for c in &self.cities {
            *per.entry(c.region).or_default() += c.population / clients_per_ra;
        }
        ALL_REGIONS
            .iter()
            .map(|r| (*r, per.get(r).copied().unwrap_or(0)))
            .collect()
    }

    /// Total RA count for a client density.
    pub fn total_ras(&self, clients_per_ra: u64) -> u64 {
        self.ras_per_region(clients_per_ra)
            .iter()
            .map(|(_, n)| n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::aggregates::*;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> CityModel {
        CityModel::synthesize(&mut StdRng::seed_from_u64(8))
    }

    #[test]
    fn aggregates_match() {
        let m = model();
        assert_eq!(m.cities.len(), CITY_COUNT);
        assert_eq!(m.total_population(), TOTAL_POPULATION);
    }

    #[test]
    fn ten_clients_per_ra_gives_about_230_million() {
        // The paper: "every RA serves only ten clients (thus there are 230
        // million RAs in total)". Per-city floor division loses a little.
        let m = model();
        let total = m.total_ras(10);
        assert!((225_000_000..=230_000_000).contains(&total), "got {total}");
    }

    #[test]
    fn ras_scale_inversely_with_density() {
        let m = model();
        let dense = m.total_ras(1_000);
        let sparse = m.total_ras(30);
        assert!(sparse > 20 * dense);
    }

    #[test]
    fn regional_split_tracks_population_shares() {
        let m = model();
        let per = m.ras_per_region(10);
        let total = m.total_ras(10) as f64;
        for (region, n) in per {
            let share = n as f64 / total;
            let expected = region.population_share();
            assert!(
                (share - expected).abs() < 0.05,
                "{region:?}: {share} vs {expected}"
            );
        }
    }

    #[test]
    fn populations_descend() {
        let m = model();
        for w in m.cities.windows(2) {
            assert!(w[0].population >= w[1].population);
        }
    }
}
