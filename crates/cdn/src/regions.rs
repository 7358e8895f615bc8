//! CDN regions: geography, population shares, latency, and price schedules.
//!
//! Calibrated to the public Amazon CloudFront price sheet and edge map of
//! the paper's era (2015). Absolute numbers are a substitution for the real
//! CloudFront measurements (README, "Substitutions"); the experiments depend on the
//! *relative* structure — tiered volume discounts and regional price/latency
//! differences — which is preserved.

use ritm_net::latency::LatencyModel;

/// A CloudFront-style billing/serving region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// United States & Canada.
    NorthAmerica,
    /// Europe.
    Europe,
    /// Hong Kong, Singapore, Korea, Taiwan.
    AsiaPacific,
    /// Japan.
    Japan,
    /// South America.
    SouthAmerica,
    /// Australia & New Zealand.
    Australia,
    /// India.
    India,
}

/// All regions, in a stable order.
pub const ALL_REGIONS: [Region; 7] = [
    Region::NorthAmerica,
    Region::Europe,
    Region::AsiaPacific,
    Region::Japan,
    Region::SouthAmerica,
    Region::Australia,
    Region::India,
];

/// Cumulative monthly volume tier boundaries in bytes (10 TB, 50 TB, 150 TB,
/// 500 TB, 1 PB, 5 PB, then unbounded) — the CloudFront discount ladder.
pub const TIER_BOUNDS: [u64; 6] = [
    10 * TB,
    50 * TB,
    150 * TB,
    500 * TB,
    1024 * TB,
    5 * 1024 * TB,
];

const TB: u64 = 1_000_000_000_000;

impl Region {
    /// Share of world population served from this region (used to place
    /// RAs proportionally to city population, §VII-C).
    pub fn population_share(&self) -> f64 {
        match self {
            Region::NorthAmerica => 0.12,
            Region::Europe => 0.16,
            Region::AsiaPacific => 0.34,
            Region::Japan => 0.04,
            Region::SouthAmerica => 0.09,
            Region::Australia => 0.01,
            Region::India => 0.24,
        }
    }

    /// USD per GB for each volume tier (aligned with [`TIER_BOUNDS`], plus
    /// the final open-ended tier).
    pub fn price_tiers_usd_per_gb(&self) -> [f64; 7] {
        match self {
            Region::NorthAmerica | Region::Europe => {
                [0.085, 0.080, 0.060, 0.040, 0.030, 0.025, 0.020]
            }
            Region::AsiaPacific | Region::Japan | Region::Australia => {
                [0.140, 0.135, 0.120, 0.100, 0.080, 0.070, 0.060]
            }
            Region::SouthAmerica => [0.250, 0.200, 0.180, 0.160, 0.140, 0.130, 0.125],
            Region::India => [0.170, 0.130, 0.110, 0.100, 0.100, 0.100, 0.100],
        }
    }

    /// Latency distribution for an RA pulling from its nearest edge server
    /// (cache hit). Means span ~20–120 ms, matching the spread of the
    /// paper's PlanetLab vantage points.
    pub fn edge_latency(&self) -> LatencyModel {
        match self {
            Region::NorthAmerica => LatencyModel::LogNormal {
                mu: -3.9,
                sigma: 0.45,
                floor: 0.004,
            },
            Region::Europe => LatencyModel::LogNormal {
                mu: -3.8,
                sigma: 0.45,
                floor: 0.005,
            },
            Region::AsiaPacific => LatencyModel::LogNormal {
                mu: -3.3,
                sigma: 0.55,
                floor: 0.010,
            },
            Region::Japan => LatencyModel::LogNormal {
                mu: -3.6,
                sigma: 0.45,
                floor: 0.008,
            },
            Region::SouthAmerica => LatencyModel::LogNormal {
                mu: -3.0,
                sigma: 0.60,
                floor: 0.015,
            },
            Region::Australia => LatencyModel::LogNormal {
                mu: -3.1,
                sigma: 0.50,
                floor: 0.012,
            },
            Region::India => LatencyModel::LogNormal {
                mu: -3.0,
                sigma: 0.60,
                floor: 0.015,
            },
        }
    }

    /// Latency distribution for an edge server fetching from the origin
    /// (cache miss, TTL = 0 worst case of Fig. 5).
    pub fn origin_latency(&self) -> LatencyModel {
        match self {
            Region::NorthAmerica => LatencyModel::LogNormal {
                mu: -3.2,
                sigma: 0.40,
                floor: 0.010,
            },
            Region::Europe => LatencyModel::LogNormal {
                mu: -2.9,
                sigma: 0.40,
                floor: 0.040,
            },
            Region::AsiaPacific => LatencyModel::LogNormal {
                mu: -2.5,
                sigma: 0.50,
                floor: 0.080,
            },
            Region::Japan => LatencyModel::LogNormal {
                mu: -2.6,
                sigma: 0.45,
                floor: 0.070,
            },
            Region::SouthAmerica => LatencyModel::LogNormal {
                mu: -2.3,
                sigma: 0.55,
                floor: 0.090,
            },
            Region::Australia => LatencyModel::LogNormal {
                mu: -2.3,
                sigma: 0.50,
                floor: 0.100,
            },
            Region::India => LatencyModel::LogNormal {
                mu: -2.4,
                sigma: 0.55,
                floor: 0.090,
            },
        }
    }

    /// Sustained edge→RA throughput in bytes/second (drives the
    /// size-dependent part of Fig. 5 download times).
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        match self {
            Region::NorthAmerica => 12e6,
            Region::Europe => 11e6,
            Region::AsiaPacific => 6e6,
            Region::Japan => 9e6,
            Region::SouthAmerica => 3.5e6,
            Region::Australia => 5e6,
            Region::India => 3e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_shares_sum_to_one() {
        let total: f64 = ALL_REGIONS.iter().map(Region::population_share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares summed to {total}");
    }

    #[test]
    fn price_tiers_monotonically_decrease() {
        for r in ALL_REGIONS {
            let tiers = r.price_tiers_usd_per_gb();
            for w in tiers.windows(2) {
                assert!(w[0] >= w[1], "{r:?} tiers must not increase");
            }
        }
    }

    #[test]
    fn tier_bounds_increase() {
        for w in TIER_BOUNDS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn south_america_most_expensive() {
        let sa = Region::SouthAmerica.price_tiers_usd_per_gb()[0];
        for r in ALL_REGIONS {
            assert!(r.price_tiers_usd_per_gb()[0] <= sa);
        }
    }

    #[test]
    fn origin_fetch_slower_than_edge_hit() {
        for r in ALL_REGIONS {
            assert!(
                r.origin_latency().mean_secs() > r.edge_latency().mean_secs(),
                "{r:?}: cache miss must cost more than a hit"
            );
        }
    }
}
