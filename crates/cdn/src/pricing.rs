//! CDN billing: tiered, per-region traffic pricing (paper §VII-C).
//!
//! The CA is the content provider; it pays the CDN operator for every byte
//! RAs pull. Prices follow the CloudFront volume-discount ladder in
//! [`crate::regions`].

use crate::regions::{Region, ALL_REGIONS, TIER_BOUNDS};
use std::collections::BTreeMap;

/// Per-request surcharge in USD (HTTPS request pricing, ~$0.75 per million).
pub const REQUEST_FEE_USD: f64 = 0.75e-6;

/// Accumulates one billing cycle's traffic and computes the CA's bill.
#[derive(Debug, Clone, Default)]
pub struct TrafficLedger {
    bytes: BTreeMap<Region, u64>,
    requests: BTreeMap<Region, u64>,
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    /// Records one download of `bytes` served in `region`.
    pub fn record(&mut self, region: Region, bytes: u64) {
        *self.bytes.entry(region).or_default() += bytes;
        *self.requests.entry(region).or_default() += 1;
    }

    /// Records `count` identical downloads at once (the aggregated fast path
    /// for the 230-million-RA cost simulations).
    #[cfg(test)]
    fn record_bulk(&mut self, region: Region, bytes_each: u64, count: u64) {
        *self.bytes.entry(region).or_default() += bytes_each * count;
        *self.requests.entry(region).or_default() += count;
    }

    /// Total bytes across regions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }

    /// Total requests across regions.
    pub fn total_requests(&self) -> u64 {
        self.requests.values().sum()
    }

    /// Bytes served in one region.
    pub fn bytes_in(&self, region: Region) -> u64 {
        self.bytes.get(&region).copied().unwrap_or(0)
    }

    /// The bandwidth portion of the bill in USD (tiered, per region).
    pub fn bandwidth_cost_usd(&self) -> f64 {
        ALL_REGIONS
            .iter()
            .map(|r| tiered_cost_usd(*r, self.bytes_in(*r)))
            .sum()
    }

    /// The per-request portion of the bill in USD.
    #[cfg(test)]
    fn request_cost_usd(&self) -> f64 {
        self.total_requests() as f64 * REQUEST_FEE_USD
    }

    /// The full bill. The paper's Fig. 6 counts bandwidth only (request
    /// fees are a separate line item), so both parts are exposed.
    #[cfg(test)]
    fn total_cost_usd(&self, include_request_fees: bool) -> f64 {
        let mut c = self.bandwidth_cost_usd();
        if include_request_fees {
            c += self.request_cost_usd();
        }
        c
    }

    /// Resets for the next billing cycle.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.requests.clear();
    }
}

/// CloudFront-style *aggregate* tiering: the volume tier is determined by
/// total usage across all regions, and each slab is billed at a blend of the
/// regional rates weighted by each region's share of the traffic. This is
/// how the real price sheet measured tiers and is the model used for the
/// Fig. 6 / Table II bills.
pub fn aggregate_tiered_cost_usd(per_region_bytes: &[(Region, u64)]) -> f64 {
    const GB: f64 = 1e9;
    let total: u64 = per_region_bytes.iter().map(|(_, b)| b).sum();
    if total == 0 {
        return 0.0;
    }
    let shares: Vec<(Region, f64)> = per_region_bytes
        .iter()
        .map(|(r, b)| (*r, *b as f64 / total as f64))
        .collect();
    let blended_rate = |tier: usize| -> f64 {
        shares
            .iter()
            .map(|(r, s)| s * r.price_tiers_usd_per_gb()[tier])
            .sum()
    };
    let mut remaining = total;
    let mut prev_bound = 0u64;
    let mut cost = 0.0;
    for (i, bound) in TIER_BOUNDS.iter().enumerate() {
        let slab = (bound - prev_bound).min(remaining);
        cost += slab as f64 / GB * blended_rate(i);
        remaining -= slab;
        prev_bound = *bound;
        if remaining == 0 {
            return cost;
        }
    }
    cost + remaining as f64 / GB * blended_rate(6)
}

/// Applies the volume-discount ladder for one region.
pub fn tiered_cost_usd(region: Region, bytes: u64) -> f64 {
    const GB: f64 = 1e9;
    let prices = region.price_tiers_usd_per_gb();
    let mut remaining = bytes;
    let mut prev_bound = 0u64;
    let mut cost = 0.0;
    for (i, bound) in TIER_BOUNDS.iter().enumerate() {
        let tier_cap = bound - prev_bound;
        let in_tier = remaining.min(tier_cap);
        cost += in_tier as f64 / GB * prices[i];
        remaining -= in_tier;
        prev_bound = *bound;
        if remaining == 0 {
            return cost;
        }
    }
    cost + remaining as f64 / GB * prices[6]
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;
    const TB: u64 = 1000 * GB;

    #[test]
    fn first_tier_price() {
        // 1 TB in NA at $0.085/GB = $85.
        let c = tiered_cost_usd(Region::NorthAmerica, TB);
        assert!((c - 85.0).abs() < 1e-6, "got {c}");
    }

    #[test]
    fn crossing_a_tier_boundary() {
        // 20 TB NA: 10 TB @ .085 + 10 TB @ .080 = 850 + 800 = 1650.
        let c = tiered_cost_usd(Region::NorthAmerica, 20 * TB);
        assert!((c - 1650.0).abs() < 1e-6, "got {c}");
    }

    #[test]
    fn huge_volume_hits_cheapest_tier() {
        // 10 PB NA: marginal rate must be $0.020/GB.
        let base = tiered_cost_usd(Region::NorthAmerica, 10 * 1024 * TB);
        let plus = tiered_cost_usd(Region::NorthAmerica, 10 * 1024 * TB + GB);
        assert!((plus - base - 0.020).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_zero_cost() {
        assert_eq!(tiered_cost_usd(Region::Europe, 0), 0.0);
    }

    #[test]
    fn ledger_accumulates_per_region() {
        let mut l = TrafficLedger::new();
        l.record(Region::NorthAmerica, GB);
        l.record_bulk(Region::SouthAmerica, GB, 2);
        assert_eq!(l.total_bytes(), 3 * GB);
        assert_eq!(l.total_requests(), 3);
        // 1 GB NA @ .085 + 2 GB SA @ .250 = 0.085 + 0.5.
        assert!((l.bandwidth_cost_usd() - 0.585).abs() < 1e-9);
    }

    #[test]
    fn request_fees_optional() {
        let mut l = TrafficLedger::new();
        l.record_bulk(Region::NorthAmerica, 20, 1_000_000);
        let without = l.total_cost_usd(false);
        let with = l.total_cost_usd(true);
        assert!((with - without - 0.75).abs() < 1e-9, "1M requests = $0.75");
    }

    #[test]
    fn clear_resets() {
        let mut l = TrafficLedger::new();
        l.record(Region::Japan, GB);
        l.clear();
        assert_eq!(l.total_bytes(), 0);
        assert_eq!(l.bandwidth_cost_usd(), 0.0);
    }

    #[test]
    fn aggregate_tiering_cheaper_than_per_region() {
        // Splitting 40 TB across 4 regions per-region keeps everything in
        // tier 0; aggregate tiering pushes 30 TB into tier 1.
        let split = [
            (Region::NorthAmerica, 10 * TB),
            (Region::Europe, 10 * TB),
            (Region::AsiaPacific, 10 * TB),
            (Region::India, 10 * TB),
        ];
        let per_region: f64 = split.iter().map(|(r, b)| tiered_cost_usd(*r, *b)).sum();
        let aggregate = aggregate_tiered_cost_usd(&split);
        assert!(aggregate < per_region, "{aggregate} vs {per_region}");
    }

    #[test]
    fn aggregate_tiering_single_region_matches_ladder() {
        let only = [(Region::NorthAmerica, 20 * TB)];
        let agg = aggregate_tiered_cost_usd(&only);
        let ladder = tiered_cost_usd(Region::NorthAmerica, 20 * TB);
        assert!((agg - ladder).abs() < 1e-6);
    }

    #[test]
    fn aggregate_tiering_empty_is_zero() {
        assert_eq!(aggregate_tiered_cost_usd(&[]), 0.0);
        assert_eq!(aggregate_tiered_cost_usd(&[(Region::Japan, 0)]), 0.0);
    }

    #[test]
    fn monotonic_in_volume() {
        let mut prev = 0.0;
        for tb in [1, 5, 20, 100, 400, 900, 4000, 9000] {
            let c = tiered_cost_usd(Region::AsiaPacific, tb * TB);
            assert!(c > prev);
            prev = c;
        }
    }
}
