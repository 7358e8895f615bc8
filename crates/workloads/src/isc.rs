//! Synthesizer for the Internet Storm Center CRL dataset used throughout
//! §VII: 254 separate revocation lists, 1,381,992 unique revocations
//! (average 5,440 per CRL), with the largest CRL holding 339,557 entries
//! (~7.5 MB, almost 25 % of all revocations).
//!
//! The real dumps are not redistributable, so per-CRL sizes follow a Zipf
//! law pinned to the published aggregates (documented substitution).

/// Published aggregates of the ISC dataset (§VII-A, §VII-C).
pub mod aggregates {
    /// Number of distinct CRLs (and hence CA dictionaries).
    pub const CRL_COUNT: usize = 254;
    /// Total unique revocations.
    pub const TOTAL_REVOCATIONS: u64 = 1_381_992;
    /// Mean revocations per CRL.
    pub const MEAN_PER_CRL: u64 = 5_440;
    /// The largest CRL's entry count (CAcert).
    pub const LARGEST_CRL: u64 = 339_557;
    /// The largest CRL's on-disk size in bytes (7.5 MB).
    pub const LARGEST_CRL_BYTES: u64 = 7_500_000;
}

/// Per-CRL sizes summing exactly to the dataset totals.
#[derive(Debug, Clone)]
pub struct IscDataset {
    /// Entry count per CRL, descending; `sizes[0] == LARGEST_CRL`.
    pub sizes: Vec<u64>,
}

impl Default for IscDataset {
    fn default() -> Self {
        Self::synthesize()
    }
}

impl IscDataset {
    /// Builds the dataset: the largest CRL is pinned, the remaining 253
    /// follow a Zipf tail rescaled so the total matches exactly.
    pub fn synthesize() -> Self {
        use aggregates::*;
        let tail_total = TOTAL_REVOCATIONS - LARGEST_CRL;
        let n_tail = CRL_COUNT - 1;
        // Zipf weights 1/k^s for k = 1..=253; s chosen to give a heavy but
        // not degenerate tail.
        let s = 1.1;
        let weights: Vec<f64> = (1..=n_tail).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let wsum: f64 = weights.iter().sum();
        let mut sizes: Vec<u64> = weights
            .iter()
            .map(|w| ((w / wsum) * tail_total as f64).floor().max(1.0) as u64)
            .collect();
        // Fix rounding drift by adjusting the largest tail entry.
        let drift = tail_total as i64 - sizes.iter().sum::<u64>() as i64;
        sizes[0] = (sizes[0] as i64 + drift) as u64;
        let mut all = Vec::with_capacity(CRL_COUNT);
        all.push(LARGEST_CRL);
        all.extend(sizes);
        all.sort_unstable_by(|a, b| b.cmp(a));
        IscDataset { sizes: all }
    }

    /// Total revocations (equals the published figure).
    pub fn total(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Mean revocations per CRL.
    pub fn mean(&self) -> u64 {
        self.total() / self.sizes.len() as u64
    }

    /// Approximate bytes per entry in the original DER files, derived from
    /// the largest CRL's published size.
    #[cfg(test)]
    fn bytes_per_entry() -> f64 {
        aggregates::LARGEST_CRL_BYTES as f64 / aggregates::LARGEST_CRL as f64
    }
}

#[cfg(test)]
mod tests {
    use super::aggregates::*;
    use super::*;

    #[test]
    fn totals_match_paper() {
        let d = IscDataset::synthesize();
        assert_eq!(d.sizes.len(), CRL_COUNT);
        assert_eq!(d.total(), TOTAL_REVOCATIONS);
        assert_eq!(d.sizes[0], LARGEST_CRL);
        assert_eq!(d.mean(), MEAN_PER_CRL);
    }

    #[test]
    fn largest_is_a_quarter_of_all() {
        let d = IscDataset::synthesize();
        let share = d.sizes[0] as f64 / d.total() as f64;
        assert!((share - 0.2457).abs() < 0.01, "got {share}");
    }

    #[test]
    fn sizes_descend_and_are_positive() {
        let d = IscDataset::synthesize();
        for w in d.sizes.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(d.sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn bytes_per_entry_near_22() {
        let b = IscDataset::bytes_per_entry();
        assert!((21.0..24.0).contains(&b), "got {b}");
    }
}
