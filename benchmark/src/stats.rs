//! Order statistics over timing samples.
//!
//! Percentiles are nearest-rank (the p-th percentile of n sorted samples
//! is the sample at rank ⌈p·n/100⌉), so every reported value is one that
//! was actually observed. Means over socket latencies do not repeat here
//! (one 50 ms reactor stall outweighs a hundred 340 µs round trips), so
//! nothing in the benchmark reports one.

/// The percentile ladder the human-readable report picks its tail from.
const TAIL_LADDER: [f64; 6] = [90.0, 95.0, 99.0, 99.9, 99.99, 99.999];

/// Samples a percentile must leave beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// A bag of samples, sorted once when the run is over.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &impl AsRef<[f64]>) {
        self.values.extend_from_slice(other.as_ref());
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Sorts the samples; the percentile accessors below need it.
    pub fn sorted(mut self) -> Sorted {
        self.values.sort_by(f64::total_cmp);
        Sorted {
            values: self.values,
        }
    }
}

impl AsRef<[f64]> for Samples {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

/// Sorted samples.
#[derive(Debug, Clone)]
pub struct Sorted {
    values: Vec<f64>,
}

impl AsRef<[f64]> for Sorted {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

impl Sorted {
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile; 0.0 for an empty bag (a layer that did no
    /// work on this workload).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values, p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest ladder percentile that still has at least ten samples
    /// beyond it, with its value. `None` below ~100 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        highest_supported_percentile(self.values.len()).map(|p| (p, self.percentile(p)))
    }

    /// Share of samples strictly above `limit`.
    pub fn share_above(&self, limit: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let below = self.values.partition_point(|v| *v <= limit);
        (self.values.len() - below) as f64 / self.values.len() as f64
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile with ≥ 10 samples beyond its rank.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        n >= rank + MIN_BEYOND
    })
}

/// The run's figure for a statistic computed once per repetition: the
/// worse quartile across the repetitions (nearest rank — the second-worst
/// of five, the worse of two).
///
/// The sandbox's host switches between two speeds, a quarter apart, every
/// few seconds to minutes. A median over repetitions lands on either side
/// of that gap depending on which speed held for most of the run; the
/// slower speed is the one every run meets, so the worse quartile repeats
/// where the median does not — and the single worst repetition, which may
/// have met a one-off disturbance, is still left out.
pub fn worse_quartile(per_rep: &[f64], lower_is_better: bool) -> f64 {
    let mut v = per_rep.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, if lower_is_better { 75.0 } else { 25.0 })
}

/// Median of a handful of per-repetition values (set-up times).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_observed_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_selector_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(50), None);
        // p90 of 100 is rank 90: exactly ten beyond.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        // p99 of 1000 is rank 990: exactly ten beyond.
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(30_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn share_above_counts_strictly_greater() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 10.0, 11.0] {
            s.push(v);
        }
        let s = s.sorted();
        assert_eq!(s.share_above(10.0), 0.25);
        assert_eq!(s.share_above(0.0), 1.0);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn worse_quartile_is_the_second_worst_of_five() {
        let reps = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(worse_quartile(&reps, true), 4.0);
        assert_eq!(worse_quartile(&reps, false), 2.0);
        assert_eq!(worse_quartile(&[1.0, 2.0], true), 2.0);
        assert_eq!(worse_quartile(&[1.0, 2.0], false), 1.0);
        assert_eq!(worse_quartile(&[7.0], false), 7.0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0]), 1.0);
    }
}
