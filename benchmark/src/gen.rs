//! Seeded input generation shared by the workloads.
//!
//! The seed is the benchmark's only source of variation: every serial,
//! batch size and flow kind the program under test sees is drawn from a
//! [`StdRng`] seeded with it, and every drawn input is folded into an
//! [`InputHash`] so "same seed ⇒ same inputs" is a checked property, not a
//! hope. The program under test never sees the seed itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator stream for one purpose (`salt`) of one run (`seed`), so
/// adding a draw to one stream never shifts another.
pub fn stream(seed: u64, salt: &str) -> StdRng {
    let mut h = InputHash::new();
    h.feed_bytes(salt.as_bytes());
    StdRng::seed_from_u64(seed ^ h.finish())
}

/// FNV-1a over everything a workload generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputHash(u64);

impl InputHash {
    pub fn new() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn feed(&mut self, v: u64) {
        self.feed_bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A uniformly random permutation of `lo..lo + n` (Fisher–Yates).
pub fn permutation(rng: &mut StdRng, lo: u32, n: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (lo..lo + n).collect();
    shuffle(rng, &mut v);
    v
}

/// Fisher–Yates shuffle in place.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup. The table is 8 bytes
/// per rank; sampling is one uniform draw and a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability mass of `rank` (0-based).
    #[cfg(test)]
    pub fn mass(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - below
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_seed_and_salt() {
        let draw = |seed, salt| -> Vec<u64> {
            let mut r = stream(seed, salt);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
    }

    #[test]
    fn permutation_covers_the_range_once() {
        let mut p = permutation(&mut stream(3, "perm"), 10, 1_000);
        assert_ne!(p, (10..1_010).collect::<Vec<u32>>());
        p.sort_unstable();
        assert_eq!(p, (10..1_010).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_mass_matches_the_law_and_the_sampler_matches_the_mass() {
        let n = 1_000;
        let z = Zipf::new(n, 1.0);
        let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        assert!((z.mass(0) - 1.0 / h).abs() < 1e-12);
        assert!((z.mass(9) - 0.1 / h).abs() < 1e-12);
        let total: f64 = (0..n).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);

        let mut rng = stream(11, "zipf");
        let draws = 200_000;
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 carries ~13 % of the mass, the top ten ~39 %.
        let top1 = f64::from(counts[0]) / f64::from(draws);
        let top10: f64 = counts[..10].iter().map(|c| f64::from(*c)).sum::<f64>() / f64::from(draws);
        let want10: f64 = (0..10).map(|r| z.mass(r)).sum();
        assert!((top1 - z.mass(0)).abs() < 0.005, "top1 {top1}");
        assert!((top10 - want10).abs() < 0.005, "top10 {top10}");
    }

    #[test]
    fn input_hash_is_order_sensitive() {
        let mut a = InputHash::new();
        a.feed(1);
        a.feed(2);
        let mut b = InputHash::new();
        b.feed(2);
        b.feed(1);
        assert_ne!(a.finish(), b.finish());
    }
}
