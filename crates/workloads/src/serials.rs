//! Serial-number generation matching the paper's dataset observations
//! (§VII-A): serial sizes vary, with 3 bytes the most frequent (32 % of all
//! revocations), which is why the analyses use 3-byte serials.

use rand::Rng;
use ritm_dictionary::SerialNumber;
use std::collections::HashSet;

/// Serial length mix. Only the 3-byte share is published; the remainder is
/// synthesized to cover the 1–20-byte range RFC 5280 permits (documented
/// substitution: README, "Substitutions").
pub const LENGTH_MIX: [(usize, f64); 6] = [
    (1, 0.04),
    (2, 0.12),
    (3, 0.32),
    (8, 0.18),
    (16, 0.22),
    (20, 0.12),
];

/// Samples one serial length from [`LENGTH_MIX`].
pub fn sample_length<R: Rng + ?Sized>(rng: &mut R) -> usize {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (len, share) in LENGTH_MIX {
        acc += share;
        if x < acc {
            return len;
        }
    }
    20
}

/// Generates `n` distinct serial numbers with the observed length mix.
pub fn generate_unique<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<SerialNumber> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = sample_length(rng);
        let mut bytes = vec![0u8; len];
        rng.fill(&mut bytes[..]);
        let serial = SerialNumber::new(&bytes).expect("1..=20 bytes");
        if seen.insert(serial) {
            out.push(serial);
        }
    }
    out
}

/// Generates `n` distinct 3-byte serials (the analysis default).
pub fn generate_3byte<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<SerialNumber> {
    assert!(n <= 1 << 24, "only 2^24 distinct 3-byte serials exist");
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v: u32 = rng.gen_range(0..1 << 24);
        let serial = SerialNumber::from_u24(v);
        if seen.insert(v) {
            out.push(serial);
        }
    }
    out
}

/// Average encoded serial size under [`LENGTH_MIX`] (bytes).
pub fn mean_serial_len() -> f64 {
    LENGTH_MIX.iter().map(|(l, s)| *l as f64 * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mix_sums_to_one() {
        let total: f64 = LENGTH_MIX.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn three_bytes_is_the_mode() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(sample_length(&mut rng)).or_insert(0u32) += 1;
        }
        let mode = counts.iter().max_by_key(|(_, c)| **c).unwrap();
        assert_eq!(*mode.0, 3);
        let three_share = counts[&3] as f64 / 20_000.0;
        assert!((three_share - 0.32).abs() < 0.02, "got {three_share}");
    }

    #[test]
    fn generated_serials_are_unique() {
        let mut rng = StdRng::seed_from_u64(2);
        let serials = generate_unique(&mut rng, 5_000);
        let set: HashSet<_> = serials.iter().collect();
        assert_eq!(set.len(), 5_000);
    }

    #[test]
    fn three_byte_serials_all_three_bytes() {
        let mut rng = StdRng::seed_from_u64(3);
        for s in generate_3byte(&mut rng, 1_000) {
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn mean_length_reasonable() {
        let m = mean_serial_len();
        assert!(m > 3.0 && m < 15.0, "got {m}");
    }
}
