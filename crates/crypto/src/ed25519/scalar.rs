//! Arithmetic modulo the Ed25519 group order
//! `ℓ = 2^252 + 27742317777372353535851937790883648493`.

use super::bigint::{add4, geq4, limbs_from_le_bytes, limbs_to_le_bytes, mul_wide, sub4};

/// The group order `ℓ`, little-endian limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// An integer modulo `ℓ`, always canonically reduced.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

impl core::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Scalar(0x")?;
        for limb in self.0.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Lifts a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Interprets 32 little-endian bytes, reducing modulo `ℓ`.
    ///
    /// Used for clamped secret scalars, which may exceed `ℓ`; since the base
    /// point has order `ℓ`, reducing does not change the derived public key.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut limbs = limbs_from_le_bytes(bytes);
        while geq4(&limbs, &L) {
            limbs = sub4(&limbs, &L).0;
        }
        Scalar(limbs)
    }

    /// Interprets 32 little-endian bytes, rejecting non-canonical values.
    ///
    /// This is the strict RFC 8032 check applied to the `S` half of a
    /// signature, which defeats signature malleability.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let limbs = limbs_from_le_bytes(bytes);
        if geq4(&limbs, &L) {
            return None;
        }
        Some(Scalar(limbs))
    }

    /// Reduces a 64-byte little-endian integer (e.g. a SHA-512 digest)
    /// modulo `ℓ`, per RFC 8032.
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        Scalar(reduce_512(wide_limbs(bytes)))
    }

    /// Serializes to 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        limbs_to_le_bytes(&self.0)
    }

    /// Addition modulo `ℓ`.
    pub fn add(&self, other: &Scalar) -> Scalar {
        // Both inputs < ℓ < 2^253, so the sum fits in 256 bits without carry.
        let (mut sum, carry) = add4(&self.0, &other.0);
        debug_assert_eq!(carry, 0);
        if geq4(&sum, &L) {
            sum = sub4(&sum, &L).0;
        }
        Scalar(sum)
    }

    /// Multiplication modulo `ℓ`.
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Scalar(reduce_512(mul_wide(&self.0, &other.0)))
    }

    /// `true` if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Bit `i` (little-endian) of the scalar; `i < 256`.
    pub(crate) fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Width-`w` non-adjacent form, `2 <= w <= 8`: digits `d_i` with
    /// `Σ d_i·2^i = self`, every non-zero digit odd and in
    /// `(-2^(w-1), 2^(w-1))`, and at most one non-zero digit in any `w`
    /// consecutive positions — so a scalar multiplication needs one
    /// addition per `w + 1` bits on average, from a table of the
    /// `2^(w-2)` odd multiples.
    pub(crate) fn non_adjacent_form(&self, w: usize) -> [i8; 256] {
        debug_assert!((2..=8).contains(&w));
        let width = 1u64 << w;
        let mut naf = [0i8; 256];
        let mut pos = 0;
        let mut carry = 0;
        while pos < 256 {
            // The w bits at `pos`, which may straddle two limbs. The scalar
            // is below 2^253, so reading past limb 3 reads zeros.
            let (limb, bit) = (pos / 64, pos % 64);
            let mut bits = self.0[limb] >> bit;
            if bit + w > 64 && limb < 3 {
                bits |= self.0[limb + 1] << (64 - bit);
            }
            let window = carry + (bits & (width - 1));
            if window & 1 == 0 {
                // Even (the carry, if any, moves on with the next bit).
                pos += 1;
                continue;
            }
            // Odd: take the representative of `window` mod 2^w nearest zero.
            if window < width / 2 {
                carry = 0;
                naf[pos] = window as i8;
            } else {
                carry = 1;
                naf[pos] = (window as i64 - width as i64) as i8;
            }
            pos += w;
        }
        debug_assert_eq!(carry, 0, "a canonical scalar leaves no carry");
        naf
    }

    /// Signed radix-16 digits: `Σ d_i·16^i = self` with `d_i ∈ [-8, 8)` for
    /// `i < 63` and `d_63 ∈ [0, 8]` (a canonical scalar is below `2^253`,
    /// so the top nibble is at most 1 before the last carry).
    pub(crate) fn to_radix_16(self) -> [i8; 64] {
        let mut digits = [0i8; 64];
        for (i, byte) in self.to_bytes().into_iter().enumerate() {
            digits[2 * i] = (byte & 15) as i8;
            digits[2 * i + 1] = (byte >> 4) as i8;
        }
        for i in 0..63 {
            let carry = (digits[i] + 8) >> 4;
            digits[i] -= carry << 4;
            digits[i + 1] += carry;
        }
        digits
    }
}

/// Interprets 64 little-endian bytes as 8 limbs.
pub(crate) fn wide_limbs(bytes: &[u8; 64]) -> [u64; 8] {
    let mut v = [0u64; 8];
    for (limb, chunk) in v.iter_mut().zip(bytes.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    v
}

/// `c = ℓ - 2^252`, 125 bits: the two low limbs of `ℓ`.
const C: [u64; 2] = [L[0], L[1]];

/// Reduces a 512-bit little-endian value modulo `ℓ` by folding at bit 252.
///
/// `2^252 ≡ -c (mod ℓ)`, so `lo + 2^252·hi ≡ lo - c·hi`, and `c·hi` is 127
/// bits shorter than what it replaces: 512 → 385 → 258 → 131 bits, after
/// which `hi` is zero. The low parts alternate in sign; they are collected
/// on the two sides of one subtraction, with `2ℓ` on the positive side to
/// keep the difference positive. Not constant time (the final loop runs up to
/// three times); the simulation does not require side-channel resistance.
fn reduce_512(mut v: [u64; 8]) -> [u64; 4] {
    // Two low parts land on each side: sides[0] < 2ℓ + 2·2^252 < 2^255,
    // sides[1] < 2·2^252 <= sides[0].
    let mut sides = [add4(&L, &L).0, [0u64; 4]];
    let mut side = 0;
    loop {
        let lo = [v[0], v[1], v[2], v[3] & (u64::MAX >> 4)];
        sides[side] = add4(&sides[side], &lo).0;
        let mut hi = [0u64; 5];
        for i in 0..5 {
            hi[i] = v[i + 3] >> 60 | v.get(i + 4).map_or(0, |&next| next << 4);
        }
        if hi == [0; 5] {
            break;
        }
        // v = c·hi: at most 125 + 260 bits, so limb 7 stays zero.
        v = [0; 8];
        for (i, &h) in hi.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &c) in C.iter().enumerate() {
                let t = v[i + j] as u128 + h as u128 * c as u128 + carry;
                v[i + j] = t as u64;
                carry = t >> 64;
            }
            v[i + 2] = carry as u64;
        }
        side ^= 1;
    }
    let (mut out, borrow) = sub4(&sides[0], &sides[1]);
    debug_assert_eq!(borrow, 0);
    while geq4(&out, &L) {
        out = sub4(&out, &L).0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_round_trips_to_zero() {
        let l_bytes = limbs_to_le_bytes(&L);
        assert_eq!(Scalar::from_bytes_mod_order(&l_bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let (lm1, _) = sub4(&L, &[1, 0, 0, 0]);
        let s = Scalar::from_canonical_bytes(&limbs_to_le_bytes(&lm1)).unwrap();
        assert_eq!(s.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_of_l_squared() {
        // ℓ * ℓ mod ℓ = 0.
        let wide = mul_wide(&L, &L);
        let mut bytes = [0u8; 64];
        for (i, limb) in wide.iter().enumerate() {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_wide(&bytes), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_small_value() {
        let mut bytes = [0u8; 64];
        bytes[0] = 42;
        assert_eq!(Scalar::from_bytes_wide(&bytes), Scalar::from_u64(42));
    }

    #[test]
    fn wide_reduction_all_ones() {
        // (2^512 - 1) mod ℓ computed two ways: directly, and as
        // ((2^256 - 1) * (2^256 + 1)) mod ℓ.
        let all = [0xffu8; 64];
        let direct = Scalar::from_bytes_wide(&all);

        let mut lo = [0u8; 64];
        lo[..32].copy_from_slice(&[0xff; 32]);
        let a = Scalar::from_bytes_wide(&lo); // 2^256 - 1 mod ℓ
        let mut hi = [0u8; 64];
        hi[0] = 1;
        hi[32] = 1;
        let b = Scalar::from_bytes_wide(&hi); // 2^256 + 1 mod ℓ
        assert_eq!(direct, a.mul(&b));
    }

    #[test]
    fn wide_reduction_matches_shift_and_subtract() {
        use super::super::reference;
        let l2 = mul_wide(&L, &L);
        let mut cases = vec![
            [0u64; 8],
            [u64::MAX; 8],
            l2,
            [L[0], L[1], L[2], L[3], 0, 0, 0, 0],
            [L[0] - 1, L[1], L[2], L[3], 0, 0, 0, 0],
            // Folding boundaries: 2^252 - 1, 2^252, and all-ones above it.
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 4, 0, 0, 0, 0],
            [0, 0, 0, 1 << 60, 0, 0, 0, 0],
            [
                0,
                0,
                0,
                !(u64::MAX >> 4),
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
            ],
        ];
        for limb in 0..8 {
            let mut one_limb = [0u64; 8];
            one_limb[limb] = u64::MAX;
            cases.push(one_limb);
            let mut below_l2 = l2;
            below_l2[limb] = below_l2[limb].wrapping_sub(1);
            cases.push(below_l2);
        }
        let mut block = [0x17u8; 64];
        for _ in 0..256 {
            block = crate::sha512::digest(block);
            cases.push(wide_limbs(&block));
        }
        for v in cases {
            assert_eq!(reduce_512(v), reference::reduce_512(v), "v = {v:x?}");
        }
    }

    #[test]
    fn mul_matches_repeated_add() {
        let a = Scalar::from_u64(0x1234_5678);
        let mut sum = Scalar::ZERO;
        for _ in 0..9 {
            sum = sum.add(&a);
        }
        assert_eq!(a.mul(&Scalar::from_u64(9)), sum);
    }

    #[test]
    fn associativity_spot_check() {
        let a = Scalar::from_bytes_mod_order(&[0xa5; 32]);
        let b = Scalar::from_bytes_mod_order(&[0x3c; 32]);
        let c = Scalar::from_bytes_mod_order(&[0x77; 32]);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }

    /// Horner evaluation of signed digits in the given radix, modulo ℓ.
    fn evaluate(digits: &[i8], radix: u64) -> Scalar {
        let radix = Scalar::from_u64(radix);
        digits.iter().rev().fold(Scalar::ZERO, |acc, &d| {
            let magnitude = Scalar::from_u64(u64::from(d.unsigned_abs()));
            let digit = if d < 0 {
                Scalar(sub4(&L, &magnitude.0).0)
            } else {
                magnitude
            };
            acc.mul(&radix).add(&digit)
        })
    }

    #[test]
    fn signed_digit_forms_reconstruct_the_scalar() {
        let (lm1, _) = sub4(&L, &[1, 0, 0, 0]);
        let mut samples = vec![Scalar::ZERO, Scalar::ONE, Scalar(lm1)];
        let mut seed = [0x42u8; 32];
        for _ in 0..32 {
            seed = crate::sha256::digest(seed);
            samples.push(Scalar::from_bytes_mod_order(&seed));
        }
        for s in samples {
            for w in [2usize, 5, 8] {
                let naf = s.non_adjacent_form(w);
                assert_eq!(evaluate(&naf, 2), s, "w = {w}, s = {s:?}");
                let half = 1i16 << (w - 1);
                let mut last_nonzero = None;
                for (i, &d) in naf.iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    assert!(d & 1 == 1 && i16::from(d).abs() < half, "digit {d} at {i}");
                    assert!(last_nonzero.is_none_or(|j| i - j >= w), "adjacent at {i}");
                    last_nonzero = Some(i);
                }
            }
            let digits = s.to_radix_16();
            assert_eq!(evaluate(&digits, 16), s, "s = {s:?}");
            assert!(digits[..63].iter().all(|d| (-8..8).contains(d)));
            assert!((0..=8).contains(&digits[63]));
        }
    }

    #[test]
    fn bit_access() {
        let s = Scalar::from_u64(0b1010);
        assert!(!s.bit(0));
        assert!(s.bit(1));
        assert!(!s.bit(2));
        assert!(s.bit(3));
        assert!(!s.bit(255));
    }
}
