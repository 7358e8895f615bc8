//! Arithmetic in GF(2^255 - 19), the base field of curve25519.
//!
//! An element is five unsigned limbs in radix 2^51:
//! `l0 + l1·2^51 + l2·2^102 + l3·2^153 + l4·2^204`. Limbs are **not** kept
//! canonical between operations (lazy reduction): a limb may exceed 51 bits
//! and the value may exceed `p`. Two bounds matter, and every function
//! states which it takes and which it returns:
//!
//! * **tight** — every limb `< 2^52`. What `mul`, `square`, `sub`, `neg` and
//!   `from_bytes` return.
//! * **loose** — every limb `< 2^54`. What `mul`, `square`, `sub` and `neg`
//!   accept; `add` of two tight elements is loose (`< 2^53`), and so is the
//!   sum of a `< 2^53` and a tight element.
//!
//! With loose inputs no intermediate of `mul`/`square` overflows `u128` and
//! no carry overflows `u64` (the arithmetic is spelled out at each step).
//! All limb arithmetic uses the checked-in-debug `+ - *` operators, so the
//! debug test run — RFC 8032 vectors, the differential tests against
//! `reference.rs`, every handshake in the workspace — is the proof that the
//! bounds hold on the paths the code takes; the explicit `debug_assert!`s
//! cover the narrowing casts the operators do not.
//!
//! Only `to_bytes` canonicalises; `==`, `is_zero` and `is_negative` go
//! through it.

const MASK51: u64 = (1 << 51) - 1;

/// `16·p` limb by limb: added before a subtraction so no limb underflows
/// for a loose subtrahend (`2^55 - 304 > 2^54`).
const P16: [u64; 5] = [
    36_028_797_018_963_664, // 16·(2^51 - 19)
    36_028_797_018_963_952, // 16·(2^51 - 1)
    36_028_797_018_963_952,
    36_028_797_018_963_952,
    36_028_797_018_963_952,
];

/// An element of GF(2^255 - 19), lazily reduced (see the module docs).
#[derive(Clone, Copy)]
pub struct Fe(pub(crate) [u64; 5]);

impl core::fmt::Debug for Fe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fe(0x")?;
        for byte in self.to_bytes().iter().rev() {
            write!(f, "{byte:02x}")?;
        }
        write!(f, ")")
    }
}

impl PartialEq for Fe {
    /// Compares canonical encodings. Inputs loose.
    fn eq(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Lifts a small integer into the field. Output limbs `< 2^51`.
    pub fn from_u64(v: u64) -> Fe {
        Fe([v & MASK51, v >> 51, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes as a field element, ignoring bit 255
    /// (the Edwards sign bit) per RFC 8032. Output limbs `< 2^51`.
    ///
    /// Returns `None` if the 255-bit value is not canonical (`>= p`), which
    /// rejects malleable encodings.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Fe> {
        // p = 2^255 - 19 is ed ff … ff 7f; the only values >= p below 2^255
        // share its upper 31 bytes.
        if bytes[31] & 0x7f == 0x7f && bytes[0] >= 0xed && bytes[1..31].iter().all(|&b| b == 0xff) {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        Some(Fe([
            word(0) & MASK51,
            (word(6) >> 3) & MASK51,
            (word(12) >> 6) & MASK51,
            (word(19) >> 1) & MASK51,
            (word(24) >> 12) & MASK51,
        ]))
    }

    /// Serializes to the canonical 32 little-endian bytes (bit 255 clear).
    /// Input loose.
    pub fn to_bytes(self) -> [u8; 32] {
        // After one carry pass the value is < 2^255 + 2^13·19 < 2p, so it is
        // either canonical or canonical + p. q = 1 exactly in the second
        // case: (v + 19) >> 255, computed limb by limb.
        let mut l = self.weak_reduce().0;
        let mut q = (l[0] + 19) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        // v - q·p = v + 19q - q·2^255: add 19q, carry, drop bit 255.
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK51;
        }
        l[4] &= MASK51;

        let mut out = [0u8; 32];
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// `true` if the canonical encoding has its least-significant bit set —
    /// the "negative" convention of RFC 8032 point compression. Input loose.
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// `true` if this is the additive identity. Input loose.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// One carry pass: any `u64` limbs in, limbs `< 2^51 + 2^13·19` out
    /// (tight), same value mod `p`.
    fn weak_reduce(self) -> Fe {
        let l = self.0;
        Fe([
            (l[0] & MASK51) + (l[4] >> 51) * 19,
            (l[1] & MASK51) + (l[0] >> 51),
            (l[2] & MASK51) + (l[1] >> 51),
            (l[3] & MASK51) + (l[2] >> 51),
            (l[4] & MASK51) + (l[3] >> 51),
        ])
    }

    /// Field addition, limb-wise and without a carry pass: each output limb
    /// is the sum of the input limbs. Tight + tight is loose (`< 2^53`);
    /// callers must not feed a sum that can reach `2^54` to `mul`.
    pub fn add(&self, other: &Fe) -> Fe {
        let (a, b) = (&self.0, &other.0);
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// Field subtraction. Inputs loose (`self` may be anything below
    /// `2^63`), output tight: `self + 16p - other` cannot underflow for a
    /// loose `other`, and one carry pass brings it back under `2^52`.
    pub fn sub(&self, other: &Fe) -> Fe {
        let (a, b) = (&self.0, &other.0);
        Fe([
            (a[0] + P16[0]) - b[0],
            (a[1] + P16[1]) - b[1],
            (a[2] + P16[2]) - b[2],
            (a[3] + P16[3]) - b[3],
            (a[4] + P16[4]) - b[4],
        ])
        .weak_reduce()
    }

    /// Field negation. Input loose, output tight.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication. Inputs loose, output tight.
    pub fn mul(&self, other: &Fe) -> Fe {
        let (a, b) = (&self.0, &other.0);
        debug_assert!(a.iter().chain(b).all(|&l| l < 1 << 54), "mul: loose bound");
        let m = |x: u64, y: u64| x as u128 * y as u128;
        // 2^255 ≡ 19: the limbs of b that wrap are pre-multiplied.
        // b[i] < 2^54 ⇒ 19·b[i] < 2^58.3, fits u64.
        let (b1, b2, b3, b4) = (b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19);
        // Each product < 2^54 · 2^58.3; five of them < 2^114.7, fits u128.
        let c0 = m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4);
        let c1 = m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4);
        let c2 = m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4);
        let c3 = m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4);
        // No ×19 term here: c4 < 5·2^108 < 2^110.4.
        let c4 = m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]);
        carry_wide([c0, c1, c2, c3, c4])
    }

    /// Field squaring: the 25 products of `mul` folded to 15. Input loose,
    /// output tight.
    pub fn square(&self) -> Fe {
        let a = &self.0;
        debug_assert!(a.iter().all(|&l| l < 1 << 54), "square: loose bound");
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (a3_19, a4_19) = (a[3] * 19, a[4] * 19);
        // Doubled cross terms keep the same < 2^114.7 bound as `mul`.
        let c0 = m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19));
        let c1 = m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19));
        let c2 = m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19));
        let c3 = m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2]));
        let c4 = m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3]));
        carry_wide([c0, c1, c2, c3, c4])
    }

    /// `self^(2^k)`, `k >= 1`. Input loose, output tight.
    fn pow2k(&self, k: u32) -> Fe {
        let mut out = self.square();
        for _ in 1..k {
            out = out.square();
        }
        out
    }

    /// `(self^(2^250 - 1), self^11)`: the shared prefix of the inversion
    /// and square-root addition chains (249 squarings, 10 multiplies).
    /// Input loose, outputs tight.
    fn pow_2_250_minus_1(&self) -> (Fe, Fe) {
        let x2 = self.square();
        let x9 = x2.pow2k(2).mul(self);
        let x11 = x9.mul(&x2);
        let e5 = x11.square().mul(&x9); // 2^5 - 1
        let e10 = e5.pow2k(5).mul(&e5); // 2^10 - 1
        let e20 = e10.pow2k(10).mul(&e10);
        let e40 = e20.pow2k(20).mul(&e20);
        let e50 = e40.pow2k(10).mul(&e10);
        let e100 = e50.pow2k(50).mul(&e50);
        let e200 = e100.pow2k(100).mul(&e100);
        let e250 = e200.pow2k(50).mul(&e50);
        (e250, x11)
    }

    /// Multiplicative inverse via Fermat: `self^(p-2)`, `p - 2 = 2^255 - 21`
    /// (254 squarings, 11 multiplies). Input loose, output tight.
    ///
    /// Returns zero for the zero input (which has no inverse); callers that
    /// care must check [`Fe::is_zero`] first.
    pub fn invert(&self) -> Fe {
        let (e250, x11) = self.pow_2_250_minus_1();
        e250.pow2k(5).mul(&x11)
    }

    /// `self^((p-5)/8)`, `(p - 5)/8 = 2^252 - 3`: the exponent of the
    /// RFC 8032 §5.1.3 square-root candidate. Input loose, output tight.
    pub(crate) fn pow_p58(&self) -> Fe {
        let (e250, _) = self.pow_2_250_minus_1();
        e250.pow2k(2).mul(self)
    }

    /// Raises to an arbitrary 256-bit exponent (square-and-multiply); the
    /// tests' oracle for the addition chains above.
    #[cfg(test)]
    pub fn pow(&self, exp: &[u64; 4]) -> Fe {
        let mut result = Fe::ONE;
        for i in (0..256).rev() {
            result = result.square();
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                result = result.mul(self);
            }
        }
        result
    }
}

/// Carries five product columns into a tight element.
///
/// Requires `c[0..4] < 2^114.7` and `c[4] < 2^110.4` (what `mul`/`square`
/// produce from loose inputs): every `>> 51` then fits `u64`, the wrapped
/// carry `19·(c4 >> 51) < 2^63.7` fits `u64`, and the outputs are
/// `< 2^51 + 2^13`.
fn carry_wide(mut c: [u128; 5]) -> Fe {
    let low = |x: u128| x as u64 & MASK51;
    let high = |x: u128| {
        debug_assert!(x >> 51 <= u64::MAX as u128, "carry fits u64");
        (x >> 51) as u64
    };
    let mut out = [0u64; 5];
    for i in 0..4 {
        c[i + 1] += high(c[i]) as u128;
        out[i] = low(c[i]);
    }
    out[4] = low(c[4]);
    out[0] += high(c[4]) * 19;
    out[1] += out[0] >> 51;
    out[0] &= MASK51;
    Fe(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    /// `p - 1`, i.e. `-1`, in canonical limbs.
    const P_MINUS_1: Fe = Fe([MASK51 - 19, MASK51, MASK51, MASK51, MASK51]);

    fn p_bytes() -> [u8; 32] {
        let mut b = [0xffu8; 32];
        b[0] = 0xed;
        b[31] = 0x7f;
        b
    }

    #[test]
    fn add_wraps_mod_p() {
        assert_eq!(P_MINUS_1.add(&Fe::ONE), Fe::ZERO);
        assert_eq!(P_MINUS_1.add(&fe(2)), Fe::ONE);
    }

    #[test]
    fn sub_wraps_mod_p() {
        let a = Fe::ZERO.sub(&Fe::ONE); // -1 = p-1
        let mut expected = p_bytes();
        expected[0] -= 1;
        assert_eq!(a.to_bytes(), expected);
    }

    #[test]
    fn mul_matches_repeated_add() {
        let a = fe(0xdead_beef);
        let mut sum = Fe::ZERO;
        for _ in 0..7 {
            sum = sum.add(&a);
        }
        assert_eq!(a.mul(&fe(7)), sum);
    }

    #[test]
    fn two_to_255_is_19_plus_zero() {
        // 2^255 mod p = 19, so (2^128)*(2^127) should reduce to 19.
        let a = Fe([0, 0, 1 << 26, 0, 0]); // 2^(102+26)
        let b = Fe([0, 0, 1 << 25, 0, 0]); // 2^(102+25)
        assert_eq!(a.mul(&b), fe(19));
        assert_eq!(a.add(&a).square(), fe(4 * 38)); // (2^129)^2 = 4·2^256
    }

    #[test]
    fn inverse_of_small_values() {
        for v in 1..50u64 {
            let a = fe(v);
            assert_eq!(a.mul(&a.invert()), Fe::ONE, "v = {v}");
        }
    }

    #[test]
    fn invert_zero_is_zero() {
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
    }

    #[test]
    fn pow_small_exponent() {
        assert_eq!(fe(3).pow(&[5, 0, 0, 0]), fe(243));
    }

    #[test]
    fn addition_chains_match_generic_pow() {
        const P_MINUS_2: [u64; 4] = [0xffff_ffff_ffff_ffeb, u64::MAX, u64::MAX, u64::MAX >> 1];
        const P58: [u64; 4] = [0xffff_ffff_ffff_fffd, u64::MAX, u64::MAX, u64::MAX >> 4];
        for v in [2u64, 3, 0x1234_5678_9abc_def0, u64::MAX] {
            let a = fe(v).pow(&[7, 3, 1, 0]);
            assert_eq!(a.invert(), a.pow(&P_MINUS_2), "v = {v}");
            assert_eq!(a.pow_p58(), a.pow(&P58), "v = {v}");
        }
    }

    #[test]
    fn from_bytes_rejects_noncanonical() {
        // p itself is non-canonical, and so is everything up to 2^255 - 1.
        for low in 0xed..=0xffu8 {
            let mut b = p_bytes();
            b[0] = low;
            assert!(Fe::from_bytes(&b).is_none(), "low byte {low:#x}");
            b[31] |= 0x80;
            assert!(Fe::from_bytes(&b).is_none(), "low byte {low:#x}, sign set");
        }
        // p - 1 is canonical.
        let mut pm1 = p_bytes();
        pm1[0] -= 1;
        assert_eq!(Fe::from_bytes(&pm1), Some(P_MINUS_1));
        // So is a value that differs from p only in a middle byte.
        let mut mid = p_bytes();
        mid[17] = 0xfe;
        assert!(Fe::from_bytes(&mid).is_some());
    }

    #[test]
    fn from_bytes_ignores_sign_bit() {
        let mut one = Fe::ONE.to_bytes();
        one[31] |= 0x80;
        assert_eq!(Fe::from_bytes(&one), Some(Fe::ONE));
    }

    #[test]
    fn negativity_convention() {
        assert!(Fe::ONE.is_negative());
        assert!(!fe(2).is_negative());
        assert!(!Fe::ZERO.is_negative());
    }

    #[test]
    fn bytes_round_trip() {
        let a = fe(123456789).pow(&[3, 1, 0, 0]);
        assert_eq!(Fe::from_bytes(&a.to_bytes()), Some(a));
    }

    #[test]
    fn to_bytes_canonicalises_every_representation_of_small_values() {
        // v, v + p and v + 2p in unreduced limbs all encode as v.
        let p = Fe([MASK51 - 18, MASK51, MASK51, MASK51, MASK51]);
        for v in [0u64, 1, 18, 19, 20, 1 << 40] {
            let plus_p = fe(v).add(&p);
            assert_eq!(plus_p.to_bytes(), fe(v).to_bytes(), "v = {v}");
            assert_eq!(plus_p.add(&p).to_bytes(), fe(v).to_bytes(), "v = {v}");
        }
        assert!(p.is_zero());
        assert!(!p.is_negative());
    }

    #[test]
    fn distributivity_spot_check() {
        let a = fe(0x1234_5678_9abc_def0).pow(&[7, 0, 0, 0]);
        let b = fe(0x0fed_cba9_8765_4321).pow(&[11, 0, 0, 0]);
        let c = fe(0xaaaa_bbbb_cccc_dddd);
        assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }

    #[test]
    fn loose_inputs_at_the_bound_do_not_overflow() {
        // Every limb at 2^54 - 1: the largest input `mul`, `square` and
        // `sub` document. Debug builds panic here if a bound is wrong.
        let top = Fe([(1 << 54) - 1; 5]);
        let sq = top.square();
        assert_eq!(sq, top.mul(&top));
        assert!(sq.0.iter().all(|&l| l < 1 << 52));
        let diff = Fe::ZERO.sub(&top);
        assert!(diff.0.iter().all(|&l| l < 1 << 52));
        assert_eq!(diff.add(&top), Fe::ZERO);
    }
}
