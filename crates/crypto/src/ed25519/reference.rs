//! The arithmetic this module had before the 5×51 field and the table-driven
//! scalar multiplications: canonical 4×64 field elements, extended-coordinate
//! points, bit-by-bit double-and-add, shift-and-subtract scalar reduction.
//! Compiled for tests only, as the oracle `super::accept_set` (and the
//! scalar tests) compare the production code against — accept/reject sets
//! and signature bytes must not move.

use super::bigint::{add4, geq4, limbs_from_le_bytes, limbs_to_le_bytes, mul_wide, sbb, sub4};
use super::scalar::{wide_limbs, Scalar, L};
use crate::sha512::Sha512;
use std::sync::OnceLock;

/// The field prime `p = 2^255 - 19`, little-endian limbs.
pub const P: [u64; 4] = [
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

/// An element of GF(2^255 - 19), always canonically reduced.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fe(pub(crate) [u64; 4]);

impl core::fmt::Debug for Fe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fe(0x")?;
        for limb in self.0.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0]);

    /// Lifts a small integer into the field.
    pub fn from_u64(v: u64) -> Fe {
        Fe([v, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes as a field element, ignoring bit 255
    /// (the Edwards sign bit) per RFC 8032.
    ///
    /// Returns `None` if the 255-bit value is not canonical (`>= p`), which
    /// rejects malleable encodings.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Fe> {
        let mut b = *bytes;
        b[31] &= 0x7f;
        let limbs = limbs_from_le_bytes(&b);
        if geq4(&limbs, &P) {
            return None;
        }
        Some(Fe(limbs))
    }

    /// Serializes to 32 little-endian bytes (bit 255 clear).
    pub fn to_bytes(self) -> [u8; 32] {
        limbs_to_le_bytes(&self.0)
    }

    /// `true` if the canonical encoding has its least-significant bit set —
    /// the "negative" convention of RFC 8032 point compression.
    pub fn is_negative(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// `true` if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Field addition.
    pub fn add(&self, other: &Fe) -> Fe {
        let (mut sum, carry) = add4(&self.0, &other.0);
        // a + b < 2p < 2^256, so a single conditional subtraction suffices;
        // carry can only be set together with sum >= p being impossible
        // (2p - 2 < 2^256), hence carry is always 0 here.
        debug_assert_eq!(carry, 0);
        if geq4(&sum, &P) {
            sum = sub4(&sum, &P).0;
        }
        Fe(sum)
    }

    /// Field subtraction.
    pub fn sub(&self, other: &Fe) -> Fe {
        let (diff, borrow) = sub4(&self.0, &other.0);
        if borrow == 1 {
            Fe(add4(&diff, &P).0)
        } else {
            Fe(diff)
        }
    }

    /// Field negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication.
    pub fn mul(&self, other: &Fe) -> Fe {
        Fe(reduce_wide(mul_wide(&self.0, &other.0)))
    }

    /// Field squaring.
    pub fn square(&self) -> Fe {
        self.mul(self)
    }

    /// Raises to an arbitrary 256-bit exponent (square-and-multiply).
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

    /// Multiplicative inverse via Fermat: `self^(p-2)`.
    ///
    /// Returns `Fe::ZERO` for the zero input (which has no inverse); callers
    /// that care must check [`Fe::is_zero`] first.
    pub fn invert(&self) -> Fe {
        // p - 2 = 2^255 - 21
        const P_MINUS_2: [u64; 4] = [
            0xffff_ffff_ffff_ffeb,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x7fff_ffff_ffff_ffff,
        ];
        self.pow(&P_MINUS_2)
    }
}

/// Reduces a 512-bit product modulo `p = 2^255 - 19`.
///
/// Uses `2^256 ≡ 38 (mod p)` to fold the high half, twice, followed by
/// conditional subtractions.
fn reduce_wide(wide: [u64; 8]) -> [u64; 4] {
    // Fold 1: r = lo + 38 * hi  (fits in 5 limbs).
    let mut r = [0u64; 5];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let t = wide[i] as u128 + 38u128 * wide[i + 4] as u128 + carry;
        r[i] = t as u64;
        carry = t >> 64;
    }
    r[4] = carry as u64;

    // Fold 2: add 38 * r[4] into the low 4 limbs.
    let mut out = [r[0], r[1], r[2], r[3]];
    let mut add = 38u128 * r[4] as u128;
    let mut i = 0;
    while add != 0 && i < 4 {
        let t = out[i] as u128 + (add & 0xffff_ffff_ffff_ffff);
        out[i] = t as u64;
        add = (add >> 64) + (t >> 64);
        i += 1;
    }
    // A final carry out of limb 3 means the value wrapped 2^256 → add 38.
    if add != 0 {
        let t = out[0] as u128 + 38 * add;
        out[0] = t as u64;
        let mut c = (t >> 64) as u64;
        let mut j = 1;
        while c != 0 && j < 4 {
            let (s, c2) = super::bigint::adc(out[j], 0, c);
            out[j] = s;
            c = c2;
            j += 1;
        }
    }

    while geq4(&out, &P) {
        out = sub4(&out, &P).0;
    }
    out
}

/// Curve constant `d = -121665/121666`.
fn d() -> &'static Fe {
    static D: OnceLock<Fe> = OnceLock::new();
    D.get_or_init(|| {
        Fe::from_u64(121_665)
            .neg()
            .mul(&Fe::from_u64(121_666).invert())
    })
}

/// `2d`, used in the addition formula.
fn d2() -> &'static Fe {
    static D2: OnceLock<Fe> = OnceLock::new();
    D2.get_or_init(|| d().add(d()))
}

/// `sqrt(-1) = 2^((p-1)/4)`.
fn sqrt_m1() -> &'static Fe {
    static S: OnceLock<Fe> = OnceLock::new();
    S.get_or_init(|| {
        // (p - 1) / 4 = 2^253 - 5
        const EXP: [u64; 4] = [
            0xffff_ffff_ffff_fffb,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x1fff_ffff_ffff_ffff,
        ];
        Fe::from_u64(2).pow(&EXP)
    })
}

/// An edwards25519 point in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) and (Y1/Z1 == Y2/Z2), cross-multiplied.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl Eq for Point {}

impl Point {
    /// The neutral element `(0, 1)`.
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The RFC 8032 base point `B` with `y = 4/5` and even `x`.
    pub fn basepoint() -> &'static Point {
        static B: OnceLock<Point> = OnceLock::new();
        B.get_or_init(|| {
            let y = Fe::from_u64(4).mul(&Fe::from_u64(5).invert());
            let x = recover_x(&y, false).expect("basepoint x exists");
            Point::from_affine(x, y)
        })
    }

    /// Builds a point from affine coordinates. The caller must ensure the
    /// coordinates satisfy the curve equation (checked in debug builds).
    pub fn from_affine(x: Fe, y: Fe) -> Point {
        debug_assert!(on_curve(&x, &y), "affine point not on curve");
        Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        }
    }

    /// Point addition (add-2008-hwcd-3 for `a = -1`, unified).
    pub fn add(&self, other: &Point) -> Point {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(d2()).mul(&other.t);
        let dd = self.z.mul(&other.z);
        let dd = dd.add(&dd);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Point doubling (dbl-2008-hwcd for `a = -1`).
    pub fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().add(&self.z.square());
        let d_ = a.neg();
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = d_.add(&b);
        let f = g.sub(&c);
        let h = d_.sub(&b);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Scalar multiplication `[k]P` (double-and-add, not constant time —
    /// acceptable for a simulation substrate).
    pub fn mul(&self, k: &Scalar) -> Point {
        let mut acc = Point::identity();
        for i in (0..256).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// `[k]B` for the base point.
    pub fn mul_base(k: &Scalar) -> Point {
        Point::basepoint().mul(k)
    }

    /// Compresses to the 32-byte RFC 8032 encoding: `y` with the sign of `x`
    /// in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding; `None` if it is not a valid,
    /// canonical curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7 == 1;
        let y = Fe::from_bytes(bytes)?;
        let x = recover_x(&y, sign)?;
        Some(Point::from_affine(x, y))
    }
}

/// Checks the curve equation `-x² + y² = 1 + d·x²y²`.
fn on_curve(x: &Fe, y: &Fe) -> bool {
    let xx = x.square();
    let yy = y.square();
    let lhs = yy.sub(&xx);
    let rhs = Fe::ONE.add(&d().mul(&xx).mul(&yy));
    lhs == rhs
}

/// Recovers `x` from `y` and the sign bit, per RFC 8032 §5.1.3.
fn recover_x(y: &Fe, sign: bool) -> Option<Fe> {
    // x² = (y² - 1) / (d·y² + 1)
    let yy = y.square();
    let u = yy.sub(&Fe::ONE);
    let v = d().mul(&yy).add(&Fe::ONE);

    // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8)
    const EXP: [u64; 4] = [
        // (p - 5) / 8 = 2^252 - 3
        0xffff_ffff_ffff_fffd,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x0fff_ffff_ffff_ffff,
    ];
    let v3 = v.square().mul(&v);
    let v7 = v3.square().mul(&v);
    let mut x = u.mul(&v3).mul(&u.mul(&v7).pow(&EXP));

    let vxx = v.mul(&x.square());
    if vxx != u {
        if vxx == u.neg() {
            x = x.mul(sqrt_m1());
        } else {
            return None;
        }
    }
    if x.is_zero() && sign {
        // x = 0 admits no "negative" representation.
        return None;
    }
    if x.is_negative() != sign {
        x = x.neg();
    }
    Some(x)
}

/// `VerifyingKey::verify` as it was: decompress `A` and `R`, then compare
/// `[S]B` with `R + [k]A` as points.
pub fn verify(public: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> bool {
    let Some(a) = Point::decompress(public) else {
        return false;
    };
    let r_bytes: [u8; 32] = signature[..32].try_into().expect("32-byte R");
    let s_bytes: [u8; 32] = signature[32..].try_into().expect("32-byte S");
    let Some(r) = Point::decompress(&r_bytes) else {
        return false;
    };
    let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
        return false;
    };
    let mut h = Sha512::new();
    h.update(r_bytes);
    h.update(public);
    h.update(message);
    let k = Scalar(reduce_512(wide_limbs(&h.finalize())));
    Point::mul_base(&s) == r.add(&a.mul(&k))
}

/// `scalar::reduce_512` as it was: reduces a 512-bit little-endian value
/// modulo `ℓ` by shift-and-subtract.
///
/// `ℓ` is 253 bits, so at most `512 - 253 + 1 = 260` shifted subtractions are
/// attempted. This is not constant time; the simulation does not require
/// side-channel resistance.
pub fn reduce_512(mut v: [u64; 8]) -> [u64; 4] {
    for shift in (0..=259).rev() {
        if geq_shifted(&v, shift) {
            sub_shifted(&mut v, shift);
        }
    }
    debug_assert_eq!(&v[4..], &[0, 0, 0, 0]);
    let out = [v[0], v[1], v[2], v[3]];
    debug_assert!(!geq4(&out, &L));
    out
}

/// Computes the limbs of `ℓ << shift` as a 9-limb value.
fn shifted_l(shift: usize) -> [u64; 9] {
    let word = shift / 64;
    let bit = shift % 64;
    let mut out = [0u64; 9];
    for i in 0..4 {
        out[word + i] |= L[i] << bit;
        if bit != 0 && word + i + 1 < 9 {
            out[word + i + 1] |= L[i] >> (64 - bit);
        }
    }
    out
}

fn geq_shifted(v: &[u64; 8], shift: usize) -> bool {
    let s = shifted_l(shift);
    if s[8] != 0 {
        return false;
    }
    for i in (0..8).rev() {
        if v[i] != s[i] {
            return v[i] > s[i];
        }
    }
    true
}

fn sub_shifted(v: &mut [u64; 8], shift: usize) {
    let s = shifted_l(shift);
    let mut borrow = 0u64;
    for i in 0..8 {
        let (d, b) = sbb(v[i], s[i], borrow);
        v[i] = d;
        borrow = b;
    }
    debug_assert_eq!(borrow, 0);
}
