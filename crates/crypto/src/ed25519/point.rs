//! Twisted Edwards points on edwards25519 (`-x² + y² = 1 + d·x²y²`).
//!
//! The public type is [`Point`], in extended homogeneous coordinates
//! `(X : Y : Z : T)` with `T = XY/Z`. Around it sit the four working
//! representations of Hisil–Wong–Carter–Dawson arithmetic, each existing to
//! save field multiplications in the two scalar multiplications Ed25519
//! needs:
//!
//! * `Projective` `(X : Y : Z)` — what a doubling consumes; a run of
//!   doublings never computes `T`.
//! * `Completed` `((X : Z), (Y : T))` — what a doubling or addition
//!   produces; three multiplies to `Projective`, four to `Point`.
//! * `ProjectiveNiels` `(Y+X, Y−X, Z, 2dT)` — a point prepared as the
//!   second operand of an addition (the per-call multiples of `A`).
//! * `AffineNiels` `(y+x, y−x, 2dxy)` — the same with `Z = 1`, one
//!   multiply cheaper to add (the static multiples of `B`).
//!
//! Coordinates of `Point` and `Projective` are tight, those of `Completed`
//! and the Niels forms loose, in the sense of [`super::field`]; each formula
//! notes the one place a sum gets close to the loose bound.
//!
//! Nothing here is constant time: scalar digits choose branches and table
//! rows. The simulation signs with throwaway keys on the machine that
//! verifies; see the note on [`Point::mul_base`].

use super::field::Fe;
use super::scalar::Scalar;
use std::sync::OnceLock;

/// Curve constant `d = -121665/121666`.
const D: Fe = Fe([
    929_955_233_495_203,
    466_365_720_129_213,
    1_662_059_464_998_953,
    2_033_849_074_728_123,
    1_442_794_654_840_575,
]);

/// `2d`, used in the addition formula.
const D2: Fe = Fe([
    1_859_910_466_990_425,
    932_731_440_258_426,
    1_072_319_116_312_658,
    1_815_898_335_770_999,
    633_789_495_995_903,
]);

/// `sqrt(-1) = 2^((p-1)/4)`.
const SQRT_M1: Fe = Fe([
    1_718_705_420_411_056,
    234_908_883_556_509,
    2_233_514_472_574_048,
    2_117_202_627_021_982,
    765_476_049_583_133,
]);

/// An edwards25519 point in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// `(X : Y : Z)`, the input of a doubling.
#[derive(Clone, Copy)]
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The point `(X/Z, Y/T)`: the output of the addition and doubling
/// formulas before the multiplications that bring it onto one denominator.
#[derive(Clone, Copy)]
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point cached as an addend: `(Y+X, Y−X, Z, 2dT)`.
#[derive(Clone, Copy)]
struct ProjectiveNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// An affine point cached as an addend: `(y+x, y−x, 2dxy)`.
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) and (Y1/Z1 == Y2/Z2), cross-multiplied.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl Eq for Point {}

impl Projective {
    const IDENTITY: Projective = Projective {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
    };

    /// Doubling (dbl-2008-hwcd for `a = -1`): four squarings.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(&zz);
        let x_plus_y_sq = self.x.add(&self.y).square();
        let yy_plus_xx = yy.add(&xx);
        let yy_minus_xx = yy.sub(&xx);
        Completed {
            x: x_plus_y_sq.sub(&yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(&yy_minus_xx),
        }
    }

    /// `(XZ : YZ : Z² : XY)` is the same point with `T` restored.
    fn to_extended(self) -> Point {
        Point {
            x: self.x.mul(&self.z),
            y: self.y.mul(&self.z),
            z: self.z.square(),
            t: self.x.mul(&self.y),
        }
    }
}

impl Completed {
    /// Three multiplies; the next step is a doubling.
    fn to_projective(self) -> Projective {
        Projective {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
        }
    }

    /// Four multiplies; the next step is an addition, or the caller wants
    /// a `Point`.
    fn to_extended(self) -> Point {
        Point {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }
}

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

    fn to_projective(self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_projective_niels(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&D2),
        }
    }

    fn to_affine_niels(self) -> AffineNiels {
        let (x, y) = self.to_affine();
        AffineNiels {
            y_plus_x: y.add(&x),
            y_minus_x: y.sub(&x),
            xy2d: x.mul(&y).mul(&D2),
        }
    }

    /// `self ± Q` (add-2008-hwcd-3 for `a = -1`, unified and complete: `d`
    /// is a non-square, so no pair of curve points is exceptional), for `Q`
    /// given as `(Y+X, Y−X, 2dT)` and `zz2 = 2·Z·Z_Q`. Subtracting `Q` is
    /// adding `(−X, Y, −T)`: the first two swap and `2dT` changes sign.
    fn add_niels(
        &self,
        (y_plus_x, y_minus_x, t2d): (&Fe, &Fe, &Fe),
        zz2: Fe,
        subtract: bool,
    ) -> Completed {
        let (plus, minus) = if subtract {
            (y_minus_x, y_plus_x)
        } else {
            (y_plus_x, y_minus_x)
        };
        let pp = self.y.add(&self.x).mul(plus);
        let mm = self.y.sub(&self.x).mul(minus);
        let tt2d = self.t.mul(t2d);
        // zz2 < 2^53, so zz2 + tt2d < 2^53 + 2^52: still loose.
        let (z, t) = if subtract {
            (zz2.sub(&tt2d), zz2.add(&tt2d))
        } else {
            (zz2.add(&tt2d), zz2.sub(&tt2d))
        };
        Completed {
            x: pp.sub(&mm),
            y: pp.add(&mm),
            z,
            t,
        }
    }

    /// `self ± other`, eight multiplies with the conversion that follows.
    fn add_projective_niels(&self, other: &ProjectiveNiels, subtract: bool) -> Completed {
        let zz = self.z.mul(&other.z);
        let q = (&other.y_plus_x, &other.y_minus_x, &other.t2d);
        self.add_niels(q, zz.add(&zz), subtract)
    }

    /// `self ± other` for an affine addend (madd-2008-hwcd-3): `Z_Q = 1`
    /// saves the multiply.
    fn add_affine_niels(&self, other: &AffineNiels, subtract: bool) -> Completed {
        let q = (&other.y_plus_x, &other.y_minus_x, &other.xy2d);
        self.add_niels(q, self.z.add(&self.z), subtract)
    }

    /// Point addition.
    pub fn add(&self, other: &Point) -> Point {
        self.add_projective_niels(&other.to_projective_niels(), false)
            .to_extended()
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        self.to_projective().double().to_extended()
    }

    /// Point negation.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication `[k]P` for an arbitrary point: plain
    /// double-and-add. Neither signing nor verification uses it; it is the
    /// definition the table-driven paths below are tested against.
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

    /// `[k]B` for the base point: signed radix-16 digits of `k` against a
    /// table of `1..=8` times `256^i·B` — 64 mixed additions (fewer when a
    /// digit is zero) and 4 doublings.
    ///
    /// Not constant time: a digit of the (secret) scalar picks the table
    /// row and whether anything is added at all, so timing and cache state
    /// leak it. The module has never been side-channel safe — the
    /// simulation's keys live and die inside one process — and this table
    /// does not change that.
    pub fn mul_base(k: &Scalar) -> Point {
        let digits = k.to_radix_16();
        let table = basepoint_radix16_table();
        let add_digits = |mut acc: Point, parity: usize| {
            for i in (parity..64).step_by(2) {
                let digit = digits[i];
                if digit != 0 {
                    let row = &table[i / 2][usize::from(digit.unsigned_abs()) - 1];
                    acc = acc.add_affine_niels(row, digit < 0).to_extended();
                }
            }
            acc
        };
        // k = Σ d_i·16^i = 16·Σ_{odd i} d_i·256^(i/2) + Σ_{even i} d_i·256^(i/2).
        let odd = add_digits(Point::identity(), 1);
        let mut acc = odd.to_projective();
        for _ in 0..3 {
            acc = acc.double().to_projective();
        }
        add_digits(acc.double().to_extended(), 0)
    }

    /// `[s]B + [k]A` in one interleaved (Straus/Shamir) pass: 255 or fewer
    /// doublings shared by both scalars, width-8 wNAF digits of `s` against
    /// the static odd multiples of `B` (one addition per ~9 bits), width-5
    /// wNAF digits of `k` against eight odd multiples of `A` built here
    /// (one per ~6 bits). Variable time in both scalars; verification has
    /// no secrets.
    pub(crate) fn double_scalar_mul_base(s: &Scalar, k: &Scalar, a: &Point) -> Point {
        let s_naf = s.non_adjacent_form(8);
        let k_naf = k.non_adjacent_form(5);
        let b_table = basepoint_odd_multiples();

        // [A, 3A, 5A, …, 15A].
        let a2 = a.double().to_projective_niels();
        let mut a_table = [a.to_projective_niels(); 8];
        let mut multiple = *a;
        for slot in &mut a_table[1..] {
            multiple = multiple.add_projective_niels(&a2, false).to_extended();
            *slot = multiple.to_projective_niels();
        }

        let top = (0..256)
            .rev()
            .find(|&i| s_naf[i] != 0 || k_naf[i] != 0)
            .unwrap_or(0);
        let mut acc = Projective::IDENTITY;
        for i in (0..=top).rev() {
            let mut t = acc.double();
            let (ds, dk) = (s_naf[i], k_naf[i]);
            if dk != 0 {
                let row = &a_table[usize::from(dk.unsigned_abs()) / 2];
                t = t.to_extended().add_projective_niels(row, dk < 0);
            }
            if ds != 0 {
                let row = &b_table[usize::from(ds.unsigned_abs()) / 2];
                t = t.to_extended().add_affine_niels(row, ds < 0);
            }
            // T is skipped whenever the next step is a doubling.
            acc = t.to_projective();
        }
        acc.to_extended()
    }

    /// Compresses to the 32-byte RFC 8032 encoding: `y` with the sign of `x`
    /// in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let (x, y) = self.to_affine();
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

    /// Affine coordinates `(x, y)`.
    pub fn to_affine(&self) -> (Fe, Fe) {
        let zinv = self.z.invert();
        (self.x.mul(&zinv), self.y.mul(&zinv))
    }

    /// `true` for the neutral element.
    pub fn is_identity(&self) -> bool {
        *self == Point::identity()
    }
}

/// `[1, 3, 5, …, 127]·B`, the addends of a width-8 wNAF (7 680 bytes,
/// built on first use).
fn basepoint_odd_multiples() -> &'static [AffineNiels; 64] {
    static TABLE: OnceLock<[AffineNiels; 64]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let b = *Point::basepoint();
        let b2 = b.double();
        let mut multiple = b;
        let mut table = [b.to_affine_niels(); 64];
        for slot in &mut table[1..] {
            multiple = multiple.add(&b2);
            *slot = multiple.to_affine_niels();
        }
        table
    })
}

/// `table[i][j] = (j + 1)·256^i·B` for `i < 32`, `j < 8`: every value a
/// signed radix-16 digit pair can select (30 720 bytes, built on first use;
/// with [`basepoint_odd_multiples`] the module's static tables total
/// 38 400 bytes).
fn basepoint_radix16_table() -> &'static [[AffineNiels; 8]; 32] {
    static TABLE: OnceLock<[[AffineNiels; 8]; 32]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut power = *Point::basepoint(); // 256^i·B
        let mut table = [[power.to_affine_niels(); 8]; 32];
        for row in &mut table {
            let mut multiple = power;
            for slot in row.iter_mut() {
                *slot = multiple.to_affine_niels();
                multiple = multiple.add(&power);
            }
            for _ in 0..8 {
                power = power.double();
            }
        }
        table
    })
}

/// Checks the curve equation `-x² + y² = 1 + d·x²y²`.
fn on_curve(x: &Fe, y: &Fe) -> bool {
    let xx = x.square();
    let yy = y.square();
    let lhs = yy.sub(&xx);
    let rhs = Fe::ONE.add(&D.mul(&xx).mul(&yy));
    lhs == rhs
}

/// Recovers `x` from `y` and the sign bit, per RFC 8032 §5.1.3.
fn recover_x(y: &Fe, sign: bool) -> Option<Fe> {
    // x² = (y² - 1) / (d·y² + 1)
    let yy = y.square();
    let u = yy.sub(&Fe::ONE);
    let v = D.mul(&yy).add(&Fe::ONE);

    // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8)
    let v3 = v.square().mul(&v);
    let v7 = v3.square().mul(&v);
    let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());

    let vxx = v.mul(&x.square());
    if vxx != u {
        if vxx == u.neg() {
            x = x.mul(&SQRT_M1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn curve_constants_match_their_definitions() {
        let d = Fe::from_u64(121_665)
            .neg()
            .mul(&Fe::from_u64(121_666).invert());
        assert_eq!(D, d);
        assert_eq!(D2, d.add(&d));
        assert_eq!(SQRT_M1.square(), Fe::ONE.neg());
        // The root RFC 8032 names: 2^((p-1)/4), not its negation.
        const EXP: [u64; 4] = [0xffff_ffff_ffff_fffb, u64::MAX, u64::MAX, u64::MAX >> 3];
        assert_eq!(SQRT_M1, Fe::from_u64(2).pow(&EXP));
        for c in [D, D2, SQRT_M1] {
            assert!(c.0.iter().all(|&l| l < 1 << 51), "canonical limbs");
        }
    }

    #[test]
    fn static_tables_fit_the_budget() {
        let bytes = std::mem::size_of_val(basepoint_odd_multiples())
            + std::mem::size_of_val(basepoint_radix16_table());
        assert_eq!(bytes, 38_400);
        assert!(bytes <= 64 * 1024);
    }

    #[test]
    fn basepoint_known_encoding() {
        // RFC 8032: B encodes to 0x58 followed by 31 bytes of 0x66
        // (little-endian y = 4/5, even x).
        assert_eq!(
            hex::encode(Point::basepoint().compress()),
            "5866666666666666666666666666666666666666666666666666666666666666"
        );
    }

    #[test]
    fn basepoint_on_curve() {
        let (x, y) = Point::basepoint().to_affine();
        assert!(on_curve(&x, &y));
    }

    #[test]
    fn identity_round_trip() {
        let id = Point::identity();
        let enc = id.compress();
        assert_eq!(Point::decompress(&enc).unwrap(), id);
        // Encoding of the identity is y=1 with positive x.
        assert_eq!(enc[0], 1);
        assert!(enc[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn double_equals_add_self() {
        let b = Point::basepoint();
        assert_eq!(b.double(), b.add(b));
        let b4 = b.double().double();
        assert_eq!(b4, b.add(b).add(b).add(b));
    }

    #[test]
    fn extended_coordinate_invariant_holds() {
        // T·Z = X·Y after every way of producing a Point.
        let b = Point::basepoint();
        let k = Scalar::from_bytes_mod_order(&[0x5a; 32]);
        for p in [
            b.double(),
            b.add(&b.double()),
            b.neg(),
            b.mul(&k),
            Point::mul_base(&k),
            Point::double_scalar_mul_base(&k, &Scalar::from_u64(77), &b.double()),
        ] {
            assert_eq!(p.t.mul(&p.z), p.x.mul(&p.y));
            let (x, y) = p.to_affine();
            assert!(on_curve(&x, &y));
        }
    }

    #[test]
    fn add_identity_is_noop() {
        let b = Point::basepoint();
        assert_eq!(b.add(&Point::identity()), *b);
        assert_eq!(Point::identity().add(b), *b);
    }

    #[test]
    fn add_negation_is_identity() {
        let p = Point::mul_base(&Scalar::from_u64(7));
        assert!(p.add(&p.neg()).is_identity());
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = Point::basepoint();
        let mut acc = Point::identity();
        assert!(Point::mul_base(&Scalar::ZERO).is_identity());
        for k in 1..=40u64 {
            acc = acc.add(b);
            assert_eq!(Point::mul_base(&Scalar::from_u64(k)), acc, "k = {k}");
            assert_eq!(b.mul(&Scalar::from_u64(k)), acc, "k = {k}");
        }
    }

    #[test]
    fn order_of_basepoint() {
        // [ℓ]B = identity and [ℓ+1]B = B.
        use super::super::bigint::limbs_to_le_bytes;
        use super::super::scalar::L;
        // ℓ reduces to 0 mod ℓ, so emulate [ℓ]B by adding B to [ℓ-1]B.
        let (lm1, _) = super::super::bigint::sub4(&L, &[1, 0, 0, 0]);
        let s = Scalar::from_canonical_bytes(&limbs_to_le_bytes(&lm1)).unwrap();
        let p = Point::mul_base(&s); // [ℓ-1]B = -B
        assert_eq!(p, Point::basepoint().neg());
        assert!(p.add(Point::basepoint()).is_identity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let a = Scalar::from_u64(1234567);
        let b = Scalar::from_u64(7654321);
        let lhs = Point::mul_base(&a.add(&b));
        let rhs = Point::mul_base(&a).add(&Point::mul_base(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn table_driven_multiplications_match_the_definition() {
        let b = Point::basepoint();
        let mut seed = [0u8; 32];
        for round in 0..24u8 {
            seed = crate::sha256::digest(seed);
            let s = Scalar::from_bytes_mod_order(&seed);
            let k = Scalar::from_bytes_mod_order(&crate::sha256::digest([round]));
            let a = b.mul(&Scalar::from_u64(u64::from(round) * 977 + 1));
            assert_eq!(Point::mul_base(&s), b.mul(&s), "round {round}");
            assert_eq!(
                Point::double_scalar_mul_base(&s, &k, &a),
                b.mul(&s).add(&a.mul(&k)),
                "round {round}"
            );
        }
        // Degenerate scalars: the loop has no top digit, or only one side.
        let a = b.double();
        let k = Scalar::from_u64(0xdead_beef);
        assert!(Point::double_scalar_mul_base(&Scalar::ZERO, &Scalar::ZERO, &a).is_identity());
        assert_eq!(
            Point::double_scalar_mul_base(&k, &Scalar::ZERO, &a),
            b.mul(&k)
        );
        assert_eq!(
            Point::double_scalar_mul_base(&Scalar::ZERO, &k, &a),
            a.mul(&k)
        );
        assert_eq!(
            Point::double_scalar_mul_base(&Scalar::ONE, &Scalar::ONE, &a),
            b.add(&a)
        );
    }

    #[test]
    fn compress_decompress_round_trip() {
        for k in [1u64, 2, 3, 99, 1 << 40, u64::MAX] {
            let p = Point::mul_base(&Scalar::from_u64(k));
            let enc = p.compress();
            assert_eq!(Point::decompress(&enc).unwrap(), p, "k = {k}");
        }
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 gives x² = 3 / (4d + 1), which is not a square for this d.
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        assert!(Point::decompress(&bytes).is_none());
    }

    #[test]
    fn decompress_rejects_noncanonical_y() {
        // y = p is a non-canonical encoding of 0.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        assert!(Point::decompress(&p_bytes).is_none());
    }

    #[test]
    fn sign_bit_selects_negation() {
        let p = Point::mul_base(&Scalar::from_u64(5));
        let mut enc = p.compress();
        enc[31] ^= 0x80;
        let q = Point::decompress(&enc).unwrap();
        assert_eq!(q, p.neg());
    }
}
