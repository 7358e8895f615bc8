//! What `verify` accepts, pinned against [`super::reference`]: the
//! arithmetic under it was replaced wholesale, and a signature scheme's
//! accept set is part of its interface — a verifier that starts accepting
//! (or refusing) some malformed encoding disagrees with every other RITM
//! node about which roots are signed. Two instruments:
//!
//! * a differential proptest — honest signatures, then one byte changed
//!   anywhere in the key, `R`, `S` or the message;
//! * a fixed corpus of the encodings where Ed25519 implementations are
//!   known to differ (non-canonical `y`, `S >= ℓ`, small-order points,
//!   `x = 0` with the sign bit set). Each entry is built so that a *lenient*
//!   verifier would accept it; the expected verdicts are what the reference
//!   implementation returned when this file was written.

use super::bigint::{add4, limbs_from_le_bytes, limbs_to_le_bytes};
use super::point::Point;
use super::reference;
use super::scalar::{Scalar, L};
use super::{Signature, SigningKey, VerifyingKey};
use crate::hex;
use crate::sha512::Sha512;
use proptest::prelude::*;

/// The verdict of the production verifier, after checking that the
/// reference verifier returns the same one.
fn verdict(public: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> bool {
    let new = VerifyingKey(*public)
        .verify(message, &Signature(*signature))
        .is_ok();
    let old = reference::verify(public, message, signature);
    assert_eq!(
        new,
        old,
        "verifiers disagree: A = {}, R‖S = {}, M = {}",
        hex::encode(public),
        hex::encode(signature),
        hex::encode(message)
    );
    new
}

fn signature(r: &[u8; 32], s: &[u8; 32]) -> [u8; 64] {
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(r);
    sig[32..].copy_from_slice(s);
    sig
}

/// The challenge `k = H(R ‖ A ‖ M) mod ℓ`.
fn challenge(r: &[u8; 32], public: &[u8; 32], message: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r);
    h.update(public);
    h.update(message);
    Scalar::from_bytes_wide(&h.finalize())
}

fn unhex(s: &str) -> [u8; 32] {
    hex::decode_array(s).unwrap()
}

const IDENTITY: &str = "0100000000000000000000000000000000000000000000000000000000000000";

/// The eight points of order dividing 8, canonically encoded, with their
/// orders.
const SMALL_ORDER: [(&str, u32); 8] = [
    (IDENTITY, 1),
    (
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        2,
    ),
    (
        "0000000000000000000000000000000000000000000000000000000000000000",
        4,
    ),
    (
        "0000000000000000000000000000000000000000000000000000000000000080",
        4,
    ),
    (
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        8,
    ),
    (
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
        8,
    ),
    (
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        8,
    ),
    (
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
        8,
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn one_changed_byte_is_judged_alike(
        seed in any::<[u8; 32]>(),
        message in prop::collection::vec(any::<u8>(), 1..96),
        target in 0usize..4,
        position in any::<u16>(),
        flip in 1u8..=255,
    ) {
        let sk = SigningKey::from_seed(seed);
        let mut public = sk.public.0;
        let mut sig = sk.sign(&message).0;
        let mut message = message;
        prop_assert!(verdict(&public, &message, &sig), "honest signature");

        let position = usize::from(position);
        match target {
            0 => public[position % 32] ^= flip,
            1 => sig[position % 32] ^= flip,
            2 => sig[32 + position % 32] ^= flip,
            _ => {
                let at = position % message.len();
                message[at] ^= flip;
            }
        }
        // Agreement is asserted inside; what the verdict is depends on the
        // case (a changed key byte can land on another valid key, but never
        // one under which this signature holds).
        prop_assert!(!verdict(&public, &message, &sig), "mutated input accepted");
    }

    #[test]
    fn base_multiples_encode_alike(wide in any::<[u8; 64]>()) {
        // Key derivation and the R half of `sign` are `[k]B` compressed.
        let k = Scalar::from_bytes_wide(&wide);
        prop_assert_eq!(
            Point::mul_base(&k).compress(),
            reference::Point::mul_base(&k).compress()
        );
    }

    #[test]
    fn arbitrary_bytes_decompress_alike(bytes in any::<[u8; 32]>()) {
        // Random encodings: about half are on the curve.
        let new = Point::decompress(&bytes).map(|p| p.compress());
        let old = reference::Point::decompress(&bytes).map(|p| p.compress());
        prop_assert_eq!(new, old);
        if let Some(encoding) = new {
            prop_assert_eq!(encoding, bytes);
        }
    }
}

#[test]
fn small_order_encodings_are_what_they_claim() {
    for (encoding, order) in SMALL_ORDER {
        let p = Point::decompress(&unhex(encoding)).expect("on the curve");
        assert_eq!(p.compress(), unhex(encoding), "canonical: {encoding}");
        let mut multiple = Point::identity();
        for n in 1..=8 {
            multiple = multiple.add(&p);
            assert_eq!(multiple.is_identity(), n % order == 0, "[{n}]{encoding}");
        }
    }
}

#[test]
fn non_canonical_y_is_rejected_for_key_and_r() {
    let sk = SigningKey::from_seed([0x11; 32]);
    let zero = [0u8; 32];
    // y = p + 1 ≡ 1: the identity, written non-canonically.
    let lenient_identity =
        unhex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
    // y = p ≡ 0: an order-4 point, written non-canonically.
    let lenient_order4 = unhex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");

    // As A: [0]B = O + [k]O holds for the identity under any k.
    assert!(verdict(
        &unhex(IDENTITY),
        b"m",
        &signature(&unhex(IDENTITY), &zero)
    ));
    assert!(!verdict(
        &lenient_identity,
        b"m",
        &signature(&unhex(IDENTITY), &zero)
    ));
    assert!(!verdict(
        &lenient_order4,
        b"m",
        &signature(&unhex(IDENTITY), &zero)
    ));

    // As R, under an honest key: R = O with S = k·a satisfies the equation.
    for (r, expected) in [(unhex(IDENTITY), true), (lenient_identity, false)] {
        let s = challenge(&r, &sk.public.0, b"m").mul(&sk.scalar);
        assert_eq!(
            verdict(&sk.public.0, b"m", &signature(&r, &s.to_bytes())),
            expected
        );
    }
    let s = challenge(&lenient_order4, &sk.public.0, b"m").mul(&sk.scalar);
    assert!(!verdict(
        &sk.public.0,
        b"m",
        &signature(&lenient_order4, &s.to_bytes())
    ));

    // Every y in [p, 2^255), with and without the sign bit.
    for low in 0xed..=0xffu8 {
        for top in [0x7f, 0xff] {
            let mut y = [0xffu8; 32];
            y[0] = low;
            y[31] = top;
            assert!(!verdict(&y, b"m", &signature(&unhex(IDENTITY), &zero)));
            assert!(!verdict(&sk.public.0, b"m", &signature(&y, &zero)));
        }
    }
}

#[test]
fn s_at_or_above_the_group_order_is_rejected() {
    // S = ℓ under the identity key: [ℓ]B = O, so only strictness refuses it.
    let l_bytes = limbs_to_le_bytes(&L);
    assert!(verdict(
        &unhex(IDENTITY),
        b"m",
        &signature(&unhex(IDENTITY), &[0; 32])
    ));
    assert!(!verdict(
        &unhex(IDENTITY),
        b"m",
        &signature(&unhex(IDENTITY), &l_bytes)
    ));

    // S = ℓ + s for honest signatures: same point, refused all the same.
    for seed in 0..8u8 {
        let sk = SigningKey::from_seed([seed; 32]);
        let sig = sk.sign(b"malleable");
        assert!(verdict(&sk.public.0, b"malleable", &sig.0));
        let s: [u8; 32] = sig.0[32..].try_into().unwrap();
        let (s_plus_l, carry) = add4(&limbs_from_le_bytes(&s), &L);
        assert_eq!(carry, 0);
        let mut high = sig.0;
        high[32..].copy_from_slice(&limbs_to_le_bytes(&s_plus_l));
        assert!(!verdict(&sk.public.0, b"malleable", &high));
    }

    // The largest encodable S.
    let sk = SigningKey::from_seed([9; 32]);
    let mut sig = sk.sign(b"m").0;
    sig[32..].copy_from_slice(&[0xff; 32]);
    assert!(!verdict(&sk.public.0, b"m", &sig));
}

#[test]
fn zero_x_with_the_sign_bit_is_rejected() {
    // (0, 1) and (0, -1) have no "negative x" form.
    let identity_signed = unhex("0100000000000000000000000000000000000000000000000000000000000080");
    let order2_signed = unhex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
    let zero = [0u8; 32];
    let sk = SigningKey::from_seed([0x22; 32]);
    for bad in [identity_signed, order2_signed] {
        assert!(Point::decompress(&bad).is_none());
        // As A (the unsigned forms are accepted: see the small-order grid).
        assert!(!verdict(&bad, b"m", &signature(&unhex(IDENTITY), &zero)));
        // As R under the identity key and under an honest key.
        assert!(!verdict(&unhex(IDENTITY), b"m", &signature(&bad, &zero)));
        let s = challenge(&bad, &sk.public.0, b"m").mul(&sk.scalar);
        assert!(!verdict(
            &sk.public.0,
            b"m",
            &signature(&bad, &s.to_bytes())
        ));
    }
}

#[test]
fn small_order_keys_and_rs_are_judged_as_before() {
    // Neither verifier refuses small-order points as such; the cofactorless
    // equation decides. With S = 0 it reads R + [k]A = O, which holds for
    // some (A, R, M) and not others depending on k mod 8.
    let zero = [0u8; 32];
    let mut accepted_by_key_order = [0u32; 9];
    for (a, order) in SMALL_ORDER {
        for (r, _) in SMALL_ORDER {
            for m in 0..16u8 {
                if verdict(&unhex(a), &[m], &signature(&unhex(r), &zero)) {
                    accepted_by_key_order[order as usize] += 1;
                }
            }
        }
    }
    // Recorded from the reference implementation. The identity key accepts
    // exactly R = O (all 16 messages); for the others k changes with R, so
    // which triples hold is as arbitrary as the hash.
    assert_eq!(accepted_by_key_order, RECORDED_SMALL_ORDER_ACCEPTS);

    // A small-order R under an honest key: only R = O can satisfy the
    // equation, because [S]B - [k]A has no torsion component.
    let sk = SigningKey::from_seed([0x33; 32]);
    for (r, order) in SMALL_ORDER {
        let r = unhex(r);
        for m in 0..4u8 {
            let s = challenge(&r, &sk.public.0, &[m]).mul(&sk.scalar);
            let ok = verdict(&sk.public.0, &[m], &signature(&r, &s.to_bytes()));
            assert_eq!(ok, order == 1, "R of order {order}");
        }
    }

    // A key with a torsion component, A = [a]B + T8: R = T and S = k·a
    // verify exactly when T + [k]T8 = O.
    let t8 = Point::decompress(&unhex(SMALL_ORDER[4].0)).unwrap();
    let mixed_key = Point::decompress(&sk.public.0).unwrap().add(&t8).compress();
    let mut accepted = 0;
    for (r, _) in SMALL_ORDER {
        let r = unhex(r);
        for m in 0..16u8 {
            let s = challenge(&r, &mixed_key, &[m]).mul(&sk.scalar);
            accepted += u32::from(verdict(&mixed_key, &[m], &signature(&r, &s.to_bytes())));
        }
    }
    // Recorded from the reference implementation (128 triples, each
    // holding with probability 1/8).
    assert_eq!(accepted, 18);
}

/// Accepted `(A, R, M)` triples of the S = 0 grid, indexed by the order of
/// `A` (orders 4 and 8 have two and four keys).
const RECORDED_SMALL_ORDER_ACCEPTS: [u32; 9] = [0, 16, 11, 0, 27, 0, 0, 0, 70];
