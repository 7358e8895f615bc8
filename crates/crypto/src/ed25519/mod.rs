//! Ed25519 signatures per RFC 8032, implemented from scratch.
//!
//! The paper (§VI) signs dictionary roots with Ed25519 to keep signatures at
//! 64 bytes. This module provides deterministic signing, strict verification
//! (canonical `S`, canonical point encodings), and key generation.
//!
//! A signature check is the largest single cost of a RITM handshake (one
//! per certificate, one per stapled signed root), so the arithmetic is the
//! standard fast construction rather than the textbook one:
//!
//! * [`field`] — GF(2^255 − 19) in five 51-bit limbs, reduced lazily
//!   (limbs stay below 2^54 between operations, canonical only when
//!   encoded), a dedicated squaring, inversion and square root by a fixed
//!   254-squaring addition chain;
//! * [`point`] — Hisil–Wong–Carter–Dawson extended coordinates; verification
//!   is one Straus/Shamir pass computing `[S]B − [k]A` from sliding signed
//!   windows (a static table of odd multiples of `B`, eight odd multiples
//!   of `A` per call) and comparing its encoding with `R`; signing and key
//!   derivation use a fixed-base radix-16 table. The static tables total
//!   38 400 bytes and are built on first use;
//! * [`scalar`] — integers modulo the group order `ℓ` and their signed-digit
//!   recodings.
//!
//! None of it is constant time; the keys of this simulation never meet an
//! adversary who can measure. What verification accepts and what signing
//! produces are pinned bit for bit — by the RFC 8032 vectors and by
//! differential tests against the previous bit-by-bit implementation, which
//! the test build keeps as `reference`.

#[cfg(test)]
mod accept_set;
pub mod bigint;
pub mod field;
pub mod point;
#[cfg(test)]
mod reference;
pub mod scalar;

use crate::sha512::Sha512;
use point::Point;
use rand::RngCore;
use scalar::Scalar;

/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a secret seed in bytes.
pub const SEED_LEN: usize = 32;

/// A 64-byte Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl Signature {
    /// Parses a signature from raw bytes (no validation happens until
    /// verification).
    pub const fn from_bytes(bytes: [u8; SIGNATURE_LEN]) -> Self {
        Signature(bytes)
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; SIGNATURE_LEN] {
        &self.0
    }
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature({}…)", crate::hex::encode(&self.0[..8]))
    }
}

/// Error returned when signature verification fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSignature;

impl core::fmt::Display for InvalidSignature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("invalid ed25519 signature")
    }
}

impl std::error::Error for InvalidSignature {}

/// An Ed25519 verifying (public) key.
///
/// # Examples
///
/// ```
/// use ritm_crypto::ed25519::SigningKey;
/// let sk = SigningKey::from_seed([1u8; 32]);
/// let vk = sk.verifying_key();
/// let sig = sk.sign(b"revocation root");
/// assert!(vk.verify(b"revocation root", &sig).is_ok());
/// assert!(vk.verify(b"tampered", &sig).is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; PUBLIC_KEY_LEN]);

impl core::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VerifyingKey({}…)", crate::hex::encode(&self.0[..8]))
    }
}

impl VerifyingKey {
    /// Parses a verifying key from its 32-byte encoding.
    pub const fn from_bytes(bytes: [u8; PUBLIC_KEY_LEN]) -> Self {
        VerifyingKey(bytes)
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.0
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSignature`] if the key or signature fail to decode
    /// canonically, or if the (cofactorless) verification equation
    /// `[S]B = R + [k]A` does not hold.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), InvalidSignature> {
        let a = Point::decompress(&self.0).ok_or(InvalidSignature)?;
        let r_bytes: [u8; 32] = signature.0[..32].try_into().expect("32-byte R");
        let s_bytes: [u8; 32] = signature.0[32..].try_into().expect("32-byte S");
        // Strict: S must be canonical (< ℓ) to rule out malleability.
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(InvalidSignature)?;

        let mut h = Sha512::new();
        h.update(r_bytes);
        h.update(self.0);
        h.update(message);
        let k = Scalar::from_bytes_wide(&h.finalize());

        // R is never decompressed: `compress` only produces canonical
        // encodings of curve points (and never the x = 0, sign-set form), so
        // a malformed R matches nothing, and a well-formed one matches
        // exactly when the points are equal.
        let expected_r = Point::double_scalar_mul_base(&s, &k, &a.neg());
        if expected_r.compress() == r_bytes {
            Ok(())
        } else {
            Err(InvalidSignature)
        }
    }
}

/// An Ed25519 signing (secret) key, derived from a 32-byte seed.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; SEED_LEN],
    scalar: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the seed.
        write!(f, "SigningKey(public = {:?})", self.public)
    }
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed per RFC 8032 §5.1.5.
    pub fn from_seed(seed: [u8; SEED_LEN]) -> Self {
        let h = crate::sha512::digest(seed);
        let mut scalar_bytes: [u8; 32] = h[..32].try_into().expect("32-byte half");
        // Clamp.
        scalar_bytes[0] &= 248;
        scalar_bytes[31] &= 127;
        scalar_bytes[31] |= 64;
        let scalar = Scalar::from_bytes_mod_order(&scalar_bytes);
        let prefix: [u8; 32] = h[32..].try_into().expect("32-byte half");
        let public = VerifyingKey(Point::mul_base(&scalar).compress());
        SigningKey {
            seed,
            scalar,
            prefix,
            public,
        }
    }

    /// Generates a signing key from `rng`.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        Self::from_seed(seed)
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// The corresponding verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Produces a deterministic RFC 8032 signature over `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(self.prefix);
        h.update(message);
        let r = Scalar::from_bytes_wide(&h.finalize());
        let r_point = Point::mul_base(&r).compress();

        let mut h = Sha512::new();
        h.update(r_point);
        h.update(self.public.0);
        h.update(message);
        let k = Scalar::from_bytes_wide(&h.finalize());

        let s = r.add(&k.mul(&self.scalar));
        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn key(byte: u8) -> SigningKey {
        SigningKey::from_seed([byte; 32])
    }

    #[test]
    fn sign_verify_round_trip() {
        let sk = key(1);
        let vk = sk.verifying_key();
        for msg in [&b""[..], b"a", b"hello revocation", &[0u8; 300]] {
            let sig = sk.sign(msg);
            assert!(vk.verify(msg, &sig).is_ok());
        }
    }

    #[test]
    fn signing_is_deterministic() {
        let sk = key(2);
        assert_eq!(sk.sign(b"m").0, sk.sign(b"m").0);
    }

    #[test]
    fn different_messages_different_signatures() {
        let sk = key(3);
        assert_ne!(sk.sign(b"m1").0, sk.sign(b"m2").0);
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = key(4);
        let sig = sk.sign(b"original");
        assert_eq!(
            sk.verifying_key().verify(b"0riginal", &sig),
            Err(InvalidSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = key(5);
        let mut sig = sk.sign(b"msg");
        sig.0[0] ^= 1;
        assert!(sk.verifying_key().verify(b"msg", &sig).is_err());
        let mut sig2 = sk.sign(b"msg");
        sig2.0[63] ^= 0x10;
        assert!(sk.verifying_key().verify(b"msg", &sig2).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = key(6).sign(b"msg");
        assert!(key(7).verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn high_s_rejected() {
        // Add ℓ to S: classic malleability; strict verification must reject.
        use super::bigint::{add4, limbs_from_le_bytes, limbs_to_le_bytes};
        use super::scalar::L;
        let sk = key(8);
        let mut sig = sk.sign(b"msg");
        let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
        let (s_plus_l, carry) = add4(&limbs_from_le_bytes(&s_bytes), &L);
        if carry == 0 {
            sig.0[32..].copy_from_slice(&limbs_to_le_bytes(&s_plus_l));
            assert!(sk.verifying_key().verify(b"msg", &sig).is_err());
        }
    }

    #[test]
    fn keys_from_rng_differ() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let a = SigningKey::generate(&mut rng);
        let b = SigningKey::generate(&mut rng);
        assert_ne!(a.verifying_key().0, b.verifying_key().0);
        let sig = a.sign(b"x");
        assert!(a.verifying_key().verify(b"x", &sig).is_ok());
        assert!(b.verifying_key().verify(b"x", &sig).is_err());
    }

    #[test]
    fn garbage_public_key_rejected() {
        // y = 2 is not on the curve.
        let mut pk = [0u8; 32];
        pk[0] = 2;
        let vk = VerifyingKey::from_bytes(pk);
        let sig = key(9).sign(b"m");
        assert!(vk.verify(b"m", &sig).is_err());
    }

    /// RFC 8032 §7.1: (secret key, public key, message, signature), hex.
    /// The last message is SHA-512("abc").
    const RFC8032_VECTORS: [(&str, [&str; 4]); 5] = [
        (
            "TEST 1",
            [
                "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
                "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
                "",
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
            ],
        ),
        (
            "TEST 2",
            [
                "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
                "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
                "72",
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
            ],
        ),
        (
            "TEST 3",
            [
                "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
                "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
                "af82",
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
            ],
        ),
        (
            "TEST 1024",
            [
                "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
                "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e",
                "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98fa6e264bf09e\
                 fe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d879de7c0046dc4996d9e773f4\
                 bc9efe5738829adb26c81b37c93a1b270b20329d658675fc6ea534e0810a4432826bf58c941e\
                 fb65d57a338bbd2e26640f89ffbc1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199e\
                 e5d02e82d522c4feba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36\
                 553e06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbefefd75499\
                 da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7aff6f6c94fcd7204ed34\
                 55c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed185ce81bd84359d44254d95629e9855a9\
                 4a7c1958d1f8ada5d0532ed8a5aa3fb2d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6\
                 f1ce22b3de1a1f40cc24554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13\
                 fd65f27088d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc2732\
                 e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b0707e0917af48bbb75\
                 fed413d238f5555a7a569d80c3414a8d0859dc65a46128bab27af87a71314f318c782b23ebfe\
                 808b82b0ce26401d2e22f04d83d1255dc51addd3b75a2b1ae0784504df543af8969be3ea7082\
                 ff7fc9888c144da2af58429ec96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e0\
                 56a9b47acdb751fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c\
                 42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8ca61783aacec\
                 57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34dff7310fdc82aebfd904b01e1d\
                 c54b2927094b2db68d6f903b68401adebf5a7e08d78ff4ef5d63653a65040cf9bfd4aca7984a\
                 74d37145986780fc0b16ac451649de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a\
                 3ca8e1b939ae49e488acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc56\
                 00a32ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e6aed3fb0\
                 f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5fb93246f6b1116398a346\
                 f1a641f3b041e989f7914f90cc2c7fff357876e506b50d334ba77c225bc307ba537152f3f161\
                 0e4eafe595f6d9d90d11faa933a15ef1369546868a7f3a45a96768d40fd9d03412c091c6315c\
                 f4fde7cb68606937380db2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac\
                 86aba41c0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0",
                "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
                 aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03",
            ],
        ),
        (
            "TEST SHA(abc)",
            [
                "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
                "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
                "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
                 2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
                "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589\
                 09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
            ],
        ),
    ];

    #[test]
    fn rfc8032_test_vectors() {
        for (name, [secret, public, message, signature]) in RFC8032_VECTORS {
            let message = crate::hex::decode(message).unwrap();
            let seed: [u8; 32] = crate::hex::decode_array(secret).unwrap();
            let expected: [u8; 64] = crate::hex::decode_array(signature).unwrap();

            let sk = SigningKey::from_seed(seed);
            let vk = sk.verifying_key();
            assert_eq!(crate::hex::encode(vk.0), public, "{name}: public key");
            let sig = sk.sign(&message);
            assert_eq!(
                crate::hex::encode(sig.0),
                crate::hex::encode(expected),
                "{name}"
            );
            assert!(vk.verify(&message, &Signature(expected)).is_ok(), "{name}");
            assert!(
                reference::verify(&vk.0, &message, &expected),
                "{name}: reference"
            );

            // The vector's signature holds for nothing else.
            let mut other = message.clone();
            other.push(0);
            assert!(vk.verify(&other, &sig).is_err(), "{name}: extended message");
        }
        let lengths = RFC8032_VECTORS.map(|(_, [_, _, message, _])| message.len() / 2);
        assert_eq!(lengths, [0, 1, 2, 1023, 64]);
    }

    #[test]
    fn debug_never_prints_seed() {
        let sk = key(0xAB);
        let dbg = format!("{sk:?}");
        assert!(!dbg.contains(&crate::hex::encode([0xABu8; 32])));
    }
}
