//! Signed dictionary roots — Eq. (1) of the paper:
//! `{root, n, H^m(v), time()}_{K⁻_CA}`.

use ritm_crypto::digest::Digest20;
use ritm_crypto::ed25519::{InvalidSignature, Signature, SigningKey, VerifyingKey};
use ritm_crypto::wire::{DecodeError, Reader, Writer};

/// Identifies a CA (and thereby its dictionary) across the system.
///
/// Derived from the CA's name; 8 bytes keeps dissemination messages small
/// while leaving collisions negligible for the ≤ few hundred CAs observed in
/// the paper's dataset (254 CRLs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CaId(pub [u8; 8]);

impl CaId {
    /// Derives an id from a CA name.
    ///
    /// # Examples
    ///
    /// ```
    /// use ritm_dictionary::CaId;
    /// assert_eq!(CaId::from_name("CA1"), CaId::from_name("CA1"));
    /// assert_ne!(CaId::from_name("CA1"), CaId::from_name("CA2"));
    /// ```
    pub fn from_name(name: &str) -> Self {
        let d = Digest20::hash(name.as_bytes());
        let mut id = [0u8; 8];
        id.copy_from_slice(&d.as_bytes()[..8]);
        CaId(id)
    }
}

impl core::fmt::Display for CaId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&ritm_crypto::hex::encode(self.0))
    }
}

/// A CA-signed commitment to one dictionary version.
///
/// Contains the tree root, the dictionary size `n`, the hash-chain anchor
/// `H^m(v)` for subsequent freshness statements, and the issuance timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedRoot {
    /// Which CA's dictionary this commits to.
    pub ca: CaId,
    /// The Merkle root over the sorted leaves.
    pub root: Digest20,
    /// Number of revocations in the dictionary (`n` in the paper).
    pub size: u64,
    /// Hash-chain anchor `H^m(v)` for freshness statements.
    pub anchor: Digest20,
    /// Unix timestamp `t` at which this root was signed.
    pub timestamp: u64,
    /// Ed25519 signature over the canonical encoding of the above.
    pub signature: Signature,
}

/// Encoded size of a signed root in bytes (fixed).
pub const SIGNED_ROOT_LEN: usize = 8 + 20 + 8 + 20 + 8 + 64;

impl SignedRoot {
    /// Canonical bytes covered by the signature.
    fn signing_bytes(
        ca: CaId,
        root: &Digest20,
        size: u64,
        anchor: &Digest20,
        timestamp: u64,
    ) -> Vec<u8> {
        let mut w = Writer::with_capacity(70);
        w.bytes(b"RITM-ROOT-v1");
        w.bytes(&ca.0);
        w.bytes(root.as_bytes());
        w.u64(size);
        w.bytes(anchor.as_bytes());
        w.u64(timestamp);
        w.into_bytes()
    }

    /// Creates and signs a root (CA-side, Fig. 2 `insert` step 3).
    pub fn create(
        key: &SigningKey,
        ca: CaId,
        root: Digest20,
        size: u64,
        anchor: Digest20,
        timestamp: u64,
    ) -> Self {
        let msg = Self::signing_bytes(ca, &root, size, &anchor, timestamp);
        SignedRoot {
            ca,
            root,
            size,
            anchor,
            timestamp,
            signature: key.sign(&msg),
        }
    }

    /// Verifies the signature against the CA's public key.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSignature`] if verification fails.
    pub fn verify(&self, key: &VerifyingKey) -> Result<(), InvalidSignature> {
        let msg = Self::signing_bytes(self.ca, &self.root, self.size, &self.anchor, self.timestamp);
        key.verify(&msg, &self.signature)
    }

    /// Serializes the signed root (fixed [`SIGNED_ROOT_LEN`] bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(SIGNED_ROOT_LEN);
        w.bytes(&self.ca.0);
        w.bytes(self.root.as_bytes());
        w.u64(self.size);
        w.bytes(self.anchor.as_bytes());
        w.u64(self.timestamp);
        w.bytes(self.signature.as_bytes());
        w.into_bytes()
    }

    /// Parses a signed root (signature is *not* verified here).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let out = Self::decode(&mut r)?;
        r.finish("signed root trailing bytes")?;
        Ok(out)
    }

    /// Parses a signed root from a reader (for embedding in larger
    /// messages).
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SignedRoot {
            ca: CaId(r.array("ca id")?),
            root: Digest20::from_bytes(r.array("root")?),
            size: r.u64("size")?,
            anchor: Digest20::from_bytes(r.array("anchor")?),
            timestamp: r.u64("timestamp")?,
            signature: Signature::from_bytes(r.array("signature")?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SigningKey {
        SigningKey::from_seed([3u8; 32])
    }

    fn sample() -> SignedRoot {
        SignedRoot::create(
            &key(),
            CaId::from_name("TestCA"),
            Digest20::hash(b"root"),
            7,
            Digest20::hash(b"anchor"),
            1_400_000_000,
        )
    }

    #[test]
    fn verifies_with_right_key() {
        assert!(sample().verify(&key().verifying_key()).is_ok());
    }

    #[test]
    fn rejects_wrong_key() {
        let other = SigningKey::from_seed([4u8; 32]);
        assert!(sample().verify(&other.verifying_key()).is_err());
    }

    #[test]
    fn any_field_change_invalidates() {
        let k = key().verifying_key();
        let mut a = sample();
        a.size += 1;
        assert!(a.verify(&k).is_err());
        let mut b = sample();
        b.timestamp += 1;
        assert!(b.verify(&k).is_err());
        let mut c = sample();
        c.root = Digest20::hash(b"other root");
        assert!(c.verify(&k).is_err());
        let mut d = sample();
        d.anchor = Digest20::hash(b"other anchor");
        assert!(d.verify(&k).is_err());
        let mut e = sample();
        e.ca = CaId::from_name("EvilCA");
        assert!(e.verify(&k).is_err());
    }

    #[test]
    fn encoding_round_trips_and_is_fixed_size() {
        let sr = sample();
        let bytes = sr.to_bytes();
        assert_eq!(bytes.len(), SIGNED_ROOT_LEN);
        let back = SignedRoot::from_bytes(&bytes).unwrap();
        assert_eq!(back, sr);
        assert!(back.verify(&key().verifying_key()).is_ok());
    }

    #[test]
    fn truncated_encoding_rejected() {
        let bytes = sample().to_bytes();
        assert!(SignedRoot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn ca_id_display() {
        assert_eq!(CaId([0; 8]).to_string(), "0000000000000000");
    }
}
