//! Consistency checking and CA-misbehavior detection (paper §III
//! "Consistency Checking" and §V "Misbehaving CA").
//!
//! Dictionaries are append-only with consecutively numbered revocations, so
//! a misbehaving CA that shows different dictionary versions to different
//! parties must eventually produce **two validly-signed roots with the same
//! size but different root hashes** — a compact, transferable proof of
//! equivocation. [`RootObservatory`] collects the signed roots a party has
//! seen (from edge servers, other RAs, or gossiping clients) and surfaces
//! such proofs.

use crate::root::{CaId, SignedRoot};
use ritm_crypto::ed25519::VerifyingKey;
use std::collections::BTreeMap;

/// Cryptographic proof that a CA equivocated: two roots, same `n`,
/// different content, both validly signed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivocationProof {
    /// First conflicting signed root.
    pub first: SignedRoot,
    /// Second conflicting signed root.
    pub second: SignedRoot,
}

impl EquivocationProof {
    /// Attempts to build a proof from two observed roots.
    ///
    /// Returns `None` unless the two roots genuinely conflict (same CA, same
    /// size, different root hash) and both signatures verify under `key`.
    pub fn build(a: SignedRoot, b: SignedRoot, key: &VerifyingKey) -> Option<Self> {
        if a.ca != b.ca || a.size != b.size || a.root == b.root {
            return None;
        }
        a.verify(key).ok()?;
        b.verify(key).ok()?;
        Some(EquivocationProof {
            first: a,
            second: b,
        })
    }

    /// Re-verifies the proof (e.g. by a software vendor receiving a report).
    pub fn verify(&self, key: &VerifyingKey) -> bool {
        self.first.ca == self.second.ca
            && self.first.size == self.second.size
            && self.first.root != self.second.root
            && self.first.verify(key).is_ok()
            && self.second.verify(key).is_ok()
    }

    /// The misbehaving CA.
    pub fn ca(&self) -> CaId {
        self.first.ca
    }
}

/// Outcome of feeding one observation to a [`RootObservatory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// The root is consistent with everything seen so far.
    Consistent,
    /// First time this `(ca, size)` pair is seen.
    New,
    /// The root conflicts with an earlier observation — misbehavior proven.
    Equivocation(Box<EquivocationProof>),
    /// Signature did not verify; the message is discarded (not proof of CA
    /// misbehavior — anyone can fabricate a bad signature).
    BadSignature,
}

/// Collects signed roots per CA and detects equivocation.
///
/// # Examples
///
/// ```
/// use ritm_dictionary::consistency::{Observation, RootObservatory};
/// use ritm_dictionary::{CaId, SignedRoot};
/// use ritm_crypto::{digest::Digest20, SigningKey};
///
/// let key = SigningKey::from_seed([1u8; 32]);
/// let ca = CaId::from_name("CA");
/// let mut obs = RootObservatory::new();
/// obs.register_ca(ca, key.verifying_key());
/// let r = SignedRoot::create(&key, ca, Digest20::hash(b"v1"), 5, Digest20::hash(b"a"), 100);
/// assert_eq!(obs.observe(r), Observation::New);
/// assert_eq!(obs.observe(r), Observation::Consistent);
/// ```
#[derive(Debug, Default)]
pub struct RootObservatory {
    keys: BTreeMap<CaId, VerifyingKey>,
    /// Latest observed root per (CA, size).
    seen: BTreeMap<(CaId, u64), SignedRoot>,
    proofs: Vec<EquivocationProof>,
}

impl RootObservatory {
    /// Creates an empty observatory.
    pub fn new() -> Self {
        RootObservatory::default()
    }

    /// Registers the trusted key for a CA; observations for unknown CAs are
    /// rejected as [`Observation::BadSignature`].
    pub fn register_ca(&mut self, ca: CaId, key: VerifyingKey) {
        self.keys.insert(ca, key);
    }

    /// Feeds one signed root (obtained from an edge server, a peer RA, or a
    /// client gossip message) into the observatory.
    pub fn observe(&mut self, root: SignedRoot) -> Observation {
        let Some(key) = self.keys.get(&root.ca) else {
            return Observation::BadSignature;
        };
        if root.verify(key).is_err() {
            return Observation::BadSignature;
        }
        match self.seen.get(&(root.ca, root.size)) {
            None => {
                self.seen.insert((root.ca, root.size), root);
                Observation::New
            }
            Some(prev) if prev.root == root.root => Observation::Consistent,
            Some(prev) => {
                let proof = EquivocationProof::build(*prev, root, key)
                    .expect("both roots verified and conflict");
                self.proofs.push(proof);
                Observation::Equivocation(Box::new(proof))
            }
        }
    }

    /// All equivocation proofs collected so far.
    pub fn proofs(&self) -> &[EquivocationProof] {
        &self.proofs
    }

    /// The latest (largest-size) root observed for `ca`, if any.
    pub fn latest(&self, ca: CaId) -> Option<&SignedRoot> {
        self.seen
            .range((ca, 0)..=(ca, u64::MAX))
            .next_back()
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritm_crypto::digest::Digest20;
    use ritm_crypto::ed25519::SigningKey;

    fn key() -> SigningKey {
        SigningKey::from_seed([8u8; 32])
    }

    fn root_with(content: &[u8], size: u64) -> SignedRoot {
        SignedRoot::create(
            &key(),
            CaId::from_name("CA"),
            Digest20::hash(content),
            size,
            Digest20::hash(b"anchor"),
            1_000,
        )
    }

    #[test]
    fn equivocation_detected() {
        let mut obs = RootObservatory::new();
        obs.register_ca(CaId::from_name("CA"), key().verifying_key());
        assert_eq!(obs.observe(root_with(b"v1", 5)), Observation::New);
        match obs.observe(root_with(b"v2", 5)) {
            Observation::Equivocation(p) => {
                assert!(p.verify(&key().verifying_key()));
                assert_eq!(p.ca(), CaId::from_name("CA"));
            }
            other => panic!("expected equivocation, got {other:?}"),
        }
        assert_eq!(obs.proofs().len(), 1);
    }

    #[test]
    fn different_sizes_are_not_equivocation() {
        let mut obs = RootObservatory::new();
        obs.register_ca(CaId::from_name("CA"), key().verifying_key());
        assert_eq!(obs.observe(root_with(b"v1", 5)), Observation::New);
        assert_eq!(obs.observe(root_with(b"v2", 6)), Observation::New);
        assert!(obs.proofs().is_empty());
    }

    #[test]
    fn same_root_is_consistent() {
        let mut obs = RootObservatory::new();
        obs.register_ca(CaId::from_name("CA"), key().verifying_key());
        let r = root_with(b"v1", 5);
        assert_eq!(obs.observe(r), Observation::New);
        assert_eq!(obs.observe(r), Observation::Consistent);
    }

    #[test]
    fn unknown_ca_rejected() {
        let mut obs = RootObservatory::new();
        assert_eq!(obs.observe(root_with(b"v1", 5)), Observation::BadSignature);
    }

    #[test]
    fn forged_root_rejected_without_proof() {
        let mut obs = RootObservatory::new();
        obs.register_ca(CaId::from_name("CA"), key().verifying_key());
        let mut forged = root_with(b"v1", 5);
        forged.root = Digest20::hash(b"tampered");
        assert_eq!(obs.observe(forged), Observation::BadSignature);
        assert!(obs.proofs().is_empty());
    }

    #[test]
    fn proof_build_requires_conflict() {
        let k = key().verifying_key();
        let a = root_with(b"v1", 5);
        assert!(EquivocationProof::build(a, a, &k).is_none());
        let b = root_with(b"v1", 6);
        assert!(EquivocationProof::build(a, b, &k).is_none());
        let c = root_with(b"v2", 5);
        assert!(EquivocationProof::build(a, c, &k).is_some());
    }

    #[test]
    fn latest_returns_largest_size() {
        let mut obs = RootObservatory::new();
        obs.register_ca(CaId::from_name("CA"), key().verifying_key());
        obs.observe(root_with(b"a", 3));
        obs.observe(root_with(b"b", 9));
        obs.observe(root_with(b"c", 6));
        assert_eq!(obs.latest(CaId::from_name("CA")).unwrap().size, 9);
        assert!(obs.latest(CaId::from_name("Other")).is_none());
    }
}
