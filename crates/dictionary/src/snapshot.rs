//! Immutable, epoch-stamped dictionary snapshots for lock-free proof
//! serving.
//!
//! A production RA serves revocation proofs to many concurrent handshake
//! flows while a background thread applies issuance batches and freshness
//! refreshes. Serving everything through `&mut` serializes readers behind
//! writers; instead, the writer freezes a [`DictionarySnapshot`] — the
//! mirror's tree, signed root, and freshness statement at one epoch — *off
//! to the side* and publishes it (the RA's status server holds one per
//! CA). Readers generate any number of proofs from an `Arc`-shared
//! snapshot with plain `&self`, never blocking the writer or each other; a
//! snapshot stays alive until its last reader drops it.

use crate::dictionary::RevocationStatus;
use crate::freshness::FreshnessStatement;
use crate::persistent::PersistentTree;
use crate::proof::{MultiProof, RevocationProof};
use crate::root::{CaId, SignedRoot};
use crate::serial::SerialNumber;
use crate::tree::TreeReader;
use ritm_crypto::ed25519::VerifyingKey;

/// A frozen, self-consistent view of one mirrored dictionary.
///
/// Everything needed to serve a complete revocation status — tree, signed
/// root, freshness statement — is captured together, so a status composed
/// from one snapshot always verifies against its own root.
#[derive(Debug, Clone)]
pub struct DictionarySnapshot {
    ca: CaId,
    /// The CA key the mirror pinned: what its roots were verified under.
    ca_key: VerifyingKey,
    epoch: u64,
    /// Structurally shared with the mirror it was frozen from: cloning a
    /// [`PersistentTree`] bumps one `Arc` per chunk, so publication costs
    /// O(chunks) regardless of dictionary size, and republications share
    /// every chunk the writer has not dirtied since. That includes the
    /// tree's serial log: a batch appended after the publish copies the
    /// chunks it writes, so the snapshot keeps its serials.
    tree: PersistentTree,
    signed_root: SignedRoot,
    freshness: FreshnessStatement,
}

impl DictionarySnapshot {
    /// Freezes the given state. The tree must be proof-ready.
    pub fn new(
        ca: CaId,
        ca_key: VerifyingKey,
        epoch: u64,
        tree: PersistentTree,
        signed_root: SignedRoot,
        freshness: FreshnessStatement,
    ) -> Self {
        DictionarySnapshot {
            ca,
            ca_key,
            epoch,
            tree,
            signed_root,
            freshness,
        }
    }

    /// The CA whose dictionary this snapshot freezes.
    pub fn ca(&self) -> CaId {
        self.ca
    }

    /// The CA key the mirror pinned, which verified every root it holds.
    pub fn ca_key(&self) -> &VerifyingKey {
        &self.ca_key
    }

    /// The content epoch this snapshot was taken at. Proofs generated from
    /// the snapshot are valid exactly for this epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The signed root the snapshot's proofs commit to.
    pub fn signed_root(&self) -> &SignedRoot {
        &self.signed_root
    }

    /// The freshness statement captured with the root.
    pub fn freshness(&self) -> &FreshnessStatement {
        &self.freshness
    }

    /// Revocations in the snapshot.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when the snapshot holds no revocations.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Whether `serial` is revoked in this snapshot.
    pub fn contains(&self, serial: &SerialNumber) -> bool {
        self.tree.find(serial).is_some()
    }

    /// Generates the bare proof for `serial` (`&self`; any
    /// number of threads may prove concurrently).
    pub fn proof(&self, serial: &SerialNumber) -> RevocationProof {
        RevocationProof::generate(&self.tree, serial)
    }

    /// Generates a compressed [`MultiProof`] for a set of serials.
    pub fn multi_proof(&self, serials: &[SerialNumber]) -> MultiProof {
        MultiProof::generate(&self.tree, serials)
    }

    /// Builds the full revocation status (Eq. 3) for `serial` from this
    /// snapshot's root and freshness.
    pub fn status(&self, serial: &SerialNumber) -> RevocationStatus {
        RevocationStatus {
            proof: self.proof(serial),
            signed_root: self.signed_root,
            freshness: self.freshness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::{CaDictionary, MirrorDictionary};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_crypto::ed25519::SigningKey;

    const T0: u64 = 1_000_000;

    fn mirror_with(n: u32) -> (CaDictionary, MirrorDictionary) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ca = CaDictionary::new(
            CaId::from_name("SnapCA"),
            SigningKey::from_seed([1u8; 32]),
            10,
            64,
            &mut rng,
            T0,
        );
        let mut m = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        m.set_delta(10);
        let serials: Vec<SerialNumber> = (0..n).map(SerialNumber::from_u24).collect();
        let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
        m.apply_issuance(&iss, T0 + 1).unwrap();
        (ca, m)
    }

    #[test]
    fn snapshot_serves_consistent_statuses() {
        let (ca, m) = mirror_with(10);
        let snap = m.snapshot();
        assert_eq!(snap.epoch(), m.epoch());
        assert_eq!(snap.len(), 10);
        let status = snap.status(&SerialNumber::from_u24(3));
        let outcome = status
            .validate(&SerialNumber::from_u24(3), &ca.verifying_key(), 10, T0 + 2)
            .unwrap();
        assert!(outcome.is_revoked());
    }

    #[test]
    fn old_snapshot_survives_publish() {
        // A published snapshot keeps serving its epoch however far the
        // mirror it was frozen from moves on: the batch copies the chunks
        // it writes instead of writing through the shared ones.
        let (mut ca, mut m) = mirror_with(5);
        let old = m.snapshot();

        let mut rng = StdRng::seed_from_u64(6);
        let iss = ca
            .insert(&[SerialNumber::from_u24(99)], &mut rng, T0 + 2)
            .unwrap();
        m.apply_issuance(&iss, T0 + 2).unwrap();

        let new = m.snapshot();
        assert!(new.epoch() > old.epoch());
        assert_eq!(old.len(), 5, "retained snapshot still serves its epoch");
        assert_eq!(new.len(), 6);
        assert!(!old.contains(&SerialNumber::from_u24(99)));
        // The old snapshot's proofs still verify against the old root.
        let s = SerialNumber::from_u24(2);
        let implied = old.proof(&s);
        assert!(implied
            .verify(&s, &old.signed_root().root, old.signed_root().size)
            .is_ok());
    }
}
