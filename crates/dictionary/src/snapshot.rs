//! Immutable, epoch-stamped dictionary snapshots for lock-free proof
//! serving.
//!
//! A production RA serves revocation proofs to many concurrent handshake
//! flows while a background thread applies issuance batches and freshness
//! refreshes. Serving everything through `&mut` serializes readers behind
//! writers; instead, the writer builds a [`DictionarySnapshot`] — a frozen
//! copy of the mirror's tree, signed root, and freshness statement at one
//! epoch — *off to the side* and publishes it into a [`SnapshotCell`] with
//! an RCU-style pointer swap. Readers `load()` an `Arc` to the current
//! snapshot and generate any number of proofs from plain `&self` without
//! ever blocking the writer (or each other); a snapshot stays alive until
//! its last reader drops it.
//!
//! The cell's hot path is an `Arc` clone under an uncontended read lock —
//! a single atomic acquire — and writers hold the write lock only for the
//! pointer swap itself, never while building the next snapshot.

use crate::dictionary::RevocationStatus;
use crate::freshness::FreshnessStatement;
use crate::persistent::PersistentTree;
use crate::proof::{MultiProof, RevocationProof};
use crate::root::{CaId, SignedRoot};
use crate::serial::SerialNumber;
use parking_lot::RwLock;
use std::sync::Arc;

/// A frozen, self-consistent view of one mirrored dictionary.
///
/// Everything needed to serve a complete revocation status — tree, signed
/// root, freshness statement — is captured together, so a status composed
/// from one snapshot always verifies against its own root.
#[derive(Debug, Clone)]
pub struct DictionarySnapshot {
    ca: CaId,
    epoch: u64,
    /// Structurally shared with the mirror it was frozen from: cloning a
    /// [`PersistentTree`] bumps one `Arc` per chunk, so publication costs
    /// O(chunks) regardless of dictionary size, and republications share
    /// every chunk the writer has not dirtied since.
    tree: PersistentTree,
    signed_root: SignedRoot,
    freshness: FreshnessStatement,
}

impl DictionarySnapshot {
    /// Freezes the given state. The tree must be proof-ready.
    pub fn new(
        ca: CaId,
        epoch: u64,
        tree: PersistentTree,
        signed_root: SignedRoot,
        freshness: FreshnessStatement,
    ) -> Self {
        DictionarySnapshot {
            ca,
            epoch,
            tree,
            signed_root,
            freshness,
        }
    }

    /// A snapshot at the **same epoch** with a new signed root and
    /// freshness statement, sharing this snapshot's frozen tree (chunk
    /// `Arc` bumps, not a copy). This is the cheap republish for
    /// freshness-only refreshes and root rotations, where the dictionary
    /// content — and therefore every audit path — is unchanged.
    pub fn with_root_and_freshness(
        &self,
        signed_root: SignedRoot,
        freshness: FreshnessStatement,
    ) -> Self {
        DictionarySnapshot {
            ca: self.ca,
            epoch: self.epoch,
            tree: self.tree.clone(),
            signed_root,
            freshness,
        }
    }

    /// The CA whose dictionary this snapshot freezes.
    pub fn ca(&self) -> CaId {
        self.ca
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

    /// Generates the bare audit-path proof for `serial` (`&self`; any
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

/// An RCU-style publication slot for the current snapshot of one mirror.
///
/// Writers [`publish`] a fully-built snapshot; readers [`load`] the current
/// one. Neither ever waits on proof generation or tree application — the
/// write lock guards only the pointer swap.
///
/// [`publish`]: SnapshotCell::publish
/// [`load`]: SnapshotCell::load
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<DictionarySnapshot>>,
    /// Count of accepted publishes, bumped *after* each swap. Unlike the
    /// epoch, this advances on same-epoch refreshes too, so it keys
    /// anything derived from the snapshot's *bytes* (signed root,
    /// freshness) rather than its content — encoded-response caches in
    /// particular. Reading the generation *before* `load()` guarantees
    /// the loaded snapshot is at least as new as the generation says.
    generation: std::sync::atomic::AtomicU64,
}

impl SnapshotCell {
    /// Creates a cell holding `snapshot`.
    pub fn new(snapshot: DictionarySnapshot) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(snapshot)),
            generation: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone); the returned snapshot
    /// stays valid however many swaps happen afterwards.
    pub fn load(&self) -> Arc<DictionarySnapshot> {
        self.current.read().clone()
    }

    /// The publication generation: how many publishes (including
    /// same-epoch freshness refreshes) this cell has accepted. A cache
    /// keyed on `(ca, generation)` is invalidated by *every* publish —
    /// the right key for cached response bytes, which embed the signed
    /// root and freshness that a refresh changes without advancing the
    /// epoch.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Atomically replaces the current snapshot, **epoch-guarded**: a
    /// snapshot older than the current one is rejected (returns `false`),
    /// so a delayed freshness-only republish built from a stale load can
    /// never clobber a newer-epoch content snapshot and re-serve a
    /// pre-batch root. Same-epoch publishes replace (that is how refreshes
    /// and root rotations propagate). The old snapshot is freed when its
    /// last reader drops it (classic RCU grace period via `Arc`).
    #[must_use = "a rejected (stale) publish leaves readers on the newer snapshot"]
    pub fn publish(&self, snapshot: DictionarySnapshot) -> bool {
        let next = Arc::new(snapshot);
        let mut current = self.current.write();
        if next.epoch() < current.epoch() {
            return false;
        }
        *current = next;
        // Bump only after the swap (still under the write lock): a reader
        // that observes generation g and then loads can never get a
        // snapshot older than the one publish g installed.
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::Release);
        true
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
        let (mut ca, mut m) = mirror_with(5);
        let cell = SnapshotCell::new(m.snapshot());
        let old = cell.load();

        // Writer advances the mirror and publishes the new epoch.
        let mut rng = StdRng::seed_from_u64(6);
        let iss = ca
            .insert(&[SerialNumber::from_u24(99)], &mut rng, T0 + 2)
            .unwrap();
        m.apply_issuance(&iss, T0 + 2).unwrap();
        assert!(cell.publish(m.snapshot()));

        let new = cell.load();
        assert!(new.epoch() > old.epoch());
        assert_eq!(old.len(), 5, "retained snapshot still serves its epoch");
        assert_eq!(new.len(), 6);
        // The old snapshot's proofs still verify against the old root.
        let s = SerialNumber::from_u24(2);
        let implied = old.proof(&s);
        assert!(implied
            .verify(&s, &old.signed_root().root, old.signed_root().size)
            .is_ok());
    }

    #[test]
    fn stale_refresh_republish_cannot_clobber_newer_content() {
        // Regression: a freshness-only republish built from an *older*
        // loaded snapshot used to blindly swap in, re-serving a pre-batch
        // root inside the 2Δ window. The publish is now epoch-guarded.
        let (mut ca, mut m) = mirror_with(5);
        let cell = SnapshotCell::new(m.snapshot());

        // A refresher thread loads the current snapshot... and stalls.
        let stale_load = cell.load();

        // Meanwhile a content batch lands and is published.
        let mut rng = StdRng::seed_from_u64(8);
        let iss = ca
            .insert(&[SerialNumber::from_u24(77)], &mut rng, T0 + 2)
            .unwrap();
        m.apply_issuance(&iss, T0 + 2).unwrap();
        assert!(cell.publish(m.snapshot()));
        let content = cell.load();
        assert!(content.contains(&SerialNumber::from_u24(77)));

        // The stalled refresher wakes up and republishes from its stale
        // load: the cell must reject it, and readers must never regress.
        let stale_republish =
            stale_load.with_root_and_freshness(*stale_load.signed_root(), *stale_load.freshness());
        assert!(!cell.publish(stale_republish), "stale republish rejected");
        let now = cell.load();
        assert_eq!(now.epoch(), content.epoch(), "epoch must not regress");
        assert_eq!(now.signed_root(), content.signed_root());
        assert!(now.contains(&SerialNumber::from_u24(77)));

        // A same-epoch republish (genuine refresh of the *current* view)
        // still replaces.
        let refreshed = now.with_root_and_freshness(*now.signed_root(), *m.freshness());
        assert!(cell.publish(refreshed));
        assert_eq!(cell.load().epoch(), content.epoch());
    }

    #[test]
    fn generation_advances_on_every_accepted_publish_including_refreshes() {
        let (mut ca, mut m) = mirror_with(3);
        let cell = SnapshotCell::new(m.snapshot());
        assert_eq!(cell.generation(), 0);

        // Content publish: epoch and generation both advance.
        let mut rng = StdRng::seed_from_u64(9);
        let iss = ca
            .insert(&[SerialNumber::from_u24(50)], &mut rng, T0 + 2)
            .unwrap();
        m.apply_issuance(&iss, T0 + 2).unwrap();
        assert!(cell.publish(m.snapshot()));
        assert_eq!(cell.generation(), 1);

        // Freshness-only refresh: the epoch stays put, but the served
        // bytes change — the generation must advance so byte-level caches
        // are invalidated.
        let cur = cell.load();
        let refreshed = cur.with_root_and_freshness(*cur.signed_root(), *m.freshness());
        assert_eq!(refreshed.epoch(), cur.epoch());
        assert!(cell.publish(refreshed));
        assert_eq!(cell.generation(), 2);

        // A rejected (stale) publish changes nothing, so caches keyed on
        // the generation keep serving the newer bytes.
        let stale = DictionarySnapshot::new(
            cur.ca(),
            0,
            // A stale tree from before the batch.
            cell.load().tree.clone(),
            *cur.signed_root(),
            *cur.freshness(),
        );
        assert!(!cell.publish(stale));
        assert_eq!(cell.generation(), 2);
    }
}
