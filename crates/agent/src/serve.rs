//! Lock-free status serving from published dictionary snapshots.
//!
//! A production RA splits into one writer (applying issuance batches and
//! freshness refreshes to its mirrors) and many readers (handshake flows
//! needing revocation statuses *now*). [`StatusServer`] is the read side:
//! it holds one [`SnapshotCell`] per mirrored CA plus the generation-keyed
//! cache of encoded `GetStatus` responses, and builds complete status payloads from
//! `&self` — so an `Arc<StatusServer>` can be handed to any number of
//! threads while the owning [`crate::ra::RevocationAgent`] keeps mutating
//! its mirrors. Writers publish a fresh [`DictionarySnapshot`] after every
//! mirror change (the RA's `mirror_mut` guard does this automatically);
//! readers pick it up on their next load without ever blocking on the
//! update itself.

use crate::cache::{CacheStats, ShardedEpochCache};
use crate::ra::StatusPayload;
use parking_lot::RwLock;
use ritm_dictionary::{
    CaId, DictionarySnapshot, MultiRevocationStatus, SerialNumber, SnapshotCell,
};
use ritm_proto::RitmResponse;
use std::collections::HashMap;
use std::sync::Arc;

/// The shared, `&self`-only proof-serving surface of an RA.
#[derive(Debug)]
pub struct StatusServer {
    cells: RwLock<HashMap<CaId, Arc<SnapshotCell>>>,
    /// Fully encoded `GetStatus` response bodies (`kind ‖ fields`),
    /// keyed by the cell's publication *generation* — not the epoch,
    /// because a freshness-only refresh changes the served bytes without
    /// advancing the epoch. A hit skips proof building, payload
    /// assembly, and encoding in one lookup.
    encoded: ShardedEpochCache<SerialNumber, Arc<[u8]>>,
}

impl Default for StatusServer {
    fn default() -> Self {
        StatusServer::new()
    }
}

impl StatusServer {
    /// Creates an empty server (no CAs published yet).
    pub fn new() -> Self {
        StatusServer {
            cells: RwLock::new(HashMap::new()),
            encoded: ShardedEpochCache::default(),
        }
    }

    /// Publishes `snapshot` as the current view of its CA (RCU swap; the
    /// cell is created on first publish). Called by the writer side after
    /// every mirror mutation. Returns `false` when the cell rejected the
    /// snapshot as older than the one it already serves (see
    /// [`SnapshotCell::publish`]) — readers keep the newer view.
    #[must_use = "a rejected (stale) publish leaves readers on the newer snapshot"]
    pub fn publish(&self, snapshot: DictionarySnapshot) -> bool {
        let ca = snapshot.ca();
        if let Some(cell) = self.cells.read().get(&ca) {
            return cell.publish(snapshot);
        }
        let mut cells = self.cells.write();
        match cells.get(&ca) {
            Some(cell) => cell.publish(snapshot),
            None => {
                cells.insert(ca, Arc::new(SnapshotCell::new(snapshot)));
                true
            }
        }
    }

    /// Republishes `ca`'s snapshot with a new signed root and freshness
    /// statement but the **same epoch and tree** (freshness-only refresh
    /// or root rotation): an `Arc` clone of the frozen tree instead of an
    /// O(n) copy. Returns `false` when the CA has no published snapshot
    /// yet, or when the cell rejected the republish as stale (a newer
    /// content snapshot landed between load and publish); the caller
    /// should fall back to a full [`StatusServer::publish`].
    pub fn publish_refresh(
        &self,
        ca: &CaId,
        signed_root: ritm_dictionary::SignedRoot,
        freshness: ritm_dictionary::FreshnessStatement,
    ) -> bool {
        let Some(cell) = self.cell(ca) else {
            return false;
        };
        let current = cell.load();
        cell.publish(current.with_root_and_freshness(signed_root, freshness))
    }

    /// Drops a CA's publication slot and purges its cached responses.
    /// Called when the RA stops mirroring the CA; also run before
    /// re-installing a fresh mirror, whose restarted generation counter
    /// would otherwise be blocked from caching by leftover
    /// higher-generation entries.
    pub fn retire(&self, ca: &CaId) {
        self.cells.write().remove(ca);
        self.encoded.purge_ca(ca);
    }

    /// The current snapshot for `ca`, if mirrored. Cheap (`Arc` clone);
    /// hold the cell via [`StatusServer::cell`] instead when polling in a
    /// tight loop.
    pub fn snapshot(&self, ca: &CaId) -> Option<Arc<DictionarySnapshot>> {
        self.cells.read().get(ca).map(|c| c.load())
    }

    /// The publication cell for `ca`, letting hot reader loops reload
    /// without the map lookup.
    pub fn cell(&self, ca: &CaId) -> Option<Arc<SnapshotCell>> {
        self.cells.read().get(ca).cloned()
    }

    /// Counter snapshot of the encoded `GetStatus` response cache.
    pub fn encoded_cache_stats(&self) -> CacheStats {
        self.encoded.stats()
    }

    /// Builds the status payload for a chain of `(issuer, serial)` pairs —
    /// the RA's one composition rule, shared by the interception lane and
    /// every `GetStatus`/`GetMultiStatus` request. Returns `None` when the
    /// chain is empty or any named CA is not mirrored (the RA then stays
    /// silent rather than injecting garbage).
    ///
    /// The **leaf (position 0) is always an individual status**, so
    /// `StatusPayload::primary_root` — what the §VIII multi-RA freshness
    /// comparison keys on — is always the leaf CA's root. Each same-CA run
    /// of two or more certificates *after the leaf* is proven with one
    /// [`MultiRevocationStatus`] (one multiproof + one root + one freshness
    /// statement) — the Fig. 7 communication-overhead optimization. Every
    /// other certificate gets an individual status, so a leaf-only chain
    /// encodes exactly like a `GetStatus` answer.
    pub fn build_status(&self, certs: &[(CaId, SerialNumber)]) -> Option<StatusPayload> {
        let ((leaf_ca, leaf), rest) = certs.split_first()?;
        let mut statuses = Vec::with_capacity(certs.len());
        let mut multi = Vec::new();
        statuses.push(self.snapshot(leaf_ca)?.status(leaf));
        // One snapshot load per CA run: every status of the run composes
        // from the same epoch.
        for run in rest.chunk_by(|a, b| a.0 == b.0) {
            let snap = self.snapshot(&run[0].0)?;
            if run.len() >= 2 {
                let serials: Vec<SerialNumber> = run.iter().map(|(_, s)| *s).collect();
                multi.push(MultiRevocationStatus {
                    proof: snap.multi_proof(&serials),
                    serials,
                    signed_root: *snap.signed_root(),
                    freshness: *snap.freshness(),
                });
            } else {
                statuses.push(snap.status(&run[0].1));
            }
        }
        Some(StatusPayload { statuses, multi })
    }

    /// The fully encoded `GetStatus` response body for `(ca, serial)` —
    /// the version-independent `kind ‖ fields` tail, shareable across
    /// every connection and both envelope versions. `None` when `ca` is
    /// not mirrored (the service then answers its usual typed error).
    ///
    /// The generation is read **before** the snapshot is loaded: a
    /// racing publish between the two can only make the cached bytes
    /// *newer* than the generation key (the next reader at the advanced
    /// generation misses and re-encodes), never leave stale bytes served
    /// under a current key.
    pub fn encoded_status(&self, ca: &CaId, serial: &SerialNumber) -> Option<Arc<[u8]>> {
        let cell = self.cell(ca)?;
        let generation = cell.generation();
        let snap = cell.load();
        Some(self.encoded.get_or_insert(*ca, *serial, generation, || {
            RitmResponse::Status(StatusPayload::single(vec![snap.status(serial)])).to_shared_body()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{CaDictionary, MirrorDictionary};

    const T0: u64 = 1_000_000;

    fn setup(n: u32) -> (CaDictionary, MirrorDictionary) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut ca = CaDictionary::new(
            CaId::from_name("ServeCA"),
            SigningKey::from_seed([1u8; 32]),
            10,
            64,
            &mut rng,
            T0,
        );
        let mut m = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        m.set_delta(10);
        let serials: Vec<SerialNumber> = (0..n).map(|i| SerialNumber::from_u24(i * 2)).collect();
        let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
        m.apply_issuance(&iss, T0 + 1).unwrap();
        (ca, m)
    }

    #[test]
    fn repeated_builds_compose_equal_statuses() {
        let (ca, m) = setup(20);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let serial = SerialNumber::from_u24(4);
        let first = server.snapshot(&ca.ca()).unwrap().status(&serial);
        let second = server.snapshot(&ca.ca()).unwrap().status(&serial);
        assert_eq!(first, second);
        assert!(first
            .validate(&serial, &ca.verifying_key(), 10, T0 + 2)
            .unwrap()
            .is_revoked());
    }

    #[test]
    fn compressed_chain_keeps_leaf_individual() {
        let (ca, m) = setup(50);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let chain: Vec<(CaId, SerialNumber)> = [1u32, 21, 41]
            .iter()
            .map(|&v| (ca.ca(), SerialNumber::from_u24(v)))
            .collect();
        let payload = server.build_status(&chain).unwrap();
        // Leaf stays individual (primary_root = leaf CA's root); the rest
        // of the same-CA run compresses into one entry.
        assert_eq!(payload.statuses.len(), 1);
        assert_eq!(payload.multi.len(), 1);
        assert_eq!(payload.multi[0].serials.len(), 2);
        assert_eq!(
            payload.primary_root().unwrap(),
            &payload.statuses[0].signed_root
        );
        let statuses = payload.multi[0]
            .validate(&ca.verifying_key(), 10, T0 + 2)
            .unwrap();
        assert!(statuses.iter().all(|s| !s.is_revoked()));

        // A second build must compose an identical payload.
        let again = server.build_status(&chain).unwrap();
        assert_eq!(again, payload);

        // A run of one past the leaf stays individual.
        let pair = server.build_status(&chain[..2]).unwrap();
        assert_eq!(pair.statuses.len(), 2);
        assert!(pair.multi.is_empty());
    }

    #[test]
    fn encoded_statuses_cache_by_generation_and_refresh_invalidates() {
        let (ca, m) = setup(20);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let serial = SerialNumber::from_u24(4);
        let first = server.encoded_status(&ca.ca(), &serial).unwrap();
        let second = server.encoded_status(&ca.ca(), &serial).unwrap();
        // Same generation: the very same shared allocation is served.
        assert!(Arc::ptr_eq(&first, &second));
        let stats = server.encoded_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The cached bytes are exactly the response the build path
        // would encode.
        let built = RitmResponse::Status(server.build_status(&[(ca.ca(), serial)]).unwrap());
        assert_eq!(&first[..], &built.to_shared_body()[..]);

        // A freshness-only refresh changes the served bytes without
        // advancing the epoch — the generation key must still
        // invalidate the encoded entry.
        let snap = server.snapshot(&ca.ca()).unwrap();
        let fresher = ritm_dictionary::FreshnessStatement::new(
            ritm_crypto::digest::Digest20::hash(b"next period preimage"),
        );
        assert!(server.publish_refresh(&ca.ca(), *snap.signed_root(), fresher));
        let after = server.encoded_status(&ca.ca(), &serial).unwrap();
        assert_ne!(&first[..], &after[..], "refresh must re-encode");
    }

    #[test]
    fn unknown_ca_stays_silent() {
        let (_, m) = setup(4);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let other = CaId::from_name("NotMirrored");
        assert!(server
            .build_status(&[(other, SerialNumber::from_u24(1))])
            .is_none());
        assert!(server.build_status(&[]).is_none());
    }
}
