//! Lock-free status serving from published dictionary snapshots.
//!
//! A production RA splits into one writer (applying issuance batches and
//! freshness refreshes to its mirrors) and many readers (handshake flows
//! needing revocation statuses *now*). [`StatusServer`] is the read side:
//! it holds one [`SnapshotCell`] per mirrored CA plus the generation-keyed
//! caches of encoded responses, and builds complete status payloads from
//! `&self` — so an `Arc<StatusServer>` can be handed to any number of
//! threads while the owning [`crate::ra::RevocationAgent`] keeps mutating
//! its mirrors. Writers publish a fresh [`DictionarySnapshot`] after every
//! mirror change (the RA's `mirror_mut` guard does this automatically);
//! readers pick it up on their next load without ever blocking on the
//! update itself.

use crate::cache::{CacheStats, EpochKeyedCache, ShardedEpochCache};
use crate::ra::StatusPayload;
use parking_lot::RwLock;
use ritm_dictionary::{
    CaId, DictionarySnapshot, MultiRevocationStatus, RevocationStatus, SerialNumber, SnapshotCell,
};
use ritm_proto::RitmResponse;
use std::collections::HashMap;
use std::sync::Arc;

/// Bound on cached chain responses (distinct hot chains are few — bounded
/// by the server-certificate working set, not by flows).
const ENCODED_MULTI_CAPACITY: usize = 1_024;

/// Cache key for an encoded multi-status body: the exact chain asked
/// for, plus whether compression was requested (the two produce
/// different bytes).
type EncodedMultiKey = (Vec<(CaId, SerialNumber)>, bool);

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
    /// Encoded `GetMultiStatus` bodies for single-CA chains, keyed by
    /// `(chain, compress)` under the same generation policy. Multi-CA
    /// chains are never cached here: the key's generation belongs to one
    /// cell, and another CA's republish would not invalidate it.
    encoded_multi: EpochKeyedCache<EncodedMultiKey, Arc<[u8]>>,
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
            encoded_multi: EpochKeyedCache::new(ENCODED_MULTI_CAPACITY),
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
        self.encoded_multi.purge_ca(ca);
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

    /// Counter snapshot of the encoded single-status response cache.
    pub fn encoded_cache_stats(&self) -> CacheStats {
        self.encoded.stats()
    }

    /// Counter snapshot of the encoded chain-status response cache.
    pub fn encoded_multi_cache_stats(&self) -> CacheStats {
        self.encoded_multi.stats()
    }

    /// Builds one full status for `serial`. The proof, signed root and
    /// freshness all come from one snapshot, so the composed status always
    /// verifies against its own root.
    pub fn status_for(&self, ca: &CaId, serial: &SerialNumber) -> Option<RevocationStatus> {
        let snap = self.snapshot(ca)?;
        Some(snap.status(serial))
    }

    /// Builds the status payload for a chain of `(issuer, serial)` pairs.
    /// Returns `None` when any named CA is not mirrored (the RA then stays
    /// silent rather than injecting garbage).
    ///
    /// The **leaf (position 0) is always an individual status**, so
    /// `StatusPayload::primary_root` — what the §VIII multi-RA freshness
    /// comparison keys on — is always the leaf CA's root regardless of
    /// compression. With `compress` set, consecutive same-CA runs of two
    /// or more certificates *after the leaf* are proven with one
    /// compressed [`MultiRevocationStatus`] (one multiproof + one
    /// root + one freshness statement) instead of independent statuses —
    /// the Fig. 7 communication-overhead optimization. Single certificates
    /// and CA-alternating chains fall back to individual statuses, keeping
    /// the wire format identical to the uncompressed path for the common
    /// leaf-only case.
    pub fn build_status(
        &self,
        certs: &[(CaId, SerialNumber)],
        compress: bool,
    ) -> Option<StatusPayload> {
        if certs.is_empty() {
            return None;
        }
        let mut statuses = Vec::with_capacity(certs.len());
        let mut multi: Vec<MultiRevocationStatus> = Vec::new();
        // Leaf first, uncompressed: primary_root() must name the leaf CA.
        statuses.push(self.status_for(&certs[0].0, &certs[0].1)?);
        let mut i = 1;
        while i < certs.len() {
            let (ca, _) = certs[i];
            let mut run = i + 1;
            while run < certs.len() && certs[run].0 == ca {
                run += 1;
            }
            // One snapshot load per CA run: every status of the run
            // composes from the same epoch.
            let snap = self.snapshot(&ca)?;
            if compress && run - i >= 2 {
                let serials: Vec<SerialNumber> = certs[i..run].iter().map(|(_, s)| *s).collect();
                multi.push(multi_status_from(&snap, serials));
            } else {
                for (_, serial) in &certs[i..run] {
                    statuses.push(snap.status(serial));
                }
            }
            i = run;
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

    /// The fully encoded `GetMultiStatus` response body for a single-CA
    /// `chain` (leaf individual, the rest compressed per `compress` —
    /// byte-identical to [`StatusServer::build_status`]'s payload).
    /// `None` for empty chains, chains spanning more than one CA (their
    /// bytes cannot be invalidated by one cell's generation), or an
    /// unmirrored CA.
    pub fn encoded_multi_status(
        &self,
        chain: &[(CaId, SerialNumber)],
        compress: bool,
    ) -> Option<Arc<[u8]>> {
        let (first_ca, _) = chain.first()?;
        if chain.iter().any(|(ca, _)| ca != first_ca) {
            return None;
        }
        let cell = self.cell(first_ca)?;
        let generation = cell.generation();
        let snap = cell.load();
        Some(self.encoded_multi.get_or_insert(
            *first_ca,
            (chain.to_vec(), compress),
            generation,
            || RitmResponse::Status(single_ca_payload(&snap, chain, compress)).to_shared_body(),
        ))
    }
}

/// One compressed status for a same-CA serial run: proof, signed root and
/// freshness all from `snap`, like [`DictionarySnapshot::status`].
fn multi_status_from(
    snap: &DictionarySnapshot,
    serials: Vec<SerialNumber>,
) -> MultiRevocationStatus {
    MultiRevocationStatus {
        proof: snap.multi_proof(&serials),
        serials,
        signed_root: *snap.signed_root(),
        freshness: *snap.freshness(),
    }
}

/// [`StatusServer::build_status`] specialized to a one-CA chain over one
/// already-loaded snapshot: the leaf stays individual; the rest of the chain
/// is one compressed run (when `compress` and it has ≥2 certificates) or
/// individual statuses, all composed from the same snapshot.
fn single_ca_payload(
    snap: &DictionarySnapshot,
    chain: &[(CaId, SerialNumber)],
    compress: bool,
) -> StatusPayload {
    let mut statuses = Vec::with_capacity(chain.len());
    let mut multi = Vec::new();
    statuses.push(snap.status(&chain[0].1));
    let rest = &chain[1..];
    if compress && rest.len() >= 2 {
        let serials: Vec<SerialNumber> = rest.iter().map(|(_, s)| *s).collect();
        multi.push(multi_status_from(snap, serials));
    } else {
        for (_, serial) in rest {
            statuses.push(snap.status(serial));
        }
    }
    StatusPayload { statuses, multi }
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
        let first = server.status_for(&ca.ca(), &serial).unwrap();
        let second = server.status_for(&ca.ca(), &serial).unwrap();
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
        let payload = server.build_status(&chain, true).unwrap();
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
        let again = server.build_status(&chain, true).unwrap();
        assert_eq!(again, payload);

        // Uncompressed fallback keeps the classic shape.
        let plain = server.build_status(&chain, false).unwrap();
        assert_eq!(plain.statuses.len(), 3);
        assert!(plain.multi.is_empty());
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
        let built = RitmResponse::Status(StatusPayload::single(vec![server
            .status_for(&ca.ca(), &serial)
            .unwrap()]));
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
    fn encoded_multi_status_matches_build_status_and_skips_multi_ca() {
        let (ca, m) = setup(50);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let chain: Vec<(CaId, SerialNumber)> = [1u32, 21, 41]
            .iter()
            .map(|&v| (ca.ca(), SerialNumber::from_u24(v)))
            .collect();
        let encoded = server.encoded_multi_status(&chain, true).unwrap();
        let built = RitmResponse::Status(server.build_status(&chain, true).unwrap());
        assert_eq!(&encoded[..], &built.to_shared_body()[..]);
        // Uncompressed variant caches under its own key.
        let plain = server.encoded_multi_status(&chain, false).unwrap();
        let built_plain = RitmResponse::Status(server.build_status(&chain, false).unwrap());
        assert_eq!(&plain[..], &built_plain.to_shared_body()[..]);
        // A chain spanning two CAs is never cached: one cell's
        // generation could not invalidate the other CA's bytes.
        let mut mixed = chain.clone();
        mixed.push((CaId::from_name("OtherCA"), SerialNumber::from_u24(1)));
        assert!(server.encoded_multi_status(&mixed, true).is_none());
        assert!(server.encoded_multi_status(&[], true).is_none());
    }

    #[test]
    fn unknown_ca_stays_silent() {
        let (_, m) = setup(4);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let other = CaId::from_name("NotMirrored");
        assert!(server
            .build_status(&[(other, SerialNumber::from_u24(1))], true)
            .is_none());
    }
}
