//! Lock-free status serving from published dictionary snapshots.
//!
//! A production RA splits into one writer (applying issuance batches and
//! freshness refreshes to its mirrors) and many readers (handshake flows
//! needing revocation statuses *now*). [`StatusServer`] is the read side:
//! it holds one publication per mirrored CA — the CA's current
//! [`DictionarySnapshot`] together with the `GetStatus` bodies encoded from
//! exactly that snapshot — and builds complete status payloads from
//! `&self`, so an `Arc<StatusServer>` can be handed to any number of
//! threads while the owning [`crate::ra::RevocationAgent`] keeps mutating
//! its mirrors. The writer publishes a fresh snapshot after every mirror
//! change (the RA's `mirror_mut` guard does this on drop); a publish
//! replaces the snapshot and empties its bodies in one swap, so no body
//! outlives the snapshot it was encoded from, and readers pick the new
//! snapshot up on their next lookup without ever blocking on the update
//! itself.

use crate::ra::StatusPayload;
use parking_lot::RwLock;
use ritm_dictionary::{CaId, DictionarySnapshot, MultiRevocationStatus, SerialNumber};
use ritm_proto::RitmResponse;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Bound on the encoded bodies held across every CA (an encoded status is
/// a few hundred bytes, so this tops out around a few MB). A miss past it
/// is served uncached.
const MAX_CACHED_BODIES: usize = 16_384;

/// Hit/miss counters of the encoded `GetStatus` bodies, surfaced through
/// the RA health report (`ritm_agent::monitor`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Bodies served as cached.
    pub hits: u64,
    /// Bodies encoded because the CA's current publication held none.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One CA's publication: its current snapshot and the `GetStatus` response
/// bodies (`kind ‖ fields`) encoded from that snapshot and no other.
#[derive(Debug)]
struct Published {
    snapshot: Arc<DictionarySnapshot>,
    bodies: HashMap<SerialNumber, Arc<[u8]>>,
}

impl Published {
    fn new(snapshot: DictionarySnapshot) -> Self {
        Published {
            snapshot: Arc::new(snapshot),
            bodies: HashMap::new(),
        }
    }
}

/// The shared, `&self`-only proof-serving surface of an RA.
#[derive(Debug, Default)]
pub struct StatusServer {
    slots: RwLock<HashMap<CaId, RwLock<Published>>>,
    /// Bodies held across every slot, at most `MAX_CACHED_BODIES`.
    cached: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StatusServer {
    /// Creates an empty server (no CAs published yet).
    pub fn new() -> Self {
        StatusServer::default()
    }

    /// Publishes `snapshot` as the current view of its CA (the slot is
    /// created on first publish) and drops the bodies encoded from the
    /// view it replaces. Called by the writer side after every mirror
    /// mutation. **Epoch-guarded**: a snapshot older than the one the
    /// slot serves is rejected (returns `false`), so a delayed publish
    /// built from a stale view can never re-serve a pre-batch root;
    /// same-epoch publishes replace (that is how freshness refreshes and
    /// root rotations propagate).
    #[must_use = "a rejected (stale) publish leaves readers on the newer snapshot"]
    pub fn publish(&self, snapshot: DictionarySnapshot) -> bool {
        let ca = snapshot.ca();
        let next = Published::new(snapshot);
        if let Some(slot) = self.slots.read().get(&ca) {
            return self.replace(slot, next);
        }
        match self.slots.write().entry(ca) {
            Entry::Occupied(slot) => self.replace(slot.get(), next),
            Entry::Vacant(vacant) => {
                vacant.insert(RwLock::new(next));
                true
            }
        }
    }

    /// The epoch-guarded swap behind [`StatusServer::publish`]. The old
    /// publication is dropped outside the slot's lock.
    fn replace(&self, slot: &RwLock<Published>, next: Published) -> bool {
        let old = {
            let mut published = slot.write();
            if next.snapshot.epoch() < published.snapshot.epoch() {
                return false;
            }
            std::mem::replace(&mut *published, next)
        };
        self.cached.fetch_sub(old.bodies.len(), Ordering::Relaxed);
        true
    }

    /// Replaces the CA's slot outright, with no epoch guard: a freshly
    /// installed mirror restarts its epoch counter.
    pub(crate) fn install(&self, snapshot: DictionarySnapshot) {
        let ca = snapshot.ca();
        let old = self
            .slots
            .write()
            .insert(ca, RwLock::new(Published::new(snapshot)));
        if let Some(old) = old {
            self.cached
                .fetch_sub(old.into_inner().bodies.len(), Ordering::Relaxed);
        }
    }

    /// The current snapshot for `ca`, if mirrored. Cheap (`Arc` clone);
    /// the snapshot stays valid however many publishes follow.
    pub fn snapshot(&self, ca: &CaId) -> Option<Arc<DictionarySnapshot>> {
        let slots = self.slots.read();
        let snapshot = Arc::clone(&slots.get(ca)?.read().snapshot);
        Some(snapshot)
    }

    /// Counter snapshot of the encoded `GetStatus` bodies.
    pub fn encoded_cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
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
    /// A hit is a read lock and a map lookup. A miss builds the status
    /// outside every lock and caches it only if the slot still holds the
    /// snapshot it was built from: bytes of a replaced snapshot are
    /// returned to their caller but never cached.
    pub fn encoded_status(&self, ca: &CaId, serial: &SerialNumber) -> Option<Arc<[u8]>> {
        let snapshot = {
            let slots = self.slots.read();
            let published = slots.get(ca)?.read();
            if let Some(body) = published.bodies.get(serial) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(body));
            }
            Arc::clone(&published.snapshot)
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        Some(self.encode(&snapshot, serial))
    }

    /// Encodes `serial`'s status from `snapshot`, caching the body only if
    /// `snapshot` is still its CA's current one and the bound has room.
    fn encode(&self, snapshot: &Arc<DictionarySnapshot>, serial: &SerialNumber) -> Arc<[u8]> {
        let body = RitmResponse::Status(StatusPayload::single(vec![snapshot.status(serial)]))
            .to_shared_body();
        let room = || {
            self.cached
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < MAX_CACHED_BODIES).then_some(n + 1)
                })
                .is_ok()
        };
        let slots = self.slots.read();
        if let Some(mut published) = slots.get(&snapshot.ca()).map(RwLock::write) {
            if Arc::ptr_eq(&published.snapshot, snapshot)
                && !published.bodies.contains_key(serial)
                && room()
            {
                published.bodies.insert(*serial, Arc::clone(&body));
            }
        }
        body
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
        setup_ca("ServeCA", n)
    }

    fn setup_ca(name: &str, n: u32) -> (CaDictionary, MirrorDictionary) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut ca = CaDictionary::new(
            CaId::from_name(name),
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

    /// Revokes `serial` on the CA and applies it to the mirror at `now`.
    fn revoke(ca: &mut CaDictionary, m: &mut MirrorDictionary, serial: u32, now: u64) {
        let mut rng = StdRng::seed_from_u64(now);
        let iss = ca
            .insert(&[SerialNumber::from_u24(serial)], &mut rng, now)
            .unwrap();
        m.apply_issuance(&iss, now).unwrap();
    }

    /// A same-epoch freshness refresh of the mirror at `now`, through the
    /// CA's real refresh message.
    fn refresh(ca: &mut CaDictionary, m: &mut MirrorDictionary, now: u64) {
        let mut rng = StdRng::seed_from_u64(now);
        let msg = ca.refresh(&mut rng, now);
        m.apply_refresh(&msg, now).unwrap();
    }

    /// The body a miss encodes for `serial` from `snap`.
    fn body_from(snap: &DictionarySnapshot, serial: &SerialNumber) -> Arc<[u8]> {
        RitmResponse::Status(StatusPayload::single(vec![snap.status(serial)])).to_shared_body()
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
        let (mut ca, mut m) = setup(20);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let serial = SerialNumber::from_u24(4);
        let first = server.encoded_status(&ca.ca(), &serial).unwrap();
        let second = server.encoded_status(&ca.ca(), &serial).unwrap();
        // Same publication: the very same shared allocation is served.
        assert!(Arc::ptr_eq(&first, &second));
        let stats = server.encoded_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The cached bytes are exactly the response the build path
        // would encode.
        let built = RitmResponse::Status(server.build_status(&[(ca.ca(), serial)]).unwrap());
        assert_eq!(&first[..], &built.to_shared_body()[..]);

        // A freshness-only refresh changes the served bytes without
        // advancing the epoch: its same-epoch republish is accepted and
        // the next lookup re-encodes.
        let epoch = m.epoch();
        refresh(&mut ca, &mut m, T0 + 13);
        assert_eq!(m.epoch(), epoch);
        assert!(server.publish(m.snapshot()));
        let after = server.encoded_status(&ca.ca(), &serial).unwrap();
        assert_ne!(&first[..], &after[..], "refresh must re-encode");
        assert_eq!(server.encoded_cache_stats().misses, 2);
    }

    #[test]
    fn every_accepted_publish_re_encodes_including_refreshes() {
        let (mut ca, mut m) = setup(3);
        let server = StatusServer::new();
        let stale = m.snapshot();
        assert!(server.publish(m.snapshot()));
        let serial = SerialNumber::from_u24(2);
        let initial = server.encoded_status(&ca.ca(), &serial).unwrap();
        assert_eq!(server.encoded_cache_stats().misses, 1);

        // Content publish: the epoch advances and the next lookup
        // re-encodes from the new snapshot.
        revoke(&mut ca, &mut m, 50, T0 + 2);
        assert!(server.publish(m.snapshot()));
        let content = server.encoded_status(&ca.ca(), &serial).unwrap();
        assert!(!Arc::ptr_eq(&initial, &content));
        assert_eq!(server.encoded_cache_stats().misses, 2);

        // Freshness-only refresh: the epoch stays put, but the served
        // bytes change, so the publish must drop the cached body.
        let epoch = m.epoch();
        refresh(&mut ca, &mut m, T0 + 13);
        assert_eq!(m.epoch(), epoch);
        assert!(server.publish(m.snapshot()));
        let refreshed = server.encoded_status(&ca.ca(), &serial).unwrap();
        assert_ne!(&content[..], &refreshed[..], "refresh must re-encode");
        assert_eq!(server.encoded_cache_stats().misses, 3);

        // A rejected (stale) publish changes nothing: the refreshed bytes
        // stay cached and are served as they are.
        assert!(!server.publish(stale));
        let again = server.encoded_status(&ca.ca(), &serial).unwrap();
        assert!(Arc::ptr_eq(&refreshed, &again));
        assert_eq!(
            server.encoded_cache_stats(),
            CacheStats { hits: 1, misses: 3 }
        );
    }

    #[test]
    fn old_snapshot_survives_publish() {
        let (mut ca, mut m) = setup(5);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let old = server.snapshot(&ca.ca()).unwrap();

        // The writer advances the mirror and publishes the new epoch.
        revoke(&mut ca, &mut m, 99, T0 + 2);
        assert!(server.publish(m.snapshot()));

        let new = server.snapshot(&ca.ca()).unwrap();
        assert!(new.epoch() > old.epoch());
        assert_eq!(old.len(), 5, "a retained snapshot still serves its epoch");
        assert_eq!(new.len(), 6);
        // The old snapshot's proofs still verify against the old root.
        let s = SerialNumber::from_u24(2);
        assert!(old
            .proof(&s)
            .verify(&s, &old.signed_root().root, old.signed_root().size)
            .is_ok());
    }

    #[test]
    fn stale_refresh_republish_cannot_clobber_newer_content() {
        // A republish built from an older view of the mirror must never
        // swap in over newer content and re-serve a pre-batch root inside
        // the 2Δ window: publish is epoch-guarded.
        let (mut ca, mut m) = setup(5);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));

        // A refresher freezes the current view... and stalls.
        let stale_view = m.snapshot();

        // Meanwhile a content batch lands and is published.
        revoke(&mut ca, &mut m, 77, T0 + 2);
        assert!(server.publish(m.snapshot()));
        let content = server.snapshot(&ca.ca()).unwrap();
        assert!(content.contains(&SerialNumber::from_u24(77)));

        // The stalled refresher wakes up and publishes its stale view:
        // rejected, and readers never regress.
        assert!(!server.publish(stale_view), "stale republish rejected");
        let now = server.snapshot(&ca.ca()).unwrap();
        assert_eq!(now.epoch(), content.epoch(), "epoch must not regress");
        assert_eq!(now.signed_root(), content.signed_root());
        assert!(now.contains(&SerialNumber::from_u24(77)));

        // A same-epoch republish (a genuine refresh of the current view)
        // still replaces.
        refresh(&mut ca, &mut m, T0 + 13);
        assert!(server.publish(m.snapshot()));
        let refreshed = server.snapshot(&ca.ca()).unwrap();
        assert_eq!(refreshed.epoch(), content.epoch());
        assert_eq!(refreshed.freshness(), m.freshness());
        assert_ne!(refreshed.freshness(), content.freshness());
    }

    #[test]
    fn bytes_built_from_a_replaced_snapshot_are_served_but_not_cached() {
        let (mut ca, mut m) = setup(20);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let serial = SerialNumber::from_u24(4);
        // A lagging reader loads the current snapshot, then a publish
        // replaces it before the reader's miss is encoded.
        let lagging = server.snapshot(&ca.ca()).unwrap();
        revoke(&mut ca, &mut m, 77, T0 + 2);
        assert!(server.publish(m.snapshot()));

        // The lagging reader gets the bytes of its own snapshot...
        let stale = server.encode(&lagging, &serial);
        assert_eq!(stale, body_from(&lagging, &serial));
        assert_eq!(server.cached.load(Ordering::Relaxed), 0, "never cached");
        // ...and the current publication neither serves nor keeps them.
        let current = server.encoded_status(&ca.ca(), &serial).unwrap();
        assert_ne!(current, stale);
        assert_eq!(
            current,
            body_from(&server.snapshot(&ca.ca()).unwrap(), &serial)
        );
        let hit = server.encoded_status(&ca.ca(), &serial).unwrap();
        assert!(Arc::ptr_eq(&current, &hit));
        assert_eq!(
            server.encoded_cache_stats(),
            CacheStats { hits: 1, misses: 1 }
        );
    }

    #[test]
    fn one_bound_spans_every_ca_and_a_publish_returns_its_share() {
        let (a, m_a) = setup_ca("BoundA", 4);
        let (mut b, mut m_b) = setup_ca("BoundB", 4);
        let server = StatusServer::new();
        assert!(server.publish(m_a.snapshot()));
        assert!(server.publish(m_b.snapshot()));
        for i in 0..MAX_CACHED_BODIES as u32 {
            server.encoded_status(&a.ca(), &SerialNumber::from_u24(i));
        }
        assert_eq!(server.cached.load(Ordering::Relaxed), MAX_CACHED_BODIES);

        // Full: B's miss is served, uncached.
        let serial = SerialNumber::from_u24(1);
        let first = server.encoded_status(&b.ca(), &serial).unwrap();
        let second = server.encoded_status(&b.ca(), &serial).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(server.encoded_cache_stats().hits, 0);

        // A's republish drops A's bodies and returns their room: B caches.
        assert!(server.publish(m_a.snapshot()));
        assert_eq!(server.cached.load(Ordering::Relaxed), 0);
        let cached = server.encoded_status(&b.ca(), &serial).unwrap();
        let hit = server.encoded_status(&b.ca(), &serial).unwrap();
        assert!(Arc::ptr_eq(&cached, &hit));

        // Installing a mirror replaces the slot outright, with its bodies
        // and without the epoch guard: a fresh mirror restarts its epoch.
        revoke(&mut b, &mut m_b, 99, T0 + 2);
        assert!(server.publish(m_b.snapshot()));
        server.encoded_status(&b.ca(), &serial).unwrap();
        assert_eq!(server.cached.load(Ordering::Relaxed), 1);
        let (_, fresh) = setup_ca("BoundB", 4);
        assert!(fresh.epoch() < m_b.epoch());
        server.install(fresh.snapshot());
        assert_eq!(server.cached.load(Ordering::Relaxed), 0);
        assert_eq!(server.snapshot(&b.ca()).unwrap().epoch(), fresh.epoch());
    }

    #[test]
    fn concurrent_lookups_share_one_cache() {
        let (ca, m) = setup(20);
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        let serial = SerialNumber::from_u24(9);
        let expected = body_from(&server.snapshot(&ca.ca()).unwrap(), &serial);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        assert_eq!(server.encoded_status(&ca.ca(), &serial).unwrap(), expected);
                    }
                });
            }
        });
        let stats = server.encoded_cache_stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert!(stats.hits >= 792, "at most one miss per thread: {stats:?}");
        assert_eq!(server.cached.load(Ordering::Relaxed), 1);
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
