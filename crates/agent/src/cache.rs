//! Version-keyed caching for the RA's hot path.
//!
//! At CDN scale many concurrent TLS flows present the same server
//! certificates, so an RA answers identical status requests thousands of
//! times between dictionary updates. An [`EpochKeyedCache`] memoizes a value
//! per `(CA, key)` together with a monotonic per-CA version (the `epoch`
//! argument): a cached value is served only while the caller's version is
//! unchanged. [`crate::serve::StatusServer`] keys its encoded responses by
//! the publication generation of the CA's
//! [`ritm_dictionary::SnapshotCell`], which advances on every republish —
//! freshness-only refreshes included — so cached bytes are never stale.
//!
//! The cache is **concurrent**: every method takes `&self` (reads go
//! through a shared lock, counters are atomics), so any number of
//! handshake-serving threads can share one cache — and read-only statistics
//! never require a `&mut` borrow anywhere in the call chain. Misses compute
//! the value *outside* the write lock, so a slow proof generation never
//! blocks concurrent hits.

use parking_lot::RwLock;
use ritm_dictionary::CaId;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default bound on cached entries (an encoded status is a few hundred
/// bytes, so the default tops out around a few MB — connection-table scale).
pub const DEFAULT_CACHE_CAPACITY: usize = 16_384;

/// Hit/miss counters, surfaced through the RA health report
/// (`ritm_agent::monitor`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Values served from cache.
    pub hits: u64,
    /// Values generated because no entry (or only a stale-epoch entry)
    /// existed.
    pub misses: u64,
    /// Entries dropped because their epoch was superseded (or their CA was
    /// purged).
    pub evictions: u64,
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

#[derive(Debug, Clone)]
struct Cached<V> {
    epoch: u64,
    value: V,
}

/// The locked interior: the entry map plus the newest epoch seen per CA,
/// which lets a full-cache eviction sweep judge *every* entry against its
/// own CA's frontier (epochs of different CAs are independent counters).
#[derive(Debug)]
struct CacheInner<K, V> {
    map: HashMap<(CaId, K), Cached<V>>,
    newest: HashMap<CaId, u64>,
}

/// A concurrent cache of per-`(CA, key)` values valid for exactly one
/// dictionary epoch.
#[derive(Debug)]
pub struct EpochKeyedCache<K, V> {
    entries: RwLock<CacheInner<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Default for EpochKeyedCache<K, V> {
    fn default() -> Self {
        EpochKeyedCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl<K: Eq + Hash, V: Clone> EpochKeyedCache<K, V> {
    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        EpochKeyedCache {
            entries: RwLock::new(CacheInner {
                map: HashMap::new(),
                newest: HashMap::new(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the value for `(ca, key)` at `epoch`, generating it with
    /// `make` on a miss. A stored value from an older epoch counts as a
    /// miss and is replaced. `make` runs outside any lock; concurrent
    /// lookups for other keys proceed in parallel.
    ///
    /// Epochs are monotone per CA, but *readers* are not: a thread still
    /// holding an older snapshot may race threads on the current one, so
    /// an older-epoch insert never displaces newer entries — one lagging
    /// reader cannot nuke the hot working set.
    pub fn get_or_insert(&self, ca: CaId, key: K, epoch: u64, make: impl FnOnce() -> V) -> V {
        let full_key = (ca, key);
        if let Some(hit) = self
            .entries
            .read()
            .map
            .get(&full_key)
            .filter(|c| c.epoch == epoch)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.value.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = make();
        let mut inner = self.entries.write();
        let frontier = inner.newest.entry(ca).or_insert(epoch);
        if *frontier < epoch {
            *frontier = epoch;
        }
        if inner
            .map
            .get(&full_key)
            .is_some_and(|existing| existing.epoch > epoch)
        {
            return value;
        }
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&full_key) {
            // Full: drop every entry stale for *its own* CA — each CA's
            // epochs form an independent counter, so an entry is judged
            // against the newest epoch this cache has seen for that CA,
            // not against `epoch`. (Without this, a multi-CA RA at
            // capacity never reclaims dead entries of CAs other than the
            // one missing, and one CA can permanently starve another's
            // caching.) If everything is current, serve uncached rather
            // than evict hot entries.
            let before = inner.map.len();
            let CacheInner { map, newest } = &mut *inner;
            map.retain(|(k_ca, _), c| newest.get(k_ca).is_none_or(|&front| c.epoch >= front));
            self.evictions
                .fetch_add((before - inner.map.len()) as u64, Ordering::Relaxed);
            if inner.map.len() >= self.capacity {
                return value;
            }
        }
        inner.map.insert(
            full_key,
            Cached {
                epoch,
                value: value.clone(),
            },
        );
        value
    }

    /// Drops every entry belonging to `ca`, returning how many were
    /// removed. Called when an RA stops mirroring a CA — or re-installs a
    /// fresh mirror whose epoch counter restarts (leftover higher-epoch
    /// entries would otherwise block re-caching until the new counter
    /// catches up).
    pub fn purge_ca(&self, ca: &CaId) -> usize {
        let mut inner = self.entries.write();
        let before = inner.map.len();
        inner.map.retain(|(k_ca, _), _| k_ca != ca);
        // Forget the CA's epoch frontier too: a re-installed mirror
        // restarts its counter, and a stale high-water mark would make the
        // sweep treat every re-cached low-epoch entry as dead.
        inner.newest.remove(ca);
        let removed = before - inner.map.len();
        self.evictions.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Live entries (stale-epoch entries are dropped lazily, so this counts
    /// stored, not necessarily valid, values).
    pub fn len(&self) -> usize {
        self.entries.read().map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.read().map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Shards in a [`ShardedEpochCache`]. Small and fixed: the goal is to
/// split one hot lock eight ways, not to scale shard count with load.
const CACHE_SHARDS: usize = 8;

/// An [`EpochKeyedCache`] split into `CACHE_SHARDS` independently
/// locked shards, routed by the hash of `(CA, key)`. Under concurrent
/// status serving the single cache's `RwLock` is the first thing every
/// request touches; sharding divides that contention without changing
/// any caching semantics — each shard runs the exact per-CA frontier
/// and eviction policy of [`EpochKeyedCache`], just over an eighth of
/// the keyspace (per-shard capacity is `capacity / CACHE_SHARDS`,
/// rounded up).
#[derive(Debug)]
pub struct ShardedEpochCache<K, V> {
    shards: [EpochKeyedCache<K, V>; CACHE_SHARDS],
}

impl<K: Eq + Hash, V: Clone> Default for ShardedEpochCache<K, V> {
    fn default() -> Self {
        ShardedEpochCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl<K: Eq + Hash, V: Clone> ShardedEpochCache<K, V> {
    /// Creates a cache bounded to `capacity` entries overall (each shard
    /// holds its rounded-up share).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(CACHE_SHARDS).max(1);
        ShardedEpochCache {
            shards: std::array::from_fn(|_| EpochKeyedCache::new(per_shard)),
        }
    }

    fn shard(&self, ca: &CaId, key: &K) -> &EpochKeyedCache<K, V> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let mut h = DefaultHasher::new();
        ca.hash(&mut h);
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS]
    }

    /// [`EpochKeyedCache::get_or_insert`], routed to the key's shard.
    pub fn get_or_insert(&self, ca: CaId, key: K, epoch: u64, make: impl FnOnce() -> V) -> V {
        self.shard(&ca, &key).get_or_insert(ca, key, epoch, make)
    }

    /// Drops every shard's entries for `ca`; returns the total removed.
    pub fn purge_ca(&self, ca: &CaId) -> usize {
        self.shards.iter().map(|s| s.purge_ca(ca)).sum()
    }

    /// Stored entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(EpochKeyedCache::len).sum()
    }

    /// `true` when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(EpochKeyedCache::is_empty)
    }

    /// Counters summed across shards.
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, s| {
            let st = s.stats();
            CacheStats {
                hits: acc.hits + st.hits,
                misses: acc.misses + st.misses,
                evictions: acc.evictions + st.evictions,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritm_dictionary::proof::PresenceProof;
    use ritm_dictionary::tree::Leaf;
    use ritm_dictionary::{RevocationProof, SerialNumber};

    type Cache = EpochKeyedCache<SerialNumber, RevocationProof>;

    fn proof(tag: u32) -> RevocationProof {
        RevocationProof::Present(PresenceProof {
            leaf: Leaf::new(SerialNumber::from_u24(tag), tag as u64 + 1),
            index: 0,
            path: vec![],
        })
    }

    fn key(v: u32) -> (CaId, SerialNumber) {
        (CaId::from_name("C"), SerialNumber::from_u24(v))
    }

    #[test]
    fn second_lookup_hits_within_epoch() {
        let cache = Cache::new(8);
        let (ca, s) = key(1);
        let a = cache.get_or_insert(ca, s, 5, || proof(1));
        let b = cache.get_or_insert(ca, s, 5, || panic!("must be cached"));
        assert_eq!(a, b);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn epoch_change_invalidates() {
        let cache = Cache::new(8);
        let (ca, s) = key(1);
        cache.get_or_insert(ca, s, 5, || proof(1));
        let regenerated = cache.get_or_insert(ca, s, 6, || proof(2));
        assert_eq!(
            regenerated,
            proof(2),
            "stale-epoch entry must not be served"
        );
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn full_cache_never_evicts_other_cas_live_entries() {
        let cache = Cache::new(2);
        let ca_a = CaId::from_name("A");
        let ca_b = CaId::from_name("B");
        let s = SerialNumber::from_u24(1);
        cache.get_or_insert(ca_a, s, 7, || proof(1));
        // CA B's mirror runs its own, lower epoch counter.
        cache.get_or_insert(ca_b, s, 3, || proof(2));
        // Cache full; a miss for CA A at a newer epoch evicts only A's
        // stale entry, never B's live epoch-3 one.
        cache.get_or_insert(ca_a, SerialNumber::from_u24(2), 8, || proof(3));
        let hit = cache.get_or_insert(ca_b, s, 3, || panic!("B must stay cached"));
        assert_eq!(hit, proof(2));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_evicts_stale_epochs_only() {
        let cache = Cache::new(2);
        cache.get_or_insert(key(1).0, key(1).1, 1, || proof(1));
        cache.get_or_insert(key(2).0, key(2).1, 1, || proof(2));
        // Full of epoch-1 entries; an epoch-2 insert purges them.
        cache.get_or_insert(key(3).0, key(3).1, 2, || proof(3));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 2);
        // Full of *current* entries: lookups still work, hot set kept.
        cache.get_or_insert(key(4).0, key(4).1, 2, || proof(4));
        cache.get_or_insert(key(5).0, key(5).1, 2, || proof(5));
        assert!(cache.len() <= 2);
        let hit = cache.get_or_insert(key(3).0, key(3).1, 2, || panic!("3 stays hot"));
        assert_eq!(hit, proof(3));
    }

    #[test]
    fn lagging_reader_cannot_displace_newer_entries() {
        let cache = Cache::new(2);
        let (ca, s) = key(1);
        cache.get_or_insert(ca, s, 6, || proof(6));
        // A reader still on the epoch-5 snapshot gets its own proof, but
        // must not overwrite the stored epoch-6 entry...
        let got = cache.get_or_insert(ca, s, 5, || proof(5));
        assert_eq!(got, proof(5));
        let hit = cache.get_or_insert(ca, s, 6, || panic!("epoch-6 entry must survive"));
        assert_eq!(hit, proof(6));
        // ...and with the cache full, an older-epoch miss must not evict
        // the newer-epoch working set either.
        cache.get_or_insert(ca, SerialNumber::from_u24(2), 6, || proof(2));
        let got = cache.get_or_insert(ca, SerialNumber::from_u24(3), 5, || proof(3));
        assert_eq!(got, proof(3));
        let hit = cache.get_or_insert(ca, s, 6, || panic!("still cached after full insert"));
        assert_eq!(hit, proof(6));
    }

    #[test]
    fn dead_entries_of_other_cas_are_reclaimed() {
        // Regression: the full-cache sweep only reclaimed the *missing*
        // CA's stale entries, so once a multi-CA RA hit capacity, another
        // CA's dead entries sat forever and starved everyone else's
        // caching.
        let cache = Cache::new(2);
        let ca_a = CaId::from_name("A");
        let ca_b = CaId::from_name("B");
        let s1 = SerialNumber::from_u24(1);
        let s2 = SerialNumber::from_u24(2);

        // B fills the cache at epoch 1...
        cache.get_or_insert(ca_b, s1, 1, || proof(1));
        cache.get_or_insert(ca_b, s2, 1, || proof(2));
        // ...then B's mirror advances: its epoch-1 entries are now dead.
        // (The replaced s1 entry records the new frontier; s2 stays dead.)
        cache.get_or_insert(ca_b, s1, 2, || proof(3));
        assert_eq!(cache.len(), 2, "cache full of B's entries");

        // A misses with the cache full: the sweep must reclaim B's dead
        // epoch-1 entry — stale for B's *own* frontier — and cache A.
        cache.get_or_insert(ca_a, s1, 7, || proof(4));
        let hit = cache.get_or_insert(ca_a, s1, 7, || panic!("A must be cached"));
        assert_eq!(hit, proof(4));
        // B's live epoch-2 entry survived the sweep.
        let hit = cache.get_or_insert(ca_b, s1, 2, || panic!("B's live entry must survive"));
        assert_eq!(hit, proof(3));
        assert_eq!(cache.stats().evictions, 1);

        // With only live entries left, a further miss still serves
        // uncached instead of evicting anyone's hot set.
        cache.get_or_insert(ca_b, s2, 2, || proof(6));
        let again = cache.get_or_insert(ca_a, s1, 7, || panic!("A stays hot"));
        assert_eq!(again, proof(4));
    }

    #[test]
    fn purge_ca_clears_only_that_ca() {
        let cache = Cache::new(8);
        let ca_a = CaId::from_name("A");
        let ca_b = CaId::from_name("B");
        let s = SerialNumber::from_u24(1);
        cache.get_or_insert(ca_a, s, 50, || proof(1));
        cache.get_or_insert(ca_b, s, 3, || proof(2));
        assert_eq!(cache.purge_ca(&ca_a), 1);
        assert_eq!(cache.len(), 1);
        // A re-installed mirror for A restarts its epoch counter near 0;
        // with the purge, low-epoch entries cache normally again.
        let got = cache.get_or_insert(ca_a, s, 1, || proof(3));
        assert_eq!(got, proof(3));
        let hit = cache.get_or_insert(ca_a, s, 1, || panic!("cached after purge"));
        assert_eq!(hit, proof(3));
    }

    #[test]
    fn sharded_cache_behaves_like_one_cache() {
        let cache = ShardedEpochCache::<SerialNumber, RevocationProof>::new(64);
        let ca = CaId::from_name("Shard");
        // Hits and misses behave per-key exactly like the flat cache,
        // whichever shard each key lands in.
        for v in 0..16u32 {
            let s = SerialNumber::from_u24(v);
            let a = cache.get_or_insert(ca, s, 1, || proof(v));
            let b = cache.get_or_insert(ca, s, 1, || panic!("must be cached"));
            assert_eq!(a, b);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (16, 16));
        assert_eq!(cache.len(), 16);
        // An epoch bump invalidates across shards...
        let s = SerialNumber::from_u24(3);
        assert_eq!(cache.get_or_insert(ca, s, 2, || proof(99)), proof(99));
        // ...and purge_ca sums removals over every shard.
        assert_eq!(cache.purge_ca(&ca), 16);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_lookups_share_one_cache() {
        let cache = Cache::new(64);
        let (ca, s) = key(9);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                scope.spawn(move || {
                    for _ in 0..100 {
                        let got = cache.get_or_insert(ca, s, 1, || proof(9));
                        assert_eq!(got, proof(9));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert!(stats.hits >= 792, "at most one miss per thread: {stats:?}");
    }
}
