//! Edge servers: regional caches between the origin and RAs.
//!
//! Edges pull from the origin on demand and cache for a TTL (set by the
//! origin; 0 disables caching, the worst case measured in Fig. 5).

use crate::origin::{ContentKey, Origin};
use crate::regions::Region;
use ritm_net::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Statistics for one RA pull.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PullStats {
    /// Bytes delivered to the RA.
    pub bytes: u64,
    /// Whether the edge had the object cached and fresh.
    pub cache_hit: bool,
    /// Total time from request to last byte.
    pub latency: SimDuration,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    bytes: Vec<u8>,
    fetched_at: SimTime,
}

/// A regional edge server with a TTL cache.
#[derive(Debug)]
pub struct EdgeServer {
    /// Region this edge serves.
    pub region: Region,
    ttl: SimDuration,
    cache: HashMap<ContentKey, CacheEntry>,
    /// Entries left by the last sweep of expired ones.
    live_after_sweep: usize,
    /// Bytes served to RAs (egress the CA pays for).
    pub served_bytes: u64,
    /// Bytes fetched from the origin.
    pub origin_bytes: u64,
    /// Hits/misses for cache-efficiency reporting.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl EdgeServer {
    /// Creates an edge with the given cache TTL (`SimDuration::ZERO`
    /// disables caching).
    pub fn new(region: Region, ttl: SimDuration) -> Self {
        EdgeServer {
            region,
            ttl,
            cache: HashMap::new(),
            live_after_sweep: 0,
            served_bytes: 0,
            origin_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Handles one RA pull: serve from cache if fresh, otherwise fetch from
    /// `origin` first. Latencies are sampled from the regional models.
    ///
    /// Returns `None` when the object does not exist at the origin either.
    pub fn pull<R: rand::Rng + ?Sized>(
        &mut self,
        key: &ContentKey,
        origin: &Origin,
        now: SimTime,
        rng: &mut R,
    ) -> Option<(Vec<u8>, PullStats)> {
        self.pull_with(key, now, rng, || origin.fetch(key).map(<[u8]>::to_vec))
    }

    /// [`EdgeServer::pull`] of an object the origin builds per request —
    /// the answer to a conditional pull — which `fetch` builds on a miss.
    /// Cached under `key` like a stored object.
    pub fn pull_with<R: rand::Rng + ?Sized>(
        &mut self,
        key: &ContentKey,
        now: SimTime,
        rng: &mut R,
        fetch: impl FnOnce() -> Option<Vec<u8>>,
    ) -> Option<(Vec<u8>, PullStats)> {
        let fresh = self
            .cache
            .get(key)
            .is_some_and(|e| self.ttl > SimDuration::ZERO && now.since(e.fetched_at) <= self.ttl);

        let edge_rtt = self.region.edge_latency().sample(rng);
        let bw = self.region.bandwidth_bytes_per_sec();

        if fresh {
            let entry = self.cache.get(key).expect("checked fresh");
            let bytes = entry.bytes.clone();
            self.hits += 1;
            self.served_bytes += bytes.len() as u64;
            let latency = edge_rtt + SimDuration::from_secs_f64(bytes.len() as f64 / bw);
            return Some((
                bytes.clone(),
                PullStats {
                    bytes: bytes.len() as u64,
                    cache_hit: true,
                    latency,
                },
            ));
        }

        // Miss: fetch through to the origin.
        let body = fetch()?;
        self.misses += 1;
        self.origin_bytes += body.len() as u64;
        if self.ttl > SimDuration::ZERO {
            self.cache.insert(
                key.clone(),
                CacheEntry {
                    bytes: body.clone(),
                    fetched_at: now,
                },
            );
            // An expired entry is never served again (conditional pulls
            // key one per requester count): sweep them once the cache has
            // doubled since the last sweep.
            if self.cache.len() >= 2 * self.live_after_sweep.max(64) {
                let ttl = self.ttl;
                self.cache.retain(|_, e| now.since(e.fetched_at) <= ttl);
                self.live_after_sweep = self.cache.len();
            }
        }
        self.served_bytes += body.len() as u64;
        let origin_rtt = self.region.origin_latency().sample(rng);
        // Origin→edge transfer typically runs on fatter pipes; charge half
        // the edge-link serialization cost.
        let latency = edge_rtt
            + origin_rtt
            + SimDuration::from_secs_f64(body.len() as f64 / bw)
            + SimDuration::from_secs_f64(body.len() as f64 / (2.0 * bw));
        Some((
            body.clone(),
            PullStats {
                bytes: body.len() as u64,
                cache_hit: false,
                latency,
            },
        ))
    }

    /// Cache-hit ratio so far.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drops every cached object (e.g. at a TTL configuration change).
    pub fn flush(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_dictionary::CaId;

    fn setup() -> (Origin, EdgeServer, ContentKey, StdRng) {
        let mut origin = Origin::new();
        let ca = CaId::from_name("EdgeCA");
        origin.publish_manifest(ca, vec![7u8; 1000]);
        let edge = EdgeServer::new(Region::Europe, SimDuration::from_secs(30));
        (
            origin,
            edge,
            ContentKey::Manifest { ca },
            StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn miss_then_hit() {
        let (origin, mut edge, key, mut rng) = setup();
        let (_, s1) = edge
            .pull(&key, &origin, SimTime::from_secs(0), &mut rng)
            .unwrap();
        assert!(!s1.cache_hit);
        let (_, s2) = edge
            .pull(&key, &origin, SimTime::from_secs(10), &mut rng)
            .unwrap();
        assert!(s2.cache_hit);
        assert_eq!(edge.hits, 1);
        assert_eq!(edge.misses, 1);
        assert!((edge.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ttl_expiry_causes_refetch() {
        let (origin, mut edge, key, mut rng) = setup();
        edge.pull(&key, &origin, SimTime::from_secs(0), &mut rng)
            .unwrap();
        let (_, s) = edge
            .pull(&key, &origin, SimTime::from_secs(31), &mut rng)
            .unwrap();
        assert!(!s.cache_hit, "entry older than TTL must be refetched");
        assert_eq!(edge.origin_bytes, 2000);
    }

    #[test]
    fn ttl_zero_never_caches() {
        let (origin, _, key, mut rng) = setup();
        let mut edge = EdgeServer::new(Region::Europe, SimDuration::ZERO);
        for i in 0..5 {
            let (_, s) = edge
                .pull(&key, &origin, SimTime::from_secs(i), &mut rng)
                .unwrap();
            assert!(!s.cache_hit, "TTL=0 is the Fig. 5 worst case");
        }
        assert_eq!(edge.misses, 5);
    }

    #[test]
    fn miss_latency_exceeds_hit_latency_on_average() {
        let (origin, mut edge, key, mut rng) = setup();
        let mut miss_total = 0.0;
        let mut hit_total = 0.0;
        let n = 200;
        for i in 0..n {
            edge.flush();
            let (_, m) = edge
                .pull(&key, &origin, SimTime::from_secs(i), &mut rng)
                .unwrap();
            let (_, h) = edge
                .pull(&key, &origin, SimTime::from_secs(i), &mut rng)
                .unwrap();
            miss_total += m.latency.as_secs_f64();
            hit_total += h.latency.as_secs_f64();
        }
        assert!(miss_total > hit_total);
    }

    #[test]
    fn unknown_object_is_none() {
        let (origin, mut edge, _, mut rng) = setup();
        let missing = ContentKey::Manifest {
            ca: CaId::from_name("nope"),
        };
        assert!(edge
            .pull(&missing, &origin, SimTime::ZERO, &mut rng)
            .is_none());
    }

    #[test]
    fn larger_objects_take_longer() {
        let mut origin = Origin::new();
        let ca = CaId::from_name("SizeCA");
        origin.publish_manifest(ca, vec![0u8; 10_000_000]); // 10 MB
        let small_ca = CaId::from_name("SmallCA");
        origin.publish_manifest(small_ca, vec![0u8; 100]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut edge = EdgeServer::new(Region::NorthAmerica, SimDuration::ZERO);
        let mut big = 0.0;
        let mut small = 0.0;
        for _ in 0..50 {
            big += edge
                .pull(
                    &ContentKey::Manifest { ca },
                    &origin,
                    SimTime::ZERO,
                    &mut rng,
                )
                .unwrap()
                .1
                .latency
                .as_secs_f64();
            small += edge
                .pull(
                    &ContentKey::Manifest { ca: small_ca },
                    &origin,
                    SimTime::ZERO,
                    &mut rng,
                )
                .unwrap()
                .1
                .latency
                .as_secs_f64();
        }
        assert!(big > small * 2.0, "10 MB must be much slower than 100 B");
    }
}
