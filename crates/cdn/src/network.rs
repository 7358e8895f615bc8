//! The assembled dissemination network: one origin, one logical edge per
//! region, and the traffic ledger that produces the CA's bill.

use crate::edge::{EdgeServer, PullStats};
use crate::origin::{ContentKey, Origin};
use crate::pricing::TrafficLedger;
use crate::regions::{Region, ALL_REGIONS};
use ritm_net::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A CDN with regional edges in front of one origin.
#[derive(Debug)]
pub struct Cdn {
    /// The distribution point CAs publish to.
    pub origin: Origin,
    edges: BTreeMap<Region, EdgeServer>,
    /// Billing ledger for the current cycle.
    pub ledger: TrafficLedger,
}

impl Cdn {
    /// Creates a CDN whose edges cache with the given TTL.
    pub fn new(ttl: SimDuration) -> Self {
        let edges = ALL_REGIONS
            .iter()
            .map(|r| (*r, EdgeServer::new(*r, ttl)))
            .collect();
        Cdn {
            origin: Origin::new(),
            edges,
            ledger: TrafficLedger::new(),
        }
    }

    /// One RA pull from its regional edge; traffic is billed to the ledger.
    pub fn pull<R: rand::Rng + ?Sized>(
        &mut self,
        region: Region,
        key: &ContentKey,
        now: SimTime,
        rng: &mut R,
    ) -> Option<(Vec<u8>, PullStats)> {
        self.pull_with(region, key, now, rng, |origin| {
            origin.fetch(key).map(<[u8]>::to_vec)
        })
    }

    /// [`Cdn::pull`] of an object the origin builds per request with
    /// `build` — the answer to a conditional pull (paper §III sync
    /// protocol), keyed by what the RA holds, so same-region RAs holding
    /// the same count share the edge's cached copy.
    pub fn pull_with<R: rand::Rng + ?Sized>(
        &mut self,
        region: Region,
        key: &ContentKey,
        now: SimTime,
        rng: &mut R,
        build: impl FnOnce(&Origin) -> Option<Vec<u8>>,
    ) -> Option<(Vec<u8>, PullStats)> {
        let edge = self.edges.get_mut(&region).expect("all regions present");
        let origin = &self.origin;
        let (bytes, stats) = edge.pull_with(key, now, rng, || build(origin))?;
        self.ledger.record(region, stats.bytes);
        Some((bytes, stats))
    }

    /// One page of a desynchronized RA's catch-up (paper §III sync
    /// protocol): straight through to the origin (parametrized requests
    /// are not cacheable), billed like any other download at its encoded
    /// size. Returns the issuance page, the count of serials remaining
    /// beyond it, and the pull statistics.
    pub fn pull_page<R: rand::Rng + ?Sized>(
        &mut self,
        region: Region,
        ca: ritm_dictionary::CaId,
        have: u64,
        limit: u32,
        rng: &mut R,
    ) -> Option<(ritm_dictionary::RevocationIssuance, u64, PullStats)> {
        let (page, remaining) = self.origin.fetch_page(ca, have, limit)?;
        let bytes = page.encoded_len() as u64;
        self.ledger.record(region, bytes);
        let latency = region.origin_latency().sample(rng)
            + region.edge_latency().sample(rng)
            + ritm_net::time::SimDuration::from_secs_f64(
                bytes as f64 / region.bandwidth_bytes_per_sec(),
            );
        let stats = PullStats {
            bytes,
            cache_hit: false,
            latency,
        };
        Some((page, remaining, stats))
    }

    /// Borrow a regional edge (for cache statistics).
    pub fn edge(&self, region: Region) -> &EdgeServer {
        self.edges.get(&region).expect("all regions present")
    }

    /// Flushes all edge caches.
    pub fn flush_edges(&mut self) {
        for e in self.edges.values_mut() {
            e.flush();
        }
    }

    /// Aggregate cache-hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let (h, m) = self
            .edges
            .values()
            .fold((0u64, 0u64), |(h, m), e| (h + e.hits, m + e.misses));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_dictionary::CaId;

    #[test]
    fn pulls_are_billed_per_region() {
        let mut cdn = Cdn::new(SimDuration::from_secs(60));
        let ca = CaId::from_name("NetCA");
        cdn.origin.publish_manifest(ca, vec![1u8; 5000]);
        let key = ContentKey::Manifest { ca };
        let mut rng = StdRng::seed_from_u64(1);
        cdn.pull(Region::Europe, &key, SimTime::ZERO, &mut rng)
            .unwrap();
        cdn.pull(Region::Japan, &key, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(cdn.ledger.total_bytes(), 10_000);
        assert_eq!(cdn.ledger.bytes_in(Region::Europe), 5000);
        assert_eq!(cdn.ledger.bytes_in(Region::Japan), 5000);
        assert_eq!(cdn.ledger.bytes_in(Region::India), 0);
    }

    #[test]
    fn regional_caches_are_independent() {
        let mut cdn = Cdn::new(SimDuration::from_secs(60));
        let ca = CaId::from_name("NetCA");
        cdn.origin.publish_manifest(ca, vec![1u8; 100]);
        let key = ContentKey::Manifest { ca };
        let mut rng = StdRng::seed_from_u64(1);
        // First pull in each region is a miss.
        for r in [Region::Europe, Region::India] {
            let (_, s) = cdn.pull(r, &key, SimTime::ZERO, &mut rng).unwrap();
            assert!(!s.cache_hit, "{r:?}");
        }
        // Second pull in Europe hits; India's cache was warmed separately.
        let (_, s) = cdn
            .pull(Region::Europe, &key, SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert!(s.cache_hit);
        assert!(cdn.hit_ratio() > 0.0);
    }
}
