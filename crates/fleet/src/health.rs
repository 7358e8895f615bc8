//! Fleet-level health: per-shard cache and sync aggregates plus the
//! gossip anomalies the ledgers have raised — the horizontal analogue of
//! [`ritm_agent::RaHealthReport`].

use std::collections::BTreeSet;

use ritm_agent::{CacheStats, RaHealthReport};
use ritm_cdn::Region;

use crate::gossip::GossipStats;
use crate::node::FleetNode;

/// Accumulated CDN-sync counters for one node (summed over every sync it
/// ran).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncTotals {
    /// Sync rounds recorded.
    pub syncs: u64,
    /// Flights retried after transient failures.
    pub retries: u64,
    /// Flights abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Individual transport failures observed.
    pub transport_failures: u64,
    /// Dissemination bytes pulled down.
    pub bytes_downloaded: u64,
}

impl SyncTotals {
    fn absorb(&mut self, other: &SyncTotals) {
        self.syncs += other.syncs;
        self.retries += other.retries;
        self.gave_up += other.gave_up;
        self.transport_failures += other.transport_failures;
        self.bytes_downloaded += other.bytes_downloaded;
    }
}

/// One shard's slice of the fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    /// Fleet node name.
    pub node: String,
    /// Home region.
    pub region: Region,
    /// The per-agent report (mirrored CAs, encoded-response cache
    /// counters, packet stats).
    pub ra: RaHealthReport,
    /// Accumulated sync counters.
    pub sync: SyncTotals,
}

/// The fleet-wide health report: every shard's caches and sync counters,
/// their fleet aggregates, and the gossip layer's verdict on view
/// consistency.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealthReport {
    /// Per-shard slices, in fleet-name order.
    pub shards: Vec<ShardHealth>,
    /// Fleet-total counters of the encoded `GetStatus` response caches.
    pub encoded_cache: CacheStats,
    /// Fleet-total counters of the encoded `GetMultiStatus` response caches.
    pub encoded_multi_cache: CacheStats,
    /// Fleet-total sync counters.
    pub sync: SyncTotals,
    /// Gossip counters summed over every node's ledger.
    pub gossip: GossipStats,
    /// Distinct peer labels some ledger currently flags as serving a root
    /// older than the fleet-newest one (the client `RootTracker` rule).
    pub stale_peers: Vec<String>,
}

fn add_cache(into: &mut CacheStats, from: &CacheStats) {
    into.hits += from.hits;
    into.misses += from.misses;
    into.evictions += from.evictions;
}

impl FleetHealthReport {
    /// Builds the report by aggregating every node's agent report, sync
    /// totals, and gossip ledger.
    pub fn aggregate<'a, I>(nodes: I) -> Self
    where
        I: IntoIterator<Item = &'a FleetNode>,
    {
        let mut shards = Vec::new();
        let mut encoded_cache = CacheStats::default();
        let mut encoded_multi_cache = CacheStats::default();
        let mut sync = SyncTotals::default();
        let mut gossip = GossipStats::default();
        let mut stale = BTreeSet::new();
        for node in nodes {
            let shard = node.health();
            add_cache(&mut encoded_cache, &shard.ra.encoded_cache);
            add_cache(&mut encoded_multi_cache, &shard.ra.encoded_multi_cache);
            sync.absorb(&shard.sync);
            let ledger = node.ledger().lock().expect("ledger lock");
            let s = ledger.stats();
            gossip.exchanges += s.exchanges;
            gossip.roots_observed += s.roots_observed;
            gossip.advanced += s.advanced;
            gossip.stale_peers += s.stale_peers;
            gossip.split_views += s.split_views;
            gossip.bad_signatures += s.bad_signatures;
            stale.extend(ledger.stale_peers());
            drop(ledger);
            shards.push(shard);
        }
        shards.sort_by(|a, b| a.node.cmp(&b.node));
        FleetHealthReport {
            shards,
            encoded_cache,
            encoded_multi_cache,
            sync,
            gossip,
            stale_peers: stale.into_iter().collect(),
        }
    }

    /// Fleet-wide encoded `GetStatus` cache hit fraction in `[0, 1]`.
    pub fn encoded_hit_rate(&self) -> f64 {
        self.encoded_cache.hit_rate()
    }

    /// Whether every ledger sees a single, fully-propagated view: no
    /// split views and no peer lagging the fleet-newest root.
    pub fn is_converged(&self) -> bool {
        self.gossip.split_views == 0 && self.stale_peers.is_empty()
    }
}
