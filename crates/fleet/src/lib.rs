//! # ritm-fleet — the horizontal RA dimension
//!
//! One revocation agent is fast (incremental Merkle engine, RCU snapshot
//! serving), crash-safe (persisted mirrors), and inline-capable (the
//! intercept lane). This crate composes many of them into the serving
//! system the paper actually deploys (§VIII): a **fleet** of RAs sharing
//! the mirror set by consistent hashing, gossiping signed roots so no
//! node can silently lag or fork, and routed from client regions with
//! replica spillover.
//!
//! The pieces, bottom-up:
//!
//! - [`ring`] — deterministic consistent-hash placement:
//!   [`HashRing`] projects virtual node points onto a `u64` ring;
//!   [`ShardKey`] places a CA (or one serial-range *lane* of a giant CA,
//!   see [`lanes_for`]) on it. Join/leave moves only the adjacent ~`K/N`
//!   keys. No clock or RNG anywhere: two processes always agree.
//! - [`gossip`] — [`RootLedger`] tracks the fleet-newest
//!   [`SignedRoot`](ritm_dictionary::SignedRoot) per CA under the client
//!   `RootTracker` order and flags [`GossipAnomaly::StalePeer`] /
//!   [`GossipAnomaly::SplitView`] when a peer serves behind or forks.
//! - [`node`] — [`FleetNode`] binds an agent to a fleet name, home
//!   region, and ledger; [`FleetService`] answers both status and the new
//!   `GossipRoots`/`GossipAck` wire kinds, so one socket serves clients
//!   and peers alike.
//! - [`health`] — [`FleetHealthReport`] aggregates per-shard encoded-cache
//!   hit/miss and sync retry/give-up counters with the gossip verdict.
//!
//! Routing lives on the CDN side ([`ritm_cdn::FleetRouter`], with
//! [`HashRing`] implementing [`ritm_cdn::ShardTopology`]); the closed-loop
//! million-client scenario lives in `ritm_core::world::FleetWorld`.

pub mod gossip;
pub mod health;
pub mod node;
pub mod ring;

pub use gossip::{GossipAnomaly, GossipStats, RootLedger};
pub use health::{FleetHealthReport, ShardHealth, SyncTotals};
pub use node::{FleetNode, FleetService, PinnedGossipPeer, INBOUND_PEER};
pub use ring::{lane_for_serial, lanes_for, HashRing, ShardKey, MAX_LANES, VNODES_PER_NODE};
