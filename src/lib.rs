//! # RITM: Revocation in the Middle — a full reproduction
//!
//! This crate is the facade over a workspace that reproduces the ICDCS 2016
//! paper *RITM: Revocation in the Middle* (Szalachowski, Chuat, Lee,
//! Perrig): certificate-revocation checking moved into network middleboxes
//! ("Revocation Agents") that mirror CA-maintained authenticated
//! dictionaries disseminated over a CDN and piggyback revocation proofs
//! onto TLS traffic.
//!
//! ## Subsystems
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`crypto`] | `ritm-crypto` | SHA-256/512, 20-byte digests, hash chains, Ed25519, hardened wire codecs — all from scratch |
//! | [`dictionary`] | `ritm-dictionary` | the authenticated dictionary (Fig. 2) as an **incremental engine**: epoch-aware sorted-leaf Merkle trees with O(b·log n) batch application, CA-side [`dictionary::CaDictionary`] and RA-side [`dictionary::MirrorDictionary`], signed roots, freshness statements, proofs, expiry sharding |
//! | [`tls`] | `ritm-tls` | wire-format TLS substrate with the RITM extension and record type: sans-io [`tls::ClientEngine`] / [`tls::ServerEngine`] |
//! | [`net`] | `ritm-net` | deterministic discrete-event network simulator with in-path middleboxes |
//! | [`rt`] | `ritm-rt` | std-only readiness-based runtime: reactor, ≤2-thread executor with wakers, incremental frame codecs |
//! | [`proto`] | `ritm-proto` | the versioned RITM wire protocol: request/response envelopes, the transport-agnostic `Service` trait, loopback / simulator / blocking-TCP / event-driven transports with request pipelining |
//! | [`cdn`] | `ritm-cdn` | the dissemination network: origin, TTL edge caches, CloudFront-style billing |
//! | [`ca`] | `ritm-ca` | certification authorities, their crash-durable issuance log, bootstrap manifests, a misbehaving CA |
//! | [`agent`] | `ritm-agent` | the Revocation Agent: the mirror writer, and its one interception lane (`FlowTable`: DPI, Eq. 4 flow state, hold-decide-release stapling, the §VIII multi-RA rule, revoked-flow resets); lock-free status serving with a generation-keyed cache of encoded responses, CDN sync, health/consistency monitoring |
//! | [`fleet`] | `ritm-fleet` | the sharded RA fleet (§VIII): consistent-hash mirror placement with serial-range lanes, signed-root gossip with stale/split-view detection, fleet health aggregation |
//! | [`client`] | `ritm-client` | the RITM client: step-5 validation, 2Δ enforcement, epoch-tagged root tracking (replay protection), downgrade protection |
//! | [`baselines`] | `ritm-baselines` | CRL/OCSP/stapling/CRLSet/SLC/RevCast/log-based comparison models |
//! | [`workloads`] | `ritm-workloads` | ISC CRL, Heartbleed, city-population, PlanetLab synthesizers |
//! | [`core`] | `ritm-core` | end-to-end orchestration: [`core::RitmWorld`], exposing engine epochs and RA cache health |
//!
//! ## The incremental dictionary engine
//!
//! RITM's scaling story rests on RAs answering per-connection proofs
//! locally. Three pieces make that cheap here:
//!
//! 1. **Incremental Merkle updates** — applying a revocation batch rehashes
//!    only the node paths at or after the first changed leaf position
//!    ([`dictionary::tree::MerkleTree::apply_sorted_batch`]); for the
//!    common append-heavy issuance pattern that is O(b·log n) instead of a
//!    full O(n) rebuild (measured ≥20× for a 100-serial batch into a
//!    1M-leaf dictionary; see `crates/bench/benches/dictionary_ops.rs`).
//! 2. **Epochs** — every applied batch advances a monotonic epoch on the
//!    tree and its dictionaries; audit paths are valid exactly while the
//!    epoch is unchanged.
//! 3. **Response caching** — the RA caches the fully encoded response per
//!    `(CA, serial)`, keyed by the publication generation of the CA's
//!    snapshot ([`agent::serve::StatusServer::encoded_status`]), so hot
//!    serials across concurrent connections share one allocation until the
//!    next republish (issuance or freshness refresh). Hit/miss counters
//!    surface through [`agent::monitor::RaHealthReport`], and clients
//!    reject replayed (older-epoch) roots via
//!    [`client::validator::RootTracker`].
//!
//! ## Quickstart
//!
//! ```
//! use ritm::core::{ConnectionOptions, DeploymentModel, RitmWorld};
//!
//! // A world with Δ = 10 s and an RA at the client's access network.
//! let mut world = RitmWorld::new(42, 10, DeploymentModel::CloseToClients);
//!
//! // A healthy connection establishes and keeps receiving fresh statuses.
//! let outcome = world.run_connection(&ConnectionOptions::default());
//! assert!(outcome.alive_at_end);
//!
//! // Once the CA revokes the server's certificate, new connections die.
//! let serial = world.server_serial();
//! world.revoke(serial);
//! let outcome = world.run_connection(&ConnectionOptions::default());
//! assert!(!outcome.alive_at_end);
//! ```

pub use ritm_agent as agent;
pub use ritm_baselines as baselines;
pub use ritm_ca as ca;
pub use ritm_cdn as cdn;
pub use ritm_client as client;
pub use ritm_core as core;
pub use ritm_crypto as crypto;
pub use ritm_dictionary as dictionary;
pub use ritm_fleet as fleet;
pub use ritm_net as net;
pub use ritm_proto as proto;
pub use ritm_rt as rt;
pub use ritm_tls as tls;
pub use ritm_workloads as workloads;
