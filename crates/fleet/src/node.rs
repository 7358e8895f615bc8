//! One fleet member: a [`RevocationAgent`] bound to a name, a home
//! region, and a gossip ledger, plus the wire service that answers both
//! status and gossip requests for it.

use std::sync::{Arc, Mutex};

use ritm_agent::{RevocationAgent, StatusService, SyncReport};
use ritm_cdn::Region;
use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, MirrorDictionary, SignedRoot, UpdateError};
use ritm_proto::message::RequestEnvelope;
use ritm_proto::{
    Frame, ProtoError, RitmRequest, RitmResponse, Service, Transport, TransportError,
    MAX_GOSSIP_ROOTS,
};

use crate::gossip::{GossipAnomaly, RootLedger};
use crate::health::{ShardHealth, SyncTotals};

/// Peer label inbound gossip is recorded under. The wire format carries
/// no sender identity (roots are self-certifying, so none is needed);
/// precise attribution happens on the *initiating* side, which knows who
/// it dialed.
pub const INBOUND_PEER: &str = "inbound";

/// One RA in the fleet: the agent itself plus its fleet identity and
/// gossip state.
#[derive(Debug)]
pub struct FleetNode {
    name: String,
    region: Region,
    /// The node's revocation agent (public: scenarios sync and mutate it
    /// directly, exactly like a standalone RA).
    pub ra: RevocationAgent,
    ledger: Arc<Mutex<RootLedger>>,
    sync: SyncTotals,
}

impl FleetNode {
    /// Creates a node with its own (empty) gossip ledger.
    pub fn new(name: &str, region: Region, ra: RevocationAgent) -> Self {
        FleetNode {
            name: name.to_string(),
            region,
            ra,
            ledger: Arc::new(Mutex::new(RootLedger::new())),
            sync: SyncTotals::default(),
        }
    }

    /// The node's fleet name (its ring identity).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's home region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The node's gossip ledger (shared with its [`FleetService`]).
    pub fn ledger(&self) -> &Arc<Mutex<RootLedger>> {
        &self.ledger
    }

    /// Starts mirroring a CA from its genesis root, pinning `key` for
    /// gossip verification.
    ///
    /// # Errors
    ///
    /// Propagates the mirror bootstrap failure.
    pub fn follow(
        &mut self,
        ca: CaId,
        key: VerifyingKey,
        genesis: SignedRoot,
    ) -> Result<(), UpdateError> {
        self.ra.follow_ca(ca, key, genesis)?;
        self.ledger()
            .lock()
            .expect("ledger lock")
            .register_ca(ca, key);
        Ok(())
    }

    /// Installs an already-built mirror (fleet bootstrap clones one
    /// mirror per CA instead of re-applying the issuance N times) and
    /// pins its key.
    pub fn adopt(&mut self, ca: CaId, key: VerifyingKey, mirror: MirrorDictionary) {
        self.ra.install_mirror(ca, mirror);
        self.ledger
            .lock()
            .expect("ledger lock")
            .register_ca(ca, key);
    }

    /// The signed roots this node currently *serves*, one per mirrored CA
    /// (sorted by CA id for deterministic wire order).
    pub fn local_roots(&self) -> Vec<(CaId, SignedRoot)> {
        let mut cas: Vec<CaId> = self.ra.followed_cas().copied().collect();
        cas.sort_by_key(|ca| ca.0);
        cas.into_iter()
            .filter_map(|ca| self.ra.mirror(&ca).map(|m| (ca, *m.signed_root())))
            .collect()
    }

    /// Folds this node's own served roots into its ledger — the baseline
    /// its gossip partners are compared against.
    pub fn publish_local(&self) {
        let roots = self.local_roots();
        self.ledger
            .lock()
            .expect("ledger lock")
            .observe(&self.name, &roots);
    }

    /// One outbound gossip exchange with `peer` over `transport`: pushes
    /// this node's served roots, folds the peer's
    /// [`GossipAck`](RitmResponse::GossipAck) into the ledger under the
    /// peer's name. Returns `Ok(None)` when the peer answered with a
    /// protocol error (a pre-gossip server, not an outage).
    ///
    /// # Errors
    ///
    /// Transport failures (the peer is down or the connection broke).
    pub fn gossip_with<T: Transport>(
        &self,
        peer: &str,
        transport: &mut T,
    ) -> Result<Option<Vec<GossipAnomaly>>, TransportError> {
        let local = self.local_roots();
        let mut anomalies = Vec::new();
        // An empty mirror set still gossips once (pure pull).
        let chunks: Vec<&[(CaId, SignedRoot)]> = if local.is_empty() {
            vec![&[]]
        } else {
            local.chunks(MAX_GOSSIP_ROOTS).collect()
        };
        for chunk in chunks {
            let req = RitmRequest::GossipRoots {
                roots: chunk.to_vec(),
            };
            let rt = transport.round_trip(&req)?;
            match rt.response {
                RitmResponse::GossipAck { roots } => {
                    let mut ledger = self.ledger.lock().expect("ledger lock");
                    anomalies.extend(ledger.observe(peer, &roots));
                }
                RitmResponse::Error(_) => return Ok(None),
                _ => {
                    return Err(TransportError::NoResponse);
                }
            }
        }
        Ok(Some(anomalies))
    }

    /// Accumulates a sync report into the node's fleet-health totals.
    pub fn record_sync(&mut self, report: &SyncReport) {
        self.sync.syncs += 1;
        self.sync.retries += report.retries;
        self.sync.gave_up += report.gave_up;
        self.sync.transport_failures += report.transport_failures;
        self.sync.bytes_downloaded += report.bytes_downloaded;
    }

    /// Sync totals so far.
    pub fn sync_totals(&self) -> SyncTotals {
        self.sync
    }

    /// This shard's slice of the fleet health report.
    pub fn health(&self) -> ShardHealth {
        ShardHealth {
            node: self.name.clone(),
            region: self.region,
            ra: self.ra.health_report(),
            sync: self.sync,
        }
    }

    /// The wire service for this node: status kinds answered from the
    /// RA's lock-free snapshots, gossip answered from the ledger. The
    /// service captures the node's *current* CA set; rebuild it after
    /// following new CAs.
    pub fn service(&self) -> Arc<FleetService> {
        let mut cas: Vec<CaId> = self.ra.followed_cas().copied().collect();
        cas.sort_by_key(|ca| ca.0);
        Arc::new(FleetService {
            status: StatusService::new(self.ra.status_server()),
            ledger: Arc::clone(&self.ledger),
            cas,
        })
    }
}

/// The fleet node's wire service: a [`StatusService`] plus the gossip
/// exchange. Cheap to clone behind an `Arc` into an event server.
#[derive(Debug)]
pub struct FleetService {
    status: StatusService,
    ledger: Arc<Mutex<RootLedger>>,
    cas: Vec<CaId>,
}

impl FleetService {
    /// The signed roots currently served, read from the lock-free
    /// publication cells (so the answer is correct even while the owning
    /// RA is mid-sync on another thread).
    fn served_roots(&self) -> Vec<(CaId, SignedRoot)> {
        self.cas
            .iter()
            .filter_map(|ca| {
                self.status
                    .server()
                    .snapshot(ca)
                    .map(|snap| (*ca, *snap.signed_root()))
            })
            .take(MAX_GOSSIP_ROOTS)
            .collect()
    }
}

impl Service for FleetService {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        match req {
            RitmRequest::GossipRoots { roots } => {
                self.ledger
                    .lock()
                    .expect("ledger lock")
                    .observe(INBOUND_PEER, &roots);
                RitmResponse::GossipAck {
                    roots: self.served_roots(),
                }
            }
            other => self.status.handle(other),
        }
    }

    /// Everything but gossip goes to [`StatusService::serve_envelope`], so
    /// a fleet shard answers hot statuses from the encoded-response cache
    /// exactly like a standalone RA (the default would rebuild and
    /// re-encode through [`Service::handle`]).
    fn serve_envelope(&self, env: RequestEnvelope) -> Frame {
        match &env.request {
            Ok(RitmRequest::GossipRoots { .. }) => Frame::from_bytes(self.handle_envelope(env)),
            _ => self.status.serve_envelope(env),
        }
    }
}

/// A gossip-only peer endpoint for tests and harnesses: acks with a fixed
/// root vector, never updates. Useful for injecting split views and
/// pinned-stale peers.
#[derive(Debug)]
pub struct PinnedGossipPeer {
    /// The roots this peer stubbornly serves.
    pub roots: Vec<(CaId, SignedRoot)>,
}

impl Service for PinnedGossipPeer {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        match req {
            RitmRequest::GossipRoots { .. } => RitmResponse::GossipAck {
                roots: self.roots.clone(),
            },
            _ => RitmResponse::Error(ProtoError::Unsupported),
        }
    }
}
