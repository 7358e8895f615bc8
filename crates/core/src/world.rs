//! A full RITM world: CA + CDN + RA + server + client over the
//! packet-level simulator — the harness behind the examples, the
//! integration tests, and the end-to-end experiments.

use crate::deployment::DeploymentModel;
use crate::nodes::{ClientNode, ServerNode, CLIENT_TICK_TIMER, SERVER_SEND_BASE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ritm_agent::{FlowTable, InterceptConfig, RaConfig, RaHealthReport, RevocationAgent};
use ritm_ca::CertificationAuthority;
use ritm_cdn::network::Cdn;
use ritm_cdn::regions::ALL_REGIONS;
use ritm_cdn::service::EdgeService;
use ritm_cdn::{FleetRouter, RouterStats};
use ritm_client::{
    validate_payload_tracked, AbortReason, RitmClient, RitmClientConfig, RitmEvent,
    ValidationError, Verdict,
};
use ritm_crypto::ed25519::{SigningKey, VerifyingKey};
use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
use ritm_fleet::{lanes_for, FleetHealthReport, FleetNode, FleetService, HashRing, ShardKey};
use ritm_net::middlebox::MiddleboxNode;
use ritm_net::sim::{Path, Simulator};
use ritm_net::tcp::{Addr, FourTuple, SocketAddr};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::message::{split_frame, RequestEnvelope, PROTOCOL_VERSION};
use ritm_proto::{Loopback, RitmRequest, RitmResponse, Service};
use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
use ritm_tls::connection::ServerContext;
use ritm_tls::engine::ServerEngine;
use ritm_workloads::isc::IscDataset;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Options for one simulated connection.
#[derive(Debug, Clone)]
pub struct ConnectionOptions {
    /// Whether an RA sits on the path (false = downgrade scenario).
    pub with_ra: bool,
    /// How long (seconds) to observe the connection after start.
    pub duration_secs: u64,
    /// Server application sends at these offsets (seconds from start).
    pub server_sends_at: Vec<u64>,
    /// Revoke the server's certificate at this offset, if set.
    pub revoke_at: Option<u64>,
    /// One-way WAN latency.
    pub wan_latency: SimDuration,
}

impl Default for ConnectionOptions {
    fn default() -> Self {
        ConnectionOptions {
            with_ra: true,
            duration_secs: 5,
            server_sends_at: Vec::new(),
            revoke_at: None,
            wan_latency: SimDuration::from_millis(30),
        }
    }
}

/// What happened during a simulated connection.
#[derive(Debug)]
pub struct ConnectionOutcome {
    /// Whether the connection was established and survived to the end.
    pub alive_at_end: bool,
    /// Time (seconds from start) the handshake completed, if it did.
    pub established_at: Option<u64>,
    /// Why and when (seconds from start) the client aborted, if it did.
    pub aborted: Option<(u64, AbortReason)>,
    /// All client events with absolute times.
    pub events: Vec<(u64, RitmEvent)>,
    /// Statuses the RA injected during this run.
    pub statuses_injected: u64,
    /// When (seconds from start) the RA reset the connection, if it did
    /// (hard-fail deployments only, see [`RitmWorld::hard_fail`]).
    pub reset_at: Option<u64>,
}

/// The assembled RITM world.
pub struct RitmWorld {
    /// Dissemination period.
    pub delta: u64,
    /// Deployment model in force.
    pub deployment: DeploymentModel,
    /// The CDN.
    pub cdn: Cdn,
    /// The certification authority.
    pub ca: CertificationAuthority,
    /// The RA's write side: mirrors the CA and publishes snapshots.
    pub ra: RevocationAgent,
    /// The RA's interception lane over `ra`'s status server — the
    /// middlebox placed on simulated paths, shared by every connection.
    /// Soft-fail by default (a revoked status is stapled and the *client*
    /// aborts), which is what the scenarios asserting the client's own
    /// verdict need; see [`RitmWorld::hard_fail`].
    pub lane: Rc<RefCell<FlowTable>>,
    /// The server's certificate chain.
    pub server_chain: CertificateChain,
    /// Current world time (Unix seconds).
    pub now: u64,
    /// The client population's shared newest-accepted-epoch record,
    /// threaded through every connection for cross-connection replay
    /// protection.
    pub root_tracker: ritm_client::RootTracker,
    rng: StdRng,
    server_ctx: Arc<ServerContext>,
    connection_counter: u16,
}

/// Simulation epoch (an arbitrary 2014 date, matching the datasets).
pub const EPOCH: u64 = 1_397_000_000;

impl RitmWorld {
    /// Builds a world: CA registered with the CDN, one server certificate
    /// issued, RA bootstrapped and synced.
    pub fn new(seed: u64, delta: u64, deployment: DeploymentModel) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cdn = Cdn::new(SimDuration::from_secs(delta.clamp(1, 60)));
        let mut ca = CertificationAuthority::new(
            "WorldCA",
            SigningKey::from_seed([11u8; 32]),
            delta,
            1 << 16,
            &mut cdn,
            &mut rng,
            EPOCH,
        );
        let server_key = SigningKey::from_seed([12u8; 32]);
        let leaf = ca.issue_certificate(
            "example.com",
            server_key.verifying_key(),
            EPOCH - 1_000,
            EPOCH + 365 * 86_400,
        );
        let server_chain = CertificateChain(vec![leaf]);

        let mut ra = RevocationAgent::new(RaConfig {
            delta,
            ..Default::default()
        });
        ra.follow_ca(ca.id(), ca.verifying_key(), *ca.dictionary().signed_root())
            .expect("genesis bootstrap");
        let lane = Rc::new(RefCell::new(Self::lane_over(&ra, delta, false)));

        let server_ctx = if deployment.server_confirms() {
            ServerContext::new_ritm_terminator(server_chain.clone(), [7u8; 20])
        } else {
            ServerContext::new(server_chain.clone(), [7u8; 20])
        };

        let mut world = RitmWorld {
            delta,
            deployment,
            cdn,
            ca,
            ra,
            lane,
            server_chain,
            now: EPOCH,
            root_tracker: ritm_client::RootTracker::new(),
            rng,
            server_ctx,
            connection_counter: 0,
        };
        world.refresh_and_sync();
        world
    }

    fn lane_over(ra: &RevocationAgent, delta: u64, reset_revoked: bool) -> FlowTable {
        FlowTable::new(
            ra.status_server(),
            InterceptConfig {
                delta,
                reset_revoked,
                ..InterceptConfig::default()
            },
        )
    }

    /// Switches the RA to the hard-fail deployment: a flow whose chain is
    /// revoked is reset in both directions by the RA itself instead of
    /// being handed the presence proof.
    pub fn hard_fail(mut self) -> Self {
        self.lane = Rc::new(RefCell::new(Self::lane_over(&self.ra, self.delta, true)));
        self
    }

    /// The server certificate's serial.
    pub fn server_serial(&self) -> SerialNumber {
        self.server_chain.0[0].serial
    }

    /// The CA dictionary's current content epoch (every revocation batch
    /// advances it).
    pub fn dictionary_epoch(&self) -> u64 {
        self.ca.dictionary().epoch()
    }

    /// Operational snapshot of the shared RA, including encoded-cache
    /// hit/miss counters.
    pub fn ra_health(&self) -> RaHealthReport {
        self.ra.health_report()
    }

    /// CA publishes its current refresh and the RA pulls (one Δ cycle).
    pub fn refresh_and_sync(&mut self) {
        self.ca
            .refresh(&mut self.cdn, &mut self.rng, self.now)
            .expect("origin accepts refresh");
        self.sync_ra();
    }

    /// One RA sync pass over the wire protocol: the world's CDN is exposed
    /// as a borrowed [`EdgeService`] behind an in-process loopback
    /// transport, so the RA moves exactly the envelope bytes a remote
    /// deployment would.
    fn sync_ra(&mut self) {
        use rand::RngCore;
        let region = self.ra.config.region;
        let service = EdgeService::new(&mut self.cdn, region, self.rng.next_u64());
        service.set_now(SimTime::from_secs(self.now));
        let mut transport = Loopback::new(service);
        self.ra
            .sync_via(&mut transport, SimTime::from_secs(self.now));
    }

    /// Exposes the world's RA read path as a real event-driven OS-socket
    /// endpoint: one `EventServer` on ≤2 threads, multiplexing any number
    /// of external client connections over the same lock-free
    /// `StatusServer` the simulated middlebox uses. This is how a
    /// simulated world is wired to real (possibly pipelining) clients —
    /// statuses served here verify against exactly the roots the in-path
    /// deployment injects.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn serve_statuses_event(&self) -> std::io::Result<ritm_proto::EventServer> {
        let service = ritm_agent::StatusService::new(self.ra.status_server());
        ritm_proto::EventServer::spawn(Arc::new(service), 2)
    }

    /// Like [`RitmWorld::serve_statuses_event`], but onto an existing
    /// shared runtime: several worlds' endpoints (or an RA alongside a CA
    /// and an edge) multiplex onto ONE reactor/executor pair, keeping a
    /// whole multi-endpoint process within the 2-thread budget. The
    /// caller owns the runtime; shutting the returned server down drains
    /// only its own tasks.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn serve_statuses_event_on(
        &self,
        handle: &ritm_rt::Handle,
    ) -> std::io::Result<ritm_proto::EventServer> {
        let service = ritm_agent::StatusService::new(self.ra.status_server());
        ritm_proto::EventServer::spawn_on(
            Arc::new(service),
            handle,
            ritm_proto::EventServerConfig::default(),
        )
    }

    /// Advances world time by `secs`, running the Δ dissemination cycle at
    /// each boundary.
    pub fn advance(&mut self, secs: u64) {
        let target = self.now + secs;
        while self.now + self.delta <= target {
            self.now += self.delta;
            self.refresh_and_sync();
        }
        self.now = target;
    }

    /// Revokes a certificate and immediately syncs the RA (the state after
    /// a completed dissemination cycle).
    pub fn revoke(&mut self, serial: SerialNumber) {
        self.publish_revocation(serial);
        self.sync_ra();
    }

    /// Revokes a certificate at the CA/CDN only; RAs learn of it at their
    /// next periodic pull — the realistic mid-period case that makes the
    /// attack window 2Δ rather than Δ.
    pub fn publish_revocation(&mut self, serial: SerialNumber) {
        self.ca
            .revoke(&[serial], &mut self.cdn, &mut self.rng, self.now)
            .expect("serial was issued");
    }

    /// Issues another server certificate (for multi-server scenarios).
    pub fn issue_certificate(&mut self, subject: &str) -> Certificate {
        let key = SigningKey::from_seed([13u8; 32]);
        self.ca.issue_certificate(
            subject,
            key.verifying_key(),
            self.now - 100,
            self.now + 365 * 86_400,
        )
    }

    fn client_config(&self) -> RitmClientConfig {
        let mut anchors = TrustAnchors::new();
        anchors.add(self.ca.id(), self.ca.verifying_key());
        let mut ca_keys: HashMap<CaId, ritm_crypto::ed25519::VerifyingKey> = HashMap::new();
        ca_keys.insert(self.ca.id(), self.ca.verifying_key());
        RitmClientConfig {
            server_name: "example.com".into(),
            anchors,
            ca_keys,
            delta: self.delta,
            policy: self.deployment.client_policy(),
        }
    }

    /// Runs one client connection through the simulated network.
    pub fn run_connection(&mut self, opts: &ConnectionOptions) -> ConnectionOutcome {
        self.connection_counter += 1;
        let client_port = 9_000 + self.connection_counter;
        let tuple = FourTuple {
            client: SocketAddr::new(0x0a00_0001, client_port),
            server: SocketAddr::new(0x0a00_0002, 443),
        };

        let start = self.now;
        // Carry the world's root tracker into the client so epoch-replay
        // protection spans connections, and harvest it back afterwards.
        let client = RitmClient::with_root_tracker(
            self.client_config(),
            [self.connection_counter as u8; 32],
            None,
            self.root_tracker.clone(),
        );
        let client_node = Rc::new(RefCell::new(ClientNode::new(client, tuple)));
        let server_conn = ServerEngine::new(self.server_ctx.clone(), [42u8; 32]);
        let server_node = Rc::new(RefCell::new(ServerNode::new(server_conn, tuple)));

        let mut sim = Simulator::new();
        sim.set_now(SimTime::from_secs(start));
        let c_id = sim.add_node(Box::new(client_node.clone()));
        let s_id = sim.add_node(Box::new(server_node.clone()));
        let [h1, h2] = self.deployment.hop_latencies(opts.wan_latency);
        if opts.with_ra {
            let ra_id = sim.add_node(Box::new(MiddleboxNode::new(self.lane.clone())));
            sim.add_path(
                Addr(0x0a00_0001),
                Addr(0x0a00_0002),
                Path::new(vec![c_id, ra_id, s_id], vec![h1, h2]),
            );
        } else {
            sim.add_path(
                Addr(0x0a00_0001),
                Addr(0x0a00_0002),
                Path::new(vec![c_id, s_id], vec![h1 + h2]),
            );
        }

        // Schedule server sends and the client's policy tick.
        for (k, offset) in opts.server_sends_at.iter().enumerate() {
            server_node
                .borrow_mut()
                .schedule_payload(format!("payload-{k}").into_bytes());
            sim.arm_timer(
                s_id,
                SimDuration::from_secs(*offset),
                SERVER_SEND_BASE + k as u64,
            );
        }
        sim.arm_timer(c_id, SimDuration::from_secs(1), CLIENT_TICK_TIMER);
        client_node.borrow_mut().remaining_ticks = opts.duration_secs as u32 + 2;

        let statuses_before = self.lane.borrow().stats().statuses_injected;

        // Kick off the handshake.
        let first = client_node.borrow_mut().start_segment();
        sim.inject(c_id, first);

        // Interleave packet processing (1-second steps) with the Δ-periodic
        // dissemination cycle. A revocation is published at the CA as soon
        // as it is due, but RAs only learn of it at their next pull —
        // preserving the genuine up-to-2Δ exposure.
        let end = start + opts.duration_secs;
        let mut t = start;
        let mut next_sync = start + self.delta;
        while t < end {
            t += 1;
            sim.run_until(SimTime::from_secs(t));
            self.now = t;
            if let Some(rev_at) = opts.revoke_at {
                if start + rev_at <= t && !self.ca.is_revoked(&self.server_serial()) {
                    self.publish_revocation(self.server_serial());
                }
            }
            if t >= next_sync {
                self.refresh_and_sync();
                next_sync += self.delta;
            }
        }
        sim.run_until(SimTime::from_secs(end));
        self.now = end;

        let statuses_after = self.lane.borrow().stats().statuses_injected;

        let node = client_node.borrow();
        self.root_tracker = node.client.root_tracker().clone();
        let events: Vec<(u64, RitmEvent)> = node.events.clone();
        let established_at = events
            .iter()
            .find(|(_, e)| matches!(e, RitmEvent::Established { .. }))
            .map(|(t, _)| t - start);
        let aborted = events.iter().find_map(|(t, e)| match e {
            RitmEvent::Aborted(r) => Some((t - start, r.clone())),
            _ => None,
        });
        ConnectionOutcome {
            alive_at_end: node.client.is_established() && node.reset_at.is_none(),
            established_at,
            aborted,
            events,
            statuses_injected: statuses_after - statuses_before,
            reset_at: node.reset_at.map(|t| t - start),
        }
    }
}

// ===================== The fleet scenario (§VIII) =====================

/// Options for the closed-loop fleet scenario: a sharded RA fleet serving
/// a Zipf population of status-fetching clients for one simulated day.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Deterministic seed for CA keys, workloads, and latency draws.
    pub seed: u64,
    /// Fleet size (number of RA shards).
    pub shards: usize,
    /// Number of CA dictionaries (a prefix of the ISC CRL distribution).
    pub cas: usize,
    /// Total revocations across all CAs (the ISC sizes are rescaled so
    /// they sum to this).
    pub revocations: u64,
    /// Simulated clients; each performs one status fetch for the day.
    pub clients: u64,
    /// Distinct `(CA, serial)` pairs the population asks about.
    pub hot_serials: usize,
    /// Zipf skew of serial popularity across the hot set.
    pub zipf_s: f64,
    /// Replica budget per placement point (the owner plus
    /// `replicas - 1` successors).
    pub replicas: usize,
    /// Revocations per serving lane: CAs above this split their request
    /// load across multiple owners (storage stays whole per owner).
    pub lane_threshold: u64,
    /// Kill the busiest shard halfway through the run (router spillover
    /// must absorb its load).
    pub kill_shard_midway: bool,
    /// Pin one shard a full issuance batch behind on the largest CA — the
    /// stale-RA injection both gossip and clients must catch.
    pub stale_shard: bool,
    /// Run full signature validation on every Nth request. Root freshness
    /// is tracked on *every* request regardless, so a stale root is never
    /// accepted even between full validations.
    pub validate_every: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            seed: 1,
            shards: 4,
            cas: 12,
            revocations: 60_000,
            clients: 1_000_000,
            hot_serials: 4096,
            zipf_s: 1.05,
            replicas: 2,
            lane_threshold: 8_000,
            kill_shard_midway: true,
            stale_shard: true,
            validate_every: 1024,
        }
    }
}

/// What one closed-loop fleet run produced (the Fig. 7-style aggregates).
#[derive(Debug)]
pub struct FleetRunReport {
    /// Clients simulated.
    pub clients: u64,
    /// Status requests actually served (retries included).
    pub requests: u64,
    /// Total wire bytes moved (request + response frames).
    pub bytes_total: u64,
    /// Wire bytes per user for the simulated day.
    pub bytes_per_user_day: f64,
    /// Fleet-wide hit fraction of the encoded `GetStatus` response caches.
    pub encoded_hit_rate: f64,
    /// Per-shard encoded-cache hit fraction, in fleet-name order.
    pub per_shard_encoded_hit_rate: Vec<(String, f64)>,
    /// Mean status latency (milliseconds, sampled per request).
    pub mean_status_latency_ms: f64,
    /// 99th-percentile status latency (milliseconds).
    pub p99_status_latency_ms: f64,
    /// Router counters (spillover, cross-region, unroutable).
    pub router: RouterStats,
    /// Serves a client refused because the root was stale (or the shard
    /// could not prove the chain); each one shuns the shard and retries.
    pub stale_rejections: u64,
    /// Requests that ran the full signature-validation path.
    pub full_validations: u64,
    /// Full validations whose verdict was `Revoked`.
    pub revoked_seen: u64,
    /// The shard killed mid-run, if any.
    pub killed_shard: Option<String>,
    /// The shard pinned at a stale root, if any.
    pub stale_shard: Option<String>,
    /// The aggregated fleet health report after the closing gossip round.
    pub health: FleetHealthReport,
}

/// Placement facts for one CA in the fleet.
#[derive(Debug, Clone, Copy)]
struct FleetCa {
    id: CaId,
    lanes: u16,
    revocations: u64,
}

/// Serial scheme: CA `k`'s revoked serials are the even offsets
/// `(k+1) << 40 | (i << 1)`; odd offsets are never issued, so they
/// exercise the absence-proof path.
fn fleet_serial(ca_index: usize, i: u64, revoked: bool) -> SerialNumber {
    let v = ((ca_index as u64 + 1) << 40) | (i << 1) | u64::from(!revoked);
    SerialNumber::from_u64(v)
}

fn fleet_ca_seed(seed: u64, ca_index: usize) -> [u8; 32] {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&seed.to_be_bytes());
    s[8..16].copy_from_slice(&(ca_index as u64).to_be_bytes());
    s[16] = 0xFC;
    s
}

/// A sharded RA fleet under closed-loop client load: the §VIII deployment
/// at population scale. CAs are sized like the ISC CRL distribution,
/// mirrors are placed by the consistent-hash ring (giant CAs spread their
/// serving load across lanes), requests route region-first with replica
/// spillover, and signed-root gossip cross-checks every shard's view.
pub struct FleetWorld {
    /// Fleet members (`ra-0`, `ra-1`, …), each a full revocation agent.
    pub nodes: Vec<FleetNode>,
    /// The CDN-side router over the fleet's hash ring.
    pub router: FleetRouter<HashRing>,
    /// Per-CA verification keys (what clients pin).
    pub ca_keys: HashMap<CaId, VerifyingKey>,
    /// Dissemination period Δ.
    pub delta: u64,
    /// World time (Unix seconds) the statuses are validated against.
    pub now: u64,
    cas: Vec<FleetCa>,
    rng: StdRng,
    stale_node: Option<String>,
    /// The fresh mirror the stale shard is resynced from mid-run.
    heal: Option<(CaId, VerifyingKey, MirrorDictionary)>,
}

impl FleetWorld {
    /// Builds the fleet: ISC-shaped CA dictionaries, one mirror built per
    /// CA and *cloned* into every ring owner (O(n) per CA, not per
    /// replica), regions assigned round-robin, and a first gossip round so
    /// every ledger starts from the fleet-wide view.
    pub fn new(opts: &FleetOptions) -> Self {
        assert!(opts.shards >= 2, "a fleet needs at least two shards");
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let delta = 10;

        // ISC-shaped CA sizes, rescaled to the requested total.
        let isc = IscDataset::synthesize();
        let taken: u64 = isc.sizes.iter().take(opts.cas).sum();
        let sizes: Vec<u64> = isc
            .sizes
            .iter()
            .take(opts.cas)
            .map(|s| (s * opts.revocations / taken).max(1))
            .collect();

        let names: Vec<String> = (0..opts.shards).map(|i| format!("ra-{i}")).collect();
        let mut nodes: Vec<FleetNode> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let region = ALL_REGIONS[i % ALL_REGIONS.len()];
                FleetNode::new(
                    name,
                    region,
                    RevocationAgent::new(RaConfig { delta, region }),
                )
            })
            .collect();
        let ring = HashRing::with_nodes(&names);
        let mut router = FleetRouter::new(ring, opts.replicas);
        for node in &nodes {
            router.set_home(Arc::from(node.name()), node.region());
        }
        // The stale pin goes on whichever shard owns the largest CA's
        // first lane — guaranteed to be on the serving path for hot
        // traffic, so the lag is client-visible in any fleet geometry.
        let stale_node = opts.stale_shard.then(|| {
            let point = ShardKey {
                ca: CaId::from_name("FleetCA-0"),
                lane: 0,
            }
            .point();
            router
                .topology()
                .owner(point)
                .expect("non-empty ring")
                .to_string()
        });

        let mut cas = Vec::with_capacity(sizes.len());
        let mut ca_keys = HashMap::new();
        let mut heal = None;
        for (k, &size) in sizes.iter().enumerate() {
            let key = SigningKey::from_seed(fleet_ca_seed(opts.seed, k));
            let id = CaId::from_name(&format!("FleetCA-{k}"));
            let mut ca = CaDictionary::new(id, key.clone(), delta, 1 << 12, &mut rng, EPOCH);
            let genesis = *ca.signed_root();
            let mut mirror =
                MirrorDictionary::new(id, key.verifying_key(), genesis).expect("genesis mirror");
            mirror.set_delta(delta);

            // Two issuance batches; the clone taken in between is what a
            // stale shard gets pinned at.
            let head = (size * 9 / 10).max(1);
            let batch1: Vec<SerialNumber> = (0..head).map(|i| fleet_serial(k, i, true)).collect();
            let iss1 = ca
                .insert(&batch1, &mut rng, EPOCH + 1)
                .expect("fresh serials");
            mirror
                .apply_issuance(&iss1, EPOCH + 1)
                .expect("mirror accepts");
            let stale_mirror = mirror.clone();
            if size > head {
                let batch2: Vec<SerialNumber> =
                    (head..size).map(|i| fleet_serial(k, i, true)).collect();
                let iss2 = ca
                    .insert(&batch2, &mut rng, EPOCH + 2)
                    .expect("fresh serials");
                mirror
                    .apply_issuance(&iss2, EPOCH + 2)
                    .expect("mirror accepts");
            }

            // Owners: the union of every lane's candidate set. Lanes shard
            // the serving load of giant CAs; each owner mirrors the whole
            // dictionary (proofs need the full tree).
            let lanes = lanes_for(size, opts.lane_threshold);
            let mut owners: Vec<std::sync::Arc<str>> = Vec::new();
            for lane in 0..lanes {
                let point = ShardKey { ca: id, lane }.point();
                for cand in router.topology().candidates(point, opts.replicas) {
                    if !owners.contains(&cand) {
                        owners.push(cand);
                    }
                }
            }
            for owner in owners {
                let node = nodes
                    .iter_mut()
                    .find(|n| n.name() == &*owner)
                    .expect("ring nodes are fleet nodes");
                // The stale shard is pinned one batch behind on the
                // largest CA only — everything else it serves is fresh,
                // which is exactly what makes the lag hard to spot without
                // gossip.
                let pin_here = k == 0 && stale_node.as_deref() == Some(&*owner);
                node.adopt(
                    id,
                    key.verifying_key(),
                    if pin_here {
                        stale_mirror.clone()
                    } else {
                        mirror.clone()
                    },
                );
            }
            ca_keys.insert(id, key.verifying_key());
            if k == 0 && stale_node.is_some() {
                heal = Some((id, key.verifying_key(), mirror.clone()));
            }
            cas.push(FleetCa {
                id,
                lanes,
                revocations: size,
            });
        }
        for node in &nodes {
            node.publish_local();
        }

        let world = FleetWorld {
            nodes,
            router,
            ca_keys,
            delta,
            now: EPOCH + 3,
            cas,
            rng,
            stale_node,
            heal,
        };
        world.gossip_round();
        world
    }

    /// One full-mesh gossip round over in-process loopback transports:
    /// every node pushes its served roots to every peer and folds the acks
    /// into its ledger.
    pub fn gossip_round(&self) {
        let services: Vec<(String, Arc<FleetService>)> = self
            .nodes
            .iter()
            .map(|n| (n.name().to_string(), n.service()))
            .collect();
        for node in &self.nodes {
            for (peer, svc) in &services {
                if peer == node.name() {
                    continue;
                }
                let mut transport = Loopback::new(Arc::clone(svc));
                let _ = node.gossip_with(peer, &mut transport);
            }
        }
    }

    /// The aggregated fleet health report (per-shard caches, sync totals,
    /// gossip verdict).
    pub fn health(&self) -> FleetHealthReport {
        FleetHealthReport::aggregate(self.nodes.iter())
    }

    /// Runs the closed loop: `opts.clients` Zipf-distributed clients each
    /// fetch one certificate status through the region-aware router; roots
    /// are freshness-tracked on every serve (a stale root is never
    /// accepted — the client shuns the shard and the router spills over),
    /// full signature validation is sampled, one shard dies mid-run, and
    /// the run closes with a gossip round and the fleet health aggregate.
    pub fn run(&mut self, opts: &FleetOptions) -> FleetRunReport {
        // Popularity model: hot (CA, serial) pairs — CA drawn by
        // dictionary size, serial half revoked / half absent — under a
        // Zipf rank distribution (rank 0 most popular).
        let ca_total: u64 = self.cas.iter().map(|c| c.revocations).sum();
        let ca_cdf: Vec<u64> = self
            .cas
            .iter()
            .scan(0u64, |acc, c| {
                *acc += c.revocations;
                Some(*acc)
            })
            .collect();
        let hot: Vec<(CaId, SerialNumber, u64)> = (0..opts.hot_serials)
            .map(|_| {
                let t = self.rng.gen_range(0..ca_total);
                let k = ca_cdf.partition_point(|&c| c <= t);
                let c = self.cas[k];
                let idx = self.rng.gen_range(0..c.revocations);
                let revoked = self.rng.gen::<f64>() < 0.5;
                let serial = fleet_serial(k, idx, revoked);
                let point = ShardKey::for_serial(c.id, &serial, c.lanes).point();
                (c.id, serial, point)
            })
            .collect();
        let zipf_cdf: Vec<f64> = (0..opts.hot_serials)
            .scan(0.0f64, |acc, r| {
                *acc += 1.0 / ((r + 1) as f64).powf(opts.zipf_s);
                Some(*acc)
            })
            .collect();
        let zipf_total = *zipf_cdf.last().expect("non-empty hot set");
        let region_cdf: Vec<f64> = ALL_REGIONS
            .iter()
            .scan(0.0f64, |acc, r| {
                *acc += r.population_share();
                Some(*acc)
            })
            .collect();

        let services: Vec<Arc<FleetService>> = self.nodes.iter().map(|n| n.service()).collect();
        let node_index: HashMap<String, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name().to_string(), i))
            .collect();

        let mut latencies_us: Vec<u32> = Vec::with_capacity(opts.clients as usize);
        let mut bytes_total = 0u64;
        let mut tracker = ritm_client::RootTracker::new();
        let mut stale_rejections = 0u64;
        let mut full_validations = 0u64;
        let mut revoked_seen = 0u64;
        let mut killed: Option<String> = None;
        let kill_at = opts.kill_shard_midway.then_some(opts.clients / 2);

        for r in 0..opts.clients {
            if Some(r) == kill_at {
                // Operators resync the stale shard (gossip flagged it and
                // clients shunned it) and bring it back before the outage:
                // at most one node is ever down, so every point keeps a
                // live replica.
                if let (Some(stale), Some((ca0, key, fresh))) = (&self.stale_node, &self.heal) {
                    let idx = node_index[stale.as_str()];
                    self.nodes[idx].adopt(*ca0, *key, fresh.clone());
                    self.nodes[idx].publish_local();
                    self.router.mark_up(&Arc::from(stale.as_str()));
                }
                // Kill the shard serving the hottest key (the worst case
                // for spillover) — skipping any node already shunned.
                let victim = self
                    .router
                    .topology()
                    .candidates(hot[0].2, opts.shards)
                    .into_iter()
                    .find(|n| !self.router.is_down(n));
                if let Some(victim) = victim {
                    killed = Some(victim.to_string());
                    self.router.mark_down(victim);
                }
            }

            let u = self.rng.gen::<f64>() * zipf_total;
            let (ca, serial, point) = hot[zipf_cdf
                .partition_point(|&c| c <= u)
                .min(opts.hot_serials - 1)];
            let ur = self.rng.gen::<f64>();
            let region = ALL_REGIONS[region_cdf
                .partition_point(|&c| c <= ur)
                .min(ALL_REGIONS.len() - 1)];

            // Serve, with one retry through the router when the shard's
            // answer is unusable (stale root, unprovable chain).
            for _attempt in 0..2 {
                let Some(route) = self.router.route(region, point) else {
                    break;
                };
                let idx = node_index[&*route.node];
                let req = RitmRequest::GetStatus { ca, serial };
                bytes_total += req.encoded_len() as u64 + 4;
                // The entry a deployed event server uses, so the shard's
                // encoded-response cache is the one exercised (and counted).
                let frame = services[idx]
                    .serve_envelope(RequestEnvelope {
                        reply_version: PROTOCOL_VERSION,
                        request_id: 0,
                        request: Ok(req),
                    })
                    .to_vec();
                bytes_total += frame.len() as u64;
                let resp = split_frame(&frame)
                    .ok()
                    .and_then(|(body, _)| RitmResponse::decode_body(body).ok());
                let model = if route.cross_region {
                    region.origin_latency()
                } else {
                    region.edge_latency()
                };
                let lat = model.sample(&mut self.rng).as_micros();
                latencies_us.push(lat.min(u64::from(u32::MAX)) as u32);

                let accepted = match &resp {
                    Some(RitmResponse::Status(payload)) => {
                        if r % opts.validate_every == 0 {
                            full_validations += 1;
                            match validate_payload_tracked(
                                payload,
                                &[(ca, serial)],
                                &self.ca_keys,
                                self.delta,
                                self.now,
                                &mut tracker,
                            ) {
                                Ok(verdict) => {
                                    if matches!(verdict, Verdict::Revoked { .. }) {
                                        revoked_seen += 1;
                                    }
                                    true
                                }
                                Err(ValidationError::RootRegression { .. }) => false,
                                Err(_) => false,
                            }
                        } else {
                            // The cheap always-on check: the served root
                            // must never regress behind the newest one the
                            // population has accepted.
                            payload
                                .primary_root()
                                .is_some_and(|root| tracker.observe(root).is_ok())
                        }
                    }
                    _ => false,
                };
                if accepted {
                    break;
                }
                // The shard served something unacceptable: shun it and let
                // the router spill the retry to a replica.
                stale_rejections += 1;
                self.router.mark_down(route.node);
            }
        }

        self.gossip_round();
        let health = self.health();
        let per_shard_encoded_hit_rate: Vec<(String, f64)> = health
            .shards
            .iter()
            .map(|s| (s.node.clone(), s.ra.encoded_hit_rate()))
            .collect();

        let requests = latencies_us.len() as u64;
        let mean_us = if latencies_us.is_empty() {
            0.0
        } else {
            latencies_us.iter().map(|&l| f64::from(l)).sum::<f64>() / requests as f64
        };
        latencies_us.sort_unstable();
        let p99_us = latencies_us
            .get(((requests * 99 / 100) as usize).min(latencies_us.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0);

        FleetRunReport {
            clients: opts.clients,
            requests,
            bytes_total,
            bytes_per_user_day: bytes_total as f64 / opts.clients as f64,
            encoded_hit_rate: health.encoded_hit_rate(),
            per_shard_encoded_hit_rate,
            mean_status_latency_ms: mean_us / 1_000.0,
            p99_status_latency_ms: f64::from(p99_us) / 1_000.0,
            router: self.router.stats(),
            stale_rejections,
            full_validations,
            revoked_seen,
            killed_shard: killed,
            stale_shard: self.stale_node.clone(),
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_connection_survives() {
        let mut w = RitmWorld::new(1, 10, DeploymentModel::CloseToClients);
        let out = w.run_connection(&ConnectionOptions {
            duration_secs: 25,
            server_sends_at: vec![5, 12, 22],
            ..Default::default()
        });
        assert_eq!(out.established_at, Some(0));
        assert!(out.alive_at_end, "events: {:?}", out.events);
        assert!(out.aborted.is_none());
        assert!(out.statuses_injected >= 2, "initial + periodic refresh");
    }

    #[test]
    fn pre_revoked_certificate_is_refused() {
        let mut w = RitmWorld::new(2, 10, DeploymentModel::CloseToClients);
        let serial = w.server_serial();
        w.revoke(serial);
        let out = w.run_connection(&ConnectionOptions::default());
        match out.aborted {
            Some((_, AbortReason::Revoked { serial: s })) => assert_eq!(s, serial),
            other => panic!("expected revocation abort, got {other:?}"),
        }
        assert!(!out.alive_at_end);
    }

    #[test]
    fn mid_connection_revocation_detected_within_two_delta() {
        let mut w = RitmWorld::new(3, 10, DeploymentModel::CloseToClients);
        let out = w.run_connection(&ConnectionOptions {
            duration_secs: 60,
            // Keep traffic flowing so the RA has packets to piggyback on.
            server_sends_at: vec![5, 11, 15, 21, 25, 31, 35, 41, 45, 51],
            revoke_at: Some(12),
            ..Default::default()
        });
        let (t, reason) = out.aborted.expect("must abort after revocation");
        assert!(matches!(reason, AbortReason::Revoked { .. }), "{reason:?}");
        assert!(
            (12..=12 + 2 * 10 + 1).contains(&t),
            "revoked at +12s, aborted at +{t}s (must be within 2Δ)"
        );
    }

    #[test]
    fn downgrade_without_ra_aborts_under_always_require() {
        let mut w = RitmWorld::new(4, 10, DeploymentModel::CloseToClients);
        let out = w.run_connection(&ConnectionOptions {
            with_ra: false,
            duration_secs: 5,
            ..Default::default()
        });
        assert!(matches!(out.aborted, Some((_, AbortReason::MissingStatus))));
    }

    #[test]
    fn close_to_servers_model_works_end_to_end() {
        let mut w = RitmWorld::new(5, 10, DeploymentModel::CloseToServers);
        let out = w.run_connection(&ConnectionOptions {
            duration_secs: 15,
            server_sends_at: vec![12],
            ..Default::default()
        });
        assert!(out.alive_at_end, "events: {:?}", out.events);
        // And without the RA, the terminator's confirmation is absent, so
        // RequireIfServerConfirms lets the plain connection through.
        let mut w2 = RitmWorld::new(6, 10, DeploymentModel::CloseToServers);
        let out2 = w2.run_connection(&ConnectionOptions {
            with_ra: false,
            duration_secs: 5,
            ..Default::default()
        });
        assert!(out2.aborted.is_some() || out2.alive_at_end);
    }

    #[test]
    fn root_tracker_follows_the_epoch_across_connections() {
        let mut w = RitmWorld::new(8, 10, DeploymentModel::CloseToClients);
        let epoch0 = w.dictionary_epoch();

        // Several connections to the same server, each with periodic
        // statuses for the same hot serial.
        for _ in 0..3 {
            let out = w.run_connection(&ConnectionOptions {
                duration_secs: 12,
                server_sends_at: vec![5, 11],
                ..Default::default()
            });
            assert!(out.alive_at_end, "events: {:?}", out.events);
        }

        // The accepted dictionary epoch persists across connections: the
        // world-level tracker remembers the newest root every client saw.
        let (size0, _) = w
            .root_tracker
            .newest(&w.ca.id())
            .expect("tracker advanced by accepted statuses");
        assert_eq!(size0, 0, "no revocations yet");

        // A revocation batch advances the epoch: the next status proves
        // against the new root.
        let victim = w.issue_certificate("other.example").serial;
        w.revoke(victim);
        assert!(w.dictionary_epoch() > epoch0);
        let out = w.run_connection(&ConnectionOptions {
            duration_secs: 3,
            ..Default::default()
        });
        assert!(out.alive_at_end, "events: {:?}", out.events);
        let (size1, _) = w.root_tracker.newest(&w.ca.id()).expect("tracker kept");
        assert!(size1 > size0, "tracker must follow the advanced epoch");
    }

    #[test]
    fn event_endpoint_serves_real_sockets_from_the_simulated_world() {
        use ritm_client::validator::Verdict;

        let mut w = RitmWorld::new(9, 10, DeploymentModel::CloseToClients);
        let victim = w.server_serial();
        w.revoke(victim);
        let clean = w.issue_certificate("ok.example").serial;

        // Real OS sockets against the simulated world's RA: a pipelined
        // flight of two chains, both validating against the same roots the
        // in-path middlebox injects.
        let server = w.serve_statuses_event().unwrap();
        assert!(server.thread_count() <= 2);
        let mut transport = ritm_proto::EventTransport::connect(server.addr()).unwrap();
        let mut keys: HashMap<CaId, ritm_crypto::ed25519::VerifyingKey> = HashMap::new();
        keys.insert(w.ca.id(), w.ca.verifying_key());
        let revoked_chain = [(w.ca.id(), victim)];
        let clean_chain = [(w.ca.id(), clean)];
        let chains: [&[(CaId, SerialNumber)]; 2] = [&revoked_chain, &clean_chain];
        let mut tracker = w.root_tracker.clone();
        let results = ritm_client::fetch_and_validate_many(
            &mut transport,
            &chains,
            &keys,
            w.delta,
            w.now,
            &mut tracker,
        );
        assert!(matches!(
            results[0].as_ref().unwrap().verdict,
            Verdict::Revoked { serial, .. } if serial == victim
        ));
        assert_eq!(results[1].as_ref().unwrap().verdict, Verdict::AllValid);
        drop(transport);
        assert_eq!(server.shutdown(), 2);
    }

    #[test]
    fn two_worlds_share_one_event_runtime() {
        use ritm_client::validator::Verdict;

        // Two independent simulated worlds expose their RA read paths on
        // ONE shared 2-thread runtime — the multi-endpoint deployment
        // shape (one middlebox process, several listeners).
        let runtime = ritm_rt::Runtime::new(2);
        let handle = runtime.handle();
        let mut w1 = RitmWorld::new(11, 10, DeploymentModel::CloseToClients);
        let mut w2 = RitmWorld::new(12, 10, DeploymentModel::CloseToClients);
        let victim = w1.server_serial();
        w1.revoke(victim);
        let clean = w2.issue_certificate("fine.example").serial;

        let s1 = w1.serve_statuses_event_on(&handle).unwrap();
        let s2 = w2.serve_statuses_event_on(&handle).unwrap();
        assert_eq!(s1.thread_count(), 2);
        assert_eq!(s2.thread_count(), 2);

        for (w, server, serial, expect_revoked) in
            [(&w1, &s1, victim, true), (&w2, &s2, clean, false)]
        {
            let mut transport = ritm_proto::EventTransport::connect(server.addr()).unwrap();
            let mut keys: HashMap<CaId, ritm_crypto::ed25519::VerifyingKey> = HashMap::new();
            keys.insert(w.ca.id(), w.ca.verifying_key());
            let chain = [(w.ca.id(), serial)];
            let mut tracker = w.root_tracker.clone();
            let fetched = ritm_client::fetch_and_validate(
                &mut transport,
                &chain,
                &keys,
                w.delta,
                w.now,
                &mut tracker,
            )
            .expect("fetch over the shared runtime");
            if expect_revoked {
                assert!(
                    matches!(fetched.verdict, Verdict::Revoked { serial: s, .. } if s == serial)
                );
            } else {
                assert_eq!(fetched.verdict, Verdict::AllValid);
            }
        }
        assert_eq!(s1.shutdown(), 1);
        assert_eq!(s2.shutdown(), 1);
        runtime.shutdown();
    }

    #[test]
    fn fleet_scenario_serves_detects_staleness_and_spills_over() {
        let opts = FleetOptions {
            seed: 5,
            shards: 3,
            cas: 6,
            revocations: 3_000,
            clients: 60_000,
            hot_serials: 512,
            lane_threshold: 500,
            validate_every: 256,
            ..Default::default()
        };
        let mut world = FleetWorld::new(&opts);

        // The pinned shard is already visible to gossip after the build's
        // opening round.
        let pinned = world.stale_node.clone().expect("stale shard configured");
        let pre = world.health();
        assert!(
            pre.stale_peers.contains(&pinned),
            "gossip must flag the pinned shard {pinned}: {:?}",
            pre.stale_peers
        );

        let report = world.run(&opts);
        assert_eq!(report.clients, 60_000);
        assert!(report.requests >= report.clients);
        assert!(report.bytes_per_user_day > 0.0);
        // Measured 0.986 on this seed (512 hot serials, one republish when
        // the stale shard heals); the threshold leaves a margin below it.
        assert!(
            report.encoded_hit_rate > 0.95,
            "hot Zipf traffic must hit the encoded cache: {}",
            report.encoded_hit_rate
        );
        assert_eq!(report.per_shard_encoded_hit_rate.len(), 3);
        assert!(report.p99_status_latency_ms >= report.mean_status_latency_ms);
        assert!(report.full_validations > 0);
        assert!(report.revoked_seen > 0, "half the hot set is revoked");

        // The mid-run kill forces replica spillover, and the stale shard's
        // replayed root is rejected by the population's tracker.
        assert!(report.killed_shard.is_some());
        assert!(report.router.spilled > 0, "{:?}", report.router);
        assert_eq!(report.stale_shard.as_deref(), Some(pinned.as_str()));
        assert!(
            report.stale_rejections > 0,
            "clients must refuse the stale root"
        );
        // The heal-and-rejoin path: staleness was flagged during the run
        // (the cumulative counter keeps the evidence) but the resynced
        // shard gossips back and the closing round converges.
        assert!(report.health.gossip.stale_peers > 0);
        assert!(
            report.health.is_converged(),
            "{:?}",
            report.health.stale_peers
        );
    }

    #[test]
    fn idle_connection_starves_and_client_interrupts() {
        // No server traffic → no piggyback opportunities → the client's own
        // 2Δ staleness check fires (blocking-attack resilience).
        let mut w = RitmWorld::new(7, 5, DeploymentModel::CloseToClients);
        let out = w.run_connection(&ConnectionOptions {
            duration_secs: 30,
            server_sends_at: vec![],
            ..Default::default()
        });
        match out.aborted {
            Some((t, AbortReason::StaleStatus)) => {
                assert!(t > 2 * 5 && t <= 2 * 5 + 3, "aborted at +{t}s");
            }
            other => panic!("expected staleness abort, got {other:?}"),
        }
    }
}
