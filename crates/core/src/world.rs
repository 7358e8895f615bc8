//! A full RITM world: CA + CDN + RA + server + client over the
//! packet-level simulator — the harness behind the examples, the
//! integration tests, and the end-to-end experiments.

use crate::deployment::DeploymentModel;
use crate::nodes::{ClientNode, ServerNode, CLIENT_TICK_TIMER, SERVER_SEND_BASE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{FlowTable, InterceptConfig, RaConfig, RaHealthReport, RevocationAgent};
use ritm_ca::CertificationAuthority;
use ritm_cdn::network::Cdn;
use ritm_cdn::service::EdgeService;
use ritm_client::{AbortReason, RitmClient, RitmClientConfig, RitmEvent};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_net::middlebox::MiddleboxNode;
use ritm_net::sim::{Path, Simulator};
use ritm_net::tcp::{Addr, FourTuple, SocketAddr};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::Loopback;
use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
use ritm_tls::connection::ServerContext;
use ritm_tls::engine::ServerEngine;
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
