//! The write path both writer workloads drive: a real
//! `CertificationAuthority` (write-ahead log attached) publishing into a
//! `Cdn` origin, an `EdgeService` in front of it, and a `RevocationAgent`
//! pulling through some transport. `revocation_storm` mounts the edge on
//! the in-process `Loopback`, `status_churn` on an `EventServer`.

use crate::trace::{Tracer, NO_PARENT};
use crate::world::{self, Dictionary, DELTA, T0};
use crate::wrap::CountingTransport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RetryPolicy, RevocationAgent, SyncPolicy};
use ritm_ca::{CertificationAuthority, IssuanceLog};
use ritm_cdn::{Cdn, EdgeService, Region};
use ritm_crypto::ed25519::{SigningKey, VerifyingKey};
use ritm_dictionary::{CaId, RevocationIssuance, SerialNumber};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::Transport;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// `refresh`: a freshness statement, no new revocations.
    Freshness,
    /// `revoke` a batch of this many fresh serials.
    Revoke(usize),
}

/// What one round did and how long each part took.
pub struct RoundOutcome {
    /// When the CA call started.
    pub started: Instant,
    /// The serials the CA was asked to revoke.
    pub serials: Vec<SerialNumber>,
    /// The issuance the CA returned (revoking rounds).
    pub issuance: Option<RevocationIssuance>,
    /// The CA call succeeded and covered the whole batch.
    pub ca_ok: bool,
    pub ca_call: Duration,
    /// `sync_via_with`, whole call and the part inside the transport.
    pub sync: Option<(Duration, Duration)>,
    /// CA call start → `sync_via_with` returned (or the CA call returned,
    /// on a round the RA misses).
    pub round: Duration,
    /// RA mirror root bit-equal to the CA root, checked after the clock
    /// stopped (synced rounds only).
    pub roots_equal: Option<bool>,
}

pub struct WritePath<T: Transport> {
    pub id: CaId,
    pub key: VerifyingKey,
    pub ca: CertificationAuthority,
    pub edge: Arc<EdgeService>,
    pub ra: RevocationAgent,
    pub transport: CountingTransport<T>,
    /// Simulated seconds; advances by Δ per round.
    pub now: u64,
    rng: StdRng,
    /// Serials to revoke next, as `u24` values.
    fresh: Vec<u32>,
    next_fresh: usize,
    subject_key: VerifyingKey,
    policy: SyncPolicy,
    wal_path: PathBuf,
}

/// What a [`WritePath`] is built from.
pub struct Spec<'a> {
    pub ca_name: &'a str,
    /// Revoked before the run, at dictionary level.
    pub base: &'a [SerialNumber],
    /// Serials to revoke during the run, in order, as `u24` values.
    pub fresh: Vec<u32>,
    pub seed: u64,
    /// Serials per `CatchUpPaged` page.
    pub page_limit: u32,
    pub wal_path: PathBuf,
}

impl<T: Transport> WritePath<T> {
    /// Builds CA → origin → edge and an RA that follows the CA from its
    /// genesis root. The base goes in at dictionary level (no certificate
    /// is issued for it) and is published to the origin as one issuance,
    /// which the RA's first sync pulls. `connect` mounts the edge and
    /// returns the RA's transport to it.
    pub fn build(
        spec: Spec<'_>,
        tracer: &Arc<Tracer>,
        connect: impl FnOnce(&Arc<EdgeService>) -> T,
    ) -> Self {
        let Spec {
            ca_name: name,
            base,
            fresh,
            seed,
            page_limit,
            wal_path,
        } = spec;
        let Dictionary {
            id,
            signing,
            key,
            genesis,
            base,
            dict,
        } = Dictionary::build(name, 3, base, seed);
        let mut cdn = Cdn::new(SimDuration::ZERO);
        let mut ca = CertificationAuthority::with_engine(name, signing, DELTA, dict, &mut cdn);
        cdn.origin
            .publish_issuance(id, &base)
            .expect("the origin accepts the CA's own base issuance");
        let _ = std::fs::remove_file(&wal_path);
        let (wal, _) = IssuanceLog::open(&wal_path).expect("open the CA's write-ahead log");
        ca.attach_wal(wal);
        let edge = Arc::new(EdgeService::new(cdn, Region::Europe, seed));
        let transport = CountingTransport::new(connect(&edge), Arc::clone(tracer));
        let mut ra = world::new_ra();
        ra.follow_ca(id, key, genesis)
            .expect("the genesis root verifies");
        WritePath {
            id,
            key,
            ca,
            edge,
            ra,
            transport,
            now: T0,
            rng: StdRng::seed_from_u64(seed),
            fresh,
            next_fresh: 0,
            subject_key: SigningKey::from_seed([7; 32]).verifying_key(),
            // A failed round trip is a failed operation here, not something
            // to paper over with a retry.
            policy: SyncPolicy {
                retry: RetryPolicy::none(),
                page_limit,
                ..SyncPolicy::default()
            },
            wal_path,
        }
    }

    /// One round: advance the clock by Δ, have the CA revoke a fresh batch
    /// (or refresh), and — unless the RA misses this round — sync the RA.
    /// `record` turns the round's spans on.
    pub fn round(
        &mut self,
        kind: Round,
        sync: bool,
        tracer: &Tracer,
        record: bool,
        op: u64,
    ) -> RoundOutcome {
        self.now += DELTA;
        let now = self.now;
        // Certificates for the batch are issued before the clock starts:
        // the CA only revokes serials it has issued (~0.1 ms each, one
        // signature — generator work, not the system's).
        let serials: Vec<SerialNumber> = match kind {
            Round::Freshness => Vec::new(),
            Round::Revoke(n) => (0..n)
                .map(|_| {
                    self.ca.set_next_serial(self.fresh[self.next_fresh]);
                    self.next_fresh += 1;
                    self.ca
                        .issue_certificate("revoked.example", self.subject_key, T0, u64::MAX)
                        .serial
                })
                .collect(),
        };
        self.edge.set_now(SimTime::from_secs(now));
        tracer.reserve(if record { 64 } else { usize::MAX });
        let root = tracer.open("round", op, NO_PARENT);
        let started = Instant::now();
        let (ca, rng) = (&mut self.ca, &mut self.rng);
        let (issuance, ca_ok) = match kind {
            Round::Freshness => {
                let span = tracer.open("ca.refresh", op, root);
                let r = self.edge.with_cdn(|cdn| ca.refresh(cdn, rng, now));
                tracer.close(span);
                (None, r.is_ok())
            }
            Round::Revoke(_) => {
                let span = tracer.open("ca.revoke", op, root);
                let r = self.edge.with_cdn(|cdn| ca.revoke(&serials, cdn, rng, now));
                tracer.close(span);
                let whole = matches!(&r, Ok(Some(i)) if i.serials.len() == serials.len());
                (r.ok().flatten(), whole)
            }
        };
        let ca_call = started.elapsed();
        let sync = sync.then(|| {
            let span = tracer.open("agent.sync", op, root);
            self.transport.parent = span;
            self.transport.op_id = op;
            let wire_before = self.transport.traffic().inside_ns;
            let t = Instant::now();
            self.ra
                .sync_via_with(&mut self.transport, SimTime::from_secs(now), &self.policy);
            let took = t.elapsed();
            tracer.close(span);
            let wire = self.transport.traffic().inside_ns - wire_before;
            (took, Duration::from_nanos(wire))
        });
        let round = started.elapsed();
        tracer.close(root);
        let roots_equal = sync.map(|_| {
            let mirrored = *self
                .ra
                .mirror_mut(&self.id)
                .expect("the RA follows the CA")
                .signed_root();
            mirrored == *self.ca.dictionary().signed_root()
        });
        RoundOutcome {
            started,
            serials,
            issuance,
            ca_ok,
            ca_call,
            sync,
            round,
            roots_equal,
        }
    }
}

impl<T: Transport> Drop for WritePath<T> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.wal_path);
    }
}
