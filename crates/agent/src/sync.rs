//! RA ↔ CDN synchronization (paper §III "Dissemination" + §VI: "Every Δ,
//! each RA contacts an edge server via an HTTP GET request to pull new
//! revocations and freshness statements").
//!
//! The RA speaks *only* [`ritm_proto::RitmRequest`] envelopes through a
//! [`Transport`] ([`RevocationAgent::sync_via`]): the same sync pass runs
//! against an in-process `Loopback` over a CDN `EdgeService`, a `ritm-net`
//! simulated path, or a real TCP connection, moving byte-identical frames.
//!
//! One Δ is one conditional pull per CA: `Pull` reports the consecutive
//! revocations the mirror holds (§III: "the number of valid consecutive
//! revocations it has observed"), and the `Update` answering it carries
//! what the mirror lacks — the serials after that count up to a batch
//! boundary, under the root the CA signed there, and the CA's current
//! refresh message. An up-to-date RA downloads its freshness statement
//! and nothing else; a gap of any size closes in pages, pulled again while
//! the server says serials remain. Every CA's pull goes out in one
//! pipelined flight ([`Transport::round_trip_many`]; multiplexed by request
//! id on an envelope-v2 peer), so a round costs ~1 RTT however many CAs the
//! RA mirrors. The per-Δ download measured here is exactly what Fig. 7
//! plots, as encoded envelope bytes, and the billed traffic feeds Fig. 6 /
//! Table II.
//!
//! Retries are accounted, not waited: a failed round trip's backoff
//! ([`RetryPolicy`]) is charged to [`SyncReport::backoff`] as simulated
//! time and never slept. A sync pass is a plain synchronous call with no
//! clock of its own, so over a real socket a failed pull is re-sent at
//! once, up to [`RetryPolicy::max_attempts`] times in one pass; a driver
//! that wants wall-clock spacing spaces the passes it runs (one per Δ).

use crate::ra::RevocationAgent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ritm_dictionary::{CaId, RevocationIssuance};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::{
    ProtoError, RitmRequest, RitmResponse, RoundTrip, Transport, TransportMeta, Update,
};

/// Bounded retry with exponential backoff and jitter, applied to every
/// round trip of a sync pass. A failed round trip (no decodable response)
/// is re-sent up to [`RetryPolicy::max_attempts`] times total; the pause
/// before attempt *k* is `base · 2^(k-2)` capped at [`RetryPolicy::cap`],
/// with equal jitter (half fixed, half uniform) drawn from a seeded
/// stream so a failing pass replays deterministically. Pauses are charged
/// to the report as simulated time ([`SyncReport::backoff`]), consistent
/// with how every other latency in the stack is accounted, and never
/// slept: over a real socket the retries of one pass go out back to back.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request, the first included (1 = no retry).
    pub max_attempts: u32,
    /// Backoff unit before the first retry.
    pub base: SimDuration,
    /// Upper bound on a single backoff pause.
    pub cap: SimDuration,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_secs(2),
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every round trip gets exactly one attempt.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// The pause charged before attempt `attempt` (2-based; attempt 1 is
    /// the original send and pauses nothing).
    fn backoff(&self, attempt: u32, rng: &mut StdRng) -> SimDuration {
        let exp = attempt.saturating_sub(2).min(20);
        let raw = (self.base * (1u64 << exp))
            .as_micros()
            .min(self.cap.as_micros());
        let half = raw / 2;
        SimDuration::from_micros(half + rng.gen_range(0..=half.max(1)))
    }
}

/// Everything a sync pass can be tuned on.
#[derive(Debug, Clone, Copy)]
pub struct SyncPolicy {
    /// Per-round-trip retry behaviour.
    pub retry: RetryPolicy,
    /// Serials requested per `Pull` page. The default is the
    /// protocol-wide [`ritm_proto::MAX_PAGE_LIMIT`], the largest page a
    /// server will serve — any gap then converges in the fewest pages
    /// that each still fit [`ritm_proto::MAX_FRAME_LEN`].
    pub page_limit: u32,
    /// Hard cap on pages pulled per CA per pass — a backstop against a
    /// misbehaving server feeding an endless page stream.
    pub max_pages: u32,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy {
            retry: RetryPolicy::default(),
            page_limit: ritm_proto::MAX_PAGE_LIMIT,
            max_pages: 10_000,
        }
    }
}

/// Result of one periodic sync pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SyncReport {
    /// Total response-envelope bytes downloaded this pass (the Fig. 7
    /// y-axis: every byte the RA's access link actually received).
    pub bytes_downloaded: u64,
    /// Total request-envelope bytes uploaded this pass.
    pub bytes_uploaded: u64,
    /// Issuance batches applied.
    pub issuances_applied: u64,
    /// New revocations learned.
    pub revocations_applied: u64,
    /// Freshness statements applied.
    pub freshness_applied: u64,
    /// CAs whose gap did not fit one page, so their pull continued.
    pub catchups: u64,
    /// Pages those continued pulls applied (a gap wider than the page
    /// limit arrives as that many `Update`s).
    pub catchup_pages: u64,
    /// Messages that failed verification (or arrived as the wrong response
    /// kind) and were discarded.
    pub rejected: u64,
    /// Round trips that produced no decodable response at all (socket
    /// failure, dropped segments, protocol version the RA cannot parse),
    /// counted per attempt — a request that fails twice and then lands
    /// contributes 2 here and 2 to [`SyncReport::retries`].
    pub transport_failures: u64,
    /// Failed round trips that were re-sent under the retry policy.
    pub retries: u64,
    /// Requests abandoned after exhausting every retry attempt.
    pub gave_up: u64,
    /// Accumulated download latency as the transport observed it,
    /// including [`SyncReport::backoff`].
    pub latency: SimDuration,
    /// Simulated time spent pausing between retry attempts.
    pub backoff: SimDuration,
}

impl SyncReport {
    fn absorb(&mut self, meta: &TransportMeta) {
        self.bytes_downloaded += meta.response_bytes;
        self.bytes_uploaded += meta.request_bytes;
        self.latency = self.latency + meta.latency;
    }
}

/// Sends `reqs` as one pipelined flight, then re-sends only the failed
/// entries (with backoff) until everything has a response or the policy's
/// attempts are exhausted. Returns one slot per request — `None` means
/// abandoned; byte/latency accounting for every successful round trip is
/// already absorbed into `report`.
fn flight_with_retry<T: Transport>(
    transport: &mut T,
    reqs: &[RitmRequest],
    policy: &RetryPolicy,
    rng: &mut StdRng,
    report: &mut SyncReport,
) -> Vec<Option<RoundTrip>> {
    let mut slots: Vec<Option<RoundTrip>> = reqs.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..reqs.len()).collect();
    let mut attempt = 1u32;
    loop {
        let batch: Vec<RitmRequest> = pending.iter().map(|&i| reqs[i].clone()).collect();
        let results = transport.round_trip_many(&batch);
        let mut still = Vec::new();
        for (&i, result) in pending.iter().zip(results) {
            match result {
                Ok(rt) => {
                    report.absorb(&rt.meta);
                    slots[i] = Some(rt);
                }
                // An *error response* is authoritative and lands in the
                // slot above; only transport-level failures retry.
                Err(_) => {
                    report.transport_failures += 1;
                    still.push(i);
                }
            }
        }
        pending = still;
        if pending.is_empty() || attempt >= policy.max_attempts {
            report.gave_up += pending.len() as u64;
            return slots;
        }
        attempt += 1;
        report.retries += pending.len() as u64;
        let pause = policy.backoff(attempt, rng);
        report.backoff = report.backoff + pause;
        report.latency = report.latency + pause;
    }
}

impl RevocationAgent {
    /// One periodic pull (every Δ) over the wire protocol: one `Pull` per
    /// mirrored CA, all in one pipelined flight; each `Update`'s serials
    /// are applied under its signed root, then its refresh message. A CA
    /// whose update says serials remain is pulled again, with every other
    /// such CA, in a further flight.
    ///
    /// A missing feed ([`ProtoError::NotFound`] — the CA has published
    /// nothing yet) is benign; any other error response, undecodable
    /// message, or failed verification is counted in the report, and
    /// leaves that CA's mirror as the last verified update left it.
    ///
    /// Every round trip runs under the default [`SyncPolicy`]: failed
    /// flights re-send only their failed entries with exponential backoff
    /// and jitter instead of silently dropping the round, and gaps close in
    /// pages that each fit a frame, so no gap — however large — dead-ends.
    /// Use [`RevocationAgent::sync_via_with`] to tune the policy.
    pub fn sync_via<T: Transport>(&mut self, transport: &mut T, now: SimTime) -> SyncReport {
        self.sync_via_with(transport, now, &SyncPolicy::default())
    }

    /// [`RevocationAgent::sync_via`] with an explicit [`SyncPolicy`].
    pub fn sync_via_with<T: Transport>(
        &mut self,
        transport: &mut T,
        now: SimTime,
        policy: &SyncPolicy,
    ) -> SyncReport {
        let mut report = SyncReport::default();
        let mut rng = StdRng::seed_from_u64(policy.retry.jitter_seed);
        // Each CA still pulling, with the pages its pull has applied.
        let mut pulling: Vec<(CaId, u32)> = self.followed_cas().map(|&ca| (ca, 0)).collect();
        while !pulling.is_empty() {
            let reqs: Vec<RitmRequest> = pulling
                .iter()
                .map(|&(ca, _)| RitmRequest::Pull {
                    ca,
                    have: self
                        .mirror(&ca)
                        .expect("followed ca has a mirror")
                        .consecutive_count(),
                    limit: policy.page_limit,
                })
                .collect();
            let replies = flight_with_retry(transport, &reqs, &policy.retry, &mut rng, &mut report);
            let mut again = Vec::new();
            for ((ca, pages), reply) in pulling.into_iter().zip(replies) {
                // `None` = retries exhausted, already accounted as gave_up.
                let Some(rt) = reply else { continue };
                match rt.response {
                    RitmResponse::Update(update) => {
                        let pages =
                            self.apply_update(ca, update, pages, now.as_secs(), &mut report);
                        if let Some(pages) = pages {
                            if pages < policy.max_pages {
                                again.push((ca, pages));
                            } else {
                                report.rejected += 1;
                            }
                        }
                    }
                    RitmResponse::Error(ProtoError::NotFound) => {}
                    _ => report.rejected += 1,
                }
            }
            pulling = again;
        }
        report
    }

    /// Applies one `Update` for `ca`, whose pull has applied `pages` pages
    /// before it: the serials (numbered from the mirror's count + 1) under
    /// the carried root, then the refresh message. Returns the pages
    /// applied so far when serials remain and the pull should go on. An
    /// update with serials but no root (or a root but no serials), one
    /// that fails verification, or one claiming serials remain while
    /// carrying none counts as rejected and ends the pull.
    fn apply_update(
        &mut self,
        ca: CaId,
        update: Update,
        pages: u32,
        now_secs: u64,
        report: &mut SyncReport,
    ) -> Option<u32> {
        let Update {
            serials,
            signed_root,
            remaining,
            refresh,
        } = update;
        // One guard: the snapshot is republished once, when it drops.
        let mut mirror = self.mirror_mut(&ca).expect("followed ca has a mirror");
        let applied = match (signed_root, serials.len() as u64) {
            (None, 0) => false,
            (Some(signed_root), n) if n > 0 => {
                let issuance = RevocationIssuance {
                    first_number: mirror.consecutive_count() + 1,
                    serials,
                    signed_root,
                };
                if mirror.apply_issuance(&issuance, now_secs).is_err() {
                    report.rejected += 1;
                    return None;
                }
                report.issuances_applied += 1;
                report.revocations_applied += n;
                if pages > 0 || remaining > 0 {
                    report.catchups += u64::from(pages == 0);
                    report.catchup_pages += 1;
                }
                true
            }
            _ => {
                report.rejected += 1;
                return None;
            }
        };
        if let Some(msg) = refresh {
            match mirror.apply_refresh(&msg, now_secs) {
                Ok(()) => report.freshness_applied += 1,
                Err(_) => report.rejected += 1,
            }
        }
        match remaining {
            0 => None,
            // Serials remain, yet none came: the pull cannot progress.
            _ if !applied => {
                report.rejected += 1;
                None
            }
            _ => Some(pages + 1),
        }
    }
}

/// The sync fixture, shared with [`crate::persist`]'s tests.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ra::RaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_ca::CertificationAuthority;
    use ritm_cdn::network::Cdn;
    use ritm_cdn::service::EdgeService;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{RefreshMessage, SerialNumber};
    use ritm_proto::Loopback;

    pub(crate) const T0: u64 = 1_000_000;

    pub(crate) struct World {
        pub(crate) ca: CertificationAuthority,
        pub(crate) cdn: Cdn,
        pub(crate) ra: RevocationAgent,
        pub(crate) rng: StdRng,
    }

    pub(crate) fn world() -> World {
        let mut rng = StdRng::seed_from_u64(31);
        let mut cdn = Cdn::new(SimDuration::from_secs(5));
        let ca = CertificationAuthority::new(
            "SyncCA",
            SigningKey::from_seed([3u8; 32]),
            10,
            1 << 16,
            &mut cdn,
            &mut rng,
            T0,
        );
        let mut ra = RevocationAgent::new(RaConfig {
            delta: 10,
            ..Default::default()
        });
        ra.follow_ca(ca.id(), ca.verifying_key(), *ca.dictionary().signed_root())
            .unwrap();
        World { ca, cdn, ra, rng }
    }

    /// One sync pass over the real protocol: borrowed edge service behind
    /// an in-process loopback transport.
    pub(crate) fn sync(w: &mut World, now: u64) -> SyncReport {
        let region = w.ra.config.region;
        let service = EdgeService::new(&mut w.cdn, region, 17);
        service.set_now(SimTime::from_secs(now));
        let mut transport = Loopback::new(service);
        w.ra.sync_via(&mut transport, SimTime::from_secs(now))
    }

    pub(crate) fn issue_and_revoke(w: &mut World, subjects: core::ops::Range<u32>, now: u64) {
        let key = SigningKey::from_seed([7u8; 32]).verifying_key();
        let serials: Vec<SerialNumber> = subjects
            .map(|i| {
                w.ca.issue_certificate(&format!("s{i}.com"), key, 0, u64::MAX)
                    .serial
            })
            .collect();
        w.ca.revoke(&serials, &mut w.cdn, &mut w.rng, now).unwrap();
    }

    #[test]
    fn sync_applies_new_revocations_and_freshness() {
        let mut w = world();
        issue_and_revoke(&mut w, 0..5, T0 + 1);
        // A period later: the batch and the period's statement together.
        w.ca.refresh(&mut w.cdn, &mut w.rng, T0 + 11).unwrap();

        let report = sync(&mut w, T0 + 11);
        assert_eq!(report.issuances_applied, 1);
        assert_eq!(report.revocations_applied, 5);
        assert_eq!(report.freshness_applied, 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.transport_failures, 0);
        assert!(report.bytes_downloaded > 0);
        assert!(report.bytes_uploaded > 0);
        assert!(report.latency > SimDuration::ZERO, "edge latency charged");
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 5);
        assert_eq!(
            w.ra.mirror(&w.ca.id()).unwrap().signed_root(),
            w.ca.dictionary().signed_root()
        );
    }

    #[test]
    fn repeated_sync_is_idempotent() {
        let mut w = world();
        issue_and_revoke(&mut w, 0..3, T0 + 1);
        sync(&mut w, T0 + 2);
        let second = sync(&mut w, T0 + 3);
        assert_eq!(second.issuances_applied, 0, "nothing new to apply");
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 3);
    }

    /// The exact frame an `Update` travels in.
    fn update_frame_len(update: Update) -> u64 {
        RitmResponse::Update(update).to_frame().len() as u64
    }

    #[test]
    fn missed_batches_arrive_in_the_same_flight() {
        let mut w = world();
        // Two batches published while the RA was offline.
        issue_and_revoke(&mut w, 0..4, T0 + 1);
        issue_and_revoke(&mut w, 4..9, T0 + 2);

        let report = sync(&mut w, T0 + 3);
        // One update carries both batches under the head root: no
        // discarded bundle, no second flight, nothing to page.
        assert_eq!(
            (report.issuances_applied, report.revocations_applied),
            (1, 9)
        );
        assert_eq!(
            (report.catchups, report.catchup_pages, report.rejected),
            (0, 0, 0)
        );
        let mirror = w.ra.mirror(&w.ca.id()).unwrap();
        assert_eq!(mirror.signed_root(), w.ca.dictionary().signed_root());
        assert_eq!(
            report.bytes_downloaded,
            update_frame_len(Update {
                serials: mirror.issuance_since(0).serials,
                signed_root: Some(*mirror.signed_root()),
                ..Update::default()
            })
        );
    }

    #[test]
    fn an_idle_round_moves_no_serial_and_no_root() {
        let mut w = world();
        issue_and_revoke(&mut w, 0..3, T0 + 1);
        sync(&mut w, T0 + 2);
        let fresh = w.ca.refresh(&mut w.cdn, &mut w.rng, T0 + 11).unwrap();
        let RefreshMessage::Freshness(statement) = fresh else {
            panic!("a 2^16-link chain does not rotate after one period");
        };

        let idle = sync(&mut w, T0 + 11);
        assert_eq!((idle.revocations_applied, idle.freshness_applied), (0, 1));
        assert_eq!(
            idle.bytes_downloaded,
            update_frame_len(Update {
                refresh: Some(fresh),
                ..Update::default()
            })
        );
        assert!(
            idle.bytes_downloaded < ritm_dictionary::root::SIGNED_ROOT_LEN as u64,
            "no signed root in {} bytes",
            idle.bytes_downloaded
        );
        assert!(idle.bytes_downloaded + idle.bytes_uploaded <= 50);
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().freshness(), &statement);
    }

    #[test]
    fn an_edge_behind_the_ra_leaves_the_mirror_untouched() {
        let mut w = world();
        issue_and_revoke(&mut w, 0..4, T0 + 1);
        // A second CDN that saw only the first batch, before the second.
        let mut behind = Cdn::new(SimDuration::from_secs(5));
        behind.origin.register_ca(w.ca.id(), w.ca.verifying_key());
        let first = w.ca.dictionary().issuance_since(0);
        behind.origin.publish_issuance(w.ca.id(), &first).unwrap();
        issue_and_revoke(&mut w, 4..9, T0 + 2);
        sync(&mut w, T0 + 3);
        let before = w.ra.mirror(&w.ca.id()).unwrap().clone();

        let service = EdgeService::new(&mut behind, w.ra.config.region, 17);
        service.set_now(SimTime::from_secs(T0 + 4));
        let report =
            w.ra.sync_via(&mut Loopback::new(service), SimTime::from_secs(T0 + 4));
        assert_eq!(report.rejected, 0);
        assert_eq!(report.revocations_applied + report.freshness_applied, 0);
        let after = w.ra.mirror(&w.ca.id()).unwrap();
        assert_eq!(after.len(), before.len());
        assert_eq!(after.signed_root(), before.signed_root());
        assert_eq!(after.freshness(), before.freshness());
    }

    #[test]
    fn fig7_shape_freshness_dominates_quiet_periods() {
        // During a quiet Δ the pull is ~tens of bytes (the freshness
        // statement); during a revocation burst it grows with the batch
        // (the Fig. 7 contrast). Volumes are true envelope bytes.
        let mut w = world();
        issue_and_revoke(&mut w, 0..1, T0 + 1);
        sync(&mut w, T0 + 2);

        w.ca.refresh(&mut w.cdn, &mut w.rng, T0 + 12).unwrap();
        let quiet = sync(&mut w, T0 + 12);

        issue_and_revoke(&mut w, 1..1001, T0 + 21);
        let burst = sync(&mut w, T0 + 22);
        assert!(
            burst.bytes_downloaded > 10 * quiet.bytes_downloaded,
            "burst {} vs quiet {}",
            burst.bytes_downloaded,
            quiet.bytes_downloaded
        );
    }

    #[test]
    fn chain_rotation_followed() {
        // A short chain forces NewRoot rotations; the RA must keep up.
        let mut rng = StdRng::seed_from_u64(77);
        let mut cdn = Cdn::new(SimDuration::from_secs(5));
        let mut ca = CertificationAuthority::new(
            "RotCA",
            SigningKey::from_seed([8u8; 32]),
            10,
            3,
            &mut cdn,
            &mut rng,
            T0,
        );
        let mut ra = RevocationAgent::new(RaConfig {
            delta: 10,
            ..Default::default()
        });
        ra.follow_ca(ca.id(), ca.verifying_key(), *ca.dictionary().signed_root())
            .unwrap();
        // 5 periods later the chain (length 3) is exhausted → NewRoot.
        let msg = ca.refresh(&mut cdn, &mut rng, T0 + 50).unwrap();
        assert!(matches!(msg, RefreshMessage::NewRoot(_)));
        let service = EdgeService::new(&mut cdn, ra.config.region, 5);
        service.set_now(SimTime::from_secs(T0 + 50));
        let mut transport = Loopback::new(service);
        let report = ra.sync_via(&mut transport, SimTime::from_secs(T0 + 50));
        // The rotated root arrives in the refresh slot: no serials moved.
        assert_eq!((report.freshness_applied, report.issuances_applied), (1, 0));
        assert_eq!(
            report.bytes_downloaded,
            update_frame_len(Update {
                refresh: Some(msg),
                ..Update::default()
            })
        );
        assert_eq!(
            ra.mirror(&ca.id()).unwrap().signed_root(),
            ca.dictionary().signed_root()
        );
    }

    /// Records the batch size of every flight the RA issues.
    struct Recording<T> {
        inner: T,
        batches: Vec<usize>,
    }

    impl<T: Transport> Transport for Recording<T> {
        fn round_trip(
            &mut self,
            req: &RitmRequest,
        ) -> Result<ritm_proto::RoundTrip, ritm_proto::TransportError> {
            self.batches.push(1);
            self.inner.round_trip(req)
        }

        fn round_trip_many(
            &mut self,
            reqs: &[RitmRequest],
        ) -> Vec<Result<ritm_proto::RoundTrip, ritm_proto::TransportError>> {
            self.batches.push(reqs.len());
            self.inner.round_trip_many(reqs)
        }
    }

    #[test]
    fn sync_round_is_one_pipelined_flight() {
        let mut w = world();
        // A second CA beside the first, both with batches the RA missed:
        // one flight carries one pull per CA, and nothing follows it.
        let mut other = CertificationAuthority::new(
            "OtherCA",
            SigningKey::from_seed([4u8; 32]),
            10,
            1 << 16,
            &mut w.cdn,
            &mut w.rng,
            T0,
        );
        w.ra.follow_ca(
            other.id(),
            other.verifying_key(),
            *other.dictionary().signed_root(),
        )
        .unwrap();
        issue_and_revoke(&mut w, 0..4, T0 + 1);
        issue_and_revoke(&mut w, 4..9, T0 + 2);
        let key = SigningKey::from_seed([7u8; 32]).verifying_key();
        let serial = other.issue_certificate("o.com", key, 0, u64::MAX).serial;
        other
            .revoke(&[serial], &mut w.cdn, &mut w.rng, T0 + 2)
            .unwrap();
        let region = w.ra.config.region;
        let service = EdgeService::new(&mut w.cdn, region, 17);
        service.set_now(SimTime::from_secs(T0 + 3));
        let mut transport = Recording {
            inner: Loopback::new(service),
            batches: Vec::new(),
        };
        let report = w.ra.sync_via(&mut transport, SimTime::from_secs(T0 + 3));
        assert_eq!((report.revocations_applied, report.rejected), (10, 0));
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 9);
        assert_eq!(w.ra.mirror(&other.id()).unwrap().len(), 1);
        assert_eq!(transport.batches, vec![2], "one pull per CA, one flight");
    }

    #[test]
    fn flaky_transport_retries_only_failed_requests() {
        // Across a deterministic band of fault seeds the sync must (a) see
        // real injected failures, (b) recover from them by retrying, and
        // (c) leave the mirror fully converged whenever it did not give up.
        let mut saw_failures = false;
        let mut saw_recovery = false;
        for seed in 0..32u64 {
            let mut w = world();
            issue_and_revoke(&mut w, 0..20, T0 + 1);
            w.ca.refresh(&mut w.cdn, &mut w.rng, T0 + 11).unwrap();
            let region = w.ra.config.region;
            let service = EdgeService::new(&mut w.cdn, region, 17);
            service.set_now(SimTime::from_secs(T0 + 11));
            let mut transport = ritm_proto::FaultTransport::new(
                Loopback::new(service),
                ritm_proto::FaultPlan::lossy(0.6),
                seed,
            );
            let report = w.ra.sync_via(&mut transport, SimTime::from_secs(T0 + 11));
            saw_failures |= report.transport_failures > 0;
            if report.transport_failures > 0 && report.gave_up == 0 {
                saw_recovery = true;
                assert!(report.retries > 0, "seed {seed}: failures imply retries");
                assert!(report.backoff > SimDuration::ZERO, "seed {seed}");
            }
            if report.gave_up == 0 {
                assert_eq!(report.issuances_applied, 1, "seed {seed}");
                assert_eq!(report.freshness_applied, 1, "seed {seed}");
                assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 20, "seed {seed}");
            }
        }
        assert!(saw_failures, "the lossy plan injected nothing in 32 runs");
        assert!(saw_recovery, "no run both failed and fully recovered");
    }

    #[test]
    fn dead_transport_gives_up_after_bounded_retry() {
        let mut w = world();
        issue_and_revoke(&mut w, 0..3, T0 + 1);
        let region = w.ra.config.region;
        let service = EdgeService::new(&mut w.cdn, region, 17);
        service.set_now(SimTime::from_secs(T0 + 2));
        let mut plan = ritm_proto::FaultPlan::none();
        plan.drop_request = 1.0;
        let mut transport = ritm_proto::FaultTransport::new(Loopback::new(service), plan, 1);
        let report = w.ra.sync_via(&mut transport, SimTime::from_secs(T0 + 2));
        let attempts = RetryPolicy::default().max_attempts as u64;
        assert_eq!(report.gave_up, 1, "the one pull abandoned");
        assert_eq!(report.retries, attempts - 1);
        assert_eq!(report.transport_failures, attempts);
        assert_eq!(report.issuances_applied, 0);
        assert_eq!(
            w.ra.mirror(&w.ca.id()).unwrap().len(),
            0,
            "mirror untouched"
        );
    }

    #[test]
    fn wide_gap_converges_in_bounded_pages() {
        let mut w = world();
        // Five batches of 10 published while the RA was offline, pulled at
        // 16 serials a page: pages end at batch boundaries, one batch each.
        for b in 0..5u32 {
            issue_and_revoke(&mut w, b * 10..(b + 1) * 10, T0 + 1 + b as u64);
        }
        let region = w.ra.config.region;
        let service = EdgeService::new(&mut w.cdn, region, 17);
        service.set_now(SimTime::from_secs(T0 + 9));
        let mut transport = Loopback::new(service);
        let policy = SyncPolicy {
            page_limit: 16,
            ..Default::default()
        };
        let report =
            w.ra.sync_via_with(&mut transport, SimTime::from_secs(T0 + 9), &policy);
        assert_eq!(report.catchups, 1, "one CA repaired");
        assert_eq!(report.catchup_pages, 5, "one page per missed batch");
        assert_eq!(report.rejected, 0);
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 50);
        assert_eq!(
            w.ra.mirror(&w.ca.id()).unwrap().signed_root(),
            w.ca.dictionary().signed_root()
        );
    }

    #[test]
    fn megagap_converges_in_pages() {
        // A ~1.6M-serial gap (20-byte serials, 21 wire bytes each) encodes
        // past MAX_FRAME_LEN as one bundle. Paged catch-up converges in
        // MAX_PAGE_LIMIT-sized pages that each fit a frame.
        const N: u64 = 1_600_000;
        const BATCH: u64 = 200_000;
        let mut rng = StdRng::seed_from_u64(41);
        let mut cdn = Cdn::new(SimDuration::from_secs(5));
        // Raw dictionary + direct origin publishes: the certificate
        // registry is irrelevant to the wire-size regression under test.
        let mut ca = ritm_dictionary::CaDictionary::new(
            CaId::from_name("MegaCA"),
            SigningKey::from_seed([6u8; 32]),
            10,
            1 << 16,
            &mut rng,
            T0,
        );
        cdn.origin.register_ca(ca.ca(), ca.verifying_key());
        let mut ra = RevocationAgent::new(RaConfig {
            delta: 10,
            ..Default::default()
        });
        ra.follow_ca(ca.ca(), ca.verifying_key(), *ca.signed_root())
            .unwrap();
        let mut from = 0u64;
        let mut now = T0;
        while from < N {
            let serials: Vec<SerialNumber> = (from..from + BATCH)
                .map(|i| {
                    let mut b = [0u8; 20];
                    b[12..].copy_from_slice(&i.to_be_bytes());
                    SerialNumber::new(&b).unwrap()
                })
                .collect();
            now += 1;
            let iss = ca.insert(&serials, &mut rng, now).unwrap();
            cdn.origin.publish_issuance(ca.ca(), &iss).unwrap();
            from += BATCH;
        }
        let service = EdgeService::new(&mut cdn, ra.config.region, 17);
        service.set_now(SimTime::from_secs(now));
        let mut transport = Loopback::new(service);

        // The paged sync converges, and the total envelope bytes show the
        // gap really moved — more than any single frame may carry.
        let report = ra.sync_via(&mut transport, SimTime::from_secs(now));
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.catchups, 1);
        assert_eq!(
            report.catchup_pages, 2,
            "1.6M serials at the 2^20 page limit: boundary-aligned 1.0M + 0.6M"
        );
        assert!(
            report.bytes_downloaded > ritm_proto::MAX_FRAME_LEN as u64,
            "downloaded {} bytes",
            report.bytes_downloaded
        );
        let mirror = ra.mirror(&ca.ca()).unwrap();
        assert_eq!(mirror.len() as u64, N);
        assert_eq!(mirror.signed_root(), ca.signed_root());
    }

    /// A hostile sync peer: answers every `Pull` with one fixed update.
    struct FixedUpdate(Update);

    impl ritm_proto::Service for FixedUpdate {
        fn handle(&self, req: RitmRequest) -> RitmResponse {
            match req {
                RitmRequest::Pull { .. } => RitmResponse::Update(self.0.clone()),
                _ => RitmResponse::Error(ProtoError::Unsupported),
            }
        }
    }

    #[test]
    fn hostile_updates_are_rejected_not_a_panic() {
        let mut w = world();
        issue_and_revoke(&mut w, 0..4, T0 + 1);
        sync(&mut w, T0 + 2);
        issue_and_revoke(&mut w, 4..9, T0 + 3);
        let genuine = w.ca.dictionary().issuance_since(4);
        let head = genuine.signed_root;
        let off_chain = ritm_dictionary::FreshnessStatement::new(
            ritm_crypto::digest::Digest20::hash(b"off chain"),
        );
        let hostile = [
            // A validly signed root for 9 leaves over 4 + 6 serials, and
            // over 4 + 4: a root for another size.
            Update {
                serials: [&genuine.serials[..], &genuine.serials[..1]].concat(),
                signed_root: Some(head),
                ..Update::default()
            },
            Update {
                serials: genuine.serials[1..].to_vec(),
                signed_root: Some(head),
                ..Update::default()
            },
            // Serials without a root, and a root without serials.
            Update {
                serials: genuine.serials.clone(),
                ..Update::default()
            },
            Update {
                signed_root: Some(head),
                ..Update::default()
            },
            // Serials remaining, yet none sent: a pull that cannot end.
            Update {
                remaining: u64::MAX,
                ..Update::default()
            },
            // A freshness statement off the root's chain.
            Update {
                refresh: Some(RefreshMessage::Freshness(off_chain)),
                ..Update::default()
            },
            // A genuine page that lies about what remains: the repeat pull
            // gets the same page again, which no longer fits. Last, since
            // its genuine part is applied.
            Update {
                serials: genuine.serials.clone(),
                signed_root: Some(head),
                remaining: 3,
                refresh: None,
            },
        ];
        for (i, update) in hostile.into_iter().enumerate() {
            let genuine_page = update.remaining == 3;
            let before = w.ra.mirror(&w.ca.id()).unwrap().clone();
            let mut transport = Loopback::new(FixedUpdate(update));
            let report = w.ra.sync_via(&mut transport, SimTime::from_secs(T0 + 4));
            assert_eq!(report.rejected, 1, "update {i}");
            let mirror = w.ra.mirror(&w.ca.id()).unwrap();
            if genuine_page {
                assert_eq!(report.revocations_applied, 5);
                assert_eq!(mirror.signed_root(), &head);
            } else {
                assert_eq!(report.revocations_applied, 0, "update {i}");
                assert_eq!(mirror.len(), before.len(), "update {i}");
                assert_eq!(mirror.signed_root(), before.signed_root(), "update {i}");
                assert_eq!(mirror.freshness(), before.freshness(), "update {i}");
            }
        }
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 9);
    }

    #[test]
    fn sync_over_simulated_path_matches_loopback_bytes() {
        // The same sync pass over the ritm-net simulator must move exactly
        // the bytes the loopback moved — the envelopes are the protocol.
        let mut a = world();
        issue_and_revoke(&mut a, 0..7, T0 + 1);
        a.ca.refresh(&mut a.cdn, &mut a.rng, T0 + 2).unwrap();
        let loopback_report = sync(&mut a, T0 + 2);

        let mut b = world();
        issue_and_revoke(&mut b, 0..7, T0 + 1);
        b.ca.refresh(&mut b.cdn, &mut b.rng, T0 + 2).unwrap();
        let region = b.ra.config.region;
        let service = EdgeService::new(b.cdn, region, 17);
        service.set_now(SimTime::from_secs(T0 + 2));
        let mut transport =
            ritm_proto::sim::SimTransport::new(service, SimDuration::from_millis(8));
        let sim_report = b.ra.sync_via(&mut transport, SimTime::from_secs(T0 + 2));

        assert_eq!(
            sim_report.bytes_downloaded,
            loopback_report.bytes_downloaded
        );
        assert_eq!(sim_report.bytes_uploaded, loopback_report.bytes_uploaded);
        assert_eq!(
            sim_report.issuances_applied,
            loopback_report.issuances_applied
        );
        assert_eq!(sim_report.revocations_applied, 7);
        // Latency now includes the simulated propagation on top of the
        // edge's sampled serving time: 8 ms each way for the one pull.
        assert!(sim_report.latency > loopback_report.latency);
    }
}
