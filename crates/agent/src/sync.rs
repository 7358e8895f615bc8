//! RA ↔ CDN synchronization (paper §III "Dissemination" + §VI: "Every Δ,
//! each RA contacts an edge server via an HTTP GET request to pull new
//! revocations and freshness statements").
//!
//! Since the wire-protocol redesign the RA speaks *only*
//! [`ritm_proto::RitmRequest`] envelopes through a [`Transport`]
//! ([`RevocationAgent::sync_via`]): the same sync pass runs against an
//! in-process `Loopback` over a CDN `EdgeService`, a `ritm-net`
//! simulated path, or a real TCP connection, moving byte-identical frames.
//! The pass is batched into pipelined flights
//! ([`Transport::round_trip_many`]), so on the event-driven transport a
//! sync round keeps every CA's requests in flight at once (~2 RTTs total)
//! while sequential transports run the identical frames one at a time. On
//! an envelope-v2 peer the flight is additionally *multiplexed*: each
//! request carries a request id and the server may answer out of order,
//! so one slow delta (a large `CatchUp`) no longer delays the freshness
//! statements queued behind it — the transport correlates replies by id
//! and the sync logic sees them in request order regardless.
//! The per-Δ download volume measured here is exactly what Fig. 7 plots —
//! now as actual encoded envelope bytes — and the billed traffic feeds
//! Fig. 6 / Table II.

use crate::ra::RevocationAgent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ritm_dictionary::{CaId, RevocationIssuance, UpdateError};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::{ProtoError, RitmRequest, RitmResponse, RoundTrip, Transport, TransportMeta};

/// Bounded retry with exponential backoff and jitter, applied to every
/// round trip of a sync pass. A failed round trip (no decodable response)
/// is re-sent up to [`RetryPolicy::max_attempts`] times total; the pause
/// before attempt *k* is `base · 2^(k-2)` capped at [`RetryPolicy::cap`],
/// with equal jitter (half fixed, half uniform) drawn from a seeded
/// stream so a failing pass replays deterministically. Pauses are charged
/// to the report as simulated time ([`SyncReport::backoff`]), consistent
/// with how every other latency in the stack is accounted.
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
    /// Serials requested per `CatchUpPaged` page. The default is the
    /// protocol-wide [`ritm_proto::MAX_PAGE_LIMIT`], the largest page a
    /// server will serve — any gap then converges in the fewest pages
    /// that each still fit [`ritm_proto::MAX_FRAME_LEN`].
    pub page_limit: u32,
    /// Hard cap on catch-up pages pulled per CA per pass — a backstop
    /// against a misbehaving server feeding an endless page stream.
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
    /// Desynchronized CAs repaired via catch-up this pass.
    pub catchups: u64,
    /// Catch-up pages applied (a gap spanning several issuance batches
    /// arrives as that many `DeltaPage` responses).
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
    /// One periodic pull (every Δ) over the wire protocol: for each
    /// mirrored CA, request the latest issuance bundle and freshness
    /// statement through `transport`, apply them, and repair any detected
    /// desynchronization with a `CatchUp` request.
    ///
    /// The pull is batched into at most two pipelined flights
    /// ([`Transport::round_trip_many`]): every CA's `FetchDelta` and
    /// `FetchFreshness` go out together, then one `CatchUp` per
    /// desynchronized CA. On a pipelining transport (the event-driven
    /// `EventTransport`) a whole sync round therefore costs ~2 RTTs
    /// regardless of how many CAs the RA mirrors; on sequential transports
    /// the batches degrade to the former one-at-a-time behaviour with
    /// byte-identical frames. Per CA the application order is unchanged:
    /// delta, then any catch-up repair, then freshness.
    ///
    /// A missing object ([`ProtoError::NotFound`] — the CA has published
    /// nothing yet) is benign; any other error response, undecodable
    /// message, or failed verification is counted in the report.
    ///
    /// Every round trip runs under the default [`SyncPolicy`]: failed
    /// flights re-send only their failed entries with exponential backoff
    /// and jitter instead of silently dropping the round, and gaps are
    /// repaired with *paged* catch-up, so no gap — however large — can
    /// dead-end in a `ResponseTooLarge` refusal. Use
    /// [`RevocationAgent::sync_via_with`] to tune the policy.
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
        let now_secs = now.as_secs();
        let cas: Vec<CaId> = self.followed_cas().copied().collect();
        if cas.is_empty() {
            return report;
        }
        let mut rng = StdRng::seed_from_u64(policy.retry.jitter_seed);

        // Flight 1: delta + freshness for every CA, kept in flight at once.
        let mut reqs = Vec::with_capacity(cas.len() * 2);
        for &ca in &cas {
            reqs.push(RitmRequest::FetchDelta { ca });
            reqs.push(RitmRequest::FetchFreshness { ca });
        }
        let mut flight =
            flight_with_retry(transport, &reqs, &policy.retry, &mut rng, &mut report).into_iter();

        // Apply deltas as their responses come off the flight, deferring
        // freshness until after any catch-up repair for the same CA.
        let mut fresh_pending = Vec::with_capacity(cas.len());
        let mut catchups: Vec<(CaId, u64)> = Vec::new();
        for &ca in &cas {
            let delta = flight.next().expect("one result per request");
            let fresh = flight.next().expect("one result per request");
            if let Some(rt) = delta {
                match rt.response {
                    RitmResponse::Delta(iss) => {
                        if let Some(have) = self.apply_delta(ca, iss, now_secs, &mut report) {
                            catchups.push((ca, have));
                        }
                    }
                    RitmResponse::Error(ProtoError::NotFound) => {}
                    // An endpoint with no Latest bundle at all (the CA's
                    // own service): catch up from what we hold instead.
                    RitmResponse::Error(ProtoError::Unsupported) => {
                        let have = self
                            .mirror(&ca)
                            .expect("followed ca has a mirror")
                            .consecutive_count();
                        catchups.push((ca, have));
                    }
                    _ => report.rejected += 1,
                }
            }
            fresh_pending.push((ca, fresh));
        }

        // Flight 2: the paper's catch-up requests for every CA that
        // detected a gap, paged and pipelined — first page per CA in one
        // flight, then each CA drains its remaining pages.
        if !catchups.is_empty() {
            let reqs: Vec<RitmRequest> = catchups
                .iter()
                .map(|&(ca, have)| RitmRequest::CatchUpPaged {
                    ca,
                    have,
                    limit: policy.page_limit,
                })
                .collect();
            let firsts = flight_with_retry(transport, &reqs, &policy.retry, &mut rng, &mut report);
            for ((ca, _), first) in catchups.into_iter().zip(firsts) {
                self.drain_pages(
                    transport,
                    ca,
                    first,
                    now_secs,
                    policy,
                    &mut rng,
                    &mut report,
                );
            }
        }

        // Freshness statements last, so a repaired mirror judges them
        // against its post-catch-up root.
        for (ca, result) in fresh_pending {
            if let Some(rt) = result {
                match rt.response {
                    RitmResponse::Freshness(msg) => {
                        let res = self
                            .mirror_mut(&ca)
                            .expect("followed ca has a mirror")
                            .apply_refresh(&msg, now_secs);
                        match res {
                            Ok(()) => report.freshness_applied += 1,
                            Err(_) => report.rejected += 1,
                        }
                    }
                    RitmResponse::Error(ProtoError::NotFound) => {}
                    _ => report.rejected += 1,
                }
            }
        }
        report
    }

    /// Pulls catch-up pages for one desynchronized CA until the server
    /// reports nothing remaining, applying each as it lands. `first` is
    /// the (already retried) response to the first `CatchUpPaged`; a peer
    /// predating the paged protocol answers it `Malformed`, which falls
    /// back to one unpaged `CatchUp`.
    #[allow(clippy::too_many_arguments)]
    fn drain_pages<T: Transport>(
        &mut self,
        transport: &mut T,
        ca: CaId,
        first: Option<RoundTrip>,
        now_secs: u64,
        policy: &SyncPolicy,
        rng: &mut StdRng,
        report: &mut SyncReport,
    ) {
        let mut result = first;
        let mut applied_any = false;
        let mut pages = 0u32;
        // `None` = retries exhausted, already accounted as gave_up.
        while let Some(rt) = result.take() {
            match rt.response {
                RitmResponse::DeltaPage {
                    issuance,
                    remaining,
                } => {
                    if issuance.serials.is_empty() {
                        // An empty page with `remaining > 0` can never make
                        // progress; empty with 0 means already caught up.
                        if remaining > 0 {
                            report.rejected += 1;
                        }
                        break;
                    }
                    let serials = issuance.serials.len() as u64;
                    let applied = self
                        .mirror_mut(&ca)
                        .expect("followed ca has a mirror")
                        .apply_issuance(&issuance, now_secs)
                        .is_ok();
                    if !applied {
                        report.rejected += 1;
                        break;
                    }
                    report.catchup_pages += 1;
                    report.issuances_applied += 1;
                    report.revocations_applied += serials;
                    applied_any = true;
                    pages += 1;
                    if remaining == 0 {
                        break;
                    }
                    if pages >= policy.max_pages {
                        report.rejected += 1;
                        break;
                    }
                    let have = self
                        .mirror(&ca)
                        .expect("followed ca has a mirror")
                        .consecutive_count();
                    result = flight_with_retry(
                        transport,
                        &[RitmRequest::CatchUpPaged {
                            ca,
                            have,
                            limit: policy.page_limit,
                        }],
                        &policy.retry,
                        rng,
                        report,
                    )
                    .pop()
                    .expect("one result per request");
                }
                // A pre-paging peer cannot decode the CatchUpPaged frame:
                // negotiate down to the unpaged form, once.
                RitmResponse::Error(ProtoError::Malformed { .. }) if !applied_any => {
                    let have = self
                        .mirror(&ca)
                        .expect("followed ca has a mirror")
                        .consecutive_count();
                    let fallback = flight_with_retry(
                        transport,
                        &[RitmRequest::CatchUp { ca, have }],
                        &policy.retry,
                        rng,
                        report,
                    )
                    .pop()
                    .expect("one result per request");
                    if let Some(rt) = fallback {
                        if let RitmResponse::Delta(catchup) = rt.response {
                            let serials = catchup.serials.len() as u64;
                            if self
                                .mirror_mut(&ca)
                                .expect("followed ca has a mirror")
                                .apply_issuance(&catchup, now_secs)
                                .is_ok()
                            {
                                report.issuances_applied += 1;
                                report.revocations_applied += serials;
                                applied_any = true;
                            } else {
                                report.rejected += 1;
                            }
                        } else {
                            report.rejected += 1;
                        }
                    }
                    break;
                }
                _ => {
                    report.rejected += 1;
                    break;
                }
            }
        }
        if applied_any {
            report.catchups += 1;
        }
    }

    /// Applies one pulled issuance bundle. Returns `Some(have)` when the
    /// mirror detected a gap and a `CatchUp { have }` follow-up is needed
    /// (issued by the caller's second flight).
    fn apply_delta(
        &mut self,
        ca: CaId,
        issuance: RevocationIssuance,
        now_secs: u64,
        report: &mut SyncReport,
    ) -> Option<u64> {
        let have = self
            .mirror(&ca)
            .expect("followed ca has a mirror")
            .consecutive_count();
        let last = issuance.first_number + issuance.serials.len() as u64 - 1;
        if last <= have {
            return None; // nothing new in the bundle
        }
        // Trim the already-known prefix (the Latest bundle may overlap).
        let issuance = if issuance.first_number <= have {
            let skip = (have + 1 - issuance.first_number) as usize;
            RevocationIssuance {
                first_number: have + 1,
                serials: issuance.serials[skip..].to_vec(),
                signed_root: issuance.signed_root,
            }
        } else {
            issuance
        };
        let outcome = {
            let mut mirror = self.mirror_mut(&ca).expect("followed ca has a mirror");
            mirror.apply_issuance(&issuance, now_secs)
            // Guard drops here, republishing the snapshot if the update
            // landed — before any catch-up round-trip.
        };
        match outcome {
            Ok(()) => {
                report.issuances_applied += 1;
                report.revocations_applied += issuance.serials.len() as u64;
                None
            }
            // Paper's sync protocol: request everything after `have`.
            Err(UpdateError::Desynchronized { have, .. }) => Some(have),
            Err(_) => {
                report.rejected += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ra::RaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_ca::CertificationAuthority;
    use ritm_cdn::network::Cdn;
    use ritm_cdn::origin::ContentKey;
    use ritm_cdn::service::EdgeService;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{RefreshMessage, SerialNumber};
    use ritm_proto::Loopback;

    const T0: u64 = 1_000_000;

    struct World {
        ca: CertificationAuthority,
        cdn: Cdn,
        ra: RevocationAgent,
        rng: StdRng,
    }

    fn world() -> World {
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
    fn sync(w: &mut World, now: u64) -> SyncReport {
        let region = w.ra.config.region;
        let service = EdgeService::new(&mut w.cdn, region, 17);
        service.set_now(SimTime::from_secs(now));
        let mut transport = Loopback::new(service);
        w.ra.sync_via(&mut transport, SimTime::from_secs(now))
    }

    fn issue_and_revoke(w: &mut World, subjects: core::ops::Range<u32>, now: u64) {
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
        w.ca.refresh(&mut w.cdn, &mut w.rng, T0 + 2).unwrap();

        let report = sync(&mut w, T0 + 2);
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

    #[test]
    fn missed_batch_triggers_catchup() {
        let mut w = world();
        // Two batches published while the RA was offline.
        issue_and_revoke(&mut w, 0..4, T0 + 1);
        issue_and_revoke(&mut w, 4..9, T0 + 2);

        let report = sync(&mut w, T0 + 3);
        // The Latest bundle only carries the second batch, so the RA detects
        // the gap and issues a catch-up request.
        assert_eq!(report.catchups, 1);
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 9);
    }

    #[test]
    fn overlapping_bundle_is_trimmed() {
        let mut w = world();
        issue_and_revoke(&mut w, 0..4, T0 + 1);
        sync(&mut w, T0 + 2);
        // New batch; the Latest bundle holds only it, no overlap problem —
        // but craft overlap explicitly via issuance_since(0).
        issue_and_revoke(&mut w, 4..6, T0 + 3);
        // Publish the *full* history (overlapping the RA's 4 known entries)
        // as the Latest bundle; the RA must trim the known prefix.
        let full = w.ca.issuance_since(0);
        w.cdn
            .origin
            .publish_raw(ContentKey::Latest { ca: w.ca.id() }, full.to_bytes());
        w.cdn.flush_edges();
        let report = sync(&mut w, T0 + 4);
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 6);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn fig7_shape_freshness_dominates_quiet_periods() {
        // During a quiet Δ the pull is ~tens of bytes (freshness +
        // zero-issuance bundle); during a revocation burst it grows with the
        // batch (the Fig. 7 contrast). Volumes are now true envelope bytes.
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
        assert_eq!(report.freshness_applied, 1);
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
    fn sync_round_is_two_pipelined_flights() {
        let mut w = world();
        // Two batches published while the RA was offline: the sync must
        // need a catch-up, and still issue exactly two flights — one
        // delta+freshness batch, one catch-up batch.
        issue_and_revoke(&mut w, 0..4, T0 + 1);
        issue_and_revoke(&mut w, 4..9, T0 + 2);
        let region = w.ra.config.region;
        let service = EdgeService::new(&mut w.cdn, region, 17);
        service.set_now(SimTime::from_secs(T0 + 3));
        let mut transport = Recording {
            inner: Loopback::new(service),
            batches: Vec::new(),
        };
        let report = w.ra.sync_via(&mut transport, SimTime::from_secs(T0 + 3));
        assert_eq!(report.catchups, 1);
        assert_eq!(w.ra.mirror(&w.ca.id()).unwrap().len(), 9);
        assert_eq!(
            transport.batches,
            vec![2, 1],
            "delta+freshness in one flight, catch-up in a second"
        );
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
            w.ca.refresh(&mut w.cdn, &mut w.rng, T0 + 2).unwrap();
            let region = w.ra.config.region;
            let service = EdgeService::new(&mut w.cdn, region, 17);
            service.set_now(SimTime::from_secs(T0 + 2));
            let mut transport = ritm_proto::FaultTransport::new(
                Loopback::new(service),
                ritm_proto::FaultPlan::lossy(0.6),
                seed,
            );
            let report = w.ra.sync_via(&mut transport, SimTime::from_secs(T0 + 2));
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
        assert_eq!(report.gave_up, 2, "delta + freshness both abandoned");
        assert_eq!(report.retries, 2 * (attempts - 1));
        assert_eq!(report.transport_failures, 2 * attempts);
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
        // Five batches published while the RA was offline; the Latest
        // bundle carries only the last, so catch-up pages through the rest.
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
    fn megagap_dead_ends_unpaged_but_converges_paged() {
        // A ~1.6M-serial gap (20-byte serials, 21 wire bytes each) used to
        // dead-end: the unpaged CatchUp response exceeds MAX_FRAME_LEN and
        // the server degrades it to ResponseTooLarge, which the RA could
        // only count as rejected, forever. Paged catch-up converges in
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
        let region = ra.config.region;
        let service = EdgeService::new(&mut cdn, region, 17);
        service.set_now(SimTime::from_secs(now));
        let mut transport = Loopback::new(service);

        // The unpaged protocol cannot carry the gap in one response.
        let id = ca.ca();
        let rt = transport
            .round_trip(&RitmRequest::CatchUp { ca: id, have: 0 })
            .unwrap();
        assert!(
            matches!(
                rt.response,
                RitmResponse::Error(ProtoError::ResponseTooLarge { .. })
            ),
            "expected ResponseTooLarge, got a {}-byte response",
            rt.meta.response_bytes
        );

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
        assert_eq!(ra.mirror(&id).unwrap().len() as u64, N);
        assert_eq!(ra.mirror(&id).unwrap().signed_root(), ca.signed_root());
    }

    /// Simulates a peer predating the paged protocol: `CatchUpPaged` is an
    /// unknown frame kind to it, answered `Malformed`.
    struct PrePaging<S>(S);

    impl<S: ritm_proto::Service> ritm_proto::Service for PrePaging<S> {
        fn handle(&self, req: RitmRequest) -> RitmResponse {
            match req {
                RitmRequest::CatchUpPaged { .. } => {
                    RitmResponse::Error(ProtoError::Malformed { offset: 5 })
                }
                other => self.0.handle(other),
            }
        }

        fn take_latency(&self) -> SimDuration {
            self.0.take_latency()
        }
    }

    #[test]
    fn pre_paging_peer_falls_back_to_unpaged_catchup() {
        let mut w = world();
        issue_and_revoke(&mut w, 0..4, T0 + 1);
        issue_and_revoke(&mut w, 4..9, T0 + 2);
        let region = w.ra.config.region;
        let service = EdgeService::new(&mut w.cdn, region, 17);
        service.set_now(SimTime::from_secs(T0 + 3));
        let mut transport = Loopback::new(PrePaging(service));
        let report = w.ra.sync_via(&mut transport, SimTime::from_secs(T0 + 3));
        assert_eq!(report.catchups, 1);
        assert_eq!(report.catchup_pages, 0, "no pages from a v1 peer");
        assert_eq!(report.rejected, 0);
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
        // edge's sampled serving time: 8 ms each way for each of the two
        // round trips (delta + freshness).
        assert!(sim_report.latency > loopback_report.latency);
    }
}
