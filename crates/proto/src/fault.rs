//! Deterministic fault injection over any [`Transport`].
//!
//! [`FaultTransport`] wraps a real transport and, on a seeded schedule,
//! drops requests, drops responses, duplicates deliveries, inflates
//! latency, or truncates response frames — the client-observable failure
//! modes of a lossy network. Every decision comes from a private
//! [`StdRng`] stream, so a failing run replays bit-identically from its
//! seed; the wrapped transport is only ever driven through its public
//! interface, so the same wrapper exercises loopback, simulated and
//! event-driven socket transports alike.
//!
//! The semantics are honest to where each fault strikes: a dropped
//! *request* never reaches the service, a dropped *response* was fully
//! served (state changed server-side!) but the client never hears, a
//! duplicate delivers the same request twice, and a truncation yields the
//! undecodable-response error a cut-off frame produces.

use crate::error::TransportError;
use crate::message::RitmRequest;
use crate::transport::{RoundTrip, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ritm_crypto::wire::DecodeError;
use ritm_net::time::SimDuration;

/// Per-round-trip fault probabilities. Sampled in declaration order from
/// one uniform draw, so the probabilities must sum to at most 1; the
/// remainder is a clean pass-through.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability the request vanishes before reaching the service.
    pub drop_request: f64,
    /// Probability the service handles the request but the response
    /// vanishes.
    pub drop_response: f64,
    /// Probability the request is delivered twice (the second response is
    /// returned).
    pub duplicate: f64,
    /// Probability the round trip is delayed by [`FaultPlan::delay_by`].
    pub delay: f64,
    /// Added latency for delayed round trips.
    pub delay_by: SimDuration,
    /// Probability the response frame arrives truncated (undecodable).
    pub truncate: f64,
}

impl FaultPlan {
    /// No faults at all (pass-through wrapper).
    pub fn none() -> Self {
        FaultPlan {
            drop_request: 0.0,
            drop_response: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_by: SimDuration::ZERO,
            truncate: 0.0,
        }
    }

    /// A lossy-but-livable mix: `p` spread evenly across request drops,
    /// response drops, duplicates, and truncations. With bounded retry on
    /// top, syncs converge for any `p < 1`.
    pub fn lossy(p: f64) -> Self {
        FaultPlan {
            drop_request: p / 4.0,
            drop_response: p / 4.0,
            duplicate: p / 4.0,
            delay: 0.0,
            delay_by: SimDuration::ZERO,
            truncate: p / 4.0,
        }
    }
}

/// Counters for what the wrapper actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests that never reached the service.
    pub dropped_requests: u64,
    /// Served requests whose response was discarded.
    pub dropped_responses: u64,
    /// Requests delivered twice.
    pub duplicated: u64,
    /// Round trips with injected latency.
    pub delayed: u64,
    /// Responses truncated into undecodability.
    pub truncated: u64,
    /// Untouched round trips.
    pub clean: u64,
}

impl FaultStats {
    /// Total round trips that suffered any injected fault.
    pub fn injected(&self) -> u64 {
        self.dropped_requests
            + self.dropped_responses
            + self.duplicated
            + self.delayed
            + self.truncated
    }
}

/// A [`Transport`] wrapper injecting faults on a deterministic seeded
/// schedule. See the module docs for semantics.
#[derive(Debug)]
pub struct FaultTransport<T> {
    inner: T,
    plan: FaultPlan,
    rng: StdRng,
    stats: FaultStats,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`; every fault decision derives from `seed`.
    pub fn new(inner: T, plan: FaultPlan, seed: u64) -> Self {
        FaultTransport {
            inner,
            plan,
            rng: StdRng::seed_from_u64(seed),
            stats: FaultStats::default(),
        }
    }

    /// What was injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The wrapped transport (e.g. to reconnect it after a kill).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps back into the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn round_trip(&mut self, req: &RitmRequest) -> Result<RoundTrip, TransportError> {
        let draw: f64 = self.rng.gen();
        let p = &self.plan;
        if draw < p.drop_request {
            self.stats.dropped_requests += 1;
            return Err(TransportError::NoResponse);
        }
        if draw < p.drop_request + p.drop_response {
            self.stats.dropped_responses += 1;
            // The service *did* serve this — only the reply is lost.
            let _ = self.inner.round_trip(req)?;
            return Err(TransportError::NoResponse);
        }
        if draw < p.drop_request + p.drop_response + p.duplicate {
            self.stats.duplicated += 1;
            let _ = self.inner.round_trip(req)?;
            return self.inner.round_trip(req);
        }
        if draw < p.drop_request + p.drop_response + p.duplicate + p.delay {
            self.stats.delayed += 1;
            let mut rt = self.inner.round_trip(req)?;
            rt.meta.latency = rt.meta.latency + p.delay_by;
            return Ok(rt);
        }
        if draw < p.drop_request + p.drop_response + p.duplicate + p.delay + p.truncate {
            self.stats.truncated += 1;
            let _ = self.inner.round_trip(req)?;
            return Err(TransportError::BadResponse(DecodeError::new(
                "injected response truncation",
                0,
            )));
        }
        self.stats.clean += 1;
        self.inner.round_trip(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RitmResponse;
    use crate::service::Service;
    use crate::transport::Loopback;
    use crate::ProtoError;
    use ritm_dictionary::CaId;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts how many requests actually reach it.
    #[derive(Default)]
    struct Counting {
        served: AtomicU64,
    }

    impl Service for &Counting {
        fn handle(&self, _req: RitmRequest) -> RitmResponse {
            self.served.fetch_add(1, Ordering::SeqCst);
            RitmResponse::Error(ProtoError::NotFound)
        }
    }

    fn req() -> RitmRequest {
        RitmRequest::GetSignedRoot {
            ca: CaId::from_name("FaultCA"),
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let svc = Counting::default();
        let run = |seed: u64| {
            let mut t = FaultTransport::new(Loopback::new(&svc), FaultPlan::lossy(0.5), seed);
            let outcomes: Vec<bool> = (0..200).map(|_| t.round_trip(&req()).is_ok()).collect();
            (outcomes, t.stats())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn dropped_requests_never_reach_the_service_but_dropped_responses_do() {
        let svc = Counting::default();
        let mut plan = FaultPlan::none();
        plan.drop_request = 1.0;
        let mut t = FaultTransport::new(Loopback::new(&svc), plan, 1);
        assert!(matches!(
            t.round_trip(&req()),
            Err(TransportError::NoResponse)
        ));
        assert_eq!(svc.served.load(Ordering::SeqCst), 0);

        let mut plan = FaultPlan::none();
        plan.drop_response = 1.0;
        let mut t = FaultTransport::new(Loopback::new(&svc), plan, 1);
        assert!(matches!(
            t.round_trip(&req()),
            Err(TransportError::NoResponse)
        ));
        assert_eq!(svc.served.load(Ordering::SeqCst), 1, "served, reply lost");
    }

    #[test]
    fn duplicates_hit_the_service_twice_and_truncation_is_undecodable() {
        let svc = Counting::default();
        let mut plan = FaultPlan::none();
        plan.duplicate = 1.0;
        let mut t = FaultTransport::new(Loopback::new(&svc), plan, 1);
        assert!(t.round_trip(&req()).is_ok());
        assert_eq!(svc.served.load(Ordering::SeqCst), 2);

        let mut plan = FaultPlan::none();
        plan.truncate = 1.0;
        let mut t = FaultTransport::new(Loopback::new(&svc), plan, 1);
        assert!(matches!(
            t.round_trip(&req()),
            Err(TransportError::BadResponse(_))
        ));
        assert_eq!(t.stats().truncated, 1);
    }

    #[test]
    fn delay_inflates_latency_and_none_is_transparent() {
        let svc = Counting::default();
        let mut plan = FaultPlan::none();
        plan.delay = 1.0;
        plan.delay_by = SimDuration::from_millis(250);
        let mut t = FaultTransport::new(Loopback::new(&svc), plan, 1);
        let rt = t.round_trip(&req()).unwrap();
        assert!(rt.meta.latency >= SimDuration::from_millis(250));

        let mut t = FaultTransport::new(Loopback::new(&svc), FaultPlan::none(), 1);
        for _ in 0..50 {
            assert!(t.round_trip(&req()).is_ok());
        }
        assert_eq!(t.stats().clean, 50);
        assert_eq!(t.stats().injected(), 0);
    }
}
