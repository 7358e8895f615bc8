//! The CDN edge as a wire-protocol [`Service`] endpoint.
//!
//! [`EdgeService`] exposes one regional edge of a [`Cdn`] through the
//! versioned RITM envelope vocabulary: `Pull` — the RA's one request per
//! Δ — to the origin's feed page after the RA's count plus the CA's
//! current refresh message, `GetManifest` to the bootstrap manifest, and
//! `GetSignedRoot` to the origin's latest verified root. A catch-up page
//! is an `Update` like any other. Everything else is refused with
//! [`ProtoError::Unsupported`]: `FetchDelta` (no product endpoint answers
//! it) and status requests — statuses are the RA's job, not the CDN's.
//!
//! `handle` works from `&self` (the service sits behind any transport, on
//! any number of threads), so the mutable CDN state lives behind a mutex;
//! simulated pull latency is accumulated per request and drained by
//! latency-aware transports via [`Service::take_latency`].

use crate::network::Cdn;
use crate::origin::{ContentKey, Origin};
use crate::regions::Region;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_dictionary::CaId;
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::{ProtoError, RitmRequest, RitmResponse, Service, Update};
use std::borrow::BorrowMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One regional edge endpoint over a [`Cdn`] (owned, or `&mut`-borrowed
/// for the duration of a sync pass — anything that [`BorrowMut`]s a CDN).
pub struct EdgeService<C = Cdn> {
    cdn: Mutex<C>,
    region: Region,
    rng: Mutex<StdRng>,
    /// Current time in seconds (edges judge cache TTLs against it).
    now_secs: AtomicU64,
    /// Sampled pull latency accumulated since the last `take_latency`.
    pending_latency_us: AtomicU64,
}

impl<C: BorrowMut<Cdn>> EdgeService<C> {
    /// Wraps `cdn` as the edge endpoint for `region`. `seed` initializes
    /// the service's private latency-sampling RNG stream.
    pub fn new(cdn: C, region: Region, seed: u64) -> Self {
        EdgeService {
            cdn: Mutex::new(cdn),
            region,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            now_secs: AtomicU64::new(0),
            pending_latency_us: AtomicU64::new(0),
        }
    }

    /// Advances the service clock (cache-TTL decisions and latency
    /// sampling are relative to it).
    pub fn set_now(&self, now: SimTime) {
        self.now_secs.store(now.as_secs(), Ordering::SeqCst);
    }

    /// The region this edge serves.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Runs `f` with exclusive access to the underlying CDN — how a
    /// harness publishes CA content while the service keeps serving.
    pub fn with_cdn<R>(&self, f: impl FnOnce(&mut Cdn) -> R) -> R {
        let mut guard = self.cdn.lock().expect("cdn lock");
        let cdn: &mut Cdn = (*guard).borrow_mut();
        f(cdn)
    }

    fn charge(&self, latency: SimDuration) {
        self.pending_latency_us
            .fetch_add(latency.as_micros(), Ordering::Relaxed);
    }

    /// One billed edge pull of the object `build` makes at the origin on a
    /// miss; `NotFound` when there is none.
    fn pull_built(
        &self,
        key: &ContentKey,
        build: impl FnOnce(&Origin) -> Option<Vec<u8>>,
    ) -> Result<Vec<u8>, ProtoError> {
        let now = SimTime::from_secs(self.now_secs.load(Ordering::SeqCst));
        let mut guard = self.cdn.lock().expect("cdn lock");
        let cdn: &mut Cdn = (*guard).borrow_mut();
        let mut rng = self.rng.lock().expect("rng lock");
        let Some((bytes, stats)) = cdn.pull_with(self.region, key, now, &mut *rng, build) else {
            return Err(ProtoError::NotFound);
        };
        self.charge(stats.latency);
        Ok(bytes)
    }

    /// Answers `Pull`: the origin's feed page after `have` and the CA's
    /// current refresh message, as one `Update` the edge caches per
    /// `(ca, have, limit)` and feed version. `NotFound` when the origin
    /// has neither.
    fn pull(&self, ca: CaId, have: u64, limit: u32) -> RitmResponse {
        let limit = limit.min(ritm_proto::MAX_PAGE_LIMIT);
        let version = self.with_cdn(|cdn| cdn.origin.feed_version(ca));
        let build = |origin: &Origin| {
            let page = origin.fetch_page(ca, have, limit);
            let refresh = origin.refresh(ca);
            (page.is_some() || refresh.is_some()).then(|| {
                // Stored as a v1 body: version ‖ kind ‖ fields.
                let mut body = RitmResponse::Update(Update::answer(have, page, refresh)).to_frame();
                body.drain(..4);
                body
            })
        };
        let key = ContentKey::Pull {
            ca,
            have,
            limit,
            version,
        };
        match self.pull_built(&key, build) {
            // The origin built the body itself; if it no longer decodes,
            // the edge's store is corrupt — an internal fault, not a client
            // error.
            Ok(body) => RitmResponse::decode_body(&body)
                .unwrap_or(RitmResponse::Error(ProtoError::Internal)),
            Err(e) => RitmResponse::Error(e),
        }
    }
}

impl<C: BorrowMut<Cdn> + Send> Service for EdgeService<C> {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        match req {
            RitmRequest::Pull { ca, have, limit } => self.pull(ca, have, limit),
            RitmRequest::GetManifest { ca } => {
                let key = ContentKey::Manifest { ca };
                let build = |origin: &Origin| origin.fetch(&key).map(<[u8]>::to_vec);
                match self.pull_built(&key, build) {
                    Ok(bytes) => RitmResponse::Manifest(bytes),
                    Err(e) => RitmResponse::Error(e),
                }
            }
            RitmRequest::GetSignedRoot { ca } => {
                let mut guard = self.cdn.lock().expect("cdn lock");
                let cdn: &mut Cdn = (*guard).borrow_mut();
                match cdn.origin.signed_root(&ca) {
                    Some(root) => RitmResponse::SignedRoot(*root),
                    None => RitmResponse::Error(ProtoError::UnknownCa(ca)),
                }
            }
            RitmRequest::FetchDelta { .. }
            | RitmRequest::GetStatus { .. }
            | RitmRequest::GetMultiStatus { .. } => RitmResponse::Error(ProtoError::Unsupported),
        }
    }

    fn take_latency(&self) -> SimDuration {
        SimDuration::from_micros(self.pending_latency_us.swap(0, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritm_dictionary::{CaDictionary, CaId, SerialNumber};

    const T0: u64 = 1_000_000;

    fn world() -> (CaDictionary, Cdn, StdRng) {
        let mut rng = StdRng::seed_from_u64(9);
        let ca = CaDictionary::new(
            CaId::from_name("EdgeSvcCA"),
            ritm_crypto::ed25519::SigningKey::from_seed([2u8; 32]),
            10,
            256,
            &mut rng,
            T0,
        );
        let mut cdn = Cdn::new(SimDuration::from_secs(30));
        cdn.origin.register_ca(ca.ca(), ca.verifying_key());
        (ca, cdn, rng)
    }

    #[test]
    fn serves_pull_root_and_manifest_but_not_deltas() {
        let (mut ca, mut cdn, mut rng) = world();
        let iss = ca
            .insert(&[SerialNumber::from_u24(5)], &mut rng, T0 + 1)
            .unwrap();
        cdn.origin.publish_issuance(ca.ca(), &iss).unwrap();
        let refresh = ca.refresh(&mut rng, T0 + 2);
        cdn.origin.publish_refresh(ca.ca(), &refresh).unwrap();
        cdn.origin.publish_manifest(ca.ca(), b"{}".to_vec());

        let svc = EdgeService::new(cdn, Region::Europe, 7);
        svc.set_now(SimTime::from_secs(T0 + 2));

        let pull = |have| RitmRequest::Pull {
            ca: ca.ca(),
            have,
            limit: 64,
        };
        // Behind: the batch under its root. Up to date: the refresh alone.
        let RitmResponse::Update(behind) = svc.handle(pull(0)) else {
            panic!("expected an update");
        };
        assert_eq!(behind.serials, iss.serials);
        assert_eq!(behind.signed_root, Some(iss.signed_root));
        assert_eq!(
            svc.handle(pull(1)),
            RitmResponse::Update(Update {
                refresh: Some(refresh),
                ..Update::default()
            })
        );
        assert_eq!(
            svc.handle(RitmRequest::FetchDelta { ca: ca.ca() }),
            RitmResponse::Error(ProtoError::Unsupported)
        );
        assert_eq!(
            svc.handle(RitmRequest::GetSignedRoot { ca: ca.ca() }),
            RitmResponse::SignedRoot(iss.signed_root)
        );
        assert_eq!(
            svc.handle(RitmRequest::GetManifest { ca: ca.ca() }),
            RitmResponse::Manifest(b"{}".to_vec())
        );
        // Pulls sampled latency; a latency-aware transport drains it once.
        assert!(svc.take_latency() > SimDuration::ZERO);
        assert_eq!(svc.take_latency(), SimDuration::ZERO);
    }

    #[test]
    fn catch_up_returns_the_missing_suffix() {
        let (mut ca, mut cdn, mut rng) = world();
        for i in 0..3u32 {
            let iss = ca
                .insert(
                    &[SerialNumber::from_u24(10 + i)],
                    &mut rng,
                    T0 + 1 + i as u64,
                )
                .unwrap();
            cdn.origin.publish_issuance(ca.ca(), &iss).unwrap();
        }
        let svc = EdgeService::new(cdn, Region::Japan, 7);
        let RitmResponse::Update(update) = svc.handle(RitmRequest::Pull {
            ca: ca.ca(),
            have: 1,
            limit: 64,
        }) else {
            panic!("expected an update");
        };
        // Revocations 2 and 3, under the head root.
        let suffix = [SerialNumber::from_u24(11), SerialNumber::from_u24(12)];
        assert_eq!(update.serials, suffix);
        assert_eq!(update.signed_root, Some(*ca.signed_root()));
        assert_eq!(update.remaining, 0);
    }

    #[test]
    fn unknown_objects_and_status_requests_are_typed_errors() {
        let (ca, cdn, _) = world();
        let svc = EdgeService::new(cdn, Region::Europe, 7);
        let nobody = CaId::from_name("nobody");
        assert_eq!(
            svc.handle(RitmRequest::GetManifest { ca: nobody }),
            RitmResponse::Error(ProtoError::NotFound)
        );
        assert_eq!(
            svc.handle(RitmRequest::GetSignedRoot { ca: nobody }),
            RitmResponse::Error(ProtoError::UnknownCa(nobody))
        );
        assert_eq!(
            svc.handle(RitmRequest::GetStatus {
                ca: ca.ca(),
                serial: SerialNumber::from_u24(1),
            }),
            RitmResponse::Error(ProtoError::Unsupported)
        );
    }

    #[test]
    fn borrowed_cdn_service_bills_the_shared_ledger() {
        let (mut ca, mut cdn, mut rng) = world();
        let iss = ca
            .insert(&[SerialNumber::from_u24(1)], &mut rng, T0 + 1)
            .unwrap();
        cdn.origin.publish_issuance(ca.ca(), &iss).unwrap();
        {
            let svc = EdgeService::new(&mut cdn, Region::India, 3);
            svc.set_now(SimTime::from_secs(T0 + 1));
            let pull = RitmRequest::Pull {
                ca: ca.ca(),
                have: 0,
                limit: 64,
            };
            assert!(matches!(svc.handle(pull), RitmResponse::Update(_)));
        }
        assert!(cdn.ledger.bytes_in(Region::India) > 0);
    }
}

#[cfg(test)]
mod pull_tests {
    use super::*;
    use ritm_dictionary::{CaDictionary, CaId, RefreshMessage, SerialNumber};

    const T0: u64 = 1_000_000;

    #[test]
    fn pull_answers_share_the_edge_cache_until_the_ca_publishes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ca = CaDictionary::new(
            CaId::from_name("PullSvcCA"),
            ritm_crypto::ed25519::SigningKey::from_seed([2u8; 32]),
            10,
            256,
            &mut rng,
            T0,
        );
        let mut cdn = Cdn::new(SimDuration::from_secs(30));
        cdn.origin.register_ca(ca.ca(), ca.verifying_key());
        let iss = ca
            .insert(&[SerialNumber::from_u24(5)], &mut rng, T0 + 1)
            .unwrap();
        cdn.origin.publish_issuance(ca.ca(), &iss).unwrap();
        let svc = EdgeService::new(cdn, Region::Europe, 7);
        svc.set_now(SimTime::from_secs(T0 + 2));
        let id = ca.ca();
        let pull = |have| RitmRequest::Pull {
            ca: id,
            have,
            limit: 64,
        };
        let behind = svc.handle(pull(0));
        let RitmResponse::Update(update) = &behind else {
            panic!("expected an update, got {behind:?}");
        };
        assert_eq!(update.serials, iss.serials);
        assert_eq!(update.signed_root, Some(iss.signed_root));
        // A second RA at the same count: the edge's copy.
        assert_eq!(svc.handle(pull(0)), behind);
        let hits = |svc: &EdgeService| svc.with_cdn(|cdn| cdn.edge(Region::Europe).hits);
        assert_eq!(hits(&svc), 1);

        // The CA refreshes within the TTL: the cached answer is not served.
        let refresh = ca.refresh(&mut rng, T0 + 12);
        svc.with_cdn(|cdn| cdn.origin.publish_refresh(ca.ca(), &refresh).unwrap());
        let RitmResponse::Update(update) = svc.handle(pull(1)) else {
            panic!("expected an update");
        };
        assert_eq!(update.refresh, Some(refresh));
        let RitmResponse::Update(update) = svc.handle(pull(0)) else {
            panic!("expected an update");
        };
        assert!(matches!(update.refresh, Some(RefreshMessage::Freshness(_))));
        assert_eq!(hits(&svc), 1);
        // Nothing at all for a CA the origin never heard of.
        let nobody = RitmRequest::Pull {
            ca: CaId::from_name("nobody"),
            have: 0,
            limit: 64,
        };
        assert_eq!(
            svc.handle(nobody),
            RitmResponse::Error(ProtoError::NotFound)
        );
    }
}
