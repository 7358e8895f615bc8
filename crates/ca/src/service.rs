//! The CA's direct endpoint as a wire-protocol [`Service`].
//!
//! Most dissemination flows through the CDN, but two objects are naturally
//! served by the CA itself (§VIII): the signed `/RITM.json` bootstrap
//! manifest and authoritative catch-up replies synthesized from the full
//! issuance log. [`CaService`] exposes exactly those — plus the current
//! signed root and freshness statement for monitors — while refusing
//! `FetchDelta` (periodic pulls must hit the CDN so the CA's own link is
//! never the fan-out bottleneck) and status requests (an RA's job).

use crate::authority::CertificationAuthority;
use ritm_dictionary::RefreshMessage;
use ritm_proto::{ProtoError, RitmRequest, RitmResponse, Service};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The CA's manifest/catch-up endpoint, shareable with the harness that
/// keeps issuing and revoking through the same `Arc<Mutex<..>>` handle.
pub struct CaService {
    ca: Arc<Mutex<CertificationAuthority>>,
    /// Current time in seconds (freshness statements are period-relative).
    now_secs: AtomicU64,
}

impl CaService {
    /// Wraps a shared CA handle.
    pub fn new(ca: Arc<Mutex<CertificationAuthority>>) -> Self {
        CaService {
            ca,
            now_secs: AtomicU64::new(0),
        }
    }

    /// Advances the service clock.
    pub fn set_now(&self, now_secs: u64) {
        self.now_secs.store(now_secs, Ordering::SeqCst);
    }

    /// The shared CA handle (for harnesses revoking mid-experiment).
    pub fn authority(&self) -> &Arc<Mutex<CertificationAuthority>> {
        &self.ca
    }
}

impl Service for CaService {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        let ca = self.ca.lock().expect("ca lock");
        match req {
            RitmRequest::GetManifest { ca: id } => {
                if id != ca.id() {
                    return RitmResponse::Error(ProtoError::UnknownCa(id));
                }
                RitmResponse::Manifest(ca.manifest_json())
            }
            RitmRequest::GetSignedRoot { ca: id } => {
                if id != ca.id() {
                    return RitmResponse::Error(ProtoError::UnknownCa(id));
                }
                RitmResponse::SignedRoot(*ca.dictionary().signed_root())
            }
            RitmRequest::CatchUp { ca: id, have } => {
                if id != ca.id() {
                    return RitmResponse::Error(ProtoError::UnknownCa(id));
                }
                RitmResponse::Delta(ca.issuance_since(have))
            }
            RitmRequest::CatchUpPaged {
                ca: id,
                have,
                limit,
            } => {
                if id != ca.id() {
                    return RitmResponse::Error(ProtoError::UnknownCa(id));
                }
                let (issuance, remaining) =
                    ca.issuance_page(have, limit.min(ritm_proto::MAX_PAGE_LIMIT));
                RitmResponse::DeltaPage {
                    issuance,
                    remaining,
                }
            }
            RitmRequest::FetchFreshness { ca: id } => {
                if id != ca.id() {
                    return RitmResponse::Error(ProtoError::UnknownCa(id));
                }
                let now = self.now_secs.load(Ordering::SeqCst);
                match ca.dictionary().current_freshness(now) {
                    Some(f) => RitmResponse::Freshness(RefreshMessage::Freshness(f)),
                    None => RitmResponse::Error(ProtoError::NotFound),
                }
            }
            RitmRequest::FetchDelta { .. }
            | RitmRequest::GetStatus { .. }
            | RitmRequest::GetMultiStatus { .. }
            | RitmRequest::GossipRoots { .. } => RitmResponse::Error(ProtoError::Unsupported),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_cdn::network::Cdn;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::CaId;
    use ritm_net::time::SimDuration;

    const T0: u64 = 1_000_000;

    fn service() -> (CaId, ritm_crypto::ed25519::VerifyingKey, CaService) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cdn = Cdn::new(SimDuration::from_secs(10));
        let ca = CertificationAuthority::new(
            "DirectCA",
            SigningKey::from_seed([6u8; 32]),
            10,
            1024,
            &mut cdn,
            &mut rng,
            T0,
        );
        let (id, key) = (ca.id(), ca.verifying_key());
        let svc = CaService::new(Arc::new(Mutex::new(ca)));
        svc.set_now(T0 + 1);
        (id, key, svc)
    }

    #[test]
    fn manifest_round_trips_and_verifies() {
        let (id, key, svc) = service();
        match svc.handle(RitmRequest::GetManifest { ca: id }) {
            RitmResponse::Manifest(bytes) => {
                let m =
                    Manifest::from_json_signed(std::str::from_utf8(&bytes).unwrap(), &key).unwrap();
                assert_eq!(m.ca, id);
                assert_eq!(m.delta, 10);
            }
            other => panic!("expected manifest, got {other:?}"),
        }
    }

    #[test]
    fn serves_root_freshness_and_catchup_but_not_deltas() {
        let (id, _, svc) = service();
        assert!(matches!(
            svc.handle(RitmRequest::GetSignedRoot { ca: id }),
            RitmResponse::SignedRoot(_)
        ));
        assert!(matches!(
            svc.handle(RitmRequest::FetchFreshness { ca: id }),
            RitmResponse::Freshness(RefreshMessage::Freshness(_))
        ));
        match svc.handle(RitmRequest::CatchUp { ca: id, have: 0 }) {
            RitmResponse::Delta(iss) => assert!(iss.serials.is_empty()),
            other => panic!("expected delta, got {other:?}"),
        }
        assert_eq!(
            svc.handle(RitmRequest::FetchDelta { ca: id }),
            RitmResponse::Error(ProtoError::Unsupported)
        );
        let other = CaId::from_name("impostor");
        assert_eq!(
            svc.handle(RitmRequest::GetManifest { ca: other }),
            RitmResponse::Error(ProtoError::UnknownCa(other))
        );
    }
}
