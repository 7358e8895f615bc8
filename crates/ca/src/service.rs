//! The CA's direct endpoint as a wire-protocol [`Service`].
//!
//! Most dissemination flows through the CDN, but two objects are naturally
//! served by the CA itself (§VIII): the signed `/RITM.json` bootstrap
//! manifest and authoritative pulls answered from its own issuance log —
//! `Pull`, and the paged `CatchUpPaged` — under the feed's one page rule,
//! so every page carries a root the CA published and answering one signs
//! nothing. [`CaService`] exposes exactly those — plus the current signed
//! root and freshness statement for monitors — while refusing `FetchDelta`
//! (periodic pulls should hit the CDN so the CA's own link is never the
//! fan-out bottleneck) and status requests (an RA's job).

use crate::authority::CertificationAuthority;
use ritm_dictionary::RefreshMessage;
use ritm_proto::{ProtoError, RitmRequest, RitmResponse, Service, Update};
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
            RitmRequest::CatchUpPaged {
                ca: id,
                have,
                limit,
            } => {
                if id != ca.id() {
                    return RitmResponse::Error(ProtoError::UnknownCa(id));
                }
                let (issuance, remaining) = ca
                    .dictionary()
                    .issuance_page(have, limit.min(ritm_proto::MAX_PAGE_LIMIT));
                RitmResponse::DeltaPage {
                    issuance,
                    remaining,
                }
            }
            RitmRequest::Pull {
                ca: id,
                have,
                limit,
            } => {
                if id != ca.id() {
                    return RitmResponse::Error(ProtoError::UnknownCa(id));
                }
                let dictionary = ca.dictionary();
                let page = dictionary.issuance_page(have, limit.min(ritm_proto::MAX_PAGE_LIMIT));
                let now = self.now_secs.load(Ordering::SeqCst);
                let refresh = dictionary
                    .current_freshness(now)
                    .map(RefreshMessage::Freshness);
                RitmResponse::Update(Update::answer(have, Some(page), refresh))
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
            | RitmRequest::GetMultiStatus { .. } => RitmResponse::Error(ProtoError::Unsupported),
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
        match svc.handle(RitmRequest::CatchUpPaged {
            ca: id,
            have: 0,
            limit: 64,
        }) {
            RitmResponse::DeltaPage {
                issuance,
                remaining,
            } => assert!(issuance.serials.is_empty() && remaining == 0),
            other => panic!("expected a page, got {other:?}"),
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

    /// Issues and revokes `n` certificates through the service's CA,
    /// publishing to `cdn`.
    fn revoke(
        svc: &CaService,
        cdn: &mut Cdn,
        n: u32,
        now: u64,
    ) -> ritm_dictionary::RevocationIssuance {
        let mut rng = StdRng::seed_from_u64(now);
        let mut ca = svc.authority().lock().unwrap();
        cdn.origin.register_ca(ca.id(), ca.verifying_key());
        let key = SigningKey::from_seed([9u8; 32]).verifying_key();
        let serials: Vec<_> = (0..n)
            .map(|i| {
                ca.issue_certificate(&format!("s{i}"), key, 0, u64::MAX)
                    .serial
            })
            .collect();
        ca.revoke(&serials, cdn, &mut rng, now).unwrap().unwrap()
    }

    #[test]
    fn mid_batch_catch_up_serves_the_published_batch_and_signs_nothing() {
        let (id, _, svc) = service();
        let batch = revoke(&svc, &mut Cdn::new(SimDuration::ZERO), 40, T0 + 1);
        let head = *svc.authority().lock().unwrap().dictionary().signed_root();
        match svc.handle(RitmRequest::CatchUpPaged {
            ca: id,
            have: 10,
            limit: 1,
        }) {
            RitmResponse::DeltaPage {
                issuance,
                remaining,
            } => {
                assert_eq!(remaining, 0);
                assert_eq!(issuance.first_number, 11);
                assert_eq!(issuance.serials, batch.serials[10..]);
                // The root the CA published for the batch, not a new one
                // over a prefix of it.
                assert_eq!(issuance.signed_root, batch.signed_root);
            }
            other => panic!("expected a page, got {other:?}"),
        }
        let ca = svc.authority().lock().unwrap();
        assert_eq!(*ca.dictionary().signed_root(), head);
    }

    #[test]
    fn pull_answers_the_missing_batches_then_only_freshness() {
        let (id, _, svc) = service();
        let mut cdn = Cdn::new(SimDuration::ZERO);
        let first = revoke(&svc, &mut cdn, 3, T0 + 1);
        let second = revoke(&svc, &mut cdn, 2, T0 + 2);
        // Behind by two batches: both, under the head root; the refresh is
        // that root's own anchor, so it is left out.
        let pull = |have| RitmRequest::Pull {
            ca: id,
            have,
            limit: 64,
        };
        let mut serials = first.serials.clone();
        serials.extend_from_slice(&second.serials);
        assert_eq!(
            svc.handle(pull(0)),
            RitmResponse::Update(Update {
                serials,
                signed_root: Some(second.signed_root),
                remaining: 0,
                refresh: None,
            })
        );
        // Up to date a period later: the period's freshness statement only.
        svc.set_now(T0 + 2 + 10);
        let fresh = svc
            .authority()
            .lock()
            .unwrap()
            .dictionary()
            .current_freshness(T0 + 12)
            .unwrap();
        assert_eq!(
            svc.handle(pull(5)),
            RitmResponse::Update(Update {
                refresh: Some(RefreshMessage::Freshness(fresh)),
                ..Update::default()
            })
        );
        // Ahead of the CA: nothing it could use.
        assert_eq!(svc.handle(pull(9)), RitmResponse::Update(Update::default()));
    }
}
