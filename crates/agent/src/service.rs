//! The RA's read path as a wire-protocol [`Service`] endpoint.
//!
//! [`StatusService`] wraps the `Arc`-shared, lock-free [`StatusServer`]:
//! `GetStatus` and `GetMultiStatus` build statuses exactly like the in-path
//! piggybacking does (same snapshots), and `GetSignedRoot` serves the
//! current mirrored root for consistency cross-checks. Because [`StatusServer`] is already `&self`-only, the
//! service needs no interior mutability at all — any number of transport
//! threads (loopback callers, simulator events, TCP pool workers) serve
//! concurrently while the owning [`crate::ra::RevocationAgent`] keeps
//! applying dictionary updates.

use crate::serve::StatusServer;
use ritm_proto::message::RequestEnvelope;
use ritm_proto::{
    Frame, ProtoError, RitmRequest, RitmResponse, Service, StatusPayload, MAX_FRAME_LEN,
    PROTOCOL_V2,
};
use std::sync::Arc;

/// One RA status endpoint over the shared [`StatusServer`].
#[derive(Debug, Clone)]
pub struct StatusService {
    server: Arc<StatusServer>,
    /// Whether `GetMultiStatus` requests may compress same-CA chain runs
    /// when the requester allows it.
    pub allow_compression: bool,
}

impl StatusService {
    /// Wraps a status server handle (see
    /// [`crate::ra::RevocationAgent::status_server`]).
    pub fn new(server: Arc<StatusServer>) -> Self {
        StatusService {
            server,
            allow_compression: true,
        }
    }

    /// The wrapped server handle.
    pub fn server(&self) -> &Arc<StatusServer> {
        &self.server
    }
}

impl Service for StatusService {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        match req {
            RitmRequest::GetStatus { ca, serial } => match self.server.status_for(&ca, &serial) {
                Some(status) => RitmResponse::Status(StatusPayload::single(vec![status])),
                None => RitmResponse::Error(ProtoError::UnknownCa(ca)),
            },
            RitmRequest::GetMultiStatus { chain, compress } => {
                if chain.is_empty() {
                    return RitmResponse::Error(ProtoError::NotFound);
                }
                match self
                    .server
                    .build_status(&chain, compress && self.allow_compression)
                {
                    Some(payload) => RitmResponse::Status(payload),
                    // Some CA in the chain is not mirrored: stay silent
                    // about which (the RA injects nothing it cannot prove).
                    None => RitmResponse::Error(ProtoError::NotFound),
                }
            }
            RitmRequest::GetSignedRoot { ca } => match self.server.snapshot(&ca) {
                Some(snap) => RitmResponse::SignedRoot(*snap.signed_root()),
                None => RitmResponse::Error(ProtoError::UnknownCa(ca)),
            },
            // Dissemination requests belong to CDN edges, manifests to CAs.
            RitmRequest::FetchDelta { .. }
            | RitmRequest::FetchFreshness { .. }
            | RitmRequest::CatchUp { .. }
            | RitmRequest::CatchUpPaged { .. }
            | RitmRequest::GetManifest { .. }
            | RitmRequest::GossipRoots { .. } => RitmResponse::Error(ProtoError::Unsupported),
        }
    }

    /// The zero-copy hot path: `GetStatus` and single-CA `GetMultiStatus`
    /// answer straight from the server's encoded-response cache as a
    /// shared-body [`Frame`] — no proof building, no payload assembly, no
    /// encoding, and no copy of the response bytes. Everything else (and
    /// any response too large for the framing layer) falls through to
    /// [`Service::handle_envelope`], so the wire bytes are identical to
    /// the owned path in every case.
    fn serve_envelope(&self, env: RequestEnvelope) -> Frame {
        let body = match &env.request {
            Ok(RitmRequest::GetStatus { ca, serial }) => self.server.encoded_status(ca, serial),
            Ok(RitmRequest::GetMultiStatus { chain, compress }) if !chain.is_empty() => self
                .server
                .encoded_multi_status(chain, *compress && self.allow_compression),
            _ => None,
        };
        if let Some(body) = body {
            // Same size guard as handle_envelope: encoded_len is the
            // version byte + optional id + body.
            let overhead = if env.reply_version >= PROTOCOL_V2 {
                4
            } else {
                0
            };
            if 1 + overhead + body.len() <= MAX_FRAME_LEN {
                return Frame::shared(env.reply_version, env.request_id, body);
            }
        }
        Frame::from_bytes(self.handle_envelope(env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};

    const T0: u64 = 1_000_000;

    fn setup(n: u32) -> (CaDictionary, StatusService) {
        let mut rng = StdRng::seed_from_u64(23);
        let mut ca = CaDictionary::new(
            CaId::from_name("StatusSvcCA"),
            SigningKey::from_seed([1u8; 32]),
            10,
            64,
            &mut rng,
            T0,
        );
        let mut m = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        m.set_delta(10);
        let serials: Vec<SerialNumber> = (0..n).map(|i| SerialNumber::from_u24(i * 2)).collect();
        let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
        m.apply_issuance(&iss, T0 + 1).unwrap();
        let server = StatusServer::new();
        assert!(server.publish(m.snapshot()));
        (ca, StatusService::new(Arc::new(server)))
    }

    #[test]
    fn get_status_validates_like_the_in_path_build() {
        let (ca, svc) = setup(20);
        let serial = SerialNumber::from_u24(4);
        match svc.handle(RitmRequest::GetStatus {
            ca: ca.ca(),
            serial,
        }) {
            RitmResponse::Status(payload) => {
                assert_eq!(payload.statuses.len(), 1);
                let outcome = payload.statuses[0]
                    .validate(&serial, &ca.verifying_key(), 10, T0 + 2)
                    .unwrap();
                assert!(outcome.is_revoked());
            }
            other => panic!("expected status, got {other:?}"),
        }
    }

    #[test]
    fn multi_status_compresses_runs_past_the_leaf() {
        let (ca, svc) = setup(50);
        let chain: Vec<(CaId, SerialNumber)> = [1u32, 21, 41]
            .iter()
            .map(|&v| (ca.ca(), SerialNumber::from_u24(v)))
            .collect();
        match svc.handle(RitmRequest::GetMultiStatus {
            chain,
            compress: true,
        }) {
            RitmResponse::Status(p) => {
                assert_eq!(p.statuses.len(), 1, "leaf stays individual");
                assert_eq!(p.multi.len(), 1);
            }
            other => panic!("expected status, got {other:?}"),
        }
    }

    #[test]
    fn serve_frame_matches_handle_frame_bytes_for_both_versions() {
        let (ca, svc) = setup(20);
        let chain: Vec<(CaId, SerialNumber)> = [0u32, 2, 6]
            .iter()
            .map(|&v| (ca.ca(), SerialNumber::from_u24(v)))
            .collect();
        let reqs = [
            RitmRequest::GetStatus {
                ca: ca.ca(),
                serial: SerialNumber::from_u24(4),
            },
            RitmRequest::GetMultiStatus {
                chain,
                compress: true,
            },
            // Falls through the cache (unknown CA) — still identical.
            RitmRequest::GetStatus {
                ca: CaId::from_name("nobody"),
                serial: SerialNumber::from_u24(1),
            },
        ];
        for req in &reqs {
            for frame in [req.to_frame(), req.to_frame_v2(7)] {
                assert_eq!(
                    svc.serve_frame(&frame).to_vec(),
                    svc.handle_frame(&frame),
                    "zero-copy and owned paths must agree on the wire"
                );
            }
        }
        // The v2 replays were served from the encoded cache (one shared
        // body covers both envelope versions).
        assert!(svc.server().encoded_cache_stats().hits >= 1);
        assert!(svc.server().encoded_multi_cache_stats().hits >= 1);
    }

    #[test]
    fn unmirrored_ca_is_a_typed_error() {
        let (_, svc) = setup(4);
        let nobody = CaId::from_name("nobody");
        assert_eq!(
            svc.handle(RitmRequest::GetStatus {
                ca: nobody,
                serial: SerialNumber::from_u24(1),
            }),
            RitmResponse::Error(ProtoError::UnknownCa(nobody))
        );
        assert_eq!(
            svc.handle(RitmRequest::FetchDelta { ca: nobody }),
            RitmResponse::Error(ProtoError::Unsupported)
        );
    }
}
