//! The transport-agnostic service surface.
//!
//! A [`Service`] is one RITM endpoint — a CDN edge, an RA's status server,
//! a CA's manifest endpoint — expressed as a pure request→response
//! function from `&self`. Implementations are `Send + Sync` so one service
//! instance can sit behind any transport: called in-process, placed on a
//! `ritm-net` simulated path, or served over real sockets by an
//! [`EventServer`](crate::EventServer), all without caring which.

use crate::frame::Frame;
use crate::message::{split_frame, RequestEnvelope, RitmRequest, RitmResponse, PROTOCOL_V2};
use crate::ProtoError;
use ritm_net::time::SimDuration;

/// One RITM endpoint. `handle` must be callable from any number of threads
/// concurrently — interior mutability is the implementation's business.
pub trait Service: Send + Sync {
    /// Serves one decoded request.
    fn handle(&self, req: RitmRequest) -> RitmResponse;

    /// Simulated service-side latency attributable to the *last* request
    /// this thread of execution handled (e.g. a CDN edge's sampled
    /// origin-fetch time). Transports that measure their own timing (real
    /// TCP) ignore it; the loopback and simulator transports charge it.
    /// Implementations should drain the value (return-and-reset) so two
    /// transports sharing a service never double-charge. The default
    /// reports zero.
    fn take_latency(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Serves one encoded frame (length prefix included), producing the
    /// encoded response frame. This is the single choke point every
    /// transport funnels through, so version negotiation and malformed
    /// input are handled identically everywhere: an unsupported version or
    /// undecodable body yields a typed [`RitmResponse::Error`] frame —
    /// never a panic, never a silent drop. The reply is framed in the
    /// request's own envelope version (v2 requests get their id echoed);
    /// an unframeable input answers in v1, which every peer parses.
    fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        match split_frame(frame) {
            Ok((body, _)) => self.handle_envelope(RequestEnvelope::decode(body)),
            Err(e) => RitmResponse::Error(ProtoError::Malformed {
                offset: e.offset as u32,
            })
            .to_frame(),
        }
    }

    /// Serves one already-split envelope, producing the encoded response
    /// frame tagged with the envelope's reply version and request id —
    /// the unit an out-of-order server spawns per-request handler tasks
    /// around ([`handle_frame`](Service::handle_frame) funnels here).
    fn handle_envelope(&self, env: RequestEnvelope) -> Vec<u8> {
        let resp = match env.request {
            Ok(req) => self.handle(req),
            Err(e) => RitmResponse::Error(e),
        };
        // A response the framing layer could never deliver (anything past
        // MAX_FRAME_LEN) must degrade to a typed error, not an unparseable
        // frame on the peer's side. The error names both sizes.
        let overhead = if env.reply_version >= PROTOCOL_V2 {
            4
        } else {
            0
        };
        let encoded = resp.encoded_len() + overhead;
        if encoded > crate::message::MAX_FRAME_LEN {
            return RitmResponse::Error(ProtoError::ResponseTooLarge {
                len: encoded as u64,
                max: crate::message::MAX_FRAME_LEN as u64,
            })
            .to_frame_for(env.reply_version, env.request_id);
        }
        resp.to_frame_for(env.reply_version, env.request_id)
    }

    /// Serves one encoded frame as a [`Frame`] — the zero-copy variant of
    /// [`handle_frame`](Service::handle_frame), byte-identical on the
    /// wire. The default wraps `handle_frame`'s owned bytes; services
    /// with an encoded-response cache override
    /// [`serve_envelope`](Service::serve_envelope) to answer hot requests
    /// with a [`Body::Shared`](crate::Body::Shared) body instead.
    fn serve_frame(&self, frame: &[u8]) -> Frame {
        match split_frame(frame) {
            Ok((body, _)) => self.serve_envelope(RequestEnvelope::decode(body)),
            Err(e) => Frame::from_bytes(
                RitmResponse::Error(ProtoError::Malformed {
                    offset: e.offset as u32,
                })
                .to_frame(),
            ),
        }
    }

    /// Serves one already-split envelope as a [`Frame`]; the zero-copy
    /// analogue of [`handle_envelope`](Service::handle_envelope) and the
    /// override point for cached encoded responses.
    fn serve_envelope(&self, env: RequestEnvelope) -> Frame {
        Frame::from_bytes(self.handle_envelope(env))
    }
}

// The blanket impls must forward *every* defaulted method, not just the
// required ones: a service's `serve_envelope` override would otherwise be
// silently lost behind `Arc<dyn Service>` (the default would recompute
// from `handle` instead of hitting the cache).
impl<S: Service + ?Sized> Service for std::sync::Arc<S> {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        (**self).handle(req)
    }

    fn take_latency(&self) -> SimDuration {
        (**self).take_latency()
    }

    fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        (**self).handle_frame(frame)
    }

    fn handle_envelope(&self, env: RequestEnvelope) -> Vec<u8> {
        (**self).handle_envelope(env)
    }

    fn serve_frame(&self, frame: &[u8]) -> Frame {
        (**self).serve_frame(frame)
    }

    fn serve_envelope(&self, env: RequestEnvelope) -> Frame {
        (**self).serve_envelope(env)
    }
}

impl<S: Service + ?Sized> Service for &S {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        (**self).handle(req)
    }

    fn take_latency(&self) -> SimDuration {
        (**self).take_latency()
    }

    fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        (**self).handle_frame(frame)
    }

    fn handle_envelope(&self, env: RequestEnvelope) -> Vec<u8> {
        (**self).handle_envelope(env)
    }

    fn serve_frame(&self, frame: &[u8]) -> Frame {
        (**self).serve_frame(frame)
    }

    fn serve_envelope(&self, env: RequestEnvelope) -> Frame {
        (**self).serve_envelope(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritm_dictionary::CaId;

    /// Answers every request with `Unsupported` (enough to exercise the
    /// framing choke point).
    struct Stub;

    impl Service for Stub {
        fn handle(&self, _req: RitmRequest) -> RitmResponse {
            RitmResponse::Error(ProtoError::Unsupported)
        }
    }

    #[test]
    fn well_formed_frame_reaches_handle() {
        let frame = RitmRequest::FetchDelta {
            ca: CaId::from_name("SvcCA"),
        }
        .to_frame();
        let resp_frame = Stub.handle_frame(&frame);
        let (body, _) = split_frame(&resp_frame).unwrap();
        assert_eq!(
            RitmResponse::decode_body(body).unwrap(),
            RitmResponse::Error(ProtoError::Unsupported)
        );
    }

    /// Answers with a payload the framing layer could never carry.
    struct Oversized;

    impl Service for Oversized {
        fn handle(&self, _req: RitmRequest) -> RitmResponse {
            RitmResponse::Manifest(vec![0u8; crate::message::MAX_FRAME_LEN + 1])
        }
    }

    #[test]
    fn oversized_response_degrades_to_typed_too_large_error() {
        let frame = RitmRequest::GetManifest {
            ca: CaId::from_name("BigCA"),
        }
        .to_frame();
        let resp_frame = Oversized.handle_frame(&frame);
        let (body, _) = split_frame(&resp_frame).unwrap();
        // version + kind + u32 payload length + the payload itself.
        let expected_len = 2 + 4 + (crate::message::MAX_FRAME_LEN + 1) as u64;
        assert_eq!(
            RitmResponse::decode_body(body).unwrap(),
            RitmResponse::Error(ProtoError::ResponseTooLarge {
                len: expected_len,
                max: crate::message::MAX_FRAME_LEN as u64,
            })
        );
    }

    #[test]
    fn v2_frame_reply_echoes_version_and_request_id() {
        let frame = RitmRequest::FetchDelta {
            ca: CaId::from_name("SvcCA"),
        }
        .to_frame_v2(42);
        let resp_frame = Stub.handle_frame(&frame);
        let (body, _) = split_frame(&resp_frame).unwrap();
        assert_eq!(
            RitmResponse::decode_envelope(body).unwrap(),
            (
                PROTOCOL_V2,
                42,
                RitmResponse::Error(ProtoError::Unsupported)
            )
        );
    }

    #[test]
    fn retired_kinds_get_a_malformed_reply() {
        // v2 frames of the retired kinds — the freshness pull 0x02 (ca),
        // the unpaged catch-up 0x03 (ca ‖ have), the paged catch-up 0x08
        // (ca ‖ u64 have ‖ u32 limit), 0x09 with an empty root vector, and
        // the freshness reply 0x82 (tag 0 ‖ statement) sent as a request —
        // are answered `Malformed` in the peer's envelope, never handed on.
        let frame = |kind: u8, fields: &[u8]| {
            let len = (6 + fields.len()) as u32;
            [
                &len.to_be_bytes()[..],
                &[PROTOCOL_V2, 0, 0, 0, 42, kind],
                fields,
            ]
            .concat()
        };
        for frame in [
            frame(0x02, &[7; 8]),
            frame(0x03, &[7; 16]),
            frame(0x08, &[7; 20]),
            frame(0x09, &[0, 0]),
            frame(0x82, &[0; 21]),
        ] {
            let resp_frame = Stub.handle_frame(&frame);
            let (body, _) = split_frame(&resp_frame).unwrap();
            assert_eq!(
                RitmResponse::decode_envelope(body).unwrap(),
                (
                    PROTOCOL_V2,
                    42,
                    RitmResponse::Error(ProtoError::Malformed { offset: 5 })
                )
            );
        }
    }

    #[test]
    fn garbage_frame_yields_typed_error_not_panic() {
        for garbage in [&[][..], &[1, 2, 3][..], &[0, 0, 0, 99, 7][..]] {
            let resp_frame = Stub.handle_frame(garbage);
            let (body, _) = split_frame(&resp_frame).unwrap();
            match RitmResponse::decode_body(body).unwrap() {
                RitmResponse::Error(ProtoError::Malformed { .. }) => {}
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }
}
