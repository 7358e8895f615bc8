//! The client half: a [`Transport`] carries one encoded request frame to a
//! service and brings the encoded response frame back.
//!
//! Three interchangeable implementations ship with this crate:
//!
//! * [`Loopback`] (here) — a direct in-process call, zero copies beyond the
//!   frames themselves. The reference for byte accounting: every other
//!   transport must move exactly these bytes.
//! * [`crate::sim::SimTransport`] — frames ride in `TcpSegment` payloads
//!   across a deterministic `ritm-net` simulation, so latency/middlebox
//!   experiments run unchanged over the real protocol.
//! * [`crate::event::EventTransport`] — frames cross a real `std::net`
//!   socket to a [`crate::event::EventServer`], multiplexed on envelope v2
//!   (each frame carries a 4-byte request id the reply echoes).

use crate::error::TransportError;
use crate::message::{split_frame, RitmRequest, RitmResponse};
use crate::service::Service;
use ritm_net::time::SimDuration;

/// Byte-accurate accounting for one round trip. `request_bytes` and
/// `response_bytes` count whole encoded frames (length prefix included) —
/// the Fig. 7 y-axis under the wire protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportMeta {
    /// Encoded request frame size.
    pub request_bytes: u64,
    /// Encoded response frame size.
    pub response_bytes: u64,
    /// Round-trip latency as the transport observed it (zero + service
    /// latency for loopback, simulated time for `SimTransport`, wall clock
    /// for real TCP).
    pub latency: SimDuration,
}

/// One completed round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrip {
    /// The decoded response (which may be a typed
    /// [`crate::ProtoError`] from the server).
    pub response: RitmResponse,
    /// Byte/latency accounting.
    pub meta: TransportMeta,
}

/// Carries requests to one service endpoint.
pub trait Transport {
    /// Sends `req` and blocks until the response frame is back.
    ///
    /// # Errors
    ///
    /// [`TransportError`] when no decodable response arrived. Server-side
    /// failures are *not* errors at this level: they come back as
    /// `Ok` with [`RitmResponse::Error`].
    fn round_trip(&mut self, req: &RitmRequest) -> Result<RoundTrip, TransportError>;

    /// Sends a batch of independent requests and returns one result per
    /// request, in request order.
    ///
    /// The default runs them sequentially — correct everywhere, and
    /// byte-identical to the pipelined path. Transports that can keep
    /// multiple requests in flight (the event-driven
    /// [`crate::event::EventTransport`]) override this so a batch costs
    /// ~1 RTT instead of N; callers that batch (`RevocationAgent::
    /// sync_via`, `ritm_client::fetch_and_validate_many`) get the speedup
    /// wherever the transport offers it, with no behavioural difference
    /// elsewhere.
    fn round_trip_many(&mut self, reqs: &[RitmRequest]) -> Vec<Result<RoundTrip, TransportError>> {
        reqs.iter().map(|req| self.round_trip(req)).collect()
    }
}

/// The in-process transport: encodes the request, hands the frame straight
/// to the service, decodes the response. What a co-located RA↔CDN
/// deployment (or a unit test) uses.
#[derive(Debug)]
pub struct Loopback<S> {
    service: S,
}

impl<S: Service> Loopback<S> {
    /// Wraps a service (commonly a `&S` or `Arc<S>` handle).
    pub fn new(service: S) -> Self {
        Loopback { service }
    }

    /// The wrapped service.
    pub fn service(&self) -> &S {
        &self.service
    }
}

impl<S: Service> Transport for Loopback<S> {
    fn round_trip(&mut self, req: &RitmRequest) -> Result<RoundTrip, TransportError> {
        let frame = req.to_frame();
        let resp_frame = self.service.handle_frame(&frame);
        let (body, _) = split_frame(&resp_frame)?;
        let response = RitmResponse::decode_body(body)?;
        Ok(RoundTrip {
            response,
            meta: TransportMeta {
                request_bytes: frame.len() as u64,
                response_bytes: resp_frame.len() as u64,
                latency: self.service.take_latency(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtoError;
    use ritm_dictionary::CaId;

    struct Echoes;

    impl Service for Echoes {
        fn handle(&self, req: RitmRequest) -> RitmResponse {
            match req {
                RitmRequest::GetSignedRoot { ca } => RitmResponse::Error(ProtoError::UnknownCa(ca)),
                _ => RitmResponse::Error(ProtoError::Unsupported),
            }
        }

        fn take_latency(&self) -> SimDuration {
            SimDuration::from_millis(3)
        }
    }

    #[test]
    fn loopback_round_trip_accounts_exact_frame_bytes() {
        let ca = CaId::from_name("LoopCA");
        let req = RitmRequest::GetSignedRoot { ca };
        let mut t = Loopback::new(Echoes);
        let rt = t.round_trip(&req).unwrap();
        assert_eq!(rt.response, RitmResponse::Error(ProtoError::UnknownCa(ca)));
        assert_eq!(rt.meta.request_bytes as usize, req.to_frame().len());
        assert_eq!(
            rt.meta.response_bytes as usize,
            RitmResponse::Error(ProtoError::UnknownCa(ca))
                .to_frame()
                .len()
        );
        assert_eq!(rt.meta.latency, SimDuration::from_millis(3));
    }
}
