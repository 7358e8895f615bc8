//! # ritm-proto — the versioned RITM wire protocol
//!
//! The paper's deployment story (§III Dissemination, §VI) is a distributed
//! protocol: RAs pull dictionary deltas and freshness statements from CDN
//! edges, clients receive revocation statuses, and every endpoint speaks a
//! small request/response vocabulary. This crate is that vocabulary as a
//! real wire API:
//!
//! * [`RitmRequest`] / [`RitmResponse`] — versioned, length-delimited
//!   envelopes (v1: `u32 length ‖ version ‖ kind ‖ fields`; v2 adds a
//!   per-frame `request_id` echoed on the response, enabling out-of-order
//!   completion) with a typed [`ProtoError`] taxonomy and explicit version
//!   negotiation. Decoding is `check_count`-hardened: forged counts and
//!   truncated frames yield errors, never panics or oversized allocations.
//! * [`Service`] — the transport-agnostic endpoint trait
//!   (`fn handle(&self, RitmRequest) -> RitmResponse` from `&self`),
//!   implemented by the CDN edge (`ritm-cdn`), the RA read path
//!   (`ritm-agent`, over its lock-free `StatusServer`), and the CA
//!   manifest endpoint (`ritm-ca`).
//! * [`Transport`] — the client half, with three interchangeable
//!   implementations: in-process [`Loopback`], the [`sim::SimTransport`]
//!   adapter carrying frames in `ritm-net` `TcpSegment` payloads, and the
//!   non-blocking [`event::EventTransport`] / [`event::EventServer`] pair
//!   over real `std::net` sockets, which multiplexes every connection onto
//!   a ≤2-thread `ritm-rt` runtime (shareable across several servers),
//!   keeps request batches in flight at once
//!   ([`Transport::round_trip_many`]), and completes them out of order on
//!   envelope v2, correlated by request id.
//!
//! Byte accounting is exact and transport-invariant: a round trip reports
//! the encoded frame sizes ([`TransportMeta`]), so the Fig. 7 download
//! volumes measure actual protocol bytes whichever transport carried them.

pub mod error;
pub mod event;
pub mod fault;
pub mod frame;
pub mod message;
pub mod payload;
pub mod service;
pub mod sim;
pub mod transport;

pub use error::{ProtoError, TransportError};
pub use event::{EventServer, EventServerConfig, EventTransport};
pub use fault::{FaultPlan, FaultStats, FaultTransport};
pub use frame::{Body, Frame, FRAME_HEADER_MAX};
pub use message::{
    peek_request_envelope, split_frame, RequestEnvelope, RitmRequest, RitmResponse, Update,
    MAX_CHAIN_LEN, MAX_FRAME_LEN, MAX_PAGE_LIMIT, MAX_SUPPORTED_VERSION, MIN_SUPPORTED_VERSION,
    PROTOCOL_V2, PROTOCOL_VERSION,
};
pub use payload::StatusPayload;
pub use service::Service;
pub use transport::{Loopback, RoundTrip, Transport, TransportMeta};
