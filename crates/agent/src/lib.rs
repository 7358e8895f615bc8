//! # ritm-agent — the Revocation Agent middlebox (paper §III, §VI)
//!
//! The RA is RITM's central component: an in-path middlebox that
//!
//! * mirrors CA dictionaries by pulling from the CDN every Δ ([`sync`]),
//!   applying what it pulls through the one writer ([`ra`]),
//! * runs **one interception lane** ([`intercept`]): per-flow TCP
//!   reassembly feeding a fragmentation-proof DPI ([`dpi`]) over the
//!   Eq. (4) flow table. While a flow waits for the server's first flight
//!   the lane withholds the server's bytes (at most one upstream status
//!   record plus one flight record), then decides once — reset a revoked
//!   chain, staple a status record *in front of* the flight (an
//!   abbreviated flight carries the server's Finished in the same record,
//!   so there is no later place a strict client would accept), replace a
//!   staler upstream RA's status or leave a fresher one (§VIII) — and
//!   releases. Established flows are re-stapled at least every Δ, with TCP
//!   sequence numbers translated for every byte added or removed,
//! * serves proofs from one publication per mirrored CA ([`serve`]): the
//!   CA's `Arc`-shared, epoch-stamped dictionary snapshot together with the
//!   `GetStatus` bodies encoded from it. A hot request is answered from
//!   those bytes; every republish swaps in the new snapshot and drops the
//!   old bodies with it, and readers never block on issuance or refresh,
//! * exposes that read path as a wire-protocol endpoint ([`service`])
//!   servable over any `ritm-proto` transport,
//! * resumes mirrors across restarts from their issuance logs
//!   ([`persist`]),
//! * and monitors CAs for equivocation and its own cache health
//!   ([`monitor`]).
//!
//! The sync path speaks only the versioned `ritm-proto` envelopes: see
//! [`RevocationAgent::sync_via`] and the `StatusPayload` re-export (the
//! payload type itself now lives in `ritm-proto`, where every wire format
//! belongs).

pub mod dpi;
pub mod intercept;
pub mod monitor;
pub mod persist;
pub mod ra;
pub mod serve;
pub mod service;
pub mod sync;

pub use dpi::{classify, Classification, ServerFlight, StreamClassifier};
pub use intercept::{
    FlowStage, FlowTable, InterceptConfig, InterceptStats, StreamFault, TcpBuffer,
};
pub use monitor::{ConsistencyMonitor, MisbehaviorReport, RaHealthReport};
pub use ra::{MirrorWriteGuard, RaConfig, RevocationAgent, StatusPayload};
pub use serve::{CacheStats, StatusServer};
pub use service::StatusService;
pub use sync::{RetryPolicy, SyncPolicy, SyncReport};
