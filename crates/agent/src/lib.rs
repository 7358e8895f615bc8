//! # ritm-agent — the Revocation Agent middlebox (paper §III, §VI)
//!
//! The RA is RITM's central component: an in-path middlebox that
//!
//! * mirrors CA dictionaries by pulling from the CDN every Δ ([`sync`]),
//! * inspects TLS traffic with a two-stage DPI ([`dpi`]),
//! * tracks supported connections in the Eq. (4) state table ([`state`]),
//! * piggybacks revocation statuses onto server→client traffic — once at
//!   ServerHello time and then at least every Δ — adjusting TCP sequence
//!   numbers for the injected bytes ([`ra`]),
//! * runs the same validation inline on reassembled TCP byte streams,
//!   stapling at record boundaries and resetting revoked flows
//!   ([`intercept`]),
//! * serves proofs lock-free from `Arc`-shared, epoch-stamped dictionary
//!   snapshots ([`serve`]): writers publish a new snapshot per epoch,
//!   readers never block on issuance or refresh,
//! * answers hot status requests from fully encoded responses cached per
//!   publication generation ([`cache`]), invalidated on every republish,
//! * exposes that read path as a wire-protocol endpoint ([`service`])
//!   servable over any `ritm-proto` transport,
//! * persists and resumes mirrors across restarts ([`persist`]),
//! * and monitors CAs for equivocation and its own cache health
//!   ([`monitor`]).
//!
//! The sync path speaks only the versioned `ritm-proto` envelopes: see
//! [`RevocationAgent::sync_via`] and the `StatusPayload` re-export (the
//! payload type itself now lives in `ritm-proto`, where every wire format
//! belongs).

pub mod cache;
pub mod dpi;
pub mod intercept;
pub mod monitor;
pub mod persist;
pub mod ra;
pub mod serve;
pub mod service;
pub mod state;
pub mod sync;

pub use cache::{CacheStats, EpochKeyedCache, ShardedEpochCache};
pub use dpi::{classify, classify_records, Classification, ServerFlight, StreamClassifier};
pub use intercept::{FlowStage, FlowTable, InterceptConfig, InterceptStats, TcpBuffer};
pub use monitor::{ConsistencyMonitor, MisbehaviorReport, RaHealthReport};
pub use persist::{MirrorSnapshot, ResumeError};
pub use ra::{MirrorWriteGuard, RaConfig, RaStats, RevocationAgent, StatusPayload};
pub use serve::StatusServer;
pub use service::StatusService;
pub use state::{ConnState, Stage, StateTable};
pub use sync::{RetryPolicy, SyncPolicy, SyncReport};
