//! # ritm-cdn — the dissemination network (paper §III "Dissemination",
//! §VII-B/C)
//!
//! RITM reuses a commercial CDN to push revocations from CAs to RAs. This
//! crate models a CloudFront-style CDN:
//!
//! * [`origin`] — the distribution point CAs publish (verified) issuances,
//!   freshness statements, and bootstrap manifests to;
//! * [`edge`] — regional TTL caches RAs pull from, with the Fig. 5
//!   download-time model (RTT + serialization, worst case TTL = 0);
//! * [`regions`] — region geography, population shares, latency models, and
//!   the 2015 CloudFront price ladder;
//! * [`pricing`] — tiered per-region billing, producing the Fig. 6 /
//!   Table II cost numbers;
//! * [`network`] — the assembled CDN;
//! * [`service`] — a regional edge exposed as a `ritm-proto`
//!   [`Service`](ritm_proto::Service) endpoint, servable over any
//!   transport (in-process, simulated, real TCP).
//!
//! # Examples
//!
//! ```
//! use ritm_cdn::{network::Cdn, origin::ContentKey, regions::Region};
//! use ritm_net::time::{SimDuration, SimTime};
//! use ritm_dictionary::CaId;
//! use rand::SeedableRng;
//!
//! let mut cdn = Cdn::new(SimDuration::from_secs(10));
//! let ca = CaId::from_name("ExampleCA");
//! cdn.origin.publish_manifest(ca, b"{\"delta\": 10}".to_vec());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (bytes, stats) = cdn
//!     .pull(Region::Europe, &ContentKey::Manifest { ca }, SimTime::ZERO, &mut rng)
//!     .expect("published");
//! assert!(!stats.cache_hit);
//! assert_eq!(bytes, b"{\"delta\": 10}");
//! ```

pub mod edge;
pub mod network;
pub mod origin;
pub mod pricing;
pub mod regions;
pub mod service;

pub use edge::{EdgeServer, PullStats};
pub use network::Cdn;
pub use origin::{ContentKey, Origin, PublishError};
pub use pricing::{aggregate_tiered_cost_usd, tiered_cost_usd, TrafficLedger};
pub use regions::{Region, ALL_REGIONS};
pub use service::EdgeService;
