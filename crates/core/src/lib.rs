//! # ritm-core — end-to-end RITM orchestration
//!
//! Ties every subsystem together: a [`world::RitmWorld`] wires a CA
//! (`ritm-ca`), the CDN (`ritm-cdn`), a shared Revocation Agent
//! (`ritm-agent`), and TLS endpoints (`ritm-tls` / `ritm-client`) onto the
//! packet-level simulator (`ritm-net`), implementing the full Fig. 1 / Fig. 3
//! protocol flow under both §IV deployment models.

pub mod deployment;
pub mod nodes;
pub mod world;

pub use deployment::DeploymentModel;
pub use nodes::{ClientNode, ServerNode};
pub use world::{ConnectionOptions, ConnectionOutcome, RitmWorld, EPOCH};
