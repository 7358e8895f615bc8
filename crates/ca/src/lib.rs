//! # ritm-ca — certification authorities for RITM
//!
//! * [`authority`] — an end-to-end CA: issues certificates (`ritm-tls`),
//!   revokes into its authenticated dictionary (`ritm-dictionary`), and
//!   publishes every change to the CDN origin (`ritm-cdn`);
//! * [`manifest`] — the signed `/RITM.json` bootstrap manifest (§VIII);
//! * [`misbehavior`] — an equivocating CA used by the §V attack
//!   experiments;
//! * [`service`] — the CA's direct manifest/catch-up endpoint over the
//!   `ritm-proto` wire API;
//! * [`wal`] — the crash-durable, CRC-framed issuance log of the CA and
//!   the RA (torn tails are truncated to the last complete record).

pub mod authority;
pub mod manifest;
pub mod misbehavior;
pub mod service;
pub mod wal;

pub use authority::{CaError, CertificationAuthority};
pub use manifest::{Manifest, ManifestError};
pub use misbehavior::{EquivocatingCa, View};
pub use service::CaService;
pub use wal::{IssuanceLog, LogScan, TailState};
