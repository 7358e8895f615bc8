//! # ritm-tls — wire-format TLS substrate for the RITM reproduction
//!
//! The paper's protocol rides on TLS 1.2: clients announce RITM support via
//! a ClientHello extension, RAs parse server certificates out of plaintext
//! handshakes, and revocation statuses are piggybacked with a dedicated
//! record content type (§VIII). This crate implements that substrate from
//! scratch:
//!
//! * [`record`] — the record layer (including [`record::ContentType::RitmStatus`])
//!   and the DPI fast-path heuristic;
//! * [`handshake`] — ClientHello / ServerHello / Certificate / Finished /
//!   NewSessionTicket framing;
//! * [`extensions`] — the RITM request & confirmation extensions;
//! * [`certificate`] — certificates, chains, trust anchors (an X.509/DER
//!   substitute);
//! * [`session`] — session-id and session-ticket resumption;
//! * [`alert`] — connection interruption;
//! * [`engine`] — sans-io resumable client/server handshake engines: their
//!   one interface is `feed` bytes in, typed [`engine::Action`]s out, at
//!   any fragmentation;
//! * [`connection`] — the types both endpoints share (configuration,
//!   server context, errors);
//! * [`event`] — adapters driving an engine as a `ritm-rt` task over a
//!   non-blocking socket.
//!
//! # Examples
//!
//! ```
//! use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
//! use ritm_tls::{Action, ClientConfig, ClientEngine, ServerContext, ServerEngine};
//! use ritm_crypto::SigningKey;
//! use ritm_dictionary::{CaId, SerialNumber};
//!
//! let now = 1_400_000_000;
//! let ca_key = SigningKey::from_seed([1u8; 32]);
//! let server_key = SigningKey::from_seed([2u8; 32]);
//! let leaf = Certificate::issue(
//!     &ca_key, CaId::from_name("CA1"), SerialNumber::from_u24(7),
//!     "example.com", now - 1, now + 1_000, server_key.verifying_key(), false,
//! );
//! let mut anchors = TrustAnchors::new();
//! anchors.add(CaId::from_name("CA1"), ca_key.verifying_key());
//!
//! let ctx = ServerContext::new(CertificateChain(vec![leaf]), [0u8; 20]);
//! let mut server = ServerEngine::new(ctx, [1u8; 32]);
//! let mut client = ClientEngine::new(
//!     ClientConfig { server_name: "example.com".into(), anchors, enable_ritm: true },
//!     [2u8; 32],
//!     None,
//! );
//! // Hand each side the bytes the other asked to send, until neither has
//! // anything left to say.
//! let mut to_server = client.start().to_bytes();
//! while !to_server.is_empty() {
//!     let mut to_client = Vec::new();
//!     for action in server.feed(now, &to_server) {
//!         if let Action::SendBytes(bytes) = action {
//!             to_client.extend(bytes);
//!         }
//!     }
//!     to_server.clear();
//!     for action in client.feed(now, &to_client) {
//!         if let Action::SendBytes(bytes) = action {
//!             to_server.extend(bytes);
//!         }
//!     }
//! }
//! assert!(client.is_established() && server.is_established());
//! ```

pub mod alert;
pub mod certificate;
pub mod connection;
pub mod engine;
pub mod event;
pub mod extensions;
pub mod handshake;
pub mod record;
pub mod session;

pub use alert::{Alert, AlertDescription, AlertLevel};
pub use certificate::{CertError, Certificate, CertificateChain, TrustAnchors};
pub use connection::{ClientConfig, ServerContext, TlsError};
pub use engine::{Action, ClientEngine, RecordAssembler, ServerEngine};
pub use event::{drive_handshake_task, HandshakeEngine, HandshakeOutcome, HandshakeTaskError};
pub use extensions::{Extension, RITM_CONFIRM_EXTENSION_TYPE, RITM_EXTENSION_TYPE};
pub use handshake::{ClientHello, HandshakeMessage, ServerHello, SessionTicket};
pub use record::{looks_like_tls, ContentType, TlsRecord};
pub use session::SESSION_LIFETIME_SECS;
