//! The types both TLS endpoints share — configuration, the server's
//! long-lived context, the events a driver sees, the error type — and an
//! in-memory handshake driver over the engines in [`crate::engine`].
//!
//! The protocol is enough of TLS 1.2 for RITM's purposes: plaintext
//! negotiation carrying real certificate chains (what the RA's DPI
//! inspects), Finished messages bound to the handshake transcript (so
//! middlebox *tampering* is detected, §V "MITM and Blocking Attack"),
//! session-id and session-ticket resumption, alerts, and application-data
//! records.

use crate::alert::Alert;
use crate::certificate::{CertError, CertificateChain, TrustAnchors};
use crate::engine::{ClientEngine, ServerEngine};
use crate::record::TlsRecord;
use crate::session::ServerSessionCache;
use parking_lot::Mutex;
use ritm_crypto::digest::Digest20;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors surfaced by the connection state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// A message arrived that the current state cannot accept.
    UnexpectedMessage(&'static str),
    /// Wire-format decoding failed.
    Decode(ritm_crypto::wire::DecodeError),
    /// Certificate chain validation failed.
    Certificate(CertError),
    /// The peer's Finished did not match the transcript.
    BadFinished,
    /// No common cipher suite.
    NoCipherOverlap,
    /// The peer sent a fatal alert.
    FatalAlert(Alert),
    /// The connection was already closed or failed.
    Closed,
}

impl core::fmt::Display for TlsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TlsError::UnexpectedMessage(s) => write!(f, "unexpected message in state {s}"),
            TlsError::Decode(e) => write!(f, "tls decode error: {e}"),
            TlsError::Certificate(e) => write!(f, "certificate validation failed: {e}"),
            TlsError::BadFinished => f.write_str("finished verify-data mismatch"),
            TlsError::NoCipherOverlap => f.write_str("no common cipher suite"),
            TlsError::FatalAlert(a) => write!(f, "peer sent fatal alert {:?}", a.description),
            TlsError::Closed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for TlsError {}

impl From<ritm_crypto::wire::DecodeError> for TlsError {
    fn from(e: ritm_crypto::wire::DecodeError) -> Self {
        TlsError::Decode(e)
    }
}

impl From<CertError> for TlsError {
    fn from(e: CertError) -> Self {
        TlsError::Certificate(e)
    }
}

/// Long-lived server-side state shared across connections: the certificate
/// chain, resumption caches, and deployment flags.
#[derive(Debug)]
pub struct ServerContext {
    /// The chain presented in full handshakes.
    pub chain: CertificateChain,
    /// Whether this endpoint is a RITM-augmented TLS terminator (§IV,
    /// close-to-servers model): adds the confirmation extension.
    pub ritm_terminator: bool,
    /// Whether session tickets are offered.
    pub offer_tickets: bool,
    pub(crate) ticket_secret: [u8; 20],
    pub(crate) cache: Mutex<ServerSessionCache>,
    session_counter: AtomicU64,
}

impl ServerContext {
    /// Creates a server context with all options explicit.
    pub fn configured(
        chain: CertificateChain,
        ticket_secret: [u8; 20],
        ritm_terminator: bool,
        offer_tickets: bool,
    ) -> Arc<Self> {
        Arc::new(ServerContext {
            chain,
            ritm_terminator,
            offer_tickets,
            ticket_secret,
            cache: Mutex::new(ServerSessionCache::new(ticket_secret)),
            session_counter: AtomicU64::new(1),
        })
    }

    /// Creates a plain server context.
    pub fn new(chain: CertificateChain, ticket_secret: [u8; 20]) -> Arc<Self> {
        Self::configured(chain, ticket_secret, false, false)
    }

    /// Creates a RITM-terminator context (adds the ServerHello confirmation).
    pub fn new_ritm_terminator(chain: CertificateChain, ticket_secret: [u8; 20]) -> Arc<Self> {
        Self::configured(chain, ticket_secret, true, false)
    }

    /// Returns a context identical to `self` but offering session tickets.
    pub fn with_tickets(self: Arc<Self>) -> Arc<Self> {
        Self::configured(
            self.chain.clone(),
            self.ticket_secret,
            self.ritm_terminator,
            true,
        )
    }

    pub(crate) fn next_session_id(&self) -> Vec<u8> {
        let c = self.session_counter.fetch_add(1, Ordering::Relaxed);
        let mut seed = Vec::with_capacity(28);
        seed.extend_from_slice(b"session-id");
        seed.extend_from_slice(&c.to_be_bytes());
        let d = Digest20::hash(seed);
        let mut id = d.as_bytes().to_vec();
        id.extend_from_slice(&c.to_be_bytes());
        id.truncate(32);
        id
    }
}

/// Events a server connection reports to its driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// Handshake finished (`resumed` = abbreviated handshake).
    HandshakeComplete {
        /// Whether this was a resumption.
        resumed: bool,
    },
    /// Application data arrived.
    ReceivedData(Vec<u8>),
    /// The peer closed or failed the connection.
    ConnectionClosed,
}

/// Client-side configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server name to connect to (used for SNI and the session cache).
    pub server_name: String,
    /// Pinned trust anchors for chain validation.
    pub anchors: TrustAnchors,
    /// Whether to request RITM protection (ClientHello extension, §III).
    pub enable_ritm: bool,
}

/// Events a client connection reports to its driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// Handshake finished; for a full handshake the validated chain was
    /// already surfaced via [`ClientEvent::CertificateReceived`].
    HandshakeComplete {
        /// Whether this was a resumption.
        resumed: bool,
        /// Whether the server confirmed RITM support (close-to-server
        /// deployment, §IV) — used for downgrade protection.
        server_confirms_ritm: bool,
    },
    /// The server's chain passed standard validation (client step 5a).
    CertificateReceived(CertificateChain),
    /// Application data arrived.
    ReceivedData(Vec<u8>),
    /// A RITM revocation-status record arrived (opaque payload; the
    /// `ritm-client` crate decodes and enforces it).
    RitmStatus(Vec<u8>),
    /// The connection ended.
    ConnectionClosed,
}

/// Drives a full in-memory handshake between `client` and `server`,
/// returning all events both sides emitted. Used heavily by tests and by
/// higher-level crates that do not need packet-level simulation.
pub fn drive_handshake(
    client: &mut ClientEngine,
    server: &mut ServerEngine,
    now: u64,
) -> Result<(Vec<ClientEvent>, Vec<ServerEvent>), TlsError> {
    let mut client_events = Vec::new();
    let mut server_events = Vec::new();
    let mut to_server = vec![client.start()];
    let mut to_client: Vec<TlsRecord> = Vec::new();
    for _ in 0..8 {
        for rec in to_server.drain(..) {
            let (outs, evs) = server.process_record(&rec, now)?;
            to_client.extend(outs);
            server_events.extend(evs);
        }
        for rec in to_client.drain(..) {
            let (outs, evs) = client.process_record(&rec, now)?;
            to_server.extend(outs);
            client_events.extend(evs);
        }
        if client.is_established() && server.is_established() && to_server.is_empty() {
            break;
        }
    }
    Ok((client_events, server_events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertDescription;
    use crate::certificate::{Certificate, TrustAnchors};
    use crate::handshake::DEFAULT_CIPHER_SUITE;
    use crate::record::ContentType;
    use crate::session::SessionState;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{CaId, SerialNumber};

    const NOW: u64 = 1_400_000_000;

    fn test_pki() -> (CertificateChain, TrustAnchors) {
        let ca_key = SigningKey::from_seed([1u8; 32]);
        let server_key = SigningKey::from_seed([2u8; 32]);
        let ca = CaId::from_name("CA1");
        let leaf = Certificate::issue(
            &ca_key,
            ca,
            SerialNumber::from_u24(0x073e10),
            "example.com",
            NOW - 100,
            NOW + 100_000,
            server_key.verifying_key(),
            false,
        );
        let mut anchors = TrustAnchors::new();
        anchors.add(ca, ca_key.verifying_key());
        (CertificateChain(vec![leaf]), anchors)
    }

    fn client_config(anchors: TrustAnchors) -> ClientConfig {
        ClientConfig {
            server_name: "example.com".into(),
            anchors,
            enable_ritm: true,
        }
    }

    #[test]
    fn full_handshake_completes() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain.clone(), [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        let (cev, sev) = drive_handshake(&mut client, &mut server, NOW).unwrap();
        assert!(client.is_established());
        assert!(server.is_established());
        assert!(cev.contains(&ClientEvent::HandshakeComplete {
            resumed: false,
            server_confirms_ritm: false
        }));
        assert!(sev.contains(&ServerEvent::HandshakeComplete { resumed: false }));
        assert_eq!(client.server_chain(), Some(&chain));
    }

    #[test]
    fn ritm_terminator_confirms_support() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new_ritm_terminator(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        let (cev, _) = drive_handshake(&mut client, &mut server, NOW).unwrap();
        assert!(cev.iter().any(|e| matches!(
            e,
            ClientEvent::HandshakeComplete {
                server_confirms_ritm: true,
                ..
            }
        )));
    }

    #[test]
    fn session_id_resumption_skips_certificate() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors.clone()), [2u8; 32], None);
        drive_handshake(&mut client, &mut server, NOW).unwrap();
        let session = client.session_state(NOW).unwrap();

        let mut server2 = ServerEngine::new(ctx, [3u8; 32]);
        let mut client2 = ClientEngine::new(client_config(anchors), [4u8; 32], Some(session));
        let (cev, sev) = drive_handshake(&mut client2, &mut server2, NOW + 10).unwrap();
        assert!(cev
            .iter()
            .any(|e| matches!(e, ClientEvent::HandshakeComplete { resumed: true, .. })));
        assert!(sev.contains(&ServerEvent::HandshakeComplete { resumed: true }));
        // No Certificate message was delivered on resumption.
        assert!(!cev
            .iter()
            .any(|e| matches!(e, ClientEvent::CertificateReceived(_))));
    }

    #[test]
    fn session_tickets_are_issued_and_usable() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]).with_tickets();
        let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors.clone()), [2u8; 32], None);
        drive_handshake(&mut client, &mut server, NOW).unwrap();
        let ticket = client.take_ticket().expect("ticket issued");
        // The server can recover session state from its own ticket.
        let recovered = ctx
            .cache
            .lock()
            .accept_ticket(&ticket)
            .expect("valid ticket");
        assert_eq!(recovered.cipher_suite, DEFAULT_CIPHER_SUITE);
    }

    #[test]
    fn unknown_session_id_falls_back_to_full_handshake() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let bogus = SessionState {
            session_id: vec![7; 32],
            cipher_suite: DEFAULT_CIPHER_SUITE,
            cert_chain_hash: Digest20::ZERO,
            established_at: NOW,
        };
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], Some(bogus));
        let (cev, _) = drive_handshake(&mut client, &mut server, NOW).unwrap();
        assert!(cev
            .iter()
            .any(|e| matches!(e, ClientEvent::HandshakeComplete { resumed: false, .. })));
        assert!(cev
            .iter()
            .any(|e| matches!(e, ClientEvent::CertificateReceived(_))));
    }

    #[test]
    fn expired_session_falls_back_to_full_handshake() {
        // Satellite: a cached session past its ticket lifetime must not
        // resume — the server treats it like an unknown id.
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors.clone()), [2u8; 32], None);
        drive_handshake(&mut client, &mut server, NOW).unwrap();
        let session = client.session_state(NOW).unwrap();

        // Just inside the lifetime the session still resumes.
        let mut server3 = ServerEngine::new(ctx.clone(), [5u8; 32]);
        let mut client3 = ClientEngine::new(
            client_config(anchors.clone()),
            [6u8; 32],
            Some(session.clone()),
        );
        let (cev, _) = drive_handshake(
            &mut client3,
            &mut server3,
            NOW + crate::session::SESSION_LIFETIME_SECS - 1,
        )
        .unwrap();
        assert!(cev
            .iter()
            .any(|e| matches!(e, ClientEvent::HandshakeComplete { resumed: true, .. })));

        // Well past SESSION_LIFETIME_SECS: full handshake with certificate
        // (whose `store` also drops the expired session from the cache).
        let later = NOW + crate::session::SESSION_LIFETIME_SECS + 1;
        let mut server2 = ServerEngine::new(ctx, [3u8; 32]);
        let mut client2 = ClientEngine::new(client_config(anchors), [4u8; 32], Some(session));
        let (cev, sev) = drive_handshake(&mut client2, &mut server2, later).unwrap();
        assert!(cev
            .iter()
            .any(|e| matches!(e, ClientEvent::HandshakeComplete { resumed: false, .. })));
        assert!(sev.contains(&ServerEvent::HandshakeComplete { resumed: false }));
        assert!(cev
            .iter()
            .any(|e| matches!(e, ClientEvent::CertificateReceived(_))));
    }

    #[test]
    fn evicted_session_falls_back_and_the_newest_still_resumes() {
        // The server's session cache used to grow by one entry per full
        // handshake, forever. Ten capacities' worth of sessions later it
        // holds at most one capacity, the newest session resumes, and the
        // first — long evicted — gets a full handshake like any unknown id.
        use crate::session::SERVER_SESSION_CACHE_CAPACITY;
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let full_handshake = |seed: u8| {
            let mut server = ServerEngine::new(ctx.clone(), [seed; 32]);
            let mut client = ClientEngine::new(client_config(anchors.clone()), [seed; 32], None);
            drive_handshake(&mut client, &mut server, NOW).unwrap();
            client.session_state(NOW).unwrap()
        };
        let resumes = |session: SessionState| {
            let mut server = ServerEngine::new(ctx.clone(), [7u8; 32]);
            let mut client =
                ClientEngine::new(client_config(anchors.clone()), [8u8; 32], Some(session));
            let (cev, _) = drive_handshake(&mut client, &mut server, NOW).unwrap();
            cev.iter()
                .any(|e| matches!(e, ClientEvent::HandshakeComplete { resumed: true, .. }))
        };

        let first = full_handshake(1);
        for n in 0..10 * SERVER_SESSION_CACHE_CAPACITY as u64 {
            ctx.cache.lock().store(SessionState {
                session_id: n.to_be_bytes().to_vec(),
                ..first.clone()
            });
            assert!(ctx.cache.lock().len() <= SERVER_SESSION_CACHE_CAPACITY);
        }
        let newest = full_handshake(2);
        assert_eq!(ctx.cache.lock().len(), SERVER_SESSION_CACHE_CAPACITY);
        assert!(resumes(newest));
        assert!(!resumes(first));
    }

    #[test]
    fn untrusted_chain_fails_handshake() {
        let (chain, _) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(TrustAnchors::new()), [2u8; 32], None);
        let err = drive_handshake(&mut client, &mut server, NOW).unwrap_err();
        assert!(matches!(err, TlsError::Certificate(_)));
    }

    #[test]
    fn tampered_server_hello_breaks_finished() {
        // A MITM rewriting handshake bytes is caught by the transcript
        // binding (§V): here the client sees a modified ServerHello.
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);

        let ch = client.start();
        let (srv_out, _) = server.process_record(&ch, NOW).unwrap();
        // Tamper: flip a byte of the server random inside the first record.
        let mut tampered = srv_out[0].clone();
        tampered.payload[10] ^= 0xff;
        let (cli_out, _) = client.process_record(&tampered, NOW).unwrap();
        // Client's Finished is now computed over a different transcript;
        // the server must reject it.
        let mut failed = false;
        for rec in cli_out {
            if server.process_record(&rec, NOW).is_err() {
                failed = true;
            }
        }
        assert!(failed, "server accepted a handshake with tampered bytes");
    }

    #[test]
    fn data_flows_after_establishment() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        drive_handshake(&mut client, &mut server, NOW).unwrap();

        let rec = client.send_data(b"GET /").unwrap();
        let (_, evs) = server.process_record(&rec, NOW).unwrap();
        assert_eq!(evs, vec![ServerEvent::ReceivedData(b"GET /".to_vec())]);

        let rec = server.send_data(b"200 OK").unwrap();
        let (_, evs) = client.process_record(&rec, NOW).unwrap();
        assert_eq!(evs, vec![ClientEvent::ReceivedData(b"200 OK".to_vec())]);
    }

    #[test]
    fn data_before_establishment_rejected() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        assert!(client.send_data(b"x").is_err());
        assert!(server.send_data(b"x").is_err());
        let rec = TlsRecord::new(ContentType::ApplicationData, vec![1]);
        assert!(server.process_record(&rec, NOW).is_err());
    }

    #[test]
    fn ritm_status_record_surfaces_to_client() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        drive_handshake(&mut client, &mut server, NOW).unwrap();
        let rec = TlsRecord::new(ContentType::RitmStatus, vec![0xAB; 64]);
        let (_, evs) = client.process_record(&rec, NOW).unwrap();
        assert_eq!(evs, vec![ClientEvent::RitmStatus(vec![0xAB; 64])]);
        // And servers ignore stray status records.
        let (outs, evs) = server.process_record(&rec, NOW).unwrap();
        assert!(outs.is_empty() && evs.is_empty());
    }

    #[test]
    fn client_abort_closes_server() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        drive_handshake(&mut client, &mut server, NOW).unwrap();
        let alert = client.abort(AlertDescription::CertificateRevoked);
        let err = server.process_record(&alert, NOW).unwrap_err();
        assert!(matches!(err, TlsError::FatalAlert(_)));
        assert!(client.send_data(b"x").is_err(), "client is closed");
    }
}
