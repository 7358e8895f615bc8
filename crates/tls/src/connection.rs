//! The types both TLS endpoints share: configuration, the server's
//! long-lived context and the error type. The endpoints themselves are the
//! engines in [`crate::engine`].
//!
//! The protocol is enough of TLS 1.2 for RITM's purposes: plaintext
//! negotiation carrying real certificate chains (what the RA's DPI
//! inspects), Finished messages bound to the handshake transcript (so
//! middlebox *tampering* is detected, §V "MITM and Blocking Attack"),
//! session-id and session-ticket resumption, alerts, and application-data
//! records.

use crate::alert::Alert;
use crate::certificate::{CertError, CertificateChain, TrustAnchors};
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
    /// A fatal alert ended the connection. Inside the engines it is always
    /// the peer's; a wrapper driving an engine through `feed` also reports
    /// the engine's own [`Action::Abort`](crate::engine::Action::Abort)
    /// this way.
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
            TlsError::FatalAlert(a) => write!(f, "fatal alert {:?}", a.description),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertDescription;
    use crate::certificate::{Certificate, TrustAnchors};
    use crate::engine::{Action, ClientEngine, ServerEngine};
    use crate::handshake::DEFAULT_CIPHER_SUITE;
    use crate::record::{ContentType, TlsRecord};
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

    fn sent(actions: &[Action]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for action in actions {
            if let Action::SendBytes(b) = action {
                bytes.extend_from_slice(b);
            }
        }
        bytes
    }

    /// Runs a handshake in memory, one whole flight per `feed` call, until
    /// neither side has anything to send; returns every action of each
    /// side (client's first).
    fn handshake(
        client: &mut ClientEngine,
        server: &mut ServerEngine,
        now: u64,
    ) -> (Vec<Action>, Vec<Action>) {
        let (mut client_actions, mut server_actions) = (Vec::new(), Vec::new());
        let mut to_server = client.start().to_bytes();
        while !to_server.is_empty() {
            let actions = server.feed(now, &to_server);
            let to_client = sent(&actions);
            server_actions.extend(actions);
            to_server.clear();
            if !to_client.is_empty() {
                let actions = client.feed(now, &to_client);
                to_server = sent(&actions);
                client_actions.extend(actions);
            }
        }
        (client_actions, server_actions)
    }

    /// The `resumed` flag of the handshake's completion, if it completed.
    fn completed(actions: &[Action]) -> Option<bool> {
        actions.iter().find_map(|a| match a {
            Action::HandshakeComplete { resumed, .. } => Some(*resumed),
            _ => None,
        })
    }

    #[test]
    fn full_handshake_completes() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain.clone(), [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        let (cev, sev) = handshake(&mut client, &mut server, NOW);
        assert!(client.is_established());
        assert!(server.is_established());
        assert!(cev.contains(&Action::HandshakeComplete {
            chain: Some(chain.clone()),
            ticket: None,
            resumed: false,
        }));
        assert!(sev.contains(&Action::HandshakeComplete {
            chain: None,
            ticket: None,
            resumed: false,
        }));
        assert_eq!(client.server_chain(), Some(&chain));
        assert!(!client.server_confirms_ritm());
    }

    #[test]
    fn ritm_terminator_confirms_support() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new_ritm_terminator(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        let (cev, _) = handshake(&mut client, &mut server, NOW);
        assert_eq!(completed(&cev), Some(false));
        assert!(client.server_confirms_ritm());
    }

    #[test]
    fn session_id_resumption_skips_certificate() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors.clone()), [2u8; 32], None);
        handshake(&mut client, &mut server, NOW);
        let session = client.session_state(NOW).unwrap();

        let mut server2 = ServerEngine::new(ctx, [3u8; 32]);
        let mut client2 = ClientEngine::new(client_config(anchors), [4u8; 32], Some(session));
        let (cev, sev) = handshake(&mut client2, &mut server2, NOW + 10);
        assert_eq!(completed(&cev), Some(true));
        assert_eq!(completed(&sev), Some(true));
        // No Certificate message was delivered on resumption.
        assert!(cev.contains(&Action::HandshakeComplete {
            chain: None,
            ticket: None,
            resumed: true,
        }));
        assert!(client2.server_chain().is_none());
    }

    #[test]
    fn session_tickets_are_issued_and_usable() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]).with_tickets();
        let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors.clone()), [2u8; 32], None);
        let (cev, _) = handshake(&mut client, &mut server, NOW);
        let ticket = client.take_ticket().expect("ticket issued");
        // The completion carried the same ticket.
        assert!(cev.iter().any(|a| matches!(
            a,
            Action::HandshakeComplete { ticket: Some(t), .. } if *t == ticket
        )));
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
        let (cev, _) = handshake(&mut client, &mut server, NOW);
        assert_eq!(completed(&cev), Some(false));
        assert!(client.server_chain().is_some());
    }

    #[test]
    fn expired_session_falls_back_to_full_handshake() {
        // Satellite: a cached session past its ticket lifetime must not
        // resume — the server treats it like an unknown id.
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors.clone()), [2u8; 32], None);
        handshake(&mut client, &mut server, NOW);
        let session = client.session_state(NOW).unwrap();

        // Just inside the lifetime the session still resumes.
        let mut server3 = ServerEngine::new(ctx.clone(), [5u8; 32]);
        let mut client3 = ClientEngine::new(
            client_config(anchors.clone()),
            [6u8; 32],
            Some(session.clone()),
        );
        let (cev, _) = handshake(
            &mut client3,
            &mut server3,
            NOW + crate::session::SESSION_LIFETIME_SECS - 1,
        );
        assert_eq!(completed(&cev), Some(true));

        // Well past SESSION_LIFETIME_SECS: full handshake with certificate
        // (whose `store` also drops the expired session from the cache).
        let later = NOW + crate::session::SESSION_LIFETIME_SECS + 1;
        let mut server2 = ServerEngine::new(ctx, [3u8; 32]);
        let mut client2 = ClientEngine::new(client_config(anchors), [4u8; 32], Some(session));
        let (cev, sev) = handshake(&mut client2, &mut server2, later);
        assert_eq!(completed(&cev), Some(false));
        assert_eq!(completed(&sev), Some(false));
        assert!(client2.server_chain().is_some());
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
            handshake(&mut client, &mut server, NOW);
            client.session_state(NOW).unwrap()
        };
        let resumes = |session: SessionState| {
            let mut server = ServerEngine::new(ctx.clone(), [7u8; 32]);
            let mut client =
                ClientEngine::new(client_config(anchors.clone()), [8u8; 32], Some(session));
            let (cev, _) = handshake(&mut client, &mut server, NOW);
            completed(&cev) == Some(true)
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
        let (cev, sev) = handshake(&mut client, &mut server, NOW);
        let bad_certificate = Action::Abort {
            alert: Alert::fatal(AlertDescription::BadCertificate),
        };
        assert_eq!(cev.last(), Some(&bad_certificate));
        assert_eq!(
            sev.last(),
            Some(&bad_certificate),
            "the server reads our alert"
        );
        assert!(!client.is_established() && client.server_chain().is_none());
    }

    #[test]
    fn tampered_server_hello_breaks_finished() {
        // A MITM rewriting handshake bytes is caught by the transcript
        // binding (§V): here the client sees a modified ServerHello.
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);

        let ch = client.start().to_bytes();
        let mut flight = sent(&server.feed(NOW, &ch));
        // Tamper: flip a byte of the server random inside the first record.
        flight[15] ^= 0xff;
        let cli_out = sent(&client.feed(NOW, &flight));
        // Client's Finished is now computed over a different transcript;
        // the server must reject it.
        let actions = server.feed(NOW, &cli_out);
        assert!(
            matches!(actions.last(), Some(Action::Abort { .. })),
            "server accepted a handshake with tampered bytes: {actions:?}"
        );
        assert!(!server.is_established());
    }

    #[test]
    fn data_flows_after_establishment() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        handshake(&mut client, &mut server, NOW);

        let rec = client.send_data(b"GET /").unwrap();
        assert_eq!(
            server.feed(NOW, &rec.to_bytes()),
            vec![Action::ReceivedData(b"GET /".to_vec())]
        );

        let rec = server.send_data(b"200 OK").unwrap();
        assert_eq!(
            client.feed(NOW, &rec.to_bytes()),
            vec![Action::ReceivedData(b"200 OK".to_vec())]
        );
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
        assert!(matches!(
            server.feed(NOW, &rec.to_bytes()).last(),
            Some(Action::Abort { .. })
        ));
    }

    #[test]
    fn ritm_status_record_surfaces_to_client() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        handshake(&mut client, &mut server, NOW);
        let rec = TlsRecord::new(ContentType::RitmStatus, vec![0xAB; 64]).to_bytes();
        assert_eq!(
            client.feed(NOW, &rec),
            vec![Action::RitmStatus(vec![0xAB; 64])]
        );
        // And servers ignore stray status records.
        assert_eq!(server.feed(NOW, &rec), vec![Action::NeedMoreData]);
    }

    #[test]
    fn client_abort_closes_server() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        handshake(&mut client, &mut server, NOW);
        let alert = client.abort(AlertDescription::CertificateRevoked);
        assert_eq!(
            server.feed(NOW, &alert.to_bytes()),
            vec![Action::Abort {
                alert: Alert::fatal(AlertDescription::CertificateRevoked)
            }]
        );
        assert!(client.send_data(b"x").is_err(), "client is closed");
    }
}
