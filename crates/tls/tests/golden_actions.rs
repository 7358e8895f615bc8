//! Golden action transcripts: a fixed corpus of exchanges runs through
//! both engines, and the complete `Vec<Action>` of every `feed` call —
//! which side, in which order, with every byte it carries — is folded into
//! one digest per scenario. The digests were recorded before the engines
//! lost their record-level interface, so any change to what `feed`
//! returns, or in which order, fails here by name.

use ritm_crypto::digest::Digest20;
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_tls::alert::{Alert, AlertDescription};
use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
use ritm_tls::connection::{ClientConfig, ServerContext};
use ritm_tls::engine::{Action, ClientEngine, ServerEngine};
use ritm_tls::record::{ContentType, TlsRecord};
use ritm_tls::session::SessionState;
use std::sync::Arc;

const NOW: u64 = 1_400_000_000;

fn pki() -> (CertificateChain, TrustAnchors) {
    let ca_key = SigningKey::from_seed([1u8; 32]);
    let server_key = SigningKey::from_seed([2u8; 32]);
    let ca = CaId::from_name("GoldenCA");
    let leaf = Certificate::issue(
        &ca_key,
        ca,
        SerialNumber::from_u24(0x0a0b0c),
        "golden.example",
        NOW - 100,
        NOW + 100_000,
        server_key.verifying_key(),
        false,
    );
    let mut anchors = TrustAnchors::new();
    anchors.add(ca, ca_key.verifying_key());
    (CertificateChain(vec![leaf]), anchors)
}

fn client(anchors: TrustAnchors, seed: u8, resume: Option<SessionState>) -> ClientEngine {
    let config = ClientConfig {
        server_name: "golden.example".into(),
        anchors,
        enable_ritm: true,
    };
    ClientEngine::new(config, [seed; 32], resume)
}

/// Every `feed` call of a scenario, serialised without ambiguity: a side
/// tag, then each action as a tag and length-prefixed contents.
#[derive(Default)]
struct Transcript {
    bytes: Vec<u8>,
}

impl Transcript {
    fn put(&mut self, data: &[u8]) {
        self.bytes
            .extend_from_slice(&(data.len() as u32).to_be_bytes());
        self.bytes.extend_from_slice(data);
    }

    fn record(&mut self, side: u8, actions: &[Action]) {
        self.bytes.push(side);
        self.bytes
            .extend_from_slice(&(actions.len() as u32).to_be_bytes());
        for action in actions {
            match action {
                Action::SendBytes(b) => {
                    self.bytes.push(1);
                    self.put(b);
                }
                Action::NeedMoreData => self.bytes.push(2),
                Action::HandshakeComplete {
                    chain,
                    ticket,
                    resumed,
                } => {
                    self.bytes.push(3);
                    self.bytes.push(u8::from(*resumed));
                    match chain {
                        Some(c) => self.put(&c.to_bytes()),
                        None => self.bytes.push(0xff),
                    }
                    match ticket {
                        Some(t) => {
                            self.bytes.extend_from_slice(&t.lifetime.to_be_bytes());
                            self.put(&t.ticket);
                        }
                        None => self.bytes.push(0xff),
                    }
                }
                Action::ReceivedData(d) => {
                    self.bytes.push(4);
                    self.put(d);
                }
                Action::RitmStatus(p) => {
                    self.bytes.push(5);
                    self.put(p);
                }
                Action::Abort { alert } => {
                    self.bytes.push(6);
                    self.put(&alert.to_bytes());
                }
                Action::Closed => self.bytes.push(7),
            }
        }
    }

    fn server_feed(&mut self, server: &mut ServerEngine, now: u64, bytes: &[u8]) -> Vec<u8> {
        let actions = server.feed(now, bytes);
        self.record(b'S', &actions);
        sent(&actions)
    }

    fn client_feed(&mut self, client: &mut ClientEngine, now: u64, bytes: &[u8]) -> Vec<u8> {
        let actions = client.feed(now, bytes);
        self.record(b'C', &actions);
        sent(&actions)
    }

    /// Runs a handshake from `client.start()`, handing each side what the
    /// other sent in pieces of at most `chunk` bytes, until both sides are
    /// quiet. `tamper` may rewrite each server→client piece.
    fn exchange(
        &mut self,
        client: &mut ClientEngine,
        server: &mut ServerEngine,
        now: u64,
        chunk: usize,
        mut tamper: impl FnMut(&mut Vec<u8>),
    ) {
        let mut to_server = client.start().to_bytes();
        let mut to_client = Vec::new();
        for _ in 0..10_000 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            if !to_server.is_empty() {
                let piece: Vec<u8> = to_server.drain(..chunk.min(to_server.len())).collect();
                let out = self.server_feed(server, now, &piece);
                to_client.extend_from_slice(&out);
            }
            if !to_client.is_empty() {
                let mut piece: Vec<u8> = to_client.drain(..chunk.min(to_client.len())).collect();
                tamper(&mut piece);
                let out = self.client_feed(client, now, &piece);
                to_server.extend_from_slice(&out);
            }
        }
    }

    fn digest(&self) -> String {
        Digest20::hash(&self.bytes).to_string()
    }
}

fn sent(actions: &[Action]) -> Vec<u8> {
    let mut out = Vec::new();
    for a in actions {
        if let Action::SendBytes(b) = a {
            out.extend_from_slice(b);
        }
    }
    out
}

/// Chunkings every handshake scenario runs at: whole flights, then reads
/// that split records (and the record headers) at odd offsets.
const CHUNKS: [usize; 2] = [usize::MAX, 7];

fn full_handshake(t: &mut Transcript, ctx: &Arc<ServerContext>, seed: u8, chunk: usize) {
    let (_, anchors) = pki();
    let mut server = ServerEngine::new(ctx.clone(), [seed; 32]);
    let mut client = client(anchors, seed.wrapping_add(1), None);
    t.exchange(&mut client, &mut server, NOW, chunk, |_| {});
    assert!(client.is_established() && server.is_established());
}

fn scenario_full_handshake() -> Transcript {
    let mut t = Transcript::default();
    for chunk in CHUNKS {
        let (chain, _) = pki();
        full_handshake(&mut t, &ServerContext::new(chain, [9u8; 20]), 1, chunk);
    }
    t
}

/// A full handshake against `ctx`, then an abbreviated one resuming it.
fn resumption(t: &mut Transcript, ctx: Arc<ServerContext>, chunk: usize) {
    let (_, anchors) = pki();
    let mut server = ServerEngine::new(ctx.clone(), [3u8; 32]);
    let mut first = client(anchors.clone(), 4, None);
    t.exchange(&mut first, &mut server, NOW, chunk, |_| {});
    let session = first.session_state(NOW).expect("established");
    let mut server = ServerEngine::new(ctx, [5u8; 32]);
    let mut second = client(anchors, 6, Some(session));
    t.exchange(&mut second, &mut server, NOW + 10, chunk, |_| {});
    assert!(second.is_established() && server.is_established());
    assert!(
        second.server_chain().is_none(),
        "abbreviated: no Certificate"
    );
}

fn scenario_session_id_resumption() -> Transcript {
    let mut t = Transcript::default();
    for chunk in CHUNKS {
        let (chain, _) = pki();
        resumption(&mut t, ServerContext::new(chain, [9u8; 20]), chunk);
    }
    t
}

fn scenario_ticket_resumption() -> Transcript {
    let mut t = Transcript::default();
    for chunk in CHUNKS {
        let (chain, _) = pki();
        resumption(
            &mut t,
            ServerContext::new(chain, [9u8; 20]).with_tickets(),
            chunk,
        );
    }
    t
}

fn scenario_ritm_terminator() -> Transcript {
    let mut t = Transcript::default();
    for chunk in CHUNKS {
        let (chain, anchors) = pki();
        let ctx = ServerContext::new_ritm_terminator(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = client(anchors, 2, None);
        t.exchange(&mut client, &mut server, NOW, chunk, |_| {});
        assert!(client.server_confirms_ritm());
    }
    t
}

fn scenario_status_in_front_of_flight() -> Transcript {
    let mut t = Transcript::default();
    let status = TlsRecord::new(ContentType::RitmStatus, vec![0x5a; 48]).to_bytes();
    for chunk in CHUNKS {
        let (chain, anchors) = pki();
        let mut server = ServerEngine::new(ServerContext::new(chain, [9u8; 20]), [1u8; 32]);
        let mut client = client(anchors, 2, None);
        // The first server→client piece gets the status record in front,
        // as an on-path RA staples it.
        let mut stapled = false;
        t.exchange(&mut client, &mut server, NOW, chunk, |piece| {
            if !stapled {
                stapled = true;
                piece.splice(0..0, status.iter().copied());
            }
        });
        assert!(client.is_established());
    }
    // And a status fed on its own, before the flight arrives.
    let (chain, anchors) = pki();
    let mut server = ServerEngine::new(ServerContext::new(chain, [9u8; 20]), [1u8; 32]);
    let mut client = client(anchors, 2, None);
    let flight = t.server_feed(&mut server, NOW, &client.start().to_bytes());
    t.client_feed(&mut client, NOW, &status);
    let second = t.client_feed(&mut client, NOW, &flight);
    t.server_feed(&mut server, NOW, &second);
    t
}

fn scenario_expired_and_untrusted_chains() -> Transcript {
    let mut t = Transcript::default();
    for chunk in CHUNKS {
        let (chain, anchors) = pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        // Expired: validated far past not_after.
        let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
        let mut c = client(anchors, 2, None);
        t.exchange(&mut c, &mut server, NOW + 10_000_000, chunk, |_| {});
        assert!(!c.is_established());
        // Untrusted: no anchors at all.
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut c = client(TrustAnchors::new(), 2, None);
        t.exchange(&mut c, &mut server, NOW, chunk, |_| {});
        assert!(!c.is_established());
        // Latched: the failed client repeats its abort and sends nothing.
        t.client_feed(&mut c, NOW, &[22, 3, 3]);
    }
    t
}

fn scenario_garbage_and_peer_alerts() -> Transcript {
    let mut t = Transcript::default();
    let (chain, anchors) = pki();
    let ctx = ServerContext::new(chain, [9u8; 20]);

    // Garbage at either engine, then more input into the latched engine.
    let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
    t.server_feed(&mut server, NOW, b"GET / HTTP/1.1\r\n");
    t.server_feed(&mut server, NOW, &[22, 3, 3, 0, 1, 0]);
    let mut c = client(anchors.clone(), 2, None);
    let _ = c.start();
    t.client_feed(&mut c, NOW, &[0xff; 9]);
    t.client_feed(&mut c, NOW, &[22]);

    // A well-framed record the state machine cannot take: application
    // data before establishment, and a malformed handshake body.
    let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
    t.server_feed(
        &mut server,
        NOW,
        &TlsRecord::new(ContentType::ApplicationData, vec![1, 2, 3]).to_bytes(),
    );
    let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
    t.server_feed(
        &mut server,
        NOW,
        &TlsRecord::new(ContentType::Handshake, vec![1, 0, 0, 9, 0]).to_bytes(),
    );

    // A tampered ServerHello: the server rejects the client's Finished.
    let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
    let mut c = client(anchors.clone(), 2, None);
    let mut tampered = false;
    t.exchange(&mut c, &mut server, NOW, usize::MAX, |piece| {
        if !tampered {
            tampered = true;
            piece[15] ^= 0xff;
        }
    });
    assert!(!server.is_established());

    // The peer's fatal alert, mid-handshake and after establishment.
    let fatal = |d| TlsRecord::new(ContentType::Alert, Alert::fatal(d).to_bytes()).to_bytes();
    let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
    let mut c = client(anchors.clone(), 2, None);
    let flight = t.server_feed(&mut server, NOW, &c.start().to_bytes());
    let mut with_alert = fatal(AlertDescription::HandshakeFailure);
    with_alert.extend_from_slice(&flight);
    t.client_feed(&mut c, NOW, &with_alert);
    t.client_feed(&mut c, NOW, &flight);

    let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
    let mut c = client(anchors.clone(), 2, None);
    t.exchange(&mut c, &mut server, NOW, usize::MAX, |_| {});
    let alert = c.abort(AlertDescription::CertificateRevoked).to_bytes();
    t.server_feed(&mut server, NOW, &alert);
    t.server_feed(&mut server, NOW, &alert);
    t.client_feed(&mut c, NOW, &fatal(AlertDescription::BadCertificate));

    // A close_notify ends the connection without an abort; input after it
    // is refused.
    let mut server = ServerEngine::new(ctx, [1u8; 32]);
    let mut c = client(anchors, 2, None);
    t.exchange(&mut c, &mut server, NOW, usize::MAX, |_| {});
    let close_notify = TlsRecord::new(ContentType::Alert, vec![1, 0]).to_bytes();
    t.client_feed(&mut c, NOW, &close_notify);
    t.client_feed(
        &mut c,
        NOW,
        &TlsRecord::new(ContentType::ApplicationData, b"late".to_vec()).to_bytes(),
    );
    t.server_feed(&mut server, NOW, &close_notify);
    t
}

fn scenario_data_after_establishment() -> Transcript {
    let mut t = Transcript::default();
    let (chain, anchors) = pki();
    let mut server = ServerEngine::new(ServerContext::new(chain, [9u8; 20]), [1u8; 32]);
    let mut c = client(anchors, 2, None);
    t.exchange(&mut c, &mut server, NOW, usize::MAX, |_| {});
    let request = c.send_data(b"GET /").unwrap().to_bytes();
    t.server_feed(&mut server, NOW, &request);
    let response = server.send_data(b"200 OK").unwrap().to_bytes();
    let status = TlsRecord::new(ContentType::RitmStatus, vec![0x77; 20]).to_bytes();
    // A periodic status and data in one read, then the same split mid-record.
    let mut both = status.clone();
    both.extend_from_slice(&response);
    t.client_feed(&mut c, NOW + 5, &both);
    t.client_feed(&mut c, NOW + 6, &both[..9]);
    t.client_feed(&mut c, NOW + 6, &both[9..]);
    // Several records for the server in one read, and a stray status it
    // ignores.
    let mut many = c.send_data(b"one").unwrap().to_bytes();
    many.extend_from_slice(&status);
    many.extend_from_slice(&c.send_data(b"two").unwrap().to_bytes());
    t.server_feed(&mut server, NOW + 7, &many);
    t.server_feed(&mut server, NOW + 7, &[]);
    t
}

/// `(name, scenario, digest recorded before the refactor)`.
type Golden = (&'static str, fn() -> Transcript, &'static str);

const GOLDEN: [Golden; 8] = [
    (
        "full_handshake",
        scenario_full_handshake,
        "200d98aadec78d7743e3b6853d4e6987de0a06ad",
    ),
    (
        "session_id_resumption",
        scenario_session_id_resumption,
        "b30068ccab0f3d563d5e3b18028c847428fd9f6a",
    ),
    (
        "ticket_resumption",
        scenario_ticket_resumption,
        "068e7c26d283861c22c4fb25cd7b2a7f5b066cad",
    ),
    (
        "ritm_terminator",
        scenario_ritm_terminator,
        "4b0ad457d5814ec91740811e8751af8b16957ca8",
    ),
    (
        "status_in_front_of_flight",
        scenario_status_in_front_of_flight,
        "84344841d2b00e1b30c6f94220790ec4224c7843",
    ),
    (
        "expired_and_untrusted_chains",
        scenario_expired_and_untrusted_chains,
        "90184e0d1dcfb13c50abfa5872ea1b7a24884f75",
    ),
    (
        "garbage_and_peer_alerts",
        scenario_garbage_and_peer_alerts,
        "2d7fb67bbc9379b88eb7168a454ab516aba030d0",
    ),
    (
        "data_after_establishment",
        scenario_data_after_establishment,
        "94b105a4481b89df10d94320dad972c472969de0",
    ),
];

#[test]
fn feed_actions_match_the_recorded_transcripts() {
    let mut wrong = Vec::new();
    for (name, scenario, expected) in GOLDEN {
        let got = scenario().digest();
        println!("{name}: {got}");
        if got != expected {
            wrong.push(format!("{name}: got {got}, recorded {expected}"));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
