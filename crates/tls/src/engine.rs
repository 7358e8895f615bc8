//! Sans-io, resumable TLS engines: bytes in, typed actions out.
//!
//! [`ClientEngine`] and [`ServerEngine`] carry the complete handshake logic
//! of this crate. The engines are *sans-io*: nothing here reads sockets or
//! clocks. A driver pushes whatever bytes it happens to have — a whole
//! flight, a single byte, a record split at any boundary — into
//! [`ClientEngine::feed`] / [`ServerEngine::feed`] and gets back
//! [`Action`]s telling it what to do: write bytes, wait for more input,
//! surface a completed handshake, or tear the connection down with an alert. An internal [`RecordAssembler`]
//! (shaped like `ritm-rt`'s `FrameReader`) buffers partial records across
//! calls, so one engine instance survives `WouldBlock` at any byte boundary
//! — exactly the property the event runtime needs to drive thousands of
//! concurrent handshakes on a two-thread executor (see [`crate::event`]).
//!
//! The record-level entry points ([`ClientEngine::process_record`] /
//! [`ServerEngine::process_record`]) are public so packet-granular callers
//! (the discrete-event simulator, [`crate::connection::drive_handshake`])
//! can drive the same state machine on whole records; `feed` is the
//! byte-granular path layered on top. Both paths share every state
//! transition, so the byte stream an engine emits is bit-identical
//! regardless of how its input was fragmented (property-tested in
//! `tests/properties.rs`).

use crate::alert::{Alert, AlertDescription};
use crate::certificate::{CertError, CertificateChain};
use crate::connection::{ClientConfig, ClientEvent, ServerContext, ServerEvent, TlsError};
use crate::extensions::Extension;
use crate::handshake::{
    ClientHello, HandshakeMessage, ServerHello, SessionTicket, DEFAULT_CIPHER_SUITE,
};
use crate::record::{ContentType, TlsRecord};
use crate::session::{SessionState, SESSION_LIFETIME_SECS};
use ritm_crypto::digest::Digest20;
use ritm_crypto::wire::{DecodeError, Reader};
use std::sync::Arc;

/// Computes the 12-byte Finished verify-data over `transcript` under
/// `label` (`b"client finished"` / `b"server finished"`).
pub(crate) fn finished_verify_data(transcript: &[u8], label: &[u8]) -> [u8; 12] {
    let mut buf = Vec::with_capacity(transcript.len() + label.len());
    buf.extend_from_slice(label);
    buf.extend_from_slice(transcript);
    let d = Digest20::hash(buf);
    let mut out = [0u8; 12];
    out.copy_from_slice(&d.as_bytes()[..12]);
    out
}

/// Incremental TLS-record reassembler: push arbitrarily fragmented bytes,
/// pull whole [`TlsRecord`]s. The record header is validated as soon as it
/// is complete (unknown content types fail fast, before the body arrives),
/// and the accepted wire shapes are exactly those of [`TlsRecord::decode`],
/// so a stream that parses here parses identically via
/// [`TlsRecord::parse_stream`] — the bit-identity the engine relies on.
#[derive(Debug, Clone, Default)]
pub struct RecordAssembler {
    buf: Vec<u8>,
}

impl RecordAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        RecordAssembler::default()
    }

    /// Appends raw stream bytes (any fragmentation).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (incomplete record prefix).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete record, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on an unknown content type — the stream is
    /// not TLS and no amount of further input can fix it.
    pub fn next_record(&mut self) -> Result<Option<TlsRecord>, DecodeError> {
        if let Some(&first) = self.buf.first() {
            if ContentType::from_u8(first).is_none() {
                return Err(DecodeError::new("unknown content type", 0));
            }
        }
        if self.buf.len() < 5 {
            return Ok(None);
        }
        let len = u16::from_be_bytes([self.buf[3], self.buf[4]]) as usize;
        let total = 5 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let mut r = Reader::new(&self.buf[..total]);
        let record = TlsRecord::decode(&mut r)?;
        self.buf.drain(..total);
        Ok(Some(record))
    }
}

/// What a driver must do next, as told by [`ClientEngine::feed`] /
/// [`ServerEngine::feed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Write these bytes to the peer (already record-framed).
    SendBytes(Vec<u8>),
    /// Nothing actionable yet — read more bytes and feed again.
    NeedMoreData,
    /// The handshake completed.
    HandshakeComplete {
        /// The validated server chain (client side, full handshakes only).
        chain: Option<CertificateChain>,
        /// Session ticket issued by the server, if any (client side).
        ticket: Option<SessionTicket>,
        /// Whether this was an abbreviated (resumed) handshake.
        resumed: bool,
    },
    /// Application data arrived (post-establishment).
    ReceivedData(Vec<u8>),
    /// A RITM revocation-status record arrived (client side; opaque payload
    /// decoded by `ritm-client`).
    RitmStatus(Vec<u8>),
    /// The connection failed. When the failure is local, a
    /// [`Action::SendBytes`] carrying the fatal alert precedes this; when
    /// the *peer* aborted, this carries their alert and nothing is sent.
    Abort {
        /// The fatal alert (ours or the peer's).
        alert: Alert,
    },
    /// The peer closed the connection (close_notify).
    Closed,
}

/// Maps a local failure to the alert description sent to the peer.
fn abort_description(err: &TlsError) -> AlertDescription {
    match err {
        TlsError::Certificate(CertError::OutsideValidity { .. }) => {
            AlertDescription::CertificateExpired
        }
        TlsError::Certificate(_) => AlertDescription::BadCertificate,
        _ => AlertDescription::HandshakeFailure,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    AwaitClientHello,
    AwaitClientKeyExchange,
    AwaitClientFinished { resumed: bool },
    Established,
    Failed,
}

/// Server-side sans-io handshake engine. One instance per connection,
/// sharing long-lived configuration through an
/// [`Arc<ServerContext>`](crate::connection::ServerContext).
#[derive(Debug)]
pub struct ServerEngine {
    ctx: Arc<ServerContext>,
    random: [u8; 32],
    state: ServerState,
    transcript: Vec<u8>,
    session_id: Vec<u8>,
    cert_chain_hash: Digest20,
    now: u64,
    assembler: RecordAssembler,
    aborted: Option<Alert>,
}

impl ServerEngine {
    /// Creates an engine bound to the shared context; `random` is the
    /// server random for this connection.
    pub fn new(ctx: Arc<ServerContext>, random: [u8; 32]) -> Self {
        let cert_chain_hash = Digest20::hash(ctx.chain.to_bytes());
        ServerEngine {
            ctx,
            random,
            state: ServerState::AwaitClientHello,
            transcript: Vec::new(),
            session_id: Vec::new(),
            cert_chain_hash,
            now: 0,
            assembler: RecordAssembler::new(),
            aborted: None,
        }
    }

    /// `true` once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == ServerState::Established
    }

    /// Consumes one inbound record and produces response records + events —
    /// the record-granular entry point.
    ///
    /// # Errors
    ///
    /// Any [`TlsError`]; the engine then refuses further input.
    pub fn process_record(
        &mut self,
        record: &TlsRecord,
        now: u64,
    ) -> Result<(Vec<TlsRecord>, Vec<ServerEvent>), TlsError> {
        self.now = now;
        if self.state == ServerState::Failed {
            return Err(TlsError::Closed);
        }
        let mut out = Vec::new();
        let mut events = Vec::new();
        match record.content_type {
            ContentType::Handshake => {
                for msg in HandshakeMessage::parse_all(&record.payload)? {
                    self.handle_handshake(msg, &mut out, &mut events)
                        .inspect_err(|_| self.state = ServerState::Failed)?;
                }
            }
            ContentType::ApplicationData => {
                if self.state != ServerState::Established {
                    self.state = ServerState::Failed;
                    return Err(TlsError::UnexpectedMessage("data before established"));
                }
                events.push(ServerEvent::ReceivedData(record.payload.clone()));
            }
            ContentType::Alert => {
                let alert = Alert::from_bytes(&record.payload)?;
                self.state = ServerState::Failed;
                events.push(ServerEvent::ConnectionClosed);
                if alert.level == crate::alert::AlertLevel::Fatal
                    && alert.description != AlertDescription::CloseNotify
                {
                    return Err(TlsError::FatalAlert(alert));
                }
            }
            ContentType::ChangeCipherSpec => {}
            ContentType::RitmStatus => {
                // Servers ignore RITM records (they are for the client; a
                // stray one indicates an RA bug but must not kill the
                // connection — RAs are non-invasive, §VII-F).
            }
        }
        Ok((out, events))
    }

    fn handle_handshake(
        &mut self,
        msg: HandshakeMessage,
        out: &mut Vec<TlsRecord>,
        events: &mut Vec<ServerEvent>,
    ) -> Result<(), TlsError> {
        match (&self.state, msg) {
            (ServerState::AwaitClientHello, HandshakeMessage::ClientHello(ch)) => {
                // The server ignores the RITM extension (paper §III step 3).
                if !ch.cipher_suites.contains(&DEFAULT_CIPHER_SUITE) {
                    return Err(TlsError::NoCipherOverlap);
                }
                self.transcript
                    .extend_from_slice(&HandshakeMessage::ClientHello(ch.clone()).to_bytes());

                // Try session-id resumption; expired sessions fall back to a
                // full handshake exactly like unknown ids.
                let resumed = !ch.session_id.is_empty()
                    && self
                        .ctx
                        .cache
                        .lock()
                        .lookup_fresh(&ch.session_id, self.now, SESSION_LIFETIME_SECS)
                        .is_some();
                let mut extensions = Vec::new();
                if self.ctx.ritm_terminator {
                    extensions.push(Extension::ritm_confirmation());
                }
                if resumed {
                    self.session_id = ch.session_id.clone();
                    let sh = HandshakeMessage::ServerHello(ServerHello {
                        version: 0x0303,
                        random: self.random,
                        session_id: self.session_id.clone(),
                        cipher_suite: DEFAULT_CIPHER_SUITE,
                        extensions,
                    });
                    self.transcript.extend_from_slice(&sh.to_bytes());
                    let vd = finished_verify_data(&self.transcript, b"server finished");
                    let fin = HandshakeMessage::Finished(vd);
                    self.transcript.extend_from_slice(&fin.to_bytes());
                    out.push(TlsRecord::new(
                        ContentType::Handshake,
                        HandshakeMessage::encode_all(&[sh, fin]),
                    ));
                    self.state = ServerState::AwaitClientFinished { resumed: true };
                } else {
                    self.session_id = self.ctx.next_session_id();
                    let sh = HandshakeMessage::ServerHello(ServerHello {
                        version: 0x0303,
                        random: self.random,
                        session_id: self.session_id.clone(),
                        cipher_suite: DEFAULT_CIPHER_SUITE,
                        extensions,
                    });
                    let cert = HandshakeMessage::Certificate(self.ctx.chain.clone());
                    let done = HandshakeMessage::ServerHelloDone;
                    for m in [&sh, &cert, &done] {
                        self.transcript.extend_from_slice(&m.to_bytes());
                    }
                    out.push(TlsRecord::new(
                        ContentType::Handshake,
                        HandshakeMessage::encode_all(&[sh, cert, done]),
                    ));
                    self.state = ServerState::AwaitClientKeyExchange;
                }
                Ok(())
            }
            (ServerState::AwaitClientKeyExchange, HandshakeMessage::ClientKeyExchange(data)) => {
                self.transcript
                    .extend_from_slice(&HandshakeMessage::ClientKeyExchange(data).to_bytes());
                self.state = ServerState::AwaitClientFinished { resumed: false };
                Ok(())
            }
            (ServerState::AwaitClientFinished { resumed }, HandshakeMessage::Finished(vd)) => {
                let resumed = *resumed;
                let expect = finished_verify_data(&self.transcript, b"client finished");
                if vd != expect {
                    return Err(TlsError::BadFinished);
                }
                self.transcript
                    .extend_from_slice(&HandshakeMessage::Finished(vd).to_bytes());
                if !resumed {
                    // Full handshake: store the session, maybe a ticket,
                    // then send server Finished.
                    let state = SessionState {
                        session_id: self.session_id.clone(),
                        cipher_suite: DEFAULT_CIPHER_SUITE,
                        cert_chain_hash: self.cert_chain_hash,
                        established_at: self.now,
                    };
                    let mut msgs = Vec::new();
                    if self.ctx.offer_tickets {
                        let ticket = self
                            .ctx
                            .cache
                            .lock()
                            .mint_ticket(&state, SESSION_LIFETIME_SECS as u32);
                        let t = HandshakeMessage::NewSessionTicket(ticket);
                        self.transcript.extend_from_slice(&t.to_bytes());
                        msgs.push(t);
                    }
                    self.ctx.cache.lock().store(state);
                    let vd = finished_verify_data(&self.transcript, b"server finished");
                    let fin = HandshakeMessage::Finished(vd);
                    self.transcript.extend_from_slice(&fin.to_bytes());
                    msgs.push(fin);
                    out.push(TlsRecord::new(
                        ContentType::Handshake,
                        HandshakeMessage::encode_all(&msgs),
                    ));
                }
                self.state = ServerState::Established;
                events.push(ServerEvent::HandshakeComplete { resumed });
                Ok(())
            }
            (state, msg) => {
                let _ = (state, msg);
                Err(TlsError::UnexpectedMessage("server state machine"))
            }
        }
    }

    /// Sends application data (only once established).
    ///
    /// # Errors
    ///
    /// [`TlsError::Closed`] if the handshake has not completed.
    pub fn send_data(&mut self, data: &[u8]) -> Result<TlsRecord, TlsError> {
        if self.state != ServerState::Established {
            return Err(TlsError::Closed);
        }
        Ok(TlsRecord::new(ContentType::ApplicationData, data.to_vec()))
    }

    /// Byte-granular entry point: buffer `bytes` (any fragmentation),
    /// process every record that completed, and return the resulting
    /// [`Action`]s in order. Once the engine aborted, every further call
    /// returns the latched [`Action::Abort`].
    pub fn feed(&mut self, now: u64, bytes: &[u8]) -> Vec<Action> {
        if let Some(alert) = self.aborted {
            return vec![Action::Abort { alert }];
        }
        self.assembler.push(bytes);
        let mut actions = Vec::new();
        loop {
            match self.assembler.next_record() {
                Ok(Some(record)) => match self.process_record(&record, now) {
                    Ok((outs, events)) => {
                        if !outs.is_empty() {
                            actions.push(Action::SendBytes(TlsRecord::encode_stream(&outs)));
                        }
                        for ev in events {
                            match ev {
                                ServerEvent::HandshakeComplete { resumed } => {
                                    actions.push(Action::HandshakeComplete {
                                        chain: None,
                                        ticket: None,
                                        resumed,
                                    });
                                }
                                ServerEvent::ReceivedData(d) => {
                                    actions.push(Action::ReceivedData(d));
                                }
                                ServerEvent::ConnectionClosed => actions.push(Action::Closed),
                            }
                        }
                    }
                    Err(err) => {
                        fail(&mut self.aborted, err, &mut actions);
                        self.state = ServerState::Failed;
                        return actions;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    fail(&mut self.aborted, TlsError::Decode(e), &mut actions);
                    self.state = ServerState::Failed;
                    return actions;
                }
            }
        }
        if actions.is_empty() {
            actions.push(Action::NeedMoreData);
        }
        actions
    }
}

/// Shared failure path of the two `feed` implementations: latch the abort,
/// emit the alert bytes (unless the *peer* aborted) and the
/// [`Action::Abort`].
fn fail(aborted: &mut Option<Alert>, err: TlsError, actions: &mut Vec<Action>) {
    let alert = match err {
        TlsError::FatalAlert(alert) => {
            // The peer killed the connection; nothing to send back.
            *aborted = Some(alert);
            actions.push(Action::Abort { alert });
            return;
        }
        other => Alert::fatal(abort_description(&other)),
    };
    *aborted = Some(alert);
    actions.push(Action::SendBytes(
        TlsRecord::new(ContentType::Alert, alert.to_bytes()).to_bytes(),
    ));
    actions.push(Action::Abort { alert });
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Start,
    AwaitServerHello,
    AwaitServerHelloDone,
    AwaitServerFinished { resumed: bool },
    Established,
    Failed,
}

/// Client-side sans-io handshake engine.
#[derive(Debug)]
pub struct ClientEngine {
    config: ClientConfig,
    random: [u8; 32],
    state: ClientState,
    transcript: Vec<u8>,
    resumption: Option<SessionState>,
    server_chain: Option<CertificateChain>,
    pending_ticket: Option<SessionTicket>,
    session_id: Vec<u8>,
    server_confirms_ritm: bool,
    assembler: RecordAssembler,
    aborted: Option<Alert>,
}

impl ClientEngine {
    /// Creates a client engine; `resume_from` enables an abbreviated
    /// handshake using a cached session.
    pub fn new(config: ClientConfig, random: [u8; 32], resume_from: Option<SessionState>) -> Self {
        ClientEngine {
            config,
            random,
            state: ClientState::Start,
            transcript: Vec::new(),
            resumption: resume_from,
            server_chain: None,
            pending_ticket: None,
            session_id: Vec::new(),
            server_confirms_ritm: false,
            assembler: RecordAssembler::new(),
            aborted: None,
        }
    }

    /// `true` once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == ClientState::Established
    }

    /// The validated server chain (present after a full handshake).
    pub fn server_chain(&self) -> Option<&CertificateChain> {
        self.server_chain.as_ref()
    }

    /// Whether the server confirmed RITM support (ServerHello extension).
    pub fn server_confirms_ritm(&self) -> bool {
        self.server_confirms_ritm
    }

    /// Session ticket issued by the server, if any.
    pub fn take_ticket(&mut self) -> Option<SessionTicket> {
        self.pending_ticket.take()
    }

    /// The established session's state (for caching in a
    /// [`ClientSessionCache`](crate::session::ClientSessionCache)).
    pub fn session_state(&self, now: u64) -> Option<SessionState> {
        if self.state != ClientState::Established {
            return None;
        }
        Some(SessionState {
            session_id: self.session_id.clone(),
            cipher_suite: DEFAULT_CIPHER_SUITE,
            cert_chain_hash: self
                .server_chain
                .as_ref()
                .map(|c| Digest20::hash(c.to_bytes()))
                .or_else(|| self.resumption.as_ref().map(|r| r.cert_chain_hash))?,
            established_at: now,
        })
    }

    /// Starts the handshake, producing the ClientHello record.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) -> TlsRecord {
        assert_eq!(self.state, ClientState::Start, "start() called twice");
        let mut extensions = vec![Extension::sni(&self.config.server_name)];
        if self.config.enable_ritm {
            extensions.push(Extension::ritm_request());
        }
        let session_id = self
            .resumption
            .as_ref()
            .map(|s| s.session_id.clone())
            .unwrap_or_default();
        let ch = HandshakeMessage::ClientHello(ClientHello {
            version: 0x0303,
            random: self.random,
            session_id,
            cipher_suites: vec![DEFAULT_CIPHER_SUITE, 0x002f, 0x0035],
            extensions,
        });
        self.transcript.extend_from_slice(&ch.to_bytes());
        self.state = ClientState::AwaitServerHello;
        TlsRecord::new(ContentType::Handshake, HandshakeMessage::encode_all(&[ch]))
    }

    /// Consumes one inbound record and produces response records + events —
    /// the record-granular entry point.
    ///
    /// # Errors
    ///
    /// Any [`TlsError`]; the engine then refuses further input.
    pub fn process_record(
        &mut self,
        record: &TlsRecord,
        now: u64,
    ) -> Result<(Vec<TlsRecord>, Vec<ClientEvent>), TlsError> {
        if self.state == ClientState::Failed {
            return Err(TlsError::Closed);
        }
        let mut out = Vec::new();
        let mut events = Vec::new();
        match record.content_type {
            ContentType::Handshake => {
                for msg in HandshakeMessage::parse_all(&record.payload)? {
                    self.handle_handshake(msg, now, &mut out, &mut events)
                        .inspect_err(|_| self.state = ClientState::Failed)?;
                }
            }
            ContentType::ApplicationData => {
                if self.state != ClientState::Established {
                    self.state = ClientState::Failed;
                    return Err(TlsError::UnexpectedMessage("data before established"));
                }
                events.push(ClientEvent::ReceivedData(record.payload.clone()));
            }
            ContentType::RitmStatus => {
                events.push(ClientEvent::RitmStatus(record.payload.clone()));
            }
            ContentType::Alert => {
                let alert = Alert::from_bytes(&record.payload)?;
                self.state = ClientState::Failed;
                events.push(ClientEvent::ConnectionClosed);
                if alert.level == crate::alert::AlertLevel::Fatal
                    && alert.description != AlertDescription::CloseNotify
                {
                    return Err(TlsError::FatalAlert(alert));
                }
            }
            ContentType::ChangeCipherSpec => {}
        }
        Ok((out, events))
    }

    fn handle_handshake(
        &mut self,
        msg: HandshakeMessage,
        now: u64,
        out: &mut Vec<TlsRecord>,
        events: &mut Vec<ClientEvent>,
    ) -> Result<(), TlsError> {
        match (&self.state, msg) {
            (ClientState::AwaitServerHello, HandshakeMessage::ServerHello(sh)) => {
                self.server_confirms_ritm = sh.confirms_ritm();
                let resumed = self
                    .resumption
                    .as_ref()
                    .is_some_and(|r| r.session_id == sh.session_id);
                self.session_id = sh.session_id.clone();
                self.transcript
                    .extend_from_slice(&HandshakeMessage::ServerHello(sh).to_bytes());
                self.state = if resumed {
                    ClientState::AwaitServerFinished { resumed: true }
                } else {
                    ClientState::AwaitServerHelloDone
                };
                Ok(())
            }
            (ClientState::AwaitServerHelloDone, HandshakeMessage::Certificate(chain)) => {
                // Standard validation — the client's step 5a. The RITM
                // revocation check happens in ritm-client on top.
                chain.validate(&self.config.anchors, now)?;
                self.transcript
                    .extend_from_slice(&HandshakeMessage::Certificate(chain.clone()).to_bytes());
                events.push(ClientEvent::CertificateReceived(chain.clone()));
                self.server_chain = Some(chain);
                Ok(())
            }
            (ClientState::AwaitServerHelloDone, HandshakeMessage::ServerHelloDone) => {
                if self.server_chain.is_none() {
                    return Err(TlsError::UnexpectedMessage("hello-done before certificate"));
                }
                self.transcript
                    .extend_from_slice(&HandshakeMessage::ServerHelloDone.to_bytes());
                let cke = HandshakeMessage::ClientKeyExchange(vec![0x42; 48]);
                self.transcript.extend_from_slice(&cke.to_bytes());
                let vd = finished_verify_data(&self.transcript, b"client finished");
                let fin = HandshakeMessage::Finished(vd);
                self.transcript.extend_from_slice(&fin.to_bytes());
                out.push(TlsRecord::new(
                    ContentType::Handshake,
                    HandshakeMessage::encode_all(&[cke, fin]),
                ));
                self.state = ClientState::AwaitServerFinished { resumed: false };
                Ok(())
            }
            (ClientState::AwaitServerFinished { .. }, HandshakeMessage::NewSessionTicket(t)) => {
                self.transcript
                    .extend_from_slice(&HandshakeMessage::NewSessionTicket(t.clone()).to_bytes());
                self.pending_ticket = Some(t);
                Ok(())
            }
            (ClientState::AwaitServerFinished { resumed }, HandshakeMessage::Finished(vd)) => {
                let resumed = *resumed;
                let expect = finished_verify_data(&self.transcript, b"server finished");
                if vd != expect {
                    return Err(TlsError::BadFinished);
                }
                self.transcript
                    .extend_from_slice(&HandshakeMessage::Finished(vd).to_bytes());
                if resumed {
                    // Abbreviated handshake: client Finished goes last.
                    let vd = finished_verify_data(&self.transcript, b"client finished");
                    let fin = HandshakeMessage::Finished(vd);
                    self.transcript.extend_from_slice(&fin.to_bytes());
                    out.push(TlsRecord::new(
                        ContentType::Handshake,
                        HandshakeMessage::encode_all(&[fin]),
                    ));
                }
                self.state = ClientState::Established;
                events.push(ClientEvent::HandshakeComplete {
                    resumed,
                    server_confirms_ritm: self.server_confirms_ritm,
                });
                Ok(())
            }
            (state, msg) => {
                let _ = (state, msg);
                Err(TlsError::UnexpectedMessage("client state machine"))
            }
        }
    }

    /// Sends application data (only once established).
    ///
    /// # Errors
    ///
    /// [`TlsError::Closed`] if the handshake has not completed.
    pub fn send_data(&mut self, data: &[u8]) -> Result<TlsRecord, TlsError> {
        if self.state != ClientState::Established {
            return Err(TlsError::Closed);
        }
        Ok(TlsRecord::new(ContentType::ApplicationData, data.to_vec()))
    }

    /// Aborts the connection with a fatal alert (e.g. on a revoked
    /// certificate — paper §III steps 5/7), returning the alert record to
    /// send.
    pub fn abort(&mut self, description: AlertDescription) -> TlsRecord {
        self.state = ClientState::Failed;
        let alert = Alert::fatal(description);
        self.aborted = Some(alert);
        TlsRecord::new(ContentType::Alert, alert.to_bytes())
    }

    /// Byte-granular entry point: buffer `bytes` (any fragmentation),
    /// process every record that completed, and return the resulting
    /// [`Action`]s in order. Once the engine aborted, every further call
    /// returns the latched [`Action::Abort`].
    pub fn feed(&mut self, now: u64, bytes: &[u8]) -> Vec<Action> {
        if let Some(alert) = self.aborted {
            return vec![Action::Abort { alert }];
        }
        self.assembler.push(bytes);
        let mut actions = Vec::new();
        loop {
            match self.assembler.next_record() {
                Ok(Some(record)) => match self.process_record(&record, now) {
                    Ok((outs, events)) => {
                        if !outs.is_empty() {
                            actions.push(Action::SendBytes(TlsRecord::encode_stream(&outs)));
                        }
                        for ev in events {
                            match ev {
                                ClientEvent::HandshakeComplete { resumed, .. } => {
                                    actions.push(Action::HandshakeComplete {
                                        chain: self.server_chain.clone(),
                                        ticket: self.pending_ticket.clone(),
                                        resumed,
                                    });
                                }
                                // The chain is surfaced on completion.
                                ClientEvent::CertificateReceived(_) => {}
                                ClientEvent::ReceivedData(d) => {
                                    actions.push(Action::ReceivedData(d));
                                }
                                ClientEvent::RitmStatus(p) => actions.push(Action::RitmStatus(p)),
                                ClientEvent::ConnectionClosed => actions.push(Action::Closed),
                            }
                        }
                    }
                    Err(err) => {
                        fail(&mut self.aborted, err, &mut actions);
                        self.state = ClientState::Failed;
                        return actions;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    fail(&mut self.aborted, TlsError::Decode(e), &mut actions);
                    self.state = ClientState::Failed;
                    return actions;
                }
            }
        }
        if actions.is_empty() {
            actions.push(Action::NeedMoreData);
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{Certificate, TrustAnchors};
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

    /// Pumps bytes between the two engines in `chunk`-sized pieces until
    /// both complete, returning the actions each side produced.
    fn pump(client: &mut ClientEngine, server: &mut ServerEngine, chunk: usize) {
        let mut to_server = client.start().to_bytes();
        let mut to_client: Vec<u8> = Vec::new();
        for _ in 0..10_000 {
            if client.is_established() && server.is_established() && to_server.is_empty() {
                break;
            }
            let take = chunk.min(to_server.len());
            let (now_bytes, rest) = to_server.split_at(take);
            for a in server.feed(NOW, now_bytes) {
                if let Action::SendBytes(b) = a {
                    to_client.extend_from_slice(&b);
                }
            }
            to_server = rest.to_vec();
            let take = chunk.min(to_client.len());
            let (now_bytes, rest) = to_client.split_at(take);
            for a in client.feed(NOW, now_bytes) {
                if let Action::SendBytes(b) = a {
                    to_server.extend_from_slice(&b);
                }
            }
            to_client = rest.to_vec();
        }
    }

    #[test]
    fn assembler_reassembles_byte_by_byte() {
        let rec = TlsRecord::new(ContentType::Handshake, vec![7; 300]);
        let bytes = rec.to_bytes();
        let mut asm = RecordAssembler::new();
        for &b in &bytes[..bytes.len() - 1] {
            asm.push(&[b]);
            assert_eq!(asm.next_record().unwrap(), None);
        }
        asm.push(&bytes[bytes.len() - 1..]);
        assert_eq!(asm.next_record().unwrap(), Some(rec));
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_rejects_non_tls_immediately() {
        let mut asm = RecordAssembler::new();
        asm.push(b"G"); // 'G' of "GET /" — not a TLS content type.
        assert!(asm.next_record().is_err());
    }

    #[test]
    fn assembler_pops_multiple_records_from_one_push() {
        let recs = vec![
            TlsRecord::new(ContentType::Alert, vec![1, 0]),
            TlsRecord::new(ContentType::ApplicationData, vec![9; 10]),
        ];
        let mut asm = RecordAssembler::new();
        asm.push(&TlsRecord::encode_stream(&recs));
        assert_eq!(asm.next_record().unwrap(), Some(recs[0].clone()));
        assert_eq!(asm.next_record().unwrap(), Some(recs[1].clone()));
        assert_eq!(asm.next_record().unwrap(), None);
    }

    #[test]
    fn engines_complete_handshake_byte_by_byte() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain.clone(), [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        pump(&mut client, &mut server, 1);
        assert!(client.is_established());
        assert!(server.is_established());
        assert_eq!(client.server_chain(), Some(&chain));
    }

    #[test]
    fn feed_reports_need_more_data_on_partial_record() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        let ch = client.start().to_bytes();
        assert_eq!(server.feed(NOW, &ch[..3]), vec![Action::NeedMoreData]);
        let actions = server.feed(NOW, &ch[3..]);
        assert!(matches!(actions[0], Action::SendBytes(_)));
    }

    #[test]
    fn garbage_aborts_with_alert_bytes_then_latches() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let actions = server.feed(NOW, b"GET / HTTP/1.1\r\n");
        assert!(matches!(actions[0], Action::SendBytes(_)));
        assert!(matches!(actions[1], Action::Abort { .. }));
        // Latched: further feeds only repeat the abort.
        let _ = anchors;
        assert!(matches!(
            server.feed(NOW, &[22]).as_slice(),
            [Action::Abort { .. }]
        ));
    }

    #[test]
    fn untrusted_chain_aborts_client_with_bad_certificate() {
        let (chain, _) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(TrustAnchors::new()), [2u8; 32], None);
        let ch = client.start().to_bytes();
        let mut flight = Vec::new();
        for a in server.feed(NOW, &ch) {
            if let Action::SendBytes(b) = a {
                flight.extend_from_slice(&b);
            }
        }
        let actions = client.feed(NOW, &flight);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Abort {
                alert: Alert {
                    description: AlertDescription::BadCertificate,
                    ..
                }
            }
        )));
        // The alert bytes precede the abort so drivers can flush them.
        assert!(matches!(actions[0], Action::SendBytes(_)));
    }

    #[test]
    fn expired_chain_aborts_with_certificate_expired() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        let ch = client.start().to_bytes();
        let mut flight = Vec::new();
        for a in server.feed(NOW, &ch) {
            if let Action::SendBytes(b) = a {
                flight.extend_from_slice(&b);
            }
        }
        // Validate far past not_after.
        let actions = client.feed(NOW + 10_000_000, &flight);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Abort {
                alert: Alert {
                    description: AlertDescription::CertificateExpired,
                    ..
                }
            }
        )));
    }

    #[test]
    fn peer_alert_surfaces_as_abort_without_send() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        pump(&mut client, &mut server, 4096);
        let alert = client
            .abort(AlertDescription::CertificateRevoked)
            .to_bytes();
        let actions = server.feed(NOW, &alert);
        assert_eq!(
            actions,
            vec![Action::Abort {
                alert: Alert::fatal(AlertDescription::CertificateRevoked)
            }]
        );
    }

    #[test]
    fn ritm_status_surfaces_between_records() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors), [2u8; 32], None);
        pump(&mut client, &mut server, 7);
        let status = TlsRecord::new(ContentType::RitmStatus, vec![0xAB; 64]).to_bytes();
        let actions = client.feed(NOW, &status);
        assert_eq!(actions, vec![Action::RitmStatus(vec![0xAB; 64])]);
    }

    #[test]
    fn completion_action_carries_chain_and_resumed_flag() {
        let (chain, anchors) = test_pki();
        let ctx = ServerContext::new(chain.clone(), [9u8; 20]);
        let mut server = ServerEngine::new(ctx.clone(), [1u8; 32]);
        let mut client = ClientEngine::new(client_config(anchors.clone()), [2u8; 32], None);
        let mut to_server = client.start().to_bytes();
        let mut completed = None;
        for _ in 0..8 {
            let mut to_client = Vec::new();
            for a in server.feed(NOW, &to_server) {
                if let Action::SendBytes(b) = a {
                    to_client.extend_from_slice(&b);
                }
            }
            to_server.clear();
            for a in client.feed(NOW, &to_client) {
                match a {
                    Action::SendBytes(b) => to_server.extend_from_slice(&b),
                    Action::HandshakeComplete {
                        chain: c, resumed, ..
                    } => completed = Some((c, resumed)),
                    _ => {}
                }
            }
            if completed.is_some() && to_server.is_empty() {
                break;
            }
        }
        let (got_chain, resumed) = completed.expect("client completed");
        assert_eq!(got_chain.as_ref(), Some(&chain));
        assert!(!resumed);
    }
}
