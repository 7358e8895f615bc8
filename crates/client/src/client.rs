//! The RITM-supported TLS client (paper §III steps 1, 5, 7; §IV downgrade
//! protection).
//!
//! Wraps the `ritm-tls` client state machine and enforces the RITM
//! acceptance policy: the connection lives only while fresh absence proofs
//! keep arriving. On a presence proof — even mid-connection — the client
//! tears the connection down, which is what closes the race-condition
//! window for long-lived connections (§V "Race Condition").

use crate::validator::{validate_payload_tracked, RootTracker, ValidationError, Verdict};
use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_proto::StatusPayload;
use ritm_tls::alert::AlertDescription;
use ritm_tls::certificate::TrustAnchors;
use ritm_tls::connection::{ClientConfig, TlsError};
use ritm_tls::engine::{Action, ClientEngine};
use ritm_tls::record::TlsRecord;
use ritm_tls::session::SessionState;
use std::collections::HashMap;

/// Most status records a [`RitmClient`] buffers before the server's
/// `Certificate` arrives. The RA's lane staples its status in front of the
/// server's first flight, so an early status is the normal case: one per
/// RA on path, two with a second RA (§VIII). Anything beyond the cap is
/// rejected with [`ValidationError::PendingFull`] and dropped, so a peer
/// cannot grow the buffer without bound.
pub const MAX_PENDING_STATUSES: usize = 4;

/// How the client defends against downgrade attacks (§IV, §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DowngradePolicy {
    /// Incremental deployment: accept connections without any RA on path.
    AllowMissing,
    /// Close-to-server model: require statuses when the server's
    /// TLS-terminator confirmed RITM support in its ServerHello.
    RequireIfServerConfirms,
    /// Close-to-client model: the access network promised an RA (e.g. via
    /// authenticated DHCP), so statuses are always required.
    AlwaysRequire,
}

/// RITM client configuration.
#[derive(Debug, Clone)]
pub struct RitmClientConfig {
    /// Server to connect to.
    pub server_name: String,
    /// PKI trust anchors for standard validation (step 5a).
    pub anchors: TrustAnchors,
    /// Pinned CA keys for revocation-status validation (step 5b).
    pub ca_keys: HashMap<CaId, VerifyingKey>,
    /// Dissemination period Δ in seconds.
    pub delta: u64,
    /// Downgrade policy.
    pub policy: DowngradePolicy,
}

/// Why the client aborted.
#[derive(Debug, Clone, PartialEq)]
pub enum AbortReason {
    /// A presence proof arrived: the certificate is revoked.
    Revoked {
        /// The revoked serial.
        serial: SerialNumber,
    },
    /// Policy demanded a revocation status and none (valid) arrived by
    /// handshake completion.
    MissingStatus,
    /// No fresh status within 2Δ on an established connection.
    StaleStatus,
}

/// Events surfaced to the application driving the client.
#[derive(Debug, Clone, PartialEq)]
pub enum RitmEvent {
    /// Handshake completed under the policy.
    Established {
        /// Whether the session was resumed.
        resumed: bool,
    },
    /// A fresh absence proof was validated (initial or periodic).
    StatusAccepted,
    /// An invalid status was discarded (kept for diagnostics; an attacker
    /// can always inject garbage, which must not kill the connection by
    /// itself — only the *absence* of valid statuses does).
    StatusRejected(ValidationError),
    /// Application data.
    Data(Vec<u8>),
    /// The client aborted the connection.
    Aborted(AbortReason),
}

/// A RITM-supported TLS client connection.
pub struct RitmClient {
    tls: ClientEngine,
    config: RitmClientConfig,
    chain: Vec<(CaId, SerialNumber)>,
    /// Statuses that arrived before the chain, at most
    /// [`MAX_PENDING_STATUSES`].
    pending_status: Vec<StatusPayload>,
    /// Per-CA newest accepted dictionary epoch (replay protection).
    root_tracker: RootTracker,
    /// Time of the last accepted status.
    last_valid: Option<u64>,
    established: bool,
    /// Whether `chain` holds the chain the server sent in this handshake
    /// (rather than the identities remembered for a resumption).
    chain_from_server: bool,
    server_confirmed: bool,
    aborted: Option<AbortReason>,
}

impl core::fmt::Debug for RitmClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RitmClient")
            .field("server", &self.config.server_name)
            .field("established", &self.established)
            .field("last_valid", &self.last_valid)
            .field("aborted", &self.aborted)
            .finish()
    }
}

impl RitmClient {
    /// Creates a client; `resume` carries a cached session *and* the
    /// certificate identities remembered from the original handshake
    /// (resumed handshakes carry no Certificate message).
    ///
    /// Starts with an empty [`RootTracker`], so replay protection spans
    /// this connection only; applications wanting cross-connection
    /// protection (the stale-upstream-RA case) should carry the tracker
    /// from [`RitmClient::root_tracker`] into
    /// [`RitmClient::with_root_tracker`] on the next connection.
    pub fn new(
        config: RitmClientConfig,
        random: [u8; 32],
        resume: Option<(SessionState, Vec<(CaId, SerialNumber)>)>,
    ) -> Self {
        Self::with_root_tracker(config, random, resume, RootTracker::new())
    }

    /// [`RitmClient::new`] with a [`RootTracker`] carried over from earlier
    /// connections, extending epoch-replay protection across handshakes.
    pub fn with_root_tracker(
        config: RitmClientConfig,
        random: [u8; 32],
        resume: Option<(SessionState, Vec<(CaId, SerialNumber)>)>,
        root_tracker: RootTracker,
    ) -> Self {
        let (session, chain) = match resume {
            Some((s, c)) => (Some(s), c),
            None => (None, Vec::new()),
        };
        let tls = ClientEngine::new(
            ClientConfig {
                server_name: config.server_name.clone(),
                anchors: config.anchors.clone(),
                enable_ritm: true,
            },
            random,
            session,
        );
        RitmClient {
            tls,
            config,
            chain,
            chain_from_server: false,
            pending_status: Vec::new(),
            root_tracker,
            last_valid: None,
            established: false,
            server_confirmed: false,
            aborted: None,
        }
    }

    /// Starts the handshake (emits the ClientHello with the RITM extension).
    pub fn start(&mut self) -> TlsRecord {
        self.tls.start()
    }

    /// `true` once established and not aborted.
    pub fn is_established(&self) -> bool {
        self.established && self.aborted.is_none()
    }

    /// The per-CA newest-accepted-epoch record — carry it into the next
    /// connection via [`RitmClient::with_root_tracker`] for
    /// cross-connection replay protection.
    pub fn root_tracker(&self) -> &RootTracker {
        &self.root_tracker
    }

    /// The session state + identities to cache for later resumption.
    pub fn resumption_data(&self, now: u64) -> Option<(SessionState, Vec<(CaId, SerialNumber)>)> {
        Some((self.tls.session_state(now)?, self.chain.clone()))
    }

    /// Seconds since the last accepted status, if any.
    #[cfg(test)]
    fn status_age(&self, now: u64) -> Option<u64> {
        self.last_valid.map(|t| now.saturating_sub(t))
    }

    fn requires_status(&self) -> bool {
        match self.config.policy {
            DowngradePolicy::AllowMissing => false,
            DowngradePolicy::RequireIfServerConfirms => self.server_confirmed,
            DowngradePolicy::AlwaysRequire => true,
        }
    }

    /// Tears the connection down for `reason`, returning the alert record
    /// to send and the event to report.
    fn abort(&mut self, reason: AbortReason) -> (TlsRecord, RitmEvent) {
        let desc = match reason {
            AbortReason::Revoked { .. } => AlertDescription::CertificateRevoked,
            AbortReason::MissingStatus | AbortReason::StaleStatus => {
                AlertDescription::CertificateUnknown
            }
        };
        self.aborted = Some(reason.clone());
        (self.tls.abort(desc), RitmEvent::Aborted(reason))
    }

    fn handle_status_bytes(
        &mut self,
        bytes: &[u8],
        now: u64,
        out: &mut Vec<u8>,
        events: &mut Vec<RitmEvent>,
    ) {
        let Ok(payload) = StatusPayload::from_bytes(bytes) else {
            events.push(RitmEvent::StatusRejected(
                ValidationError::ChainLengthMismatch {
                    got: 0,
                    expected: self.chain.len(),
                },
            ));
            return;
        };
        if self.chain.is_empty() {
            // Certificate not seen yet: the lane staples in front of the
            // server's flight, so buffer it until the chain is known.
            if self.pending_status.len() < MAX_PENDING_STATUSES {
                self.pending_status.push(payload);
            } else {
                events.push(RitmEvent::StatusRejected(ValidationError::PendingFull {
                    cap: MAX_PENDING_STATUSES,
                }));
            }
            return;
        }
        self.validate_status(&payload, now, out, events);
    }

    fn validate_status(
        &mut self,
        payload: &StatusPayload,
        now: u64,
        out: &mut Vec<u8>,
        events: &mut Vec<RitmEvent>,
    ) {
        match validate_payload_tracked(
            payload,
            &self.chain,
            &self.config.ca_keys,
            self.config.delta,
            now,
            &mut self.root_tracker,
        ) {
            Ok(Verdict::AllValid) => {
                self.last_valid = Some(now);
                events.push(RitmEvent::StatusAccepted);
            }
            Ok(Verdict::Revoked { serial, .. }) => {
                let (alert, event) = self.abort(AbortReason::Revoked { serial });
                out.extend_from_slice(&alert.to_bytes());
                events.push(event);
            }
            Err(e) => events.push(RitmEvent::StatusRejected(e)),
        }
    }

    /// Feeds bytes received from the server, at any fragmentation; returns
    /// the bytes to send back and the events, in order.
    ///
    /// The chain the server presented is taken up by the call that
    /// delivered it: statuses that arrived earlier are validated then, and
    /// a revoked chain aborts before the client's second flight is handed
    /// back.
    ///
    /// # Errors
    ///
    /// A TLS failure is [`TlsError::FatalAlert`] with the alert that ended
    /// the connection (the peer's, or the one the engine raised locally),
    /// and [`TlsError::Closed`] once the client aborted. RITM policy
    /// violations are not errors: they surface as [`RitmEvent::Aborted`]
    /// plus the alert bytes to send.
    pub fn feed(&mut self, now: u64, bytes: &[u8]) -> Result<(Vec<u8>, Vec<RitmEvent>), TlsError> {
        if self.aborted.is_some() {
            return Err(TlsError::Closed);
        }
        let actions = self.tls.feed(now, bytes);
        let mut out = Vec::new();
        let mut events = Vec::new();
        if let Some(chain) = self.tls.server_chain().filter(|_| !self.chain_from_server) {
            self.chain = chain.0.iter().map(|c| (c.issuer, c.serial)).collect();
            self.chain_from_server = true;
            for payload in std::mem::take(&mut self.pending_status) {
                self.validate_status(&payload, now, &mut out, &mut events);
                if self.aborted.is_some() {
                    return Ok((out, events));
                }
            }
        }
        for action in actions {
            match action {
                Action::SendBytes(bytes) => out.extend_from_slice(&bytes),
                Action::RitmStatus(bytes) => {
                    self.handle_status_bytes(&bytes, now, &mut out, &mut events);
                }
                Action::HandshakeComplete { resumed, .. } => {
                    self.server_confirmed = self.tls.server_confirms_ritm();
                    if self.requires_status() && self.last_valid.is_none() {
                        let (alert, event) = self.abort(AbortReason::MissingStatus);
                        out.extend_from_slice(&alert.to_bytes());
                        events.push(event);
                    } else {
                        self.established = true;
                        events.push(RitmEvent::Established { resumed });
                    }
                }
                Action::ReceivedData(d) => events.push(RitmEvent::Data(d)),
                Action::Abort { alert } => return Err(TlsError::FatalAlert(alert)),
                Action::NeedMoreData | Action::Closed => {}
            }
            if self.aborted.is_some() {
                break;
            }
        }
        Ok((out, events))
    }

    /// Periodic policy enforcement (§III step 7): on an established
    /// connection the client expects a fresh status at least every Δ and
    /// interrupts after 2Δ without one. Returns the alert record to send
    /// when the connection must be torn down.
    pub fn tick(&mut self, now: u64) -> Option<(TlsRecord, RitmEvent)> {
        if !self.is_established() || !self.requires_status() {
            return None;
        }
        let stale = match self.last_valid {
            Some(t) => now.saturating_sub(t) > 2 * self.config.delta,
            None => true,
        };
        stale.then(|| self.abort(AbortReason::StaleStatus))
    }

    /// Sends application data.
    ///
    /// # Errors
    ///
    /// [`TlsError::Closed`] before establishment or after an abort.
    pub fn send_data(&mut self, data: &[u8]) -> Result<TlsRecord, TlsError> {
        if self.aborted.is_some() {
            return Err(TlsError::Closed);
        }
        self.tls.send_data(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_agent::{FlowTable, InterceptConfig, RaConfig, RevocationAgent};
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::CaDictionary;
    use ritm_net::middlebox::Middlebox;
    use ritm_net::tcp::{Direction, FourTuple, SocketAddr, TcpSegment};
    use ritm_net::time::SimTime;
    use ritm_tls::certificate::{Certificate, CertificateChain};
    use ritm_tls::connection::ServerContext;
    use ritm_tls::engine::ServerEngine;

    const T0: u64 = 1_000_000;
    const DELTA: u64 = 10;

    fn tuple() -> FourTuple {
        FourTuple {
            client: SocketAddr::new(1, 9012),
            server: SocketAddr::new(2, 443),
        }
    }

    /// Full test world: CA, RA mirroring it (its lane leaves the verdict
    /// on a revoked chain to the client), TLS server, RITM client.
    struct World {
        ca: CaDictionary,
        ra: RevocationAgent,
        lane: FlowTable,
        server: ServerEngine,
        client: RitmClient,
        rng: StdRng,
        /// Next sequence number of each direction's stream.
        seq_up: u64,
        seq_down: u64,
    }

    fn world(revoke_server_cert: bool, policy: DowngradePolicy) -> World {
        let mut rng = StdRng::seed_from_u64(61);
        let ca_key = SigningKey::from_seed([1u8; 32]);
        let mut ca = CaDictionary::new(
            CaId::from_name("WCA"),
            ca_key.clone(),
            DELTA,
            1 << 12,
            &mut rng,
            T0,
        );
        let mut ra = RevocationAgent::new(RaConfig {
            delta: DELTA,
            ..Default::default()
        });
        ra.follow_ca(ca.ca(), ca.verifying_key(), *ca.signed_root())
            .unwrap();

        let server_key = SigningKey::from_seed([2u8; 32]);
        let cert = Certificate::issue(
            &ca_key,
            ca.ca(),
            SerialNumber::from_u24(0x073e10),
            "example.com",
            T0 - 100,
            T0 + 1_000_000,
            server_key.verifying_key(),
            false,
        );
        if revoke_server_cert {
            let iss = ca.insert(&[cert.serial], &mut rng, T0 + 1).unwrap();
            ra.mirror_mut(&ca.ca())
                .unwrap()
                .apply_issuance(&iss, T0 + 1)
                .unwrap();
        }

        let ctx = ServerContext::new(CertificateChain(vec![cert]), [9u8; 20]);
        let server = ServerEngine::new(ctx, [3u8; 32]);

        let mut anchors = TrustAnchors::new();
        anchors.add(ca.ca(), ca.verifying_key());
        let mut ca_keys = HashMap::new();
        ca_keys.insert(ca.ca(), ca.verifying_key());
        let client = RitmClient::new(
            RitmClientConfig {
                server_name: "example.com".into(),
                anchors,
                ca_keys,
                delta: DELTA,
                policy,
            },
            [4u8; 32],
            None,
        );
        let lane = FlowTable::new(
            ra.status_server(),
            InterceptConfig {
                delta: DELTA,
                reset_revoked: false,
                ..Default::default()
            },
        );
        World {
            ca,
            ra,
            lane,
            server,
            client,
            rng,
            seq_up: 0,
            seq_down: 0,
        }
    }

    /// The bytes of each `SendBytes` in `actions`, one segment apiece.
    fn segments(actions: Vec<Action>) -> Vec<Vec<u8>> {
        actions
            .into_iter()
            .filter_map(|a| match a {
                Action::SendBytes(b) => Some(b),
                _ => None,
            })
            .collect()
    }

    /// Drives the handshake through the RA, one segment per `feed` call,
    /// collecting client events.
    fn drive(w: &mut World, now: u64) -> Vec<RitmEvent> {
        drive_with(w, now, |_| {})
    }

    /// [`drive`], with `edit` rewriting the records of every segment the
    /// lane delivers to the client before the client reads them.
    fn drive_with(
        w: &mut World,
        now: u64,
        mut edit: impl FnMut(&mut Vec<TlsRecord>),
    ) -> Vec<RitmEvent> {
        let mut events = Vec::new();
        let mut to_server = vec![w.client.start().to_bytes()];
        for _ in 0..8 {
            let mut to_client = Vec::new();
            for bytes in to_server.drain(..) {
                // client → RA → server
                let seg = TcpSegment::data(tuple(), Direction::ToServer, w.seq_up, 0, bytes);
                w.seq_up = seg.seq_end();
                for out_seg in w.lane.process(seg, SimTime::from_secs(now)) {
                    // A fatal alert from the client legitimately kills
                    // the server side; stop feeding it afterwards.
                    let actions = w.server.feed(now, &out_seg.payload);
                    if actions.iter().any(|a| matches!(a, Action::Abort { .. })) {
                        return events;
                    }
                    to_client.extend(segments(actions));
                }
            }
            for bytes in to_client.drain(..) {
                // server → RA → client
                let seg = TcpSegment::data(tuple(), Direction::ToClient, w.seq_down, 0, bytes);
                w.seq_down = seg.seq_end();
                for out_seg in w.lane.process(seg, SimTime::from_secs(now)) {
                    let mut records = TlsRecord::parse_stream(&out_seg.payload).unwrap();
                    edit(&mut records);
                    match w.client.feed(now, &TlsRecord::encode_stream(&records)) {
                        Ok((out, evs)) => {
                            if !out.is_empty() {
                                to_server.push(out);
                            }
                            events.extend(evs);
                        }
                        Err(_) => return events,
                    }
                }
            }
            if to_server.is_empty() && w.client.is_established() {
                break;
            }
        }
        events
    }

    /// Drives the handshake straight between client and server, with no
    /// RA on the path, collecting client events.
    fn drive_direct(w: &mut World, now: u64) -> Vec<RitmEvent> {
        let mut events = Vec::new();
        let mut to_server = w.client.start().to_bytes();
        while !to_server.is_empty() {
            let to_client = segments(w.server.feed(now, &to_server)).concat();
            let Ok((out, evs)) = w.client.feed(now, &to_client) else {
                break;
            };
            events.extend(evs);
            to_server = out;
        }
        events
    }

    #[test]
    fn valid_certificate_establishes_with_status() {
        let mut w = world(false, DowngradePolicy::AlwaysRequire);
        let events = drive(&mut w, T0 + 2);
        assert!(events.contains(&RitmEvent::StatusAccepted), "{events:?}");
        assert!(events.contains(&RitmEvent::Established { resumed: false }));
        assert!(w.client.is_established());
        assert_eq!(w.client.status_age(T0 + 2), Some(0));
    }

    #[test]
    fn revoked_certificate_aborts_handshake() {
        let mut w = world(true, DowngradePolicy::AlwaysRequire);
        let events = drive(&mut w, T0 + 2);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RitmEvent::Aborted(AbortReason::Revoked { .. }))),
            "{events:?}"
        );
        assert!(!w.client.is_established());
        assert!(w.client.send_data(b"x").is_err());
    }

    #[test]
    fn downgrade_blocked_when_ra_missing() {
        // AlwaysRequire + no RA on path (adversary tunnelled around it):
        // the handshake completes at the TLS layer but RITM policy aborts.
        let mut w = world(false, DowngradePolicy::AlwaysRequire);
        let events = drive_direct(&mut w, T0 + 2);
        assert!(
            events.contains(&RitmEvent::Aborted(AbortReason::MissingStatus)),
            "{events:?}"
        );
    }

    #[test]
    fn allow_missing_policy_permits_no_ra() {
        let mut w = world(false, DowngradePolicy::AllowMissing);
        let events = drive_direct(&mut w, T0 + 2);
        assert!(
            events.contains(&RitmEvent::Established { resumed: false }),
            "{events:?}"
        );
        assert!(w.client.is_established());
    }

    #[test]
    fn mid_connection_revocation_interrupts() {
        // The §V race-condition defence: revoke *after* establishment; the
        // next periodic status carries a presence proof and the client
        // aborts.
        let mut w = world(false, DowngradePolicy::AlwaysRequire);
        drive(&mut w, T0 + 2);
        assert!(w.client.is_established());

        // CA revokes the server's certificate; RA syncs.
        let serial = SerialNumber::from_u24(0x073e10);
        let iss = w.ca.insert(&[serial], &mut w.rng, T0 + 5).unwrap();
        w.ra.mirror_mut(&w.ca.ca())
            .unwrap()
            .apply_issuance(&iss, T0 + 5)
            .unwrap();

        // Δ later, the server sends data; the RA piggybacks the new status.
        let now = T0 + 2 + DELTA + 1;
        let data = w.server.send_data(b"payload").unwrap();
        let seg = TcpSegment::data(tuple(), Direction::ToClient, w.seq_down, 0, data.to_bytes());
        let mut aborted = false;
        for out_seg in w.lane.process(seg, SimTime::from_secs(now)) {
            if let Ok((_, evs)) = w.client.feed(now, &out_seg.payload) {
                aborted |= evs
                    .iter()
                    .any(|e| matches!(e, RitmEvent::Aborted(AbortReason::Revoked { .. })));
            }
        }
        assert!(
            aborted,
            "client must interrupt on mid-connection revocation"
        );
        assert!(!w.client.is_established());
    }

    #[test]
    fn blocking_statuses_stalls_connection() {
        // §V "MITM and Blocking Attack": an adversary dropping status
        // records cannot keep the connection alive past 2Δ.
        let mut w = world(false, DowngradePolicy::AlwaysRequire);
        drive(&mut w, T0 + 2);
        assert!(w.client.is_established());
        // No statuses arrive (adversary drops them); at +2Δ+1 the client
        // interrupts on its own.
        assert!(w.client.tick(T0 + 2 + 2 * DELTA).is_none(), "within 2Δ: ok");
        let (alert, ev) = w.client.tick(T0 + 3 + 2 * DELTA).expect("stale → abort");
        assert_eq!(ev, RitmEvent::Aborted(AbortReason::StaleStatus));
        assert_eq!(alert.content_type, ritm_tls::record::ContentType::Alert);
    }

    #[test]
    fn garbage_status_does_not_kill_connection() {
        let mut w = world(false, DowngradePolicy::AlwaysRequire);
        drive(&mut w, T0 + 2);
        let rec = TlsRecord::new(ritm_tls::record::ContentType::RitmStatus, vec![0xFF; 40]);
        let (_, evs) = w.client.feed(T0 + 3, &rec.to_bytes()).unwrap();
        assert!(matches!(evs[0], RitmEvent::StatusRejected(_)));
        assert!(w.client.is_established(), "garbage must not DoS the client");
    }

    #[test]
    fn early_statuses_are_capped_and_the_stapled_one_still_validates() {
        use ritm_tls::record::ContentType;
        const FLOOD: usize = 10_000;
        let mut w = world(false, DowngradePolicy::AlwaysRequire);
        let mut flooded = false;
        let events = drive_with(&mut w, T0 + 2, |records| {
            // Behind the lane's staple and before the server's Certificate:
            // 10 000 well-formed status records that prove nothing.
            if !flooded && records.first().map(|r| r.content_type) == Some(ContentType::RitmStatus)
            {
                flooded = true;
                let junk =
                    TlsRecord::new(ContentType::RitmStatus, StatusPayload::default().to_bytes());
                records.splice(1..1, std::iter::repeat_n(junk, FLOOD));
            }
        });
        assert!(flooded, "the lane stapled a status in front of the flight");
        // FLOOD + 1 statuses arrived before the chain; all but the cap were
        // dropped unread, so the buffer held exactly the cap.
        let count = |wanted: &RitmEvent| events.iter().filter(|e| *e == wanted).count();
        let full = RitmEvent::StatusRejected(ValidationError::PendingFull {
            cap: MAX_PENDING_STATUSES,
        });
        assert_eq!(count(&full), FLOOD + 1 - MAX_PENDING_STATUSES);
        assert!(w.client.pending_status.is_empty(), "drained at Certificate");
        assert_eq!(
            count(&RitmEvent::StatusAccepted),
            1,
            "the stapled status, buffered first, validates"
        );
        assert!(events.contains(&RitmEvent::Established { resumed: false }));
        assert!(w.client.is_established());
    }
}
