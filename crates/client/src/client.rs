//! The RITM-supported TLS client (paper §III steps 1, 5, 7; §IV downgrade
//! protection).
//!
//! Wraps the `ritm-tls` client state machine and enforces the RITM
//! acceptance policy: the connection lives only while fresh absence proofs
//! keep arriving. On a presence proof — even mid-connection — the client
//! tears the connection down, which is what closes the race-condition
//! window for long-lived connections (§V "Race Condition").

use crate::validator::{validate_payload_tracked, RootTracker, ValidationError, Verdict};
use ritm_agent::StatusPayload;
use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_tls::alert::AlertDescription;
use ritm_tls::certificate::TrustAnchors;
use ritm_tls::connection::{ClientConfig, ClientEvent, TlsError};
use ritm_tls::engine::ClientEngine;
use ritm_tls::record::TlsRecord;
use ritm_tls::session::SessionState;
use std::collections::HashMap;

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
    pending_status: Vec<StatusPayload>,
    /// Per-CA newest accepted dictionary epoch (replay protection).
    root_tracker: RootTracker,
    /// Time of the last accepted status.
    last_valid: Option<u64>,
    established: bool,
    resumed_chain: bool,
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
            resumed_chain: !chain.is_empty(),
            chain,
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

    /// Why the client aborted, if it did.
    pub fn abort_reason(&self) -> Option<&AbortReason> {
        self.aborted.as_ref()
    }

    /// The certificate identities of the current connection.
    pub fn chain_identities(&self) -> &[(CaId, SerialNumber)] {
        &self.chain
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
    pub fn status_age(&self, now: u64) -> Option<u64> {
        self.last_valid.map(|t| now.saturating_sub(t))
    }

    fn requires_status(&self) -> bool {
        match self.config.policy {
            DowngradePolicy::AllowMissing => false,
            DowngradePolicy::RequireIfServerConfirms => self.server_confirmed,
            DowngradePolicy::AlwaysRequire => true,
        }
    }

    fn abort(
        &mut self,
        reason: AbortReason,
        out: &mut Vec<TlsRecord>,
        events: &mut Vec<RitmEvent>,
    ) {
        let desc = match reason {
            AbortReason::Revoked { .. } => AlertDescription::CertificateRevoked,
            AbortReason::MissingStatus | AbortReason::StaleStatus => {
                AlertDescription::CertificateUnknown
            }
        };
        out.push(self.tls.abort(desc));
        events.push(RitmEvent::Aborted(reason.clone()));
        self.aborted = Some(reason);
    }

    fn handle_status_bytes(
        &mut self,
        bytes: &[u8],
        now: u64,
        out: &mut Vec<TlsRecord>,
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
            // Certificate not seen yet (should not happen given record
            // ordering, but a hostile RA could reorder): buffer it.
            self.pending_status.push(payload);
            return;
        }
        match validate_payload_tracked(
            &payload,
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
                self.abort(AbortReason::Revoked { serial }, out, events);
            }
            Err(e) => events.push(RitmEvent::StatusRejected(e)),
        }
    }

    /// Feeds one inbound record; returns records to send and events.
    ///
    /// # Errors
    ///
    /// TLS-level failures are returned as [`TlsError`]; RITM policy
    /// violations surface as [`RitmEvent::Aborted`] plus an alert record.
    pub fn process_record(
        &mut self,
        record: &TlsRecord,
        now: u64,
    ) -> Result<(Vec<TlsRecord>, Vec<RitmEvent>), TlsError> {
        if self.aborted.is_some() {
            return Err(TlsError::Closed);
        }
        let (mut out, tls_events) = self.tls.process_record(record, now)?;
        let mut events = Vec::new();
        for ev in tls_events {
            match ev {
                ClientEvent::CertificateReceived(chain) => {
                    self.chain = chain.0.iter().map(|c| (c.issuer, c.serial)).collect();
                    // Drain any early-arriving statuses.
                    let pending = std::mem::take(&mut self.pending_status);
                    for p in pending {
                        let bytes = p.to_bytes();
                        self.handle_status_bytes(&bytes, now, &mut out, &mut events);
                    }
                }
                ClientEvent::RitmStatus(bytes) => {
                    self.handle_status_bytes(&bytes, now, &mut out, &mut events);
                }
                ClientEvent::HandshakeComplete {
                    resumed,
                    server_confirms_ritm,
                } => {
                    self.server_confirmed = server_confirms_ritm;
                    if resumed && !self.resumed_chain {
                        // Resumed without remembered identities: statuses
                        // cannot be validated; treat per policy below.
                    }
                    if self.requires_status() && self.last_valid.is_none() {
                        self.abort(AbortReason::MissingStatus, &mut out, &mut events);
                    } else {
                        self.established = true;
                        events.push(RitmEvent::Established { resumed });
                    }
                }
                ClientEvent::ReceivedData(d) => events.push(RitmEvent::Data(d)),
                ClientEvent::ConnectionClosed => {}
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
        if stale {
            let mut out = Vec::new();
            let mut events = Vec::new();
            self.abort(AbortReason::StaleStatus, &mut out, &mut events);
            Some((out.remove(0), events.remove(0)))
        } else {
            None
        }
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

    /// Drives the handshake through the RA, record by record, collecting
    /// client events.
    fn drive(w: &mut World, now: u64) -> Vec<RitmEvent> {
        let mut events = Vec::new();
        let mut to_server = vec![w.client.start()];
        for _ in 0..8 {
            let mut to_client = Vec::new();
            for rec in to_server.drain(..) {
                // client → RA → server
                let seg =
                    TcpSegment::data(tuple(), Direction::ToServer, w.seq_up, 0, rec.to_bytes());
                w.seq_up += rec.encoded_len() as u64;
                for out_seg in w.lane.process(seg, SimTime::from_secs(now)) {
                    for r in TlsRecord::parse_stream(&out_seg.payload).unwrap() {
                        // A fatal alert from the client legitimately kills
                        // the server side; stop feeding it afterwards.
                        match w.server.process_record(&r, now) {
                            Ok((outs, _)) => to_client.extend(outs),
                            Err(_) => return events,
                        }
                    }
                }
            }
            for rec in to_client.drain(..) {
                // server → RA → client
                let seg =
                    TcpSegment::data(tuple(), Direction::ToClient, w.seq_down, 0, rec.to_bytes());
                w.seq_down += rec.encoded_len() as u64;
                for out_seg in w.lane.process(seg, SimTime::from_secs(now)) {
                    for r in TlsRecord::parse_stream(&out_seg.payload).unwrap() {
                        match w.client.process_record(&r, now) {
                            Ok((outs, evs)) => {
                                to_server.extend(outs);
                                events.extend(evs);
                            }
                            Err(_) => return events,
                        }
                    }
                }
            }
            if to_server.is_empty() && w.client.is_established() {
                break;
            }
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
        let mut events = Vec::new();
        let mut to_server = vec![w.client.start()];
        for _ in 0..8 {
            let mut to_client = Vec::new();
            for rec in to_server.drain(..) {
                match w.server.process_record(&rec, T0 + 2) {
                    Ok((outs, _)) => to_client.extend(outs),
                    Err(_) => break,
                }
            }
            for rec in to_client.drain(..) {
                if let Ok((outs, evs)) = w.client.process_record(&rec, T0 + 2) {
                    to_server.extend(outs);
                    events.extend(evs);
                }
            }
            if to_server.is_empty() {
                break;
            }
        }
        assert!(
            events.contains(&RitmEvent::Aborted(AbortReason::MissingStatus)),
            "{events:?}"
        );
    }

    #[test]
    fn allow_missing_policy_permits_no_ra() {
        let mut w = world(false, DowngradePolicy::AllowMissing);
        let mut to_server = vec![w.client.start()];
        let mut established = false;
        for _ in 0..8 {
            let mut to_client = Vec::new();
            for rec in to_server.drain(..) {
                let (outs, _) = w.server.process_record(&rec, T0 + 2).unwrap();
                to_client.extend(outs);
            }
            for rec in to_client.drain(..) {
                let (outs, evs) = w.client.process_record(&rec, T0 + 2).unwrap();
                to_server.extend(outs);
                established |= evs
                    .iter()
                    .any(|e| matches!(e, RitmEvent::Established { .. }));
            }
            if to_server.is_empty() {
                break;
            }
        }
        assert!(established);
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
            for r in TlsRecord::parse_stream(&out_seg.payload).unwrap() {
                if let Ok((_, evs)) = w.client.process_record(&r, now) {
                    aborted |= evs
                        .iter()
                        .any(|e| matches!(e, RitmEvent::Aborted(AbortReason::Revoked { .. })));
                }
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
        let (_, evs) = w.client.process_record(&rec, T0 + 3).unwrap();
        assert!(matches!(evs[0], RitmEvent::StatusRejected(_)));
        assert!(w.client.is_established(), "garbage must not DoS the client");
    }
}
