//! The Revocation Agent — RITM's middlebox (paper §III "Validation", §VI).
//!
//! The RA watches TCP segments on its path. For RITM-supported TLS
//! connections it tracks Eq. (4) state, extracts the server certificate
//! from the handshake, and piggybacks a [`ritm_dictionary::RevocationStatus`] onto
//! server-to-client traffic: once on the ServerHello flight (step 4) and
//! then at least every Δ for the connection's lifetime (step 6). All other
//! traffic is forwarded untouched.

use crate::dpi::{classify, Classification};
use crate::serve::StatusServer;
use crate::state::{Stage, StateTable};
use ritm_cdn::regions::Region;
use ritm_dictionary::{CaId, FreshnessStatement, MirrorDictionary, SerialNumber, SignedRoot};
use ritm_net::middlebox::Middlebox;
use ritm_net::tcp::{Direction, SocketAddr, TcpSegment};
use ritm_net::time::{SimDuration, SimTime};
pub use ritm_proto::StatusPayload;
use ritm_tls::record::{ContentType, TlsRecord};
use std::collections::HashMap;
use std::sync::Arc;

/// RA configuration.
#[derive(Debug, Clone)]
pub struct RaConfig {
    /// Dissemination period Δ in seconds.
    pub delta: u64,
    /// Region (decides which edge server the RA pulls from and how its
    /// traffic is billed).
    pub region: Region,
    /// Prove the whole chain instead of just the leaf (§VIII "Certificate
    /// chains").
    pub prove_full_chain: bool,
    /// Compress same-CA chain runs into one
    /// [`ritm_dictionary::MultiRevocationStatus`]
    /// (shared multiproof + single root/freshness) instead of independent
    /// statuses. Only affects chains of ≥2 certificates.
    pub compress_chain_proofs: bool,
}

impl Default for RaConfig {
    fn default() -> Self {
        RaConfig {
            delta: 10,
            region: Region::Europe,
            prove_full_chain: false,
            compress_chain_proofs: true,
        }
    }
}

/// Counters the RA keeps (feeds the §VII-D throughput discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaStats {
    /// Non-TLS packets forwarded on the fast path.
    pub non_tls_packets: u64,
    /// TLS packets inspected.
    pub tls_packets: u64,
    /// RITM-supported connections tracked.
    pub supported_connections: u64,
    /// Revocation statuses injected.
    pub statuses_sent: u64,
    /// Statuses from upstream RAs left in place (multi-RA rule, §VIII).
    pub statuses_left_in_place: u64,
    /// Stale upstream statuses replaced with fresher ones (multi-RA rule).
    pub statuses_replaced: u64,
}

/// The Revocation Agent.
///
/// # Read/write split
///
/// The RA is the *writer*: it owns the mirrors and applies issuances and
/// refreshes through [`RevocationAgent::mirror_mut`], whose guard
/// republishes an immutable [`ritm_dictionary::DictionarySnapshot`] on
/// drop. Proof serving is the *read* side, delegated to an `Arc`-shared
/// [`StatusServer`] ([`RevocationAgent::status_server`]): `build_status`
/// works from `&self`, and any number of threads holding the server handle
/// can serve concurrent handshake flows without ever blocking on (or
/// being blocked by) dictionary updates.
pub struct RevocationAgent {
    /// Configuration.
    pub config: RaConfig,
    pub(crate) mirrors: HashMap<CaId, MirrorDictionary>,
    /// The lock-free read side: per-CA snapshot cells + encoded-response
    /// caches.
    server: Arc<StatusServer>,
    /// Eq. (4) connection table.
    pub table: StateTable,
    /// (Server endpoint, session id) → certificate identity, learned from
    /// full handshakes, so *resumed* connections (which never carry a
    /// Certificate message) can still be served statuses (§III, "RITM
    /// supports two mechanisms of TLS resumption"). Session ids are only
    /// unique per server, hence the endpoint in the key.
    session_cache: HashMap<(SocketAddr, Vec<u8>), (CaId, SerialNumber)>,
    /// Operational counters.
    pub stats: RaStats,
}

impl core::fmt::Debug for RevocationAgent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RevocationAgent")
            .field("mirrors", &self.mirrors.len())
            .field("connections", &self.table.len())
            .field("encoded_cache", &self.server.encoded_cache_stats())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Write access to one mirror, handed out by
/// [`RevocationAgent::mirror_mut`]. On drop, if the mirror's epoch, signed
/// root, or freshness changed, the guard builds a fresh snapshot **off the
/// read path** and publishes it RCU-style — readers keep serving the old
/// snapshot until the swap and never observe a half-applied update.
pub struct MirrorWriteGuard<'a> {
    mirror: &'a mut MirrorDictionary,
    server: Arc<StatusServer>,
    before: (u64, SignedRoot, FreshnessStatement),
}

impl core::ops::Deref for MirrorWriteGuard<'_> {
    type Target = MirrorDictionary;

    fn deref(&self) -> &MirrorDictionary {
        self.mirror
    }
}

impl core::ops::DerefMut for MirrorWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut MirrorDictionary {
        self.mirror
    }
}

impl Drop for MirrorWriteGuard<'_> {
    fn drop(&mut self) {
        // Never publish while unwinding: the mirror may be mid-mutation,
        // and snapshotting a half-applied state would hand every reader
        // proofs that no longer match the published root (or double-panic).
        if std::thread::panicking() {
            return;
        }
        let after = (
            self.mirror.epoch(),
            *self.mirror.signed_root(),
            *self.mirror.freshness(),
        );
        if after == self.before {
            return;
        }
        if after.0 == self.before.0 {
            // Same epoch ⇒ the tree (and every audit path) is unchanged:
            // a freshness-only refresh or root rotation. Republish sharing
            // the already-frozen tree; if the cell rejects it as stale (or
            // the CA was never published), fall through to a full publish,
            // which with the structurally-shared tree is itself only
            // O(chunks) Arc bumps.
            if self
                .server
                .publish_refresh(&self.mirror.ca(), after.1, after.2)
            {
                return;
            }
        }
        let installed = self.server.publish(self.mirror.snapshot());
        // This RA is the only writer for its mirrors and mirror epochs are
        // monotonic, so the writer's own publish is never stale.
        debug_assert!(installed, "writer's own snapshot rejected as stale");
    }
}

impl RevocationAgent {
    /// Creates an RA with no mirrored dictionaries yet.
    pub fn new(config: RaConfig) -> Self {
        RevocationAgent {
            config,
            mirrors: HashMap::new(),
            server: Arc::new(StatusServer::new()),
            table: StateTable::new(),
            session_cache: HashMap::new(),
            stats: RaStats::default(),
        }
    }

    /// Starts mirroring a CA's dictionary (bootstrap via manifest, §VIII)
    /// and publishes its genesis snapshot for readers.
    ///
    /// # Errors
    ///
    /// Propagates [`ritm_dictionary::UpdateError`] if the genesis root does
    /// not verify.
    pub fn follow_ca(
        &mut self,
        ca: CaId,
        key: ritm_crypto::ed25519::VerifyingKey,
        genesis: ritm_dictionary::SignedRoot,
    ) -> Result<(), ritm_dictionary::UpdateError> {
        let mut mirror = MirrorDictionary::new(ca, key, genesis)?;
        mirror.set_delta(self.config.delta);
        self.install_mirror(ca, mirror);
        Ok(())
    }

    /// Installs an already-built mirror (harnesses delivering state out of
    /// band — warm standbys, tests, experiments) and publishes its current
    /// snapshot. Any previously-cached responses for the CA are purged with
    /// its publication cell, whose generation counter restarts.
    pub fn install_mirror(&mut self, ca: CaId, mirror: MirrorDictionary) {
        if self.mirrors.contains_key(&ca) {
            self.server.retire(&ca);
        }
        // The cell was just retired (or never existed), so this publish
        // creates it and cannot be rejected as stale.
        let installed = self.server.publish(mirror.snapshot());
        debug_assert!(installed, "fresh mirror's snapshot rejected as stale");
        self.mirrors.insert(ca, mirror);
    }

    /// Read access to a mirror.
    pub fn mirror(&self, ca: &CaId) -> Option<&MirrorDictionary> {
        self.mirrors.get(ca)
    }

    /// Write access to a mirror — used by the sync module and by harnesses
    /// that deliver updates out of band (tests, experiments). The returned
    /// guard republishes the CA's snapshot on drop if anything changed, so
    /// concurrent readers pick up the new epoch at the next load.
    pub fn mirror_mut(&mut self, ca: &CaId) -> Option<MirrorWriteGuard<'_>> {
        let server = Arc::clone(&self.server);
        let mirror = self.mirrors.get_mut(ca)?;
        let before = (mirror.epoch(), *mirror.signed_root(), *mirror.freshness());
        Some(MirrorWriteGuard {
            mirror,
            server,
            before,
        })
    }

    /// CAs currently mirrored.
    pub fn followed_cas(&self) -> impl Iterator<Item = &CaId> {
        self.mirrors.keys()
    }

    /// The `Arc`-shared lock-free read side. Clone the handle into as many
    /// threads as needed; each serves statuses from the latest published
    /// snapshots while this RA keeps applying updates.
    pub fn status_server(&self) -> Arc<StatusServer> {
        Arc::clone(&self.server)
    }

    /// Builds the status payload for a chain of `(issuer, serial)` pairs.
    /// Returns `None` when the leaf's CA is not mirrored (the RA then stays
    /// silent rather than injecting garbage).
    ///
    /// Works from `&self`: proofs are built from the published snapshots,
    /// so read-only callers (and any thread holding
    /// [`RevocationAgent::status_server`]) never contend with mirror
    /// updates. The signed root and freshness compose from the same
    /// snapshot as the proof, so the status always verifies against its
    /// own root.
    pub fn build_status(&self, chain: &[(CaId, SerialNumber)]) -> Option<StatusPayload> {
        if chain.is_empty() {
            return None;
        }
        let certs: &[(CaId, SerialNumber)] = if self.config.prove_full_chain {
            chain
        } else {
            &chain[..1]
        };
        self.server
            .build_status(certs, self.config.compress_chain_proofs)
    }

    /// Handles the multi-RA rule (§VIII): given the TLS records of a
    /// server→client payload, decide whether to add our status, replace an
    /// upstream RA's, or leave it alone. Returns the rebuilt payload and
    /// the number of bytes the payload grew by.
    fn inject_status(&mut self, records: Vec<TlsRecord>, payload: StatusPayload) -> (Vec<u8>, i64) {
        let our_root = *payload.primary_root().expect("non-empty payload");
        let mut records = records;
        let mut existing: Option<(usize, StatusPayload)> = None;
        for (i, rec) in records.iter().enumerate() {
            if rec.content_type == ContentType::RitmStatus {
                if let Ok(p) = StatusPayload::from_bytes(&rec.payload) {
                    if p.primary_root().is_some() {
                        existing = Some((i, p));
                        break;
                    }
                }
            }
        }
        let before: usize = records.iter().map(TlsRecord::encoded_len).sum();
        match existing {
            Some((i, theirs)) => {
                let their_root = *theirs.primary_root().expect("checked non-empty");
                // "replaces a revocation status only if its own version of
                // the dictionary is more recent".
                let ours_newer = our_root.size > their_root.size
                    || (our_root.size == their_root.size
                        && our_root.timestamp > their_root.timestamp);
                if ours_newer {
                    records[i] = TlsRecord::new(ContentType::RitmStatus, payload.to_bytes());
                    self.stats.statuses_replaced += 1;
                } else {
                    self.stats.statuses_left_in_place += 1;
                }
            }
            None => {
                // Prepend rather than append: in an abbreviated handshake
                // the same flight carries the server Finished, and the
                // client must see the status before it deems the handshake
                // complete (it buffers statuses that precede the
                // Certificate, so prepending is safe for full handshakes
                // too).
                records.insert(
                    0,
                    TlsRecord::new(ContentType::RitmStatus, payload.to_bytes()),
                );
                self.stats.statuses_sent += 1;
            }
        }
        let rebuilt = TlsRecord::encode_stream(&records);
        let delta = rebuilt.len() as i64 - before as i64;
        (rebuilt, delta)
    }

    fn handle_segment(&mut self, mut seg: TcpSegment, now: SimTime) -> Vec<TcpSegment> {
        let now_secs = now.as_secs();
        let tuple = seg.tuple;
        let tracked = self.table.contains(&tuple);

        // Teardown first: forward the FIN/RST (translated) and drop state.
        let closing = seg.flags.fin || seg.flags.rst;

        let class = classify(&seg.payload);
        match (&class, seg.direction) {
            (Classification::NotTls, _) => {
                self.stats.non_tls_packets += 1;
            }
            _ => {
                self.stats.tls_packets += 1;
            }
        }

        match (class, seg.direction) {
            (Classification::ClientHello { ritm: true, .. }, Direction::ToServer)
                // §III step 2: create Eq. (4) state; pass the ClientHello on
                // unchanged.
                if !tracked => {
                    self.table.insert(tuple);
                    self.stats.supported_connections += 1;
                }
            (Classification::ServerFlight(flight), Direction::ToClient) if tracked => {
                // §III step 4: extract CA + serial, build and append status.
                // For an abbreviated (resumed) handshake no certificate is
                // on the wire, so fall back to the session cache.
                let identity = match flight.leaf {
                    Some((ca, serial)) => {
                        if !flight.session_id.is_empty() {
                            self.session_cache
                                .insert((tuple.server, flight.session_id.clone()), (ca, serial));
                        }
                        Some((ca, serial))
                    }
                    None => self
                        .session_cache
                        .get(&(tuple.server, flight.session_id.clone()))
                        .copied(),
                };
                if let Some((ca, serial)) = identity {
                    self.table.update(&tuple, |s| {
                        s.ca = Some(ca);
                        s.serial = Some(serial);
                        s.stage = Stage::ServerHello;
                    });
                    let chain = if flight.chain.is_empty() {
                        vec![(ca, serial)]
                    } else {
                        flight.chain.clone()
                    };
                    if let Some(payload) = self.build_status(&chain) {
                        if let Ok(records) = TlsRecord::parse_stream(&seg.payload) {
                            // Translate with the *pre-injection* offset, then
                            // grow the payload and account for the growth.
                            self.table.update(&tuple, |s| s.translator.translate(&mut seg));
                            let (rebuilt, grew) = self.inject_status(records, payload);
                            seg.payload = rebuilt;
                            if grew > 0 {
                                self.table.update(&tuple, |s| {
                                    s.translator.record_injection(grew as usize);
                                    s.last_status = now_secs;
                                });
                            }
                            if closing {
                                self.table.remove(&tuple);
                            }
                            return vec![seg];
                        }
                    }
                } else if !flight.session_id.is_empty() {
                    self.table.update(&tuple, |s| s.stage = Stage::ServerHello);
                }
            }
            (Classification::Finished, Direction::ToClient) if tracked => {
                // §III step 6: server Finished → connection established.
                self.table.update(&tuple, |s| s.stage = Stage::Established);
            }
            (_, Direction::ToClient) if tracked => {
                // §III step 6: piggyback a fresh status every Δ on the first
                // server→client packet past the deadline.
                let due = self.table.get(&tuple).is_some_and(|s| {
                    s.stage == Stage::Established
                        && s.last_status > 0
                        && now_secs.saturating_sub(s.last_status) >= self.config.delta
                });
                if due {
                    let chain = self.table.get(&tuple).and_then(|s| {
                        s.ca.zip(s.serial).map(|(ca, sn)| vec![(ca, sn)])
                    });
                    if let Some(chain) = chain {
                        if let Some(payload) = self.build_status(&chain) {
                            if let Ok(records) = TlsRecord::parse_stream(&seg.payload) {
                                self.table.update(&tuple, |s| s.translator.translate(&mut seg));
                                let (rebuilt, grew) = self.inject_status(records, payload);
                                seg.payload = rebuilt;
                                if grew > 0 {
                                    self.table.update(&tuple, |s| {
                                        s.translator.record_injection(grew as usize);
                                        s.last_status = now_secs;
                                    });
                                }
                                if closing {
                                    self.table.remove(&tuple);
                                }
                                return vec![seg];
                            }
                        }
                    }
                }
            }
            _ => {}
        }

        // Default path: translate sequence numbers if we ever injected, and
        // forward.
        if tracked {
            self.table
                .update(&tuple, |s| s.translator.translate(&mut seg));
        }
        if closing {
            self.table.remove(&tuple);
        }
        vec![seg]
    }
}

impl Middlebox for RevocationAgent {
    fn process(&mut self, segment: TcpSegment, now: SimTime) -> Vec<TcpSegment> {
        self.handle_segment(segment, now)
    }

    fn processing_delay(&self, segment: &TcpSegment) -> SimDuration {
        // Charged per Table III: TLS detection ~3 µs on every packet;
        // handshake packets of supported connections additionally pay
        // certificate parsing (~20 µs) and proof construction (~67 µs).
        if !ritm_tls::record::looks_like_tls(&segment.payload) {
            SimDuration::from_micros(3)
        } else if self.table.contains(&segment.tuple) {
            SimDuration::from_micros(3 + 20 + 67)
        } else {
            SimDuration::from_micros(5)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::CaDictionary;
    use ritm_net::tcp::{FourTuple, TcpFlags};
    use ritm_tls::extensions::Extension;
    use ritm_tls::handshake::{ClientHello, HandshakeMessage, ServerHello};

    const T0: u64 = 1_000_000;

    fn tuple() -> FourTuple {
        FourTuple {
            client: SocketAddr::new(1, 9012),
            server: SocketAddr::new(2, 443),
        }
    }

    struct Fixture {
        ca: CaDictionary,
        ra: RevocationAgent,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(21);
        let mut ca = CaDictionary::new(
            CaId::from_name("CA1"),
            SigningKey::from_seed([1u8; 32]),
            10,
            1 << 16,
            &mut rng,
            T0,
        );
        let mut ra = RevocationAgent::new(RaConfig {
            delta: 10,
            ..Default::default()
        });
        ra.follow_ca(ca.ca(), ca.verifying_key(), *ca.signed_root())
            .unwrap();
        // Revoke a couple of serials and mirror them.
        let serials: Vec<SerialNumber> = (100..110u32).map(SerialNumber::from_u24).collect();
        let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
        ra.mirror_mut(&ca.ca())
            .unwrap()
            .apply_issuance(&iss, T0 + 1)
            .unwrap();
        Fixture { ca, ra, rng }
    }

    fn client_hello_segment(ritm: bool) -> TcpSegment {
        let mut extensions = vec![];
        if ritm {
            extensions.push(Extension::ritm_request());
        }
        let msg = HandshakeMessage::ClientHello(ClientHello {
            version: 0x0303,
            random: [1u8; 32],
            session_id: vec![],
            cipher_suites: vec![0xc02f],
            extensions,
        });
        let rec = TlsRecord::new(ContentType::Handshake, HandshakeMessage::encode_all(&[msg]));
        TcpSegment::data(tuple(), Direction::ToServer, 0, 0, rec.to_bytes())
    }

    fn server_flight_segment(ca: &CaDictionary, serial: u32) -> TcpSegment {
        let cert = ritm_tls::certificate::Certificate::issue(
            &SigningKey::from_seed([1u8; 32]),
            ca.ca(),
            SerialNumber::from_u24(serial),
            "example.com",
            0,
            u64::MAX,
            SigningKey::from_seed([2u8; 32]).verifying_key(),
            false,
        );
        let msgs = [
            HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random: [2u8; 32],
                session_id: vec![5; 32],
                cipher_suite: 0xc02f,
                extensions: vec![],
            }),
            HandshakeMessage::Certificate(ritm_tls::certificate::CertificateChain(vec![cert])),
            HandshakeMessage::ServerHelloDone,
        ];
        let rec = TlsRecord::new(ContentType::Handshake, HandshakeMessage::encode_all(&msgs));
        TcpSegment::data(tuple(), Direction::ToClient, 0, 0, rec.to_bytes())
    }

    fn extract_status(seg: &TcpSegment) -> Option<StatusPayload> {
        let records = TlsRecord::parse_stream(&seg.payload).ok()?;
        records
            .iter()
            .find(|r| r.content_type == ContentType::RitmStatus)
            .and_then(|r| StatusPayload::from_bytes(&r.payload).ok())
    }

    #[test]
    fn client_hello_creates_state() {
        let mut f = fixture();
        let out =
            f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 2));
        assert_eq!(out.len(), 1);
        assert!(f.ra.table.contains(&tuple()));
        assert_eq!(f.ra.stats.supported_connections, 1);
        let s = f.ra.table.get(&tuple()).unwrap();
        assert_eq!(s.stage, Stage::ClientHello);
        assert_eq!(s.last_status, 0);
        assert!(s.ca.is_none() && s.serial.is_none());
    }

    #[test]
    fn non_ritm_client_hello_ignored() {
        let mut f = fixture();
        let out =
            f.ra.process(client_hello_segment(false), SimTime::from_secs(T0 + 2));
        assert_eq!(out.len(), 1);
        assert!(!f.ra.table.contains(&tuple()));
    }

    #[test]
    fn server_flight_gets_status_injected() {
        let mut f = fixture();
        f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 2));
        let flight = server_flight_segment(&f.ca, 500); // 500 not revoked
        let before_len = flight.payload.len();
        let out = f.ra.process(flight, SimTime::from_secs(T0 + 2));
        assert_eq!(out.len(), 1);
        assert!(out[0].payload.len() > before_len, "status appended");
        let payload = extract_status(&out[0]).expect("status record present");
        assert_eq!(payload.statuses.len(), 1);
        // The status validates for the presented serial.
        let outcome = payload.statuses[0]
            .validate(
                &SerialNumber::from_u24(500),
                &f.ca.verifying_key(),
                10,
                T0 + 2,
            )
            .unwrap();
        assert!(!outcome.is_revoked());

        // State advanced per Eq. (4).
        let s = f.ra.table.get(&tuple()).unwrap();
        assert_eq!(s.stage, Stage::ServerHello);
        assert_eq!(s.ca, Some(f.ca.ca()));
        assert_eq!(s.serial, Some(SerialNumber::from_u24(500)));
        assert_eq!(s.last_status, T0 + 2);
        assert!(s.translator.injected() > 0);
    }

    #[test]
    fn revoked_serial_gets_presence_proof() {
        let mut f = fixture();
        f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 2));
        let out = f.ra.process(
            server_flight_segment(&f.ca, 105), // 105 IS revoked
            SimTime::from_secs(T0 + 2),
        );
        let payload = extract_status(&out[0]).unwrap();
        let outcome = payload.statuses[0]
            .validate(
                &SerialNumber::from_u24(105),
                &f.ca.verifying_key(),
                10,
                T0 + 2,
            )
            .unwrap();
        assert!(outcome.is_revoked(), "client learns the cert is revoked");
    }

    #[test]
    fn resumed_flight_gets_the_status_of_its_own_server() {
        // Two servers hand out the same session id for different
        // certificates; an abbreviated flight (ServerHello only) from the
        // first must be served the first one's (revoked) serial.
        let mut f = fixture();
        let at = |server: u32| FourTuple {
            client: tuple().client,
            server: SocketAddr::new(server, 443),
        };
        for (server, serial) in [(2, 105), (3, 500)] {
            let mut hello = client_hello_segment(true);
            hello.tuple = at(server);
            f.ra.process(hello, SimTime::from_secs(T0 + 2));
            let mut flight = server_flight_segment(&f.ca, serial);
            flight.tuple = at(server);
            f.ra.process(flight, SimTime::from_secs(T0 + 2));
        }
        let resumed = HandshakeMessage::ServerHello(ServerHello {
            version: 0x0303,
            random: [3u8; 32],
            session_id: vec![5; 32],
            cipher_suite: 0xc02f,
            extensions: vec![],
        });
        let rec = TlsRecord::new(
            ContentType::Handshake,
            HandshakeMessage::encode_all(&[resumed]),
        );
        let tuple2 = FourTuple {
            client: SocketAddr::new(1, 9013),
            ..at(2)
        };
        let mut hello = client_hello_segment(true);
        hello.tuple = tuple2;
        f.ra.process(hello, SimTime::from_secs(T0 + 3));
        let out = f.ra.process(
            TcpSegment::data(tuple2, Direction::ToClient, 0, 0, rec.to_bytes()),
            SimTime::from_secs(T0 + 3),
        );
        let payload = extract_status(&out[0]).expect("resumed flight served a status");
        let outcome = payload.statuses[0]
            .validate(
                &SerialNumber::from_u24(105),
                &f.ca.verifying_key(),
                10,
                T0 + 3,
            )
            .expect("status is for the first server's serial");
        assert!(outcome.is_revoked());
    }

    #[test]
    fn untracked_flight_untouched() {
        let mut f = fixture();
        // No ClientHello seen: the RA must not touch the flight.
        let flight = server_flight_segment(&f.ca, 500);
        let out = f.ra.process(flight.clone(), SimTime::from_secs(T0 + 2));
        assert_eq!(out, vec![flight]);
    }

    #[test]
    fn unknown_ca_stays_silent() {
        let mut f = fixture();
        f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 2));
        // Flight signed by a CA the RA does not mirror.
        let mut rng = StdRng::seed_from_u64(99);
        let other_ca = CaDictionary::new(
            CaId::from_name("UnknownCA"),
            SigningKey::from_seed([9u8; 32]),
            10,
            64,
            &mut rng,
            T0,
        );
        let cert = ritm_tls::certificate::Certificate::issue(
            &SigningKey::from_seed([9u8; 32]),
            other_ca.ca(),
            SerialNumber::from_u24(1),
            "x.com",
            0,
            u64::MAX,
            SigningKey::from_seed([2u8; 32]).verifying_key(),
            false,
        );
        let msgs = [
            HandshakeMessage::ServerHello(ServerHello {
                version: 0x0303,
                random: [2u8; 32],
                session_id: vec![],
                cipher_suite: 0xc02f,
                extensions: vec![],
            }),
            HandshakeMessage::Certificate(ritm_tls::certificate::CertificateChain(vec![cert])),
        ];
        let rec = TlsRecord::new(ContentType::Handshake, HandshakeMessage::encode_all(&msgs));
        let seg = TcpSegment::data(tuple(), Direction::ToClient, 0, 0, rec.to_bytes());
        let out = f.ra.process(seg.clone(), SimTime::from_secs(T0 + 2));
        assert!(extract_status(&out[0]).is_none(), "no status injected");
    }

    #[test]
    fn periodic_refresh_after_delta() {
        let mut f = fixture();
        f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 2));
        f.ra.process(
            server_flight_segment(&f.ca, 500),
            SimTime::from_secs(T0 + 2),
        );
        // Server Finished establishes the connection.
        let fin = TlsRecord::new(
            ContentType::Handshake,
            HandshakeMessage::encode_all(&[HandshakeMessage::Finished([0u8; 12])]),
        );
        f.ra.process(
            TcpSegment::data(tuple(), Direction::ToClient, 900, 0, fin.to_bytes()),
            SimTime::from_secs(T0 + 3),
        );
        assert_eq!(f.ra.table.get(&tuple()).unwrap().stage, Stage::Established);

        // Mirror must stay fresh for the refresh to carry a valid statement.
        let msg = f.ca.refresh(&mut f.rng, T0 + 13);
        f.ra.mirror_mut(&f.ca.ca())
            .unwrap()
            .apply_refresh(&msg, T0 + 13)
            .unwrap();

        // Data packet before Δ elapses: untouched.
        let data = TlsRecord::new(ContentType::ApplicationData, vec![7; 100]);
        let out = f.ra.process(
            TcpSegment::data(tuple(), Direction::ToClient, 1000, 0, data.to_bytes()),
            SimTime::from_secs(T0 + 5),
        );
        assert!(extract_status(&out[0]).is_none());

        // Data packet after Δ: fresh status piggybacked.
        let out = f.ra.process(
            TcpSegment::data(tuple(), Direction::ToClient, 1200, 0, data.to_bytes()),
            SimTime::from_secs(T0 + 13),
        );
        let payload = extract_status(&out[0]).expect("refresh status");
        let outcome = payload.statuses[0]
            .validate(
                &SerialNumber::from_u24(500),
                &f.ca.verifying_key(),
                10,
                T0 + 13,
            )
            .unwrap();
        assert!(!outcome.is_revoked());
        assert_eq!(f.ra.table.get(&tuple()).unwrap().last_status, T0 + 13);
    }

    #[test]
    fn sequence_numbers_translated_after_injection() {
        let mut f = fixture();
        f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 2));
        let out = f.ra.process(
            server_flight_segment(&f.ca, 500),
            SimTime::from_secs(T0 + 2),
        );
        let injected = f.ra.table.get(&tuple()).unwrap().translator.injected();
        assert!(injected > 0);
        assert_eq!(out[0].seq, 0, "first flight keeps its seq");

        // Subsequent server→client segment: seq shifted up.
        let data = TlsRecord::new(ContentType::ApplicationData, vec![1; 10]);
        let seg = TcpSegment::data(tuple(), Direction::ToClient, 5000, 42, data.to_bytes());
        let out = f.ra.process(seg, SimTime::from_secs(T0 + 3));
        assert_eq!(out[0].seq, 5000 + injected);

        // Client→server ack: shifted down.
        let ack = TcpSegment::data(tuple(), Direction::ToServer, 42, 6000 + injected, vec![]);
        let out = f.ra.process(ack, SimTime::from_secs(T0 + 3));
        assert_eq!(out[0].ack, 6000);
    }

    #[test]
    fn fin_removes_state() {
        let mut f = fixture();
        f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 2));
        assert!(f.ra.table.contains(&tuple()));
        let mut fin = TcpSegment::data(tuple(), Direction::ToServer, 1, 1, vec![]);
        fin.flags = TcpFlags {
            fin: true,
            ..Default::default()
        };
        f.ra.process(fin, SimTime::from_secs(T0 + 4));
        assert!(!f.ra.table.contains(&tuple()));
    }

    #[test]
    fn non_tls_fast_path_counts() {
        let mut f = fixture();
        let seg = TcpSegment::data(tuple(), Direction::ToServer, 0, 0, b"plain http".to_vec());
        let out = f.ra.process(seg.clone(), SimTime::from_secs(T0));
        assert_eq!(out, vec![seg]);
        assert_eq!(f.ra.stats.non_tls_packets, 1);
        assert_eq!(f.ra.stats.tls_packets, 0);
    }

    #[test]
    fn second_ra_leaves_fresher_status_alone() {
        // Two RAs on the path: the downstream one must not duplicate or
        // clobber an equally-fresh status (§VIII "Multiple RAs").
        let mut f = fixture();
        f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 2));
        let out = f.ra.process(
            server_flight_segment(&f.ca, 500),
            SimTime::from_secs(T0 + 2),
        );

        // Build a second RA mirroring the same CA at the same version.
        let mut ra2 = RevocationAgent::new(RaConfig {
            delta: 10,
            ..Default::default()
        });
        // Bootstrap ra2 from scratch: genesis + replay.
        let mut rng = StdRng::seed_from_u64(22);
        let mut ca2 = CaDictionary::new(
            CaId::from_name("CA1x"),
            SigningKey::from_seed([1u8; 32]),
            10,
            64,
            &mut rng,
            T0,
        );
        let _ = &mut ca2;
        ra2.follow_ca(
            f.ca.ca(),
            f.ca.verifying_key(),
            f.ca.issuance_since(0).signed_root,
        )
        .err(); // genesis of non-empty dict fails; instead reuse f's mirror
        let mirror = f.ra.mirror(&f.ca.ca()).unwrap().clone();
        ra2.install_mirror(f.ca.ca(), mirror);
        ra2.table.insert(tuple());
        ra2.table.update(&tuple(), |s| {
            s.ca = Some(f.ca.ca());
            s.serial = Some(SerialNumber::from_u24(500));
            s.stage = Stage::ServerHello;
        });

        let before = out[0].payload.len();
        let out2 = ra2.process(out[0].clone(), SimTime::from_secs(T0 + 2));
        assert_eq!(out2[0].payload.len(), before, "no double injection");
        assert_eq!(ra2.stats.statuses_left_in_place, 1);
        assert_eq!(ra2.stats.statuses_sent, 0);
    }

    #[test]
    fn stale_status_replaced_by_fresher_ra() {
        // Upstream RA has an outdated dictionary; downstream RA replaces the
        // status with its fresher one.
        let mut f = fixture();
        // Stale mirror snapshot (version 10 revocations).
        let stale_mirror = f.ra.mirror(&f.ca.ca()).unwrap().clone();

        // CA revokes one more; f.ra catches up, becoming "fresher".
        let iss =
            f.ca.insert(&[SerialNumber::from_u24(999)], &mut f.rng, T0 + 3)
                .unwrap();
        f.ra.mirror_mut(&f.ca.ca())
            .unwrap()
            .apply_issuance(&iss, T0 + 3)
            .unwrap();

        // Upstream (stale) RA injects first.
        let mut stale_ra = RevocationAgent::new(RaConfig {
            delta: 10,
            ..Default::default()
        });
        stale_ra.install_mirror(f.ca.ca(), stale_mirror);
        stale_ra.table.insert(tuple());
        let flight = server_flight_segment(&f.ca, 999);
        let out = stale_ra.process(flight, SimTime::from_secs(T0 + 4));
        let stale_payload = extract_status(&out[0]).unwrap();
        assert_eq!(stale_payload.statuses[0].signed_root.size, 10);

        // Downstream (fresh) RA replaces it.
        f.ra.process(client_hello_segment(true), SimTime::from_secs(T0 + 4));
        f.ra.table.update(&tuple(), |s| {
            s.ca = Some(f.ca.ca());
            s.serial = Some(SerialNumber::from_u24(999));
        });
        let out2 = f.ra.process(out[0].clone(), SimTime::from_secs(T0 + 4));
        let fresh_payload = extract_status(&out2[0]).unwrap();
        assert_eq!(fresh_payload.statuses[0].signed_root.size, 11);
        assert_eq!(f.ra.stats.statuses_replaced, 1);
        // And the fresh status proves 999 revoked.
        let outcome = fresh_payload.statuses[0]
            .validate(
                &SerialNumber::from_u24(999),
                &f.ca.verifying_key(),
                10,
                T0 + 4,
            )
            .unwrap();
        assert!(outcome.is_revoked());
    }

    #[test]
    fn refresh_keeps_the_audit_path_and_issuance_replaces_it() {
        let mut f = fixture();
        let chain = [(f.ca.ca(), SerialNumber::from_u24(105))];

        let first = f.ra.build_status(&chain).unwrap();
        for _ in 0..5 {
            let again = f.ra.build_status(&chain).unwrap();
            assert_eq!(again, first, "repeated builds compose the same status");
        }

        // A freshness-only refresh does NOT advance the epoch: the audit
        // path is unchanged, composed with the *new* freshness.
        let msg = f.ca.refresh(&mut f.rng, T0 + 11);
        f.ra.mirror_mut(&f.ca.ca())
            .unwrap()
            .apply_refresh(&msg, T0 + 11)
            .unwrap();
        let refreshed = f.ra.build_status(&chain).unwrap();
        assert_eq!(refreshed.statuses[0].proof, first.statuses[0].proof);
        assert_eq!(
            &refreshed.statuses[0].freshness,
            f.ra.mirror(&f.ca.ca()).unwrap().freshness(),
            "status must carry live freshness"
        );

        // A new issuance advances the epoch: the path changes, and the
        // new status verifies against the new root.
        let iss =
            f.ca.insert(&[SerialNumber::from_u24(999)], &mut f.rng, T0 + 12)
                .unwrap();
        f.ra.mirror_mut(&f.ca.ca())
            .unwrap()
            .apply_issuance(&iss, T0 + 12)
            .unwrap();
        let after = f.ra.build_status(&chain).unwrap();
        assert_ne!(after.statuses[0].proof, first.statuses[0].proof);
        let outcome = after.statuses[0]
            .validate(
                &SerialNumber::from_u24(105),
                &f.ca.verifying_key(),
                10,
                T0 + 12,
            )
            .expect("regenerated proof verifies against the advanced root");
        assert!(outcome.is_revoked());
    }

    #[test]
    fn status_payload_round_trip() {
        let f = fixture();
        let payload =
            f.ra.build_status(&[(f.ca.ca(), SerialNumber::from_u24(105))])
                .unwrap();
        let back = StatusPayload::from_bytes(&payload.to_bytes()).unwrap();
        assert_eq!(back, payload);
    }
}
