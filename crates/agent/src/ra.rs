//! The Revocation Agent's write side (paper §III "Dissemination", §VI).
//!
//! [`RevocationAgent`] owns the mirrored CA dictionaries and the
//! [`StatusServer`] that publishes them: it applies issuances and refreshes
//! pulled from the CDN ([`crate::sync`]) and republishes an immutable
//! snapshot per epoch. Everything that *reads* those snapshots — the
//! interception lane ([`crate::intercept::FlowTable`]), the wire endpoint
//! ([`crate::service::StatusService`]) — holds the `Arc`-shared
//! [`RevocationAgent::status_server`] handle and never touches the agent.

use crate::serve::StatusServer;
use ritm_cdn::regions::Region;
use ritm_dictionary::{CaId, FreshnessStatement, MirrorDictionary, SignedRoot};
pub use ritm_proto::StatusPayload;
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
}

impl Default for RaConfig {
    fn default() -> Self {
        RaConfig {
            delta: 10,
            region: Region::Europe,
        }
    }
}

/// The Revocation Agent.
///
/// # Read/write split
///
/// The RA is the *writer*: it owns the mirrors and applies issuances and
/// refreshes through [`RevocationAgent::mirror_mut`], whose guard
/// republishes an immutable [`ritm_dictionary::DictionarySnapshot`] on
/// drop. Proof serving is the *read* side, delegated to an `Arc`-shared
/// [`StatusServer`] ([`RevocationAgent::status_server`]): any number of
/// threads holding the server handle can serve concurrent handshake flows
/// without ever blocking on (or being blocked by) dictionary updates.
pub struct RevocationAgent {
    /// Configuration.
    pub config: RaConfig,
    pub(crate) mirrors: HashMap<CaId, MirrorDictionary>,
    /// The lock-free read side: per-CA snapshot cells + encoded-response
    /// caches.
    server: Arc<StatusServer>,
}

impl core::fmt::Debug for RevocationAgent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RevocationAgent")
            .field("mirrors", &self.mirrors.len())
            .field("encoded_cache", &self.server.encoded_cache_stats())
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
}

#[cfg(test)]
mod tests {
    //! The RA end to end at segment level: a [`RevocationAgent`] keeps the
    //! mirror, a [`FlowTable`] over its status server handles hand-built
    //! segments (the engine-driven twins live in `intercept::tests`).

    use super::*;
    use crate::intercept::{FlowStage, FlowTable, InterceptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{CaDictionary, SerialNumber};
    use ritm_net::middlebox::Middlebox;
    use ritm_net::tcp::{Direction, FourTuple, SocketAddr, TcpFlags, TcpSegment};
    use ritm_net::time::SimTime;
    use ritm_tls::certificate::{Certificate, CertificateChain};
    use ritm_tls::extensions::Extension;
    use ritm_tls::handshake::{ClientHello, HandshakeMessage, ServerHello};
    use ritm_tls::record::{ContentType, TlsRecord};

    const T0: u64 = 1_000_000;

    fn tuple() -> FourTuple {
        FourTuple {
            client: SocketAddr::new(1, 9012),
            server: SocketAddr::new(2, 443),
        }
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    struct Fixture {
        ca: CaDictionary,
        ra: RevocationAgent,
        /// The RA's lane; leaves the verdict on a revoked chain to the
        /// client so the tests can read the stapled proof.
        lane: FlowTable,
        rng: StdRng,
    }

    fn lane_over(ra: &RevocationAgent) -> FlowTable {
        FlowTable::new(
            ra.status_server(),
            InterceptConfig {
                delta: 10,
                reset_revoked: false,
                ..Default::default()
            },
        )
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
        let lane = lane_over(&ra);
        Fixture { ca, ra, lane, rng }
    }

    fn client_hello_on(tuple: FourTuple, ritm: bool) -> TcpSegment {
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
        TcpSegment::data(tuple, Direction::ToServer, 0, 0, rec.to_bytes())
    }

    fn client_hello_segment(ritm: bool) -> TcpSegment {
        client_hello_on(tuple(), ritm)
    }

    fn server_hello(session_id: Vec<u8>) -> HandshakeMessage {
        HandshakeMessage::ServerHello(ServerHello {
            version: 0x0303,
            random: [2u8; 32],
            session_id,
            cipher_suite: 0xc02f,
            extensions: vec![],
        })
    }

    fn flight_bytes(issuer: &SigningKey, ca: CaId, serial: u32) -> Vec<u8> {
        let cert = Certificate::issue(
            issuer,
            ca,
            SerialNumber::from_u24(serial),
            "example.com",
            0,
            u64::MAX,
            SigningKey::from_seed([2u8; 32]).verifying_key(),
            false,
        );
        let msgs = [
            server_hello(vec![5; 32]),
            HandshakeMessage::Certificate(CertificateChain(vec![cert])),
            HandshakeMessage::ServerHelloDone,
        ];
        TlsRecord::new(ContentType::Handshake, HandshakeMessage::encode_all(&msgs)).to_bytes()
    }

    fn server_flight_on(tuple: FourTuple, ca: &CaDictionary, serial: u32) -> TcpSegment {
        let bytes = flight_bytes(&SigningKey::from_seed([1u8; 32]), ca.ca(), serial);
        TcpSegment::data(tuple, Direction::ToClient, 0, 0, bytes)
    }

    fn server_flight_segment(ca: &CaDictionary, serial: u32) -> TcpSegment {
        server_flight_on(tuple(), ca, serial)
    }

    /// The first status record among `segs`' payloads, read as one stream.
    fn extract_status(segs: &[TcpSegment]) -> Option<StatusPayload> {
        let stream: Vec<u8> = segs.iter().flat_map(|s| s.payload.clone()).collect();
        TlsRecord::parse_stream(&stream)
            .ok()?
            .iter()
            .find(|r| r.content_type == ContentType::RitmStatus)
            .and_then(|r| StatusPayload::from_bytes(&r.payload).ok())
    }

    fn total_len(segs: &[TcpSegment]) -> usize {
        segs.iter().map(|s| s.payload.len()).sum()
    }

    #[test]
    fn client_hello_creates_state() {
        let mut f = fixture();
        let hello = client_hello_segment(true);
        let out = f.lane.process(hello.clone(), at(T0 + 2));
        assert_eq!(out, vec![hello], "the ClientHello passes unchanged");
        assert_eq!(f.lane.stage(&tuple()), Some(FlowStage::WaitForServerFlight));
        assert_eq!(f.lane.stats().flows_tracked, 1);
        assert_eq!(f.lane.stats().statuses_injected, 0);
    }

    #[test]
    fn non_ritm_client_hello_ignored() {
        let mut f = fixture();
        let out = f.lane.process(client_hello_segment(false), at(T0 + 2));
        assert_eq!(out.len(), 1);
        assert_eq!(f.lane.stage(&tuple()), Some(FlowStage::Bypass));
        assert_eq!(f.lane.stats().flows_tracked, 0);
        // Its server flight is none of the lane's business.
        let flight = server_flight_segment(&f.ca, 500);
        assert_eq!(f.lane.process(flight.clone(), at(T0 + 2)), vec![flight]);
    }

    #[test]
    fn server_flight_gets_status_injected() {
        let mut f = fixture();
        f.lane.process(client_hello_segment(true), at(T0 + 2));
        let flight = server_flight_segment(&f.ca, 500); // 500 not revoked
        let out = f.lane.process(flight.clone(), at(T0 + 2));
        assert_eq!(out.len(), 2, "status record, then the flight");
        assert_eq!(out[1].payload, flight.payload, "flight bytes untouched");
        let payload = extract_status(&out[..1]).expect("status is the first segment");
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
        assert_eq!(f.lane.stage(&tuple()), Some(FlowStage::Established));
        let stats = f.lane.stats();
        assert_eq!(stats.statuses_injected, 1);
        assert_eq!(stats.bytes_injected, out[0].payload.len() as u64);
    }

    #[test]
    fn revoked_serial_gets_presence_proof() {
        let mut f = fixture();
        f.lane.process(client_hello_segment(true), at(T0 + 2));
        let out = f.lane.process(
            server_flight_segment(&f.ca, 105), // 105 IS revoked
            at(T0 + 2),
        );
        let payload = extract_status(&out).unwrap();
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
        // certificates; an abbreviated flight (ServerHello + Finished) from
        // the first must be served the first one's (revoked) serial.
        let mut f = fixture();
        let on = |server: u32, port: u16| FourTuple {
            client: SocketAddr::new(1, port),
            server: SocketAddr::new(server, 443),
        };
        for (server, serial) in [(2, 105), (3, 500)] {
            f.lane
                .process(client_hello_on(on(server, 9012), true), at(T0 + 2));
            f.lane.process(
                server_flight_on(on(server, 9012), &f.ca, serial),
                at(T0 + 2),
            );
        }
        let resumed = TlsRecord::new(
            ContentType::Handshake,
            HandshakeMessage::encode_all(&[
                server_hello(vec![5; 32]),
                HandshakeMessage::Finished([0u8; 12]),
            ]),
        );
        f.lane
            .process(client_hello_on(on(2, 9013), true), at(T0 + 3));
        let out = f.lane.process(
            TcpSegment::data(on(2, 9013), Direction::ToClient, 0, 0, resumed.to_bytes()),
            at(T0 + 3),
        );
        let payload = extract_status(&out[..1]).expect("status precedes the resumed flight");
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
        let out = f.lane.process(flight.clone(), at(T0 + 2));
        assert_eq!(out, vec![flight]);
        assert!(f.lane.is_empty());
    }

    #[test]
    fn unknown_ca_stays_silent() {
        let mut f = fixture();
        f.lane.process(client_hello_segment(true), at(T0 + 2));
        // Flight signed by a CA the RA does not mirror.
        let bytes = flight_bytes(
            &SigningKey::from_seed([9u8; 32]),
            CaId::from_name("UnknownCA"),
            1,
        );
        let seg = TcpSegment::data(tuple(), Direction::ToClient, 0, 0, bytes);
        let out = f.lane.process(seg.clone(), at(T0 + 2));
        assert_eq!(out, vec![seg], "released as it came, no status injected");
        assert_eq!(f.lane.stats().statuses_injected, 0);
    }

    #[test]
    fn periodic_refresh_after_delta() {
        let mut f = fixture();
        f.lane.process(client_hello_segment(true), at(T0 + 2));
        let flight = server_flight_segment(&f.ca, 500);
        let mut seq = flight.payload.len() as u64;
        f.lane.process(flight, at(T0 + 2));

        // Mirror must stay fresh for the refresh to carry a valid statement.
        let msg = f.ca.refresh(&mut f.rng, T0 + 13);
        f.ra.mirror_mut(&f.ca.ca())
            .unwrap()
            .apply_refresh(&msg, T0 + 13)
            .unwrap();

        // Data packet before Δ elapses: untouched.
        let data = TlsRecord::new(ContentType::ApplicationData, vec![7; 100]).to_bytes();
        let out = f.lane.process(
            TcpSegment::data(tuple(), Direction::ToClient, seq, 0, data.clone()),
            at(T0 + 5),
        );
        seq += data.len() as u64;
        assert_eq!(out.len(), 1);
        assert!(extract_status(&out).is_none());

        // Data packet after Δ: fresh status piggybacked right behind it.
        let out = f.lane.process(
            TcpSegment::data(tuple(), Direction::ToClient, seq, 0, data.clone()),
            at(T0 + 13),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload, data);
        assert_eq!(out[1].seq, out[0].seq_end());
        let payload = extract_status(&out[1..]).expect("refresh status");
        let outcome = payload.statuses[0]
            .validate(
                &SerialNumber::from_u24(500),
                &f.ca.verifying_key(),
                10,
                T0 + 13,
            )
            .unwrap();
        assert!(!outcome.is_revoked());
        // The Δ clock restarted: the next packet carries nothing.
        seq += data.len() as u64;
        let out = f.lane.process(
            TcpSegment::data(tuple(), Direction::ToClient, seq, 0, data),
            at(T0 + 14),
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sequence_numbers_translated_after_injection() {
        let mut f = fixture();
        f.lane.process(client_hello_segment(true), at(T0 + 2));
        let flight = server_flight_segment(&f.ca, 500);
        let flight_len = flight.payload.len() as u64;
        let out = f.lane.process(flight, at(T0 + 2));
        let injected = out[0].payload.len() as u64;
        assert_eq!(out[0].seq, 0, "the status takes the flight's place");
        assert_eq!(out[1].seq, injected, "the flight follows it");

        // Subsequent server→client segment: seq shifted up.
        let data = TlsRecord::new(ContentType::ApplicationData, vec![1; 10]);
        let seg = TcpSegment::data(
            tuple(),
            Direction::ToClient,
            flight_len,
            42,
            data.to_bytes(),
        );
        let out = f.lane.process(seg, at(T0 + 3));
        assert_eq!(out[0].seq, flight_len + injected);

        // Client→server ack: shifted down.
        let ack = TcpSegment::data(tuple(), Direction::ToServer, 42, 6000 + injected, vec![]);
        let out = f.lane.process(ack, at(T0 + 3));
        assert_eq!(out[0].ack, 6000);
    }

    #[test]
    fn fin_removes_state() {
        let mut f = fixture();
        f.lane.process(client_hello_segment(true), at(T0 + 2));
        assert_eq!(f.lane.len(), 1);
        let mut fin = TcpSegment::data(tuple(), Direction::ToServer, 1, 1, vec![]);
        fin.flags = TcpFlags {
            fin: true,
            ..Default::default()
        };
        assert_eq!(f.lane.process(fin.clone(), at(T0 + 4)), vec![fin]);
        assert!(f.lane.is_empty());
    }

    #[test]
    fn non_tls_fast_path_counts() {
        let mut f = fixture();
        let seg = TcpSegment::data(tuple(), Direction::ToServer, 0, 0, b"plain http".to_vec());
        let out = f.lane.process(seg.clone(), at(T0));
        assert_eq!(out, vec![seg]);
        assert_eq!(f.lane.stats().flows_bypassed, 1);
        assert_eq!(f.lane.stats().flows_tracked, 0);
    }

    #[test]
    fn second_ra_leaves_fresher_status_alone() {
        // Two RAs on the path: the downstream one must not duplicate or
        // clobber an equally-fresh status (§VIII "Multiple RAs").
        let mut f = fixture();
        f.lane.process(client_hello_segment(true), at(T0 + 2));
        let upstream_out = f
            .lane
            .process(server_flight_segment(&f.ca, 500), at(T0 + 2));
        assert_eq!(upstream_out.len(), 2);

        // A second RA mirroring the same CA at the same version.
        let mut ra2 = RevocationAgent::new(RaConfig::default());
        ra2.install_mirror(f.ca.ca(), f.ra.mirror(&f.ca.ca()).unwrap().clone());
        let mut lane2 = lane_over(&ra2);
        lane2.process(client_hello_segment(true), at(T0 + 2));

        // It withholds the upstream status until the flight behind it is
        // complete, then hands both on as they came.
        assert!(lane2
            .process(upstream_out[0].clone(), at(T0 + 2))
            .is_empty());
        let out2 = lane2.process(upstream_out[1].clone(), at(T0 + 2));
        assert_eq!(
            total_len(&out2),
            total_len(&upstream_out),
            "no double injection"
        );
        assert_eq!(extract_status(&out2), extract_status(&upstream_out));
        assert_eq!(lane2.stats().statuses_left_in_place, 1);
        assert_eq!(lane2.stats().statuses_injected, 0);
    }

    #[test]
    fn stale_status_replaced_by_fresher_ra() {
        // Upstream RA has an outdated dictionary; downstream RA replaces the
        // status with its fresher one.
        let mut f = fixture();
        // Stale mirror snapshot (version 10 revocations).
        let mut stale_ra = RevocationAgent::new(RaConfig::default());
        stale_ra.install_mirror(f.ca.ca(), f.ra.mirror(&f.ca.ca()).unwrap().clone());
        let mut stale_lane = lane_over(&stale_ra);

        // CA revokes one more; f.ra catches up, becoming "fresher".
        let iss =
            f.ca.insert(&[SerialNumber::from_u24(999)], &mut f.rng, T0 + 3)
                .unwrap();
        f.ra.mirror_mut(&f.ca.ca())
            .unwrap()
            .apply_issuance(&iss, T0 + 3)
            .unwrap();

        // Upstream (stale) RA staples first.
        stale_lane.process(client_hello_segment(true), at(T0 + 4));
        let flight = server_flight_segment(&f.ca, 999);
        let flight_len = flight.payload.len() as u64;
        let out = stale_lane.process(flight, at(T0 + 4));
        let stale_payload = extract_status(&out).unwrap();
        assert_eq!(stale_payload.statuses[0].signed_root.size, 10);

        // Downstream (fresh) RA substitutes its own for it.
        f.lane.process(client_hello_segment(true), at(T0 + 4));
        assert!(f.lane.process(out[0].clone(), at(T0 + 4)).is_empty());
        let out2 = f.lane.process(out[1].clone(), at(T0 + 4));
        let stream: Vec<u8> = out2.iter().flat_map(|s| s.payload.clone()).collect();
        let statuses = TlsRecord::parse_stream(&stream)
            .unwrap()
            .iter()
            .filter(|r| r.content_type == ContentType::RitmStatus)
            .count();
        assert_eq!(statuses, 1, "substituted, not added");
        let fresh_payload = extract_status(&out2).unwrap();
        assert_eq!(fresh_payload.statuses[0].signed_root.size, 11);
        assert_eq!(f.lane.stats().statuses_replaced, 1);
        assert_eq!(f.lane.stats().statuses_injected, 1);
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

        // The two statuses differ in length; later segments and the
        // client's acks are translated by the difference on top of what
        // the upstream lane already added.
        let grew = total_len(&out2) as i64 - total_len(&out) as i64;
        let next_seq = flight_len + out[0].payload.len() as u64;
        let data = TlsRecord::new(ContentType::ApplicationData, vec![1; 10]).to_bytes();
        let next = f.lane.process(
            TcpSegment::data(tuple(), Direction::ToClient, next_seq, 0, data),
            at(T0 + 4),
        );
        assert_eq!(next[0].seq, next_seq.saturating_add_signed(grew));
        assert_eq!(next[0].seq, out2.last().unwrap().seq_end());
    }

    #[test]
    fn refresh_keeps_the_audit_path_and_issuance_replaces_it() {
        let mut f = fixture();
        let chain = [(f.ca.ca(), SerialNumber::from_u24(105))];
        let server = f.ra.status_server();

        let first = server.build_status(&chain, true).unwrap();
        for _ in 0..5 {
            let again = server.build_status(&chain, true).unwrap();
            assert_eq!(again, first, "repeated builds compose the same status");
        }

        // A freshness-only refresh does NOT advance the epoch: the audit
        // path is unchanged, composed with the *new* freshness.
        let msg = f.ca.refresh(&mut f.rng, T0 + 11);
        f.ra.mirror_mut(&f.ca.ca())
            .unwrap()
            .apply_refresh(&msg, T0 + 11)
            .unwrap();
        let refreshed = server.build_status(&chain, true).unwrap();
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
        let after = server.build_status(&chain, true).unwrap();
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
            f.ra.status_server()
                .build_status(&[(f.ca.ca(), SerialNumber::from_u24(105))], true)
                .unwrap();
        let back = StatusPayload::from_bytes(&payload.to_bytes()).unwrap();
        assert_eq!(back, payload);
    }
}
