//! The inline interception lane: per-flow TCP reassembly feeding DPI, with
//! status stapling and revoked-flow resets (paper §III steps 4–7, §VI).
//!
//! Where [`crate::ra`] classifies *individual packets* (and is therefore
//! blind to handshakes fragmented across segments), this module holds one
//! flow record per 4-tuple (Eq. 4): a [`TcpBuffer`] per direction
//! reassembles the byte stream in sequence order, a
//! [`StreamClassifier`] classifies across
//! record and segment boundaries, and the flow walks
//! `WaitForClientHello → WaitForServerFlight → Established` (or `Bypass` /
//! `Reset`). On the server's flight the RA looks the chain up in the
//! lock-free [`StatusServer`] snapshot and either
//!
//! * staples a [`StatusPayload`] into the server→client stream as a
//!   dedicated `RitmStatus` record — injected at a record boundary, with
//!   every later segment's sequence numbers translated (§VIII) — or
//! * resets both directions of a *revoked* flow mid-handshake.
//!
//! [`spawn_inline_relay`] bridges real sockets into this segment-granular
//! core: two `ritm-rt` tasks pump bytes between a client-side and a
//! server-side socket, synthesizing [`TcpSegment`]s via
//! [`StreamSegmenter`], so the same `FlowTable` serves both the
//! discrete-event simulator (as a [`Middlebox`]) and the event runtime.

use crate::dpi::{Classification, StreamClassifier};
use crate::ra::StatusPayload;
use crate::serve::StatusServer;
use parking_lot::Mutex;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_net::middlebox::Middlebox;
use ritm_net::tcp::{Direction, FourTuple, StreamSegmenter, TcpFlags, TcpSegment};
use ritm_net::time::{SimDuration, SimTime};
use ritm_rt::net::{read_some, write_all};
use ritm_rt::Handle;
use ritm_tls::record::{ContentType, TlsRecord, MAX_RECORD_LEN};
use std::collections::{BTreeMap, HashMap};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

/// In-order TCP stream reassembly for one direction of one flow: segments
/// arrive with arbitrary gaps, overlaps, and duplicates; contiguous bytes
/// come out exactly once.
#[derive(Debug, Default)]
pub struct TcpBuffer {
    next_seq: u64,
    pending: BTreeMap<u64, Vec<u8>>,
    initialized: bool,
}

impl TcpBuffer {
    /// Creates an empty buffer; the first inserted segment's sequence
    /// number becomes the stream origin.
    pub fn new() -> Self {
        TcpBuffer::default()
    }

    /// Next in-order sequence number this buffer expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Inserts one segment's payload at `seq`, returning whatever bytes
    /// became contiguous (possibly empty while a gap is open).
    pub fn insert(&mut self, seq: u64, payload: &[u8]) -> Vec<u8> {
        if !self.initialized {
            self.next_seq = seq;
            self.initialized = true;
        }
        if !payload.is_empty() && seq + payload.len() as u64 > self.next_seq {
            // Keep only the part we have not delivered yet.
            let (seq, data) = if seq < self.next_seq {
                let skip = (self.next_seq - seq) as usize;
                (self.next_seq, payload[skip..].to_vec())
            } else {
                (seq, payload.to_vec())
            };
            // On overlap keep the longer of the two candidates.
            match self.pending.get(&seq) {
                Some(existing) if existing.len() >= data.len() => {}
                _ => {
                    self.pending.insert(seq, data);
                }
            }
        }
        let mut out = Vec::new();
        while let Some((&seq, _)) = self.pending.first_key_value() {
            if seq > self.next_seq {
                break;
            }
            let (seq, data) = self.pending.pop_first().expect("first entry exists");
            let skip = (self.next_seq - seq) as usize;
            if skip < data.len() {
                out.extend_from_slice(&data[skip..]);
                self.next_seq += (data.len() - skip) as u64;
            }
        }
        out
    }
}

/// Where a tracked flow is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// Client→server bytes are being reassembled until a ClientHello
    /// classifies (or the stream proves non-TLS / non-RITM).
    WaitForClientHello,
    /// A RITM ClientHello passed; awaiting the server's first flight.
    WaitForServerFlight,
    /// Handshake complete; only periodic Δ re-stapling remains.
    Established,
    /// Non-TLS or non-RITM: forward untouched, never inspect again.
    Bypass,
    /// The flow was reset (revoked chain); drop everything.
    Reset,
}

/// One tracked connection: Eq. (4) state plus stream reassembly.
#[derive(Debug)]
struct Flow {
    stage: FlowStage,
    to_server: TcpBuffer,
    to_client: TcpBuffer,
    classify_to_server: StreamClassifier,
    classify_to_client: StreamClassifier,
    translator: ritm_net::tcp::SeqTranslator,
    chain: Vec<(CaId, SerialNumber)>,
    last_status: u64,
    /// Status waiting for a record boundary in the server→client stream.
    pending_status: Option<StatusPayload>,
    /// Last time (seconds) a segment touched this flow, either direction.
    last_seen: u64,
}

impl Flow {
    fn new(now_secs: u64) -> Self {
        Flow {
            stage: FlowStage::WaitForClientHello,
            to_server: TcpBuffer::new(),
            to_client: TcpBuffer::new(),
            classify_to_server: StreamClassifier::new(),
            classify_to_client: StreamClassifier::new(),
            translator: ritm_net::tcp::SeqTranslator::new(),
            chain: Vec::new(),
            last_status: 0,
            pending_status: None,
            last_seen: now_secs,
        }
    }
}

/// Interceptor tuning.
#[derive(Debug, Clone, Copy)]
pub struct InterceptConfig {
    /// Re-staple interval in seconds (the paper's Δ).
    pub delta: u64,
    /// Compress same-CA chain runs into `MultiRevocationStatus` entries.
    pub compress: bool,
    /// Reset flows whose chain contains a revoked certificate (the
    /// hard-fail deployment; `false` still staples the revoked status and
    /// leaves the verdict to the client).
    pub reset_revoked: bool,
    /// Hard cap on tracked flows. Admitting a flow past the cap first
    /// reaps idle entries, then evicts the least-recently-seen flow — a
    /// SYN flood (or half-open churn) can therefore not grow the table
    /// without bound.
    pub max_flows: usize,
    /// Seconds without a segment in either direction before a flow —
    /// half-open handshakes included — is eligible for reaping.
    pub idle_timeout: u64,
}

impl Default for InterceptConfig {
    fn default() -> Self {
        InterceptConfig {
            delta: 10,
            compress: true,
            reset_revoked: true,
            max_flows: 65_536,
            idle_timeout: 60,
        }
    }
}

/// Counters for the interception lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterceptStats {
    /// Flows that presented a RITM ClientHello and were tracked.
    pub flows_tracked: u64,
    /// Flows that proved non-TLS or non-RITM and were bypassed.
    pub flows_bypassed: u64,
    /// Flows reset because their chain contained a revoked certificate.
    pub flows_reset: u64,
    /// Status payloads stapled into server→client streams.
    pub statuses_injected: u64,
    /// Total bytes those stapled records added.
    pub bytes_injected: u64,
    /// Flows reaped after `idle_timeout` seconds without traffic.
    pub flows_evicted_idle: u64,
    /// Flows evicted least-recently-seen-first because the table hit
    /// `max_flows`.
    pub flows_evicted_capacity: u64,
}

/// A server's endpoint plus one of the session ids it handed out.
type SessionKey = (ritm_net::tcp::SocketAddr, Vec<u8>);

/// Session → (second learned, chain seen at full-handshake time).
type SessionCache = HashMap<SessionKey, (u64, Vec<(CaId, SerialNumber)>)>;

/// The per-flow interception middlebox: a [`Middlebox`] over reassembled
/// flows, stapling statuses from a shared [`StatusServer`] snapshot.
#[derive(Debug)]
pub struct FlowTable {
    status: Arc<StatusServer>,
    config: InterceptConfig,
    flows: HashMap<FourTuple, Flow>,
    /// What full handshakes showed, so resumption flights (no Certificate
    /// message) still get a status verdict. Session ids are only unique
    /// per server, hence the endpoint in the key; bounded by `max_flows`.
    session_cache: SessionCache,
    stats: InterceptStats,
}

impl FlowTable {
    /// Creates a flow table stapling from `status` snapshots.
    pub fn new(status: Arc<StatusServer>, config: InterceptConfig) -> Self {
        FlowTable {
            status,
            config,
            flows: HashMap::new(),
            session_cache: HashMap::new(),
            stats: InterceptStats::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> InterceptStats {
        self.stats
    }

    /// Number of flows currently tracked (any stage).
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` when no flow is tracked.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Reaps every flow idle for at least `idle_timeout` seconds —
    /// half-open handshakes that never completed included — returning how
    /// many were evicted. Runs automatically when admission hits
    /// `max_flows`; call it periodically to bound memory between
    /// admissions too.
    pub fn reap(&mut self, now: SimTime) -> usize {
        self.reap_at(now.as_secs())
    }

    fn reap_at(&mut self, now_secs: u64) -> usize {
        let timeout = self.config.idle_timeout;
        let before = self.flows.len();
        self.flows
            .retain(|_, f| now_secs.saturating_sub(f.last_seen) < timeout);
        let evicted = before - self.flows.len();
        self.stats.flows_evicted_idle += evicted as u64;
        evicted
    }

    /// Makes room for one more flow: reap idle entries first; if the
    /// table is still at `max_flows`, evict the least-recently-seen flow.
    fn admit_one(&mut self, now_secs: u64) {
        if self.flows.len() < self.config.max_flows {
            return;
        }
        self.reap_at(now_secs);
        if self.flows.len() < self.config.max_flows {
            return;
        }
        if let Some(victim) = self
            .flows
            .iter()
            .min_by_key(|(_, f)| f.last_seen)
            .map(|(t, _)| *t)
        {
            self.flows.remove(&victim);
            self.stats.flows_evicted_capacity += 1;
        }
    }

    /// `true` if any certificate of `chain` is revoked in the current
    /// snapshot of its CA's dictionary.
    fn any_revoked(status: &StatusServer, chain: &[(CaId, SerialNumber)]) -> bool {
        chain.iter().any(|(ca, serial)| {
            status
                .snapshot(ca)
                .is_some_and(|snap| snap.contains(serial))
        })
    }

    /// Makes room in a full session memory for `incoming` (unless it is
    /// already there) by forgetting the session learned longest ago.
    fn forget_oldest_session(cache: &mut SessionCache, incoming: &SessionKey) {
        if cache.contains_key(incoming) {
            return;
        }
        let oldest = cache
            .iter()
            .min_by_key(|(_, (learned, _))| *learned)
            .map(|(key, _)| key.clone());
        if let Some(oldest) = oldest {
            cache.remove(&oldest);
        }
    }

    /// Synthesizes RSTs for both directions of `tuple`.
    fn reset_segments(tuple: FourTuple, flow: &Flow) -> Vec<TcpSegment> {
        let rst = |direction: Direction, seq: u64| TcpSegment {
            tuple,
            direction,
            seq,
            ack: 0,
            flags: TcpFlags {
                rst: true,
                ..TcpFlags::default()
            },
            payload: Vec::new(),
        };
        let mut to_client = rst(Direction::ToClient, flow.to_client.next_seq());
        flow.translator.translate(&mut to_client);
        vec![
            to_client,
            rst(Direction::ToServer, flow.to_server.next_seq()),
        ]
    }

    fn handle_to_server(&mut self, seg: &mut TcpSegment) {
        let flow = self.flows.get_mut(&seg.tuple).expect("flow exists");
        if flow.stage == FlowStage::WaitForClientHello {
            let bytes = flow.to_server.insert(seg.seq, seg.payload.as_slice());
            for c in flow.classify_to_server.push(&bytes) {
                match c {
                    Classification::ClientHello { ritm: true, .. } => {
                        flow.stage = FlowStage::WaitForServerFlight;
                        self.stats.flows_tracked += 1;
                    }
                    Classification::ClientHello { ritm: false, .. } | Classification::NotTls => {
                        flow.stage = FlowStage::Bypass;
                        self.stats.flows_bypassed += 1;
                    }
                    _ => {}
                }
            }
        }
        flow.translator.translate(seg);
    }

    fn handle_to_client(&mut self, seg: &mut TcpSegment, now_secs: u64) -> Option<Vec<TcpSegment>> {
        let flow = self.flows.get_mut(&seg.tuple).expect("flow exists");
        // Reassemble on the server's original sequence space — translation
        // happens on the way out.
        let bytes = flow.to_client.insert(seg.seq, seg.payload.as_slice());
        let classifications = flow.classify_to_client.push(&bytes);
        for c in classifications {
            match c {
                Classification::ServerFlight(flight) => {
                    let chain: Vec<(CaId, SerialNumber)> = if flight.leaf.is_some() {
                        if !flight.session_id.is_empty() {
                            let key = (seg.tuple.server, flight.session_id);
                            if self.session_cache.len() >= self.config.max_flows {
                                Self::forget_oldest_session(&mut self.session_cache, &key);
                            }
                            self.session_cache
                                .insert(key, (now_secs, flight.chain.clone()));
                        }
                        flight.chain
                    } else {
                        // Abbreviated flight: no Certificate message — the
                        // chain comes from full-handshake memory (Eq. 4).
                        self.session_cache
                            .get(&(seg.tuple.server, flight.session_id))
                            .map(|(_, chain)| chain.clone())
                            .unwrap_or_default()
                    };
                    if chain.is_empty() {
                        continue; // nothing to prove for this flow
                    }
                    if self.config.reset_revoked && Self::any_revoked(&self.status, &chain) {
                        flow.stage = FlowStage::Reset;
                        self.stats.flows_reset += 1;
                        return Some(Self::reset_segments(seg.tuple, flow));
                    }
                    flow.chain = chain;
                    flow.pending_status =
                        self.status.build_status(&flow.chain, self.config.compress);
                }
                Classification::Finished if flow.stage == FlowStage::WaitForServerFlight => {
                    flow.stage = FlowStage::Established;
                }
                Classification::NotTls => {
                    flow.stage = FlowStage::Bypass;
                    self.stats.flows_bypassed += 1;
                }
                _ => {}
            }
        }

        // Periodic Δ re-staple on long-lived established flows.
        if flow.stage == FlowStage::Established
            && !flow.chain.is_empty()
            && flow.pending_status.is_none()
            && flow.last_status > 0
            && now_secs.saturating_sub(flow.last_status) >= self.config.delta
        {
            if self.config.reset_revoked && Self::any_revoked(&self.status, &flow.chain) {
                flow.stage = FlowStage::Reset;
                self.stats.flows_reset += 1;
                return Some(Self::reset_segments(seg.tuple, flow));
            }
            flow.pending_status = self.status.build_status(&flow.chain, self.config.compress);
        }

        // Staple only at a record boundary: the classifier's reassembler is
        // empty exactly when the stream ends on a whole record, so the
        // injected record cannot split one of the server's.
        let boundary =
            flow.classify_to_client.buffered() == 0 && !seg.payload.as_slice().is_empty();
        if boundary && flow.pending_status.is_some() {
            let payload = flow.pending_status.take().expect("checked above");
            let encoded = payload.to_bytes();
            if encoded.len() <= MAX_RECORD_LEN {
                let record = TlsRecord::new(ContentType::RitmStatus, encoded).to_bytes();
                // Translate the triggering segment with the pre-injection
                // offset; the status record then occupies the stream right
                // after it (§VIII sequence translation).
                flow.translator.translate(seg);
                let status_seg = TcpSegment {
                    tuple: seg.tuple,
                    direction: Direction::ToClient,
                    seq: seg.seq + seg.payload.len() as u64,
                    ack: seg.ack,
                    flags: TcpFlags::default(),
                    payload: record.clone(),
                };
                flow.translator.record_injection(record.len());
                flow.last_status = now_secs;
                self.stats.statuses_injected += 1;
                self.stats.bytes_injected += record.len() as u64;
                return Some(vec![seg.clone(), status_seg]);
            }
            // Oversized payload (would not fit one record): drop it rather
            // than corrupt the stream. Extremely long chains only.
        }
        flow.translator.translate(seg);
        None
    }
}

impl Middlebox for FlowTable {
    fn process(&mut self, mut segment: TcpSegment, now: SimTime) -> Vec<TcpSegment> {
        let now_secs = now.as_secs();
        let closing = segment.flags.fin || segment.flags.rst;
        let tuple = segment.tuple;

        // First sight of a flow: only a client-side opener starts tracking,
        // and admission may first evict an idle or least-recently-seen flow.
        if !self.flows.contains_key(&tuple) {
            if segment.direction != Direction::ToServer {
                return vec![segment];
            }
            self.admit_one(now_secs);
            self.flows.insert(tuple, Flow::new(now_secs));
        } else if let Some(flow) = self.flows.get_mut(&tuple) {
            flow.last_seen = now_secs;
        }

        let stage = self.flows[&tuple].stage;
        let out = match stage {
            FlowStage::Reset => {
                // A reset flow forwards nothing more in either direction.
                if closing {
                    self.flows.remove(&tuple);
                }
                return Vec::new();
            }
            FlowStage::Bypass => vec![segment],
            _ => match segment.direction {
                Direction::ToServer => {
                    self.handle_to_server(&mut segment);
                    vec![segment]
                }
                Direction::ToClient => match self.handle_to_client(&mut segment, now_secs) {
                    Some(replacement) => replacement,
                    None => vec![segment],
                },
            },
        };
        if closing {
            self.flows.remove(&tuple);
        }
        out
    }

    fn processing_delay(&self, segment: &TcpSegment) -> SimDuration {
        // Table III shape: detection on every packet; parsing + proof
        // lookup only on tracked TLS flows.
        let detection = SimDuration::from_micros(3);
        match self.flows.get(&segment.tuple) {
            Some(f) if f.stage == FlowStage::WaitForServerFlight => {
                detection + SimDuration::from_micros(20) + SimDuration::from_micros(67)
            }
            Some(_) => detection + SimDuration::from_micros(2),
            None => detection,
        }
    }
}

/// Spawns the two relay tasks carrying one intercepted connection: bytes
/// from `client` flow through `table` to `server` and back, as synthesized
/// [`TcpSegment`]s. A [`FlowStage::Reset`] verdict tears both sockets
/// down; EOF on either side half-closes the other.
///
/// # Errors
///
/// Socket setup errors (`set_nonblocking`, `try_clone`).
pub fn spawn_inline_relay(
    handle: &Handle,
    table: Arc<Mutex<FlowTable>>,
    tuple: FourTuple,
    client: TcpStream,
    server: TcpStream,
    now: SimTime,
) -> std::io::Result<()> {
    client.set_nonblocking(true)?;
    server.set_nonblocking(true)?;
    let client_w = client.try_clone()?;
    let server_w = server.try_clone()?;
    spawn_pump(
        handle,
        Arc::clone(&table),
        tuple,
        Direction::ToServer,
        client,
        server_w,
        now,
    );
    spawn_pump(
        handle,
        table,
        tuple,
        Direction::ToClient,
        server,
        client_w,
        now,
    );
    Ok(())
}

/// One direction's pump: read from `from`, run segments through the table,
/// write surviving payloads to `to` (both synthesized directions map to
/// `to` or `from`'s peer — the table only re-emits segments for the pumped
/// direction, plus RSTs which close both sockets).
fn spawn_pump(
    handle: &Handle,
    table: Arc<Mutex<FlowTable>>,
    tuple: FourTuple,
    direction: Direction,
    from: TcpStream,
    to: TcpStream,
    now: SimTime,
) {
    let reactor = handle.reactor();
    handle.spawn(async move {
        let mut segmenter = StreamSegmenter::new(tuple, direction, 0);
        let mut buf = [0u8; 4096];
        loop {
            let n = match read_some(&reactor, &from, &mut buf).await {
                Ok(n) => n,
                Err(_) => break, // peer vanished (e.g. reset by the twin pump)
            };
            let seg = if n == 0 {
                segmenter.fin()
            } else {
                segmenter.push(&buf[..n])
            };
            let outs = table.lock().process(seg, now);
            let mut reset = false;
            for out in &outs {
                if out.flags.rst {
                    reset = true;
                }
            }
            if reset {
                // Revoked mid-handshake: kill both directions at once.
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                break;
            }
            let mut write_failed = false;
            for out in outs {
                if out.payload.is_empty() || out.direction != direction {
                    continue;
                }
                if write_all(&reactor, &to, &out.payload).await.is_err() {
                    write_failed = true;
                    break;
                }
            }
            if write_failed {
                break;
            }
            if n == 0 {
                // EOF: propagate the half-close downstream.
                let _ = to.shutdown(Shutdown::Write);
                break;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{CaDictionary, MirrorDictionary};
    use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
    use ritm_tls::connection::{ClientConfig, ServerContext, ServerEvent};
    use ritm_tls::engine::{Action, ClientEngine, ServerEngine};

    const T0: u64 = 1_000_000;
    fn now() -> SimTime {
        SimTime::from_secs(T0 + 2)
    }

    /// Revoked serials are the even ones (the CA setup below revokes
    /// 0, 2, 4, …, 38).
    fn world() -> (CaDictionary, Arc<StatusServer>) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut ca = CaDictionary::new(
            CaId::from_name("InterceptCA"),
            SigningKey::from_seed([1u8; 32]),
            10,
            64,
            &mut rng,
            T0,
        );
        let mut m = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        m.set_delta(10);
        let serials: Vec<SerialNumber> = (0..20).map(|i| SerialNumber::from_u24(i * 2)).collect();
        let iss = ca.insert(&serials, &mut rng, T0 + 1).unwrap();
        m.apply_issuance(&iss, T0 + 1).unwrap();
        let server = Arc::new(StatusServer::new());
        assert!(server.publish(m.snapshot()));
        (ca, server)
    }

    fn pki(ca: &CaDictionary, serial: u32) -> (CertificateChain, TrustAnchors, SigningKey) {
        let ca_key = SigningKey::from_seed([1u8; 32]);
        let server_key = SigningKey::from_seed([2u8; 32]);
        let leaf = Certificate::issue(
            &ca_key,
            ca.ca(),
            SerialNumber::from_u24(serial),
            "example.com",
            T0,
            T0 + 100_000,
            server_key.verifying_key(),
            false,
        );
        let mut anchors = TrustAnchors::new();
        anchors.add(ca.ca(), ca_key.verifying_key());
        (CertificateChain(vec![leaf]), anchors, ca_key)
    }

    fn tuple() -> FourTuple {
        FourTuple {
            client: ritm_net::tcp::SocketAddr::new(0x0c22_384e, 9012),
            server: ritm_net::tcp::SocketAddr::new(0x624c_3620, 443),
        }
    }

    fn seg(direction: Direction, seq: u64, payload: Vec<u8>) -> TcpSegment {
        seg_at(tuple(), direction, seq, payload)
    }

    fn seg_at(tuple: FourTuple, direction: Direction, seq: u64, payload: Vec<u8>) -> TcpSegment {
        TcpSegment {
            tuple,
            direction,
            seq,
            ack: 0,
            flags: TcpFlags::default(),
            payload,
        }
    }

    /// Drives a full handshake through the table at segment granularity,
    /// returning the RITM status payloads the client stream carried.
    fn drive_through(
        table: &mut FlowTable,
        client: &mut ClientEngine,
        ctx: Arc<ServerContext>,
    ) -> Result<Vec<Vec<u8>>, String> {
        drive_through_at(tuple(), table, client, ctx)
    }

    /// [`drive_through`] on an explicit 4-tuple.
    fn drive_through_at(
        tuple: FourTuple,
        table: &mut FlowTable,
        client: &mut ClientEngine,
        ctx: Arc<ServerContext>,
    ) -> Result<Vec<Vec<u8>>, String> {
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut engine_client = Vec::new(); // status payloads seen
        let mut to_server_seq = 0u64;
        let mut to_client_seq = 0u64;
        let mut to_server = vec![client.start()];
        for _ in 0..8 {
            let mut to_client = Vec::new();
            for rec in to_server.drain(..) {
                let bytes = rec.to_bytes();
                let s = seg_at(tuple, Direction::ToServer, to_server_seq, bytes.clone());
                to_server_seq += bytes.len() as u64;
                for out in table.process(s, now()) {
                    if out.flags.rst {
                        return Err("reset".into());
                    }
                    if out.direction != Direction::ToServer || out.payload.is_empty() {
                        continue;
                    }
                    for r in TlsRecord::parse_stream(&out.payload).map_err(|e| e.to_string())? {
                        let (outs, _evs): (Vec<TlsRecord>, Vec<ServerEvent>) = server
                            .process_record(&r, T0 + 2)
                            .map_err(|e| e.to_string())?;
                        to_client.extend(outs);
                    }
                }
            }
            for rec in to_client.drain(..) {
                let bytes = rec.to_bytes();
                let s = seg_at(tuple, Direction::ToClient, to_client_seq, bytes.clone());
                to_client_seq += bytes.len() as u64;
                for out in table.process(s, now()) {
                    if out.flags.rst {
                        return Err("reset".into());
                    }
                    if out.direction != Direction::ToClient || out.payload.is_empty() {
                        continue;
                    }
                    for r in TlsRecord::parse_stream(&out.payload).map_err(|e| e.to_string())? {
                        let (outs, evs) = client
                            .process_record(&r, T0 + 2)
                            .map_err(|e| e.to_string())?;
                        to_server.extend(outs);
                        for ev in evs {
                            if let ritm_tls::connection::ClientEvent::RitmStatus(p) = ev {
                                engine_client.push(p);
                            }
                        }
                    }
                }
            }
            if client.is_established() && to_server.is_empty() {
                break;
            }
        }
        // Close the flow so a later handshake may reuse the 4-tuple.
        let mut fin = seg_at(tuple, Direction::ToServer, to_server_seq, Vec::new());
        fin.flags.fin = true;
        table.process(fin, now());
        Ok(engine_client)
    }

    fn tuple_n(n: u16) -> FourTuple {
        FourTuple {
            client: ritm_net::tcp::SocketAddr::new(0x0c22_0000 + u32::from(n), 9012),
            server: ritm_net::tcp::SocketAddr::new(0x624c_3620, 443),
        }
    }

    fn opener(t: FourTuple, at: SimTime, table: &mut FlowTable) {
        let s = TcpSegment {
            tuple: t,
            direction: Direction::ToServer,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            payload: vec![0x16], // one TLS-looking byte: stays half-open
        };
        table.process(s, at);
    }

    #[test]
    fn idle_and_half_open_flows_are_reaped() {
        let (_, status) = world();
        let mut table = FlowTable::new(status, InterceptConfig::default());
        opener(tuple_n(1), SimTime::from_secs(T0), &mut table);
        opener(tuple_n(2), SimTime::from_secs(T0 + 50), &mut table);
        assert_eq!(table.len(), 2);

        // At T0+70 only the first flow crossed the 60 s idle timeout.
        assert_eq!(table.reap(SimTime::from_secs(T0 + 70)), 1);
        assert_eq!(table.len(), 1);
        assert_eq!(table.stats().flows_evicted_idle, 1);

        // Traffic refreshes the survivor; it outlives the next sweep.
        opener(tuple_n(2), SimTime::from_secs(T0 + 100), &mut table);
        assert_eq!(table.reap(SimTime::from_secs(T0 + 130)), 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_seen() {
        let (_, status) = world();
        let config = InterceptConfig {
            max_flows: 2,
            idle_timeout: 1_000,
            ..Default::default()
        };
        let mut table = FlowTable::new(status, config);
        opener(tuple_n(1), SimTime::from_secs(T0), &mut table);
        opener(tuple_n(2), SimTime::from_secs(T0 + 1), &mut table);
        // Refresh flow 1 so flow 2 becomes the LRU victim.
        opener(tuple_n(1), SimTime::from_secs(T0 + 2), &mut table);

        opener(tuple_n(3), SimTime::from_secs(T0 + 3), &mut table);
        assert_eq!(table.len(), 2);
        assert_eq!(table.stats().flows_evicted_capacity, 1);
        assert_eq!(table.stats().flows_evicted_idle, 0);

        // A server-side segment for the evicted tuple is forwarded
        // untracked, not resurrected.
        let resp = table.process(
            TcpSegment {
                tuple: tuple_n(2),
                direction: Direction::ToClient,
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
                payload: b"late".to_vec(),
            },
            SimTime::from_secs(T0 + 4),
        );
        assert_eq!(resp.len(), 1);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn admission_prefers_reaping_idle_over_lru_eviction() {
        let (_, status) = world();
        let config = InterceptConfig {
            max_flows: 2,
            idle_timeout: 10,
            ..Default::default()
        };
        let mut table = FlowTable::new(status, config);
        opener(tuple_n(1), SimTime::from_secs(T0), &mut table);
        opener(tuple_n(2), SimTime::from_secs(T0 + 9), &mut table);
        // At T0+15 only flow 1 has crossed the 10 s timeout: admission
        // reaps it rather than LRU-evicting the still-fresh flow 2.
        opener(tuple_n(3), SimTime::from_secs(T0 + 15), &mut table);
        assert_eq!(table.len(), 2);
        assert_eq!(table.stats().flows_evicted_idle, 1);
        assert_eq!(table.stats().flows_evicted_capacity, 0);
        assert!(table.reap(SimTime::from_secs(T0 + 15)) == 0);
    }

    #[test]
    fn tcp_buffer_reorders_and_dedups() {
        let mut b = TcpBuffer::new();
        assert_eq!(b.insert(100, b"ab"), b"ab");
        // Out of order: hold 104.. until 102.. arrives.
        assert_eq!(b.insert(104, b"ef"), b"");
        assert_eq!(b.insert(102, b"cd"), b"cdef");
        // Duplicate and overlapping retransmits deliver nothing new.
        assert_eq!(b.insert(100, b"ab"), b"");
        assert_eq!(b.insert(105, b"fgh"), b"gh");
        assert_eq!(b.next_seq(), 108);
    }

    #[test]
    fn benign_flow_gets_stapled_status() {
        let (ca, status) = world();
        let (chain, anchors, _) = pki(&ca, 1); // odd serial: not revoked
        let mut table = FlowTable::new(status, InterceptConfig::default());
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut client = ClientEngine::new(
            ClientConfig {
                server_name: "example.com".into(),
                anchors,
                enable_ritm: true,
            },
            [2u8; 32],
            None,
        );
        let statuses = drive_through(&mut table, &mut client, ctx).unwrap();
        assert!(client.is_established());
        assert_eq!(statuses.len(), 1, "exactly one status stapled");
        let payload = StatusPayload::from_bytes(&statuses[0]).unwrap();
        assert_eq!(payload.covered(), 1);
        let stats = table.stats();
        assert_eq!(stats.flows_tracked, 1);
        assert_eq!(stats.statuses_injected, 1);
        assert_eq!(stats.flows_reset, 0);
        assert!(stats.bytes_injected > 0);
    }

    #[test]
    fn revoked_flow_is_reset_mid_handshake() {
        let (ca, status) = world();
        let (chain, anchors, _) = pki(&ca, 4); // even serial: revoked
        let mut table = FlowTable::new(status, InterceptConfig::default());
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut client = ClientEngine::new(
            ClientConfig {
                server_name: "example.com".into(),
                anchors,
                enable_ritm: true,
            },
            [2u8; 32],
            None,
        );
        let err = drive_through(&mut table, &mut client, ctx).unwrap_err();
        assert_eq!(err, "reset");
        assert!(!client.is_established());
        assert_eq!(table.stats().flows_reset, 1);
        assert_eq!(table.stats().statuses_injected, 0);
    }

    #[test]
    fn resumption_flight_still_gets_verdict() {
        let (ca, status) = world();
        let (chain, anchors, _) = pki(&ca, 1);
        let mut table = FlowTable::new(status, InterceptConfig::default());
        let ctx = ServerContext::new(chain, [9u8; 20]);

        // Full handshake: the table memorizes session id → chain.
        let mut client = ClientEngine::new(
            ClientConfig {
                server_name: "example.com".into(),
                anchors: anchors.clone(),
                enable_ritm: true,
            },
            [2u8; 32],
            None,
        );
        drive_through(&mut table, &mut client, ctx.clone()).unwrap();
        let session = client.session_state(T0 + 2).unwrap();

        // Resumption: no Certificate message crosses the wire, yet the
        // abbreviated flight is stapled from Eq. (4) memory.
        let mut client2 = ClientEngine::new(
            ClientConfig {
                server_name: "example.com".into(),
                anchors,
                enable_ritm: true,
            },
            [4u8; 32],
            Some(session),
        );
        let statuses = drive_through(&mut table, &mut client2, ctx).unwrap();
        assert!(client2.is_established());
        assert_eq!(statuses.len(), 1, "resumption flight stapled too");
        assert_eq!(table.stats().statuses_injected, 2);
    }

    #[test]
    fn resumption_verdict_is_for_the_server_being_resumed() {
        // Session ids are server-scoped and every ServerContext numbers
        // its sessions from 1: two servers behind one table hand out the
        // same id for different certificates.
        let (ca, status) = world();
        let (chain_a, anchors, ca_key) = pki(&ca, 1);
        let (chain_b, _, _) = pki(&ca, 3);
        let (serial_a, serial_b) = (chain_a.0[0].serial, chain_b.0[0].serial);
        let ctx_a = ServerContext::new(chain_a, [9u8; 20]);
        let ctx_b = ServerContext::new(chain_b, [8u8; 20]);
        let at = |server: u32| FourTuple {
            client: tuple().client,
            server: ritm_net::tcp::SocketAddr::new(server, 443),
        };
        let (at_a, at_b) = (at(0x0a00_0001), at(0x0a00_0002));
        let config = |anchors: &TrustAnchors| ClientConfig {
            server_name: "example.com".into(),
            anchors: anchors.clone(),
            enable_ritm: true,
        };
        let mut table = FlowTable::new(status, InterceptConfig::default());

        // Full handshake with B, then with A (same session id, learned later).
        let mut client_b = ClientEngine::new(config(&anchors), [2u8; 32], None);
        drive_through_at(at_b, &mut table, &mut client_b, ctx_b.clone()).unwrap();
        let session_b = client_b.session_state(T0 + 2).unwrap();
        let mut client_a = ClientEngine::new(config(&anchors), [3u8; 32], None);
        drive_through_at(at_a, &mut table, &mut client_a, ctx_a).unwrap();
        assert_eq!(
            client_a.session_state(T0 + 2).unwrap().session_id,
            session_b.session_id
        );

        // Resuming with B must staple the status of B's certificate.
        let mut resumed = ClientEngine::new(config(&anchors), [4u8; 32], Some(session_b));
        let statuses = drive_through_at(at_b, &mut table, &mut resumed, ctx_b).unwrap();
        assert!(resumed.is_established());
        assert_eq!(statuses.len(), 1);
        let payload = StatusPayload::from_bytes(&statuses[0]).unwrap();
        let key = ca_key.verifying_key();
        assert!(payload.statuses[0]
            .validate(&serial_b, &key, 10, T0 + 2)
            .is_ok());
        assert!(payload.statuses[0]
            .validate(&serial_a, &key, 10, T0 + 2)
            .is_err());
    }

    #[test]
    fn session_memory_is_bounded_by_max_flows() {
        let (ca, status) = world();
        let (chain, anchors, _) = pki(&ca, 1);
        let config = InterceptConfig {
            max_flows: 2,
            ..Default::default()
        };
        let mut table = FlowTable::new(status, config);
        let ctx = ServerContext::new(chain, [9u8; 20]);
        for i in 0..3u8 {
            let mut client = ClientEngine::new(
                ClientConfig {
                    server_name: "example.com".into(),
                    anchors: anchors.clone(),
                    enable_ritm: true,
                },
                [i; 32],
                None,
            );
            drive_through(&mut table, &mut client, ctx.clone()).unwrap();
        }
        assert_eq!(table.session_cache.len(), 2);
    }

    #[test]
    fn non_ritm_flow_is_bypassed_untouched() {
        let (_, status) = world();
        let mut table = FlowTable::new(status, InterceptConfig::default());
        let payload = b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n".to_vec();
        let out = table.process(seg(Direction::ToServer, 0, payload.clone()), now());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, payload);
        assert_eq!(table.stats().flows_bypassed, 1);
        // Response direction of a bypassed flow is also untouched.
        let resp = table.process(seg(Direction::ToClient, 0, b"200 OK".to_vec()), now());
        assert_eq!(resp[0].payload, b"200 OK".to_vec());
        assert_eq!(table.stats().statuses_injected, 0);
    }

    #[test]
    fn fragmented_client_hello_is_still_tracked() {
        // The tentpole scenario classify() alone cannot handle: the
        // ClientHello split mid-record across two segments.
        let (ca, status) = world();
        let (chain, anchors, _) = pki(&ca, 1);
        let mut table = FlowTable::new(status, InterceptConfig::default());
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut client = ClientEngine::new(
            ClientConfig {
                server_name: "example.com".into(),
                anchors,
                enable_ritm: true,
            },
            [2u8; 32],
            None,
        );
        let ch = client.start().to_bytes();
        let (a, b) = ch.split_at(ch.len() / 2);
        table.process(seg(Direction::ToServer, 0, a.to_vec()), now());
        table.process(seg(Direction::ToServer, a.len() as u64, b.to_vec()), now());
        assert_eq!(table.stats().flows_tracked, 1);

        // And the server flight arriving byte-by-byte still staples.
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut flight = Vec::new();
        for r in TlsRecord::parse_stream(&ch).unwrap() {
            let (outs, _) = server.process_record(&r, T0 + 2).unwrap();
            flight.extend(TlsRecord::encode_stream(&outs));
        }
        let mut stapled = Vec::new();
        for (i, byte) in flight.iter().enumerate() {
            for out in table.process(seg(Direction::ToClient, i as u64, vec![*byte]), now()) {
                stapled.extend_from_slice(&out.payload);
            }
        }
        // The forwarded stream must now contain a RitmStatus record after
        // the flight.
        let records = TlsRecord::parse_stream(&stapled).unwrap();
        assert!(records
            .iter()
            .any(|r| r.content_type == ContentType::RitmStatus));
        assert_eq!(table.stats().statuses_injected, 1);
    }

    #[test]
    fn sequence_numbers_translated_after_injection() {
        let (ca, status) = world();
        let (chain, anchors, _) = pki(&ca, 1);
        let mut table = FlowTable::new(status, InterceptConfig::default());
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut client = ClientEngine::new(
            ClientConfig {
                server_name: "example.com".into(),
                anchors,
                enable_ritm: true,
            },
            [2u8; 32],
            None,
        );
        let ch = client.start().to_bytes();
        table.process(seg(Direction::ToServer, 0, ch.clone()), now());
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut flight = Vec::new();
        for r in TlsRecord::parse_stream(&ch).unwrap() {
            let (outs, _) = server.process_record(&r, T0 + 2).unwrap();
            flight.extend(TlsRecord::encode_stream(&outs));
        }
        let outs = table.process(seg(Direction::ToClient, 0, flight.clone()), now());
        assert_eq!(outs.len(), 2, "flight + status record");
        let injected = outs[1].payload.len() as u64;
        assert_eq!(
            outs[1].seq,
            flight.len() as u64,
            "status right after flight"
        );
        // The server's next segment is shifted by the injected bytes.
        let next = table.process(
            seg(
                Direction::ToClient,
                flight.len() as u64,
                vec![23, 3, 3, 0, 1, 0],
            ),
            now(),
        );
        assert_eq!(next[0].seq, flight.len() as u64 + injected);
    }

    #[test]
    fn engine_feed_consumes_intercepted_stream() {
        // The stapled stream must remain a valid TLS record stream for the
        // sans-io client engine, arbitrary fragmentation included.
        let (ca, status) = world();
        let (chain, anchors, _) = pki(&ca, 1);
        let mut table = FlowTable::new(status, InterceptConfig::default());
        let ctx = ServerContext::new(chain, [9u8; 20]);
        let mut engine = ClientEngine::new(
            ClientConfig {
                server_name: "example.com".into(),
                anchors,
                enable_ritm: true,
            },
            [2u8; 32],
            None,
        );
        let mut server = ServerEngine::new(ctx, [1u8; 32]);
        let mut to_server_seq = 0u64;
        let mut to_client_seq = 0u64;
        let mut to_server = engine.start().to_bytes();
        let mut statuses = 0;
        for _ in 0..8 {
            let s = seg(Direction::ToServer, to_server_seq, to_server.clone());
            to_server_seq += to_server.len() as u64;
            let mut flight = Vec::new();
            for out in table.process(s, now()) {
                for r in TlsRecord::parse_stream(&out.payload).unwrap() {
                    let (outs, _) = server.process_record(&r, T0 + 2).unwrap();
                    flight.extend(TlsRecord::encode_stream(&outs));
                }
            }
            to_server.clear();
            let s = seg(Direction::ToClient, to_client_seq, flight.clone());
            to_client_seq += flight.len() as u64;
            for out in table.process(s, now()) {
                for action in engine.feed(T0 + 2, &out.payload) {
                    match action {
                        Action::SendBytes(b) => to_server.extend_from_slice(&b),
                        Action::RitmStatus(_) => statuses += 1,
                        Action::Abort { alert } => panic!("aborted: {alert:?}"),
                        _ => {}
                    }
                }
            }
            if engine.is_established() && to_server.is_empty() {
                break;
            }
        }
        assert!(engine.is_established());
        assert_eq!(statuses, 1);
    }
}
