//! The RA's interception lane: per-flow TCP reassembly feeding DPI, with
//! status stapling, the multi-RA rule and revoked-flow resets (paper §III
//! steps 2–7, §VI, §VIII).
//!
//! One [`FlowTable`] is the only middlebox the RA has. It holds one flow
//! record per 4-tuple (Eq. 4): a [`TcpBuffer`] per direction reassembles
//! the byte stream in sequence order, a [`StreamClassifier`] classifies
//! across record and segment boundaries, and the flow walks
//! `WaitForClientHello → WaitForServerFlight → Established` (or `Bypass` /
//! `Reset`).
//!
//! # Hold, decide, release
//!
//! While a flow is in `WaitForServerFlight` the lane *withholds* every
//! server→client byte until the server's first flight is complete
//! (`ServerHelloDone`, or `Finished` for an abbreviated flight). Only then
//! does it know everything the decision needs — the chain, whether it is
//! revoked, and whether an RA further upstream already stapled — so it
//! decides once:
//!
//! * chain revoked and `reset_revoked` ⇒ drop the held bytes, RST both ways;
//! * no upstream status ⇒ staple ours as a dedicated `RitmStatus` record
//!   **in front of** the held bytes;
//! * upstream status staler by `(size, timestamp)`, or with a root that is
//!   not authentic (another CA's, or neither identical to ours nor signed
//!   under the key the mirror pinned) ⇒ substitute ours for its byte
//!   range; otherwise leave it (§VIII "Multiple RAs");
//! * nothing to prove (unknown session, CA not mirrored) ⇒ release as is.
//!
//! The status precedes the flight because an abbreviated flight carries the
//! server's `Finished` in the same record as its `ServerHello`: a client
//! that requires a status must have validated one by the time it processes
//! that record, and there is no later record boundary before it. In front
//! is also correct for full handshakes (clients buffer a status that
//! precedes the Certificate).
//!
//! What is held is bounded by [`MAX_HELD_BYTES`] (one upstream status
//! record plus one flight record). Past the bound, on a complete record
//! that belongs to neither, on non-TLS bytes, or on FIN/RST from either
//! side, the held bytes go out unmodified ahead of anything else and the
//! flow is left alone. Nothing is ever held outside `WaitForServerFlight`:
//! Δ re-stapling on established flows appends the status right after the
//! first segment that ends on a record boundary. Released and injected
//! bytes are sequenced contiguously, and every later segment of the flow
//! is translated by the (signed) length difference.
//!
//! [`spawn_inline_relay`] bridges real sockets into this segment-granular
//! core: two `ritm-rt` tasks pump bytes between a client-side and a
//! server-side socket, synthesizing [`TcpSegment`]s via
//! [`StreamSegmenter`], so the same `FlowTable` serves both the
//! discrete-event simulator (as a [`Middlebox`]) and the event runtime.

use crate::dpi::{Classification, ServerFlight, StreamClassifier};
use crate::ra::StatusPayload;
use crate::serve::StatusServer;
use parking_lot::Mutex;
use ritm_dictionary::{CaId, SerialNumber, SignedRoot};
use ritm_net::middlebox::Middlebox;
use ritm_net::tcp::{
    Direction, FourTuple, SeqTranslator, SocketAddr, StreamSegmenter, TcpFlags, TcpSegment,
};
use ritm_net::time::{SimDuration, SimTime};
use ritm_rt::net::{read_some, write_all};
use ritm_rt::Handle;
use ritm_tls::record::{ContentType, TlsRecord, MAX_RECORD_LEN};
use std::collections::{BTreeMap, HashMap};
use std::net::{Shutdown, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Most out-of-order bytes one direction of one flow may park (an unscaled
/// TCP receive window).
pub const MAX_PENDING_BYTES: usize = 64 * 1024;
/// Most out-of-order segments one direction of one flow may park.
pub const MAX_PENDING_SEGMENTS: usize = 64;
/// Most server→client bytes a flow withholds while it waits for the first
/// flight: one upstream status record plus one flight record.
pub const MAX_HELD_BYTES: usize = 2 * (5 + MAX_RECORD_LEN);

/// A segment [`TcpBuffer`] refuses: parking it would exceed
/// [`MAX_PENDING_BYTES`] or [`MAX_PENDING_SEGMENTS`], or it overlaps parked
/// bytes and disagrees with them (the endpoint keeps the first copy, so a
/// second one must not get to rewrite what the classifier judges). The
/// stream can no longer be judged and the flow is reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFault;

/// In-order TCP stream reassembly for one direction of one flow: segments
/// arrive with arbitrary gaps, overlaps, and duplicates; contiguous bytes
/// come out exactly once.
#[derive(Debug, Default)]
pub struct TcpBuffer {
    next_seq: u64,
    pending: BTreeMap<u64, Vec<u8>>,
    pending_bytes: usize,
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
    ///
    /// # Errors
    ///
    /// [`StreamFault`], see there.
    pub fn insert(&mut self, seq: u64, payload: &[u8]) -> Result<Vec<u8>, StreamFault> {
        if !self.initialized {
            self.next_seq = seq;
            self.initialized = true;
        }
        let end = seq.checked_add(payload.len() as u64).ok_or(StreamFault)?;
        if end <= self.next_seq {
            return Ok(Vec::new()); // empty, or a retransmit of delivered bytes
        }
        // Keep only the part we have not delivered yet.
        let skip = self.next_seq.saturating_sub(seq) as usize;
        let (seq, data) = (seq + skip as u64, &payload[skip..]);
        for (&parked_seq, parked) in self.pending.range(..end) {
            let lo = seq.max(parked_seq);
            let hi = end.min(parked_seq + parked.len() as u64);
            if lo < hi {
                let ours = &data[(lo - seq) as usize..(hi - seq) as usize];
                let theirs = &parked[(lo - parked_seq) as usize..(hi - parked_seq) as usize];
                if ours != theirs {
                    return Err(StreamFault);
                }
            }
        }
        if seq > self.next_seq {
            // Out of order: park it. A same-`seq` copy that is no longer
            // adds nothing (the overlap was just checked identical).
            let replaced = self.pending.get(&seq).map_or(0, Vec::len);
            if replaced >= data.len() {
                return Ok(Vec::new());
            }
            if self.pending_bytes - replaced + data.len() > MAX_PENDING_BYTES
                || (replaced == 0 && self.pending.len() >= MAX_PENDING_SEGMENTS)
            {
                return Err(StreamFault);
            }
            self.pending_bytes += data.len() - replaced;
            self.pending.insert(seq, data.to_vec());
            return Ok(Vec::new());
        }
        let mut out = data.to_vec();
        self.next_seq = end;
        while let Some(entry) = self.pending.first_entry() {
            if *entry.key() > self.next_seq {
                break;
            }
            let (seq, data) = entry.remove_entry();
            self.pending_bytes -= data.len();
            let skip = (self.next_seq - seq) as usize;
            if skip < data.len() {
                out.extend_from_slice(&data[skip..]);
                self.next_seq += (data.len() - skip) as u64;
            }
        }
        Ok(out)
    }
}

/// Where a tracked flow is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// Client→server bytes are being reassembled until a ClientHello
    /// classifies (or the stream proves non-TLS / non-RITM).
    WaitForClientHello,
    /// A RITM ClientHello passed; server→client bytes are withheld until
    /// the server's first flight is complete and judged.
    WaitForServerFlight,
    /// The first flight was judged and released; only periodic Δ
    /// re-stapling remains.
    Established,
    /// Non-TLS, non-RITM, or a first flight the lane gave up on: forward
    /// untouched, never inspect again.
    Bypass,
    /// The flow was reset (revoked chain, hostile reassembly); drop
    /// everything.
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
    translator: SeqTranslator,
    chain: Vec<(CaId, SerialNumber)>,
    last_status: u64,
    /// Server→client bytes withheld in `WaitForServerFlight` — every byte
    /// the server has sent so far, so offsets into it are the
    /// classifier's stream offsets. Empty in every other stage.
    held: Vec<u8>,
    /// Where in `held` the first upstream RA's status record lies.
    upstream: Option<Range<usize>>,
    /// Δ re-staple waiting for a record boundary in the server→client
    /// stream.
    pending_status: Option<StatusPayload>,
    /// Last second a segment touched this flow, either direction, and the
    /// tie-breaker it is filed under in [`FlowTable::by_last_seen`].
    last_seen: (u64, u64),
}

impl Flow {
    fn new(last_seen: (u64, u64)) -> Self {
        Flow {
            stage: FlowStage::WaitForClientHello,
            to_server: TcpBuffer::new(),
            to_client: TcpBuffer::new(),
            classify_to_server: StreamClassifier::new(),
            classify_to_client: StreamClassifier::new(),
            translator: SeqTranslator::new(),
            chain: Vec::new(),
            last_status: 0,
            held: Vec::new(),
            upstream: None,
            pending_status: None,
            last_seen,
        }
    }

    /// Releases everything held as fresh, contiguously sequenced segments:
    /// as it came, or with `record` in place of `range` (empty to insert)
    /// as a segment of its own. Nothing held and nothing to staple: nothing.
    fn release(
        &mut self,
        tuple: FourTuple,
        ack: u64,
        staple: Option<(Range<usize>, Vec<u8>)>,
    ) -> Vec<TcpSegment> {
        let mut before = std::mem::take(&mut self.held);
        // Client-side sequence number of the first held byte.
        let mut seq = (self.to_client.next_seq() - before.len() as u64)
            .saturating_add_signed(self.translator.shift());
        let (record, after) = staple.map_or_else(Default::default, |(range, record)| {
            let after = before.split_off(range.end);
            before.truncate(range.start);
            self.translator
                .shift_by(record.len() as i64 - range.len() as i64);
            (record, after)
        });
        [before, record, after]
            .into_iter()
            .filter(|piece| !piece.is_empty())
            .map(|piece| {
                let seg = TcpSegment::data(tuple, Direction::ToClient, seq, ack, piece);
                seq = seg.seq_end();
                seg
            })
            .collect()
    }
}

/// Interceptor tuning.
#[derive(Debug, Clone, Copy)]
pub struct InterceptConfig {
    /// Re-staple interval in seconds (the paper's Δ).
    pub delta: u64,
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
    /// Flows that proved non-TLS or non-RITM, or whose first flight the
    /// lane gave up holding, and were bypassed.
    pub flows_bypassed: u64,
    /// Flows reset because their chain contained a revoked certificate or
    /// their segments could not be reassembled consistently.
    pub flows_reset: u64,
    /// Status payloads stapled into server→client streams (added or
    /// substituted for a staler or unauthenticated upstream one).
    pub statuses_injected: u64,
    /// Total bytes of those stapled records.
    pub bytes_injected: u64,
    /// Of `statuses_injected`, the ones that replaced a staler or
    /// unauthenticated upstream status (§VIII "Multiple RAs").
    pub statuses_replaced: u64,
    /// Authenticated upstream statuses at least as fresh as ours, left in
    /// place (§VIII).
    pub statuses_left_in_place: u64,
    /// Flows reaped after `idle_timeout` seconds without traffic.
    pub flows_evicted_idle: u64,
    /// Flows evicted least-recently-seen-first because the table hit
    /// `max_flows`.
    pub flows_evicted_capacity: u64,
}

/// A server's endpoint plus one of the session ids it handed out.
type SessionKey = (SocketAddr, Vec<u8>);

/// What a full handshake showed under one session id.
#[derive(Debug)]
struct Session {
    /// Tie-breaker this session is filed under in
    /// [`FlowTable::sessions_by_age`], with the second it was learned.
    learned: (u64, u64),
    chain: Vec<(CaId, SerialNumber)>,
}

/// The RA's middlebox: a [`Middlebox`] over reassembled flows, stapling
/// statuses from a shared [`StatusServer`] snapshot.
#[derive(Debug)]
pub struct FlowTable {
    status: Arc<StatusServer>,
    config: InterceptConfig,
    flows: HashMap<FourTuple, Flow>,
    /// The same flows ordered by `(last_seen second, tie-breaker)`, so
    /// reaping and capacity eviction pop from the front.
    by_last_seen: BTreeMap<(u64, u64), FourTuple>,
    /// What full handshakes showed, so resumption flights (no Certificate
    /// message) still get a status verdict. Session ids are only unique
    /// per server, hence the endpoint in the key; bounded by `max_flows`.
    session_cache: HashMap<SessionKey, Session>,
    /// The same sessions ordered by `(second learned, tie-breaker)`.
    sessions_by_age: BTreeMap<(u64, u64), SessionKey>,
    /// Source of tie-breakers for both orderings.
    next_tick: u64,
    stats: InterceptStats,
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

/// `ours` as a `RitmStatus` record, unless it would not fit one (extremely
/// long chains only: stay silent rather than corrupt the stream).
fn status_record(ours: &StatusPayload) -> Option<Vec<u8>> {
    let encoded = ours.to_bytes();
    (encoded.len() <= MAX_RECORD_LEN)
        .then(|| TlsRecord::new(ContentType::RitmStatus, encoded).to_bytes())
}

/// The multi-RA rule (§VIII): an RA "replaces a revocation status only if
/// its own version of the dictionary is more recent". An upstream root
/// counts only once authenticated: it must name our CA and be identical to
/// ours or verify under the key the mirror pinned (one signature check,
/// only when it claims to be at least as fresh and differs). Anything else,
/// a forged `size = u64::MAX` included, is replaced.
fn keeps_upstream(status: &StatusServer, ours: &SignedRoot, theirs: &SignedRoot) -> bool {
    theirs.ca == ours.ca
        && (theirs.size, theirs.timestamp) >= (ours.size, ours.timestamp)
        && (theirs == ours
            || status
                .snapshot(&ours.ca)
                .is_some_and(|snap| theirs.verify(snap.ca_key()).is_ok()))
}

impl FlowTable {
    /// Creates a flow table stapling from `status` snapshots.
    pub fn new(status: Arc<StatusServer>, config: InterceptConfig) -> Self {
        FlowTable {
            status,
            config,
            flows: HashMap::new(),
            by_last_seen: BTreeMap::new(),
            session_cache: HashMap::new(),
            sessions_by_age: BTreeMap::new(),
            next_tick: 0,
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

    /// Where `tuple`'s flow is in its lifecycle, if it is tracked.
    pub fn stage(&self, tuple: &FourTuple) -> Option<FlowStage> {
        self.flows.get(tuple).map(|f| f.stage)
    }

    /// Reaps every flow idle for at least `idle_timeout` seconds —
    /// half-open handshakes that never completed included — returning how
    /// many were evicted. Runs when admission hits `max_flows`.
    fn reap(&mut self, now: SimTime) -> usize {
        let mut evicted = 0;
        while let Some(oldest) = self.by_last_seen.first_entry() {
            if now.as_secs().saturating_sub(oldest.key().0) < self.config.idle_timeout {
                break;
            }
            self.flows.remove(&oldest.remove());
            evicted += 1;
        }
        self.stats.flows_evicted_idle += evicted as u64;
        evicted
    }

    fn tick(&mut self) -> u64 {
        self.next_tick += 1;
        self.next_tick
    }

    /// Makes room for one more flow: reap idle entries first; if the
    /// table is still at `max_flows`, evict the least-recently-seen flow.
    fn admit_one(&mut self, now_secs: u64) {
        if self.flows.len() < self.config.max_flows {
            return;
        }
        self.reap(SimTime::from_secs(now_secs));
        if self.flows.len() < self.config.max_flows {
            return;
        }
        if let Some((_, victim)) = self.by_last_seen.pop_first() {
            self.flows.remove(&victim);
            self.stats.flows_evicted_capacity += 1;
        }
    }

    fn forget_flow(&mut self, tuple: &FourTuple) {
        if let Some(flow) = self.flows.remove(tuple) {
            self.by_last_seen.remove(&flow.last_seen);
        }
    }

    /// Remembers the chain a full handshake showed under `key`, forgetting
    /// the session learned longest ago when the memory is full.
    fn learn_session(&mut self, key: SessionKey, chain: Vec<(CaId, SerialNumber)>, now_secs: u64) {
        let learned = (now_secs, self.tick());
        let session = Session { learned, chain };
        if let Some(known) = self.session_cache.insert(key.clone(), session) {
            self.sessions_by_age.remove(&known.learned);
        }
        self.sessions_by_age.insert(learned, key);
        if self.session_cache.len() > self.config.max_flows {
            if let Some((_, oldest)) = self.sessions_by_age.pop_first() {
                self.session_cache.remove(&oldest);
            }
        }
    }

    /// Marks `flow` reset and synthesizes RSTs for both directions of
    /// `tuple`; whatever it held is dropped.
    fn reset(stats: &mut InterceptStats, tuple: FourTuple, flow: &mut Flow) -> Vec<TcpSegment> {
        flow.stage = FlowStage::Reset;
        flow.held = Vec::new();
        stats.flows_reset += 1;
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

    fn handle_to_server(&mut self, mut seg: TcpSegment) -> Vec<TcpSegment> {
        let flow = self.flows.get_mut(&seg.tuple).expect("flow exists");
        if flow.stage == FlowStage::WaitForClientHello {
            let Ok(bytes) = flow.to_server.insert(seg.seq, &seg.payload) else {
                return Self::reset(&mut self.stats, seg.tuple, flow);
            };
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
        flow.translator.translate(&mut seg);
        vec![seg]
    }

    /// `WaitForServerFlight`: swallow the segment into `held`; once the
    /// flight is complete, decide and release (module docs).
    fn hold(&mut self, seg: TcpSegment, now_secs: u64) -> Vec<TcpSegment> {
        let tuple = seg.tuple;
        let flow = self.flows.get_mut(&tuple).expect("flow exists");
        let Ok(bytes) = flow.to_client.insert(seg.seq, &seg.payload) else {
            return Self::reset(&mut self.stats, tuple, flow);
        };
        flow.held.extend_from_slice(&bytes);
        let mut flight = None;
        let mut give_up = flow.held.len() > MAX_HELD_BYTES;
        for c in flow.classify_to_client.push(&bytes) {
            match c {
                Classification::RitmStatus { offset, len } => {
                    let start = offset as usize;
                    flow.upstream.get_or_insert(start..start + len);
                }
                Classification::ServerFlight(f) if flight.is_none() => flight = Some(f),
                // The abbreviated flight's own completion marker.
                Classification::Finished if flight.is_some() => {}
                _ => give_up = true,
            }
        }
        match flight {
            Some(flight) => self.judge(tuple, flight, seg.ack, now_secs),
            None if give_up => {
                flow.stage = FlowStage::Bypass;
                self.stats.flows_bypassed += 1;
                flow.release(tuple, seg.ack, None)
            }
            None => Vec::new(),
        }
    }

    /// The one decision per flow: `flight` is complete and everything the
    /// server sent so far is in `held`.
    fn judge(
        &mut self,
        tuple: FourTuple,
        flight: ServerFlight,
        ack: u64,
        now_secs: u64,
    ) -> Vec<TcpSegment> {
        let chain = if flight.leaf.is_some() {
            if !flight.session_id.is_empty() {
                let key = (tuple.server, flight.session_id);
                self.learn_session(key, flight.chain.clone(), now_secs);
            }
            flight.chain
        } else {
            // Abbreviated flight: no Certificate message — the chain comes
            // from full-handshake memory (Eq. 4).
            self.session_cache
                .get(&(tuple.server, flight.session_id))
                .map(|s| s.chain.clone())
                .unwrap_or_default()
        };
        let flow = self.flows.get_mut(&tuple).expect("flow exists");
        if self.config.reset_revoked && any_revoked(&self.status, &chain) {
            return Self::reset(&mut self.stats, tuple, flow);
        }
        flow.stage = FlowStage::Established;
        flow.chain = chain;
        let ours = self
            .status
            .build_status(&flow.chain)
            .and_then(|ours| Some((*ours.primary_root()?, status_record(&ours)?)));
        let Some((our_root, record)) = ours else {
            // Nothing to prove for this flow.
            return flow.release(tuple, ack, None);
        };
        // An upstream record counts only if it parses to a status with a
        // root; garbage is left for the client to reject beside ours.
        let upstream = flow.upstream.take().and_then(|range| {
            let theirs = StatusPayload::from_bytes(&flow.held[range.start + 5..range.end]).ok()?;
            Some((range, *theirs.primary_root()?))
        });
        flow.last_status = now_secs;
        let replaced = match upstream {
            Some((_, their_root)) if keeps_upstream(&self.status, &our_root, &their_root) => {
                self.stats.statuses_left_in_place += 1;
                return flow.release(tuple, ack, None);
            }
            Some((range, _)) => {
                self.stats.statuses_replaced += 1;
                range
            }
            None => 0..0,
        };
        self.stats.statuses_injected += 1;
        self.stats.bytes_injected += record.len() as u64;
        flow.release(tuple, ack, Some((replaced, record)))
    }

    /// `Established`: forward, and re-staple every Δ at a record boundary.
    fn handle_established(&mut self, mut seg: TcpSegment, now_secs: u64) -> Vec<TcpSegment> {
        let flow = self.flows.get_mut(&seg.tuple).expect("flow exists");
        // Reassemble on the server's original sequence space — translation
        // happens on the way out.
        let Ok(bytes) = flow.to_client.insert(seg.seq, &seg.payload) else {
            return Self::reset(&mut self.stats, seg.tuple, flow);
        };
        // Only record boundaries matter from here on. A stream that stops
        // being TLS never reaches one again: it keeps being forwarded (and
        // translated), just never re-stapled.
        flow.classify_to_client.push(&bytes);

        if !flow.chain.is_empty()
            && flow.pending_status.is_none()
            && flow.last_status > 0
            && now_secs.saturating_sub(flow.last_status) >= self.config.delta
        {
            if self.config.reset_revoked && any_revoked(&self.status, &flow.chain) {
                return Self::reset(&mut self.stats, seg.tuple, flow);
            }
            flow.pending_status = self.status.build_status(&flow.chain);
        }

        // Staple only at a record boundary: the classifier's reassembler is
        // empty exactly when the stream ends on a whole record, so the
        // injected record cannot split one of the server's.
        let boundary = flow.classify_to_client.buffered() == 0
            && !seg.payload.is_empty()
            && !(seg.flags.fin || seg.flags.rst);
        flow.translator.translate(&mut seg);
        if !boundary {
            return vec![seg];
        }
        let Some(record) = flow.pending_status.take().and_then(|p| status_record(&p)) else {
            return vec![seg];
        };
        // The status record occupies the stream right after the triggering
        // segment (§VIII sequence translation).
        let status_seg = TcpSegment::data(
            seg.tuple,
            Direction::ToClient,
            seg.seq_end(),
            seg.ack,
            record,
        );
        flow.translator.shift_by(status_seg.payload.len() as i64);
        flow.last_status = now_secs;
        self.stats.statuses_injected += 1;
        self.stats.bytes_injected += status_seg.payload.len() as u64;
        vec![seg, status_seg]
    }
}

impl Middlebox for FlowTable {
    fn process(&mut self, segment: TcpSegment, now: SimTime) -> Vec<TcpSegment> {
        let now_secs = now.as_secs();
        let closing = segment.flags.fin || segment.flags.rst;
        let tuple = segment.tuple;

        // First sight of a flow: only a client-side opener starts tracking,
        // and admission may first evict an idle or least-recently-seen flow.
        let stage = match self.flows.get(&tuple).map(|f| (f.last_seen, f.stage)) {
            None => {
                if segment.direction != Direction::ToServer {
                    return vec![segment];
                }
                self.admit_one(now_secs);
                let last_seen = (now_secs, self.tick());
                self.by_last_seen.insert(last_seen, tuple);
                self.flows.insert(tuple, Flow::new(last_seen));
                FlowStage::WaitForClientHello
            }
            Some((filed, stage)) => {
                // Re-filed once a second at most: the fast path pays for
                // the ordering only when the second changes.
                if filed.0 != now_secs {
                    let last_seen = (now_secs, self.tick());
                    self.by_last_seen.remove(&filed);
                    self.by_last_seen.insert(last_seen, tuple);
                    self.flows
                        .get_mut(&tuple)
                        .expect("just looked up")
                        .last_seen = last_seen;
                }
                stage
            }
        };
        let (direction, ack) = (segment.direction, segment.ack);
        let mut out = match (stage, direction) {
            // A reset flow forwards nothing more in either direction.
            (FlowStage::Reset, _) => Vec::new(),
            (FlowStage::Bypass, _) | (FlowStage::WaitForClientHello, Direction::ToClient) => {
                vec![segment]
            }
            (_, Direction::ToServer) => self.handle_to_server(segment),
            (FlowStage::WaitForServerFlight, Direction::ToClient) => {
                let flags = segment.flags;
                let mut out = self.hold(segment, now_secs);
                let flow = &self.flows[&tuple];
                if closing && flow.stage != FlowStage::Reset {
                    // `hold` swallowed the segment: its FIN/RST follows
                    // whatever the server sent before it.
                    let mut bare = TcpSegment::data(
                        tuple,
                        Direction::ToClient,
                        flow.to_client.next_seq(),
                        ack,
                        Vec::new(),
                    );
                    bare.flags = flags;
                    flow.translator.translate(&mut bare);
                    out.push(bare);
                }
                out
            }
            (FlowStage::Established, Direction::ToClient) => {
                self.handle_established(segment, now_secs)
            }
        };
        if closing {
            // Whatever is still held goes out ahead of the close, carrying
            // the server's ack (when it is the client that closes: of the
            // client bytes the lane has seen).
            if let Some(flow) = self.flows.get_mut(&tuple) {
                let ack = match direction {
                    Direction::ToClient => ack,
                    Direction::ToServer => flow.to_server.next_seq(),
                };
                out.splice(0..0, flow.release(tuple, ack, None));
            }
            self.forget_flow(&tuple);
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
/// `now` is the table's clock at the call; each segment is stamped `now`
/// plus the wall time elapsed since, so idle reaping and the Δ re-staple
/// see a long-lived connection age.
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
    let clock = (now, Instant::now());
    spawn_pump(
        handle,
        Arc::clone(&table),
        tuple,
        Direction::ToServer,
        client,
        server_w,
        clock,
    );
    spawn_pump(
        handle,
        table,
        tuple,
        Direction::ToClient,
        server,
        client_w,
        clock,
    );
    Ok(())
}

/// One direction's pump: read from `from`, run segments through the table,
/// write surviving payloads to `to`. The table re-emits segments for the
/// pumped direction, plus — rarely — the other one's: RSTs, which close
/// both sockets, and server bytes still withheld when the *client* closes,
/// which go back out through `from`. `clock` pairs the table's time with
/// the instant it was read.
fn spawn_pump(
    handle: &Handle,
    table: Arc<Mutex<FlowTable>>,
    tuple: FourTuple,
    direction: Direction,
    from: TcpStream,
    to: TcpStream,
    clock: (SimTime, Instant),
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
            let now = clock.0 + SimDuration::from_micros(clock.1.elapsed().as_micros() as u64);
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
                if out.payload.is_empty() {
                    continue;
                }
                let socket = if out.direction == direction {
                    &to
                } else {
                    &from
                };
                if write_all(&reactor, socket, &out.payload).await.is_err() {
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
    use ritm_tls::connection::{ClientConfig, ServerContext};
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

    /// The bytes of each `SendBytes` in `actions`, one segment apiece; an
    /// abort is an error.
    fn sent(actions: Vec<Action>) -> Result<Vec<Vec<u8>>, String> {
        let mut segments = Vec::new();
        for action in actions {
            match action {
                Action::SendBytes(b) => segments.push(b),
                Action::Abort { alert } => return Err(format!("aborted: {alert:?}")),
                _ => {}
            }
        }
        Ok(segments)
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
        let mut to_server = vec![client.start().to_bytes()];
        for _ in 0..8 {
            let mut to_client = Vec::new();
            for bytes in to_server.drain(..) {
                let s = seg_at(tuple, Direction::ToServer, to_server_seq, bytes.clone());
                to_server_seq += bytes.len() as u64;
                for out in table.process(s, now()) {
                    if out.flags.rst {
                        return Err("reset".into());
                    }
                    if out.direction != Direction::ToServer || out.payload.is_empty() {
                        continue;
                    }
                    to_client.extend(sent(server.feed(T0 + 2, &out.payload))?);
                }
            }
            for bytes in to_client.drain(..) {
                let s = seg_at(tuple, Direction::ToClient, to_client_seq, bytes.clone());
                to_client_seq += bytes.len() as u64;
                for out in table.process(s, now()) {
                    if out.flags.rst {
                        return Err("reset".into());
                    }
                    if out.direction != Direction::ToClient || out.payload.is_empty() {
                        continue;
                    }
                    for action in client.feed(T0 + 2, &out.payload) {
                        match action {
                            Action::SendBytes(b) => to_server.push(b),
                            Action::RitmStatus(p) => engine_client.push(p),
                            Action::Abort { alert } => return Err(format!("aborted: {alert:?}")),
                            _ => {}
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
        assert_eq!(b.insert(100, b"ab").unwrap(), b"ab");
        // Out of order: hold 104.. until 102.. arrives.
        assert_eq!(b.insert(104, b"ef").unwrap(), b"");
        assert_eq!(b.insert(102, b"cd").unwrap(), b"cdef");
        // Duplicate and overlapping retransmits deliver nothing new.
        assert_eq!(b.insert(100, b"ab").unwrap(), b"");
        assert_eq!(b.insert(105, b"fgh").unwrap(), b"gh");
        assert_eq!(b.next_seq(), 108);
    }

    #[test]
    fn tcp_buffer_keeps_the_first_copy_and_rejects_a_different_one() {
        let mut b = TcpBuffer::new();
        assert_eq!(b.insert(0, b"ab").unwrap(), b"ab");
        assert_eq!(b.insert(4, b"efgh").unwrap(), b"");
        // Identical overlap, any alignment: accepted, the parked copy stays.
        assert_eq!(b.insert(4, b"ef").unwrap(), b"");
        assert_eq!(b.insert(5, b"fghi").unwrap(), b"");
        // A second copy that disagrees with the parked one — same `seq` and
        // longer, or straddling it — is refused.
        assert_eq!(b.insert(4, b"eXghij"), Err(StreamFault));
        assert_eq!(b.insert(3, b"dE"), Err(StreamFault));
        // The stream the classifier judges is the first copy.
        assert_eq!(b.insert(2, b"cd").unwrap(), b"cdefghi");
    }

    #[test]
    fn tcp_buffer_caps_out_of_order_bytes_and_segments() {
        let mut b = TcpBuffer::new();
        b.insert(0, b"x").unwrap();
        // Segments: one-byte islands, every other byte.
        for i in 0..MAX_PENDING_SEGMENTS as u64 {
            assert_eq!(b.insert(10 + 2 * i, b"y").unwrap(), b"");
        }
        assert_eq!(b.insert(5, b"y"), Err(StreamFault));

        // Bytes: a few big islands.
        let mut b = TcpBuffer::new();
        b.insert(0, b"x").unwrap();
        let island = vec![7u8; MAX_PENDING_BYTES / 4];
        for i in 0..4u64 {
            let seq = 10 + i * (island.len() as u64 + 1);
            assert_eq!(b.insert(seq, &island).unwrap(), b"");
        }
        assert_eq!(b.insert(5, b"y"), Err(StreamFault));
        // In-order data is never subject to the caps.
        assert_eq!(b.insert(1, b"abcd").unwrap(), b"abcd");
    }

    #[test]
    fn hostile_reassembly_resets_the_flow_both_ways() {
        let (_, status) = world();
        let mut table = FlowTable::new(status, InterceptConfig::default());
        // A ClientHello-looking opener, then two copies of the same
        // out-of-order bytes that disagree.
        opener(tuple(), now(), &mut table);
        table.process(seg(Direction::ToServer, 10, b"aaaa".to_vec()), now());
        let outs = table.process(seg(Direction::ToServer, 10, b"aaXa".to_vec()), now());
        assert_eq!(outs.len(), 2);
        assert!(outs.iter().all(|s| s.flags.rst));
        assert_ne!(outs[0].direction, outs[1].direction);
        assert_eq!(table.stats().flows_reset, 1);
        assert_eq!(table.stage(&tuple()), Some(FlowStage::Reset));
        // Nothing more is forwarded on a reset flow.
        assert!(table
            .process(seg(Direction::ToServer, 1, b"b".to_vec()), now())
            .is_empty());
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
        let flight = sent(server.feed(T0 + 2, &ch)).unwrap().concat();
        let mut stapled = Vec::new();
        for (i, byte) in flight.iter().enumerate() {
            for out in table.process(seg(Direction::ToClient, i as u64, vec![*byte]), now()) {
                stapled.extend_from_slice(&out.payload);
            }
        }
        // Nothing came out until the last byte completed the flight; then
        // the status record, then the flight.
        let records = TlsRecord::parse_stream(&stapled).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].content_type, ContentType::RitmStatus);
        assert_eq!(TlsRecord::encode_stream(&records[1..]), flight);
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
        let flight = sent(server.feed(T0 + 2, &ch)).unwrap().concat();
        let outs = table.process(seg(Direction::ToClient, 0, flight.clone()), now());
        assert_eq!(outs.len(), 2, "status record + flight");
        let injected = outs[0].payload.len() as u64;
        assert_eq!(outs[0].seq, 0, "status in front of the flight");
        assert_eq!(outs[1].seq, injected, "flight right after it");
        assert_eq!(outs[1].payload, flight);
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

    /// A tracked flow (RITM ClientHello seen) and the server's flight bytes
    /// for it, not yet sent.
    fn tracked_flow(table: &mut FlowTable, ca: &CaDictionary) -> Vec<u8> {
        let (chain, anchors, _) = pki(ca, 1);
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
        let mut server = ServerEngine::new(ServerContext::new(chain, [9u8; 20]), [1u8; 32]);
        match &server.feed(T0 + 2, &ch)[..] {
            [Action::SendBytes(flight)] => flight.clone(),
            other => panic!("expected the flight, got {other:?}"),
        }
    }

    #[test]
    fn never_completing_first_record_is_released_at_the_hold_bound() {
        let (ca, status) = world();
        let mut table = FlowTable::new(status, InterceptConfig::default());
        tracked_flow(&mut table, &ca);
        // A handshake record header promising the largest body a header
        // can, trickled in 1 KiB segments that never complete it.
        let mut stream = vec![22u8, 3, 3, 0xff, 0xff];
        stream.resize(2 * MAX_HELD_BYTES, 0xab);
        let mut released = Vec::new();
        let mut seq = 0;
        for chunk in stream.chunks(1024) {
            released = table.process(seg(Direction::ToClient, seq as u64, chunk.to_vec()), now());
            seq += chunk.len();
            if !released.is_empty() {
                break;
            }
        }
        assert!(seq <= MAX_HELD_BYTES + 1024, "held past the bound");
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].seq, 0);
        assert_eq!(released[0].payload, stream[..seq], "exactly as it came");
        assert_eq!(table.stage(&tuple()), Some(FlowStage::Bypass));
        assert_eq!(table.stats().statuses_injected, 0);
        // From here on the flow is forwarded as is…
        let more = table.process(seg(Direction::ToClient, seq as u64, vec![0xab; 10]), now());
        assert_eq!((more[0].seq, more[0].payload.len()), (seq as u64, 10));
        // …and goes the way of every idle flow.
        assert_eq!(table.reap(SimTime::from_secs(T0 + 2 + 60)), 1);
        assert!(table.is_empty());
    }

    #[test]
    fn record_that_is_not_part_of_the_flight_ends_the_hold() {
        let (ca, status) = world();
        let mut table = FlowTable::new(status, InterceptConfig::default());
        let flight = tracked_flow(&mut table, &ca);
        // The server answers the ClientHello with a fatal alert instead.
        let alert = TlsRecord::new(ContentType::Alert, vec![2, 40]).to_bytes();
        let outs = table.process(seg(Direction::ToClient, 0, alert.clone()), now());
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].payload, alert);
        assert_eq!(table.stage(&tuple()), Some(FlowStage::Bypass));
        // Whatever follows is no longer withheld.
        let outs = table.process(seg(Direction::ToClient, alert.len() as u64, flight), now());
        assert_eq!(outs.len(), 1);
        assert_eq!(table.stats().statuses_injected, 0);
    }

    #[test]
    fn fin_mid_hold_flushes_the_held_bytes_first() {
        let (ca, status) = world();
        for closer in [Direction::ToClient, Direction::ToServer] {
            let mut table = FlowTable::new(status.clone(), InterceptConfig::default());
            let flight = tracked_flow(&mut table, &ca);
            let half = flight.len() / 2;
            assert!(table
                .process(seg(Direction::ToClient, 0, flight[..half].to_vec()), now())
                .is_empty());
            // Either side closes while half a flight is withheld. The
            // server's FIN carries a few more bytes.
            let (seq, tail) = match closer {
                Direction::ToClient => (half as u64, flight[half..half + 3].to_vec()),
                Direction::ToServer => (1_000, Vec::new()),
            };
            let mut fin = seg(closer, seq, tail.clone());
            fin.flags.fin = true;
            let outs = table.process(fin, now());
            assert_eq!(outs.len(), 2, "{closer:?}");
            assert_eq!(outs[0].direction, Direction::ToClient);
            assert!(!outs[0].flags.fin);
            assert_eq!(outs[0].seq, 0);
            assert_eq!(outs[0].payload, flight[..half + tail.len()]);
            assert_eq!(outs[1].direction, closer);
            assert!(outs[1].flags.fin && outs[1].payload.is_empty());
            if closer == Direction::ToClient {
                assert_eq!(outs[1].seq, outs[0].seq_end());
            }
            assert!(table.is_empty(), "closed flows are forgotten");
            assert_eq!(table.stats().statuses_injected, 0);
        }
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
                flight.extend(sent(server.feed(T0 + 2, &out.payload)).unwrap().concat());
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
