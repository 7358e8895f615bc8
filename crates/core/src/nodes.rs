//! Simulator-node adapters for the TLS endpoints.
//!
//! These wrap [`RitmClient`] and [`ServerEngine`] as
//! [`NetNode`]s so full RITM connections run over the packet-level network
//! simulator with an RA middlebox in between.

use ritm_client::{RitmClient, RitmEvent};
use ritm_net::sim::{Context, NetNode};
use ritm_net::tcp::{Direction, FourTuple, TcpSegment};
use ritm_net::time::SimDuration;
use ritm_tls::connection::TlsError;
use ritm_tls::engine::ServerEngine;
use ritm_tls::record::TlsRecord;

/// Timer id used by the client's periodic staleness check.
pub const CLIENT_TICK_TIMER: u64 = 1;
/// Base timer id for server scheduled sends; timer `SERVER_SEND_BASE + k`
/// sends the k-th scheduled payload.
pub const SERVER_SEND_BASE: u64 = 1_000;

/// The client endpoint node.
pub struct ClientNode {
    /// The wrapped RITM client (readable after the run).
    pub client: RitmClient,
    tuple: FourTuple,
    sent_bytes: u64,
    recv_bytes: u64,
    /// Every event the client emitted, with its time (seconds).
    pub events: Vec<(u64, RitmEvent)>,
    /// First TLS error, if any.
    pub error: Option<TlsError>,
    /// When (seconds) a TCP reset tore the connection down, if one did.
    pub reset_at: Option<u64>,
    /// Period of the staleness tick (0 disables re-arming).
    pub tick_period: SimDuration,
    /// Ticks left before the node stops re-arming (bounds the simulation).
    pub remaining_ticks: u32,
}

impl ClientNode {
    /// Wraps `client` for connection `tuple`.
    pub fn new(client: RitmClient, tuple: FourTuple) -> Self {
        ClientNode {
            client,
            tuple,
            sent_bytes: 0,
            recv_bytes: 0,
            events: Vec::new(),
            error: None,
            reset_at: None,
            tick_period: SimDuration::from_secs(1),
            remaining_ticks: 600,
        }
    }

    /// Builds the opening segment (ClientHello). Inject it via
    /// [`ritm_net::Simulator::inject`] to start the connection.
    pub fn start_segment(&mut self) -> TcpSegment {
        let rec = self.client.start();
        self.segment_for(rec)
    }

    fn segment_for(&mut self, rec: TlsRecord) -> TcpSegment {
        let bytes = rec.to_bytes();
        let seg = TcpSegment::data(
            self.tuple,
            Direction::ToServer,
            self.sent_bytes,
            self.recv_bytes,
            bytes,
        );
        self.sent_bytes = seg.seq_end();
        seg
    }

    fn emit(&mut self, records: Vec<TlsRecord>, ctx: &mut Context) {
        for rec in records {
            let seg = self.segment_for(rec);
            ctx.send(seg);
        }
    }
}

impl NetNode for ClientNode {
    fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
        if self.error.is_some() {
            return;
        }
        let now = ctx.now.as_secs();
        if segment.flags.rst {
            self.reset_at = Some(now);
            self.error = Some(TlsError::Closed);
            return;
        }
        self.recv_bytes = self.recv_bytes.max(segment.seq_end());
        let Ok(records) = TlsRecord::parse_stream(&segment.payload) else {
            return;
        };
        for rec in records {
            match self.client.process_record(&rec, now) {
                Ok((outs, evs)) => {
                    self.events.extend(evs.into_iter().map(|e| (now, e)));
                    self.emit(outs, ctx);
                }
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
    }

    fn on_timer(&mut self, timer_id: u64, ctx: &mut Context) {
        if timer_id != CLIENT_TICK_TIMER || self.error.is_some() {
            return;
        }
        let now = ctx.now.as_secs();
        if let Some((alert, ev)) = self.client.tick(now) {
            self.events.push((now, ev));
            let seg = self.segment_for(alert);
            ctx.send(seg);
            return; // connection over; stop ticking
        }
        if self.tick_period > SimDuration::ZERO && self.remaining_ticks > 0 {
            self.remaining_ticks -= 1;
            ctx.set_timer(self.tick_period, CLIENT_TICK_TIMER);
        }
    }
}

/// The server endpoint node.
pub struct ServerNode {
    /// The wrapped TLS server connection.
    pub conn: ServerEngine,
    tuple: FourTuple,
    sent_bytes: u64,
    recv_bytes: u64,
    /// Application payloads scheduled via timers (`SERVER_SEND_BASE + k`).
    pub scheduled: Vec<Vec<u8>>,
    /// Application data received from the client.
    pub received: Vec<Vec<u8>>,
    /// First TLS error, if any (a client abort shows up here).
    pub error: Option<TlsError>,
}

impl ServerNode {
    /// Wraps `conn` for connection `tuple`.
    pub fn new(conn: ServerEngine, tuple: FourTuple) -> Self {
        ServerNode {
            conn,
            tuple,
            sent_bytes: 0,
            recv_bytes: 0,
            scheduled: Vec::new(),
            received: Vec::new(),
            error: None,
        }
    }

    /// Registers payload `k` for later transmission by timer
    /// `SERVER_SEND_BASE + k` (arm via `Simulator::arm_timer`). Returns `k`.
    pub fn schedule_payload(&mut self, data: Vec<u8>) -> u64 {
        self.scheduled.push(data);
        self.scheduled.len() as u64 - 1
    }

    fn segment_for(&mut self, rec: TlsRecord) -> TcpSegment {
        let bytes = rec.to_bytes();
        let seg = TcpSegment::data(
            self.tuple,
            Direction::ToClient,
            self.sent_bytes,
            self.recv_bytes,
            bytes,
        );
        self.sent_bytes = seg.seq_end();
        seg
    }
}

impl NetNode for ServerNode {
    fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
        if self.error.is_some() {
            return;
        }
        self.recv_bytes = self.recv_bytes.max(segment.seq_end());
        let now = ctx.now.as_secs();
        let Ok(records) = TlsRecord::parse_stream(&segment.payload) else {
            return;
        };
        for rec in records {
            match self.conn.process_record(&rec, now) {
                Ok((outs, evs)) => {
                    for ev in evs {
                        if let ritm_tls::connection::ServerEvent::ReceivedData(d) = ev {
                            self.received.push(d);
                        }
                    }
                    for out in outs {
                        let seg = self.segment_for(out);
                        ctx.send(seg);
                    }
                }
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
    }

    fn on_timer(&mut self, timer_id: u64, ctx: &mut Context) {
        if self.error.is_some() || timer_id < SERVER_SEND_BASE {
            return;
        }
        let k = (timer_id - SERVER_SEND_BASE) as usize;
        let Some(data) = self.scheduled.get(k).cloned() else {
            return;
        };
        if let Ok(rec) = self.conn.send_data(&data) {
            let seg = self.segment_for(rec);
            ctx.send(seg);
        }
    }
}
