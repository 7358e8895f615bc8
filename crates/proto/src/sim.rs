//! Carrying protocol frames through the `ritm-net` simulator.
//!
//! [`ServiceNode`] wraps any [`Service`] as a simulator [`NetNode`]: each
//! client→server [`TcpSegment`] payload is one encoded request frame, and
//! the node replies with one response-frame segment after charging the
//! service's reported latency. [`SimTransport`] then drives a private
//! simulation per round trip, so the existing latency and middlebox
//! machinery (drops, extra hops, RA-style in-path boxes) applies unchanged
//! to real protocol traffic — the same frames, byte for byte, that the
//! loopback and socket transports move.

use crate::error::TransportError;
use crate::message::{split_frame, RitmRequest, RitmResponse};
use crate::service::Service;
use crate::transport::{RoundTrip, Transport, TransportMeta};
use ritm_net::sim::{Context, NetNode, Path, Simulator};
use ritm_net::tcp::{Addr, Direction, FourTuple, SocketAddr, TcpSegment};
use ritm_net::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Adapts a [`Service`] into a simulator node: one request frame per
/// inbound segment, one response frame per outbound segment.
pub struct ServiceNode<S> {
    service: S,
    /// Frames served so far.
    pub served: u64,
}

impl<S: Service> ServiceNode<S> {
    /// Wraps `service`.
    pub fn new(service: S) -> Self {
        ServiceNode { service, served: 0 }
    }

    /// The wrapped service.
    pub fn service(&self) -> &S {
        &self.service
    }
}

impl<S: Service> NetNode for ServiceNode<S> {
    fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
        if segment.direction != Direction::ToServer {
            return; // not addressed to this endpoint
        }
        self.served += 1;
        let resp_frame = self.service.handle_frame(&segment.payload);
        let reply = TcpSegment::data(
            segment.tuple,
            Direction::ToClient,
            segment.ack,
            segment.seq_end(),
            resp_frame,
        );
        // Charge the service's own processing/backend latency on the wire,
        // exactly like a middlebox charges its processing delay.
        ctx.send_after(reply, self.service.take_latency());
    }
}

/// Shared inbox collecting the segments delivered back to the client side.
type Inbox = Rc<RefCell<Vec<(SimTime, TcpSegment)>>>;

struct ClientSink {
    inbox: Inbox,
}

impl NetNode for ClientSink {
    fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
        self.inbox.borrow_mut().push((ctx.now, segment));
    }
}

const CLIENT_ADDR: u32 = 0x0a00_0001;
const SERVER_ADDR: u32 = 0x0a00_0002;

/// A [`Transport`] that moves every frame through a deterministic
/// `ritm-net` simulation: client node, optional middleboxes, service node.
/// Each round trip injects one segment, runs the event queue to
/// quiescence, and reports the *simulated* elapsed time as latency.
pub struct SimTransport {
    sim: Simulator,
    client: ritm_net::sim::NodeId,
    tuple: FourTuple,
    inbox: Inbox,
    seq_up: u64,
    seq_down: u64,
}

impl SimTransport {
    /// Builds a two-node simulation (client ↔ service) with one hop of
    /// `hop_latency` each way.
    pub fn new<S: Service + 'static>(service: S, hop_latency: SimDuration) -> Self {
        Self::with_middleboxes(service, Vec::new(), vec![hop_latency])
    }

    /// Builds a simulation with `middleboxes` sitting in path order between
    /// the client and the service; `hop_latency` must have one entry per
    /// hop (`middleboxes.len() + 1`).
    ///
    /// # Panics
    ///
    /// Panics when the latency count does not match the hop count.
    pub fn with_middleboxes<S: Service + 'static>(
        service: S,
        middleboxes: Vec<Box<dyn NetNode>>,
        hop_latency: Vec<SimDuration>,
    ) -> Self {
        assert_eq!(
            hop_latency.len(),
            middleboxes.len() + 1,
            "one latency per hop"
        );
        let mut sim = Simulator::new();
        let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
        let client = sim.add_node(Box::new(ClientSink {
            inbox: Rc::clone(&inbox),
        }));
        let mut nodes = vec![client];
        for mb in middleboxes {
            nodes.push(sim.add_node(mb));
        }
        nodes.push(sim.add_node(Box::new(ServiceNode::new(service))));
        sim.add_path(
            Addr(CLIENT_ADDR),
            Addr(SERVER_ADDR),
            Path::new(nodes, hop_latency),
        );
        SimTransport {
            sim,
            client,
            tuple: FourTuple {
                client: SocketAddr::new(CLIENT_ADDR, 40_001),
                server: SocketAddr::new(SERVER_ADDR, 443),
            },
            inbox,
            seq_up: 0,
            seq_down: 0,
        }
    }

    /// Advances the simulation clock (e.g. to align with an experiment's
    /// wall time). No-op when `t` is not ahead of the current clock.
    pub fn set_now(&mut self, t: SimTime) {
        if t > self.sim.now() {
            self.sim.set_now(t);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

impl Transport for SimTransport {
    fn round_trip(&mut self, req: &RitmRequest) -> Result<RoundTrip, TransportError> {
        let frame = req.to_frame();
        let request_bytes = frame.len() as u64;
        let seg = TcpSegment::data(
            self.tuple,
            Direction::ToServer,
            self.seq_up,
            self.seq_down,
            frame,
        );
        self.seq_up = seg.seq_end();
        let start = self.sim.now();
        // Drop any leftover deliveries from earlier round trips (e.g. a
        // duplicating middlebox): a stale segment must never be returned
        // as this request's reply.
        self.inbox.borrow_mut().clear();
        self.sim.inject(self.client, seg);
        self.sim.run_to_quiescence();
        // First delivery wins; later ones (duplicates) are discarded at
        // the start of the next round trip.
        let (arrived_at, reply) = {
            let mut inbox = self.inbox.borrow_mut();
            if inbox.is_empty() {
                return Err(TransportError::NoResponse);
            }
            inbox.remove(0)
        };
        self.seq_down = reply.seq_end();
        let (body, _) = split_frame(&reply.payload)?;
        let response = RitmResponse::decode_body(body)?;
        Ok(RoundTrip {
            response,
            meta: TransportMeta {
                request_bytes,
                response_bytes: reply.payload.len() as u64,
                latency: arrived_at.since(start),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtoError;
    use ritm_dictionary::CaId;

    struct Fixed;

    impl Service for Fixed {
        fn handle(&self, _req: RitmRequest) -> RitmResponse {
            RitmResponse::Error(ProtoError::NotFound)
        }

        fn take_latency(&self) -> SimDuration {
            SimDuration::from_millis(5)
        }
    }

    #[test]
    fn frames_ride_segments_and_latency_is_simulated() {
        let mut t = SimTransport::new(Fixed, SimDuration::from_millis(10));
        let req = RitmRequest::FetchFreshness {
            ca: CaId::from_name("SimCA"),
        };
        let rt = t.round_trip(&req).unwrap();
        assert_eq!(rt.response, RitmResponse::Error(ProtoError::NotFound));
        // 10 ms out + 5 ms service + 10 ms back.
        assert_eq!(rt.meta.latency, SimDuration::from_millis(25));
        assert_eq!(rt.meta.request_bytes as usize, req.to_frame().len());
    }

    #[test]
    fn a_dropping_middlebox_surfaces_as_no_response() {
        use ritm_net::middlebox::{Dropper, MiddleboxNode};
        let dropper = MiddleboxNode::new(Dropper::new(|_: &TcpSegment| true));
        let mut t = SimTransport::with_middleboxes(
            Fixed,
            vec![Box::new(dropper)],
            vec![SimDuration::from_millis(1); 2],
        );
        let req = RitmRequest::FetchDelta {
            ca: CaId::from_name("SimCA"),
        };
        match t.round_trip(&req) {
            Err(TransportError::NoResponse) => {}
            other => panic!("expected NoResponse, got {other:?}"),
        }
    }
}
