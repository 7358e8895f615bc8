//! A deterministic discrete-event network simulator.
//!
//! Nodes exchange [`TcpSegment`]s along configured paths. Every hop has a
//! latency; middleboxes sit *on* the path and decide per segment whether to
//! forward, modify, or absorb it — exactly the vantage point an RA occupies
//! in the paper (Fig. 1). Determinism: events at equal times fire in
//! insertion order, and all randomness comes from caller-provided RNGs.

use crate::tcp::{Addr, Direction, TcpSegment};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Index of a node registered with the simulator.
pub type NodeId = usize;

/// What a node asks the simulator to do after handling an event.
#[derive(Debug)]
pub enum Action {
    /// Send a segment onward along its connection's path (the simulator
    /// picks the next hop from this node's position and direction).
    Send {
        /// Segment to transmit.
        segment: TcpSegment,
        /// Extra delay before the segment leaves this node (models
        /// processing time, e.g. proof construction).
        delay: SimDuration,
    },
    /// Arm a timer that calls back into this node.
    Timer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Opaque id returned to the node.
        timer_id: u64,
    },
}

/// Handed to nodes during callbacks; collects their actions.
#[derive(Debug)]
pub struct Context {
    /// Current simulated time.
    pub now: SimTime,
    /// The node being called.
    pub node: NodeId,
    actions: Vec<Action>,
}

impl Context {
    /// Forwards `segment` along its path (next hop chosen by direction).
    pub fn send(&mut self, segment: TcpSegment) {
        self.actions.push(Action::Send {
            segment,
            delay: SimDuration::ZERO,
        });
    }

    /// Forwards `segment` after a processing delay.
    pub fn send_after(&mut self, segment: TcpSegment, delay: SimDuration) {
        self.actions.push(Action::Send { segment, delay });
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, delay: SimDuration, timer_id: u64) {
        self.actions.push(Action::Timer { delay, timer_id });
    }
}

/// A participant in the simulation.
pub trait NetNode {
    /// Called when a segment is delivered to this node.
    fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context);

    /// Called when a timer armed by this node fires.
    fn on_timer(&mut self, _timer_id: u64, _ctx: &mut Context) {}
}

/// The ordered chain of nodes a connection traverses, client first.
#[derive(Debug, Clone)]
pub struct Path {
    /// Node ids, `[client, …middleboxes…, server]`.
    pub nodes: Vec<NodeId>,
    /// Latency of each hop; `hop_latency.len() == nodes.len() - 1`.
    pub hop_latency: Vec<SimDuration>,
}

impl Path {
    /// Creates a path, validating shape.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes.len() >= 2` and latencies match hops.
    pub fn new(nodes: Vec<NodeId>, hop_latency: Vec<SimDuration>) -> Self {
        assert!(nodes.len() >= 2, "a path needs two endpoints");
        assert_eq!(hop_latency.len(), nodes.len() - 1, "one latency per hop");
        Path { nodes, hop_latency }
    }

    fn position_of(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver { to: NodeId, segment: TcpSegment },
    Timer { node: NodeId, timer_id: u64 },
}

#[derive(Debug)]
struct QueuedEvent {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One recorded delivery, when tracing is enabled.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Delivery time.
    pub at: SimTime,
    /// Receiving node.
    pub to: NodeId,
    /// The delivered segment.
    pub segment: TcpSegment,
}

/// The simulator: nodes, paths, and a time-ordered event queue.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn NetNode>>>,
    /// Paths keyed by (client addr, server addr).
    paths: HashMap<(Addr, Addr), Path>,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    now: SimTime,
    seq: u64,
    trace: Option<Vec<TraceEntry>>,
    /// Count of segment deliveries (for loop detection / stats).
    pub deliveries: u64,
}

impl core::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.nodes.len())
            .field("paths", &self.paths.len())
            .field("queued", &self.queue.len())
            .field("now", &self.now)
            .finish()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            nodes: Vec::new(),
            paths: HashMap::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            trace: None,
            deliveries: 0,
        }
    }

    /// Registers a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn NetNode>) -> NodeId {
        self.nodes.push(Some(node));
        self.nodes.len() - 1
    }

    /// Installs the path for connections between `client_addr` and
    /// `server_addr` (both directions).
    pub fn add_path(&mut self, client_addr: Addr, server_addr: Addr, path: Path) {
        self.paths.insert((client_addr, server_addr), path);
    }

    /// Starts recording every delivery.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The trace so far (empty if tracing was never enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Jumps the clock forward (e.g. to start a run at a Unix-time epoch).
    ///
    /// # Panics
    ///
    /// Panics if events are pending or `t` is in the past.
    pub fn set_now(&mut self, t: SimTime) {
        assert!(
            self.queue.is_empty(),
            "cannot jump time with pending events"
        );
        assert!(t >= self.now, "time must not go backwards");
        self.now = t;
    }

    /// Time of the next pending event.
    fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.at)
    }

    /// Processes every event scheduled at or before `t`, then advances the
    /// clock to exactly `t`. Returns the number of events processed. This is
    /// how harnesses interleave out-of-band work (CA refreshes, RA↔CDN
    /// syncs) with in-flight traffic.
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        let mut processed = 0;
        while self.peek_time().is_some_and(|at| at <= t) {
            processed += self.run(1);
        }
        if t > self.now {
            self.now = t;
        }
        processed
    }

    /// Injects a segment as if `from` had sent it, at the current time.
    ///
    /// # Panics
    ///
    /// Panics if no path exists for the segment's tuple or `from` is not on
    /// it.
    pub fn inject(&mut self, from: NodeId, segment: TcpSegment) {
        self.route(from, segment, SimDuration::ZERO);
    }

    /// Arms a timer for `node` (e.g. to bootstrap periodic behaviour).
    pub fn arm_timer(&mut self, node: NodeId, delay: SimDuration, timer_id: u64) {
        self.push_event(self.now + delay, EventKind::Timer { node, timer_id });
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent { at, seq, kind }));
    }

    fn route(&mut self, from: NodeId, segment: TcpSegment, extra_delay: SimDuration) {
        let key = (segment.tuple.client.addr, segment.tuple.server.addr);
        let path = self
            .paths
            .get(&key)
            .unwrap_or_else(|| panic!("no path for connection {}", segment.tuple));
        let pos = path
            .position_of(from)
            .unwrap_or_else(|| panic!("node {from} is not on the path for {}", segment.tuple));
        let (next, latency) = match segment.direction {
            Direction::ToServer => {
                assert!(
                    pos + 1 < path.nodes.len(),
                    "server cannot send toward itself"
                );
                (path.nodes[pos + 1], path.hop_latency[pos])
            }
            Direction::ToClient => {
                assert!(pos > 0, "client cannot send toward itself");
                (path.nodes[pos - 1], path.hop_latency[pos - 1])
            }
        };
        let at = self.now + extra_delay + latency;
        self.push_event(at, EventKind::Deliver { to: next, segment });
    }

    /// Runs until the queue drains or `max_events` fire. Returns the number
    /// of events processed.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events {
            let Some(Reverse(ev)) = self.queue.pop() else {
                break;
            };
            self.now = ev.at;
            processed += 1;
            match ev.kind {
                EventKind::Deliver { to, segment } => {
                    self.deliveries += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.push(TraceEntry {
                            at: ev.at,
                            to,
                            segment: segment.clone(),
                        });
                    }
                    self.dispatch(to, |node, ctx| node.on_segment(segment, ctx));
                }
                EventKind::Timer { node, timer_id } => {
                    self.dispatch(node, |n, ctx| n.on_timer(timer_id, ctx));
                }
            }
        }
        processed
    }

    /// Runs until the queue is empty (bounded by a large safety cap).
    ///
    /// # Panics
    ///
    /// Panics if the cap of 10 million events is hit — almost certainly a
    /// routing loop.
    pub fn run_to_quiescence(&mut self) -> u64 {
        const CAP: u64 = 10_000_000;
        let n = self.run(CAP);
        assert!(
            self.queue.is_empty() || n < CAP,
            "simulation did not quiesce within {CAP} events"
        );
        n
    }

    fn dispatch<F>(&mut self, node_id: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn NetNode>, &mut Context),
    {
        let mut node = self.nodes[node_id]
            .take()
            .unwrap_or_else(|| panic!("node {node_id} re-entered"));
        let mut ctx = Context {
            now: self.now,
            node: node_id,
            actions: Vec::new(),
        };
        f(&mut node, &mut ctx);
        self.nodes[node_id] = Some(node);
        for action in ctx.actions {
            match action {
                Action::Send { segment, delay } => self.route(node_id, segment, delay),
                Action::Timer { delay, timer_id } => {
                    self.push_event(
                        self.now + delay,
                        EventKind::Timer {
                            node: node_id,
                            timer_id,
                        },
                    );
                }
            }
        }
    }

    /// Borrows a node back out of the simulator (for post-run inspection).
    ///
    /// # Panics
    ///
    /// Panics if the id is invalid.
    pub fn node(&self, id: NodeId) -> &dyn NetNode {
        self.nodes[id].as_deref().expect("node present")
    }
}

impl<N: NetNode> NetNode for std::rc::Rc<std::cell::RefCell<N>> {
    fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
        self.borrow_mut().on_segment(segment, ctx);
    }
    fn on_timer(&mut self, timer_id: u64, ctx: &mut Context) {
        self.borrow_mut().on_timer(timer_id, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{FourTuple, SocketAddr};

    fn tuple() -> FourTuple {
        FourTuple {
            client: SocketAddr::new(1, 1000),
            server: SocketAddr::new(2, 443),
        }
    }

    /// Echoes every received segment back toward its origin.
    struct Echo {
        received: Vec<TcpSegment>,
    }

    impl NetNode for Echo {
        fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
            self.received.push(segment.clone());
            if segment.direction == Direction::ToServer {
                let mut reply = segment;
                reply.direction = Direction::ToClient;
                ctx.send(reply);
            }
        }
    }

    /// Counts deliveries; forwards everything unchanged.
    struct Forwarder {
        seen: usize,
    }

    impl NetNode for Forwarder {
        fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
            self.seen += 1;
            ctx.send(segment);
        }
    }

    /// Collects segments without replying.
    struct Sink {
        received: Vec<(SimTime, TcpSegment)>,
    }

    impl NetNode for Sink {
        fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
            self.received.push((ctx.now, segment));
        }
    }

    #[test]
    fn two_node_round_trip_latency() {
        let mut sim = Simulator::new();
        let client = sim.add_node(Box::new(Sink { received: vec![] }));
        let server = sim.add_node(Box::new(Echo { received: vec![] }));
        sim.add_path(
            Addr(1),
            Addr(2),
            Path::new(vec![client, server], vec![SimDuration::from_millis(30)]),
        );
        let seg = TcpSegment::data(tuple(), Direction::ToServer, 0, 0, b"hello".to_vec());
        sim.inject(client, seg);
        sim.run_to_quiescence();

        let sink = sim.nodes[client].as_ref().unwrap();
        let _ = sink;
        // Downcast via trace instead: check times.
        let mut sim2 = Simulator::new();
        let c2 = sim2.add_node(Box::new(Sink { received: vec![] }));
        let s2 = sim2.add_node(Box::new(Echo { received: vec![] }));
        sim2.add_path(
            Addr(1),
            Addr(2),
            Path::new(vec![c2, s2], vec![SimDuration::from_millis(30)]),
        );
        sim2.enable_trace();
        sim2.inject(
            c2,
            TcpSegment::data(tuple(), Direction::ToServer, 0, 0, b"hi".to_vec()),
        );
        sim2.run_to_quiescence();
        let trace = sim2.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].at, SimTime(30_000), "one-way 30 ms");
        assert_eq!(trace[1].at, SimTime(60_000), "round trip 60 ms");
        assert_eq!(trace[1].to, c2);
    }

    #[test]
    fn middlebox_sees_both_directions() {
        let mut sim = Simulator::new();
        let client = sim.add_node(Box::new(Sink { received: vec![] }));
        let mb = sim.add_node(Box::new(Forwarder { seen: 0 }));
        let server = sim.add_node(Box::new(Echo { received: vec![] }));
        sim.add_path(
            Addr(1),
            Addr(2),
            Path::new(
                vec![client, mb, server],
                vec![SimDuration::from_millis(5), SimDuration::from_millis(10)],
            ),
        );
        sim.enable_trace();
        sim.inject(
            client,
            TcpSegment::data(tuple(), Direction::ToServer, 0, 0, vec![1]),
        );
        sim.run_to_quiescence();
        // client→mb→server, then server→mb→client: 4 deliveries total.
        assert_eq!(sim.deliveries, 4);
        // Final delivery back at the client at 2*(5+10) ms.
        assert_eq!(sim.trace().last().unwrap().at, SimTime(30_000));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<(u64, SimTime)>,
        }
        impl NetNode for TimerNode {
            fn on_segment(&mut self, _s: TcpSegment, _ctx: &mut Context) {}
            fn on_timer(&mut self, timer_id: u64, ctx: &mut Context) {
                self.fired.push((timer_id, ctx.now));
                if timer_id < 3 {
                    ctx.set_timer(SimDuration::from_secs(1), timer_id + 1);
                }
            }
        }
        let mut sim = Simulator::new();
        let n = sim.add_node(Box::new(TimerNode { fired: vec![] }));
        sim.arm_timer(n, SimDuration::from_secs(1), 1);
        sim.run_to_quiescence();
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn equal_time_events_fifo() {
        let mut sim = Simulator::new();
        let sink = sim.add_node(Box::new(Sink { received: vec![] }));
        let src = sim.add_node(Box::new(Sink { received: vec![] }));
        sim.add_path(
            Addr(1),
            Addr(2),
            Path::new(vec![sink, src], vec![SimDuration::from_millis(1)]),
        );
        sim.enable_trace();
        for i in 0..5u8 {
            let seg = TcpSegment::data(tuple(), Direction::ToServer, i as u64, 0, vec![i]);
            sim.inject(sink, seg);
        }
        sim.run_to_quiescence();
        let payloads: Vec<u8> = sim.trace().iter().map(|t| t.segment.payload[0]).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4], "FIFO at equal timestamps");
    }

    #[test]
    #[should_panic(expected = "no path")]
    fn missing_path_panics() {
        let mut sim = Simulator::new();
        let a = sim.add_node(Box::new(Sink { received: vec![] }));
        sim.inject(
            a,
            TcpSegment::data(tuple(), Direction::ToServer, 0, 0, vec![]),
        );
    }

    #[test]
    #[should_panic(expected = "one latency per hop")]
    fn malformed_path_panics() {
        Path::new(vec![0, 1, 2], vec![SimDuration::ZERO]);
    }
}
