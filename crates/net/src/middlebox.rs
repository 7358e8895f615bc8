//! The middlebox abstraction: in-path nodes that inspect, modify, or
//! passively forward TCP segments.
//!
//! The Revocation Agent's interception lane (`ritm-agent`'s `FlowTable`)
//! is a [`Middlebox`]; wrapping it in a [`MiddleboxNode`] puts it on a
//! simulated path. Non-RITM traffic must pass through untouched — the paper's
//! backward-compatibility requirement (§VII-F, "RAs are completely
//! non-invasive for non-supported clients").

use crate::sim::{Context, NetNode};
use crate::tcp::TcpSegment;
use crate::time::{SimDuration, SimTime};

/// Pure middlebox logic: consumes a segment, returns the segments to emit.
pub trait Middlebox {
    /// Processes one in-flight segment. The returned segments are forwarded
    /// along the path in their own direction; returning the input unchanged
    /// makes the middlebox transparent; returning an empty vector drops the
    /// segment.
    fn process(&mut self, segment: TcpSegment, now: SimTime) -> Vec<TcpSegment>;

    /// Per-segment processing delay to charge in the simulation (e.g. the
    /// DPI + proof-construction costs of Table III).
    fn processing_delay(&self, _segment: &TcpSegment) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Adapts a [`Middlebox`] into a simulator [`NetNode`].
pub struct MiddleboxNode<M: Middlebox> {
    inner: M,
}

impl<M: Middlebox> MiddleboxNode<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        MiddleboxNode { inner }
    }

    /// Borrows the wrapped middlebox.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutably borrows the wrapped middlebox.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }
}

impl<M: Middlebox> NetNode for MiddleboxNode<M> {
    fn on_segment(&mut self, segment: TcpSegment, ctx: &mut Context) {
        let delay = self.inner.processing_delay(&segment);
        for out in self.inner.process(segment, ctx.now) {
            ctx.send_after(out, delay);
        }
    }
}

/// A fully transparent middlebox (control case: path without an RA).
#[derive(Debug, Default, Clone, Copy)]
pub struct Passthrough;

impl Middlebox for Passthrough {
    fn process(&mut self, segment: TcpSegment, _now: SimTime) -> Vec<TcpSegment> {
        vec![segment]
    }
}

/// A middlebox that drops every segment matching a predicate — used to model
/// the blocking adversary of §V.
pub struct Dropper<F> {
    predicate: F,
    /// Number of segments dropped so far.
    pub dropped: u64,
}

impl<F: FnMut(&TcpSegment) -> bool> Dropper<F> {
    /// Drops segments for which `predicate` returns `true`.
    pub fn new(predicate: F) -> Self {
        Dropper {
            predicate,
            dropped: 0,
        }
    }
}

impl<F: FnMut(&TcpSegment) -> bool> Middlebox for Dropper<F> {
    fn process(&mut self, segment: TcpSegment, _now: SimTime) -> Vec<TcpSegment> {
        if (self.predicate)(&segment) {
            self.dropped += 1;
            Vec::new()
        } else {
            vec![segment]
        }
    }
}

impl<M: Middlebox> Middlebox for std::rc::Rc<std::cell::RefCell<M>> {
    fn process(&mut self, segment: TcpSegment, now: SimTime) -> Vec<TcpSegment> {
        self.borrow_mut().process(segment, now)
    }
    fn processing_delay(&self, segment: &TcpSegment) -> SimDuration {
        self.borrow().processing_delay(segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Path, Simulator};
    use crate::tcp::{Addr, Direction, FourTuple, SocketAddr};

    fn tuple() -> FourTuple {
        FourTuple {
            client: SocketAddr::new(1, 5000),
            server: SocketAddr::new(2, 443),
        }
    }

    struct Sink;
    impl NetNode for Sink {
        fn on_segment(&mut self, _s: TcpSegment, _ctx: &mut Context) {}
    }

    #[test]
    fn passthrough_forwards_unchanged() {
        let mut sim = Simulator::new();
        let c = sim.add_node(Box::new(Sink));
        let mb = sim.add_node(Box::new(MiddleboxNode::new(Passthrough)));
        let s = sim.add_node(Box::new(Sink));
        sim.add_path(
            Addr(1),
            Addr(2),
            Path::new(vec![c, mb, s], vec![SimDuration::from_millis(1); 2]),
        );
        sim.enable_trace();
        let seg = TcpSegment::data(tuple(), Direction::ToServer, 9, 0, vec![42]);
        sim.inject(c, seg.clone());
        sim.run_to_quiescence();
        assert_eq!(sim.trace().len(), 2);
        assert_eq!(sim.trace()[1].segment, seg, "payload untouched");
    }

    #[test]
    fn dropper_blocks_matching_segments() {
        let mut sim = Simulator::new();
        let c = sim.add_node(Box::new(Sink));
        let mb = sim.add_node(Box::new(MiddleboxNode::new(Dropper::new(
            |s: &TcpSegment| s.payload.first() == Some(&0xBB),
        ))));
        let s = sim.add_node(Box::new(Sink));
        sim.add_path(
            Addr(1),
            Addr(2),
            Path::new(vec![c, mb, s], vec![SimDuration::from_millis(1); 2]),
        );
        sim.enable_trace();
        sim.inject(
            c,
            TcpSegment::data(tuple(), Direction::ToServer, 0, 0, vec![0xAA]),
        );
        sim.inject(
            c,
            TcpSegment::data(tuple(), Direction::ToServer, 1, 0, vec![0xBB]),
        );
        sim.run_to_quiescence();
        // 0xAA reaches the server (2 deliveries); 0xBB dies at the middlebox
        // (1 delivery).
        assert_eq!(sim.trace().len(), 3);
        assert_eq!(sim.trace().iter().filter(|t| t.to == s).count(), 1);
    }

    #[test]
    fn processing_delay_is_charged() {
        struct Slow;
        impl Middlebox for Slow {
            fn process(&mut self, seg: TcpSegment, _now: SimTime) -> Vec<TcpSegment> {
                vec![seg]
            }
            fn processing_delay(&self, _s: &TcpSegment) -> SimDuration {
                SimDuration::from_millis(7)
            }
        }
        let mut sim = Simulator::new();
        let c = sim.add_node(Box::new(Sink));
        let mb = sim.add_node(Box::new(MiddleboxNode::new(Slow)));
        let s = sim.add_node(Box::new(Sink));
        sim.add_path(
            Addr(1),
            Addr(2),
            Path::new(vec![c, mb, s], vec![SimDuration::from_millis(1); 2]),
        );
        sim.enable_trace();
        sim.inject(
            c,
            TcpSegment::data(tuple(), Direction::ToServer, 0, 0, vec![1]),
        );
        sim.run_to_quiescence();
        // 1 ms to mb, +7 ms processing, +1 ms to server = 9 ms.
        assert_eq!(sim.trace().last().unwrap().at.as_micros(), 9_000);
    }
}
