//! Spans recorded from outside the program under test.
//!
//! Every span is opened and closed in this crate, around a call into one
//! of the repository's public functions; nothing inside the repository is
//! instrumented. Spans live in one pre-sized vector and are written to
//! `benchmark/out/trace-<workload>.json` after the run.
//!
//! The generator thread opens and closes its spans in stack order, so they
//! nest by construction. Spans recorded on the server's runtime threads
//! (by `TracedService`) cannot know the client span that caused them; they
//! are adopted afterwards by the innermost generator span whose interval
//! contains their start — unambiguous, because the single generator thread
//! has at most one operation outstanding at any instant.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent index of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept per traced run. An operation that would not fit is run with
/// recording paused, so every recorded operation is complete.
pub const SPAN_CAPACITY: usize = 400_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the trace, or [`NO_PARENT`].
    pub parent: u32,
    /// Flight / handshake / round index on generator spans; the v2
    /// `request_id` on server spans.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span sink. A disabled tracer makes every call a no-op, so the
/// workloads are written once and run traced or untraced.
pub struct Tracer {
    enabled: bool,
    /// Cleared while an operation that would overflow the sink runs.
    recording: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: AtomicBool::new(enabled),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Call before an operation that records up to `spans` spans: pauses
    /// recording for it when the sink could not hold them all.
    pub fn reserve(&self, spans: usize) {
        if self.enabled {
            let room = SPAN_CAPACITY - self.lock().len();
            self.recording.store(room >= spans, Ordering::Relaxed);
        }
    }

    /// Opens a span on the generator thread; close it with [`Self::close`].
    pub fn open(&self, name: &'static str, op_id: u64, parent: u32) -> u32 {
        if !self.recording.load(Ordering::Relaxed) {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op_id,
        });
        (spans.len() - 1) as u32
    }

    pub fn close(&self, idx: u32) {
        if idx != NO_PARENT {
            let end_ns = self.now_ns();
            self.lock()[idx as usize].end_ns = end_ns;
        }
    }

    /// Times `f` on a thread that does not know its causing span; the span
    /// is adopted by [`resolve_parents`] afterwards.
    pub fn orphan<T>(&self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        if !self.recording.load(Ordering::Relaxed) {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.lock().push(Span {
            name,
            start_ns,
            end_ns,
            parent: NO_PARENT,
            op_id,
        });
        out
    }

    /// Takes the recorded spans, parents resolved.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.lock());
        resolve_parents(&mut spans);
        spans
    }
}

/// Names of the spans recorded by [`Tracer::orphan`] (server side).
fn is_orphan_kind(name: &str) -> bool {
    name.ends_with(".serve")
}

/// Gives every server-side span the innermost generator span containing
/// its start as parent.
pub fn resolve_parents(spans: &mut [Span]) {
    // Generator spans in start order (they were pushed in start order, but
    // server spans are interleaved between them).
    let generator: Vec<u32> = (0..spans.len() as u32)
        .filter(|i| !is_orphan_kind(spans[*i as usize].name))
        .collect();
    for i in 0..spans.len() {
        if !is_orphan_kind(spans[i].name) || spans[i].parent != NO_PARENT {
            continue;
        }
        let t = spans[i].start_ns;
        let at = generator.partition_point(|g| spans[*g as usize].start_ns <= t);
        if at == 0 {
            continue;
        }
        // The latest-started generator span is the deepest candidate; walk
        // up until one is still open at `t`.
        let mut candidate = generator[at - 1];
        while candidate != NO_PARENT {
            let c = &spans[candidate as usize];
            if c.start_ns <= t && t <= c.end_ns {
                break;
            }
            candidate = c.parent;
        }
        spans[i].parent = candidate;
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap each other — 64 requests
/// of one flight are served on two threads at once — so the covered part
/// is the length of the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-operation layer times: for every root span named `root`, the self
/// times of its subtree summed by span name. One inner map per operation.
pub fn per_op_layers(spans: &[Span], root: &str) -> Vec<BTreeMap<&'static str, u64>> {
    let own = self_times(spans);
    // Root of each span, resolved in index order (a parent generator span
    // always precedes its children; adopted server spans may not, so walk).
    let root_of = |mut i: u32| -> u32 {
        while spans[i as usize].parent != NO_PARENT {
            i = spans[i as usize].parent;
        }
        i
    };
    let mut ops: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let r = root_of(i as u32);
        if spans[r as usize].name == root {
            *ops.entry(r).or_default().entry(s.name).or_default() += own[i];
        }
    }
    ops.into_values().collect()
}

/// Writes the trace as a JSON array of spans.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            parent,
            s.op_id,
            if i + 1 == spans.len() { "\n" } else { ",\n" }
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            // Two overlapping children cover 10..50, a third 60..70.
            span("a", 10, 40, 0),
            span("b", 30, 50, 0),
            span("c", 60, 70, 0),
            // A grandchild only reduces its own parent.
            span("d", 62, 66, 3),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 6, 4]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("op", 10, 20, NO_PARENT), span("late", 15, 40, 0)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn server_spans_are_adopted_by_the_innermost_containing_span() {
        let mut spans = vec![
            span("flight", 0, 100, NO_PARENT),
            span("transport", 10, 90, 0),
            span("agent.serve", 20, 30, NO_PARENT),
            span("flight", 200, 300, NO_PARENT),
            span("agent.serve", 250, 260, NO_PARENT),
            // Started after `transport` closed but inside `flight`.
            span("agent.serve", 95, 99, NO_PARENT),
            // Outside every generator span: stays an orphan.
            span("agent.serve", 150, 160, NO_PARENT),
        ];
        resolve_parents(&mut spans);
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, NO_PARENT, 3, 0, NO_PARENT]);
    }

    #[test]
    fn per_op_layers_group_self_time_by_span_name() {
        let mut spans = vec![
            span("flight", 0, 100, NO_PARENT),
            span("agent.serve", 20, 30, NO_PARENT),
            span("agent.serve", 25, 45, NO_PARENT),
            span("round", 200, 260, NO_PARENT),
        ];
        resolve_parents(&mut spans);
        let ops = per_op_layers(&spans, "flight");
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0]["agent.serve"], 30);
        // The two serves overlap for 5 ns: their self times add up to more
        // wall time than they cover, as CPU time on two threads does.
        assert_eq!(ops[0]["flight"], 75);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let idx = t.open("x", 0, NO_PARENT);
        t.close(idx);
        t.orphan("y.serve", 1, || ());
        assert!(t.finish().is_empty());
    }

    #[test]
    fn an_operation_that_does_not_fit_is_not_recorded() {
        let t = Tracer::new(true);
        t.reserve(SPAN_CAPACITY + 1);
        assert_eq!(t.open("x", 0, NO_PARENT), NO_PARENT);
        t.reserve(2);
        let idx = t.open("x", 0, NO_PARENT);
        t.close(idx);
        assert_eq!(idx, 0);
        assert_eq!(t.finish().len(), 1);
    }
}
