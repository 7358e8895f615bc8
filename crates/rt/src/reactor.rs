//! Waker parking for not-ready non-blocking sockets.
//!
//! `std` has no selector, so the reactor does not *watch* file descriptors
//! — it schedules re-attempts. A task whose non-blocking syscall returned
//! `WouldBlock` parks its waker here; the executor's idle loop calls
//! [`Reactor::take_parked_into`] every poll tick and wakes everything,
//! which re-enqueues the tasks to re-attempt their syscalls. Tasks that
//! are still not ready park again: level-triggered readiness by
//! re-polling.
//!
//! # Adaptive idle backoff
//!
//! A fixed sub-millisecond tick costs ~4k failed syscalls per second per
//! parked task whenever *anything* is parked — even a fleet of completely
//! idle connections. The reactor therefore tracks a **no-progress streak**:
//! every sweep that produces neither a readiness hit nor a newly-parked
//! task doubles the suggested tick interval ([`Reactor::sweep_interval`]),
//! decaying from the executor's base (default 250µs) toward
//! [`MAX_POLL_INTERVAL`] (50ms, reached after 8 doublings). Any sign of
//! life — [`Reactor::note_activity`], called on a readiness hit or a *new*
//! park — snaps the interval back to the base, so a loaded runtime still
//! sees sub-millisecond latency while an idle one performs ~20 sweeps per
//! second instead of ~4000. The trade: the first byte after a long idle
//! period can wait up to one backed-off tick (~50ms) before being noticed.
//!
//! A sweep is one executor's deadline falling due, not a worker waking:
//! the executor keeps one deadline for all its workers, and a notify that
//! wakes a worker early is never counted as a tick (see
//! [`crate::executor`]).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::task::Waker;
use std::time::Duration;

/// Default interval between readiness ticks while any task is parked and
/// the runtime is making progress. Small enough that a ready socket waits
/// sub-millisecond.
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_micros(250);

/// Ceiling the tick interval decays toward while every parked task stays
/// not-ready: an idle runtime sweeps ~20 times per second, total, no
/// matter how many connections are parked.
pub const MAX_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Cap on the doubling exponent (2^10 × any sane base is far past
/// [`MAX_POLL_INTERVAL`]); keeps the shift well-defined forever.
const MAX_IDLE_SHIFT: u32 = 10;

/// A point-in-time snapshot of the reactor's sweep accounting — what the
/// idle-CPU acceptance tests assert against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorStats {
    /// Level-triggered tick sweeps performed so far.
    pub sweeps: u64,
    /// Sweeps performed while the interval was fully backed off (at
    /// [`MAX_POLL_INTERVAL`]) — nonzero means the idle decay engaged.
    pub backoff_sweeps: u64,
    /// Times the streak was reset by a readiness hit or a new park.
    pub activity_marks: u64,
    /// Consecutive no-progress sweeps since the last activity mark.
    pub idle_streak: u32,
    /// The interval (µs) the most recent sweep waited for.
    pub last_interval_micros: u64,
    /// Currently parked tasks.
    pub parked: usize,
}

/// The parking lot for not-ready I/O tasks.
#[derive(Debug, Default)]
pub struct Reactor {
    parked: Mutex<Vec<Waker>>,
    /// Consecutive sweeps with no readiness progress and no new parks.
    idle_streak: AtomicU32,
    sweeps: AtomicU64,
    backoff_sweeps: AtomicU64,
    activity_marks: AtomicU64,
    last_interval_micros: AtomicU64,
}

impl Reactor {
    /// A reactor with no parked tasks.
    pub fn new() -> Self {
        Reactor::default()
    }

    /// Parks `waker` until the next readiness tick. No dedup: waking one
    /// task twice is harmless (the executor's per-task `queued` flag
    /// collapses redundant wakes into one queue entry), and a scan here
    /// would make every tick O(parked²) under the lock.
    pub fn park(&self, waker: &Waker) {
        self.parked
            .lock()
            .expect("reactor parked lock")
            .push(waker.clone());
    }

    /// Number of currently parked tasks (the executor's cue to run timed
    /// waits instead of sleeping indefinitely).
    pub fn waiters(&self) -> usize {
        self.parked.lock().expect("reactor parked lock").len()
    }

    /// Records a sign of life — a syscall that found the socket ready
    /// after having parked, or a task parking for the *first* time — and
    /// snaps the adaptive tick back to the base interval so the new work
    /// is serviced at sub-millisecond latency.
    pub fn note_activity(&self) {
        self.idle_streak.store(0, Ordering::Relaxed);
        self.activity_marks.fetch_add(1, Ordering::Relaxed);
    }

    /// The interval the next idle sweep should wait, given the executor's
    /// configured `base` tick: `base × 2^streak`, capped at
    /// [`MAX_POLL_INTERVAL`] (but never below `base` — an executor
    /// configured *slower* than the cap keeps its explicit interval).
    pub fn sweep_interval(&self, base: Duration) -> Duration {
        let streak = self.idle_streak.load(Ordering::Relaxed).min(MAX_IDLE_SHIFT);
        let scaled = base.saturating_mul(1u32 << streak);
        scaled.min(MAX_POLL_INTERVAL).max(base)
    }

    /// Records one performed sweep that waited `interval`: bumps the
    /// sweep counters and lengthens the no-progress streak (the streak is
    /// reset out-of-band by [`Reactor::note_activity`] when a woken task
    /// makes progress).
    pub fn note_sweep(&self, interval: Duration) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.last_interval_micros
            .store(interval.as_micros() as u64, Ordering::Relaxed);
        if interval >= MAX_POLL_INTERVAL {
            self.backoff_sweeps.fetch_add(1, Ordering::Relaxed);
        }
        let _ = self
            .idle_streak
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(1).min(MAX_IDLE_SHIFT))
            });
    }

    /// A snapshot of the sweep accounting.
    pub fn stats(&self) -> ReactorStats {
        ReactorStats {
            sweeps: self.sweeps.load(Ordering::Relaxed),
            backoff_sweeps: self.backoff_sweeps.load(Ordering::Relaxed),
            activity_marks: self.activity_marks.load(Ordering::Relaxed),
            idle_streak: self.idle_streak.load(Ordering::Relaxed),
            last_interval_micros: self.last_interval_micros.load(Ordering::Relaxed),
            parked: self.waiters(),
        }
    }

    /// Drains every parked waker into `buf` (which must be empty) — the
    /// caller wakes them *outside* any executor lock, then reuses the same
    /// buffer for the next tick. The buffers swap roles each sweep, so an
    /// idle-but-parked runtime makes **zero allocations per sweep** once
    /// both have grown to the fleet size.
    pub fn take_parked_into(&self, buf: &mut Vec<Waker>) {
        debug_assert!(buf.is_empty(), "sweep buffer must be drained before reuse");
        std::mem::swap(&mut *self.parked.lock().expect("reactor parked lock"), buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::Wake;

    struct Counter(std::sync::atomic::AtomicU32);

    impl Wake for Counter {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn ticks_drain_every_parked_waker() {
        let reactor = Reactor::new();
        let counter = Arc::new(Counter(std::sync::atomic::AtomicU32::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        reactor.park(&waker);
        reactor.park(&waker); // double park = double wake; the executor's
                              // queued flag absorbs it
        assert_eq!(reactor.waiters(), 2);
        let mut parked = Vec::new();
        reactor.take_parked_into(&mut parked);
        for w in parked {
            w.wake();
        }
        assert_eq!(counter.0.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert_eq!(reactor.waiters(), 0);
    }

    #[test]
    fn sweep_buffer_is_reused_without_reallocating() {
        let reactor = Reactor::new();
        let counter = Arc::new(Counter(std::sync::atomic::AtomicU32::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        let mut buf: Vec<Waker> = Vec::new();
        // Warm both sides of the swap to the fleet size...
        for _ in 0..2 {
            for _ in 0..16 {
                reactor.park(&waker);
            }
            reactor.take_parked_into(&mut buf);
            for w in buf.drain(..) {
                w.wake();
            }
        }
        // ...then steady-state sweeps must keep the warmed capacity: the
        // swap hands the previous sweep's buffer back as the park target.
        for _ in 0..8 {
            for _ in 0..16 {
                reactor.park(&waker);
            }
            reactor.take_parked_into(&mut buf);
            assert!(buf.capacity() >= 16);
            for w in buf.drain(..) {
                w.wake();
            }
        }
        assert_eq!(counter.0.load(std::sync::atomic::Ordering::SeqCst), 160);
    }

    #[test]
    fn idle_streak_decays_interval_and_activity_snaps_back() {
        let reactor = Reactor::new();
        let base = DEFAULT_POLL_INTERVAL;
        assert_eq!(reactor.sweep_interval(base), base);
        // No-progress sweeps double the interval up to the cap...
        for _ in 0..20 {
            reactor.note_sweep(reactor.sweep_interval(base));
        }
        assert_eq!(reactor.sweep_interval(base), MAX_POLL_INTERVAL);
        let stats = reactor.stats();
        assert_eq!(stats.sweeps, 20);
        assert!(stats.backoff_sweeps > 0, "cap must have been reached");
        // ...and any activity snaps straight back to the base.
        reactor.note_activity();
        assert_eq!(reactor.sweep_interval(base), base);
        assert_eq!(reactor.stats().idle_streak, 0);
        assert_eq!(reactor.stats().activity_marks, 1);
    }

    #[test]
    fn explicitly_slow_base_interval_is_never_shortened() {
        let reactor = Reactor::new();
        let slow = Duration::from_millis(200);
        for _ in 0..5 {
            reactor.note_sweep(slow);
        }
        // The cap applies to the *decay*, not to an operator-chosen base.
        assert_eq!(reactor.sweep_interval(slow), slow);
    }
}
