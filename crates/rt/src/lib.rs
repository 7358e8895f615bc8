//! # ritm-rt — a std-only readiness-based runtime
//!
//! The paper's middlebox/CDN deployment only pays off if one edge or RA
//! process can hold open connections from very many clients at once, which
//! a thread per connection cannot. This crate provides the event-driven
//! runtime the serving stack (`ritm-proto`'s `EventServer`) is built on,
//! using nothing outside `std` (the build environment has no crates.io
//! access, so `mio`/`tokio` are not options):
//!
//! * [`Reactor`] — readiness scheduling for `set_nonblocking` `std::net`
//!   sockets. `std` exposes no selector (`epoll`/`kqueue`), so readiness is
//!   discovered the only portable way: *attempt the non-blocking syscall*.
//!   A task whose I/O returns [`std::io::ErrorKind::WouldBlock`] parks its
//!   waker in the reactor; the executor's idle path periodically wakes all
//!   parked wakers (a level-triggered poll tick), each woken task
//!   re-attempts its syscall, and tasks that are still not ready simply
//!   park again. No readiness is ever *stored*, so no edge can be lost —
//!   the cost is one failed syscall per parked task per tick. A tick is
//!   the executor's **one sweep deadline** falling due, shared by its
//!   workers; a notify that wakes a worker is never a tick. The tick is
//!   **adaptive**: [`DEFAULT_POLL_INTERVAL`] (250µs) while woken tasks make
//!   progress, decaying toward [`MAX_POLL_INTERVAL`] (50ms) across
//!   consecutive no-progress sweeps, so a fleet of idle connections costs
//!   ~20 sweeps per second instead of ~4000 (see [`reactor`]).
//! * [`Executor`] / [`Handle`] — a small single- or dual-thread task
//!   executor with real [`std::task::Waker`]s (via [`std::task::Wake`]),
//!   so ordinary `async fn` connection handlers run unchanged. The thread
//!   budget is capped at 2: the point of the event-driven stack is that
//!   *connections* do not cost threads. One executor doubles as a shared
//!   [`Runtime`]: several servers (RA + CA + edge) spawn onto the same
//!   reactor/executor pair and together still cost ≤2 OS threads.
//! * [`codec::FrameReader`] / [`codec::FrameWriter`] — incremental codecs
//!   for the `u32 len ‖ body` envelope framing: decoding resumes across
//!   arbitrarily-split partial reads and encoding resumes across short
//!   writes, so one in-flight frame never blocks an OS thread; a burst of
//!   frames costs one read and one vectored write.
//! * [`io`] — the adapter between the two: wraps a `WouldBlock`-signalling
//!   closure as a future that parks in the reactor; [`yield_now`] lets
//!   every task already in the run queue go first.
//! * [`net`] — async `accept` / `read_some` / `write_all` over
//!   non-blocking `std::net` sockets, built on [`io`]; what `ritm-tls`
//!   uses to drive handshake engines as tasks.
//!
//! The crate is deliberately protocol-agnostic (it knows frame *lengths*,
//! not RITM envelopes); `ritm-proto` builds its `EventServer` and
//! pipelined `EventTransport` on top.

pub mod codec;
pub mod executor;
pub mod net;
pub mod pool;
pub mod reactor;

pub use codec::{FrameRead, FrameReader, FrameWrite, FrameWriter};
pub use executor::{Executor, Handle, Runtime};
pub use pool::BufPool;
pub use reactor::{Reactor, ReactorStats, DEFAULT_POLL_INTERVAL, MAX_POLL_INTERVAL};

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

/// One attempt at a non-blocking operation: either it completed with `T`,
/// or the underlying syscall said [`std::io::ErrorKind::WouldBlock`].
/// I/O *errors* are a completion (`Ready(Err(..))` in the typical usage),
/// not a reason to park.
#[derive(Debug)]
pub enum IoPoll<T> {
    /// The operation completed (successfully or with a terminal error the
    /// caller folded into `T`).
    Ready(T),
    /// The socket was not ready; park until the next readiness tick.
    WouldBlock,
}

/// Future returned by [`io`]: re-attempts `op` on every poll and parks in
/// the reactor while the socket is not ready.
pub struct IoFuture<F> {
    reactor: Arc<Reactor>,
    op: F,
    /// Whether this future has parked at least once — distinguishes a
    /// *new* park (activity: snap the adaptive tick back) from a woken
    /// task re-parking because its socket is still not ready (the
    /// no-progress case the idle backoff exists for).
    parked: bool,
}

impl<T, F> Future for IoFuture<F>
where
    F: FnMut() -> IoPoll<T> + Unpin,
{
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        match (this.op)() {
            IoPoll::Ready(v) => {
                if this.parked {
                    // A readiness hit on a previously-parked task: real
                    // progress — keep the tick sub-millisecond.
                    this.reactor.note_activity();
                }
                Poll::Ready(v)
            }
            IoPoll::WouldBlock => {
                if !this.parked {
                    // First park = new I/O work arrived; snap the adaptive
                    // tick back so it is serviced promptly.
                    this.parked = true;
                    this.reactor.note_activity();
                }
                // Level-triggered: re-register on every miss. A tick that
                // fires between the failed syscall and this park is not a
                // lost wakeup — the next tick re-polls every parked task.
                this.reactor.park(cx.waker());
                Poll::Pending
            }
        }
    }
}

/// Adapts a non-blocking attempt into a future: `op` runs on every poll;
/// [`IoPoll::WouldBlock`] parks the task in `reactor` until the next
/// readiness tick.
pub fn io<T, F>(reactor: &Arc<Reactor>, op: F) -> IoFuture<F>
where
    F: FnMut() -> IoPoll<T> + Unpin,
{
    IoFuture {
        reactor: Arc::clone(reactor),
        op,
        parked: false,
    }
}

/// Yields once: the task goes back to the tail of the run queue, so every
/// task queued before it runs first.
pub async fn yield_now() {
    let mut yielded = false;
    std::future::poll_fn(|cx| {
        if std::mem::replace(&mut yielded, true) {
            return Poll::Ready(());
        }
        // The executor clears a task's queued flag before polling it, so
        // this wake puts the task at the tail of the run queue.
        cx.waker().wake_by_ref();
        Poll::Pending
    })
    .await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    #[test]
    fn io_future_parks_until_ready() {
        let exec = Executor::new(1);
        let attempts = Arc::new(AtomicU32::new(0));
        let done = Arc::new(AtomicU32::new(0));
        {
            let reactor = exec.handle().reactor();
            let attempts = Arc::clone(&attempts);
            let done = Arc::clone(&done);
            exec.handle().spawn(async move {
                let v = io(&reactor, || {
                    // Not ready for the first few polls: the reactor's tick
                    // must keep re-offering readiness.
                    if attempts.fetch_add(1, Ordering::SeqCst) < 3 {
                        IoPoll::WouldBlock
                    } else {
                        IoPoll::Ready(7u32)
                    }
                })
                .await;
                done.store(v, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 7);
        assert!(attempts.load(Ordering::SeqCst) >= 4);
        exec.shutdown();
    }
}
