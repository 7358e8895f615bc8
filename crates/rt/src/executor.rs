//! A small executor: 1–2 worker threads, real wakers, reactor ticks.
//!
//! Tasks are `async` blocks boxed behind an [`std::task::Wake`]-based
//! waker. The run queue is a mutex-protected deque with a condvar; when
//! the queue is empty but tasks are parked on I/O, workers wait with a
//! timeout and wake every parked task on expiry — the reactor's
//! level-triggered readiness tick rides the executor's idle path, so the
//! whole runtime costs exactly the configured worker threads and nothing
//! more. The wait timeout is the reactor's *adaptive* sweep interval
//! (see [`crate::reactor`]): sub-millisecond while woken tasks make
//! progress, decaying toward ~50ms across consecutive no-progress sweeps.
//!
//! One executor is also one **shared runtime**: any number of servers can
//! spawn their accept loops and connections onto the same [`Handle`]
//! ([`Runtime`] is the intent-revealing alias), so an RA, a CA, and a CDN
//! edge together still cost at most [`MAX_WORKERS`] OS threads.

use crate::reactor::{Reactor, DEFAULT_POLL_INTERVAL};
use std::collections::VecDeque;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on worker threads. The event-driven stack's contract is that
/// concurrency comes from multiplexing, not threads; two workers keep one
/// free to run service logic while the other ticks the reactor.
pub const MAX_WORKERS: usize = 2;

/// Intent-revealing alias for an [`Executor`] used as one process-wide
/// runtime shared by several listeners (RA + CA + edge on one
/// reactor/executor pair).
pub type Runtime = Executor;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

struct Task {
    /// `Some` while the task is live; taken to `None` on completion (or a
    /// panicked poll). The mutex also serializes polls of one task across
    /// workers.
    future: Mutex<Option<BoxFuture>>,
    /// Whether the task is already in the run queue (collapses redundant
    /// wakes into one queue entry).
    queued: AtomicBool,
    shared: Arc<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            let shared = Arc::clone(&self.shared);
            shared.enqueue(self);
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Task>>>,
    available: Condvar,
    reactor: Arc<Reactor>,
    /// Live (spawned, not yet completed) tasks.
    live: AtomicUsize,
    shutdown: AtomicBool,
    /// Worker threads this executor was started with.
    worker_count: usize,
}

impl Shared {
    fn enqueue(&self, task: Arc<Task>) {
        self.queue.lock().expect("run queue lock").push_back(task);
        self.available.notify_one();
    }
}

/// A cloneable handle for spawning tasks and reaching the reactor —
/// what long-lived tasks (e.g. an accept loop) capture to spawn more.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// Spawns `future` onto the executor. Tasks spawned after
    /// [`Executor::shutdown`] began are still run to completion — shutdown
    /// drains, it does not abort.
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) {
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            queued: AtomicBool::new(true),
            shared: Arc::clone(&self.shared),
        });
        self.shared.enqueue(task);
    }

    /// The reactor tasks park their wakers in (see [`crate::io`]).
    pub fn reactor(&self) -> Arc<Reactor> {
        Arc::clone(&self.shared.reactor)
    }

    /// Worker threads backing this handle's executor — what a server
    /// spawned onto a shared runtime reports as its thread budget.
    pub fn thread_count(&self) -> usize {
        self.shared.worker_count
    }
}

/// The executor: owns the worker threads.
pub struct Executor {
    handle: Handle,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Starts an executor with `threads` workers, clamped to
    /// `1..=`[`MAX_WORKERS`], using the default readiness tick.
    pub fn new(threads: usize) -> Self {
        let worker_count = threads.clamp(1, MAX_WORKERS);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            reactor: Arc::new(Reactor::new()),
            live: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            worker_count,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker(&shared))
            })
            .collect();
        Executor {
            handle: Handle { shared },
            workers,
        }
    }

    /// The spawning handle.
    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// Worker thread count.
    pub fn thread_count(&self) -> usize {
        self.workers.len()
    }

    /// Drains and stops: waits until every live task has completed, then
    /// joins the workers. Tasks parked on I/O keep receiving readiness
    /// ticks throughout, so a task that exits when its `closing` flag is
    /// set (the [`IoPoll::Ready`](crate::IoPoll::Ready) path) observes the
    /// flag within one tick. A task that never completes makes this hang —
    /// the caller owns its tasks' termination condition.
    pub fn shutdown(self) {
        let shared = &self.handle.shared;
        {
            // Set under the queue lock: a worker checks the flag and starts
            // its untimed wait while holding that lock, so it either sees
            // the flag or is already waiting when the notify below fires.
            let _queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        shared.available.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// What a worker decided to do after draining or waiting on the queue.
enum Step {
    Run(Arc<Task>),
    /// Run a readiness tick; carries the interval the worker waited
    /// (fed back into the reactor's sweep accounting).
    Sweep(Duration),
}

fn worker(shared: &Arc<Shared>) {
    // Reused across sweeps: this buffer and the reactor's park list swap
    // roles each tick, so an idle-but-parked runtime allocates nothing.
    let mut sweep_buf: Vec<Waker> = Vec::new();
    loop {
        let step: Step = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(t) = queue.pop_front() {
                    break Step::Run(t);
                }
                if shared.shutdown.load(Ordering::SeqCst) && shared.live.load(Ordering::SeqCst) == 0
                {
                    return;
                }
                if shared.reactor.waiters() > 0 || shared.shutdown.load(Ordering::SeqCst) {
                    // Timed wait: on expiry run a readiness tick (and
                    // re-observe shutdown promptly). The wait adapts:
                    // consecutive no-progress sweeps stretch it toward
                    // MAX_POLL_INTERVAL; any readiness hit or new park
                    // snaps it back to `DEFAULT_POLL_INTERVAL`.
                    let interval = shared.reactor.sweep_interval(DEFAULT_POLL_INTERVAL);
                    let (guard, _timeout) = shared
                        .available
                        .wait_timeout(queue, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    queue = guard;
                    if queue.is_empty() && shared.reactor.waiters() > 0 {
                        break Step::Sweep(interval);
                    }
                } else {
                    queue = shared
                        .available
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        match step {
            Step::Run(task) => run_task(shared, task),
            Step::Sweep(interval) => {
                // One level-triggered tick: every parked task re-attempts
                // its syscall. Wakers re-enqueue through the normal path;
                // a woken task that finds its socket ready (or a task
                // parking for the first time) calls `note_activity`, which
                // resets the streak `note_sweep` is lengthening here.
                shared.reactor.note_sweep(interval);
                shared.reactor.take_parked_into(&mut sweep_buf);
                for waker in sweep_buf.drain(..) {
                    waker.wake();
                }
            }
        }
    }
}

fn run_task(shared: &Arc<Shared>, task: Arc<Task>) {
    // Clear `queued` before polling so a wake arriving mid-poll re-queues
    // the task rather than being lost.
    task.queued.store(false, Ordering::Release);
    let mut slot = task.future.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(future) = slot.as_mut() else {
        return; // completed by an earlier queue entry
    };
    let waker = Waker::from(Arc::clone(&task));
    let mut cx = Context::from_waker(&waker);
    // A panicking task must cost only itself, not the worker: catch the
    // unwind and retire the task. The guard outlives the catch, so the
    // slot mutex is never poisoned by the panic.
    let polled = std::panic::catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
    match polled {
        Ok(Poll::Pending) => {}
        Ok(Poll::Ready(())) | Err(_) => {
            *slot = None;
            drop(slot);
            shared.live.fetch_sub(1, Ordering::SeqCst);
            // A draining shutdown may be waiting on live == 0.
            shared.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn spawned_tasks_run_and_shutdown_drains() {
        let exec = Executor::new(2);
        assert_eq!(exec.thread_count(), 2);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            exec.handle().spawn(async move {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        exec.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn thread_budget_is_capped() {
        let exec = Executor::new(64);
        assert_eq!(exec.thread_count(), MAX_WORKERS);
        exec.shutdown();
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let exec = Executor::new(1);
        let ran = Arc::new(AtomicU32::new(0));
        exec.handle().spawn(async {
            panic!("task boom");
        });
        {
            let ran = Arc::clone(&ran);
            exec.handle().spawn(async move {
                ran.store(1, Ordering::SeqCst);
            });
        }
        exec.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handle_reports_the_shared_runtime_thread_budget() {
        let exec = Executor::new(2);
        assert_eq!(exec.handle().thread_count(), 2);
        let single = Executor::new(1);
        assert_eq!(single.handle().thread_count(), 1);
        exec.shutdown();
        single.shutdown();
    }

    #[test]
    fn idle_parked_task_backs_off_the_tick_and_activity_snaps_back() {
        let exec = Executor::new(1);
        let reactor = exec.handle().reactor();
        let stop = Arc::new(AtomicBool::new(false));
        {
            let reactor = Arc::clone(&reactor);
            let stop = Arc::clone(&stop);
            exec.handle().spawn(async move {
                crate::io(&reactor, move || {
                    if stop.load(Ordering::SeqCst) {
                        crate::IoPoll::Ready(())
                    } else {
                        crate::IoPoll::WouldBlock
                    }
                })
                .await;
            });
        }
        // Long enough for the streak to climb 500µs → 50ms and take a few
        // fully-backed-off sweeps.
        std::thread::sleep(Duration::from_millis(400));
        let stats = reactor.stats();
        assert!(
            stats.backoff_sweeps > 0,
            "idle decay never reached the cap: {stats:?}"
        );
        assert!(
            stats.last_interval_micros >= 10_000,
            "idle sweeps still sub-10ms: {stats:?}"
        );
        // A genuinely idle runtime must sweep ~20×/s, not ~2000×/s.
        assert!(
            stats.sweeps < 100,
            "an idle runtime swept {} times in 400ms",
            stats.sweeps
        );
        stop.store(true, Ordering::SeqCst);
        exec.shutdown();
        // The readiness hit on the parked task counts as activity.
        assert!(reactor.stats().activity_marks >= 2);
    }

    #[test]
    fn a_yielded_task_runs_after_the_tasks_queued_before_it() {
        let exec = Executor::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        {
            // Spawned from inside the executor, so the queue is exactly
            // [yielder, b, c] before any of them runs.
            let handle = exec.handle();
            let order = Arc::clone(&order);
            exec.handle().spawn(async move {
                let o = Arc::clone(&order);
                handle.spawn(async move {
                    o.lock().unwrap().push("yielder before");
                    crate::yield_now().await;
                    o.lock().unwrap().push("yielder after");
                });
                for name in ["b", "c"] {
                    let o = Arc::clone(&order);
                    handle.spawn(async move { o.lock().unwrap().push(name) });
                }
            });
        }
        exec.shutdown();
        assert_eq!(
            *order.lock().unwrap(),
            ["yielder before", "b", "c", "yielder after"]
        );
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let exec = Executor::new(2);
        let counter = Arc::new(AtomicU32::new(0));
        {
            let handle = exec.handle();
            let counter = Arc::clone(&counter);
            exec.handle().spawn(async move {
                for _ in 0..4 {
                    let counter = Arc::clone(&counter);
                    handle.spawn(async move {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        exec.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn shutdown_wakes_workers_that_just_went_idle() {
        // A worker that has seen `shutdown` unset but not yet begun its
        // untimed wait must still be woken by the shutdown's notify. Each
        // round shuts a fresh executor down while its workers start, the
        // moment that race is likeliest; a helper thread runs the rounds so
        // a lost wakeup fails here instead of hanging the test.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..2_000 {
                Executor::new(2).shutdown();
            }
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("an idle executor's shutdown hung");
    }
}
