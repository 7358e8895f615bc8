//! Event-driven serving over real OS sockets: many connections, ≤2 threads.
//!
//! [`EventServer`] is the crate's socket server: instead of one OS thread
//! per connection, every connection is a small task on a [`ritm_rt`]
//! executor. Sockets are `set_nonblocking`; partial frames are resumed by
//! [`ritm_rt::FrameReader`] / [`ritm_rt::FrameWriter`]; a task whose socket
//! is not ready parks in the reactor and costs nothing but its buffers.
//! Several servers can share one runtime ([`EventServer::spawn_on`]): an
//! RA, a CA, and a CDN edge together still run on at most
//! [`ritm_rt::executor::MAX_WORKERS`] (= 2) OS threads, which is what lets
//! one edge or RA process hold open connections from very many clients at
//! once (the paper's middlebox/CDN deployment model, §VI).
//!
//! # Out-of-order completion (envelope v2)
//!
//! A **v2** frame spawns its own handler task: replies are written back
//! tagged with the request's id as each handler finishes, so one slow
//! `Update` page does not head-of-line block the `GetStatus` requests
//! behind it on the same connection. [`EventTransport`] speaks only v2 and
//! correlates replies by id. Every other frame — v1, an unknown version,
//! or a v2 header too short to carry an id — is answered inline and in
//! request order through [`Service::serve_envelope`], the same choke point
//! the in-process transports use, so an unsupported version gets the same
//! typed `UnsupportedVersion` reply bytes on every transport.
//!
//! # Backpressure and keepalive
//!
//! [`EventServerConfig`] bounds what a peer can cost the server:
//! * `max_connections` — the acceptor pauses (parks) while at the cap and
//!   resumes as connections close; the backlog queues in the kernel.
//! * `max_buffered_bytes` — a connection whose peer stops reading while
//!   replies accumulate past the cap is shed (the write queue is the only
//!   per-connection buffer that grows without the peer's cooperation).
//! * `keepalive` — a connection with no in-flight work that sends nothing
//!   for the whole window is dropped with a best-effort typed
//!   [`ProtoError::IdleTimeout`] goodbye.

use crate::error::TransportError;
use crate::message::{
    split_frame, RequestEnvelope, RitmRequest, RitmResponse, MAX_FRAME_LEN, PROTOCOL_V2,
};
use crate::service::Service;
use crate::transport::{RoundTrip, Transport, TransportMeta};
use crate::ProtoError;
use ritm_net::time::SimDuration;
use ritm_rt::{
    io as rt_io, BufPool, Executor, FrameRead, FrameReader, FrameWrite, FrameWriter, IoPoll,
};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Resource bounds for one [`EventServer`].
#[derive(Debug, Clone, Copy)]
pub struct EventServerConfig {
    /// Connections held open at once; the acceptor pauses past this.
    pub max_connections: usize,
    /// Per-connection cap on queued-but-unwritten reply bytes; a peer
    /// that stops reading past it is shed.
    pub max_buffered_bytes: usize,
    /// Idle window after which a connection with nothing in flight is
    /// dropped (`None` = never).
    pub keepalive: Option<Duration>,
}

impl Default for EventServerConfig {
    fn default() -> Self {
        EventServerConfig {
            max_connections: 4096,
            // Two maximal frames: one mid-write, one queued behind it.
            max_buffered_bytes: 2 * MAX_FRAME_LEN,
            keepalive: Some(Duration::from_secs(60)),
        }
    }
}

/// Shared per-server counters.
#[derive(Debug, Default)]
struct ServerStats {
    served: AtomicU64,
    open_conns: AtomicU64,
    peak_conns: AtomicU64,
    keepalive_drops: AtomicU64,
    accept_deferrals: AtomicU64,
}

/// An event-driven server for one [`Service`]: all connections multiplexed
/// onto a ≤2-thread [`ritm_rt`] runtime — its own, or one shared with
/// other servers ([`EventServer::spawn_on`]).
pub struct EventServer {
    addr: SocketAddr,
    handle: ritm_rt::Handle,
    /// `Some` when this server owns its executor; `None` on a shared
    /// runtime (shutdown then drains this server's tasks only).
    runtime: Option<Executor>,
    closing: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    /// This server's live task count (acceptor + connections + handlers)
    /// — what a shared-runtime shutdown drains.
    tasks: Arc<AtomicU64>,
}

impl EventServer {
    /// Binds `127.0.0.1:0` (ephemeral port) and starts serving `service`
    /// on its own runtime of `threads` workers (clamped to `1..=2` —
    /// connections are multiplexed, not threaded), with default bounds.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn spawn(service: Arc<dyn Service>, threads: usize) -> std::io::Result<Self> {
        Self::spawn_with(service, threads, EventServerConfig::default())
    }

    /// [`EventServer::spawn`] with explicit bounds.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn spawn_with(
        service: Arc<dyn Service>,
        threads: usize,
        config: EventServerConfig,
    ) -> std::io::Result<Self> {
        let executor = Executor::new(threads);
        let mut server = Self::spawn_on(service, &executor.handle(), config)?;
        server.runtime = Some(executor);
        Ok(server)
    }

    /// Binds and serves on an existing runtime's handle — how several
    /// endpoints (RA + CA + edge) share one reactor/executor pair. The
    /// caller keeps ownership of the runtime; [`EventServer::shutdown`]
    /// drains only this server's tasks.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn spawn_on(
        service: Arc<dyn Service>,
        handle: &ritm_rt::Handle,
        config: EventServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let closing = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let tasks = Arc::new(AtomicU64::new(0));
        // One buffer pool per server, shared by every connection's reader
        // and writer: request frames and drained reply buffers recycle
        // instead of allocating per round trip.
        let pool = BufPool::default();

        {
            let closing = Arc::clone(&closing);
            let stats = Arc::clone(&stats);
            let tasks = Arc::clone(&tasks);
            let spawner = handle.clone();
            tasks.fetch_add(1, Ordering::SeqCst);
            handle.spawn(async move {
                accept_loop(
                    listener,
                    service,
                    spawner,
                    closing,
                    stats,
                    Arc::clone(&tasks),
                    pool,
                    config,
                )
                .await;
                tasks.fetch_sub(1, Ordering::SeqCst);
            });
        }

        Ok(EventServer {
            addr,
            handle: handle.clone(),
            runtime: None,
            closing,
            stats,
            tasks,
        })
    }

    /// The bound address to hand to [`EventTransport::connect`].
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far, across all connections.
    pub fn served(&self) -> u64 {
        self.stats.served.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> u64 {
        self.stats.open_conns.load(Ordering::Relaxed)
    }

    /// The most connections ever open at once — the multiplexing headroom
    /// the `event-smoke` acceptance asserts (≥64 on 2 threads).
    pub fn peak_connections(&self) -> u64 {
        self.stats.peak_conns.load(Ordering::Relaxed)
    }

    /// Connections dropped for sending nothing within the keepalive
    /// window.
    pub fn keepalive_drops(&self) -> u64 {
        self.stats.keepalive_drops.load(Ordering::Relaxed)
    }

    /// Accept attempts deferred because the server sat at
    /// [`EventServerConfig::max_connections`] (one per readiness tick
    /// while paused).
    pub fn accept_deferrals(&self) -> u64 {
        self.stats.accept_deferrals.load(Ordering::Relaxed)
    }

    /// OS threads the server runs on (acceptor included) — the whole
    /// shared runtime's budget when spawned via [`EventServer::spawn_on`].
    pub fn thread_count(&self) -> usize {
        self.handle.thread_count()
    }

    /// Stops accepting, closes every connection task (each observes the
    /// flag within one readiness tick — an idle client cannot pin
    /// anything), drains this server's tasks, and returns the total
    /// requests served. On an owned runtime the executor is joined; on a
    /// shared runtime only this server's tasks are waited for — the
    /// runtime (and any other servers on it) keeps running. This ends an
    /// experiment; it does not drain in-flight client batches.
    pub fn shutdown(mut self) -> u64 {
        self.closing.store(true, Ordering::SeqCst);
        match self.runtime.take() {
            Some(executor) => executor.shutdown(),
            None => {
                while self.tasks.load(Ordering::SeqCst) > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        self.stats.served.load(Ordering::Relaxed)
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        // An abandoned server on a shared runtime must still wind down:
        // its tasks observe the flag within one tick and exit.
        self.closing.store(true, Ordering::SeqCst);
    }
}

#[allow(clippy::too_many_arguments)]
async fn accept_loop(
    listener: TcpListener,
    service: Arc<dyn Service>,
    handle: ritm_rt::Handle,
    closing: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    tasks: Arc<AtomicU64>,
    pool: BufPool,
    config: EventServerConfig,
) {
    let reactor = handle.reactor();
    loop {
        let accepted = rt_io(&reactor, || {
            if closing.load(Ordering::SeqCst) {
                return IoPoll::Ready(None);
            }
            // Connection-count backpressure: at the cap the acceptor
            // simply parks. The kernel backlog queues (and eventually
            // refuses) the excess; accepting resumes as soon as a
            // connection closes.
            if stats.open_conns.load(Ordering::SeqCst) >= config.max_connections as u64 {
                stats.accept_deferrals.fetch_add(1, Ordering::Relaxed);
                return IoPoll::WouldBlock;
            }
            match listener.accept() {
                Ok((stream, _peer)) => IoPoll::Ready(Some(stream)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => IoPoll::WouldBlock,
                // Transient accept failures (peer reset in the backlog):
                // treated as not-ready, retried next tick.
                Err(_) => IoPoll::WouldBlock,
            }
        })
        .await;
        let Some(stream) = accepted else { return };
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            continue;
        }
        let open = stats.open_conns.fetch_add(1, Ordering::SeqCst) + 1;
        stats.peak_conns.fetch_max(open, Ordering::SeqCst);
        let service = Arc::clone(&service);
        let closing = Arc::clone(&closing);
        let stats = Arc::clone(&stats);
        let reactor = Arc::clone(&reactor);
        let tasks = Arc::clone(&tasks);
        let pool = pool.clone();
        let spawner = handle.clone();
        tasks.fetch_add(1, Ordering::SeqCst);
        handle.spawn(async move {
            serve_connection(
                stream,
                service,
                closing,
                Arc::clone(&stats),
                reactor,
                spawner,
                Arc::clone(&tasks),
                pool,
                config,
            )
            .await;
            stats.open_conns.fetch_sub(1, Ordering::SeqCst);
            tasks.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Per-connection state shared between the read task and the handler
/// tasks it spawns for v2 requests.
struct Conn {
    stream: TcpStream,
    /// The write queue: handler tasks enqueue tagged reply frames and
    /// drive the flush; the mutex is only ever held across non-blocking
    /// calls.
    writer: Mutex<FrameWriter>,
    /// Set on any fatal per-connection condition (write error, overflow
    /// shed, handler panic); every task on the connection observes it
    /// within one tick and exits.
    dead: AtomicBool,
    /// v2 requests decoded but not yet replied — keepalive never fires
    /// while work is in flight.
    inflight: AtomicU64,
}

impl Conn {
    fn lock_writer(&self) -> std::sync::MutexGuard<'_, FrameWriter> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Outcome of one read attempt on a connection.
enum ReadStep {
    Frame(Vec<u8>),
    TimedOut,
    Close,
}

/// One connection's task: read frames and answer them — via a spawned
/// per-request handler task for v2 frames (out-of-order, tagged), inline
/// and in order for every other frame.
#[allow(clippy::too_many_arguments)]
async fn serve_connection(
    stream: TcpStream,
    service: Arc<dyn Service>,
    closing: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    reactor: Arc<ritm_rt::Reactor>,
    handle: ritm_rt::Handle,
    tasks: Arc<AtomicU64>,
    pool: BufPool,
    config: EventServerConfig,
) {
    let conn = Arc::new(Conn {
        stream,
        writer: Mutex::new(FrameWriter::with_pool(pool.clone())),
        dead: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
    });
    let mut reader = FrameReader::with_pool(MAX_FRAME_LEN, pool.clone());
    let mut last_frame = Instant::now();
    loop {
        let step = rt_io(&reactor, || {
            if closing.load(Ordering::SeqCst) || conn.dead.load(Ordering::SeqCst) {
                return IoPoll::Ready(ReadStep::Close);
            }
            match reader.poll_frame(&mut &conn.stream) {
                FrameRead::Frame(f) => IoPoll::Ready(ReadStep::Frame(f)),
                FrameRead::WouldBlock => {
                    if let Some(window) = config.keepalive {
                        if conn.inflight.load(Ordering::SeqCst) != 0 || conn.lock_writer().pending()
                        {
                            // In-flight work and unflushed replies count
                            // as activity: the window measures *silence*,
                            // so a handler slower than the window cannot
                            // leave its connection instantly reapable the
                            // moment it completes.
                            last_frame = Instant::now();
                        } else if last_frame.elapsed() > window {
                            return IoPoll::Ready(ReadStep::TimedOut);
                        }
                    }
                    IoPoll::WouldBlock
                }
                FrameRead::Eof | FrameRead::Err(_) => IoPoll::Ready(ReadStep::Close),
            }
        })
        .await;
        match step {
            ReadStep::Close => break,
            ReadStep::TimedOut => {
                stats.keepalive_drops.fetch_add(1, Ordering::Relaxed);
                // Best-effort typed goodbye: one non-blocking flush
                // attempt; a peer that is not reading just gets the close.
                let goodbye = RitmResponse::Error(ProtoError::IdleTimeout {
                    after_ms: config.keepalive.map_or(0, |w| w.as_millis() as u64),
                })
                .to_frame();
                let mut w = conn.lock_writer();
                w.queue(goodbye);
                let _ = w.poll_write(&mut &conn.stream);
                drop(w);
                conn.kill();
                break;
            }
            ReadStep::Frame(frame) => {
                last_frame = Instant::now();
                let Ok((body, _)) = split_frame(&frame) else {
                    break;
                };
                let env = RequestEnvelope::decode(body);
                // The drained request frame recycles into the pool.
                pool.put(frame);
                if env.reply_version == PROTOCOL_V2 {
                    // v2: out-of-order — each request gets its own handler
                    // task; the reply carries the echoed id, so completion
                    // order is free to differ from arrival order.
                    conn.inflight.fetch_add(1, Ordering::SeqCst);
                    tasks.fetch_add(1, Ordering::SeqCst);
                    let service = Arc::clone(&service);
                    let conn = Arc::clone(&conn);
                    let stats = Arc::clone(&stats);
                    let reactor = Arc::clone(&reactor);
                    let closing = Arc::clone(&closing);
                    let tasks = Arc::clone(&tasks);
                    handle.spawn(async move {
                        handle_v2_request(env, service, &conn, &stats, &reactor, &closing, config)
                            .await;
                        conn.inflight.fetch_sub(1, Ordering::SeqCst);
                        tasks.fetch_sub(1, Ordering::SeqCst);
                    });
                } else {
                    // Every other frame (v1, an unknown version, a v2
                    // header too short for an id): inline and strictly in
                    // order through the service's one choke point, which
                    // answers an unsupported version with a typed v1
                    // `UnsupportedVersion` reply.
                    let Ok(resp) =
                        std::panic::catch_unwind(AssertUnwindSafe(|| service.serve_envelope(env)))
                    else {
                        conn.kill();
                        break;
                    };
                    resp.queue_onto(&mut conn.lock_writer());
                    if drive_flush(&conn, &reactor, &closing).await {
                        stats.served.fetch_add(1, Ordering::Relaxed);
                    } else {
                        break;
                    }
                }
            }
        }
    }
    // Let in-flight v2 handlers finish writing their replies before the
    // connection task retires (a peer may half-close after sending its
    // requests and still read the answers). A dead or closing connection
    // skips the grace.
    rt_io(&reactor, || {
        if closing.load(Ordering::SeqCst) || conn.dead.load(Ordering::SeqCst) {
            return IoPoll::Ready(());
        }
        if conn.inflight.load(Ordering::SeqCst) == 0 && !conn.lock_writer().pending() {
            return IoPoll::Ready(());
        }
        IoPoll::WouldBlock
    })
    .await;
}

/// One v2 request's handler task: serve, enqueue the tagged reply, shed
/// the connection if the write queue overflows, flush otherwise.
async fn handle_v2_request(
    env: RequestEnvelope,
    service: Arc<dyn Service>,
    conn: &Arc<Conn>,
    stats: &ServerStats,
    reactor: &Arc<ritm_rt::Reactor>,
    closing: &Arc<AtomicBool>,
    config: EventServerConfig,
) {
    // A panicking service request costs only its own connection — the
    // executor also guards the worker, but killing the connection here
    // keeps the peer from waiting on a reply that will never come.
    // `serve_envelope` is the cached-response hook: a hot status reply
    // arrives as a shared body and is queued by reference.
    let Ok(reply) = std::panic::catch_unwind(AssertUnwindSafe(|| service.serve_envelope(env)))
    else {
        conn.kill();
        return;
    };
    let overflow = {
        let mut w = conn.lock_writer();
        reply.queue_onto(&mut w);
        w.buffered_bytes() > config.max_buffered_bytes
    };
    if overflow {
        // Write-queue backpressure: the peer is not reading fast enough
        // to be worth buffering for. There is no way to *send* a typed
        // error into a full pipe — shedding the connection is the signal.
        conn.kill();
        return;
    }
    if drive_flush(conn, reactor, closing).await {
        stats.served.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drives the connection's shared write queue until empty. Several tasks
/// may drive concurrently; whoever holds the lock makes progress and a
/// queue another task already drained completes immediately. Returns
/// `false` when the connection died or the server is closing.
async fn drive_flush(
    conn: &Arc<Conn>,
    reactor: &Arc<ritm_rt::Reactor>,
    closing: &Arc<AtomicBool>,
) -> bool {
    rt_io(reactor, || {
        if closing.load(Ordering::SeqCst) || conn.dead.load(Ordering::SeqCst) {
            return IoPoll::Ready(false);
        }
        let mut w = conn.lock_writer();
        match w.poll_write(&mut &conn.stream) {
            FrameWrite::Done => IoPoll::Ready(true),
            FrameWrite::WouldBlock => IoPoll::WouldBlock,
            FrameWrite::Err(_) => {
                drop(w);
                conn.kill();
                IoPoll::Ready(false)
            }
        }
    })
    .await
}

/// How long a client flight may wait without any socket progress before
/// giving up with [`TransportError::NoResponse`].
const CLIENT_DEADLINE: Duration = Duration::from_secs(30);

/// Client-side sleep while the socket is not ready in either direction.
const CLIENT_POLL_INTERVAL: Duration = Duration::from_micros(200);

/// The non-blocking client: one connection, pipelined round trips.
///
/// [`Transport::round_trip`] is a one-request flight; the payoff is
/// [`Transport::round_trip_many`], which keeps every request of a batch
/// in flight at once. The batch is **multiplexed** on envelope v2: each
/// request carries a fresh id and replies are correlated by the echoed
/// id, so they may complete in any order. A reply in any other envelope
/// version (a v1-only server's `UnsupportedVersion`, say) fails the flight
/// with [`TransportError::VersionMismatch`].
///
/// Any transport-level failure (EOF, I/O error, deadline) **poisons the
/// connection**: the stream may be mid-frame, so it must never be reused.
/// The next flight dials the same address afresh ([`Self::reconnect`]);
/// only if that dial fails does the flight fail outright. A server that
/// restarted elsewhere can be followed with [`Self::reconnect_to`].
pub struct EventTransport {
    /// Where the current stream was dialed; reconnects go here.
    addr: SocketAddr,
    stream: TcpStream,
    reader: FrameReader,
    /// Set after any transport-level failure; the stream may hold
    /// misaligned bytes, so it must never be reused.
    broken: bool,
    /// Next request id to assign (wrapping; uniqueness only matters
    /// within one flight, where ids are consecutive).
    next_id: u32,
    /// Recycles the flight scratch buffer and decoded reply frames across
    /// flights; shared with the reader so completed frames come from here
    /// too.
    pool: BufPool,
}

impl EventTransport {
    /// Connects to an [`EventServer`] (or any server speaking envelope
    /// v2).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let pool = BufPool::default();
        Ok(EventTransport {
            addr,
            stream,
            reader: FrameReader::with_pool(MAX_FRAME_LEN, pool.clone()),
            broken: false,
            next_id: 1,
            pool,
        })
    }

    /// Tears down the (possibly poisoned) stream and dials the same
    /// address again: fresh socket, fresh framing state. Runs
    /// automatically at the start of any flight on a broken transport;
    /// call it directly to re-dial eagerly.
    ///
    /// # Errors
    ///
    /// Propagates connect failures; the transport stays broken.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.reconnect_to(self.addr)
    }

    /// Like [`Self::reconnect`], but dials `addr` and remembers it — how
    /// a client follows a server that restarted on a new address.
    ///
    /// # Errors
    ///
    /// Propagates connect failures; the transport stays broken.
    pub fn reconnect_to(&mut self, addr: SocketAddr) -> std::io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        self.addr = addr;
        self.stream = stream;
        self.reader = FrameReader::with_pool(MAX_FRAME_LEN, self.pool.clone());
        self.broken = false;
        Ok(())
    }

    /// Whether a transport-level failure has poisoned this connection.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Bytes of read-buffer capacity this transport currently keeps
    /// resident — bounded by the reader's shrink policy even after a
    /// multi-megabyte frame passed through.
    pub fn reader_resident_capacity(&self) -> usize {
        self.reader.resident_capacity()
    }

    /// Runs one flight: every request tagged with a consecutive id,
    /// replies routed into their slot by the echoed id as they arrive — in
    /// any order.
    fn flight(&mut self, reqs: &[RitmRequest]) -> Vec<Result<RoundTrip, TransportError>> {
        // A poisoned stream is never reused, but a flight boundary is a
        // safe place to dial afresh: nothing of *this* flight has been
        // sent yet. Only an unreachable peer fails the flight outright.
        if self.broken && self.reconnect().is_err() {
            return reqs
                .iter()
                .map(|_| {
                    Err(TransportError::Io(std::io::Error::new(
                        ErrorKind::NotConnected,
                        "transport poisoned and reconnect failed",
                    )))
                })
                .collect();
        }
        let n = reqs.len();
        let base = self.next_id;
        self.next_id = self.next_id.wrapping_add(n as u32);
        // The whole flight encodes into one pooled scratch buffer, queued
        // as a single owned segment: one buffer (recycled across flights
        // once the pool is warm) instead of one allocation per request,
        // and the writer pushes it in one syscall when the socket allows.
        let mut writer = FrameWriter::with_pool(self.pool.clone());
        let mut scratch = self.pool.get();
        let mut request_lens = Vec::with_capacity(n);
        for (i, req) in reqs.iter().enumerate() {
            let before = scratch.len();
            req.to_frame_v2_into(base.wrapping_add(i as u32), &mut scratch);
            request_lens.push((scratch.len() - before) as u64);
        }
        writer.queue(scratch);
        let mut slots: Vec<Option<Result<RoundTrip, TransportError>>> =
            (0..n).map(|_| None).collect();
        let mut received = 0usize;
        let mut failed = false;
        // First unfilled slot gets the specific failure; the rest a
        // generic one (an unattributable stream failure fails the whole
        // flight — there is no id to blame).
        let fail_all = |slots: &mut Vec<Option<Result<RoundTrip, TransportError>>>,
                        first: TransportError| {
            let mut first = Some(first);
            for slot in slots.iter_mut().filter(|s| s.is_none()) {
                *slot = Some(Err(first.take().unwrap_or(TransportError::NoResponse)));
            }
        };
        // The deadline is on socket *progress* (bytes written or a frame
        // arrived), not total flight time: a large flight streaming
        // steadily must never trip it.
        let mut last_progress = Instant::now();
        let mut last_reply = last_progress;
        while received < n {
            let mut progress = false;
            // Keep pushing request frames while the socket accepts them...
            let written_before = writer.written();
            match writer.poll_write(&mut self.stream) {
                FrameWrite::Done | FrameWrite::WouldBlock => {
                    progress |= writer.written() > written_before;
                }
                FrameWrite::Err(e) => {
                    fail_all(&mut slots, TransportError::Io(e));
                    failed = true;
                    break;
                }
            }
            // ...while draining responses, so a server that fills its send
            // buffer before we finish writing can never deadlock us.
            let mut got_frame = false;
            match self.reader.poll_frame(&mut self.stream) {
                FrameRead::Frame(reply) => {
                    progress = true;
                    got_frame = true;
                    received += 1;
                    let now = Instant::now();
                    let latency = SimDuration::from_micros((now - last_reply).as_micros() as u64);
                    last_reply = now;
                    // Only v2 replies carry the id that says which request
                    // they answer.
                    let decoded = split_frame(&reply)
                        .map_err(TransportError::from)
                        .and_then(|(body, _)| RitmResponse::decode_envelope(body))
                        .and_then(|(version, id, response)| match version {
                            PROTOCOL_V2 => Ok((id, response)),
                            got => Err(TransportError::VersionMismatch { got }),
                        });
                    match decoded {
                        Err(TransportError::VersionMismatch { got }) => {
                            // The peer speaks another envelope version, so
                            // no request of this flight gets an answer.
                            for slot in slots.iter_mut().filter(|s| s.is_none()) {
                                *slot = Some(Err(TransportError::VersionMismatch { got }));
                            }
                            failed = true;
                            break;
                        }
                        Err(e) => {
                            fail_all(&mut slots, e);
                            failed = true;
                            break;
                        }
                        Ok((id, response)) => {
                            // Ids are consecutive from `base`, so the slot
                            // index is a subtraction away.
                            let idx = id.wrapping_sub(base) as usize;
                            if idx >= n || slots[idx].is_some() {
                                fail_all(
                                    &mut slots,
                                    TransportError::Io(std::io::Error::new(
                                        ErrorKind::InvalidData,
                                        "reply carries an id this flight never sent",
                                    )),
                                );
                                failed = true;
                                break;
                            }
                            slots[idx] = Some(Ok(RoundTrip {
                                response,
                                meta: TransportMeta {
                                    request_bytes: request_lens[idx],
                                    response_bytes: reply.len() as u64,
                                    latency,
                                },
                            }));
                        }
                    }
                    // The decoded reply buffer goes back to the pool for
                    // the reader to hand out again (failure paths above
                    // break out and simply drop theirs).
                    self.pool.put(reply);
                }
                FrameRead::WouldBlock => {}
                FrameRead::Eof => {
                    fail_all(&mut slots, TransportError::NoResponse);
                    failed = true;
                    break;
                }
                FrameRead::Err(e) => {
                    fail_all(&mut slots, TransportError::Io(e));
                    failed = true;
                    break;
                }
            }
            if progress {
                last_progress = Instant::now();
            }
            if !got_frame && received < n {
                if last_progress.elapsed() > CLIENT_DEADLINE {
                    fail_all(&mut slots, TransportError::NoResponse);
                    failed = true;
                    break;
                }
                if !progress {
                    std::thread::sleep(CLIENT_POLL_INTERVAL);
                }
            }
        }
        if failed {
            // The stream may be mid-frame or hold replies to requests we
            // already failed; poison the transport so no later flight can
            // misattribute them.
            self.broken = true;
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
        slots
            .into_iter()
            .map(|s| s.unwrap_or(Err(TransportError::NoResponse)))
            .collect()
    }
}

impl Transport for EventTransport {
    fn round_trip(&mut self, req: &RitmRequest) -> Result<RoundTrip, TransportError> {
        self.flight(std::slice::from_ref(req))
            .pop()
            .expect("one request yields one result")
    }

    fn round_trip_many(&mut self, reqs: &[RitmRequest]) -> Vec<Result<RoundTrip, TransportError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        self.flight(reqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtoError;
    use ritm_dictionary::CaId;

    struct Nope;

    impl Service for Nope {
        fn handle(&self, _req: RitmRequest) -> RitmResponse {
            RitmResponse::Error(ProtoError::NotFound)
        }
    }

    /// Echoes the manifest request's CA id back as an error (distinguishes
    /// responses, so ordering is observable).
    struct EchoCa;

    impl Service for EchoCa {
        fn handle(&self, req: RitmRequest) -> RitmResponse {
            match req {
                RitmRequest::GetManifest { ca } | RitmRequest::FetchDelta { ca } => {
                    RitmResponse::Error(ProtoError::UnknownCa(ca))
                }
                _ => RitmResponse::Error(ProtoError::Unsupported),
            }
        }
    }

    #[test]
    fn event_server_round_trips_and_shuts_down_cleanly() {
        let server = EventServer::spawn(Arc::new(Nope), 2).unwrap();
        assert!(server.thread_count() <= 2);
        let mut t = EventTransport::connect(server.addr()).unwrap();
        let req = RitmRequest::GetManifest {
            ca: CaId::from_name("EvCA"),
        };
        for _ in 0..3 {
            let rt = t.round_trip(&req).unwrap();
            assert_eq!(rt.response, RitmResponse::Error(ProtoError::NotFound));
            // v2 frames carry 4 extra id bytes over the v1 baseline.
            assert_eq!(rt.meta.request_bytes as usize, req.to_frame().len() + 4);
        }
        drop(t);
        assert_eq!(server.shutdown(), 3);
    }

    #[test]
    fn pipelined_flight_preserves_request_order() {
        let server = EventServer::spawn(Arc::new(EchoCa), 1).unwrap();
        let mut t = EventTransport::connect(server.addr()).unwrap();
        let cas: Vec<CaId> = (0..16)
            .map(|i| CaId::from_name(&format!("PipeCA{i}")))
            .collect();
        let reqs: Vec<RitmRequest> = cas
            .iter()
            .map(|&ca| RitmRequest::GetManifest { ca })
            .collect();
        let results = t.round_trip_many(&reqs);
        assert_eq!(results.len(), 16);
        for (i, r) in results.into_iter().enumerate() {
            let rt = r.expect("pipelined response");
            assert_eq!(
                rt.response,
                RitmResponse::Error(ProtoError::UnknownCa(cas[i])),
                "response {i} misrouted"
            );
            assert_eq!(rt.meta.request_bytes as usize, reqs[i].to_frame_v2(0).len());
        }
        drop(t);
        assert_eq!(server.shutdown(), 16);
    }

    #[test]
    fn shutdown_returns_despite_idle_clients() {
        let server = EventServer::spawn(Arc::new(Nope), 2).unwrap();
        // Idle clients that connect and send nothing: with thread-per-
        // connection these each pinned a worker; here they are parked
        // tasks, and shutdown still returns promptly.
        let idles: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.open_connections(), 8);
        assert_eq!(server.shutdown(), 0);
        drop(idles);
    }

    #[test]
    fn failed_flight_poisons_the_transport() {
        let server = EventServer::spawn(Arc::new(Nope), 1).unwrap();
        let addr = server.addr();
        let mut t = EventTransport::connect(addr).unwrap();
        let req = RitmRequest::FetchDelta {
            ca: CaId::from_name("GoneCA"),
        };
        // Tearing the server down mid-life makes the next flight fail...
        server.shutdown();
        assert!(t.round_trip(&req).is_err());
        assert!(t.is_broken());
        // ...and a poisoned connection is never reused (the stream may be
        // mid-frame): the next flight dials afresh, and with the server
        // gone for good that dial fails too — errors, never misattributed
        // replies.
        let results = t.round_trip_many(std::slice::from_ref(&req));
        assert!(matches!(&results[0], Err(TransportError::Io(_))));
        assert!(t.is_broken());
    }

    #[test]
    fn broken_transport_auto_reconnects_while_the_server_lives() {
        let server = EventServer::spawn(Arc::new(Grenade), 2).unwrap();
        let ca = CaId::from_name("PhoenixCA");
        let mut t = EventTransport::connect(server.addr()).unwrap();
        // The panicking service costs us the connection...
        assert!(t.round_trip(&RitmRequest::GetManifest { ca }).is_err());
        assert!(t.is_broken());
        // ...but the next flight dials the same (living) server afresh.
        let rt = t.round_trip(&RitmRequest::FetchDelta { ca }).unwrap();
        assert_eq!(rt.response, RitmResponse::Error(ProtoError::NotFound));
        assert!(!t.is_broken());
        drop(t);
        server.shutdown();
    }

    #[test]
    fn reconnect_to_follows_a_restarted_server() {
        let server = EventServer::spawn(Arc::new(EchoCa), 1).unwrap();
        let ca = CaId::from_name("MoveCA");
        let req = RitmRequest::GetManifest { ca };
        let mut t = EventTransport::connect(server.addr()).unwrap();
        assert!(t.round_trip(&req).is_ok());
        server.shutdown();
        // The old address is gone: the failing flight and the auto-redial
        // behind the next one both come up empty...
        assert!(t.round_trip(&req).is_err());
        assert!(t.round_trip(&req).is_err());
        // ...but following the restarted server to its new address works.
        let server = EventServer::spawn(Arc::new(EchoCa), 1).unwrap();
        t.reconnect_to(server.addr()).unwrap();
        assert!(!t.is_broken());
        let rt = t.round_trip(&req).unwrap();
        assert_eq!(rt.response, RitmResponse::Error(ProtoError::UnknownCa(ca)));
        drop(t);
        server.shutdown();
    }

    /// Panics on `GetManifest`, serves everything else.
    struct Grenade;

    impl Service for Grenade {
        fn handle(&self, req: RitmRequest) -> RitmResponse {
            if matches!(req, RitmRequest::GetManifest { .. }) {
                panic!("boom");
            }
            RitmResponse::Error(ProtoError::NotFound)
        }
    }

    #[test]
    fn panicking_service_costs_only_its_connection() {
        let server = EventServer::spawn(Arc::new(Grenade), 2).unwrap();
        let ca = CaId::from_name("BoomCA");
        let mut t1 = EventTransport::connect(server.addr()).unwrap();
        assert!(t1.round_trip(&RitmRequest::GetManifest { ca }).is_err());
        // The runtime survives and keeps serving new connections.
        let mut t2 = EventTransport::connect(server.addr()).unwrap();
        let rt = t2.round_trip(&RitmRequest::FetchDelta { ca }).unwrap();
        assert_eq!(rt.response, RitmResponse::Error(ProtoError::NotFound));
        drop((t1, t2));
        server.shutdown();
    }
}
