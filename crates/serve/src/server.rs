//! Thread-per-connection TCP server with server-side micro-batching.
//!
//! One accept thread hands each connection to its own thread; connection
//! threads decode [`Frame::Query`] requests and enqueue them on a single
//! batcher thread, which coalesces every query that arrives within
//! [`ServerConfig::batch_window`] (or until [`ServerConfig::max_batch`]
//! queries are pending) into **one** [`Engine::serve`] call. The engine's
//! own worker pool then fans the coalesced batch out across shards, so a
//! trickle of single-query connections still amortizes thread wake-ups and
//! per-batch bookkeeping the way the in-process `serve_batch` benchmarks
//! do.
//!
//! Batching across requests with different `k` serves the batch at the
//! maximum requested `k` and truncates per request afterwards — results
//! are sorted ascending, so the `k`-prefix of a top-`k_max` list *is* the
//! exact top-`k` answer; coalescing never changes anyone's results.
//!
//! A server started with [`Server::start_mutable`] additionally accepts
//! [`Frame::Insert`], [`Frame::Delete`] and [`Frame::Flush`]: mutations
//! run inline on their connection thread against the engine's
//! [`MutableServing`] surface (never coalesced — each reply carries its
//! own assigned ids), while queries keep flowing through the batcher and
//! observe every acknowledged write. Read-only servers answer mutation
//! frames with a typed [`Frame::Error`].
//!
//! Shutdown ([`ServerHandle::shutdown`] or a client [`Frame::Shutdown`])
//! is graceful: the acceptor stops taking connections, connection threads
//! close at their next frame boundary, and the batcher drains every
//! already-queued request before exiting, so no accepted query is dropped.
//!
//! A malformed frame (bad magic, checksum mismatch, oversized length
//! prefix, truncation) poisons only its own connection: the thread answers
//! with a best-effort [`Frame::Error`] and closes, while every other
//! connection — and the acceptor — keeps serving.
//!
//! ## Overload behaviour
//!
//! The batcher queue is bounded ([`ServerConfig::queue_cap`], counted in
//! queries): a query frame arriving with the queue full is **shed** in
//! microseconds on its connection thread — a v2 client gets
//! [`Frame::Overloaded`] with a retry-after hint, a v1 client the same
//! hint as a [`Frame::Error`] — instead of growing an unbounded backlog
//! whose tail latency is the collapse the no-admission design showed.
//! Between admission and collapse there is a degradation band: while the
//! backlog sits above [`ServerConfig::degrade_at`], accepted batches are
//! served with pressure-degraded refinement (tightened candidate
//! budgets), trading a little accuracy for bounded latency; the
//! per-query `degraded` status bit and the engine's
//! `permsearch_queries_degraded_total` family record the trade. Requests
//! carrying a deadline propagate it into the engine as a per-query
//! budget; an expired query returns whatever sources were already
//! gathered, flagged `partial`. Every reply is written at the protocol
//! version its request carried, so v1 clients never see a v2 byte.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use permsearch_core::{deadline_after, Neighbor};
use permsearch_engine::{Engine, MutableServing, QueryOutcome, ServeOptions};
use permsearch_obs::{Counter, Gauge, MetricsRegistry};

use crate::protocol::{
    read_frame_versioned, write_frame_versioned, Frame, ProtocolError, QueryStatus, ServerInfo,
    PROTOCOL_VERSION_V1,
};

/// How long an idle connection waits between checks of the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// How long the acceptor sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Read timeout once a frame has started arriving: a peer that stalls
/// mid-frame for this long is treated as disconnected (typed
/// [`ProtocolError::Truncated`]), freeing the thread.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Serving configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7377` (port `0` picks a free port;
    /// read the bound address back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Micro-batching window: after the first query of a batch arrives,
    /// wait at most this long for more before serving.
    pub batch_window: Duration,
    /// Serve a batch as soon as this many queries are pending, even inside
    /// the window.
    pub max_batch: usize,
    /// Largest `k` a request may ask for.
    pub max_k: usize,
    /// Dense dimensionality queries must match (from the deployment).
    pub dim: usize,
    /// Registry for the TCP-level metric families and the `/metrics`
    /// exposition; `None` disables both (metrics requests get a typed
    /// error).
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Admission cap on the batcher queue, counted in queries (an empty
    /// query batch counts as one). Arrivals beyond it are shed with
    /// [`Frame::Overloaded`] before any engine work runs.
    pub queue_cap: usize,
    /// Backlog depth at which accepted queries switch to degraded
    /// refinement; `0` disables degradation.
    pub degrade_at: usize,
    /// Backoff hint carried by shed replies.
    pub retry_after: Duration,
}

impl ServerConfig {
    /// Defaults tuned for loopback serving: 500 µs window, 256-query
    /// batches, `k` capped at 1024, a 1024-query admission cap degrading
    /// from half that depth, no metrics registry.
    pub fn new(addr: impl Into<String>, dim: usize) -> Self {
        Self {
            addr: addr.into(),
            batch_window: Duration::from_micros(500),
            max_batch: 256,
            max_k: 1024,
            dim,
            metrics: None,
            queue_cap: 1024,
            degrade_at: 512,
            retry_after: Duration::from_millis(20),
        }
    }
}

/// TCP-level metric families, labeled by deployment method. Registered
/// once at startup; the per-request path touches only relaxed atomics.
struct TcpMetrics {
    connections_total: Arc<Counter>,
    connections_open_gauge: Arc<Gauge>,
    /// Backing count for the open-connections gauge (the obs gauge is
    /// set-only, so the server keeps the authoritative counter).
    connections_open: AtomicI64,
    requests_total: Arc<Counter>,
    queries_total: Arc<Counter>,
    batches_total: Arc<Counter>,
    batched_queries_total: Arc<Counter>,
    mutations_total: Arc<Counter>,
    protocol_errors_total: Arc<Counter>,
    shed_total: Arc<Counter>,
    queue_depth_gauge: Arc<Gauge>,
}

impl TcpMetrics {
    fn register(registry: &MetricsRegistry, method: &str) -> Self {
        let m: &[(&str, &str)] = &[("method", method)];
        Self {
            connections_total: registry.counter(
                "permsearch_tcp_connections_total",
                "TCP connections accepted.",
                m,
            ),
            connections_open_gauge: registry.gauge(
                "permsearch_tcp_connections_open",
                "TCP connections currently open.",
                m,
            ),
            connections_open: AtomicI64::new(0),
            requests_total: registry.counter(
                "permsearch_tcp_requests_total",
                "Protocol requests handled (all frame types).",
                m,
            ),
            queries_total: registry.counter(
                "permsearch_tcp_queries_total",
                "Queries received over TCP.",
                m,
            ),
            batches_total: registry.counter(
                "permsearch_tcp_batches_total",
                "Coalesced micro-batches served.",
                m,
            ),
            batched_queries_total: registry.counter(
                "permsearch_tcp_batched_queries_total",
                "Queries served through coalesced micro-batches.",
                m,
            ),
            mutations_total: registry.counter(
                "permsearch_tcp_mutations_total",
                "Insert, delete, and flush frames handled.",
                m,
            ),
            protocol_errors_total: registry.counter(
                "permsearch_tcp_protocol_errors_total",
                "Malformed or rejected frames.",
                m,
            ),
            shed_total: registry.counter(
                "permsearch_tcp_shed_total",
                "Queries shed by admission control (queue full).",
                m,
            ),
            queue_depth_gauge: registry.gauge(
                "permsearch_tcp_queue_depth",
                "Queries waiting in the batcher queue.",
                m,
            ),
        }
    }

    fn connection_opened(&self) {
        self.connections_total.inc();
        let open = self.connections_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.connections_open_gauge.set(open);
    }

    fn connection_closed(&self) {
        let open = self.connections_open.fetch_sub(1, Ordering::Relaxed) - 1;
        self.connections_open_gauge.set(open);
    }
}

/// One enqueued query request: the batch it carries, the `k` it asked
/// for, its optional deadline, and the channel its connection thread
/// blocks on.
struct Pending {
    queries: Vec<Vec<f32>>,
    k: usize,
    deadline: Option<Instant>,
    reply: SyncSender<(Vec<Vec<Neighbor>>, Vec<QueryOutcome>)>,
}

impl Pending {
    /// Queue-depth cost of this request. An empty query batch still
    /// occupies a batcher slot, so it costs one.
    fn cost(&self) -> i64 {
        self.queries.len().max(1) as i64
    }
}

/// State shared by the acceptor, connection threads and the batcher.
struct Shared {
    engine: Arc<dyn Engine<Vec<f32>>>,
    /// The same engine through its mutation surface, when the deployment
    /// accepts writes ([`Server::start_mutable`]); `None` on read-only
    /// servers, whose insert/delete/flush frames answer a typed error.
    mutable: Option<Arc<dyn MutableServing<Vec<f32>>>>,
    info: ServerInfo,
    config: ServerConfig,
    metrics: Option<TcpMetrics>,
    shutdown: AtomicBool,
    /// Queries admitted but not yet taken into a serving batch — the
    /// admission-control and pressure signal. Connection threads add on
    /// enqueue; the batcher subtracts when it commits a batch.
    queue_depth: AtomicI64,
}

/// The running server. Construct with [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `config.addr` and start serving `engine`. Returns once the
    /// listener is bound and the acceptor/batcher threads are running.
    /// Insert/delete/flush frames answer a typed error; use
    /// [`Server::start_mutable`] for a deployment that accepts writes.
    pub fn start(
        engine: Arc<dyn Engine<Vec<f32>>>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::start_inner(engine, None, config)
    }

    /// Like [`Server::start`], but over a mutable deployment: the same
    /// engine serves queries through its [`Engine`] surface and
    /// insert/delete/flush frames through [`MutableServing`]. One `Arc`
    /// coerced twice — queries and mutations always see one state.
    pub fn start_mutable<M>(engine: Arc<M>, config: ServerConfig) -> io::Result<ServerHandle>
    where
        M: MutableServing<Vec<f32>> + 'static,
    {
        let mutable: Arc<dyn MutableServing<Vec<f32>>> = Arc::clone(&engine) as _;
        Self::start_inner(engine, Some(mutable), config)
    }

    fn start_inner(
        engine: Arc<dyn Engine<Vec<f32>>>,
        mutable: Option<Arc<dyn MutableServing<Vec<f32>>>>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let info = ServerInfo {
            method: engine.method().to_string(),
            points: engine.len() as u64,
            shards: engine.num_shards() as u32,
            dim: config.dim as u32,
        };
        let metrics = config
            .metrics
            .as_ref()
            .map(|r| TcpMetrics::register(r, &info.method));
        let shared = Arc::new(Shared {
            engine,
            mutable,
            info,
            config,
            metrics,
            shutdown: AtomicBool::new(false),
            queue_depth: AtomicI64::new(0),
        });

        let (queue, batcher_rx) = mpsc::channel::<Pending>();
        let batcher = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("psrv-batcher".into())
                .spawn(move || batcher_loop(&shared, &batcher_rx))?
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("psrv-accept".into())
                .spawn(move || accept_loop(&shared, &listener, queue, batcher))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor,
        })
    }
}

/// Handle to a running [`Server`]: its bound address plus shutdown/join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request graceful shutdown without waiting for it to finish.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the server exits: every connection closed, every
    /// accepted query answered, the batcher drained.
    pub fn wait(self) {
        let _ = self.acceptor.join();
    }

    /// Graceful shutdown: [`request_shutdown`](Self::request_shutdown)
    /// then [`wait`](Self::wait).
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    queue: Sender<Pending>,
    batcher: JoinHandle<()>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Some(m) = &shared.metrics {
                    m.connection_opened();
                }
                let conn_shared = Arc::clone(shared);
                let queue = queue.clone();
                let spawned = thread::Builder::new()
                    .name("psrv-conn".into())
                    .spawn(move || {
                        connection_loop(&conn_shared, stream, &queue);
                        if let Some(m) = &conn_shared.metrics {
                            m.connection_closed();
                        }
                    });
                match spawned {
                    Ok(handle) => conns.push(handle),
                    Err(_) => {
                        if let Some(m) = &shared.metrics {
                            m.connection_closed();
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conns.retain(|h| !h.is_finished());
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Listener-level failure: stop accepting, drain what exists.
            Err(_) => break,
        }
    }
    // Drain: connection threads notice the flag at their next frame
    // boundary; only after they (and our queue clone) are gone does the
    // batcher's receiver disconnect, so every enqueued query is served.
    for handle in conns {
        let _ = handle.join();
    }
    drop(queue);
    let _ = batcher.join();
}

fn batcher_loop(shared: &Arc<Shared>, rx: &Receiver<Pending>) {
    while let Ok(first) = rx.recv() {
        let deadline = Instant::now() + shared.config.batch_window;
        let mut pending = vec![first];
        let mut total: usize = pending[0].queries.len();
        while total < shared.config.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(p) => {
                    total += p.queries.len();
                    pending.push(p);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Defense in depth: per-query panics are already isolated inside
        // the engine, but a panic in the coalescing bookkeeping itself
        // must not kill the batcher thread — that would strand every
        // future query. The affected requests' reply channels drop and
        // their connections answer a typed error.
        let caught = catch_unwind(AssertUnwindSafe(|| serve_coalesced(shared, pending)));
        if caught.is_err() {
            if let Some(m) = &shared.metrics {
                m.protocol_errors_total.inc();
            }
        }
    }
    // Receiver disconnected: all senders gone, nothing left to drain.
}

/// Serve one coalesced batch and route each request's slice of the
/// results back to its connection thread.
fn serve_coalesced(shared: &Shared, pending: Vec<Pending>) {
    // The batch is committed: release its admission slots first (even a
    // panic below must not leak depth) and read the remaining backlog —
    // the pressure signal that decides degraded refinement.
    let total: i64 = pending.iter().map(Pending::cost).sum();
    let backlog = shared.queue_depth.fetch_sub(total, Ordering::Relaxed) - total;
    let k_max = pending.iter().map(|p| p.k).max().unwrap_or(1).max(1);
    let flat: Vec<Vec<f32>> = pending
        .iter()
        .flat_map(|p| p.queries.iter().cloned())
        .collect();
    if let Some(m) = &shared.metrics {
        m.batches_total.inc();
        m.batched_queries_total.add(flat.len() as u64);
        m.queue_depth_gauge.set(backlog.max(0));
    }
    let mut options = ServeOptions {
        degraded: shared.config.degrade_at > 0 && backlog >= shared.config.degrade_at as i64,
        deadlines: Vec::new(),
    };
    if pending.iter().any(|p| p.deadline.is_some()) {
        options.deadlines = pending
            .iter()
            .flat_map(|p| std::iter::repeat_n(p.deadline, p.queries.len()))
            .collect();
    }
    let output = shared.engine.serve_opts(&flat, k_max, &options);
    debug_assert_eq!(output.results.len(), flat.len());
    debug_assert_eq!(output.outcomes.len(), flat.len());
    let mut results = output.results.into_iter();
    let mut outcomes = output.outcomes.into_iter();
    for p in pending {
        let mut slice: Vec<Vec<Neighbor>> = results.by_ref().take(p.queries.len()).collect();
        let flags: Vec<QueryOutcome> = outcomes.by_ref().take(p.queries.len()).collect();
        // Exact per-request k: ascending order makes the prefix of a
        // top-k_max list the top-k answer.
        for r in &mut slice {
            r.truncate(p.k);
        }
        // A send only fails when the connection died mid-request; the
        // batch is still correct for everyone else.
        let _ = p.reply.send((slice, flags));
    }
}

/// Why a connection thread stopped reading.
enum ConnExit {
    /// Peer closed, fatal protocol error, or transport failure.
    Close,
    /// Server-wide shutdown observed while idle.
    Drain,
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream, queue: &Sender<Pending>) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    loop {
        match wait_for_frame(shared, &mut stream) {
            Ok(Some((version, frame))) => {
                if let Some(m) = &shared.metrics {
                    m.requests_total.inc();
                }
                match handle_frame(shared, &mut stream, queue, frame, version) {
                    Ok(true) => {}
                    Ok(false) => return,
                    Err(_) => return,
                }
            }
            Ok(None) => return,
            Err(ConnExit::Close) => return,
            Err(ConnExit::Drain) => return,
        }
    }
}

/// Block until a full frame arrives, the peer closes (`Ok(None)`), or the
/// server shuts down while the connection is idle. Malformed frames are
/// answered with a best-effort [`Frame::Error`] before closing — the
/// stream cannot be resynchronized after framing is lost.
fn wait_for_frame(
    shared: &Shared,
    stream: &mut TcpStream,
) -> Result<Option<(u16, Frame)>, ConnExit> {
    // Idle phase: peek with a short timeout so shutdown is observed at
    // frame boundaries without tearing down mid-request state.
    let mut first = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(ConnExit::Drain);
        }
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        match stream.peek(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ConnExit::Close),
        }
    }
    // Frame phase: bytes are pending; a peer that stalls longer than
    // FRAME_READ_TIMEOUT mid-frame counts as disconnected.
    let _ = stream.set_read_timeout(Some(FRAME_READ_TIMEOUT));
    match read_frame_versioned(stream) {
        Ok(frame) => Ok(frame),
        Err(err) => {
            if let Some(m) = &shared.metrics {
                m.protocol_errors_total.inc();
            }
            let msg = match &err {
                ProtocolError::Io(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    "stream stalled mid-frame".to_string()
                }
                other => other.to_string(),
            };
            // The peer's version is unknown on a malformed stream; v1 is
            // the encoding every client parses.
            let _ = write_frame_versioned(stream, &Frame::Error(msg), PROTOCOL_VERSION_V1);
            let _ = stream.flush();
            Err(ConnExit::Close)
        }
    }
}

/// Dispatch one decoded frame. `Ok(true)` keeps the connection open,
/// `Ok(false)` closes it cleanly; `Err` is a transport failure on the
/// write path.
fn handle_frame(
    shared: &Shared,
    stream: &mut TcpStream,
    queue: &Sender<Pending>,
    frame: Frame,
    version: u16,
) -> Result<bool, ProtocolError> {
    match frame {
        Frame::Query {
            k,
            deadline_micros,
            queries,
        } => {
            if let Some(m) = &shared.metrics {
                m.queries_total.add(queries.len() as u64);
            }
            if let Err(msg) = validate_query(shared, k, &queries) {
                if let Some(m) = &shared.metrics {
                    m.protocol_errors_total.inc();
                }
                write_frame_versioned(stream, &Frame::Error(msg), version)?;
                return Ok(true);
            }
            // Admission control: reserve queue capacity before enqueueing.
            // When the batcher backlog already holds `queue_cap` queries,
            // shed in microseconds instead of stacking latency — the
            // client gets a typed retry-after hint, not a timeout.
            let cost = queries.len().max(1) as i64;
            let prior = shared.queue_depth.fetch_add(cost, Ordering::Relaxed);
            if prior >= shared.config.queue_cap as i64 {
                shared.queue_depth.fetch_sub(cost, Ordering::Relaxed);
                let retry_after_ms = shared.config.retry_after.as_millis().min(u32::MAX as u128);
                if let Some(m) = &shared.metrics {
                    m.shed_total.add(queries.len() as u64);
                }
                let reply = if version >= 2 {
                    Frame::Overloaded {
                        retry_after_ms: retry_after_ms as u32,
                    }
                } else {
                    Frame::Error(format!("server overloaded: retry after {retry_after_ms}ms"))
                };
                write_frame_versioned(stream, &reply, version)?;
                return Ok(true);
            }
            if let Some(m) = &shared.metrics {
                m.queue_depth_gauge.set((prior + cost).max(0));
            }
            // A zero deadline means "none"; a deadline too far in the
            // future to represent clamps to no deadline (same behaviour).
            let deadline = if deadline_micros > 0 {
                deadline_after(Instant::now(), deadline_micros)
            } else {
                None
            };
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            let pending = Pending {
                queries,
                k: k as usize,
                deadline,
                reply: reply_tx,
            };
            if let Err(mpsc::SendError(refused)) = queue.send(pending) {
                shared
                    .queue_depth
                    .fetch_sub(refused.cost(), Ordering::Relaxed);
                write_frame_versioned(
                    stream,
                    &Frame::Error("server is shutting down".into()),
                    version,
                )?;
                return Ok(false);
            }
            match reply_rx.recv() {
                Ok((results, outcomes)) => {
                    let statuses = outcomes
                        .iter()
                        .map(|o| QueryStatus {
                            degraded: o.degraded,
                            partial: o.partial,
                            failed: o.failed,
                        })
                        .collect();
                    write_frame_versioned(stream, &Frame::Results { results, statuses }, version)?;
                    Ok(true)
                }
                Err(_) => {
                    write_frame_versioned(
                        stream,
                        &Frame::Error("server is shutting down".into()),
                        version,
                    )?;
                    Ok(false)
                }
            }
        }
        Frame::Ping => {
            write_frame_versioned(stream, &Frame::Pong(shared.info.clone()), version)?;
            Ok(true)
        }
        Frame::MetricsRequest => {
            let reply = match &shared.config.metrics {
                Some(registry) => Frame::MetricsText(registry.render_text()),
                None => Frame::Error("metrics exposition is not enabled on this server".into()),
            };
            write_frame_versioned(stream, &reply, version)?;
            Ok(true)
        }
        Frame::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            write_frame_versioned(stream, &Frame::Ack, version)?;
            Ok(false)
        }
        // Mutations run inline on the connection thread — they hold the
        // engine's write lock only briefly and must not be coalesced
        // (each frame's reply carries its own assigned ids / outcomes).
        Frame::Insert { points } => {
            let reply = match require_mutable(shared) {
                Err(msg) => Frame::Error(msg),
                Ok(engine) => match validate_points(shared, &points) {
                    Err(msg) => {
                        if let Some(m) = &shared.metrics {
                            m.protocol_errors_total.inc();
                        }
                        Frame::Error(msg)
                    }
                    // A refused journal write is a typed error, not a
                    // dropped connection: the engine state is untouched
                    // and the client may retry.
                    Ok(()) => match engine.insert_points(points) {
                        Ok(ids) => Frame::Inserted(ids),
                        Err(e) => Frame::Error(e.to_string()),
                    },
                },
            };
            write_frame_versioned(stream, &reply, version)?;
            Ok(true)
        }
        Frame::Delete { ids } => {
            let reply = match require_mutable(shared) {
                Err(msg) => Frame::Error(msg),
                // Unknown or already-removed ids report `false` per id;
                // there is nothing to validate up front.
                Ok(engine) => match engine.remove_ids(&ids) {
                    Ok(flags) => Frame::Deleted(flags),
                    Err(e) => Frame::Error(e.to_string()),
                },
            };
            write_frame_versioned(stream, &reply, version)?;
            Ok(true)
        }
        Frame::Flush => {
            let reply = match require_mutable(shared) {
                Err(msg) => Frame::Error(msg),
                Ok(engine) => match engine.flush() {
                    Ok(info) => Frame::Flushed {
                        generation: info.generation,
                        live: info.live as u64,
                    },
                    Err(e) => Frame::Error(e.to_string()),
                },
            };
            write_frame_versioned(stream, &reply, version)?;
            Ok(true)
        }
        // Server-to-client frame types arriving at the server are a
        // protocol misuse; answer typed and keep the connection (framing
        // is intact).
        other => {
            if let Some(m) = &shared.metrics {
                m.protocol_errors_total.inc();
            }
            write_frame_versioned(
                stream,
                &Frame::Error(format!(
                    "unexpected {} frame: clients send query, insert, delete, flush, ping, \
                     metrics-request or shutdown",
                    other.name()
                )),
                version,
            )?;
            Ok(true)
        }
    }
}

/// The mutation surface, or the typed refusal read-only servers answer.
fn require_mutable(shared: &Shared) -> Result<&Arc<dyn MutableServing<Vec<f32>>>, String> {
    match &shared.mutable {
        Some(engine) => {
            if let Some(m) = &shared.metrics {
                m.mutations_total.inc();
            }
            Ok(engine)
        }
        None => Err("this deployment is read-only: mutation frames need a mutable server".into()),
    }
}

/// Insert points obey the same shape rules as queries: deployment
/// dimensionality and finite components.
fn validate_points(shared: &Shared, points: &[Vec<f32>]) -> Result<(), String> {
    let dim = shared.config.dim;
    for (i, p) in points.iter().enumerate() {
        if p.len() != dim {
            return Err(format!(
                "insert point {i} has dimension {}, deployment expects {dim}",
                p.len()
            ));
        }
        if let Some(bad) = p.iter().find(|v| !v.is_finite()) {
            return Err(format!(
                "insert point {i} contains a non-finite component {bad}"
            ));
        }
    }
    Ok(())
}

fn validate_query(shared: &Shared, k: u32, queries: &[Vec<f32>]) -> Result<(), String> {
    if k == 0 {
        return Err("k must be at least 1".into());
    }
    if k as usize > shared.config.max_k {
        return Err(format!(
            "k {} exceeds the server cap of {}",
            k, shared.config.max_k
        ));
    }
    let dim = shared.config.dim;
    for (i, q) in queries.iter().enumerate() {
        if q.len() != dim {
            return Err(format!(
                "query {i} has dimension {}, deployment expects {dim}",
                q.len()
            ));
        }
        if let Some(bad) = q.iter().find(|v| !v.is_finite()) {
            return Err(format!("query {i} contains a non-finite component {bad}"));
        }
    }
    Ok(())
}
