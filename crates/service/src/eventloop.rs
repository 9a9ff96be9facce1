//! The [`Server`]: a readiness-driven event loop over `poll(2)`.
//!
//! Connections are multiplexed across a fixed set of **shards**, each a
//! thread blocking in [`PollBackend::wait`] over its connections
//! plus a [`WakePipe`]. Every connection is a small state machine: a
//! read buffer reassembling NDJSON lines across partial reads (UTF-8
//! safe: bytes are decoded only once a line is complete), inline
//! dispatch for cheap ops, and a write buffer with partial-write
//! continuation. CPU-heavy ops (`rebuild`, `load`, `delta`, large
//! `estimate`/`estimate_expr` batches) are handed to a few **dispatch
//! workers** over a queue so the loop never blocks; their
//! responses ride back to the owning shard through its inbox + wake
//! pipe. A connection with a dispatched request in flight pauses parsing
//! until the response is queued, which both preserves response ordering
//! and applies natural per-connection backpressure.
//!
//! Admission control sits on top: the acceptor refuses connections past
//! `max_connections` with a structured `overloaded` line (`reason =
//! "capacity"`), each request is charged against a per-peer-address
//! in-flight quota (`reason = "quota"`), and expensive ops are shed
//! (`reason = "shed"`) while the dispatch queue or the recent p99
//! latency sits above threshold. That depth check is the dispatch
//! queue's only bound: every op that can reach the queue is sheddable,
//! so the queue itself is unbounded and allocates per queued job — its
//! memory grows with the jobs actually waiting, never with
//! `shed_queue_depth` — and there is no separate "dispatch queue full"
//! refusal. All outcomes flow through [`ServiceMetrics`]:
//! `phe_connections_open`,
//! `phe_admission_total{outcome=admitted|refused|shed}`, and
//! `phe_dispatch_queue_depth`.
//!
//! The server also owns the [`MaintenanceCoordinator`] every `delta`
//! goes through: it starts the coordinator's ticker with the listener
//! and stops it on [`Server::shutdown`].

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::maintenance::{MaintenanceConfig, MaintenanceCoordinator};
use crate::metrics::ServiceMetrics;
use crate::protocol::{error_response, overloaded_response, MaintenanceAction, Request};
use crate::reactor::{raise_nofile_limit, PollBackend, WakePipe, READABLE, WRITABLE};
use crate::registry::EstimatorRegistry;
use crate::server::{handle_request, ServerConfig};

/// A request line still unterminated past this size closes the connection
/// (an unbounded line would otherwise grow the buffer without limit).
const MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

/// Token the shard's own wake pipe is registered under; connection
/// tokens start at 1.
const WAKE_TOKEN: usize = 0;

/// Pending unwritten response bytes past this mark pause reading from
/// the connection: a peer that sends requests but never drains responses
/// accumulates at most one buffer of backlog, not unbounded memory.
const WRITE_HIGH_WATER: usize = 4 * 1024 * 1024;

/// An `estimate` batch larger than this runs on a dispatch worker
/// instead of the loop thread.
const INLINE_MAX_PATHS: usize = 4096;

/// An `estimate_expr` batch larger than this (or any explain request,
/// which captures span trees) runs on a dispatch worker.
const INLINE_MAX_EXPRS: usize = 16;

/// How often the p99 shed trigger re-evaluates the latency window.
const SHED_EVAL_INTERVAL_MS: u64 = 100;

// -------------------------------------------------------------- admission

/// Ring of recent request latencies (lock-free, overwriting) feeding the
/// p99 shed trigger.
struct LatencyWindow {
    /// Microseconds + 1 so 0 can mean "slot never written".
    slots: Vec<AtomicU64>,
    next: AtomicUsize,
}

impl LatencyWindow {
    fn new(capacity: usize) -> LatencyWindow {
        LatencyWindow {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
        }
    }

    fn record(&self, latency: Duration) {
        // ORDERING: the cursor RMW only needs to hand out distinct slots;
        // the sample store publishes one self-contained u64 that p99()
        // reads atomically — no happens-before edge is needed for an
        // approximate sliding window.
        let index = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let micros = (latency.as_micros() as u64).saturating_add(1);
        // ORDERING: see above — self-contained sample, no publication.
        self.slots[index].store(micros, Ordering::Relaxed);
    }

    /// The 99th-percentile latency over the filled slots, if any.
    fn p99(&self) -> Option<Duration> {
        let mut filled: Vec<u64> = self
            .slots
            .iter()
            // ORDERING: each slot is a self-contained sample; a stale or
            // torn-by-a-lap view only perturbs an already-approximate p99.
            .map(|slot| slot.load(Ordering::Relaxed))
            .filter(|&v| v > 0)
            .collect();
        if filled.is_empty() {
            return None;
        }
        filled.sort_unstable();
        let index = (filled.len() * 99 / 100).min(filled.len() - 1);
        Some(Duration::from_micros(filled[index] - 1))
    }
}

/// Shared admission state: per-peer in-flight quotas and the load-shed
/// triggers. One instance per server, shared by every shard and worker.
struct Admission {
    max_inflight_per_client: usize,
    shed_queue_depth: usize,
    shed_p99: Option<Duration>,
    inflight: Mutex<HashMap<IpAddr, usize>>,
    window: LatencyWindow,
    /// Cached outcome of the last p99 evaluation.
    shed_latency: AtomicBool,
    /// Milliseconds since `started` of the last p99 evaluation; a CAS on
    /// it elects one thread per interval to re-sort the window.
    last_eval_ms: AtomicU64,
    started: Instant,
    metrics: Arc<ServiceMetrics>,
}

impl Admission {
    fn new(config: &ServerConfig, metrics: Arc<ServiceMetrics>) -> Admission {
        Admission {
            max_inflight_per_client: config.max_inflight_per_client.max(1),
            shed_queue_depth: config.shed_queue_depth.max(1),
            shed_p99: config.shed_p99,
            inflight: Mutex::new(HashMap::new()),
            window: LatencyWindow::new(1024),
            shed_latency: AtomicBool::new(false),
            last_eval_ms: AtomicU64::new(0),
            started: Instant::now(),
            metrics,
        }
    }

    /// Charges one in-flight request against `peer`'s quota. `None`
    /// means the quota is exhausted; the returned ticket releases the
    /// charge on drop.
    fn try_admit(self: &Arc<Self>, peer: IpAddr) -> Option<Ticket> {
        let mut inflight = self.inflight.lock();
        let count = inflight.entry(peer).or_insert(0);
        if *count >= self.max_inflight_per_client {
            return None;
        }
        *count += 1;
        drop(inflight);
        Some(Ticket {
            peer,
            admission: Arc::clone(self),
        })
    }

    fn observe_latency(&self, latency: Duration) {
        self.window.record(latency);
    }

    /// Whether expensive ops should currently be refused: the dispatch
    /// queue is past its threshold, or the recent p99 latency is past
    /// the configured ceiling (re-evaluated at most every
    /// [`SHED_EVAL_INTERVAL_MS`], so recovery is automatic once the
    /// window refills with fast requests).
    fn should_shed(&self) -> bool {
        if self.metrics.dispatch_depth() > self.shed_queue_depth as u64 {
            return true;
        }
        let Some(threshold) = self.shed_p99 else {
            return false;
        };
        let now_ms = self.started.elapsed().as_millis() as u64;
        // ORDERING: the timestamp CAS is an election, not a publication —
        // it only picks one thread per interval to re-evaluate; the
        // evaluated verdict itself travels through `shed_latency` with
        // release/acquire below, so the election needs no ordering.
        let last = self.last_eval_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) >= SHED_EVAL_INTERVAL_MS
            && self
                .last_eval_ms
                // ORDERING: see above — election only, verdict travels
                // through `shed_latency` release/acquire.
                .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            let over = self.window.p99().is_some_and(|p99| p99 > threshold);
            self.shed_latency.store(over, Ordering::Release);
        }
        self.shed_latency.load(Ordering::Acquire)
    }
}

/// RAII in-flight charge; dropping it releases one unit of `peer`'s
/// quota (wherever the request ends up completing).
struct Ticket {
    peer: IpAddr,
    admission: Arc<Admission>,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut inflight = self.admission.inflight.lock();
        if let Some(count) = inflight.get_mut(&self.peer) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                inflight.remove(&self.peer);
            }
        }
    }
}

// ----------------------------------------------------------- plumbing

/// What the acceptor and the dispatch workers send a shard.
enum ShardMsg {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream, SocketAddr),
    /// A dispatch worker finished connection `conn`'s request.
    Done { conn: usize, response: String },
}

/// A shard's external address: its inbox plus the pipe that interrupts
/// its `wait`.
struct ShardPort {
    inbox: Sender<ShardMsg>,
    wake: Arc<WakePipe>,
}

/// One CPU-heavy request in flight to the dispatch workers.
struct Job {
    shard: usize,
    conn: usize,
    request: Request,
    ticket: Ticket,
    t0: Instant,
}

/// Everything a shard loop needs besides its own receiver and pipe.
struct ShardCtx {
    shard: usize,
    registry: Arc<EstimatorRegistry>,
    metrics: Arc<ServiceMetrics>,
    maintenance: Arc<MaintenanceCoordinator>,
    allow_load: bool,
    admission: Arc<Admission>,
    dispatch_tx: Sender<Job>,
    stop: Arc<AtomicBool>,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    /// Unanswered request bytes; answered lines are dropped off the
    /// front.
    buf: Vec<u8>,
    /// Index into `buf` already scanned for a newline, so a large line
    /// arriving in many chunks is not rescanned from the start each time.
    scanned: usize,
    /// Response lines not yet accepted by the socket; handlers write
    /// into it directly.
    out: String,
    /// How much of `out` has been written.
    out_pos: usize,
    /// Requests dispatched to workers and not yet answered; parsing
    /// pauses while nonzero to preserve response ordering.
    waiting: usize,
    /// The peer half-closed (EOF seen); drain, answer, flush, then drop.
    read_closed: bool,
    /// Unrecoverable I/O error; drop as soon as noticed.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, peer: SocketAddr) -> Conn {
        Conn {
            stream,
            peer,
            buf: Vec::new(),
            scanned: 0,
            out: String::new(),
            out_pos: 0,
            waiting: 0,
            read_closed: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos == self.out.len()
    }

    fn push_response(&mut self, response: &str) {
        self.out.push_str(response);
        self.out.push('\n');
    }

    /// Writes as much of `out` as the socket accepts right now.
    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out.as_bytes()[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.out.clear();
        self.out_pos = 0;
    }

    /// Reads whatever the socket has ready straight into `buf` (bounded
    /// per call; the level-triggered backend reports again if more
    /// remains). A read that fills less than the room offered has drained
    /// the socket for now, so no second read is spent on `WouldBlock`.
    fn fill(&mut self) {
        for _ in 0..16 {
            let len = self.buf.len();
            // At least 4 KiB of room, doubling while a long line streams
            // in, capped at 64 KiB per read.
            let room = len.clamp(4 * 1024, 64 * 1024);
            self.buf.resize(len + room, 0);
            let read = self.stream.read(&mut self.buf[len..]);
            self.buf.truncate(len + read.as_ref().map_or(0, |&n| n));
            match read {
                Ok(0) => {
                    self.read_closed = true;
                    return;
                }
                Ok(n) if n < room => return,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// Ops worth running on a dispatch worker instead of the loop thread:
/// everything that reads the filesystem or rebuilds state, plus
/// estimation batches big enough to stall the shard.
fn is_heavy(request: &Request) -> bool {
    match request {
        Request::Rebuild { .. } | Request::Load { .. } | Request::Delta { .. } => true,
        Request::Maintenance { action, .. } => !matches!(action, MaintenanceAction::Status),
        Request::Estimate { paths, .. } => paths.len() > INLINE_MAX_PATHS,
        Request::EstimateExpr { exprs, explain, .. } => *explain || exprs.len() > INLINE_MAX_EXPRS,
        Request::Ping | Request::List | Request::Metrics { .. } => false,
    }
}

/// Ops the shedder may refuse under pressure: the expensive ones.
/// `ping`, `list`, `metrics`, and maintenance status stay answerable so
/// operators can observe an overloaded server.
fn is_sheddable(request: &Request) -> bool {
    match request {
        Request::Estimate { .. }
        | Request::EstimateExpr { .. }
        | Request::Rebuild { .. }
        | Request::Load { .. }
        | Request::Delta { .. } => true,
        Request::Maintenance { action, .. } => !matches!(action, MaintenanceAction::Status),
        Request::Ping | Request::List | Request::Metrics { .. } => false,
    }
}

// ------------------------------------------------------------ the server

/// A running server; dropping it does **not** stop the threads — call
/// [`Server::shutdown`].
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor_wake: Arc<WakePipe>,
    acceptor: std::thread::JoinHandle<()>,
    ports: Arc<Vec<ShardPort>>,
    shards: Vec<std::thread::JoinHandle<()>>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    maintenance: Arc<MaintenanceCoordinator>,
    ticker: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds and starts accepting, with a maintenance loop built from
    /// [`MaintenanceConfig::default`]. Returns once the listener is live,
    /// so `local_addr` is immediately connectable (ephemeral ports
    /// included).
    pub fn start(
        registry: Arc<EstimatorRegistry>,
        metrics: Arc<ServiceMetrics>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let maintenance = MaintenanceCoordinator::new(
            Arc::clone(&registry),
            Arc::clone(&metrics),
            MaintenanceConfig::default(),
        );
        Server::start_with(registry, metrics, maintenance, config)
    }

    /// [`Server::start`] with the caller's [`MaintenanceCoordinator`]:
    /// `delta` ops enqueue batches on it, the `maintenance` op steers it,
    /// and the server runs its ticker until [`Server::shutdown`].
    pub fn start_with(
        registry: Arc<EstimatorRegistry>,
        metrics: Arc<ServiceMetrics>,
        maintenance: Arc<MaintenanceCoordinator>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        // The whole point is thousands of sockets in one process; the
        // common 1024-descriptor soft default would wedge at ~1000.
        raise_nofile_limit(config.max_connections as u64 + 64);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let admission = Arc::new(Admission::new(&config, Arc::clone(&metrics)));

        let shard_count = config.effective_shards();
        let worker_count = config.workers.max(1);
        // Unbounded: `Admission::should_shed` is the queue's one bound.
        let (dispatch_tx, dispatch_rx) = mpsc::channel::<Job>();
        let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));

        let mut ports = Vec::with_capacity(shard_count);
        let mut inboxes = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (inbox_tx, inbox_rx) = mpsc::channel::<ShardMsg>();
            let wake = Arc::new(WakePipe::new()?);
            ports.push(ShardPort {
                inbox: inbox_tx,
                wake: Arc::clone(&wake),
            });
            inboxes.push((inbox_rx, wake));
        }
        let ports = Arc::new(ports);

        let mut shards = Vec::with_capacity(shard_count);
        for (shard, (inbox, wake)) in inboxes.into_iter().enumerate() {
            let ctx = ShardCtx {
                shard,
                registry: Arc::clone(&registry),
                metrics: Arc::clone(&metrics),
                maintenance: Arc::clone(&maintenance),
                allow_load: config.allow_load,
                admission: Arc::clone(&admission),
                dispatch_tx: dispatch_tx.clone(),
                stop: Arc::clone(&stop),
            };
            shards.push(std::thread::spawn(move || run_shard(ctx, inbox, wake)));
        }
        // The shards hold the only senders now: when they exit at
        // shutdown, the queue disconnects and the workers drain out.
        drop(dispatch_tx);

        let mut dispatchers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let dispatch_rx = Arc::clone(&dispatch_rx);
            let ports = Arc::clone(&ports);
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            let maintenance = Arc::clone(&maintenance);
            let admission = Arc::clone(&admission);
            let allow_load = config.allow_load;
            dispatchers.push(std::thread::spawn(move || loop {
                // Hold the receiver lock only to pull one job.
                let job = { dispatch_rx.lock().recv() };
                let Ok(job) = job else { return };
                let Job {
                    shard,
                    conn,
                    request,
                    ticket,
                    t0,
                } = job;
                let mut response = String::new();
                let (paths, ok) = handle_request(
                    request,
                    &registry,
                    &metrics,
                    &maintenance,
                    allow_load,
                    &mut response,
                );
                metrics.dispatch_dequeued();
                let elapsed = t0.elapsed();
                metrics.record_request(paths, elapsed, ok);
                admission.observe_latency(elapsed);
                drop(ticket);
                let port = &ports[shard];
                if port.inbox.send(ShardMsg::Done { conn, response }).is_ok() {
                    port.wake.wake();
                }
            }));
        }

        let acceptor_wake = Arc::new(WakePipe::new()?);
        let acceptor = {
            let stop = Arc::clone(&stop);
            let wake = Arc::clone(&acceptor_wake);
            let ports = Arc::clone(&ports);
            let metrics = Arc::clone(&metrics);
            let max_connections = config.max_connections.max(1);
            std::thread::spawn(move || {
                run_acceptor(listener, stop, wake, ports, metrics, max_connections)
            })
        };

        let ticker = maintenance.start_ticker();
        Ok(Server {
            local_addr,
            stop,
            acceptor_wake,
            acceptor,
            ports,
            shards,
            dispatchers,
            maintenance,
            ticker,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals shutdown and joins every thread. The wake pipes interrupt
    /// the acceptor and every shard immediately — idle connections add
    /// no latency — the shards' exit disconnects the dispatch queue,
    /// draining the workers, and the maintenance ticker wakes on its
    /// shutdown signal.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        self.acceptor_wake.wake();
        let _ = self.acceptor.join();
        for port in self.ports.iter() {
            port.wake.wake();
        }
        for shard in self.shards {
            let _ = shard.join();
        }
        for dispatcher in self.dispatchers {
            let _ = dispatcher.join();
        }
        self.maintenance.request_shutdown();
        let _ = self.ticker.join();
    }
}

// ------------------------------------------------------------- acceptor

fn run_acceptor(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    ports: Arc<Vec<ShardPort>>,
    metrics: Arc<ServiceMetrics>,
    max_connections: usize,
) {
    let mut backend = PollBackend::new();
    backend.register(wake.read_fd(), 0, READABLE);
    backend.register(listener.as_raw_fd(), 1, READABLE);
    let mut events = Vec::new();
    let mut backoff = Duration::from_millis(1);
    let mut next_shard = 0usize;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                backoff = Duration::from_millis(1);
                if metrics.open_connections() >= max_connections as u64 {
                    metrics.record_refused();
                    refuse_at_capacity(stream, max_connections);
                    continue;
                }
                metrics.connection_opened();
                // Round-robin: connection counts stay balanced without
                // shared state, and any shard can host any connection.
                let port = &ports[next_shard];
                next_shard = (next_shard + 1) % ports.len();
                if port.inbox.send(ShardMsg::Conn(stream, peer)).is_ok() {
                    port.wake.wake();
                } else {
                    metrics.connection_closed();
                    return; // shard gone: shutting down
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Block until the listener has a connection or the wake
                // pipe interrupts for shutdown — no accept polling loop.
                let _ = backend.wait(&mut events, Some(Duration::from_millis(500)));
                if events.iter().any(|event| event.token == 0) {
                    wake.drain();
                }
            }
            Err(_) => {
                // Transient accept failures (EMFILE, aborted handshakes):
                // bounded exponential backoff, still interruptible by the
                // wake pipe. The listener is left out of this wait — it
                // may well still be "readable" with the same doomed
                // connection at the head of its queue.
                backend.deregister(listener.as_raw_fd());
                let _ = backend.wait(&mut events, Some(backoff));
                backend.register(listener.as_raw_fd(), 1, READABLE);
                if events.iter().any(|event| event.token == 0) {
                    wake.drain();
                }
                backoff = (backoff * 2).min(Duration::from_millis(250));
            }
        }
    }
}

/// Tells a refused peer why before hanging up: one structured
/// `overloaded` line (`reason = "capacity"`), then EOF.
fn refuse_at_capacity(mut stream: TcpStream, max_connections: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_nodelay(true);
    let line = overloaded_response(
        "capacity",
        &format!("server at its {max_connections}-connection capacity"),
    );
    let _ = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"));
}

// ---------------------------------------------------------------- shards

fn run_shard(ctx: ShardCtx, inbox: Receiver<ShardMsg>, wake: Arc<WakePipe>) {
    let mut backend = PollBackend::new();
    backend.register(wake.read_fd(), WAKE_TOKEN, READABLE);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = WAKE_TOKEN + 1;
    let mut events = Vec::new();
    loop {
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        // 1. Adopt new connections and fold in finished dispatches.
        while let Ok(msg) = inbox.try_recv() {
            match msg {
                ShardMsg::Conn(stream, peer) => {
                    if stream.set_nonblocking(true).is_err() {
                        ctx.metrics.connection_closed();
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = next_token;
                    next_token += 1;
                    conns.insert(token, Conn::new(stream, peer));
                }
                ShardMsg::Done { conn, response } => {
                    // The connection may have died while the worker ran;
                    // its response is then undeliverable and dropped.
                    if let Some(c) = conns.get_mut(&conn) {
                        c.waiting -= 1;
                        c.push_response(&response);
                        // Parsing was paused on the in-flight request;
                        // resume on whatever is already buffered.
                        process_lines(&ctx, conn, c);
                    }
                }
            }
        }
        // 2. Flush, reap finished connections, refresh interest sets.
        conns.retain(|&token, c| {
            if !c.dead {
                c.flush();
            }
            let finished = c.read_closed && c.waiting == 0 && c.buf.is_empty() && c.flushed();
            if c.dead || finished {
                backend.deregister(c.stream.as_raw_fd());
                ctx.metrics.connection_closed();
                return false;
            }
            let mut interest = 0u8;
            if !c.read_closed && c.waiting == 0 && c.out.len() - c.out_pos < WRITE_HIGH_WATER {
                interest |= READABLE;
            }
            if !c.flushed() {
                interest |= WRITABLE;
            }
            backend.modify(c.stream.as_raw_fd(), token, interest);
            true
        });
        // 3. Sleep until something can make progress. The timeout is a
        // safety net only; shutdown and dispatch completion arrive
        // through the wake pipe immediately.
        if backend
            .wait(&mut events, Some(Duration::from_millis(500)))
            .is_err()
        {
            break;
        }
        // 4. Drive the ready connections' state machines.
        for event in &events {
            if event.token == WAKE_TOKEN {
                wake.drain();
                continue;
            }
            let Some(c) = conns.get_mut(&event.token) else {
                continue;
            };
            if event.readable {
                c.fill();
                process_lines(&ctx, event.token, c);
            }
            if event.writable {
                c.flush();
            }
            if event.hangup && !event.readable {
                c.dead = true;
            }
        }
    }
    // Shutdown: every surviving connection closes with the shard.
    for _ in conns.values() {
        ctx.metrics.connection_closed();
    }
}

/// Answers the complete lines in `c.buf` straight from the buffer,
/// pausing whenever a request goes to the dispatch workers (`waiting >
/// 0`) so responses keep arriving in request order. The answered prefix
/// is dropped once, after the last line.
fn process_lines(ctx: &ShardCtx, token: usize, c: &mut Conn) {
    // Moved out so a line can borrow it while its answer is written to
    // the connection.
    let mut buf = std::mem::take(&mut c.buf);
    let mut start = 0;
    while !c.dead && c.waiting == 0 {
        let from = c.scanned.max(start);
        let newline = buf
            .get(from..)
            .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
            .map(|i| from + i);
        let line = match newline {
            Some(end) => {
                let line = buf.get(start..end).unwrap_or_default();
                start = end + 1;
                line
            }
            None => {
                c.scanned = buf.len();
                if buf.len() - start > MAX_REQUEST_BYTES {
                    ctx.metrics.record_request(0, Duration::ZERO, false);
                    c.push_response(&error_response("request line too large"));
                    start = buf.len();
                    c.read_closed = true;
                    break;
                }
                if c.read_closed && start < buf.len() {
                    // EOF with a trailing unterminated fragment: answer
                    // it as a final request.
                    let line = buf.get(start..).unwrap_or_default();
                    start = buf.len();
                    line
                } else {
                    break;
                }
            }
        };
        let text = String::from_utf8_lossy(line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        handle_one(ctx, token, c, trimmed);
    }
    buf.drain(..start);
    c.scanned = c.scanned.saturating_sub(start);
    c.buf = buf;
}

/// Admission-checks and answers (or dispatches) one request line.
fn handle_one(ctx: &ShardCtx, token: usize, c: &mut Conn, line: &str) {
    let t0 = Instant::now();
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(e) => {
            ctx.metrics.record_request(0, t0.elapsed(), false);
            c.push_response(&error_response(&e.to_string()));
            return;
        }
    };
    if is_sheddable(&request) && ctx.admission.should_shed() {
        ctx.metrics.record_shed();
        ctx.metrics.record_request(0, t0.elapsed(), false);
        c.push_response(&overloaded_response(
            "shed",
            "server overloaded; retry after backing off",
        ));
        return;
    }
    let Some(ticket) = ctx.admission.try_admit(c.peer.ip()) else {
        ctx.metrics.record_refused();
        ctx.metrics.record_request(0, t0.elapsed(), false);
        c.push_response(&overloaded_response(
            "quota",
            "per-client in-flight request quota exceeded",
        ));
        return;
    };
    if is_heavy(&request) {
        // Every heavy op is sheddable, so the depth check above already
        // bounded this enqueue. The check and the enqueue are not one
        // atomic step: N shards can pass the threshold together, so the
        // depth overshoots it by at most N racing enqueues.
        debug_assert!(is_sheddable(&request), "a heavy op escaped the shed check");
        ctx.metrics.dispatch_enqueued();
        let job = Job {
            shard: ctx.shard,
            conn: token,
            request,
            ticket,
            t0,
        };
        if ctx.dispatch_tx.send(job).is_ok() {
            ctx.metrics.record_admitted();
            c.waiting += 1;
        } else {
            // Workers gone: shutting down. The ticket rides in the
            // dropped job and releases with it.
            ctx.metrics.dispatch_dequeued();
        }
    } else {
        ctx.metrics.record_admitted();
        let (paths, ok) = handle_request(
            request,
            &ctx.registry,
            &ctx.metrics,
            &ctx.maintenance,
            ctx.allow_load,
            &mut c.out,
        );
        c.out.push('\n');
        let elapsed = t0.elapsed();
        ctx.metrics.record_request(paths, elapsed, ok);
        ctx.admission.observe_latency(elapsed);
        drop(ticket);
    }
}
