//! The serving tier: a bounded worker-pool request scheduler.
//!
//! [`TwinServer`] used to spawn one detached thread per connection —
//! fine for a loopback demo, unbounded (and unjoinable) under real
//! traffic. This module replaces it with three fixed thread sets wired
//! by a bounded queue:
//!
//! ```text
//! acceptor ──▶ readers (non-blocking socket mux, parse, admission)
//!                 │ bounded RequestQueue (depth-limited; full ⇒ Busy)
//!                 ▼
//!              workers (TwinService::handle) ──▶ seq-ordered writes
//! ```
//!
//! **Admission control** happens in the readers, before any work is
//! queued: a connection over its in-flight cap, or a full request
//! queue, is answered [`Response::Busy`] with a back-off hint instead
//! of queueing unboundedly — over-capacity load degrades into explicit
//! retry pressure, never into memory growth or thread spawn.
//!
//! **Ordering**: workers finish out of order, but responses on one
//! connection must come back in request order (the NDJSON protocol has
//! no request ids). Each connection carries a sequence counter and a
//! reorder buffer; completions park until their turn on the wire.
//!
//! **Shutdown is a drain**, not an abandonment: the acceptor stops,
//! readers stop admitting and are joined, the queue is closed, workers
//! finish every admitted request and are joined. When
//! [`ServerHandle::shutdown`] returns, no thread that could touch the
//! [`TwinService`] exists — the old detached-handler race (shutdown
//! returning while a handler mid-`Advance` still mutates the live
//! twin) is gone at the architectural level.

use crate::metrics::{request_kind, ServiceObs, REQUEST_KINDS};
use crate::protocol::{Request, Response, MAX_LINE_BYTES};
use crate::server::TwinService;
use exadigit_obs::{HttpExporter, Stage, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-tier tuning knobs (see `docs/SERVICE.md` § "Serving tier").
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests — the only threads that touch
    /// the [`TwinService`], so this bounds service concurrency.
    pub workers: usize,
    /// Reader threads multiplexing connection sockets (each owns a
    /// share of the connections; non-blocking reads, so hundreds of
    /// idle connections cost no threads).
    pub readers: usize,
    /// Bounded request-queue depth; a full queue answers
    /// [`Response::Busy`].
    pub queue_depth: usize,
    /// Per-connection in-flight cap (fairness): one pipelining client
    /// cannot occupy every worker and queue slot.
    pub max_inflight_per_client: usize,
}

/// Back-off hint carried by [`Response::Busy`], milliseconds.
const RETRY_AFTER_MS: u64 = 20;

/// How long a reader sleeps when every socket it owns is idle.
const READER_NAP: Duration = Duration::from_micros(250);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            readers: 2,
            queue_depth: 128,
            max_inflight_per_client: 2,
        }
    }
}

/// One admitted request, waiting for (or held by) a worker.
struct Ticket {
    conn: Arc<ConnShared>,
    seq: u64,
    request: Request,
    /// Admission instant; queue wait = pop time − this.
    admitted_at: Instant,
}

/// The bounded MPMC request queue between readers and workers.
struct RequestQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    depth: usize,
    /// `exadigit_queue_depth`, updated under the queue mutex so the
    /// gauge and the queue can't disagree.
    depth_gauge: exadigit_obs::Gauge,
}

struct QueueState {
    tickets: VecDeque<Ticket>,
    closed: bool,
}

impl RequestQueue {
    fn new(depth: usize, depth_gauge: exadigit_obs::Gauge) -> Self {
        RequestQueue {
            state: Mutex::new(QueueState { tickets: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            depth: depth.max(1),
            depth_gauge,
        }
    }

    /// Admit a ticket, or hand it back (`Some`) when the queue is
    /// full/closed — the caller answers `Busy` / shutting-down.
    fn try_push(&self, ticket: Ticket) -> Option<Ticket> {
        let mut state = self.state.lock().unwrap();
        if state.closed || state.tickets.len() >= self.depth {
            return Some(ticket);
        }
        state.tickets.push_back(ticket);
        self.depth_gauge.set(state.tickets.len() as f64);
        drop(state);
        self.ready.notify_one();
        None
    }

    /// Block for the next ticket; `None` once closed *and* drained, so
    /// workers finish every admitted request before exiting.
    fn pop(&self) -> Option<Ticket> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(ticket) = state.tickets.pop_front() {
                self.depth_gauge.set(state.tickets.len() as f64);
                return Some(ticket);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// Bound on consecutive `WouldBlock` write stalls (~2 s at 200 µs
/// naps): a client that stops reading cannot park a worker forever.
const WRITE_STALL_LIMIT: u32 = 10_000;

/// Write one JSON line to a non-blocking socket, napping briefly on a
/// full send buffer.
fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut line = serde_json::to_string(response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        .into_bytes();
    line.push(b'\n');
    let mut written = 0;
    let mut stalls = 0u32;
    while written < line.len() {
        match stream.write(&line[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                written += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                stalls += 1;
                if stalls > WRITE_STALL_LIMIT {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The write half of a connection plus its response-ordering state,
/// shared between the owning reader and the workers.
struct ConnShared {
    write: Mutex<WriteState>,
    /// Admitted-but-unanswered requests on this connection (the
    /// fairness cap meters this).
    inflight: AtomicUsize,
    /// Server-assigned connection id, labelling this connection's
    /// events in the request trace.
    id: u64,
}

struct WriteState {
    stream: TcpStream,
    /// Sequence number owed to the client next.
    next_to_write: u64,
    /// Out-of-order completions parked until their turn.
    parked: BTreeMap<u64, Response>,
    /// Set on a write failure; later responses are dropped silently.
    dead: bool,
}

impl ConnShared {
    /// Complete request `seq`: park its response, then flush every
    /// parked response whose turn has come. Workers finish out of
    /// order; the wire stays strictly request-ordered.
    fn complete(&self, seq: u64, response: Response) {
        let mut w = self.write.lock().unwrap();
        w.parked.insert(seq, response);
        while let Some(response) = {
            let due = w.next_to_write;
            w.parked.remove(&due)
        } {
            if !w.dead && write_response(&mut w.stream, &response).is_err() {
                w.dead = true;
            }
            w.next_to_write += 1;
        }
    }
}

/// The read half of a connection, owned by exactly one reader thread.
struct Connection {
    stream: TcpStream,
    lines: LineBuffer,
    next_seq: u64,
    shared: Arc<ConnShared>,
}

/// A pending line longer than [`MAX_LINE_BYTES`].
#[derive(Debug)]
struct LineTooLong;

/// Bytes read from one connection, cut into `\n`-terminated lines.
///
/// The scan cursor means each byte is searched for a newline once, no
/// matter how finely a long line is split across reads, and handed-out
/// lines are dropped in one [`LineBuffer::compact`] rather than one
/// front `drain` per line.
#[derive(Default)]
struct LineBuffer {
    buf: Vec<u8>,
    /// Start of the first line not yet handed out.
    start: usize,
    /// `buf[start..scanned]` is known to hold no newline.
    scanned: usize,
}

impl LineBuffer {
    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, without its newline. Errs once the
    /// pending line exceeds [`MAX_LINE_BYTES`] (newline included) —
    /// the blocking reader's cap.
    fn next_line(&mut self) -> Result<Option<Range<usize>>, LineTooLong> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let end = self.scanned + offset;
                if end + 1 - self.start > MAX_LINE_BYTES {
                    return Err(LineTooLong);
                }
                let line = self.start..end;
                self.start = end + 1;
                self.scanned = self.start;
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() - self.start > MAX_LINE_BYTES {
                    Err(LineTooLong)
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Drop the lines already handed out.
    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
    }
}

enum Pump {
    /// Nothing readable right now.
    Idle,
    /// Made progress (bytes read / requests admitted).
    Progress,
    /// EOF, error, flood, or a shutdown request: drop the read half.
    Closed,
}

/// Everything a reader needs besides its own connection list.
struct ReaderCtx {
    queue: Arc<RequestQueue>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    addr: SocketAddr,
    obs: Arc<ServiceObs>,
}

/// Reads one pump may make before the reader moves on to its other
/// connections (64 KiB at 4 KiB a read): a client that never stops
/// sending cannot hold the reader.
const PUMP_READS: usize = 16;

/// Drain readable bytes from one connection and admit complete lines.
fn pump_connection(conn: &mut Connection, ctx: &ReaderCtx) -> Pump {
    let Connection { stream, lines, next_seq, shared } = conn;
    let mut progressed = false;
    let mut tmp = [0u8; 4096];
    let mut closed = false;
    for _ in 0..PUMP_READS {
        let n = match stream.read(&mut tmp) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                closed = true;
                break;
            }
        };
        lines.extend(&tmp[..n]);
        progressed = true;
        loop {
            let line = match lines.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => break,
                // A line past the cap: drop the connection, never grow
                // forever.
                Err(LineTooLong) => return Pump::Closed,
            };
            if process_line(next_seq, shared, &lines.buf[line], ctx) {
                return Pump::Closed;
            }
        }
    }
    lines.compact();
    if closed {
        Pump::Closed
    } else if progressed {
        Pump::Progress
    } else {
        Pump::Idle
    }
}

/// Parse one request line and run admission control. Returns true when
/// the connection should close (shutdown observed on this line).
fn process_line(
    next_seq: &mut u64,
    shared: &Arc<ConnShared>,
    line: &[u8],
    ctx: &ReaderCtx,
) -> bool {
    let text = String::from_utf8_lossy(line);
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return false;
    }
    let seq = *next_seq;
    *next_seq += 1;
    let request: Request = match serde_json::from_str(trimmed) {
        Ok(request) => request,
        Err(e) => {
            shared
                .complete(seq, Response::Error { message: format!("malformed request: {e}") });
            return false;
        }
    };
    // Shutdown is answered inline (no worker needed) and starts the
    // drain: flag the tier, wake the acceptor, close this connection.
    if matches!(request, Request::Shutdown) {
        shared.complete(seq, Response::ShuttingDown);
        ctx.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(ctx.addr);
        return true;
    }
    // A request racing a shutdown from another connection is refused:
    // admitted requests finish, new ones do not start.
    if ctx.shutdown.load(Ordering::SeqCst) {
        shared
            .complete(seq, Response::Error { message: "server is shutting down".into() });
        return true;
    }
    // Admission control. Fairness first: a connection over its
    // in-flight cap is refused before it can contend for queue slots.
    let kind = REQUEST_KINDS[request_kind(&request)];
    let trace_stage = |stage: Stage| {
        if ctx.obs.on() {
            ctx.obs.trace.push(TraceEvent {
                at_us: ctx.obs.trace.now_us(),
                conn: shared.id,
                seq,
                request: kind,
                stage,
                stage_us: 0,
            });
        }
    };
    let busy = Response::Busy { retry_after_ms: RETRY_AFTER_MS };
    if shared.inflight.load(Ordering::SeqCst) >= ctx.config.max_inflight_per_client {
        if ctx.obs.on() {
            ctx.obs.busy_inflight.inc();
        }
        trace_stage(Stage::Rejected);
        shared.complete(seq, busy);
        return false;
    }
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    trace_stage(Stage::Admitted);
    let ticket =
        Ticket { conn: Arc::clone(shared), seq, request, admitted_at: Instant::now() };
    if ctx.queue.try_push(ticket).is_some() {
        // Queue full (or closing): back the client off instead of
        // queueing unboundedly.
        if ctx.obs.on() {
            ctx.obs.busy_queue_full.inc();
        }
        trace_stage(Stage::Rejected);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.complete(seq, busy);
    }
    false
}

/// One reader: multiplex a share of the connections with non-blocking
/// reads, napping only when every socket is idle.
fn reader_loop(incoming: mpsc::Receiver<Connection>, ctx: ReaderCtx) {
    let mut conns: Vec<Connection> = Vec::new();
    loop {
        while let Ok(conn) = incoming.try_recv() {
            conns.push(conn);
        }
        if ctx.shutdown.load(Ordering::SeqCst) {
            // Stop admitting; already-admitted tickets drain through
            // the workers (they hold the write halves they need).
            return;
        }
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            match pump_connection(&mut conns[i], &ctx) {
                Pump::Idle => i += 1,
                Pump::Progress => {
                    progressed = true;
                    i += 1;
                }
                Pump::Closed => {
                    conns.swap_remove(i);
                }
            }
        }
        if ctx.obs.on() {
            if progressed {
                ctx.obs.wakeups_productive.inc();
            } else {
                ctx.obs.wakeups_wasted.inc();
            }
        }
        if !progressed {
            std::thread::sleep(READER_NAP);
        }
    }
}

/// One worker: execute admitted requests against the service, feeding
/// the queue-wait histogram, the lifecycle trace, and the slow-query
/// log along the way.
fn worker_loop(queue: Arc<RequestQueue>, service: Arc<TwinService>) {
    let obs = Arc::clone(service.obs());
    while let Some(ticket) = queue.pop() {
        let on = obs.on();
        let kind = REQUEST_KINDS[request_kind(&ticket.request)];
        let queue_wait = ticket.admitted_at.elapsed();
        if on {
            obs.queue_wait_seconds.observe_duration(queue_wait);
            obs.trace.push(TraceEvent {
                at_us: obs.trace.now_us(),
                conn: ticket.conn.id,
                seq: ticket.seq,
                request: kind,
                stage: Stage::Executing,
                stage_us: queue_wait.as_micros() as u64,
            });
        }
        let started = Instant::now();
        let response = service.handle(&ticket.request);
        let handled = started.elapsed();
        ticket.conn.complete(ticket.seq, response);
        if on {
            obs.trace.push(TraceEvent {
                at_us: obs.trace.now_us(),
                conn: ticket.conn.id,
                seq: ticket.seq,
                request: kind,
                stage: Stage::Written,
                stage_us: started.elapsed().as_micros() as u64,
            });
            let logged = obs.slowlog.record(
                kind,
                || crate::metrics::request_detail(&ticket.request),
                queue_wait.as_micros() as u64,
                handled.as_micros() as u64,
            );
            if logged {
                obs.slow_queries_total.inc();
            }
        }
        ticket.conn.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accept connections and deal them round-robin to the readers; on
/// shutdown, drain and join the whole tier.
fn supervise(
    listener: TcpListener,
    service: Arc<TwinService>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
) {
    let obs = Arc::clone(service.obs());
    let queue = Arc::new(RequestQueue::new(config.queue_depth, obs.queue_depth.clone()));
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            std::thread::spawn(move || worker_loop(queue, service))
        })
        .collect();
    let mut senders = Vec::new();
    let readers: Vec<JoinHandle<()>> = (0..config.readers.max(1))
        .map(|_| {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let ctx = ReaderCtx {
                queue: Arc::clone(&queue),
                shutdown: Arc::clone(&shutdown),
                config: config.clone(),
                addr,
                obs: Arc::clone(&obs),
            };
            std::thread::spawn(move || reader_loop(rx, ctx))
        })
        .collect();

    let mut next_reader = 0usize;
    let mut next_conn_id = 0u64;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let Ok(write_half) = stream.try_clone() else { continue };
        next_conn_id += 1;
        let conn = Connection {
            stream,
            lines: LineBuffer::default(),
            next_seq: 0,
            shared: Arc::new(ConnShared {
                write: Mutex::new(WriteState {
                    stream: write_half,
                    next_to_write: 0,
                    parked: BTreeMap::new(),
                    dead: false,
                }),
                inflight: AtomicUsize::new(0),
                id: next_conn_id,
            }),
        };
        let _ = senders[next_reader % senders.len()].send(conn);
        next_reader += 1;
    }

    // Graceful drain: readers stop admitting and are joined, then the
    // queue closes and workers finish every admitted request. After the
    // last join nothing can touch the service.
    for reader in readers {
        let _ = reader.join();
    }
    queue.close();
    for worker in workers {
        let _ = worker.join();
    }
}

/// The TCP front end: a bound listener ready to serve a [`TwinService`]
/// through the bounded worker pool.
pub struct TwinServer {
    listener: TcpListener,
    service: Arc<TwinService>,
    config: ServerConfig,
    /// Optional Prometheus scrape endpoint (`with_metrics_http`),
    /// serving from bind time until the handle drains.
    metrics_http: Option<HttpExporter>,
}

impl TwinServer {
    /// Bind to `addr` (use port 0 for an OS-assigned port, the loopback
    /// pattern tests and the example rely on) with the default
    /// [`ServerConfig`].
    pub fn bind(service: TwinService, addr: &str) -> std::io::Result<TwinServer> {
        Ok(TwinServer {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
            config: ServerConfig::default(),
            metrics_http: None,
        })
    }

    /// Replace the whole serving-tier configuration (builder style).
    pub fn with_config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Start a plain-HTTP metrics sidecar on `addr` (use port 0 for an
    /// OS-assigned port): `GET /metrics` answers the service's registry
    /// in Prometheus text exposition format 0.0.4. The listener serves
    /// immediately and stops when the server handle drains.
    pub fn with_metrics_http(mut self, addr: &str) -> std::io::Result<Self> {
        let service = Arc::clone(&self.service);
        self.metrics_http = Some(HttpExporter::serve(addr, move || service.render_prometheus())?);
        Ok(self)
    }

    /// The metrics sidecar's bound address, when one was started.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(|h| h.addr())
    }

    /// The bound address (connect [`crate::ServiceClient`] here).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Serve in a background supervisor thread until a
    /// [`Request::Shutdown`] arrives or the handle is shut down.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let supervisor = {
            let service = Arc::clone(&self.service);
            let shutdown = Arc::clone(&shutdown);
            let config = self.config;
            std::thread::spawn(move || supervise(self.listener, service, config, shutdown, addr))
        };
        ServerHandle {
            addr,
            shutdown,
            service: self.service,
            join: Some(supervisor),
            metrics_http: self.metrics_http,
        }
    }
}

/// Handle to a spawned server: address, shared service, orderly
/// shutdown. Dropping the handle also shuts the server down (joined,
/// never detached).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    service: Arc<TwinService>,
    join: Option<JoinHandle<()>>,
    metrics_http: Option<HttpExporter>,
}

impl ServerHandle {
    /// Address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics sidecar's address, when the server was built with
    /// [`TwinServer::with_metrics_http`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(|h| h.addr())
    }

    /// The served [`TwinService`] (e.g. to observe state after
    /// shutdown; the shutdown regression test pins that the twin stops
    /// moving once `shutdown` returns).
    pub fn service(&self) -> Arc<TwinService> {
        Arc::clone(&self.service)
    }

    /// Stop accepting connections and drain the tier: admitted requests
    /// finish, readers, workers, and the supervisor are all joined.
    /// When this returns, no server thread exists.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        // Stop the scrape endpoint last so metrics stay observable
        // through the drain itself.
        if let Some(exporter) = self.metrics_http.take() {
            exporter.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_sim::Rng;

    /// Feed `stream` to a [`LineBuffer`] in `cuts`-sized reads, compacting
    /// where `compact_at` says, and collect every line handed out.
    fn split_in_chunks(stream: &[u8], cuts: &[usize], compact_at: &[bool]) -> Vec<Vec<u8>> {
        let mut lines = LineBuffer::default();
        let mut out = Vec::new();
        let mut at = 0;
        for (i, &cut) in cuts.iter().chain(std::iter::repeat(&usize::MAX)).enumerate() {
            if at == stream.len() {
                break;
            }
            let end = at.saturating_add(cut.max(1)).min(stream.len());
            lines.extend(&stream[at..end]);
            at = end;
            while let Some(line) = lines.next_line().unwrap() {
                out.push(lines.buf[line].to_vec());
            }
            if compact_at.get(i).copied().unwrap_or(true) {
                lines.compact();
            }
        }
        out
    }

    #[test]
    fn any_chunking_of_a_stream_yields_the_same_lines() {
        let mut rng = Rng::new(0x11E5);
        for case in 0..256 {
            let stream: Vec<u8> = (0..rng.uniform_usize(400))
                .map(|_| if rng.chance(0.1) { b'\n' } else { b'a' + rng.uniform_usize(26) as u8 })
                .collect();
            let mut expected: Vec<Vec<u8>> =
                stream.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
            expected.pop(); // the unterminated tail is not a line yet
            let cuts: Vec<usize> = (0..64).map(|_| 1 + rng.uniform_usize(40)).collect();
            let compact_at: Vec<bool> = (0..64).map(|_| rng.chance(0.5)).collect();
            assert_eq!(split_in_chunks(&stream, &cuts, &compact_at), expected, "case {case}");
            assert_eq!(split_in_chunks(&stream, &[stream.len()], &[true]), expected, "case {case}");
        }
    }

    #[test]
    fn the_cap_applies_to_the_pending_line_not_the_buffer() {
        let mut lines = LineBuffer::default();
        // Complete lines totalling more than the cap are fine…
        let line = vec![b'x'; MAX_LINE_BYTES / 4];
        for _ in 0..5 {
            lines.extend(&line);
            lines.extend(b"\n");
        }
        let mut count = 0;
        while lines.next_line().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 5);
        // …and a line of exactly the cap, newline included, still passes.
        lines.extend(&vec![b'y'; MAX_LINE_BYTES - 1]);
        lines.extend(b"\n");
        assert_eq!(lines.next_line().unwrap().map(|r| r.len()), Some(MAX_LINE_BYTES - 1));
        lines.compact();
        // One byte more on the pending line is refused, newline or not.
        lines.extend(&vec![b'z'; MAX_LINE_BYTES]);
        assert!(lines.next_line().unwrap().is_none());
        lines.extend(b"\n");
        assert!(lines.next_line().is_err());
    }
}
