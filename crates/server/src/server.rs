//! The `natix serve` daemon: a TCP front door over [`SharedStore`].
//!
//! Three kinds of threads cooperate:
//!
//! * **acceptor** — accepts connections on a [`std::net::TcpListener`]
//!   and queues them for the worker pool;
//! * **workers** — each handles one connection at a time: read a frame,
//!   decode it, forward the request to the store service, wait for its
//!   reply, and write it back. Snapshot reads (`query`, `dump`) are
//!   *evaluated* here: the service answers them with a [`ReadTicket`] — a
//!   lent pin plus the `Send` seed of its epoch — and the worker opens
//!   its own pager and pool, runs the XPath evaluation and rendering, and
//!   hands the pin back through a drop guard. Read parallelism is
//!   [`ServeConfig::workers`];
//! * **store service** — the single thread that owns the [`SharedStore`]
//!   (the concurrent facade is deliberately single-threaded; see
//!   `natix_store::concurrent`). It pins, renews, releases and writes —
//!   it never evaluates a primary's read. [`Request::Begin`] pins the
//!   committed epoch for the connection, and every read on a pinned
//!   connection is lent that pin until [`Request::End`] or disconnect;
//!   an unpinned read is lent a pin of its own. The pin budget
//!   ([`ServeConfig::max_pins`]) is the one overload gate: a `begin` or
//!   unpinned read past it is answered with a typed
//!   [`ResponseBody::RetryAfter`], and the client retries. No read is
//!   evaluated without a pin. A pin with a read in flight is never
//!   reaped, and since checkpoints wait for every pin, never
//!   checkpointed under.
//!
//! Graceful shutdown ([`Request::Shutdown`] or [`ServerHandle::shutdown`])
//! stops the acceptor, lets every worker finish the frame it is reading
//! (with a drain grace period) and the read it is evaluating, answers
//! everything already queued, and only then releases the remaining
//! session pins and runs deferred store maintenance — in-flight requests
//! drain before pins are torn down.

use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use natix_store::{
    fsck, AdmissionConfig, ApplyOutcome, CapturePager, ErrorCategory, FilePager, Follower,
    ReplicaSource, SharedStore, SnapshotSeed, StoreConfig, StoreError, XmlStore,
    READ_ONLY_RETRY_HINT_MS,
};
use natix_xml::NodeKind;
use natix_xpath::{eval, eval_with};

use crate::wire::{
    read_frame, write_frame, ErrKind, ProtoError, Request, Response, ResponseBody, ShedKind,
    UpdateOp, MAX_FRAME,
};

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the store file to serve (opened with crash recovery).
    pub store: PathBuf,
    /// Listen address; use port 0 for an ephemeral port (the bound
    /// address is in [`ServerHandle::addr`]).
    pub addr: String,
    /// Connection workers: concurrent connections served, and — since
    /// each worker evaluates its connection's reads itself — snapshot
    /// reads running in parallel. An idle-but-open connection (a held
    /// session pin, say) occupies one.
    pub workers: usize,
    /// Snapshot pins allowed in flight at once (session pins plus one
    /// per unpinned read being evaluated) — the server's one overload
    /// gate. A `begin` or unpinned read past it is shed with a typed
    /// retry-after.
    pub max_pins: u32,
    /// Buffer-pool page budget override for the served store.
    pub pool_pages: Option<usize>,
    /// Session-pin lease TTL in milliseconds. A pinned session that goes
    /// this long without sending any request has its pin released by the
    /// store service (unblocking reclamation and freeing the admission
    /// slot); the session's next request is answered with
    /// [`ResponseBody::SessionExpired`] so well-behaved clients
    /// re-`begin`. 0 disables lease expiry.
    pub lease_ttl_ms: u64,
    /// Run as a replica of this `HOST:PORT` primary: serve read-only
    /// queries from replicated state, refuse writes with a typed
    /// read-only shed, and keep pulling batches until promoted.
    pub replica_of: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store: PathBuf::new(),
            addr: "127.0.0.1:0".to_string(),
            // More than `natix net shed-probe`'s default of 4 pins, so the
            // probe's held sessions cannot take every worker.
            workers: 8,
            max_pins: 64,
            pool_pages: None,
            lease_ttl_ms: 30_000,
            replica_of: None,
        }
    }
}

/// Failure to start the server.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the listen address.
    Bind(std::io::Error),
    /// Could not open the store.
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind: {e}"),
            ServeError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Monotonic counters kept by the server, snapshot into [`ServeSummary`].
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    proto_errors: AtomicU64,
    worker_panics: AtomicU64,
    lease_expirations: AtomicU64,
    write_timeout_kills: AtomicU64,
    reads_in_flight: AtomicU64,
    peak_reads_in_flight: AtomicU64,
}

/// Point-in-time snapshot of the server's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Frames decoded into requests.
    pub requests: u64,
    /// OK responses sent.
    pub ok: u64,
    /// Typed error responses sent.
    pub errors: u64,
    /// Retry-after responses sent.
    pub shed: u64,
    /// Always 0: the server has no queue gate. Kept only because the
    /// frozen benchmark package reads it.
    pub queue_shed: u64,
    /// Malformed frames answered with a protocol error.
    pub proto_errors: u64,
    /// Connection handlers that panicked (must stay 0; the pool
    /// survives them).
    pub worker_panics: u64,
    /// Session pins released by the lease reaper because the session
    /// went idle past its TTL.
    pub lease_expirations: u64,
    /// Connections closed because a response write hit the write
    /// deadline (stalled reader).
    pub write_timeout_kills: u64,
    /// Snapshot reads being evaluated on workers right now (pins lent
    /// out and not yet handed back; 0 after a drain).
    pub reads_in_flight: u64,
    /// Most reads that were ever in flight at once.
    pub peak_reads_in_flight: u64,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conn, {} req ({} ok, {} err, {} shed, {} proto), {} panics, {} leases expired, {} write kills, {} reads in flight (peak {})",
            self.connections,
            self.requests,
            self.ok,
            self.errors,
            self.shed,
            self.proto_errors,
            self.worker_panics,
            self.lease_expirations,
            self.write_timeout_kills,
            self.reads_in_flight,
            self.peak_reads_in_flight
        )
    }
}

/// What flows from the workers to the store service.
enum ServiceMsg {
    Request {
        conn: u64,
        req: Request,
        reply: Sender<Envelope>,
    },
    /// A lent pin coming back: the read of a [`ReadTicket`] ended (see
    /// [`ReadGuard`]).
    ReadDone {
        conn: u64,
        pin: u64,
    },
    Disconnect {
        conn: u64,
    },
}

/// What the store service answers a request with.
enum Reply {
    /// Answered on the service thread.
    Done(Response),
    /// A snapshot read for the worker to evaluate.
    Read(ReadTicket),
}

/// A reply, plus the connection's reply sender on its way back to the
/// worker for the next request. The worker holds no sender while it
/// waits, so a dead store service is a closed channel, not a hang.
struct Envelope {
    reply: Reply,
    back: Sender<Envelope>,
}

/// The read a [`ReadTicket`] asks its worker to evaluate.
enum ReadOp {
    Query {
        path: natix_xpath::Path,
        count_only: bool,
    },
    Dump,
}

/// A pin lent to a worker for one read, with the seed of the pinned
/// epoch to open (or re-use) a view from.
struct ReadTicket {
    pin: u64,
    /// The pin is the connection's session pin: the worker keeps the
    /// view, warm, for the session's later reads.
    session: bool,
    seed: SnapshotSeed,
    op: ReadOp,
}

/// Handle over a running server. Dropping it does *not* stop the server;
/// call [`ServerHandle::shutdown`] (or send [`Request::Shutdown`] over
/// the wire) and then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to shut down gracefully (idempotent).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the counters so far.
    pub fn summary(&self) -> ServeSummary {
        let c = &self.counters;
        ServeSummary {
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            ok: c.ok.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            queue_shed: 0,
            proto_errors: c.proto_errors.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            lease_expirations: c.lease_expirations.load(Ordering::Relaxed),
            write_timeout_kills: c.write_timeout_kills.load(Ordering::Relaxed),
            reads_in_flight: c.reads_in_flight.load(Ordering::Relaxed),
            peak_reads_in_flight: c.peak_reads_in_flight.load(Ordering::Relaxed),
        }
    }

    /// Wait for the server to finish (after a shutdown was requested) and
    /// return the final counters.
    pub fn join(mut self) -> ServeSummary {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.summary()
    }
}

/// Start the daemon: bind, open the store (running crash recovery), and
/// spawn the acceptor, worker pool and store service. Returns once the
/// store is open and the listener is accepting.
pub fn serve(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&config.addr).map_err(ServeError::Bind)?;
    let addr = listener.local_addr().map_err(ServeError::Bind)?;
    listener.set_nonblocking(true).map_err(ServeError::Bind)?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let promoted = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    // Unbounded in type, bounded by construction: a worker waits for the
    // reply to its one request, so it has at most three messages queued
    // (a `ReadDone`, a `Disconnect`, the next `Request`), and a replica's
    // fetch loop at most one. Overload is shed at the pin budget instead.
    let (store_tx, store_rx) = mpsc::channel::<ServiceMsg>();
    let (ready_tx, ready_rx) = mpsc::channel::<Result<(), StoreError>>();

    let mut threads = Vec::new();

    // Store service: owns the SharedStore (single-threaded facade) and
    // the session → snapshot-pin table.
    {
        let config = config.clone();
        let counters = Arc::clone(&counters);
        let promoted = Arc::clone(&promoted);
        threads.push(
            std::thread::Builder::new()
                .name("natix-store-svc".into())
                .spawn(move || store_service(config, store_rx, ready_tx, counters, promoted))
                .expect("spawn store service"),
        );
    }
    match ready_rx.recv() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            // The store thread already exited; reap it.
            for t in threads {
                let _ = t.join();
            }
            return Err(ServeError::Store(e));
        }
        Err(_) => {
            return Err(ServeError::Store(StoreError::Io {
                source: std::io::Error::other("store service died during startup"),
                page: None,
                op: "open",
            }))
        }
    }

    let (conn_tx, conn_rx) = mpsc::sync_channel::<(TcpStream, u64)>(config.workers.max(1) * 2);
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    for i in 0..config.workers.max(1) {
        let conn_rx = Arc::clone(&conn_rx);
        let store_tx = store_tx.clone();
        let store = config.store.clone();
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        threads.push(
            std::thread::Builder::new()
                .name(format!("natix-worker-{i}"))
                .spawn(move || worker_loop(conn_rx, store_tx, store, shutdown, counters))
                .expect("spawn worker"),
        );
    }
    // A replica keeps a fetch loop pulling batches from the primary and
    // feeding them through the same service queue the workers use, so
    // applies serialize with reads in arrival order.
    if let Some(source) = config.replica_of.clone() {
        let store_tx = store_tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let promoted = Arc::clone(&promoted);
        threads.push(
            std::thread::Builder::new()
                .name("natix-repl-client".into())
                .spawn(move || repl_client_loop(source, store_tx, shutdown, promoted))
                .expect("spawn repl client"),
        );
    }
    // The workers (and a replica's fetch loop) hold the only long-lived
    // senders: when the last one exits after a shutdown, the store
    // service drains and stops.
    drop(store_tx);

    {
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        threads.push(
            std::thread::Builder::new()
                .name("natix-acceptor".into())
                .spawn(move || acceptor_loop(listener, conn_tx, shutdown, counters))
                .expect("spawn acceptor"),
        );
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        counters,
        threads,
    })
}

fn acceptor_loop(
    listener: TcpListener,
    conn_tx: SyncSender<(TcpStream, u64)>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let mut next_conn = 1u64;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                counters.connections.fetch_add(1, Ordering::Relaxed);
                if stream.set_nonblocking(false).is_err()
                    || conn_tx.send((stream, next_conn)).is_err()
                {
                    break;
                }
                next_conn += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

fn worker_loop(
    conn_rx: Arc<Mutex<Receiver<(TcpStream, u64)>>>,
    store_tx: Sender<ServiceMsg>,
    store: PathBuf,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    loop {
        // Hold the queue lock only while waiting, so workers take turns.
        let next = {
            let rx = conn_rx.lock().expect("conn queue poisoned");
            rx.recv_timeout(Duration::from_millis(50))
        };
        match next {
            Ok((stream, conn)) => {
                // A panicking handler must not shrink the pool: count it,
                // drop the connection, keep serving.
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    handle_conn(stream, conn, &store_tx, &store, &shutdown, &counters)
                }));
                if r.is_err() {
                    counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                }
                let _ = store_tx.send(ServiceMsg::Disconnect { conn });
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// What one attempt to read a frame from a connection produced.
enum FrameOutcome {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// The peer closed at a frame boundary, or the connection is idle
    /// while the server shuts down.
    Close,
    /// An undelimitable length prefix; answer and close.
    BadLength(u32),
    /// Transport failure (including mid-frame disconnects); just close.
    Broken,
}

/// Read one frame, tolerating read timeouts so the worker can observe the
/// shutdown flag: an *idle* connection closes immediately on shutdown,
/// while a frame already in progress gets a drain grace period.
fn read_frame_shutdown_aware(stream: &mut TcpStream, shutdown: &AtomicBool) -> FrameOutcome {
    let mut len = [0u8; 4];
    match read_full(stream, &mut len, shutdown, true) {
        ReadFull::Done => {}
        ReadFull::CleanClose | ReadFull::IdleShutdown => return FrameOutcome::Close,
        ReadFull::Broken => return FrameOutcome::Broken,
    }
    let n = u32::from_le_bytes(len);
    if n == 0 || n > MAX_FRAME {
        return FrameOutcome::BadLength(n);
    }
    let mut body = vec![0u8; n as usize];
    match read_full(stream, &mut body, shutdown, false) {
        ReadFull::Done => FrameOutcome::Frame(body),
        ReadFull::CleanClose | ReadFull::Broken | ReadFull::IdleShutdown => FrameOutcome::Broken,
    }
}

enum ReadFull {
    Done,
    CleanClose,
    IdleShutdown,
    Broken,
}

fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    at_boundary: bool,
) -> ReadFull {
    let mut got = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && at_boundary {
                    ReadFull::CleanClose
                } else {
                    ReadFull::Broken
                };
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    if got == 0 && at_boundary {
                        return ReadFull::IdleShutdown;
                    }
                    // Mid-frame: let the peer finish within the grace
                    // window, then give up.
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                    if Instant::now() >= deadline {
                        return ReadFull::Broken;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadFull::Broken,
        }
    }
    ReadFull::Done
}

/// How long a worker keeps waiting for the rest of an in-progress frame
/// after shutdown is requested.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Poll interval of connection reads (frequency at which the shutdown
/// flag is observed on idle connections).
const READ_POLL: Duration = Duration::from_millis(50);

/// Deadline for writing a response frame. A peer that stops draining its
/// receive buffer would otherwise park the worker in `write_all` forever;
/// expiry is connection-fatal (the frame may be torn mid-write) and is
/// counted in [`ServeSummary::write_timeout_kills`].
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

fn send_response(stream: &mut TcpStream, resp: &Response) -> Result<(), ProtoError> {
    let mut body = resp.encode();
    if body.len() > MAX_FRAME as usize {
        // A response that cannot be framed (absurdly large query result)
        // degrades to a typed error instead of a broken stream.
        body = Response {
            epoch: resp.epoch,
            body: ResponseBody::Error {
                kind: ErrKind::Internal,
                message: "response exceeds frame limit".to_string(),
            },
        }
        .encode();
    }
    write_frame(stream, &body)
}

/// Send a response, counting write-deadline expiries. Returns `false`
/// when the connection must close.
fn send_counted(stream: &mut TcpStream, resp: &Response, counters: &Counters) -> bool {
    match send_response(stream, resp) {
        Ok(()) => true,
        Err(ProtoError::Io(e))
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            counters.write_timeout_kills.fetch_add(1, Ordering::Relaxed);
            false
        }
        Err(_) => false,
    }
}

fn handle_conn(
    mut stream: TcpStream,
    conn: u64,
    store_tx: &Sender<ServiceMsg>,
    store: &Path,
    shutdown: &AtomicBool,
    counters: &Counters,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
    // One reply channel per connection; its sender travels with each
    // request and comes back in the reply's envelope.
    let (reply_tx, reply_rx) = mpsc::channel::<Envelope>();
    let mut reply_tx = Some(reply_tx);
    // The open view of a pinned epoch; a session's stays, warm, across
    // its requests.
    let mut view: Option<View> = None;
    loop {
        let body = match read_frame_shutdown_aware(&mut stream, shutdown) {
            FrameOutcome::Frame(b) => b,
            FrameOutcome::Close | FrameOutcome::Broken => break,
            FrameOutcome::BadLength(n) => {
                counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send_counted(
                    &mut stream,
                    &Response {
                        epoch: 0,
                        body: ResponseBody::Error {
                            kind: ErrKind::Proto,
                            message: format!("bad frame length {n} (max {MAX_FRAME})"),
                        },
                    },
                    counters,
                );
                break;
            }
        };
        let req = match Request::decode(&body) {
            Ok(r) => r,
            Err(e) => {
                // The frame was delimited; answer typed and keep going.
                counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                let ok = send_counted(
                    &mut stream,
                    &Response {
                        epoch: 0,
                        body: ResponseBody::Error {
                            kind: ErrKind::Proto,
                            message: e.to_string(),
                        },
                    },
                    counters,
                );
                if ok {
                    continue;
                }
                break;
            }
        };
        counters.requests.fetch_add(1, Ordering::Relaxed);
        if matches!(req, Request::Shutdown) {
            counters.ok.fetch_add(1, Ordering::Relaxed);
            let _ = send_counted(
                &mut stream,
                &Response {
                    epoch: 0,
                    body: ResponseBody::ShuttingDown,
                },
                counters,
            );
            shutdown.store(true, Ordering::SeqCst);
            break;
        }
        if matches!(req, Request::Begin | Request::End) {
            // The pin the view belongs to is about to go.
            view = None;
        }
        let internal = |message: &str| {
            Reply::Done(Response {
                epoch: 0,
                body: ResponseBody::Error {
                    kind: ErrKind::Internal,
                    message: message.to_string(),
                },
            })
        };
        let reply = match reply_tx.take() {
            // The sender died with the store service on an earlier request.
            None => internal("store service unavailable"),
            Some(reply) => match store_tx.send(ServiceMsg::Request { conn, req, reply }) {
                Ok(()) => match reply_rx.recv() {
                    Ok(envelope) => {
                        reply_tx = Some(envelope.back);
                        envelope.reply
                    }
                    Err(_) => internal("store service unavailable"),
                },
                Err(_) => internal("store service stopped"),
            },
        };
        let resp = match reply {
            Reply::Done(resp) => resp,
            Reply::Read(ticket) => run_read(ticket, conn, store_tx, store, &mut view),
        };
        match &resp.body {
            ResponseBody::Error { .. } => counters.errors.fetch_add(1, Ordering::Relaxed),
            ResponseBody::RetryAfter { .. } => counters.shed.fetch_add(1, Ordering::Relaxed),
            _ => counters.ok.fetch_add(1, Ordering::Relaxed),
        };
        if !send_counted(&mut stream, &resp, counters) {
            break;
        }
    }
}

// ------------------------------------------------- worker-side reads

/// A worker's open view of one pinned epoch: a read-only store over the
/// worker's own pager and pool.
struct View {
    pin: u64,
    store: XmlStore,
}

/// Hands a lent pin back to the store service when the read ends —
/// by completing, by the handler unwinding from a panic, or with the
/// connection. The send never blocks, and the service never waits on a
/// worker, so it cannot deadlock.
struct ReadGuard<'a> {
    tx: &'a Sender<ServiceMsg>,
    conn: u64,
    pin: u64,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        let _ = self.tx.send(ServiceMsg::ReadDone {
            conn: self.conn,
            pin: self.pin,
        });
    }
}

/// Evaluate a ticket's read on this worker and build the response.
fn run_read(
    ticket: ReadTicket,
    conn: u64,
    store_tx: &Sender<ServiceMsg>,
    path: &Path,
    slot: &mut Option<View>,
) -> Response {
    let (epoch, pin) = (ticket.seed.epoch(), ticket.pin);
    let guard = ReadGuard {
        tx: store_tx,
        conn,
        pin,
    };
    #[cfg(test)]
    if let ReadOp::Query { path, .. } = &ticket.op {
        assert!(!path.to_string().contains(tests::PANIC_PROBE), "injected");
    }
    // A session's later reads find the view of their pin already open.
    if slot.as_ref().map(|v| v.pin) != Some(pin) {
        *slot = None;
        match FilePager::open(path).and_then(|raw| ticket.seed.open(Box::new(raw))) {
            Ok(store) => *slot = Some(View { pin, store }),
            Err(e) => return store_error_response(epoch, &e),
        }
    }
    let view = slot.as_mut().expect("opened above");
    let body = match &ticket.op {
        ReadOp::Query { path, count_only } => {
            query_lines(&mut view.store, path, *count_only, Some(MAX_QUERY_LINES))
                .map(|(count, lines)| ResponseBody::QueryResult { count, lines })
        }
        ReadOp::Dump => dump_body(&mut view.store),
    };
    if !ticket.session {
        *slot = None;
    }
    // The pin goes back before the response meets the socket.
    drop(guard);
    match body {
        Ok(body) => Response { epoch, body },
        Err(e) => store_error_response(epoch, &e),
    }
}

/// Evaluate `path` over `store`: the exact hit count, and unless
/// `count_only` the first `cap` hits (all of them without one) rendered
/// the way `natix query` prints them. A hit is rendered where the walk
/// finds it, from a record the store still holds; only hits the line cap
/// had no room for at that point are rendered afterwards.
pub fn query_lines(
    store: &mut XmlStore,
    path: &natix_xpath::Path,
    count_only: bool,
    cap: Option<usize>,
) -> Result<(u32, Vec<String>), StoreError> {
    let shown = if count_only {
        0
    } else {
        cap.unwrap_or(usize::MAX)
    };
    let mut budget = shown;
    let hits = {
        let mut nav = natix_xpath::StoreNavigator::new(store);
        eval_with(&mut nav, path, |nav, r| {
            let Some(left) = budget.checked_sub(1) else {
                return Ok(None);
            };
            budget = left;
            render_hit(nav.store(), r).map(Some)
        })?
    };
    let count = hits.len() as u32;
    let lines = hits.into_iter().take(shown).map(|(r, line)| match line {
        Some(line) => Ok(line),
        None => render_hit(store, r),
    });
    Ok((count, lines.collect::<Result<_, _>>()?))
}

/// The whole document as a dump response body (a strict read).
fn dump_body(store: &mut XmlStore) -> Result<ResponseBody, StoreError> {
    Ok(ResponseBody::DumpResult {
        xml: store.to_document()?.to_xml(),
    })
}

// ------------------------------------------------------- store service

/// One pinned session: the pin, the seed its reads are lent, and the
/// lease bookkeeping. Dropping it gives the pin back (the store applies
/// the release on its next write or maintenance pass, unblocking
/// reclamation). The session's *view* lives with its worker.
struct Session {
    shared: SharedStore,
    pin_id: u64,
    seed: SnapshotSeed,
    /// When the pin was acquired (for oldest-pin-age observability).
    pinned_at: Instant,
    /// Last time any request arrived on this session (lease renewal).
    renewed: Instant,
    /// The pin is lent to the worker for a read that has not come back.
    reading: bool,
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.release_read(self.pin_id);
    }
}

/// Release every session whose lease is overdue — except one whose pin
/// is lent out: its worker is still reading under it, and the reaper
/// gets it on a later tick. The connection is remembered in `expired`
/// so its next request is answered with [`ResponseBody::SessionExpired`]
/// exactly once.
fn reap_leases(
    sessions: &mut HashMap<u64, Session>,
    expired: &mut HashSet<u64>,
    counters: &Counters,
    ttl: Duration,
) {
    let now = Instant::now();
    let overdue: Vec<u64> = sessions
        .iter()
        .filter(|(_, s)| !s.reading && now.duration_since(s.renewed) > ttl)
        .map(|(&conn, _)| conn)
        .collect();
    for conn in overdue {
        sessions.remove(&conn);
        expired.insert(conn);
        counters.lease_expirations.fetch_add(1, Ordering::Relaxed);
    }
}

/// What the store service is serving: a writable primary that also
/// feeds subscribed followers, or a read-only replica applying batches.
/// [`Request::ReplPromote`] swaps a `Replica` to a `Primary` in place.
///
/// Exactly one `Role` exists per daemon, so the size gap between the
/// variants costs nothing — boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum Role {
    Primary {
        shared: SharedStore,
        repl: ReplicaSource,
        /// The fencing epoch when this primary was promoted from a
        /// replica: [`Request::ReplApply`] is refused with
        /// [`ErrKind::Fenced`] instead of a plain bad-request.
        fence: Option<u64>,
    },
    Replica {
        follower: Follower,
        /// Lazily opened read-only store over the applied state,
        /// invalidated whenever a batch lands.
        reader: Option<XmlStore>,
        source: String,
        path: PathBuf,
        store_config: StoreConfig,
        admission: AdmissionConfig,
    },
}

/// Open the primary serving stack over `path`: raw file → write capture
/// (feeding replication cuts) → shared store, plus the replication
/// source draining the capture.
fn open_primary_role(
    path: &Path,
    store_config: StoreConfig,
    admission: AdmissionConfig,
    fence: Option<u64>,
) -> Result<Role, StoreError> {
    let backend = FilePager::open(path)?;
    let capture = CapturePager::new(Box::new(backend));
    let handle = capture.handle();
    let shared = SharedStore::open(
        Box::new(capture),
        Box::new(path.to_path_buf()),
        store_config,
        admission,
    )?;
    let repl = ReplicaSource::new(
        Box::new(path.to_path_buf()),
        handle,
        shared.committed_epoch(),
    );
    Ok(Role::Primary {
        shared,
        repl,
        fence,
    })
}

fn store_service(
    config: ServeConfig,
    rx: Receiver<ServiceMsg>,
    ready: Sender<Result<(), StoreError>>,
    counters: Arc<Counters>,
    promoted: Arc<AtomicBool>,
) {
    let mut store_config = StoreConfig::default();
    if let Some(n) = config.pool_pages {
        store_config.buffer_pages = n;
    }
    let admission = AdmissionConfig {
        max_inflight_reads: config.max_pins,
    };
    let mut role = match &config.replica_of {
        // A replica opens nothing up front: a missing file simply means
        // the first fetch bootstraps it from a snapshot.
        Some(source) => Role::Replica {
            follower: Follower::open(config.store.clone(), store_config),
            reader: None,
            source: source.clone(),
            path: config.store.clone(),
            store_config,
            admission,
        },
        None => match open_primary_role(&config.store, store_config, admission, None) {
            Ok(r) => r,
            Err(e) => {
                let _ = ready.send(Err(e));
                return;
            }
        },
    };
    let _ = ready.send(Ok(()));

    let lease_ttl = match config.lease_ttl_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    // Wake often enough that a lease is reaped well within one TTL even
    // on a completely idle server.
    let tick = lease_ttl
        .map(|t| (t / 4).max(Duration::from_millis(10)))
        .unwrap_or(Duration::from_millis(500));

    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut expired: HashSet<u64> = HashSet::new();
    // Drain until every worker has dropped its sender: all in-flight
    // requests are answered — and every lent pin is back, a worker sends
    // its `ReadDone` before it can exit — before the session pins below
    // are released.
    loop {
        match rx.recv_timeout(tick) {
            Ok(ServiceMsg::Request { conn, req, reply }) => {
                let r = handle_request(
                    &mut role,
                    &mut sessions,
                    &mut expired,
                    &counters,
                    &promoted,
                    conn,
                    req,
                );
                let back = reply.clone();
                let _ = reply.send(Envelope { reply: r, back });
            }
            // A lent pin is back: a session's stays pinned for its next
            // read, an unpinned read's is released.
            Ok(ServiceMsg::ReadDone { conn, pin }) => {
                counters.reads_in_flight.fetch_sub(1, Ordering::Relaxed);
                match sessions.get_mut(&conn) {
                    Some(s) if s.pin_id == pin => s.reading = false,
                    _ => {
                        if let Role::Primary { shared, .. } = &role {
                            shared.release_read(pin);
                        }
                    }
                }
            }
            Ok(ServiceMsg::Disconnect { conn }) => {
                sessions.remove(&conn);
                expired.remove(&conn);
                if let Role::Primary { repl, .. } = &mut role {
                    repl.disconnect(conn);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(ttl) = lease_ttl {
            reap_leases(&mut sessions, &mut expired, &counters, ttl);
        }
    }
    // Shutdown drain: release the pins still held only now, then run the
    // deferred checkpoint/reclamation those releases unblock. A pin the
    // reaper already released is gone from the map — clearing it again
    // here cannot double-release.
    sessions.clear();
    if let Role::Primary { shared, .. } = &role {
        let _ = shared.maintain();
    }
}

/// Lend a pin to the connection's worker for one read: the session's if
/// the connection holds one, else a fresh one that the read's completion
/// gives back. Past the pin budget the read is shed with a typed
/// retry-after.
fn lend_read(
    shared: &SharedStore,
    sessions: &mut HashMap<u64, Session>,
    counters: &Counters,
    conn: u64,
    op: ReadOp,
) -> Reply {
    let (pin, seed, session) = match sessions.get_mut(&conn) {
        Some(s) => {
            s.reading = true;
            (s.pin_id, s.seed.clone(), true)
        }
        None => match shared.pin_read() {
            Ok((pin, seed)) => (pin, seed, false),
            Err(e) => return Reply::Done(store_error_response(shared.committed_epoch(), &e)),
        },
    };
    let now = counters.reads_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
    counters
        .peak_reads_in_flight
        .fetch_max(now, Ordering::Relaxed);
    Reply::Read(ReadTicket {
        pin,
        session,
        seed,
        op,
    })
}

/// Map a store failure onto the wire: sheds become retry-after, the rest
/// become typed errors.
fn store_error_response(epoch: u64, e: &StoreError) -> Response {
    let body = match e.category() {
        ErrorCategory::Shed => ResponseBody::RetryAfter {
            kind: match e {
                StoreError::ReadOnly { .. } => ShedKind::ReadOnly,
                _ => ShedKind::Overloaded,
            },
            millis: e.retry_after_hint_ms().unwrap_or(5) as u32,
            what: match e {
                StoreError::Overloaded { what, .. } => (*what).to_string(),
                StoreError::ReadOnly { reason } => (*reason).to_string(),
                _ => String::new(),
            },
        },
        ErrorCategory::Corrupt => ResponseBody::Error {
            kind: ErrKind::Corrupt,
            message: e.to_string(),
        },
        ErrorCategory::Io => ResponseBody::Error {
            kind: ErrKind::Io,
            message: e.to_string(),
        },
        ErrorCategory::InvalidRequest => ResponseBody::Error {
            kind: ErrKind::InvalidUpdate,
            message: e.to_string(),
        },
    };
    Response { epoch, body }
}

fn bad_request(epoch: u64, message: String) -> Response {
    Response {
        epoch,
        body: ResponseBody::Error {
            kind: ErrKind::BadRequest,
            message,
        },
    }
}

/// Most lines a query response will carry; hits beyond the cap are
/// counted but not rendered (the count field is always exact).
const MAX_QUERY_LINES: usize = 10_000;

fn handle_request(
    role: &mut Role,
    sessions: &mut HashMap<u64, Session>,
    expired: &mut HashSet<u64>,
    counters: &Counters,
    promoted: &AtomicBool,
    conn: u64,
    req: Request,
) -> Reply {
    match role {
        Role::Primary {
            shared,
            repl,
            fence,
        } => {
            let committed = shared.committed_epoch();
            Reply::Done(match req {
                Request::ReplSubscribe { last_epoch } => {
                    repl.subscribe(conn, last_epoch);
                    Response {
                        epoch: committed,
                        body: ResponseBody::ReplSubscribed,
                    }
                }
                Request::ReplFetch { after_epoch, seq } => {
                    match repl.fetch(committed, after_epoch, seq) {
                        Ok(part) => Response {
                            epoch: committed,
                            body: ResponseBody::ReplBatchPart {
                                payload: part.unwrap_or_default(),
                            },
                        },
                        Err(e) => store_error_response(committed, &e),
                    }
                }
                Request::ReplAck { epoch } => {
                    repl.ack(conn, epoch);
                    Response {
                        epoch: committed,
                        body: ResponseBody::ReplAckOk,
                    }
                }
                // A promoted follower answers a deposed primary's pushes
                // with its fencing epoch; a never-promoted primary was
                // simply addressed wrongly.
                Request::ReplApply { .. } => match *fence {
                    Some(at) => Response {
                        epoch: at,
                        body: ResponseBody::Error {
                            kind: ErrKind::Fenced,
                            message: format!("fenced at epoch {at}: this store was promoted"),
                        },
                    },
                    None => bad_request(committed, "not a replica".to_string()),
                },
                Request::ReplPromote => bad_request(committed, "already a primary".to_string()),
                other => {
                    return handle_primary_request(
                        shared, repl, sessions, expired, counters, conn, other,
                    )
                }
            })
        }
        Role::Replica { .. } => {
            Reply::Done(handle_replica_request(role, counters, promoted, conn, req))
        }
    }
}

fn handle_replica_request(
    role: &mut Role,
    counters: &Counters,
    promoted: &AtomicBool,
    conn: u64,
    req: Request,
) -> Response {
    let Role::Replica {
        follower,
        reader,
        source,
        path,
        store_config,
        admission,
    } = role
    else {
        unreachable!("dispatched on role");
    };
    let _ = conn;
    let applied = follower.epoch();
    // Writes and pins are refused the same way disk-full degradation
    // refuses them: a typed read-only shed the client can back off on
    // (and retry against the new primary after a failover).
    let read_only_shed = || Response {
        epoch: applied,
        body: ResponseBody::RetryAfter {
            kind: ShedKind::ReadOnly,
            millis: READ_ONLY_RETRY_HINT_MS as u32,
            what: "replica".to_string(),
        },
    };
    match req {
        Request::Ping => Response {
            epoch: applied,
            body: ResponseBody::Pong,
        },
        Request::Update { .. } | Request::Begin => read_only_shed(),
        Request::End => Response {
            epoch: applied,
            body: ResponseBody::SessionReleased,
        },
        Request::Query { xpath, count_only } => {
            let path_q = match natix_xpath::parse(&xpath) {
                Ok(p) => p,
                Err(e) => return bad_request(applied, format!("xpath: {e}")),
            };
            let store = match replica_reader(reader, follower) {
                Ok(s) => s,
                Err(e) => return store_error_response(applied, &e),
            };
            match query_lines(store, &path_q, count_only, Some(MAX_QUERY_LINES)) {
                Ok((count, lines)) => Response {
                    epoch: applied,
                    body: ResponseBody::QueryResult { count, lines },
                },
                Err(e) => store_error_response(applied, &e),
            }
        }
        Request::Dump => {
            let store = match replica_reader(reader, follower) {
                Ok(s) => s,
                Err(e) => return store_error_response(applied, &e),
            };
            match dump_body(store) {
                Ok(body) => Response {
                    epoch: applied,
                    body,
                },
                Err(e) => store_error_response(applied, &e),
            }
        }
        Request::Stats => {
            let (batches, snapshots, tails) = follower.counters();
            let text = format!(
                "role         : replica (of {source})\n\
                 applied epoch: {applied}\n\
                 batches      : {batches} applied, {snapshots} snapshots\n\
                 tails        : {tails} discarded\n\
                 fenced       : {}\n\
                 leases       : {} expired\n",
                match follower.fence() {
                    Some(at) => format!("yes (epoch {at})"),
                    None => "no".to_string(),
                },
                counters.lease_expirations.load(Ordering::Relaxed),
            );
            Response {
                epoch: applied,
                body: ResponseBody::StatsText(text),
            }
        }
        Request::Fsck => {
            if applied == 0 {
                return bad_request(0, "replica has not bootstrapped yet".to_string());
            }
            // A file that does not open is an I/O failure, not a damaged
            // store — as `natix fsck` answers it.
            if let Err(e) = FilePager::open(&*path) {
                return store_error_response(applied, &e);
            }
            let report = fsck(&*path, false);
            Response {
                epoch: applied,
                body: ResponseBody::FsckResult {
                    clean: report.clean(),
                    report: report.to_string(),
                },
            }
        }
        Request::ReplApply { payload } => match follower.apply_part(&payload) {
            Ok(ApplyOutcome::Applied { epoch }) => {
                *reader = None;
                Response {
                    epoch,
                    body: ResponseBody::ReplApplied { complete: true },
                }
            }
            Ok(ApplyOutcome::Staged { .. }) => Response {
                epoch: applied,
                body: ResponseBody::ReplApplied { complete: false },
            },
            Ok(ApplyOutcome::Rejected { reason }) => match follower.fence() {
                Some(at) => Response {
                    epoch: at,
                    body: ResponseBody::Error {
                        kind: ErrKind::Fenced,
                        message: reason,
                    },
                },
                None => Response {
                    epoch: applied,
                    body: ResponseBody::Error {
                        kind: ErrKind::InvalidUpdate,
                        message: reason,
                    },
                },
            },
            Err(e) => store_error_response(applied, &e),
        },
        Request::ReplPromote => {
            let fence_epoch = match follower.promote() {
                Ok(e) => e,
                Err(e) => return store_error_response(applied, &e),
            };
            let (path, store_config, admission) = (path.clone(), *store_config, *admission);
            match open_primary_role(&path, store_config, admission, Some(fence_epoch)) {
                Ok(new_role) => {
                    *role = new_role;
                    promoted.store(true, Ordering::SeqCst);
                    Response {
                        epoch: fence_epoch,
                        body: ResponseBody::ReplPromoted,
                    }
                }
                Err(e) => store_error_response(fence_epoch, &e),
            }
        }
        Request::ReplSubscribe { .. } | Request::ReplFetch { .. } | Request::ReplAck { .. } => {
            bad_request(applied, "not a primary".to_string())
        }
        // Shutdown never reaches the store service (handled at the
        // worker); answer defensively anyway.
        Request::Shutdown => Response {
            epoch: applied,
            body: ResponseBody::ShuttingDown,
        },
    }
}

/// The replica's lazily cached read-only store over the applied state.
fn replica_reader<'a>(
    reader: &'a mut Option<XmlStore>,
    follower: &Follower,
) -> Result<&'a mut XmlStore, StoreError> {
    if reader.is_none() {
        *reader = Some(follower.reader()?);
    }
    Ok(reader.as_mut().expect("just opened"))
}

fn handle_primary_request(
    shared: &SharedStore,
    repl: &mut ReplicaSource,
    sessions: &mut HashMap<u64, Session>,
    expired: &mut HashSet<u64>,
    counters: &Counters,
    conn: u64,
    req: Request,
) -> Reply {
    let committed = shared.committed_epoch();
    // A session the reaper expired is told so exactly once; `begin`
    // (re-pin) and `end` (already released) proceed normally so the
    // recovery path is never itself refused.
    if expired.remove(&conn) && !matches!(req, Request::Begin | Request::End) {
        return Reply::Done(Response {
            epoch: committed,
            body: ResponseBody::SessionExpired,
        });
    }
    // Any request on a pinned session renews its lease.
    if let Some(s) = sessions.get_mut(&conn) {
        s.renewed = Instant::now();
    }
    Reply::Done(match req {
        Request::Ping => Response {
            epoch: committed,
            body: ResponseBody::Pong,
        },
        Request::Begin => {
            // Re-pinning moves the session to the latest epoch; release
            // the old pin first so it cannot occupy an admission slot.
            sessions.remove(&conn);
            match shared.pin_read() {
                Ok((pin_id, seed)) => {
                    let epoch = seed.epoch();
                    let now = Instant::now();
                    sessions.insert(
                        conn,
                        Session {
                            shared: shared.clone(),
                            pin_id,
                            seed,
                            pinned_at: now,
                            renewed: now,
                            reading: false,
                        },
                    );
                    Response {
                        epoch,
                        body: ResponseBody::SessionPinned,
                    }
                }
                Err(e) => store_error_response(committed, &e),
            }
        }
        Request::End => {
            sessions.remove(&conn);
            Response {
                epoch: committed,
                body: ResponseBody::SessionReleased,
            }
        }
        Request::Query { xpath, count_only } => match natix_xpath::parse(&xpath) {
            Ok(path) => {
                let op = ReadOp::Query { path, count_only };
                return lend_read(shared, sessions, counters, conn, op);
            }
            Err(e) => bad_request(committed, format!("xpath: {e}")),
        },
        Request::Dump => return lend_read(shared, sessions, counters, conn, ReadOp::Dump),
        Request::Update { target, op } => {
            let path = match natix_xpath::parse(&target) {
                Ok(p) => p,
                Err(e) => return Reply::Done(bad_request(committed, format!("xpath: {e}"))),
            };
            let mut writer = match shared.begin_write() {
                Ok(w) => w,
                Err(e) => return Reply::Done(store_error_response(committed, &e)),
            };
            let r = writer.mutate(|store| {
                let hit = {
                    let mut nav = natix_xpath::StoreNavigator::new(store);
                    eval(&mut nav, &path)?.into_iter().next()
                };
                let Some(node) = hit else {
                    return Err(StoreError::InvalidUpdate("update target matched no node"));
                };
                match &op {
                    UpdateOp::AppendElement { name } => store
                        .append_child(node, NodeKind::Element, name, None)
                        .map(|_| ()),
                    UpdateOp::AppendText { text } => store
                        .append_child(node, NodeKind::Text, "#text", Some(text))
                        .map(|_| ()),
                    UpdateOp::InsertBefore { name } => store
                        .insert_before(node, NodeKind::Element, name, None)
                        .map(|_| ()),
                    UpdateOp::DeleteSubtree => store.delete_subtree(node),
                }
            });
            drop(writer);
            match r {
                Ok(()) => Response {
                    epoch: shared.committed_epoch(),
                    body: ResponseBody::UpdateDone,
                },
                Err(e) => store_error_response(shared.committed_epoch(), &e),
            }
        }
        Request::Stats => {
            let storage = shared.storage_stats();
            let c = shared.stats();
            let oldest_pin_ms = sessions
                .values()
                .map(|s| s.pinned_at.elapsed().as_millis() as u64)
                .max()
                .unwrap_or(0);
            let read_only = match shared.read_only_reason() {
                Some(reason) => format!("yes ({reason})"),
                None => "no".to_string(),
            };
            let replication = match repl.lag(committed) {
                Some((followers, lag)) => {
                    format!("{followers} followers, lag {lag} epochs")
                }
                None => "0 followers, lag 0 epochs".to_string(),
            };
            let text = format!(
                "epoch        : {}\n\
                 live records : {}\n\
                 pages        : {}\n\
                 occupied     : {} KB\n\
                 snapshots    : {} opened, {} active\n\
                 reads        : {} in flight, peak {} in flight\n\
                 pins         : {} session-pinned, oldest {} ms\n\
                 leases       : {} expired\n\
                 write kills  : {} connections\n\
                 backlog      : {} superseded pages\n\
                 read-only    : {}\n\
                 sheds        : {} reads\n\
                 commits      : {} ({} group, {} batched ops)\n\
                 checkpoints  : {} deferred, {} applied\n\
                 reclaimed    : {} pages ({} rounds pin-blocked)\n\
                 replication  : {}\n",
                storage.epoch,
                storage.live_records,
                storage.pages,
                storage.occupied_bytes / 1024,
                c.snapshots_opened,
                c.snapshots_active,
                counters.reads_in_flight.load(Ordering::Relaxed),
                counters.peak_reads_in_flight.load(Ordering::Relaxed),
                sessions.len(),
                oldest_pin_ms,
                counters.lease_expirations.load(Ordering::Relaxed),
                counters.write_timeout_kills.load(Ordering::Relaxed),
                shared.reclaim_backlog(),
                read_only,
                c.reads_shed,
                c.commits,
                c.group_commits,
                c.batched_ops,
                c.checkpoints_deferred,
                c.checkpoints_applied,
                c.pages_reclaimed,
                c.reclaim_blocked_by_pins,
                replication,
            );
            Response {
                epoch: storage.epoch,
                body: ResponseBody::StatsText(text),
            }
        }
        Request::Fsck => {
            let report = shared.scrub();
            Response {
                epoch: committed,
                body: ResponseBody::FsckResult {
                    clean: report.clean(),
                    report: report.to_string(),
                },
            }
        }
        // Shutdown never reaches the store service (handled at the
        // worker); answer defensively anyway.
        Request::Shutdown => Response {
            epoch: committed,
            body: ResponseBody::ShuttingDown,
        },
        // Replication verbs are answered by the role dispatcher before
        // this function is reached.
        Request::ReplSubscribe { .. }
        | Request::ReplFetch { .. }
        | Request::ReplAck { .. }
        | Request::ReplApply { .. }
        | Request::ReplPromote => bad_request(committed, "replication verb".to_string()),
    })
}

// ---------------------------------------------------- replica fetch loop

/// Pseudo connection id of the replica's own fetch loop on the service
/// queue (worker connection ids count up from 1).
const REPL_CONN: u64 = u64::MAX;

/// How long a caught-up replica waits before polling the primary again.
const REPL_POLL: Duration = Duration::from_millis(50);

/// Back-off between reconnection attempts to the primary.
const REPL_RECONNECT: Duration = Duration::from_millis(250);

/// Socket timeout towards the primary. Short enough that a stalled or
/// partitioned link cannot park the fetch loop (which holds a service
/// queue sender) past the shutdown drain.
const REPL_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The replica's fetch loop: subscribe to the primary, pull batch parts,
/// feed them through the local service queue (serializing with reads),
/// and ack every applied epoch. Exits on shutdown or promotion; any
/// remote failure reconnects with back-off and re-subscribes.
fn repl_client_loop(
    source: String,
    store_tx: Sender<ServiceMsg>,
    shutdown: Arc<AtomicBool>,
    promoted: Arc<AtomicBool>,
) {
    let stop = || shutdown.load(Ordering::SeqCst) || promoted.load(Ordering::SeqCst);
    // Interruptible sleep; false means the loop must exit.
    let pause = |d: Duration| -> bool {
        let deadline = Instant::now() + d;
        while Instant::now() < deadline {
            if stop() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        !stop()
    };
    // One request through the local service queue.
    let local = |req: Request| -> Option<Response> {
        let (tx, rx) = mpsc::channel();
        store_tx
            .send(ServiceMsg::Request {
                conn: REPL_CONN,
                req,
                reply: tx,
            })
            .ok()?;
        match rx.recv().ok()?.reply {
            Reply::Done(resp) => Some(resp),
            Reply::Read(_) => None,
        }
    };
    let remote = |stream: &mut TcpStream, req: &Request| -> Result<Response, ProtoError> {
        write_frame(stream, &req.encode())?;
        read_response(stream)
    };

    'outer: while !stop() {
        let Some(ping) = local(Request::Ping) else {
            break;
        };
        let mut local_epoch = ping.epoch;
        let mut stream = match TcpStream::connect(&*source) {
            Ok(s) => s,
            Err(_) => {
                if !pause(REPL_RECONNECT) {
                    break;
                }
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(REPL_IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(REPL_IO_TIMEOUT));
        match remote(
            &mut stream,
            &Request::ReplSubscribe {
                last_epoch: local_epoch,
            },
        ) {
            Ok(Response {
                body: ResponseBody::ReplSubscribed,
                ..
            }) => {}
            _ => {
                if !pause(REPL_RECONNECT) {
                    break;
                }
                continue;
            }
        }
        let mut seq = 0u32;
        loop {
            if stop() {
                break 'outer;
            }
            let fetched = remote(
                &mut stream,
                &Request::ReplFetch {
                    after_epoch: local_epoch,
                    seq,
                },
            );
            let payload = match fetched {
                Ok(Response {
                    body: ResponseBody::ReplBatchPart { payload },
                    ..
                }) => payload,
                // Transport trouble or an unexpected answer: reconnect.
                _ => break,
            };
            if payload.is_empty() {
                // Caught up: tell the primary where we are, then idle.
                seq = 0;
                if remote(&mut stream, &Request::ReplAck { epoch: local_epoch }).is_err() {
                    break;
                }
                if !pause(REPL_POLL) {
                    break 'outer;
                }
                continue;
            }
            let Some(outcome) = local(Request::ReplApply { payload }) else {
                break 'outer;
            };
            match outcome.body {
                ResponseBody::ReplApplied { complete: false } => seq += 1,
                ResponseBody::ReplApplied { complete: true } => {
                    local_epoch = outcome.epoch;
                    seq = 0;
                    if remote(&mut stream, &Request::ReplAck { epoch: local_epoch }).is_err() {
                        break;
                    }
                }
                // Promoted out from under the loop (the dispatcher now
                // answers as a fenced primary): stop replicating.
                ResponseBody::Error {
                    kind: ErrKind::Fenced | ErrKind::BadRequest,
                    ..
                } => break 'outer,
                // A torn part or a chain mismatch: restart the batch;
                // the primary serves a snapshot if the chain is gone.
                _ => {
                    seq = 0;
                    if !pause(REPL_POLL) {
                        break 'outer;
                    }
                }
            }
        }
        if !pause(REPL_RECONNECT) {
            break;
        }
    }
}

/// Render one query hit: an element as `<name>`, an attribute as
/// `@name="value"`, any other node as its content.
fn render_hit(store: &mut XmlStore, r: natix_store::NodeRef) -> Result<String, StoreError> {
    let (kind, label, content) = store.with_node_in(r, |rec, n| {
        (n.kind, n.label, rec.content(n).map(str::to_string))
    })?;
    let name = store.label_name(label);
    Ok(match (kind, content) {
        (NodeKind::Element, _) => format!("<{name}>"),
        (NodeKind::Attribute, Some(v)) => format!("@{name}=\"{v}\""),
        (_, Some(v)) => v,
        (_, None) => format!("<{name}>"),
    })
}

/// Blocking frame read used by the client side (no shutdown awareness).
pub(crate) fn read_response(stream: &mut TcpStream) -> Result<Response, ProtoError> {
    let body = read_frame(stream)?;
    Response::decode(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, UpdateOp};

    /// A query naming this makes the worker evaluating it panic with the
    /// pin lent (see `run_read`).
    pub(super) const PANIC_PROBE: &str = "injected-worker-panic";

    /// The number in front of `what` on the stats line labelled `line`.
    fn gauge(stats: &str, line: &str, what: &str) -> u64 {
        let row = stats
            .lines()
            .find(|l| l.trim_start().starts_with(line))
            .unwrap_or_else(|| panic!("no {line} line in {stats}"));
        let words: Vec<&str> = row.split(&[' ', ','][..]).collect();
        let at = words.iter().position(|w| *w == what).expect(what);
        words[at - 1].parse().expect("number")
    }

    /// Satellite: a worker that panics mid-read — unpinned, and inside a
    /// session that commits have piled up behind — hands its pin back.
    /// Hits are rendered where the walk finds them, in walk order; the
    /// answer is still the exact count and the first `MAX_QUERY_LINES`
    /// hits in node order, whichever of them the cap left for afterwards.
    #[test]
    fn query_lines_are_the_first_hits_in_node_order_past_the_cap() {
        let texts: String = (0..MAX_QUERY_LINES + 500)
            .map(|i| format!("<e>{i}</e>"))
            .collect();
        let doc = natix_xml::parse(&format!("<list>{texts}</list>")).unwrap();
        let mut store = natix_store::bulkload_with(
            &doc,
            &natix_core::Rs,
            16,
            Box::new(natix_store::MemPager::new()),
            natix_store::StoreConfig::default(),
        )
        .unwrap();
        let path = natix_xpath::parse("//e/text()").unwrap();
        let hits = eval(&mut natix_xpath::StoreNavigator::new(&mut store), &path).unwrap();
        let want: Vec<String> = hits[..MAX_QUERY_LINES]
            .iter()
            .map(|&r| render_hit(&mut store, r).unwrap())
            .collect();
        let (count, lines) = query_lines(&mut store, &path, false, Some(MAX_QUERY_LINES)).unwrap();
        assert_eq!(count as usize, MAX_QUERY_LINES + 500);
        assert!(
            lines == want,
            "lines differ from the first hits in node order"
        );
        let walk_order: Vec<String> = (0..MAX_QUERY_LINES).map(|i| i.to_string()).collect();
        assert!(
            lines != walk_order,
            "node order is not walk order in this layout"
        );
        assert_eq!(
            query_lines(&mut store, &path, true, Some(MAX_QUERY_LINES)).unwrap(),
            (count, vec![])
        );
    }

    #[test]
    fn lent_pin_survives_a_panicking_worker() {
        let dir = std::env::temp_dir().join(format!("natix-serve-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("store.natix");
        let doc = natix_xml::parse("<list><e>one entry</e><e>two entry</e></list>").unwrap();
        let pager = FilePager::create(&store).unwrap();
        drop(
            natix_store::bulkload_with(
                &doc,
                &natix_core::Ekm,
                16,
                Box::new(pager),
                StoreConfig::default(),
            )
            .unwrap(),
        );
        let handle = serve(ServeConfig {
            store,
            ..ServeConfig::default()
        })
        .unwrap();
        let probe = format!("//{PANIC_PROBE}");
        let mut writer = Client::connect(handle.addr()).unwrap();
        let mut commit = |i: usize| {
            let resp = writer
                .request(&Request::Update {
                    target: "/list".to_string(),
                    op: UpdateOp::AppendElement {
                        name: format!("x{i}"),
                    },
                })
                .unwrap();
            assert_eq!(resp.body, ResponseBody::UpdateDone);
        };

        let mut unpinned = Client::connect(handle.addr()).unwrap();
        assert!(unpinned.query(&probe).is_err(), "connection must drop");

        let mut pinned = Client::connect(handle.addr()).unwrap();
        pinned.begin().unwrap();
        (0..6).for_each(&mut commit);
        let mut observer = Client::connect(handle.addr()).unwrap();
        let peak = gauge(&observer.stats().unwrap(), "backlog", "superseded");
        assert!(peak > 0, "the session pin must hold reclamation back");
        assert!(pinned.query(&probe).is_err(), "connection must drop");

        // The worker sends its disconnect after the socket closes: wait
        // for the service to have seen it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauge(&observer.stats().unwrap(), "snapshots", "active") > 0 {
            assert!(Instant::now() < deadline, "pin never came back");
            std::thread::sleep(Duration::from_millis(5));
        }
        commit(6);
        let stats = observer.stats().unwrap();
        assert_eq!(gauge(&stats, "snapshots", "active"), 0, "{stats}");
        assert_eq!(gauge(&stats, "reads", "in"), 0, "{stats}");
        assert!(gauge(&stats, "backlog", "superseded") < peak, "{stats}");

        observer.shutdown_server().unwrap();
        let summary = handle.join();
        assert_eq!(summary.worker_panics, 2, "{summary}");
        assert_eq!(summary.reads_in_flight, 0, "{summary}");
        assert!(summary.peak_reads_in_flight >= 1, "{summary}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
