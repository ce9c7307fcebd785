//! The daemon core: listener, bounded queue, worker pool, graceful drain.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use flow_core::CancelToken;
use floweval::{EngineConfig, EvalEngine};
use httpwire::{read_request, HttpError, Limits, Response};
use synth::PassContext;

use crate::designs::DesignTable;
use crate::protocol;

/// Requests served per connection before the daemon forces a reconnect
/// (keeps long-lived clients from pinning a worker forever).
const MAX_KEEPALIVE_REQUESTS: usize = 256;
/// Largest accepted request body (the design netlist).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Extra time past a request's deadline before the watchdog declares its
/// worker wedged (cancellation ignored), answers `504` on its behalf, and
/// replaces it with a fresh thread + context.
const WATCHDOG_GRACE_MS: u64 = 100;
/// Watchdog polling period.
const WATCHDOG_POLL_MS: u64 = 20;

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads; each owns one long-lived [`PassContext`].  At least
    /// one runs.
    pub workers: usize,
    /// Connections allowed to wait for a worker before new ones get `503`;
    /// at least one.
    pub queue_capacity: usize,
    /// A connection that waited longer than this is rejected (`503` +
    /// `Retry-After`) when a worker picks it up; at least 1 ms.
    pub request_timeout_ms: u64,
    /// Idle keep-alive connections are closed after this long.
    pub keep_alive_idle_ms: u64,
    /// Per-request evaluation deadline.  A request may lower it with the
    /// `deadline_ms` query parameter but never raise it.  An evaluation past
    /// its deadline stops cooperatively and answers `504`; one still running
    /// 100 ms later is answered by the watchdog.
    pub deadline_ms: u64,
    /// Period of the store probe the watchdog thread drives: a degraded
    /// store (persistent append failure) retries a real write this often and
    /// auto-recovers once the disk is back.
    pub store_probe_ms: u64,
    /// Engine configuration (store path, verification, cache budgets).
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_capacity: 64,
            request_timeout_ms: 5_000,
            keep_alive_idle_ms: 2_000,
            deadline_ms: 10_000,
            store_probe_ms: 500,
            engine: EngineConfig::default(),
        }
    }
}

/// Adds one to a service counter.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Monotonic service counters (lock-free; exposed through `/stats`).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) requests_received: AtomicU64,
    pub(crate) requests_served: AtomicU64,
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_wait_timeout: AtomicU64,
    pub(crate) client_errors: AtomicU64,
    pub(crate) handler_panics: AtomicU64,
    /// `504` responses written, cooperative or by the watchdog.
    pub(crate) deadline_exceeded: AtomicU64,
    /// Evaluations stopped by an explicit `CancelToken::cancel()`.
    pub(crate) cancelled: AtomicU64,
    /// Wedged workers retired and replaced by the watchdog.
    pub(crate) watchdog_restarts: AtomicU64,
}

/// One accepted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    enqueued: Instant,
}

/// The request a worker is currently evaluating, as seen by the watchdog.
///
/// Exactly one party answers the client: whoever `take()`s the slot under
/// its lock owns the response.  The worker takes it on (timely) completion;
/// the watchdog takes it once `hard_kill` passes without an answer.
struct ActiveRequest {
    /// Write-half clone; the watchdog answers `504` on it and shuts it down.
    stream: TcpStream,
    /// Deadline + grace: past this instant the worker counts as wedged.
    hard_kill: Instant,
    /// The request's token, re-cancelled at hijack so the stuck evaluation
    /// returns whenever its stall finally ends.
    token: CancelToken,
}

/// Per-worker supervision state.  Slots are fixed at startup; a replacement
/// worker inherits the slot of the thread it retires.
pub(crate) struct WorkerSlot {
    active: Mutex<Option<ActiveRequest>>,
    /// Bumped on every replacement; a thread whose spawn generation is stale
    /// has been superseded and exits instead of looping.
    generation: AtomicU64,
}

/// A worker thread handle plus the slot generation it was spawned for, so
/// `join` can tell live threads from retired (possibly wedged) ones.
struct WorkerHandle {
    slot: usize,
    generation: u64,
    handle: std::thread::JoinHandle<()>,
}

/// State shared by the acceptor, the workers, the watchdog and `/stats`.
pub(crate) struct Shared {
    pub(crate) engine: EvalEngine,
    /// Bodies already parsed, mapped to their fingerprint and report.
    pub(crate) designs: DesignTable,
    pub(crate) config: ServerConfig,
    pub(crate) counters: Counters,
    pub(crate) busy_workers: AtomicUsize,
    pub(crate) started: Instant,
    pub(crate) draining: AtomicBool,
    pub(crate) addr: OnceLock<SocketAddr>,
    slots: Vec<WorkerSlot>,
    worker_handles: Mutex<Vec<WorkerHandle>>,
    watchdog_stop: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

impl Shared {
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.lock().expect("queue lock").len()
    }

    /// Starts the graceful drain: no new connections, queued work finishes.
    pub(crate) fn initiate_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        self.job_ready.notify_all();
        // The acceptor blocks in `accept()`; poke it awake so it can exit.
        if let Some(addr) = self.addr.get() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(250));
        }
    }
}

/// A running daemon.  Dropping the handle does **not** stop the service;
/// call [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the engine's store, binds the listener and spawns acceptor,
    /// workers and watchdog.  A store that fails to open fails the start,
    /// before anything is bound or written.
    pub fn start(mut config: ServerConfig) -> std::io::Result<Server> {
        // At zero, the queue would be full and every wait too long, so each
        // connection would get `503`.
        config.workers = config.workers.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        config.request_timeout_ms = config.request_timeout_ms.max(1);
        let engine = EvalEngine::open(config.engine.clone())?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let worker_count = config.workers;
        let shared = Arc::new(Shared {
            engine,
            designs: DesignTable::default(),
            config,
            counters: Counters::default(),
            busy_workers: AtomicUsize::new(0),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            addr: OnceLock::new(),
            slots: (0..worker_count)
                .map(|_| WorkerSlot {
                    active: Mutex::new(None),
                    generation: AtomicU64::new(0),
                })
                .collect(),
            worker_handles: Mutex::new(Vec::new()),
            watchdog_stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        });
        shared.addr.set(addr).expect("addr set once");

        for slot in 0..worker_count {
            spawn_worker(&shared, slot, 0);
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("flowd-acceptor".to_string())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn acceptor")
        };
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("flowd-watchdog".to_string())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn watchdog")
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        *self.shared.addr.get().expect("addr set at start")
    }

    /// The engine behind the service (handy for in-process comparisons).
    pub fn engine(&self) -> &EvalEngine {
        &self.shared.engine
    }

    /// Initiates the graceful drain (same as `POST /shutdown`).
    pub fn shutdown(&self) {
        self.shared.initiate_drain();
    }

    /// Waits until acceptor and workers exit, then flushes the QoR store.
    ///
    /// Workers retired by the watchdog may be wedged in an evaluation that
    /// ignores cancellation; those are given a short window and then
    /// detached (safe Rust cannot kill a thread), so drain never hangs on a
    /// poisoned worker.
    pub fn join(mut self) -> std::io::Result<()> {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The watchdog may still retire workers and push replacement handles
        // while we drain, so join in batches until the registry is empty.
        loop {
            let batch: Vec<WorkerHandle> = {
                let mut handles = self.shared.worker_handles.lock().expect("handles lock");
                handles.drain(..).collect()
            };
            if batch.is_empty() {
                break;
            }
            for worker in batch {
                self.join_worker(worker);
            }
        }
        self.shared.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        // Replacements spawned in the stop window exit on their own (drain).
        let stragglers: Vec<WorkerHandle> = {
            let mut handles = self.shared.worker_handles.lock().expect("handles lock");
            handles.drain(..).collect()
        };
        for worker in stragglers {
            self.join_worker(worker);
        }
        // Drain-time durability barrier: every acknowledged record is
        // fsynced into its segment before the process exits.
        self.shared.engine.checkpoint_store()
    }

    /// Joins a live worker; bounds the wait for a superseded one.
    fn join_worker(&self, worker: WorkerHandle) {
        let current = self.shared.slots[worker.slot]
            .generation
            .load(Ordering::SeqCst);
        if worker.generation == current {
            let _ = worker.handle.join();
            return;
        }
        for _ in 0..50 {
            if worker.handle.is_finished() {
                let _ = worker.handle.join();
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Still wedged: detach.  The thread holds only its own context.
        drop(worker.handle);
    }
}

/// Accepts connections and applies admission control.
fn accept_loop(shared: &Shared, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            // Whatever woke us (a real client or the drain self-connect)
            // gets a polite close if it was a real request.
            if let Ok(mut stream) = stream {
                let _ = respond(&mut stream, &protocol::unavailable(shared, "draining"));
            }
            break;
        }
        let Ok(stream) = stream else { continue };
        bump(&shared.counters.connections_accepted);
        let mut queue = shared.queue.lock().expect("queue lock");
        if queue.len() >= shared.config.queue_capacity {
            drop(queue);
            bump(&shared.counters.rejected_queue_full);
            let mut stream = stream;
            let _ = respond(&mut stream, &protocol::unavailable(shared, "queue full"));
            continue;
        }
        queue.push_back(Job {
            stream,
            enqueued: Instant::now(),
        });
        drop(queue);
        shared.job_ready.notify_one();
    }
}

/// Spawns a worker thread bound to `slot` and registers its handle.
fn spawn_worker(shared: &Arc<Shared>, slot: usize, generation: u64) {
    let thread_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("flowd-worker-{slot}-g{generation}"))
        .spawn(move || worker_loop(&thread_shared, slot, generation))
        .expect("spawn worker");
    shared
        .worker_handles
        .lock()
        .expect("handles lock")
        .push(WorkerHandle {
            slot,
            generation,
            handle,
        });
}

/// One worker: owns a recycling [`PassContext`] across all its requests.
///
/// A worker whose spawn `generation` no longer matches its slot has been
/// retired by the watchdog; it exits as soon as it regains control.
fn worker_loop(shared: &Shared, slot: usize, generation: u64) {
    let mut pctx = shared.engine.pass_context();
    loop {
        if shared.slots[slot].generation.load(Ordering::SeqCst) != generation {
            return; // superseded while stalled
        }
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.job_ready.wait(queue).expect("queue lock");
            }
        };
        let Some(job) = job else { return };
        shared.busy_workers.fetch_add(1, Ordering::Relaxed);
        let hijacked = serve_connection(shared, job, &mut pctx, slot);
        shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
        if hijacked {
            return; // the watchdog answered for us and spawned a successor
        }
    }
}

/// Supervises the workers: a request past `deadline + grace` whose worker
/// has not answered is hijacked — the client gets `504` on the watchdog's
/// thread, the wedged worker is retired, and a fresh worker (with a fresh
/// [`PassContext`]) takes over its slot.
fn watchdog_loop(shared: &Arc<Shared>) {
    let poll = Duration::from_millis(WATCHDOG_POLL_MS);
    let probe_every = Duration::from_millis(shared.config.store_probe_ms.max(1));
    let mut last_probe = Instant::now();
    while !shared.watchdog_stop.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        // The same supervision thread doubles as the store's recovery
        // driver: a no-op while healthy, a real probe write while degraded.
        if last_probe.elapsed() >= probe_every {
            last_probe = Instant::now();
            let _ = shared.engine.probe_store();
        }
        for (slot_idx, slot) in shared.slots.iter().enumerate() {
            let hijacked = {
                let mut active = slot.active.lock().expect("slot lock");
                match active.as_ref() {
                    Some(request) if Instant::now() >= request.hard_kill => active.take(),
                    _ => None,
                }
            };
            let Some(request) = hijacked else { continue };
            // Re-cancel so the stuck evaluation returns when its stall ends;
            // the zombie thread then notices the generation bump and exits.
            request.token.cancel();
            let mut stream = request.stream;
            let _ = respond(
                &mut stream,
                &protocol::error_response(
                    504,
                    "deadline",
                    "evaluation exceeded the request deadline",
                )
                .with_header("connection", "close"),
            );
            let _ = stream.shutdown(std::net::Shutdown::Both);
            bump(&shared.counters.deadline_exceeded);
            bump(&shared.counters.watchdog_restarts);
            let generation = slot.generation.fetch_add(1, Ordering::SeqCst) + 1;
            spawn_worker(shared, slot_idx, generation);
        }
    }
}

/// Serves one connection until close, idle timeout or drain.  Returns `true`
/// when the watchdog hijacked a request on this connection (the calling
/// worker has been retired and must exit).
fn serve_connection(shared: &Shared, job: Job, pctx: &mut PassContext, slot: usize) -> bool {
    let mut writer = job.stream;
    if job.enqueued.elapsed() >= Duration::from_millis(shared.config.request_timeout_ms) {
        bump(&shared.counters.rejected_wait_timeout);
        let _ = respond(
            &mut writer,
            &protocol::unavailable(shared, "request timeout"),
        );
        return false;
    }
    let _ = writer.set_read_timeout(Some(Duration::from_millis(
        shared.config.keep_alive_idle_ms.max(1),
    )));
    let _ = writer.set_nodelay(true);
    let Ok(read_half) = writer.try_clone() else {
        return false;
    };
    let mut reader = BufReader::new(read_half);
    let limits = Limits {
        max_body_bytes: MAX_BODY_BYTES,
        ..Limits::default()
    };
    let mut served = 0usize;
    loop {
        let request = match read_request(&mut reader, &limits) {
            Ok(request) => request,
            // Closed by the peer, idle past the keep-alive timeout, or broken.
            Err(HttpError::Closed { .. } | HttpError::Io(_)) => return false,
            Err(HttpError::BadRequest(message)) => {
                return reject(shared, &mut writer, 400, "bad-request", &message)
            }
            Err(HttpError::TooLarge(message)) => {
                return reject(shared, &mut writer, 413, "too-large", &message)
            }
        };
        bump(&shared.counters.requests_received);
        // Effective deadline: a request may lower the server default with
        // `deadline_ms` but never raise it.
        let deadline_ms = match request.query_param("deadline_ms").as_deref() {
            None => shared.config.deadline_ms,
            Some(value) => match value.parse::<u64>() {
                Ok(n) if n >= 1 => n.min(shared.config.deadline_ms),
                _ => {
                    let message = "deadline_ms needs a positive integer";
                    return reject(shared, &mut writer, 400, "deadline", message);
                }
            },
        };
        let token = CancelToken::with_deadline(Duration::from_millis(deadline_ms));
        let hard_kill =
            Instant::now() + Duration::from_millis(deadline_ms.saturating_add(WATCHDOG_GRACE_MS));
        let armed = match writer.try_clone() {
            Ok(stream) => {
                *shared.slots[slot].active.lock().expect("slot lock") = Some(ActiveRequest {
                    stream,
                    hard_kill,
                    token: token.clone(),
                });
                true
            }
            Err(_) => false, // no watchdog cover; cooperative cancel still works
        };
        let mut response = dispatch(shared, &request, pctx, &token);
        if armed
            && shared.slots[slot]
                .active
                .lock()
                .expect("slot lock")
                .take()
                .is_none()
        {
            // The watchdog answered the client and retired this worker.
            return true;
        }
        if response.status == 504 {
            bump(&shared.counters.deadline_exceeded);
        }
        served += 1;
        let closing = shared.draining.load(Ordering::SeqCst)
            || served >= MAX_KEEPALIVE_REQUESTS
            || request.wants_close()
            || response.closes_connection();
        if closing {
            response = response.with_header("connection", "close");
        }
        if respond(&mut writer, &response).is_err() {
            return false;
        }
        bump(&shared.counters.requests_served);
        if closing {
            return false;
        }
    }
}

/// Writes `response` in one write (two past 8 KiB).  Written line by line,
/// its tail could wait behind Nagle's algorithm when a connection whose
/// request was never read is closed, and the reset that close sends drops it.
fn respond(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    httpwire::write_response(&mut std::io::BufWriter::new(stream), response)
}

/// Answers a request the daemon will not serve and closes the connection,
/// counting a client error.  Returns `false`, as `serve_connection` does.
fn reject(shared: &Shared, writer: &mut TcpStream, status: u16, kind: &str, message: &str) -> bool {
    bump(&shared.counters.client_errors);
    let response = protocol::error_response(status, kind, message);
    let _ = respond(writer, &response.with_header("connection", "close"));
    false
}

/// Routes one request, converting handler panics into `500`s so a poisoned
/// request can never thin out the worker pool.
///
/// This is the one `catch_unwind` outside tests, and it catches bugs only:
/// cancellation reaches the handler as `Err(Cancelled)` and never unwinds.
/// Per-request panic isolation is pinned by `tests/chaos.rs`, which injects
/// a panic at `pass.apply` and expects a `500` from a surviving worker.
fn dispatch(
    shared: &Shared,
    request: &httpwire::Request,
    pctx: &mut PassContext,
    cancel: &CancelToken,
) -> Response {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        protocol::handle(shared, request, pctx, cancel)
    }));
    match outcome {
        Ok(response) => response,
        Err(_) => {
            // The context may hold arbitrary intermediate state; discard it.
            *pctx = shared.engine.pass_context();
            bump(&shared.counters.handler_panics);
            protocol::error_response(500, "internal", "request handler panicked")
                .with_header("connection", "close")
        }
    }
}
