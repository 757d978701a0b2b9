//! The daemon: configuration, shared state, routing, and the worker
//! pools behind the event-driven I/O path.
//!
//! Three kinds of threads share one [`ServiceState`]:
//!
//! * **Reactor threads** (`--io-threads`, see [`crate::reactor`]) own
//!   every socket: nonblocking accept, incremental request parsing,
//!   buffered writes. Cheap introspection endpoints (`/healthz`,
//!   `/stats`, `/metrics`, `/graphs`, `/jobs/<id>`) are answered *on* the
//!   reactor in microseconds, which is why a saturated solver pool can no
//!   longer make a health probe queue.
//! * **Request workers** (`--workers`) run handlers that parse bodies or
//!   may touch disk (uploads, solve submission with its lazy registry
//!   reload, batch fan-out). They never wait for a solve.
//! * **Scheduler workers** (`--solver-workers` sizes the pool) belong to
//!   one machine-wide [`lazymc_sched::Pool`]. The bounded priority queue
//!   is plugged in as the pool's [`JobSource`]: an idle worker pulls the
//!   most urgent `SolveJob` (priority desc, deadline-earliest, FIFO) and
//!   runs the whole solve as a root task; the solve's own subtree scopes
//!   land in the *same* pool, so idle workers steal into a running solve
//!   instead of sitting behind a per-job thread team. Results flow back
//!   through the [`JobStore`]: to the waiting
//!   connection (sync), into the store (`?async=1`), or into a batch slot.
//!
//! A solve request therefore costs: parse → registry lookup → result-cache
//! probe → (miss) enqueue with a [`Deadline`] that starts ticking at
//! enqueue → a pool worker takes it, runs `solve_prepared_on` against the
//! shared CSR + coreness → completion. A full queue never blocks anything:
//! the client gets `429` with `Retry-After` and decides for itself.
//!
//! Endpoints: `POST /graphs`, `POST /solve[?async=1]`, `POST /solve-batch`,
//! `GET /graphs`, `GET /stats`, `GET /stats/<name>`, `GET /jobs/<id>`,
//! `DELETE /jobs/<id>`, `DELETE /graphs/<name>`, `GET /healthz`,
//! `GET /readyz` (readiness; 503 while draining), `GET /metrics`
//! (Prometheus text format).

use crate::conn::{Request, Response};
use crate::health::Health;
use crate::jobs::{
    BatchAggregator, CancelOutcome, JobMeta, JobSink, JobState, JobStore, SolveReply,
};
use crate::journal::{Journal, ReplayedJob};
use crate::obs::{phase_micros, ServiceObs, SolveObservation};
use crate::overload::{DrainRate, MemLevel, MemWatermarks, Shedder};
use crate::plock;
use crate::protocol::{Json, LoadRequest, SolveRequest};
use crate::queue::{JobQueue, JobTicket, Popped};
use crate::reactor::{self, ReactorShared, Responder};
use crate::registry::{CachedSolve, GraphEntry, Registry, ResultCache};
use lazymc_core::{Deadline, LazyMc, MetricsSnapshot, PhaseTimes, SolveProgress};
use lazymc_graph::{io as graph_io, suite, CsrGraph, GraphAccess};
use lazymc_obs::LogSink;
use lazymc_sched::{Job as SchedJob, JobSource, Pool as SchedPool, TaskKey, TaskMeta};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Most requests accepted in one `POST /solve-batch` body.
const MAX_BATCH: usize = 256;

/// Tunables of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (port 0 picks a free port).
    pub addr: String,
    /// Reactor (I/O) threads. 0 means 1 — a single epoll loop drives
    /// thousands of connections; add threads only past that.
    pub io_threads: usize,
    /// Size of the request worker pool (body parsing, uploads, solve
    /// submission). 0 means the machine's available parallelism, capped
    /// at 8.
    pub workers: usize,
    /// Size of the solver pool. 0 means "same as `workers`". Fewer solver
    /// threads than request workers turns the job queue into a real
    /// backpressure point (useful under heavy load and in tests).
    pub solver_workers: usize,
    /// Most simultaneously open connections; beyond it, accepts are
    /// answered `503` and closed. 0 means 1024.
    pub conn_limit: usize,
    /// Resident-graph capacity of the registry (LRU beyond that).
    pub max_graphs: usize,
    /// Pending-job capacity; beyond it, `POST /solve` gets 429.
    pub queue_capacity: usize,
    /// Result-cache budget in accounted entry bytes (keys + witnesses).
    pub result_cache_bytes: usize,
    /// Result-cache entry lifetime (`None` = no expiry).
    pub result_cache_ttl: Option<Duration>,
    /// How long a completed async job's result stays pollable.
    pub job_ttl: Duration,
    /// Byte budget for retained async-job results (oldest evicted first).
    pub job_store_bytes: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Aggregate budget for request bytes buffered in userspace across
    /// ALL connections. Beyond it, connections already holding a
    /// buffer's worth stop reading until the budget frees (they either
    /// resume or hit the 408 progress timeout) — so many concurrent
    /// slow large-body uploads are bounded by this, not by
    /// `conn_limit × max_body_bytes`.
    pub max_buffered_bytes: usize,
    /// Progress timeout per connection: a request that stalls mid-receive
    /// longer than this gets `408`; an idle keep-alive connection is
    /// closed silently.
    pub read_timeout: Duration,
    /// Directory for durable graph snapshots (`.lmcs`). `None` keeps the
    /// registry memory-only (uploads die with the process).
    pub data_dir: Option<String>,
    /// Snapshot size (bytes) at or above which graphs are served zero-copy
    /// from an `mmap` of the snapshot file instead of a heap decode. `0`
    /// maps everything; `u64::MAX` effectively disables mapping.
    pub mmap_threshold_bytes: u64,
    /// Server-side budget cap, milliseconds. Requested budgets are clamped
    /// to it and *unbudgeted* requests default to it, so a single client
    /// cannot pin a solver with an open-ended solve. `None` preserves the
    /// old behaviour (no cap, no default).
    pub max_budget_ms: Option<u64>,
    /// `SO_SNDBUF` request for accepted sockets (`None` = kernel default).
    /// Mostly a test hook: tiny buffers force the partial-write path.
    pub so_sndbuf: Option<usize>,
    /// Completed solves whose total (parse + wait + solve + serialize)
    /// reaches this many milliseconds enter the `GET /debug/slow` log.
    pub slow_query_ms: u64,
    /// How many slow solves `GET /debug/slow` retains (keep-the-worst).
    pub slow_log_len: usize,
    /// Where the structured JSON log lines go, one per request and per
    /// solve: nowhere by default, stdout under `--log-json`. Tests use
    /// `LogSink::capture()` to assert on emitted lines.
    pub log_sink: LogSink,
    /// Queue-delay target for the CoDel-style shedding controller,
    /// milliseconds. While observed queue waits stay above it for a full
    /// controller interval, lowest-priority admissions are refused with
    /// `503 + Retry-After` (derived from the observed drain rate) instead
    /// of letting every queued job's latency grow without bound. `None`
    /// disables shedding.
    pub queue_delay_target_ms: Option<u64>,
    /// Live-heap budget for the memory watermark controller, bytes.
    /// Above 80 % (soft): uploads are rejected 503 and `/healthz`
    /// degrades. At 100 % (hard): the lowest-priority running solve is
    /// cancelled through the abort machinery. Only effective in binaries
    /// that install the counting allocator (the `lazymc` CLI does);
    /// elsewhere it is reported as untracked and never enforced.
    pub max_memory_bytes: Option<u64>,
    /// How long [`ServiceHandle::wait`] lets a drain run before giving
    /// up on in-flight work. Queued jobs that miss the window stay in the
    /// journal and replay on the next boot — timeout never loses them.
    pub drain_timeout: Duration,
    /// Background integrity-scrubber cadence: every interval, snapshot
    /// checksums are re-verified end-to-end (bit rot is quarantined) and
    /// journal frame CRCs are re-walked. `None` disables; without a
    /// `--data-dir` there is nothing to scrub either way.
    pub scrub_interval: Option<Duration>,
    /// Handle SIGTERM/SIGINT via a signalfd on reactor 0, turning them
    /// into a graceful drain instead of process death. The `lazymc serve`
    /// binary sets this; embedded/test daemons default to leaving process
    /// signal disposition alone.
    pub handle_signals: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:7171".into(),
            io_threads: 0,
            workers: 0,
            solver_workers: 0,
            conn_limit: 0,
            max_graphs: 8,
            queue_capacity: 64,
            result_cache_bytes: 8 << 20,
            result_cache_ttl: Some(Duration::from_secs(3600)),
            job_ttl: Duration::from_secs(600),
            job_store_bytes: 16 << 20,
            max_body_bytes: 64 << 20,
            max_buffered_bytes: 256 << 20,
            read_timeout: Duration::from_secs(30),
            data_dir: None,
            mmap_threshold_bytes: crate::registry::DEFAULT_MMAP_THRESHOLD,
            max_budget_ms: None,
            so_sndbuf: None,
            slow_query_ms: 500,
            slow_log_len: 32,
            log_sink: LogSink::Null,
            queue_delay_target_ms: None,
            max_memory_bytes: None,
            drain_timeout: Duration::from_secs(10),
            scrub_interval: Some(Duration::from_secs(60)),
            handle_signals: false,
        }
    }
}

impl ServiceConfig {
    pub(crate) fn effective_workers(&self) -> usize {
        // Request workers parse bodies and touch disk, not CPUs-for-hours;
        // an explicit `--workers` is honored verbatim (the compute-oriented
        // Config::thread_cap clamp applies to *solver* threads only).
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8)
        }
    }

    pub(crate) fn effective_solver_workers(&self) -> usize {
        if self.solver_workers > 0 {
            // Solver workers are compute threads: the system-wide clamp
            // (Config::thread_cap) applies, same as every other solver
            // thread request — the pool-size and per-job clamps used to
            // disagree.
            lazymc_core::Config::clamp_threads(self.solver_workers).max(1)
        } else {
            self.effective_workers()
                .min(lazymc_core::Config::thread_cap())
        }
    }

    pub(crate) fn effective_io_threads(&self) -> usize {
        self.io_threads.clamp(1, 16).max(1)
    }

    pub(crate) fn effective_conn_limit(&self) -> usize {
        if self.conn_limit > 0 {
            self.conn_limit
        } else {
            1024
        }
    }

    /// Largest intra-solve thread *width* one job may request: the
    /// scheduler pool's capacity. With one machine-wide pool, per-job
    /// widths no longer multiply across solver workers — a width is how
    /// many pool workers a job's scopes may recruit at once, and the pool
    /// itself bounds the total thread count — so the old static share
    /// (cap ÷ pool size) is gone. A lone job on an idle daemon now runs
    /// at the machine's full parallelism; under load, urgency decides who
    /// gets the workers.
    pub fn max_job_threads(&self) -> usize {
        self.effective_solver_workers().max(1)
    }
}

/// One queued solve. Formatting facts (graph name, clamp flag) live in
/// the job's [`JobStore`] record; the payload carries only what the
/// solver needs.
pub(crate) struct SolveJob {
    entry: Arc<GraphEntry>,
    config: lazymc_core::Config,
    /// Started ticking at enqueue: queue wait spends the budget too.
    /// Shared with the job record so `DELETE /jobs/<id>` can expire it
    /// mid-solve.
    deadline: Arc<Deadline>,
    /// `Some(canonical_key)` when the result may be cached afterwards.
    cache_key: Option<String>,
    enqueued: Instant,
}

/// Counters the daemon exports beyond the solver's own.
#[derive(Default)]
pub struct ServiceMetrics {
    pub solves_total: AtomicU64,
    pub solves_truncated_total: AtomicU64,
    pub solver_panics_total: AtomicU64,
    pub requests_total: AtomicU64,
    pub bad_requests_total: AtomicU64,
    // Reactor gauges/counters (`lazymc_http_*` in /metrics).
    pub open_connections: AtomicU64,
    pub conns_accepted_total: AtomicU64,
    pub conns_rejected_total: AtomicU64,
    pub read_stalls_total: AtomicU64,
    pub write_stalls_total: AtomicU64,
    pub request_timeouts_total: AtomicU64,
    /// Request bytes currently buffered in userspace across all
    /// connections (gauge; bounded by `max_buffered_bytes`).
    pub buffered_bytes: AtomicU64,
    // Batch accounting.
    pub batches_total: AtomicU64,
    pub batch_jobs_total: AtomicU64,
    /// Queued jobs reaped at pop because their budget had fully expired
    /// while they waited (dead on arrival; never handed to the solver).
    pub jobs_doa_total: AtomicU64,
    // Background integrity scrubber.
    pub scrub_passes_total: AtomicU64,
    pub scrub_corruptions_total: AtomicU64,
}

/// Everything the worker pools share.
pub struct ServiceState {
    pub registry: Registry,
    pub results: ResultCache,
    pub(crate) queue: JobQueue<SolveJob>,
    pub jobs: JobStore,
    pub metrics: ServiceMetrics,
    /// Histograms, tracing sink and the slow-query log (see [`crate::obs`]).
    pub obs: ServiceObs,
    /// Handle into the machine-wide scheduler pool: job admission
    /// (`notify_source`), capacity queries, and `/metrics` snapshots.
    pub sched: lazymc_core::SchedHandle,
    /// The pool itself, held so shutdown can join its workers. `None`
    /// after [`ServiceHandle::stop`] takes it.
    sched_pool: Mutex<Option<SchedPool>>,
    core_totals: Mutex<MetricsSnapshot>,
    /// Degraded-health registry: non-fatal component failures (snapshot
    /// writes, journal appends) surface here instead of as 500s.
    pub health: Arc<Health>,
    /// Crash-safe job journal (when `--data-dir` is set): admits are
    /// fsynced before a job becomes poppable, completions erase them, and
    /// boot replays whatever is left (see [`crate::journal`]).
    pub journal: Option<Journal>,
    /// Completion-rate estimator; every `Retry-After` the daemon emits
    /// (queue full, shed, connection limit) is derived from it.
    pub drain_rate: DrainRate,
    /// CoDel-style admission shedder on observed queue wait.
    pub shedder: Shedder,
    /// Soft/hard live-heap watermarks (`--max-memory-bytes`).
    pub mem: MemWatermarks,
    /// Set once a drain begins (SIGTERM via signalfd, or
    /// [`ServiceHandle::begin_drain`]): the listener closes, `/readyz`
    /// flips to 503, keep-alive responses carry `Connection: close`, and
    /// in-flight work runs to completion.
    draining: AtomicBool,
    started: Instant,
    pub(crate) next_conn_token: AtomicU64,
}

impl ServiceState {
    /// Builds the shared state; the second return is the journal's list
    /// of jobs admitted before a crash but never completed, which
    /// [`serve`] re-enqueues once the scheduler source is registered.
    fn new(cfg: &ServiceConfig) -> std::io::Result<(ServiceState, Vec<ReplayedJob>)> {
        let health = Arc::new(Health::new());
        let store = match &cfg.data_dir {
            Some(dir) => Some(Arc::new(crate::persist::SnapshotStore::open(dir)?)),
            None => None,
        };
        let (journal, replayed) = match &cfg.data_dir {
            Some(dir) => {
                let (journal, replayed) = Journal::open(std::path::Path::new(dir))?;
                (Some(journal), replayed)
            }
            None => (None, Vec::new()),
        };
        let pool = SchedPool::new(cfg.effective_solver_workers());
        let sched = pool.handle();
        let registry = Registry::with_store_health(cfg.max_graphs, store, Some(health.clone()));
        registry.set_mmap_threshold(cfg.mmap_threshold_bytes);
        let state = ServiceState {
            registry,
            results: ResultCache::new(cfg.result_cache_bytes, cfg.result_cache_ttl),
            queue: JobQueue::new(cfg.queue_capacity),
            jobs: JobStore::new(cfg.job_ttl, cfg.job_store_bytes),
            metrics: ServiceMetrics::default(),
            obs: ServiceObs::new(
                cfg.log_sink.clone(),
                cfg.slow_query_ms,
                cfg.slow_log_len.max(1),
            ),
            sched,
            sched_pool: Mutex::new(Some(pool)),
            core_totals: Mutex::new(MetricsSnapshot::default()),
            health,
            journal,
            drain_rate: DrainRate::new(),
            shedder: Shedder::new(cfg.queue_delay_target_ms.map(Duration::from_millis)),
            mem: MemWatermarks::new(cfg.max_memory_bytes),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            next_conn_token: AtomicU64::new(reactor::FIRST_CONN_TOKEN),
        };
        Ok((state, replayed))
    }

    /// Flips the daemon into drain mode. Idempotent; callable from any
    /// thread (reactor 0 calls it when the signalfd fires).
    pub fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            lazymc_chaos::point!("drain.begin");
            eprintln!(
                "lazymc-service: drain started (listener closing; in-flight and journaled work will settle)"
            );
        }
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// Appends a job-completion record; an append failure disables the
/// journal (memory-only from here) and flips the degraded health state.
fn journal_complete(state: &ServiceState, id: u64) {
    if let Some(journal) = &state.journal {
        if let Err(e) = journal.complete(id) {
            state
                .health
                .degrade("journal", format!("journal append failed: {e}"));
        }
    }
}

/// The scheduler's view of the service job queue: `peek` reports the
/// head's urgency key, `take` pops the job and wraps the whole solve as a
/// root task. A `Weak` back-reference keeps the source from pinning the
/// state alive after shutdown (the pool outlives nothing it feeds).
struct JobFeed {
    state: Weak<ServiceState>,
}

impl JobSource for JobFeed {
    fn peek(&self) -> Option<TaskKey> {
        let state = self.state.upgrade()?;
        let (priority, deadline, seq) = state.queue.peek_key()?;
        Some(TaskKey::new(priority, deadline, seq))
    }

    fn take(&self) -> Option<SchedJob> {
        let state = self.state.upgrade()?;
        let popped = state.queue.try_pop()?;
        let key = TaskKey::new(popped.priority, popped.deadline, popped.seq);
        Some(SchedJob {
            key,
            run: Box::new(move || run_solve_job(&state, popped)),
        })
    }
}

/// A running daemon. Dropping the handle leaves it running; call
/// [`ServiceHandle::stop`] for an orderly shutdown.
pub struct ServiceHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    shutdown: Arc<AtomicBool>,
    reactors: Vec<Arc<ReactorShared>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    drain_timeout: Duration,
}

impl ServiceHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, exposed for tests and embedders.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Starts a graceful drain programmatically — exactly what SIGTERM
    /// does when `handle_signals` is set: `/readyz` flips to 503, the
    /// listener closes, keep-alive connections get `Connection: close`,
    /// and admitted work keeps running. Follow with [`ServiceHandle::wait`]
    /// then [`ServiceHandle::stop`].
    pub fn begin_drain(&self) {
        self.state.begin_drain();
        for r in &self.reactors {
            r.notify();
        }
    }

    /// Blocks until the daemon should exit: first until a drain begins
    /// (SIGTERM or [`ServiceHandle::begin_drain`]) or `stop` was called
    /// from another handle, then until every admitted job has settled or
    /// `drain_timeout` elapses. Jobs that miss the window are still in
    /// the journal — the next boot replays them, so a timed-out drain
    /// degrades to a crash-consistent exit, never a lossy one.
    pub fn wait(&self) {
        while !self.state.is_draining() && !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.settle(self.drain_timeout);
    }

    /// Stops accepting, severs open connections, drains the queue, joins
    /// every worker — including the scheduler pool's.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for r in &self.reactors {
            r.notify();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Drain semantics: jobs admitted before stop still run. Reactors
        // are gone, so nothing new arrives; wait (bounded) for the pool to
        // empty the queue and finish in-flight solves, then join it.
        // `Pool::shutdown` itself waits for whatever is mid-run.
        self.settle(Duration::from_secs(10));
        if let Some(mut pool) = plock(&self.state.sched_pool).take() {
            pool.shutdown();
        }
    }

    /// Waits until no job is queued or running, or `timeout` elapses,
    /// ringing the pool's doorbell so idle workers pull what is queued.
    fn settle(&self, timeout: Duration) {
        let start = Instant::now();
        while (self.state.queue.depth() > 0
            || self.state.jobs.jobs_inflight.load(Ordering::Relaxed) > 0)
            && start.elapsed() < timeout
        {
            self.state.sched.notify_source();
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// A parsed request plus the responder owed its answer, in flight to the
/// request worker pool.
pub(crate) struct ReqWork {
    pub request: Request,
    pub responder: Responder,
}

/// How the reactor's router settled a request.
pub(crate) enum Dispatched {
    /// Answer now, on the reactor thread.
    Ready(Response),
    /// Someone else (request worker, solver) owns the responder.
    Pending,
}

/// Binds `cfg.addr` and spawns the daemon's threads. Returns immediately.
pub fn serve(cfg: ServiceConfig) -> std::io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    // SIGTERM/SIGINT → graceful drain: the signals must be blocked
    // BEFORE any thread exists (the scheduler pool inside
    // ServiceState::new, the workers, the housekeeper) — every thread
    // inherits this mask, and one unmasked thread is enough for a
    // delivered SIGTERM to kill the whole process instead of surfacing
    // as readability on the signalfd owned by reactor 0.
    let mut signal = if cfg.handle_signals {
        match lazymc_netio::SignalFd::for_shutdown() {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!(
                    "lazymc-service: signalfd unavailable ({e}); SIGTERM will kill instead of drain"
                );
                None
            }
        }
    } else {
        None
    };

    let (state, replayed) = ServiceState::new(&cfg)?;
    let state = Arc::new(state);
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Fault injection from the environment (debug builds or the `armed`
    // feature; a no-op constant in plain release builds). Armed here so
    // the real binary honors LAZYMC_CHAOS without CLI plumbing.
    match lazymc_chaos::arm_from_env() {
        Some(Ok(n)) => eprintln!(
            "lazymc-service: chaos armed from ${}: {n} point(s)",
            lazymc_chaos::ENV_VAR
        ),
        Some(Err(e)) => eprintln!("lazymc-service: ignoring ${}: {e}", lazymc_chaos::ENV_VAR),
        None => {}
    }

    // No dedicated solver threads: the machine-wide scheduler pool (built
    // inside ServiceState::new) pulls jobs straight from the queue. The
    // source is registered here because it needs a Weak to the Arc.
    state.sched.set_source(Arc::new(JobFeed {
        state: Arc::downgrade(&state),
    }));

    // Crash recovery: re-enqueue journaled jobs before the reactors start
    // accepting, so recovered work is ahead of new traffic in the queue.
    replay_journal(&state, &cfg, replayed);

    // Request worker pool. The channel's senders live in the reactors;
    // when the reactors exit at shutdown, the channel closes and the
    // workers drain out.
    let (work_tx, work_rx) = mpsc::channel::<ReqWork>();
    let work_rx = Arc::new(Mutex::new(work_rx));
    for i in 0..cfg.effective_workers() {
        let state = state.clone();
        let cfg = cfg.clone();
        let work_rx = work_rx.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("lazymc-req-{i}"))
                .spawn(move || loop {
                    let next = { plock(&work_rx).recv() };
                    match next {
                        Ok(work) => {
                            // A panicking handler must not shrink the pool;
                            // the dropped Responder answers its connection
                            // with a 500 (see ResponderInner::drop).
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                handle_heavy(&state, &cfg, work)
                            }));
                        }
                        Err(_) => break,
                    }
                })?,
        );
    }

    // Housekeeping: memory-watermark enforcement, journal self-heal
    // re-probes and the background integrity scrubber share one
    // low-duty-cycle thread (all three are periodic and none may block
    // the request path).
    {
        let state = state.clone();
        let shutdown = shutdown.clone();
        let scrub_interval = cfg.scrub_interval;
        threads.push(
            std::thread::Builder::new()
                .name("lazymc-keeper".into())
                .spawn(move || housekeeper(&state, &shutdown, scrub_interval))?,
        );
    }

    // Reactors. Reactor 0 owns the listener and hands accepted
    // connections round-robin across the set.
    let io_threads = cfg.effective_io_threads();
    let mut reactors = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        reactors.push(Arc::new(ReactorShared::new()?));
    }
    let mut listener = Some(listener);
    for (idx, shared) in reactors.iter().enumerate() {
        let args = reactor::ReactorArgs {
            idx,
            state: state.clone(),
            cfg: cfg.clone(),
            listener: listener.take().filter(|_| idx == 0),
            signal: if idx == 0 { signal.take() } else { None },
            shared: shared.clone(),
            peers: reactors.clone(),
            shutdown: shutdown.clone(),
            work_tx: work_tx.clone(),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("lazymc-io-{idx}"))
                .spawn(move || reactor::run_reactor(args))?,
        );
    }
    drop(work_tx);

    Ok(ServiceHandle {
        addr,
        state,
        shutdown,
        reactors,
        threads,
        drain_timeout: cfg.drain_timeout,
    })
}

/// The housekeeping loop: every ~100 ms, enforce the memory watermarks
/// and re-probe a disabled journal; every `scrub_interval`, run one
/// integrity pass over snapshots and the journal. A chaos-injected panic
/// in one tick must not end housekeeping for the process lifetime.
fn housekeeper(state: &Arc<ServiceState>, shutdown: &AtomicBool, scrub_interval: Option<Duration>) {
    let mut next_scrub = scrub_interval.map(|i| Instant::now() + i);
    while !shutdown.load(Ordering::SeqCst) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enforce_memory(state);
            if let Some(journal) = &state.journal {
                if journal.try_reenable() {
                    state.health.clear("journal");
                    eprintln!("lazymc-service: journal re-enabled after a successful re-probe");
                }
            }
            if let Some(at) = next_scrub {
                if Instant::now() >= at {
                    scrub_pass(state);
                    next_scrub = scrub_interval.map(|i| Instant::now() + i);
                }
            }
        }));
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One memory-watermark tick. Soft: flag `/healthz` degraded (uploads are
/// rejected at their endpoint). Hard: additionally cancel the
/// lowest-priority running solve through the normal abort machinery — it
/// finishes its current neighbourhood, reports truncated, and frees its
/// working set.
fn enforce_memory(state: &ServiceState) {
    if !state.mem.enforced() {
        return;
    }
    lazymc_chaos::point!("mem.watermark");
    let live = state.mem.live_bytes();
    match state.mem.classify(live) {
        MemLevel::Ok => state.health.clear("memory"),
        MemLevel::Soft => state.health.degrade(
            "memory",
            format!(
                "live heap {live} bytes over soft watermark {} (max {})",
                state.mem.soft_bytes().unwrap_or(0),
                state.mem.hard_bytes().unwrap_or(0),
            ),
        ),
        MemLevel::Hard => {
            state.health.degrade(
                "memory",
                format!(
                    "live heap {live} bytes at hard watermark {}; cancelling cheapest running solve",
                    state.mem.hard_bytes().unwrap_or(0),
                ),
            );
            if let Some((id, priority)) = state.jobs.cancel_lowest_priority_running() {
                state.mem.hard_cancels.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "lazymc-service: hard memory watermark: cancelled running job {id} (priority {priority})"
                );
            }
        }
    }
}

/// One background integrity pass: re-verify every indexed snapshot
/// end-to-end (decode, graph reconstruction, k-core extraction — bit rot
/// quarantines the file so it can never be lazily served) and re-walk the
/// journal's frame CRCs. A clean pass clears the `scrub` degradation.
fn scrub_pass(state: &ServiceState) {
    state
        .metrics
        .scrub_passes_total
        .fetch_add(1, Ordering::Relaxed);
    // Fault point for the pass itself (a scrubber that cannot read the
    // volume), kept outside SnapshotStore::verify so an injected error
    // can never quarantine a healthy file.
    if let Err(e) = lazymc_chaos::raise_io("scrub.snapshot") {
        state
            .health
            .degrade("scrub", format!("scrub pass aborted: {e}"));
        return;
    }
    let mut findings: Vec<String> = Vec::new();
    if let Some(store) = state.registry.store() {
        for name in store.names() {
            if !store.verify(&name) {
                // A mapped entry serves pages of the file just quarantined;
                // drop it so no later solve reads rotted bytes. Heap entries
                // were fully validated at decode and own their arrays — they
                // stay resident.
                let dropped = state.registry.drop_mapped(&name);
                findings.push(format!(
                    "snapshot {name:?} failed verification (quarantined{})",
                    if dropped {
                        "; resident mapping dropped"
                    } else {
                        ""
                    }
                ));
            }
        }
    }
    if let Some(journal) = &state.journal {
        if let Err(e) = journal.scrub() {
            findings.push(format!("journal scrub: {e}"));
        }
    }
    if findings.is_empty() {
        state.health.clear("scrub");
    } else {
        state
            .metrics
            .scrub_corruptions_total
            .fetch_add(findings.len() as u64, Ordering::Relaxed);
        for f in &findings {
            eprintln!("lazymc-service: scrub: {f}");
        }
        state.health.degrade("scrub", findings.join("; "));
    }
}

/// Re-runs jobs the journal recorded as admitted but never completed: a
/// crash (SIGKILL, OOM, power loss) between a job's 202/enqueue and its
/// completion must not silently lose it. Replayed jobs keep their
/// original ids and are retained like `?async=1` submissions, so a
/// client can re-poll the id it was given before the crash. Jobs that
/// can no longer run — graph gone, body unparsable, queue full at
/// recovery — become terminal `failed` records instead of vanishing.
fn replay_journal(state: &Arc<ServiceState>, cfg: &ServiceConfig, replayed: Vec<ReplayedJob>) {
    if replayed.is_empty() {
        return;
    }
    let total = replayed.len();
    let mut requeued = 0usize;
    for job in replayed {
        let id = job.id;
        // Reserve the original id so new submissions allocate past it.
        let ticket = state.queue.ticket_for(id);
        let fail = |reason: String| {
            Json::obj(vec![
                ("error", Json::str(reason)),
                ("replayed", Json::Bool(true)),
            ])
        };
        let request = match Json::parse(&job.body).and_then(|v| SolveRequest::from_json(&v)) {
            Ok(r) => r,
            Err(e) => {
                state.jobs.insert_terminal(
                    ticket,
                    String::new(),
                    JobState::Failed,
                    fail(format!("journal replay: bad admit body: {e}")),
                );
                journal_complete(state, id);
                continue;
            }
        };
        let Some(entry) = state.registry.get(&request.graph) else {
            state.jobs.insert_terminal(
                ticket,
                request.graph.clone(),
                JobState::Failed,
                fail(format!(
                    "journal replay: graph {:?} is no longer loadable",
                    request.graph
                )),
            );
            journal_complete(state, id);
            continue;
        };
        match submit_solve(
            state,
            cfg,
            &request,
            &entry,
            JobSink::Async,
            "replay",
            0,
            Some(&ticket),
        ) {
            Submitted::CacheHit(result) => {
                // An identical solve completed (and was cached) before the
                // crash: record the cached answer as this job's result.
                state
                    .jobs
                    .insert_terminal(ticket, request.graph.clone(), JobState::Done, result);
                journal_complete(state, id);
            }
            Submitted::Enqueued(_) => requeued += 1,
            Submitted::Shed { .. } | Submitted::Draining => {
                unreachable!("replayed jobs bypass the admission gates")
            }
            Submitted::Full { capacity } => {
                state.jobs.insert_terminal(
                    ticket,
                    request.graph.clone(),
                    JobState::Failed,
                    fail(format!(
                        "journal replay: queue full ({capacity}) at recovery"
                    )),
                );
                journal_complete(state, id);
            }
        }
    }
    eprintln!("lazymc-service: journal replay: {requeued}/{total} interrupted job(s) re-enqueued");
}

/// Finishes a job's trace: histograms, slow-log admission and the
/// structured log line are recorded inside `complete()`, *before* the
/// result reaches its sink — a client holding its answer can never
/// catch the metrics unrecorded.
fn complete_observed(
    state: &ServiceState,
    id: u64,
    reply: Result<SolveReply, String>,
    cancelled: bool,
    wait_us: u64,
    solve_us: u64,
    phases_us: [u64; 6],
) {
    let failed = reply.is_err();
    // Every completion — solved, failed, cancelled, reaped — frees a
    // queue slot, which is what the Retry-After estimator measures.
    state.drain_rate.observe_completion();
    state.jobs.complete(id, reply, cancelled, |meta| {
        state.obs.observe_solve(&SolveObservation {
            job_id: id,
            graph: meta.graph,
            trace: meta.trace,
            parse_us: meta.parse_us,
            wait_us,
            solve_us,
            serialize_us: meta.serialize_us,
            phases_us,
            cancelled,
            failed,
        });
    });
    // Terminal — including `failed`: a job that panicked must not be
    // re-run forever by every subsequent boot's replay.
    journal_complete(state, id);
}

/// Runs one popped [`SolveJob`] to completion on a scheduler worker. This
/// is the body of a root task: the solve's own subtree scopes re-enter the
/// same pool (tagged with this job's id/deadline/priority), so any idle
/// worker — including ones that finish *other* jobs mid-solve — steals
/// into it. Node counts from every stolen subtree land in the one shared
/// `SolveProgress` cell, which is what `GET /jobs/<id>` aggregates.
fn run_solve_job(state: &ServiceState, popped: Popped<SolveJob>) {
    let Popped {
        ticket,
        priority,
        deadline: queue_deadline,
        payload: job,
        ..
    } = popped;
    let waited = job.enqueued.elapsed();
    let wait_ms = waited.as_millis() as u64;
    let wait_us = waited.as_micros() as u64;
    if ticket.is_cancelled() {
        // Cancelled while queued: the job store already answered the
        // sink when the cancellation landed. Reaping the carcass still
        // freed a slot, which the drain-rate estimator cares about.
        state.drain_rate.observe_completion();
        return;
    }
    // Feed the shedding controller the wait this job actually endured;
    // one wait at/below target ends shedding, waits above it for a full
    // interval start it.
    state.shedder.observe_wait(waited);
    // Dead on arrival: a budget that was still live at admission fully
    // expired while the job sat in the queue. Running it would charge a
    // solver worker for a zero-work truncated answer — reap it instead
    // (work-avoidance applies to the queue too). Jobs without a budget
    // never expire here, and a deadline already expired *at* admission
    // (`budget_ms: 0`, or a cap of 0) is an explicit request for the
    // best-effort greedy answer, not queue-induced staleness — it runs.
    if job
        .deadline
        .expires_at()
        .is_some_and(|t| t > job.enqueued && Instant::now() >= t)
        && !job.deadline.is_cancelled()
    {
        state.metrics.jobs_doa_total.fetch_add(1, Ordering::Relaxed);
        complete_observed(
            state,
            ticket.id,
            Err(format!(
                "deadline expired in queue (waited {wait_ms} ms); job reaped before solving"
            )),
            false,
            wait_us,
            0,
            [0; 6],
        );
        return;
    }
    // The live-progress cell: the solve publishes into it (phase
    // marks, relaxed counters, incumbent size) and `GET /jobs/<id>`
    // reads it while the job runs.
    let progress = Arc::new(SolveProgress::new());
    state.jobs.mark_running(ticket.id, Arc::clone(&progress));
    state.jobs.jobs_inflight.fetch_add(1, Ordering::Relaxed);
    let meta = TaskMeta {
        job_id: ticket.id,
        deadline: queue_deadline,
        priority,
    };
    let t = Instant::now();
    // A panicking solve must not take the worker thread (and with it,
    // eventually, the whole scheduler pool) down: catch, count, report.
    // First solve against a mapped graph: prefetch the file, then turn
    // readahead off for the random neighbourhood probes (no-op for heap
    // entries and on later solves).
    job.entry.advise_first_solve();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lazymc_chaos::point!("solve.run");
        LazyMc::new(job.config.clone()).solve_prepared_on(
            job.entry.graph.as_ref(),
            Some(job.entry.kcore_view()),
            &job.deadline,
            Some(&progress),
            &state.sched,
            meta,
        )
    }));
    let solved = t.elapsed();
    let solve_ms = solved.as_millis() as u64;
    let solve_us = solved.as_micros() as u64;
    state.jobs.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
    let result = match outcome {
        Ok(result) => result,
        Err(_) => {
            state
                .metrics
                .solver_panics_total
                .fetch_add(1, Ordering::Relaxed);
            complete_observed(
                state,
                ticket.id,
                Err("solver panicked on this input; see /metrics".to_string()),
                ticket.is_cancelled(),
                wait_us,
                solve_us,
                [0; 6],
            );
            return;
        }
    };

    let cancelled = ticket.is_cancelled();
    state.metrics.solves_total.fetch_add(1, Ordering::Relaxed);
    if !result.is_exact() {
        state
            .metrics
            .solves_truncated_total
            .fetch_add(1, Ordering::Relaxed);
    }
    plock(&state.core_totals).accumulate(&result.metrics);

    let mut clique = result.vertices().to_vec();
    clique.sort_unstable();
    // Only exact, uncancelled results are cacheable (a cancel racing
    // completion could otherwise pin a half-meant answer).
    if result.is_exact() && !cancelled {
        if let Some(canonical) = &job.cache_key {
            state.results.put(
                &job.entry.name,
                job.entry.fingerprint,
                canonical.clone(),
                CachedSolve {
                    omega: clique.len(),
                    clique: clique.clone(),
                    solve_ms,
                },
            );
        }
    }
    let phases_us = phase_micros(&result.metrics.phases);
    complete_observed(
        state,
        ticket.id,
        Ok(SolveReply {
            omega: clique.len(),
            clique,
            exact: result.is_exact(),
            cached: false,
            wait_ms,
            solve_ms,
            phases: result.metrics.phases,
        }),
        cancelled,
        wait_us,
        solve_us,
        phases_us,
    );
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// The reactor-side router: answers cheap endpoints inline (microseconds,
/// no locks beyond short-held counters/maps) and forwards anything that
/// parses bodies or may touch disk to the request worker pool.
pub(crate) fn dispatch(
    state: &Arc<ServiceState>,
    cfg: &ServiceConfig,
    req: Request,
    responder: Responder,
    work_tx: &mpsc::Sender<ReqWork>,
) -> Dispatched {
    // Scoped so the path borrow ends before `req` moves to the workers.
    let inline: Option<Response> = {
        let path = req.route_path();
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => Some(healthz(state, cfg)),
            ("GET", "/readyz") => Some(readyz(state)),
            ("GET", "/metrics") => Some(metrics(state)),
            ("GET", "/stats") => Some(global_stats(state, cfg)),
            ("GET", "/graphs") => Some(list_graphs(state)),
            ("GET", "/debug/slow") => Some(Response::json(200, state.obs.slow_json())),
            ("GET", "/debug/chaos") => Some(chaos_status()),
            ("POST", "/debug/chaos") => Some(chaos_control(&req.body)),
            ("GET", p) if p.starts_with("/jobs/") => Some(job_status(state, p)),
            ("DELETE", p) if p.starts_with("/jobs/") => Some(job_cancel(state, p)),
            // Heavier or per-graph routes run off-reactor; unknown GET and
            // DELETE paths fall through to the worker too and 404 there
            // (keeps this match small and the reactor code path short).
            ("POST", "/graphs" | "/solve" | "/solve-batch") | ("GET", _) | ("DELETE", _) => None,
            (method, path) => Some(Response::error(
                405,
                format!("{method} {path} not supported"),
            )),
        }
    };
    match inline {
        Some(response) => {
            // The reactor delivers this directly; settle the responder's
            // debt so its drop backstop stays quiet.
            responder.dismiss();
            Dispatched::Ready(response)
        }
        None => match work_tx.send(ReqWork {
            request: req,
            responder,
        }) {
            Ok(()) => Dispatched::Pending,
            Err(returned) => {
                returned.0.responder.dismiss();
                Dispatched::Ready(Response::error(503, "shutting down"))
            }
        },
    }
}

/// Request-worker-side router for the forwarded routes.
pub(crate) fn handle_heavy(state: &Arc<ServiceState>, cfg: &ServiceConfig, work: ReqWork) {
    let ReqWork { request, responder } = work;
    let path = request.route_path().to_string();
    match (request.method.as_str(), path.as_str()) {
        ("POST", "/graphs") => responder.respond(load_graph(state, &request.body)),
        ("POST", "/solve") => solve_endpoint(state, cfg, &request, responder),
        ("POST", "/solve-batch") => solve_batch(state, cfg, &request, responder),
        ("GET", p) => match p.strip_prefix("/stats/") {
            Some(name) => responder.respond(graph_stats(state, cfg, name)),
            None => responder.respond(Response::error(404, format!("no route {p}"))),
        },
        ("DELETE", p) => match p.strip_prefix("/graphs/") {
            Some(name) if state.registry.remove(name) => responder.respond(Response::json(
                200,
                Json::obj(vec![("removed", Json::str(name))]),
            )),
            Some(name) => {
                responder.respond(Response::error(404, format!("unknown graph {name:?}")))
            }
            None => responder.respond(Response::error(404, format!("no route {p}"))),
        },
        (method, p) => {
            responder.respond(Response::error(405, format!("{method} {p} not supported")))
        }
    }
}

fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

// ---------------------------------------------------------------------------
// Graph management endpoints
// ---------------------------------------------------------------------------

fn load_graph(state: &ServiceState, body: &str) -> Response {
    if state.is_draining() {
        return draining_response();
    }
    // Memory soft watermark: a graph upload (CSR + coreness + snapshot
    // buffer) is exactly the large allocation the watermark exists to
    // refuse. Solves against already-resident graphs keep running.
    let live = state.mem.live_bytes();
    if state.mem.enforced() && state.mem.classify(live) != MemLevel::Ok {
        state.mem.soft_rejects.fetch_add(1, Ordering::Relaxed);
        state.health.degrade(
            "memory",
            format!(
                "live heap {live} bytes over soft watermark {}; rejecting uploads",
                state.mem.soft_bytes().unwrap_or(0)
            ),
        );
        let mut r = Response::error(
            503,
            format!("memory watermark: {live} live bytes over the soft limit; upload refused"),
        );
        r.retry_after = Some(state.drain_rate.retry_after(state.queue.depth()));
        return r;
    }
    let parsed = match Json::parse(body).and_then(|v| LoadRequest::from_json(&v)) {
        Ok(r) => r,
        Err(e) => return Response::error(400, e),
    };
    let graph: CsrGraph = match parsed.format.as_str() {
        "edgelist" => match graph_io::read_edge_list(parsed.content.as_bytes()) {
            Ok(g) => g,
            Err(e) => return Response::error(400, format!("edge list: {e}")),
        },
        "dimacs" => match graph_io::read_dimacs(parsed.content.as_bytes()) {
            Ok(g) => g,
            Err(e) => return Response::error(400, format!("dimacs: {e}")),
        },
        "mtx" => match graph_io::read_matrix_market(parsed.content.as_bytes()) {
            Ok(g) => g,
            Err(e) => return Response::error(400, format!("matrix market: {e}")),
        },
        "suite" => {
            let Some(instance) = suite::by_name(parsed.content.trim()) else {
                return Response::error(
                    400,
                    format!("unknown suite instance {:?}", parsed.content),
                );
            };
            let scale = match parsed.scale.as_deref() {
                None | Some("test") => suite::Scale::Test,
                Some("standard") => suite::Scale::Standard,
                Some(other) => return Response::error(400, format!("unknown scale {other:?}")),
            };
            instance.build(scale)
        }
        _ => unreachable!("validated by LoadRequest::from_json"),
    };
    let entry = state.registry.insert(&parsed.name, graph);
    Response::json(
        201,
        Json::obj(vec![
            ("name", Json::str(&*entry.name)),
            ("fingerprint", Json::str(fingerprint_hex(entry.fingerprint))),
            ("vertices", Json::num(entry.graph.num_vertices() as f64)),
            ("edges", Json::num(entry.graph.num_edges() as f64)),
            ("degeneracy", Json::num(entry.degeneracy() as f64)),
            (
                "omega_upper_bound",
                Json::num(entry.omega_upper_bound() as f64),
            ),
            ("mapped", Json::Bool(entry.is_mapped())),
            ("prep_ms", Json::num(entry.prep_ms as f64)),
        ]),
    )
}

// ---------------------------------------------------------------------------
// Solve submission (single, async, batch)
// ---------------------------------------------------------------------------

/// How one solve request settled at submission time.
enum Submitted {
    /// Served from the result cache; the formatted result object.
    CacheHit(Json),
    /// Admitted to the queue under this job id.
    Enqueued(u64),
    /// Queue full.
    Full { capacity: usize },
    /// Refused by the overload controller: a standing queue past the
    /// delay target, and this admission would not overtake anything
    /// already waiting.
    Shed { retry_after: u64 },
    /// Refused because the daemon is draining (SIGTERM received): it is
    /// finishing admitted work, not taking more.
    Draining,
}

/// Admits one solve against a resolved registry entry: clamp threads and
/// budget, probe the result cache, register the job record, push. Shared
/// by `POST /solve` and every batch slot, so all paths behave (and
/// cache-key) identically.
/// `replay` carries the pre-allocated ticket of a journal-replayed job:
/// the job keeps its pre-crash id and — being already in the journal —
/// is not re-admitted.
#[allow(clippy::too_many_arguments)]
fn submit_solve(
    state: &ServiceState,
    cfg: &ServiceConfig,
    request: &SolveRequest,
    entry: &Arc<GraphEntry>,
    sink: JobSink,
    trace: &str,
    parse_us: u64,
    replay: Option<&JobTicket>,
) -> Submitted {
    let mut config = request.config();
    // Route the per-job width into the solver, clamped to the scheduler
    // pool's capacity: a width is how many pool workers the job's scopes
    // may recruit at once, so asking for more than the pool has is
    // meaningless. Unspecified (0 = "whatever is idle") must not bypass
    // the clamp either. (`threads` is excluded from the canonical cache
    // key — the width changes cost, never the answer.)
    config.threads = match config.threads {
        0 => cfg.max_job_threads(),
        t => t.min(cfg.max_job_threads()),
    };
    // Server-side budget cap: clamp requested budgets, default unbudgeted
    // requests. Applied *before* the canonical key is computed so the
    // result cache keys on the budget that actually ran.
    let mut budget_clamped = false;
    if let Some(cap_ms) = cfg.max_budget_ms {
        let cap = Duration::from_millis(cap_ms);
        match config.time_budget {
            Some(b) if b > cap => {
                config.time_budget = Some(cap);
                budget_clamped = true;
            }
            None => {
                config.time_budget = Some(cap);
                budget_clamped = true;
            }
            _ => {}
        }
    }
    let canonical = config.canonical_key();

    if !request.no_cache {
        if let Some(hit) = state
            .results
            .get(&entry.name, entry.fingerprint, &canonical)
        {
            let reply = SolveReply {
                omega: hit.omega,
                clique: hit.clique,
                exact: true,
                cached: true,
                wait_ms: 0,
                solve_ms: hit.solve_ms,
                phases: PhaseTimes::default(),
            };
            return Submitted::CacheHit(JobStore::result_json(
                &entry.name,
                None,
                &reply,
                budget_clamped,
                false,
            ));
        }
    }

    // Lifecycle and overload gates, after the cache probe (a cache hit
    // costs nothing and is never refused) and before any record exists.
    // Replayed jobs are exempt from both: they were durably admitted
    // before the restart and the journal owes them an outcome.
    if replay.is_none() {
        if state.is_draining() {
            return Submitted::Draining;
        }
        let best_queued = state.queue.peek_key().map(|(p, _, _)| p);
        if best_queued.is_none() {
            // Queue momentarily empty: no standing queue is possible, and
            // the controller must notice even if no pop happens for a
            // while.
            state.shedder.observe_idle();
        }
        if state.shedder.should_shed(request.priority, best_queued) {
            lazymc_chaos::point!("overload.shed");
            state.shedder.count_shed();
            return Submitted::Shed {
                retry_after: state.drain_rate.retry_after(state.queue.depth()),
            };
        }
    }

    let deadline = Arc::new(Deadline::starting_now(config.time_budget));
    // Stamped here, NOT at push: the journal fsync below can take
    // milliseconds, and the DOA reaper distinguishes "budget live at
    // admission" from "expired by construction" by comparing the
    // deadline against this instant — a stamp taken after the fsync
    // would misclassify small live budgets as already-expired ones.
    let enqueued = Instant::now();
    let ticket = match replay {
        Some(t) => t.clone(),
        None => state.queue.ticket(),
    };
    let id = ticket.id;
    // Record first, push second: the job must be findable (for GET/DELETE
    // and for the worker's completion) before any worker can pop it.
    state.jobs.insert_queued(
        ticket.clone(),
        deadline.clone(),
        sink,
        JobMeta {
            graph: entry.name.clone(),
            budget_clamped,
            trace: trace.to_string(),
            parse_us,
            budget_ms: config.time_budget.map(|b| b.as_millis() as u64),
            priority: request.priority,
        },
    );
    // Durability point: the admit record is fsynced BEFORE the job
    // becomes poppable (and before any acknowledgement can reach the
    // client), so a crash at any later moment replays the job. An append
    // failure degrades to memory-only admission — the job still runs.
    if replay.is_none() {
        if let Some(journal) = &state.journal {
            if let Err(e) = journal.admit(id, &request.to_json().encode()) {
                state
                    .health
                    .degrade("journal", format!("journal append failed: {e}"));
            }
        }
    }
    let expires = deadline.expires_at();
    let job = SolveJob {
        entry: entry.clone(),
        config,
        deadline,
        cache_key: (!request.no_cache).then(|| canonical.clone()),
        enqueued,
    };
    match state
        .queue
        .push_ticketed(request.priority, expires, &ticket, job)
    {
        Ok(()) => {
            // Ring the pool's doorbell: a parked scheduler worker re-scans
            // its sources and finds this job.
            state.sched.notify_source();
            Submitted::Enqueued(id)
        }
        Err(full) => {
            state.jobs.forget(id);
            if replay.is_none() {
                // Neutralize the admit record: a 429'd job must not be
                // resurrected by the next boot's replay.
                journal_complete(state, id);
            }
            Submitted::Full {
                capacity: full.capacity,
            }
        }
    }
}

fn queue_full_response(state: &ServiceState, capacity: usize) -> Response {
    let mut r = Response::error(429, format!("{capacity} pending jobs; try again shortly"));
    // Tell the client when a slot will plausibly exist, from the observed
    // drain rate — not a static guess.
    r.retry_after = Some(state.drain_rate.retry_after(state.queue.depth()));
    r
}

/// 503 for an admission refused by the overload controller.
fn shed_response(retry_after: u64) -> Response {
    let mut r = Response::error(
        503,
        "overloaded: queue wait above target; lowest-priority admissions are shed",
    );
    r.retry_after = Some(retry_after);
    r
}

/// 503 for work refused because the daemon is draining.
fn draining_response() -> Response {
    Response::error(503, "draining: finishing admitted work, not accepting more")
}

/// `POST /solve` (sync) and `POST /solve?async=1` (202 + job id).
fn solve_endpoint(state: &ServiceState, cfg: &ServiceConfig, req: &Request, responder: Responder) {
    let t_parse = Instant::now();
    let parsed = Json::parse(&req.body).and_then(|v| {
        let r = SolveRequest::from_json(&v)?;
        let is_async =
            req.query_flag("async") || v.get("async").and_then(Json::as_bool).unwrap_or(false);
        Ok((r, is_async))
    });
    let parse_us = t_parse.elapsed().as_micros() as u64;
    let (request, is_async) = match parsed {
        Ok(p) => p,
        Err(e) => return responder.respond(Response::error(400, e)),
    };
    let Some(entry) = state.registry.get(&request.graph) else {
        return responder.respond(Response::error(
            404,
            format!("unknown graph {:?}", request.graph),
        ));
    };
    let sink = if is_async {
        JobSink::Async
    } else {
        JobSink::Sync(responder.clone())
    };
    let trace = req.trace.as_deref().unwrap_or("");
    match submit_solve(state, cfg, &request, &entry, sink, trace, parse_us, None) {
        Submitted::CacheHit(result) => responder.respond(Response::json(200, result)),
        Submitted::Enqueued(id) if is_async => {
            // Counted here — after the push succeeded — so 429-rejected
            // submissions never inflate the async metric.
            state.jobs.async_submitted.fetch_add(1, Ordering::Relaxed);
            responder.respond(Response::json(
                202,
                Json::obj(vec![
                    ("job_id", Json::num(id as f64)),
                    ("status", Json::str("queued")),
                    ("poll", Json::str(format!("/jobs/{id}"))),
                ]),
            ))
        }
        Submitted::Enqueued(_) => {} // sync: the job's sink owns the responder
        Submitted::Full { capacity } => responder.respond(queue_full_response(state, capacity)),
        Submitted::Shed { retry_after } => responder.respond(shed_response(retry_after)),
        Submitted::Draining => responder.respond(draining_response()),
    }
}

/// One batch slot's error object (mirrors the HTTP error body plus the
/// status it would have carried standalone).
fn batch_error(status: u16, message: impl Into<String>) -> Json {
    Json::obj(vec![
        ("error", Json::str(message.into())),
        ("status", Json::num(status as f64)),
    ])
}

/// `POST /solve-batch`: `{"requests":[...]}` (or a bare array) of solve
/// bodies, answered as one `{"results":[...]}` array in request order.
///
/// Items are *grouped by graph* before admission: each distinct graph is
/// resolved against the registry exactly once (so a batch against an
/// evicted graph triggers at most one snapshot reload), and its items are
/// pushed back-to-back so the FIFO tie-break keeps same-graph solves
/// adjacent in the queue — consecutive pops run against a warm entry.
fn solve_batch(state: &ServiceState, cfg: &ServiceConfig, req: &Request, responder: Responder) {
    let body = &req.body;
    let t_parse = Instant::now();
    let value = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return responder.respond(Response::error(400, e)),
    };
    let items = match value.get("requests") {
        Some(Json::Arr(items)) => items.as_slice(),
        Some(_) => return responder.respond(Response::error(400, "\"requests\" must be an array")),
        None => match &value {
            Json::Arr(items) => items.as_slice(),
            _ => {
                return responder.respond(Response::error(
                    400,
                    "batch body must be an array or {\"requests\": [...]}",
                ))
            }
        },
    };
    if items.is_empty() {
        return responder.respond(Response::error(400, "empty batch"));
    }
    if items.len() > MAX_BATCH {
        return responder.respond(Response::error(
            400,
            format!(
                "batch of {} exceeds the {MAX_BATCH}-request limit",
                items.len()
            ),
        ));
    }
    state.metrics.batches_total.fetch_add(1, Ordering::Relaxed);
    state
        .metrics
        .batch_jobs_total
        .fetch_add(items.len() as u64, Ordering::Relaxed);

    // Parse every slot up front; per-slot failures become per-slot errors.
    let parsed: Vec<Result<SolveRequest, String>> =
        items.iter().map(SolveRequest::from_json).collect();
    // Every slot shares the batch's trace id; the batch-wide parse cost
    // is attributed to the first slot (charging it to each slot would
    // multi-count it across the histograms).
    let trace = req.trace.clone().unwrap_or_default();
    let parse_us = t_parse.elapsed().as_micros() as u64;
    let mut parse_attributed = false;

    // Resolve each distinct graph once, in first-appearance order. This
    // is the co-location step: one registry lookup (and at most one lazy
    // snapshot reload) per graph, however many slots share it.
    let mut graph_order: Vec<String> = Vec::new();
    let mut entries: std::collections::HashMap<String, Option<Arc<GraphEntry>>> =
        std::collections::HashMap::new();
    for request in parsed.iter().flatten() {
        if !entries.contains_key(&request.graph) {
            graph_order.push(request.graph.clone());
            entries.insert(request.graph.clone(), state.registry.get(&request.graph));
        }
    }

    let agg = BatchAggregator::new(responder, parsed.len());
    // Invalid slots settle immediately...
    for (slot, item) in parsed.iter().enumerate() {
        if let Err(e) = item {
            agg.fill(slot, batch_error(400, e.clone()));
        }
    }
    // ...then each graph's slots are admitted back-to-back.
    for name in &graph_order {
        let entry = &entries[name];
        for (slot, request) in parsed.iter().enumerate() {
            let Ok(request) = request else { continue };
            if &request.graph != name {
                continue;
            }
            let Some(entry) = entry else {
                agg.fill(slot, batch_error(404, format!("unknown graph {name:?}")));
                continue;
            };
            let sink = JobSink::Batch {
                agg: agg.clone(),
                slot,
            };
            let slot_parse_us = if parse_attributed { 0 } else { parse_us };
            parse_attributed = true;
            match submit_solve(
                state,
                cfg,
                request,
                entry,
                sink,
                &trace,
                slot_parse_us,
                None,
            ) {
                Submitted::CacheHit(result) => agg.fill(slot, result),
                Submitted::Enqueued(_) => {}
                Submitted::Full { capacity } => agg.fill(
                    slot,
                    batch_error(429, format!("{capacity} pending jobs; slot shed")),
                ),
                Submitted::Shed { retry_after } => agg.fill(
                    slot,
                    batch_error(
                        503,
                        format!("overloaded; slot shed, retry in ~{retry_after}s"),
                    ),
                ),
                Submitted::Draining => agg.fill(slot, batch_error(503, "draining; slot refused")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Job endpoints
// ---------------------------------------------------------------------------

fn job_id_from(path: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?.parse().ok()
}

fn job_status(state: &ServiceState, path: &str) -> Response {
    let Some(id) = job_id_from(path) else {
        return Response::error(404, format!("no route {path}"));
    };
    match state.jobs.view(id) {
        Some(view) => Response::json(200, view),
        None => Response::error(
            404,
            format!("no such job {id} ({})", state.jobs.missing_reason(id)),
        ),
    }
}

fn job_cancel(state: &ServiceState, path: &str) -> Response {
    let Some(id) = job_id_from(path) else {
        return Response::error(404, format!("no route {path}"));
    };
    match state.jobs.cancel(id) {
        CancelOutcome::NotFound => Response::error(
            404,
            format!("no such job {id} ({})", state.jobs.missing_reason(id)),
        ),
        CancelOutcome::AlreadyDone(state) => {
            Response::error(409, format!("job {id} already {}", state.as_str()))
        }
        CancelOutcome::Cancelled { was } => {
            if was == JobState::Queued {
                // A queued cancel answers the sink directly and the worker
                // skips the popped carcass, so the completion that erases
                // the journal's admit record is written here.
                journal_complete(state, id);
            }
            Response::json(
                200,
                Json::obj(vec![
                    ("job_id", Json::num(id as f64)),
                    ("cancelled", Json::Bool(true)),
                    ("was", Json::str(was.as_str())),
                ]),
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Introspection endpoints
// ---------------------------------------------------------------------------

fn graph_stats(state: &ServiceState, cfg: &ServiceConfig, name: &str) -> Response {
    let Some(entry) = state.registry.get(name) else {
        return Response::error(404, format!("unknown graph {name:?}"));
    };
    let g = &entry.graph;
    Response::json(
        200,
        Json::obj(vec![
            ("name", Json::str(&*entry.name)),
            ("fingerprint", Json::str(fingerprint_hex(entry.fingerprint))),
            ("vertices", Json::num(g.num_vertices() as f64)),
            ("edges", Json::num(g.num_edges() as f64)),
            ("max_degree", Json::num(g.max_degree() as f64)),
            ("density", Json::num(g.density())),
            ("degeneracy", Json::num(entry.degeneracy() as f64)),
            (
                "omega_upper_bound",
                Json::num(entry.omega_upper_bound() as f64),
            ),
            ("mapped", Json::Bool(entry.is_mapped())),
            ("mapped_bytes", Json::num(entry.graph.mapped_bytes() as f64)),
            ("queries", Json::num(entry.queries() as f64)),
            (
                "resident_ms",
                Json::num(entry.loaded_at.elapsed().as_millis() as f64),
            ),
            ("lazy_loaded", Json::Bool(entry.lazy_loaded)),
            (
                "max_budget_ms",
                match cfg.max_budget_ms {
                    Some(ms) => Json::num(ms as f64),
                    None => Json::Null,
                },
            ),
            (
                "snapshot_bytes",
                Json::num(
                    state
                        .registry
                        .store()
                        .and_then(|s| s.bytes_of(name))
                        .unwrap_or(0) as f64,
                ),
            ),
        ]),
    )
}

fn list_graphs(state: &ServiceState) -> Response {
    // One registry snapshot for both views, so a graph evicted or loaded
    // mid-request cannot show up in both lists (or neither).
    let resident_entries = state.registry.entries();
    let entries = resident_entries
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("name", Json::str(&*e.name)),
                ("fingerprint", Json::str(fingerprint_hex(e.fingerprint))),
                ("vertices", Json::num(e.graph.num_vertices() as f64)),
                ("edges", Json::num(e.graph.num_edges() as f64)),
                ("mapped", Json::Bool(e.is_mapped())),
                ("queries", Json::num(e.queries() as f64)),
            ])
        })
        .collect();
    // Snapshots present on disk but not resident (post-restart, or LRU
    // victims): solvable on first touch, so the listing must name them.
    let resident: std::collections::HashSet<&str> =
        resident_entries.iter().map(|e| e.name.as_str()).collect();
    let mut on_disk: Vec<String> = state
        .registry
        .store()
        .map(|s| s.names())
        .unwrap_or_default()
        .into_iter()
        .filter(|n| !resident.contains(n.as_str()))
        .collect();
    on_disk.sort_unstable();
    Response::json(
        200,
        Json::obj(vec![
            ("graphs", Json::Arr(entries)),
            (
                "on_disk",
                Json::Arr(on_disk.into_iter().map(Json::str).collect()),
            ),
        ]),
    )
}

/// The service-level gauge set reported identically (same names, same
/// values) by `/healthz`, `/stats`, and — as `lazymc_*` series — by
/// `/metrics`.
fn gauges(state: &ServiceState) -> Vec<(&'static str, Json)> {
    let m = &state.metrics;
    let (jobs_stored, job_store_bytes) = state.jobs.stats();
    // Residency is two different currencies now: heap bytes are memory the
    // daemon actually owns (what eviction frees); mapped bytes are page
    // cache the kernel reclaims on its own.
    let (graphs_mapped, mapped_bytes, snapshot_heap_bytes) =
        state
            .registry
            .entries()
            .iter()
            .fold((0u64, 0u64, 0u64), |(n, mb, hb), e| {
                (
                    n + u64::from(e.is_mapped()),
                    mb + e.graph.mapped_bytes(),
                    hb + e.graph.heap_bytes(),
                )
            });
    vec![
        ("graphs_mapped", Json::num(graphs_mapped as f64)),
        ("mapped_bytes", Json::num(mapped_bytes as f64)),
        ("snapshot_heap_bytes", Json::num(snapshot_heap_bytes as f64)),
        ("queue_depth", Json::num(state.queue.depth() as f64)),
        (
            "jobs_inflight",
            Json::num(state.jobs.jobs_inflight.load(Ordering::Relaxed) as f64),
        ),
        ("jobs_stored", Json::num(jobs_stored as f64)),
        ("job_store_bytes", Json::num(job_store_bytes as f64)),
        (
            "open_connections",
            Json::num(m.open_connections.load(Ordering::Relaxed) as f64),
        ),
        (
            "read_stalls",
            Json::num(m.read_stalls_total.load(Ordering::Relaxed) as f64),
        ),
        (
            "write_stalls",
            Json::num(m.write_stalls_total.load(Ordering::Relaxed) as f64),
        ),
        (
            "buffered_bytes",
            Json::num(m.buffered_bytes.load(Ordering::Relaxed) as f64),
        ),
        (
            "result_cache_bytes",
            Json::num(state.results.bytes() as f64),
        ),
        (
            "result_cache_entries",
            Json::num(state.results.len() as f64),
        ),
    ]
}

/// `GET /debug/chaos`: whether fault injection is compiled in, the
/// active spec, and per-point hit/injection counters.
fn chaos_status() -> Response {
    let points: Vec<Json> = lazymc_chaos::point_stats()
        .into_iter()
        .map(|p| {
            Json::obj(vec![
                ("point", Json::str(p.point)),
                ("fault", Json::str(p.fault)),
                ("trigger", Json::str(p.trigger)),
                ("hits", Json::num(p.hits as f64)),
                ("injected", Json::num(p.injected as f64)),
            ])
        })
        .collect();
    Response::json(
        200,
        Json::obj(vec![
            ("compiled_in", Json::Bool(lazymc_chaos::COMPILED_IN)),
            (
                "spec",
                match lazymc_chaos::active_spec() {
                    Some(s) => Json::str(s),
                    None => Json::Null,
                },
            ),
            (
                "injections_total",
                Json::num(lazymc_chaos::injections_total() as f64),
            ),
            ("points", Json::Arr(points)),
        ]),
    )
}

/// `POST /debug/chaos`: `{"spec": "point=fault[@trigger],..."}` arms,
/// `{"disarm": true}` (or an empty spec) disarms. 501 when the harness is
/// compiled out (plain release build without the `armed` feature).
fn chaos_control(body: &str) -> Response {
    if !lazymc_chaos::COMPILED_IN {
        return Response::error(
            501,
            "fault injection is compiled out of this build (release without the chaos `armed` feature)",
        );
    }
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, e),
    };
    if parsed
        .get("disarm")
        .and_then(Json::as_bool)
        .unwrap_or(false)
    {
        lazymc_chaos::disarm();
        return Response::json(200, Json::obj(vec![("armed", Json::Bool(false))]));
    }
    let Some(spec) = parsed.get("spec").and_then(Json::as_str) else {
        return Response::error(
            400,
            "body must be {\"spec\": \"point=fault[@trigger],...\"} or {\"disarm\": true}",
        );
    };
    if spec.trim().is_empty() {
        lazymc_chaos::disarm();
        return Response::json(200, Json::obj(vec![("armed", Json::Bool(false))]));
    }
    match lazymc_chaos::arm(spec) {
        Ok(n) => Response::json(
            200,
            Json::obj(vec![
                ("armed", Json::Bool(true)),
                ("points", Json::num(n as f64)),
            ]),
        ),
        Err(e) => Response::error(400, format!("bad chaos spec: {e}")),
    }
}

/// `GET /readyz` — readiness, deliberately distinct from `/healthz`
/// liveness: a draining daemon is perfectly healthy (it is finishing
/// admitted work) but must receive no new traffic, so load balancers
/// watch this endpoint and see the 503 *before* the listener closes.
fn readyz(state: &ServiceState) -> Response {
    if state.is_draining() {
        return Response::error(503, "draining");
    }
    Response::json(200, Json::obj(vec![("ready", Json::Bool(true))]))
}

fn healthz(state: &ServiceState, cfg: &ServiceConfig) -> Response {
    let degraded = state.health.is_degraded();
    let mut fields = vec![
        // Liveness ("status") is deliberately separate from component
        // health ("state"): a degraded daemon still answers requests.
        ("status", Json::str("ok")),
        ("state", Json::str(if degraded { "degraded" } else { "ok" })),
        (
            "degraded_reasons",
            Json::Arr(
                state
                    .health
                    .reasons()
                    .into_iter()
                    .map(|(component, reason)| {
                        Json::obj(vec![
                            ("component", Json::str(component)),
                            ("reason", Json::str(reason)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "journal",
            match &state.journal {
                Some(j) => Json::str(if j.is_enabled() {
                    "enabled"
                } else {
                    "disabled"
                }),
                None => Json::Null,
            },
        ),
        (
            "journal_pending",
            Json::num(state.journal.as_ref().map_or(0, |j| j.pending_len()) as f64),
        ),
        // Lifecycle: liveness stays 200 through a drain (/readyz is the
        // endpoint that flips), but operators can see the phase here.
        ("draining", Json::Bool(state.is_draining())),
        ("shedding", Json::Bool(state.shedder.is_shedding())),
        (
            "memory",
            Json::obj(vec![
                ("tracked", Json::Bool(state.mem.tracked())),
                ("enforced", Json::Bool(state.mem.enforced())),
                ("live_bytes", Json::num(state.mem.live_bytes() as f64)),
                (
                    "level",
                    Json::str(match state.mem.level() {
                        MemLevel::Ok => "ok",
                        MemLevel::Soft => "soft",
                        MemLevel::Hard => "hard",
                    }),
                ),
            ]),
        ),
        (
            "scrub_passes",
            Json::num(state.metrics.scrub_passes_total.load(Ordering::Relaxed) as f64),
        ),
        (
            "scrub_corruptions",
            Json::num(
                state
                    .metrics
                    .scrub_corruptions_total
                    .load(Ordering::Relaxed) as f64,
            ),
        ),
        (
            "max_budget_ms",
            match cfg.max_budget_ms {
                Some(ms) => Json::num(ms as f64),
                None => Json::Null,
            },
        ),
        (
            "uptime_ms",
            Json::num(state.started.elapsed().as_millis() as f64),
        ),
        ("graphs", Json::num(state.registry.len() as f64)),
        ("durable", Json::Bool(state.registry.store().is_some())),
        (
            "snapshots",
            Json::num(state.registry.store().map_or(0, |s| s.len()) as f64),
        ),
        (
            "snapshot_disk_bytes",
            Json::num(state.registry.store().map_or(0, |s| s.total_bytes()) as f64),
        ),
    ];
    fields.extend(gauges(state));
    Response::json(
        200,
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    )
}

/// `GET /stats` — server-wide counters and configuration (the per-graph
/// variant lives at `/stats/<name>`).
fn global_stats(state: &ServiceState, cfg: &ServiceConfig) -> Response {
    let mut fields = vec![
        (
            "uptime_ms",
            Json::num(state.started.elapsed().as_millis() as f64),
        ),
        ("graphs", Json::num(state.registry.len() as f64)),
        (
            "on_disk",
            Json::num(state.registry.store().map_or(0, |s| s.len()) as f64),
        ),
        ("queue_capacity", Json::num(cfg.queue_capacity as f64)),
        ("io_threads", Json::num(cfg.effective_io_threads() as f64)),
        ("workers", Json::num(cfg.effective_workers() as f64)),
        (
            "solver_workers",
            Json::num(cfg.effective_solver_workers() as f64),
        ),
        ("conn_limit", Json::num(cfg.effective_conn_limit() as f64)),
        ("job_ttl_ms", Json::num(cfg.job_ttl.as_millis() as f64)),
        (
            "max_budget_ms",
            match cfg.max_budget_ms {
                Some(ms) => Json::num(ms as f64),
                None => Json::Null,
            },
        ),
        (
            "requests_total",
            Json::num(state.metrics.requests_total.load(Ordering::Relaxed) as f64),
        ),
        (
            "solves_total",
            Json::num(state.metrics.solves_total.load(Ordering::Relaxed) as f64),
        ),
        (
            "result_cache_hits",
            Json::num(state.results.hits.load(Ordering::Relaxed) as f64),
        ),
        (
            "result_cache_misses",
            Json::num(state.results.misses.load(Ordering::Relaxed) as f64),
        ),
    ];
    // Queue wait as a first-class stat: the histogram the solver loop
    // feeds, summarized as quantiles (log2 buckets: within 2x).
    let qw = state.obs.queue_wait.snapshot();
    let q = |q: f64| match qw.quantile_us(q) {
        Some(us) => Json::num(us as f64 / 1e3),
        None => Json::Null,
    };
    fields.push(("queue_wait_count", Json::num(qw.count() as f64)));
    fields.push(("queue_wait_p50_ms", q(0.50)));
    fields.push(("queue_wait_p90_ms", q(0.90)));
    fields.push(("queue_wait_p99_ms", q(0.99)));
    fields.extend(gauges(state));
    Response::json(
        200,
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    )
}

fn metrics(state: &ServiceState) -> Response {
    let m = &state.metrics;
    let totals = plock(&state.core_totals).clone();
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    };
    counter(
        "lazymc_requests_total",
        "HTTP requests handled",
        m.requests_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_bad_requests_total",
        "Requests answered with a 4xx/5xx status",
        m.bad_requests_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_http_conns_accepted_total",
        "TCP connections accepted by the reactor",
        m.conns_accepted_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_http_conns_rejected_total",
        "Connections refused with 503 at the connection limit",
        m.conns_rejected_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_http_read_stalls_total",
        "Reads that returned WouldBlock mid-request (partial receive)",
        m.read_stalls_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_http_write_stalls_total",
        "Writes that left response bytes buffered (partial send)",
        m.write_stalls_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_http_request_timeouts_total",
        "Requests answered 408 after stalling past the read timeout",
        m.request_timeouts_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_solves_total",
        "Solve jobs executed (cache hits excluded)",
        m.solves_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_solves_truncated_total",
        "Solves cut short by their budget",
        m.solves_truncated_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_solver_panics_total",
        "Solve jobs that panicked in the solver",
        m.solver_panics_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_jobs_async_total",
        "Solve jobs submitted with ?async=1",
        state.jobs.async_submitted.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_jobs_cancelled_http_total",
        "Jobs cancelled via DELETE /jobs/<id>",
        state.jobs.cancelled_http.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_jobs_expired_total",
        "Completed async jobs evicted by TTL",
        state.jobs.expired.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_batches_total",
        "POST /solve-batch requests accepted",
        m.batches_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_batch_jobs_total",
        "Individual solve slots carried by batches",
        m.batch_jobs_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_result_cache_hits_total",
        "Solve requests answered from the result cache",
        state.results.hits.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_result_cache_misses_total",
        "Solve requests that missed the result cache",
        state.results.misses.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_result_cache_ttl_evictions_total",
        "Result-cache entries dropped by TTL expiry",
        state.results.ttl_evictions.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_result_cache_size_evictions_total",
        "Result-cache entries dropped by the byte budget",
        state.results.size_evictions.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_graph_lookup_hits_total",
        "Registry lookups that found the graph",
        state.registry.hits.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_graph_lookup_misses_total",
        "Registry lookups for unknown graphs",
        state.registry.misses.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_graphs_evicted_total",
        "Graphs evicted by the registry LRU",
        state.registry.evictions.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_jobs_rejected_total",
        "Solve jobs rejected with 429 (queue full)",
        state.queue.rejected.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_jobs_cancelled_total",
        "Queued jobs reaped after cancellation",
        state.queue.cancelled.load(Ordering::Relaxed),
    );
    // Persistence: the restart-survival story in four counters. A reload
    // after reboot shows up as a lazy load with core_computes flat — the
    // observable proof that preprocessing was reused, not redone.
    counter(
        "lazymc_core_computes_total",
        "k-core decompositions computed in-process (uploads; lazy reloads deserialize instead)",
        state.registry.core_computes.load(Ordering::Relaxed),
    );
    let store = state.registry.store();
    counter(
        "lazymc_snapshot_lazy_loads_total",
        "Graphs reloaded from disk snapshots on first use",
        store.map_or(0, |s| s.lazy_loads.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_snapshot_mmap_total",
        "Graphs mapped zero-copy from disk snapshots (no heap decode)",
        store.map_or(0, |s| s.mmap_loads.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_snapshot_writes_total",
        "Snapshots durably written (uploads and replacements)",
        store.map_or(0, |s| s.writes.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_snapshot_write_errors_total",
        "Snapshot writes that failed (graph resident but not durable)",
        store.map_or(0, |s| s.write_errors.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_snapshots_quarantined_total",
        "Snapshot files renamed aside after failing validation",
        store.map_or(0, |s| s.quarantined.load(Ordering::Relaxed)),
    );
    // Aggregated lazymc_core counters across all completed solves.
    counter(
        "lazymc_core_retained_coreness_total",
        "Neighbourhoods passing the coreness precondition",
        totals.retained_coreness,
    );
    counter(
        "lazymc_core_retained_f1_total",
        "Neighbourhoods surviving filter 1",
        totals.retained_f1,
    );
    counter(
        "lazymc_core_retained_f2_total",
        "Neighbourhoods surviving filter 2",
        totals.retained_f2,
    );
    counter(
        "lazymc_core_retained_f3_total",
        "Neighbourhoods surviving filter 3",
        totals.retained_f3,
    );
    counter(
        "lazymc_core_searched_mc_total",
        "Detailed searches dispatched to the MC solver",
        totals.searched_mc,
    );
    counter(
        "lazymc_core_searched_kvc_total",
        "Detailed searches dispatched to the k-VC solver",
        totals.searched_kvc,
    );
    counter(
        "lazymc_core_mc_nodes_total",
        "Branch-and-bound nodes expanded by the MC solver",
        totals.mc_nodes,
    );
    counter(
        "lazymc_core_vc_nodes_total",
        "Branch-and-bound nodes expanded by the k-VC solver",
        totals.vc_nodes,
    );
    counter(
        "lazymc_core_reduced_vertices_total",
        "Vertices removed by the subgraph reduction pass before detailed searches",
        totals.reduced_vertices,
    );
    counter(
        "lazymc_core_vc_reductions_total",
        "Vertices removed or forced by the k-VC kernelization rules",
        totals.vc_reductions,
    );
    counter(
        "lazymc_core_split_tasks_total",
        "Subtree tasks generated by intra-solve work splitting",
        totals.split_tasks,
    );
    counter(
        "lazymc_core_steals_total",
        "Split tasks executed by a worker other than their generator",
        totals.steals,
    );
    counter(
        "lazymc_core_incumbent_broadcasts_total",
        "Incumbent/early-stop broadcasts between parallel solve workers",
        totals.incumbent_broadcasts,
    );
    counter(
        "lazymc_core_filter_micros_total",
        "Thread-time spent filtering, microseconds",
        totals.filter_time.as_micros() as u64,
    );
    counter(
        "lazymc_core_mc_micros_total",
        "Thread-time in the MC subgraph solver, microseconds",
        totals.mc_time.as_micros() as u64,
    );
    counter(
        "lazymc_core_kvc_micros_total",
        "Thread-time in the k-VC subgraph solver, microseconds",
        totals.kvc_time.as_micros() as u64,
    );
    // Machine-wide scheduler pool: the counters behind the "one stealable
    // pool for all solves" design. Steals and preemptions say how work
    // moved; parks say how often workers ran dry.
    let sched_metrics = state.sched.metrics();
    counter(
        "lazymc_sched_steals_total",
        "Scope tickets taken from another scheduler worker's deque",
        sched_metrics.steals,
    );
    counter(
        "lazymc_sched_parks_total",
        "Times a scheduler worker parked on its doorbell",
        sched_metrics.parks,
    );
    counter(
        "lazymc_sched_preemptions_total",
        "Times a helper re-queued its ticket for more urgent work",
        sched_metrics.preemptions,
    );
    counter(
        "lazymc_sched_unit_runs_total",
        "Scope work units executed by the scheduler",
        sched_metrics.unit_runs,
    );
    counter(
        "lazymc_sched_job_runs_total",
        "Root solve jobs executed by the scheduler",
        sched_metrics.job_runs,
    );
    // Robustness: supervision, fault injection, the job journal and the
    // degraded-health state (see docs/robustness.md).
    counter(
        "lazymc_sched_worker_panics_total",
        "Panics caught inside scheduler workers (task units, jobs, or the worker loop)",
        sched_metrics.worker_panics,
    );
    counter(
        "lazymc_sched_worker_respawns_total",
        "Scheduler worker loops restarted by their supervisor after a panic",
        sched_metrics.worker_respawns,
    );
    counter(
        "lazymc_chaos_injections_total",
        "Faults injected by the chaos harness (0 unless armed)",
        lazymc_chaos::injections_total(),
    );
    let jrnl = state.journal.as_ref();
    counter(
        "lazymc_journal_appends_total",
        "Records appended to the job journal",
        jrnl.map_or(0, |j| j.appends.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_journal_append_errors_total",
        "Journal appends that failed (journal disabled, service degraded)",
        jrnl.map_or(0, |j| j.append_errors.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_journal_rotations_total",
        "Journal segment rotations",
        jrnl.map_or(0, |j| j.rotations.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_jobs_replayed_total",
        "Jobs recovered from the journal at boot",
        jrnl.map_or(0, |j| j.replayed.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_degraded_events_total",
        "Times a component entered the degraded state",
        state.health.degraded_events.load(Ordering::Relaxed),
    );
    // Overload control, lifecycle and the integrity scrubber.
    counter(
        "lazymc_overload_shed_total",
        "Admissions refused 503 by the queue-delay shedding controller",
        state.shedder.shed_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_jobs_doa_total",
        "Queued jobs reaped dead-on-arrival (budget expired before the solve started)",
        m.jobs_doa_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_mem_soft_rejects_total",
        "Uploads rejected 503 at the soft memory watermark",
        state.mem.soft_rejects.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_mem_hard_cancels_total",
        "Running solves cancelled at the hard memory watermark",
        state.mem.hard_cancels.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_journal_reenabled_total",
        "Times the journal self-heal re-probe brought a disabled journal back",
        jrnl.map_or(0, |j| j.reenabled.load(Ordering::Relaxed)),
    );
    counter(
        "lazymc_scrub_passes_total",
        "Background integrity-scrub passes completed",
        m.scrub_passes_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_scrub_corruptions_total",
        "Corruptions found by the scrubber (snapshots quarantined, journal CRC failures)",
        m.scrub_corruptions_total.load(Ordering::Relaxed),
    );
    counter(
        "lazymc_drain_completions_observed_total",
        "Job completions observed by the Retry-After drain-rate estimator",
        state.drain_rate.observed_total.load(Ordering::Relaxed),
    );
    let mut gauge = |name: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    };
    gauge(
        "lazymc_queue_depth",
        "Pending solve jobs",
        state.queue.depth() as u64,
    );
    gauge(
        "lazymc_jobs_inflight",
        "Solve jobs currently executing in solver workers",
        state.jobs.jobs_inflight.load(Ordering::Relaxed),
    );
    let (jobs_stored, job_store_bytes) = state.jobs.stats();
    gauge(
        "lazymc_jobs_stored",
        "Job records tracked (queued, running, retained results)",
        jobs_stored as u64,
    );
    gauge(
        "lazymc_job_store_bytes",
        "Accounted bytes of retained async-job results",
        job_store_bytes as u64,
    );
    gauge(
        "lazymc_http_open_connections",
        "Connections currently registered with the reactors",
        m.open_connections.load(Ordering::Relaxed),
    );
    gauge(
        "lazymc_http_buffered_bytes",
        "Request bytes buffered in userspace across all connections",
        m.buffered_bytes.load(Ordering::Relaxed),
    );
    gauge(
        "lazymc_result_cache_bytes",
        "Accounted bytes held by the result cache",
        state.results.bytes() as u64,
    );
    gauge(
        "lazymc_result_cache_entries",
        "Entries held by the result cache",
        state.results.len() as u64,
    );
    gauge(
        "lazymc_graphs_resident",
        "Graphs currently resident",
        state.registry.len() as u64,
    );
    let (graphs_mapped, mapped_bytes) = state
        .registry
        .entries()
        .iter()
        .fold((0u64, 0u64), |(n, b), e| {
            (n + u64::from(e.is_mapped()), b + e.graph.mapped_bytes())
        });
    gauge(
        "lazymc_graphs_mapped",
        "Resident graphs served zero-copy from a snapshot mapping",
        graphs_mapped,
    );
    gauge(
        "lazymc_mapped_bytes",
        "Bytes of snapshot files currently mapped (page-cache-backed, not daemon heap)",
        mapped_bytes,
    );
    gauge(
        "lazymc_snapshots_on_disk",
        "Snapshot files indexed in the data dir",
        store.map_or(0, |s| s.len()) as u64,
    );
    gauge(
        "lazymc_snapshot_disk_bytes",
        "Total bytes of indexed snapshots",
        store.map_or(0, |s| s.total_bytes()),
    );
    gauge(
        "lazymc_uptime_seconds",
        "Seconds since the daemon started",
        state.started.elapsed().as_secs(),
    );
    gauge(
        "lazymc_degraded",
        "1 when any component is degraded (reasons in /healthz)",
        u64::from(state.health.is_degraded()),
    );
    gauge(
        "lazymc_journal_pending",
        "Admitted-but-not-completed jobs tracked by the journal",
        jrnl.map_or(0, |j| j.pending_len()) as u64,
    );
    gauge(
        "lazymc_draining",
        "1 while the daemon is draining (listener closed, /readyz answers 503)",
        u64::from(state.is_draining()),
    );
    gauge(
        "lazymc_overload_shedding",
        "1 while the queue-delay controller is shedding lowest-priority admissions",
        u64::from(state.shedder.is_shedding()),
    );
    gauge(
        "lazymc_retry_after_seconds",
        "Retry-After the daemon would attach to a backpressure response right now",
        state.drain_rate.retry_after(state.queue.depth()),
    );
    gauge(
        "lazymc_mem_live_bytes",
        "Live heap bytes per the counting allocator (0 when untracked)",
        state.mem.live_bytes(),
    );
    gauge(
        "lazymc_mem_soft_limit_bytes",
        "Soft memory watermark (80% of --max-memory-bytes; 0 when unset)",
        state.mem.soft_bytes().unwrap_or(0),
    );
    gauge(
        "lazymc_mem_hard_limit_bytes",
        "Hard memory watermark (--max-memory-bytes; 0 when unset)",
        state.mem.hard_bytes().unwrap_or(0),
    );
    gauge(
        "lazymc_mem_tracked",
        "1 when this process routes allocations through the counting allocator",
        u64::from(state.mem.tracked()),
    );
    gauge(
        "lazymc_sched_workers",
        "Worker threads in the machine-wide scheduler pool",
        sched_metrics.workers.len() as u64,
    );
    // Per-worker scheduler series (labeled, so hand-rendered): cumulative
    // busy seconds and the per-scrape-window thread-efficiency gauge.
    let busy_ns: Vec<u64> = sched_metrics.workers.iter().map(|w| w.busy_ns).collect();
    let efficiency = state.obs.sched_window.efficiency(&busy_ns);
    out.push_str(
        "# HELP lazymc_sched_busy_seconds_total Seconds each scheduler worker spent executing task bodies\n\
         # TYPE lazymc_sched_busy_seconds_total counter\n",
    );
    for (i, b) in busy_ns.iter().enumerate() {
        out.push_str(&format!(
            "lazymc_sched_busy_seconds_total{{worker=\"{i}\"}} {:.6}\n",
            *b as f64 / 1e9
        ));
    }
    out.push_str(
        "# HELP lazymc_sched_thread_efficiency Busy fraction of each scheduler worker over the last scrape window\n\
         # TYPE lazymc_sched_thread_efficiency gauge\n",
    );
    for (i, e) in efficiency.iter().enumerate() {
        out.push_str(&format!(
            "lazymc_sched_thread_efficiency{{worker=\"{i}\"}} {e:.6}\n"
        ));
    }
    out.push_str(&format!(
        "# HELP lazymc_drain_rate_per_sec Observed job completions per second (10s window)\n\
         # TYPE lazymc_drain_rate_per_sec gauge\n\
         lazymc_drain_rate_per_sec {:.3}\n",
        state.drain_rate.per_sec()
    ));
    out.push_str(
        "# HELP lazymc_queue_depth_by_priority Pending solve jobs per priority level\n\
         # TYPE lazymc_queue_depth_by_priority gauge\n",
    );
    for (p, n) in state.queue.depth_by_priority() {
        out.push_str(&format!(
            "lazymc_queue_depth_by_priority{{priority=\"{p}\"}} {n}\n"
        ));
    }
    // Build identity as the conventional constant-1 info gauge.
    out.push_str("# HELP lazymc_build_info Build identity of the running daemon\n");
    out.push_str("# TYPE lazymc_build_info gauge\n");
    out.push_str(&format!(
        "lazymc_build_info{{version=\"{}\",git_sha=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION"),
        option_env!("LAZYMC_GIT_SHA").unwrap_or("unknown"),
    ));
    // Latency histograms (HTTP per route, queue wait, solve wall,
    // per-phase solve): proper Prometheus histogram families.
    state.obs.render_prometheus(&mut out);
    Response::text(200, "text/plain; version=0.0.4", out)
}
