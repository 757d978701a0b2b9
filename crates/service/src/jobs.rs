//! Asynchronous job lifecycle: every solve the daemon runs — synchronous,
//! `?async=1`, or one slot of a batch — is a **job** with an id, a
//! cancellable ticket, a cancellable deadline, and a *sink* that receives
//! its one result:
//!
//! * `JobSink::Sync` — a [`Responder`] for the connection blocked (at
//!   the HTTP level only; no thread waits) on `POST /solve`.
//! * `JobSink::Async` — the result is retained in the [`JobStore`] for
//!   `GET /jobs/<id>` polling, byte-bounded with TTL eviction.
//! * `JobSink::Batch` — one slot of a `BatchAggregator`; the last
//!   slot to fill sends the combined array response.
//!
//! The store is the single place job state transitions happen, so
//! `DELETE /jobs/<id>` cannot race the solver pool: cancellation of a
//! *queued* job takes the sink and answers it immediately (the popped
//! carcass is skipped by the worker); cancellation of a *running* job
//! trips the ticket and the deadline, and the worker's completion — which
//! always goes through `JobStore::complete` — reports it cancelled.

use crate::conn::Response;
use crate::plock;
use crate::protocol::Json;
use crate::queue::JobTicket;
use crate::reactor::Responder;
use lazymc_core::{Deadline, PhaseTimes, SolveProgress};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a job's one result goes.
pub(crate) enum JobSink {
    Sync(Responder),
    Async,
    Batch {
        agg: Arc<BatchAggregator>,
        slot: usize,
    },
}

/// Request facts needed to format the job's result later.
pub(crate) struct JobMeta {
    pub graph: String,
    pub budget_clamped: bool,
    /// Trace id of the request that submitted the job (flows into the
    /// solve's log line and slow-query entry).
    pub trace: String,
    /// Request-body parse time, the first span of the job's trace.
    pub parse_us: u64,
    /// Effective solve budget after server-side clamping, for the live
    /// progress view's elapsed-vs-budget readout.
    pub budget_ms: Option<u64>,
    /// Queue priority the job was admitted at; the hard memory watermark
    /// uses it to pick the cheapest running solve to cancel.
    pub priority: u8,
}

/// Lifecycle states surfaced by `GET /jobs/<id>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// What a solver worker reports back for one executed job.
pub(crate) struct SolveReply {
    pub omega: usize,
    pub clique: Vec<u32>,
    pub exact: bool,
    pub cached: bool,
    pub wait_ms: u64,
    pub solve_ms: u64,
    /// Per-phase wall times of the executed solve (zeroed for cache
    /// hits, which never ran).
    pub phases: PhaseTimes,
}

/// Submission facts handed to [`JobStore::complete`]'s observer so the
/// solver worker can emit the job's solve observation (trace line,
/// histograms, slow-query entry) without re-locking the store.
pub(crate) struct CompletedMeta {
    pub trace: String,
    pub graph: String,
    pub parse_us: u64,
    /// Result-JSON encoding time, measured inside `complete`.
    pub serialize_us: u64,
}

struct JobRecord {
    state: JobState,
    ticket: JobTicket,
    deadline: Arc<Deadline>,
    sink: Option<JobSink>,
    meta: JobMeta,
    created: Instant,
    /// Live solve progress, installed when a solver worker picks the
    /// job up; `GET /jobs/<id>` reads it while the job runs.
    progress: Option<Arc<SolveProgress>>,
    running_since: Option<Instant>,
    completed: Option<Instant>,
    /// Encoded result object, retained for async jobs only.
    result: Option<String>,
    /// Whether the record outlives completion (async) or is dropped the
    /// moment its sink fires (sync, batch).
    retain: bool,
}

impl JobRecord {
    fn bytes(&self) -> usize {
        self.meta.graph.len() + self.result.as_ref().map_or(0, String::len) + 128
    }
}

/// Terminal fate of a job whose full record is gone. Two flavors:
///
/// * `evicted: false` — the record was delivered to a one-shot sink
///   (sync, batch) and dropped. `GET`/`DELETE /jobs/<id>` answer with the
///   terminal state instead of 404: a *failed* job (solver panic, poisoned
///   scope) stays discoverable after its 500 went out.
/// * `evicted: true` — the retained record aged out (TTL) or was pushed
///   out of the byte budget; surfaces as the historical `"expired"` 404.
#[derive(Clone, Copy)]
struct Tombstone {
    state: JobState,
    evicted: bool,
}

struct Inner {
    jobs: HashMap<u64, JobRecord>,
    /// Retained jobs in completion order (TTL/byte eviction order).
    done_order: VecDeque<u64>,
    /// Accounted bytes of retained completed jobs.
    result_bytes: usize,
    /// Terminal states of departed records, keyed by job id.
    tombstones: HashMap<u64, Tombstone>,
    /// FIFO of `tombstones` for bounded eviction.
    tombstone_order: VecDeque<u64>,
}

/// Most tombstones retained; beyond it the oldest forget their history
/// (their 404s degrade to "unknown").
const MAX_TOMBSTONES: usize = 4096;

impl Inner {
    /// Records the terminal `state` of a departed record under `id`.
    fn entomb(&mut self, id: u64, state: JobState, evicted: bool) {
        if self
            .tombstones
            .insert(id, Tombstone { state, evicted })
            .is_none()
        {
            self.tombstone_order.push_back(id);
            while self.tombstone_order.len() > MAX_TOMBSTONES {
                if let Some(old) = self.tombstone_order.pop_front() {
                    self.tombstones.remove(&old);
                }
            }
        }
    }
}

/// Outcome of a `DELETE /jobs/<id>`.
pub(crate) enum CancelOutcome {
    NotFound,
    AlreadyDone(JobState),
    Cancelled { was: JobState },
}

/// Byte-bounded, TTL-evicting store of job records.
pub struct JobStore {
    inner: Mutex<Inner>,
    ttl: Duration,
    max_bytes: usize,
    /// Jobs currently executing in a solver worker (gauge).
    pub jobs_inflight: AtomicU64,
    pub async_submitted: AtomicU64,
    pub cancelled_http: AtomicU64,
    pub expired: AtomicU64,
}

impl JobStore {
    pub(crate) fn new(ttl: Duration, max_bytes: usize) -> JobStore {
        JobStore {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                done_order: VecDeque::new(),
                result_bytes: 0,
                tombstones: HashMap::new(),
                tombstone_order: VecDeque::new(),
            }),
            ttl,
            max_bytes: max_bytes.max(1),
            jobs_inflight: AtomicU64::new(0),
            async_submitted: AtomicU64::new(0),
            cancelled_http: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Registers a queued job *before* it becomes poppable (the caller
    /// pushes to the queue only after this returns).
    pub(crate) fn insert_queued(
        &self,
        ticket: JobTicket,
        deadline: Arc<Deadline>,
        sink: JobSink,
        meta: JobMeta,
    ) {
        // `async_submitted` is NOT counted here: the caller counts it
        // only once the queue push actually succeeds, so rejected (429)
        // submissions never inflate the metric.
        let retain = matches!(sink, JobSink::Async);
        let record = JobRecord {
            state: JobState::Queued,
            ticket,
            deadline,
            sink: Some(sink),
            meta,
            created: Instant::now(),
            progress: None,
            running_since: None,
            completed: None,
            result: None,
            retain,
        };
        let id = record.ticket.id;
        let mut inner = plock(&self.inner);
        inner.jobs.insert(id, record);
    }

    /// Installs an already-terminal retained record. Boot replay uses
    /// this when a journaled job can no longer run (its graph's snapshot
    /// is gone, or the service has no solver for it anymore):
    /// `GET /jobs/<id>` then reports the terminal state and result like
    /// any completed async job, instead of pretending the job never
    /// existed.
    pub(crate) fn insert_terminal(
        &self,
        ticket: JobTicket,
        graph: String,
        state: JobState,
        result: Json,
    ) {
        let id = ticket.id;
        let now = Instant::now();
        let record = JobRecord {
            state,
            ticket,
            deadline: Arc::new(Deadline::starting_now(None)),
            sink: None,
            meta: JobMeta {
                graph,
                budget_clamped: false,
                trace: String::new(),
                parse_us: 0,
                budget_ms: None,
                priority: 0,
            },
            created: now,
            progress: None,
            running_since: None,
            completed: Some(now),
            result: Some(result.encode()),
            retain: true,
        };
        let bytes = record.bytes();
        let mut inner = plock(&self.inner);
        inner.jobs.insert(id, record);
        inner.result_bytes += bytes;
        inner.done_order.push_back(id);
        self.evict_locked(&mut inner);
    }

    /// Rolls back [`JobStore::insert_queued`] after a failed queue push.
    ///
    /// If a racing `DELETE /jobs/<id>` finalized the record first (the
    /// job id is visible from the moment it is inserted), the record is
    /// left alone: its sink was already answered and, for async jobs,
    /// its bytes are already accounted in `done_order` — removing it
    /// here would leak the accounting. The caller's own follow-up
    /// response is harmless either way (sync responders are first-wins,
    /// batch slots are first-fill-wins).
    pub(crate) fn forget(&self, id: u64) {
        let mut inner = plock(&self.inner);
        if inner.jobs.get(&id).is_some_and(|r| r.completed.is_none()) {
            inner.jobs.remove(&id);
        }
    }

    /// A solver worker picked the job up; `progress` is the live cell
    /// the solve publishes into and `GET /jobs/<id>` reads from.
    pub(crate) fn mark_running(&self, id: u64, progress: Arc<SolveProgress>) {
        if let Some(r) = plock(&self.inner).jobs.get_mut(&id) {
            if r.state == JobState::Queued {
                r.state = JobState::Running;
                r.progress = Some(progress);
                r.running_since = Some(Instant::now());
            }
        }
    }

    /// Formats a solve result object (shared by live solves, cache hits
    /// and batch slots, so all three speak the same shape).
    pub(crate) fn result_json(
        graph: &str,
        job_id: Option<u64>,
        reply: &SolveReply,
        budget_clamped: bool,
        cancelled: bool,
    ) -> Json {
        Json::obj(vec![
            ("graph", Json::str(graph)),
            (
                "job_id",
                match job_id {
                    Some(id) => Json::num(id as f64),
                    None => Json::Null, // cache hits never became a job
                },
            ),
            ("omega", Json::num(reply.omega as f64)),
            (
                "clique",
                Json::Arr(reply.clique.iter().map(|&v| Json::num(v as f64)).collect()),
            ),
            ("exact", Json::Bool(reply.exact)),
            ("truncated", Json::Bool(!reply.exact)),
            ("cached", Json::Bool(reply.cached)),
            ("cancelled", Json::Bool(cancelled)),
            ("budget_clamped", Json::Bool(budget_clamped)),
            ("wait_ms", Json::num(reply.wait_ms as f64)),
            ("solve_ms", Json::num(reply.solve_ms as f64)),
            (
                "phase_ms",
                Json::Obj(
                    crate::obs::PHASES
                        .iter()
                        .zip(crate::obs::phase_micros(&reply.phases))
                        .map(|(name, us)| (name.to_string(), Json::num(us as f64 / 1e3)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Delivers a finished job to its sink and transitions the record.
    /// `cancelled` reports a mid-solve cancellation observed by the
    /// worker; `reply: Err(reason)` reports a job that produced no result
    /// (solver panic, dead-on-arrival reap). `observe` runs
    /// with the job's submission facts *before* the sink fires, so a
    /// client that already holds its answer can never catch the metrics
    /// unrecorded; it is skipped when a racing cancel already finalized
    /// the record (that path observed nothing worth logging twice).
    pub(crate) fn complete(
        &self,
        id: u64,
        reply: Result<SolveReply, String>,
        cancelled: bool,
        observe: impl FnOnce(CompletedMeta),
    ) {
        let mut inner = plock(&self.inner);
        let Some(record) = inner.jobs.get_mut(&id) else {
            return; // cancelled-while-queued: sink already answered
        };
        if record.completed.is_some() {
            // Already finalized by a racing cancel (the cancel landed in
            // the window between the worker's pop and mark_running, so it
            // took the Queued branch: sink answered, bytes accounted).
            // Re-finalizing here would double-count done_order/bytes.
            return;
        }
        let (state, result_json, status) = match &reply {
            Ok(r) => {
                let state = if cancelled {
                    JobState::Cancelled
                } else {
                    JobState::Done
                };
                let json = Self::result_json(
                    &record.meta.graph,
                    Some(id),
                    r,
                    record.meta.budget_clamped,
                    cancelled,
                );
                (state, json, 200)
            }
            Err(reason) => (
                JobState::Failed,
                Json::obj(vec![("error", Json::str(reason.clone()))]),
                500,
            ),
        };
        record.state = state;
        record.completed = Some(Instant::now());
        record.progress = None; // the solve is over; stop serving live reads
        let t_ser = Instant::now();
        let encoded = result_json.encode();
        let meta = CompletedMeta {
            trace: record.meta.trace.clone(),
            graph: record.meta.graph.clone(),
            parse_us: record.meta.parse_us,
            serialize_us: t_ser.elapsed().as_micros() as u64,
        };
        let sink = record.sink.take();
        if record.retain {
            record.result = Some(encoded);
            let bytes = record.bytes();
            inner.result_bytes += bytes;
            inner.done_order.push_back(id);
        } else {
            inner.jobs.remove(&id);
            inner.entomb(id, state, false);
        }
        self.evict_locked(&mut inner);
        drop(inner);
        // Observation first, delivery second: by the time any client can
        // see this result, its histograms/log line are already recorded.
        observe(meta);
        match sink {
            Some(JobSink::Sync(responder)) => {
                responder.respond(Response::json(status, result_json))
            }
            Some(JobSink::Batch { agg, slot }) => agg.fill(slot, result_json),
            Some(JobSink::Async) | None => {}
        }
    }

    /// `DELETE /jobs/<id>`.
    pub(crate) fn cancel(&self, id: u64) -> CancelOutcome {
        let mut inner = plock(&self.inner);
        let Some(record) = inner.jobs.get_mut(&id) else {
            // A delivered-and-dropped job still answers with its terminal
            // state (a failed sync job must not 404); evicted records keep
            // the historical "expired" 404.
            return match inner.tombstones.get(&id) {
                Some(t) if !t.evicted => CancelOutcome::AlreadyDone(t.state),
                _ => CancelOutcome::NotFound,
            };
        };
        match record.state {
            JobState::Queued => {
                record.ticket.cancel();
                record.deadline.cancel();
                record.state = JobState::Cancelled;
                record.completed = Some(Instant::now());
                let sink = record.sink.take();
                let retain = record.retain;
                if retain {
                    let bytes = record.bytes();
                    inner.result_bytes += bytes;
                    inner.done_order.push_back(id);
                } else {
                    inner.jobs.remove(&id);
                    inner.entomb(id, JobState::Cancelled, false);
                }
                drop(inner);
                self.cancelled_http.fetch_add(1, Ordering::Relaxed);
                let cancelled_json = Json::obj(vec![
                    ("error", Json::str("job cancelled before it ran")),
                    ("job_id", Json::num(id as f64)),
                    ("cancelled", Json::Bool(true)),
                ]);
                match sink {
                    Some(JobSink::Sync(responder)) => {
                        responder.respond(Response::json(409, cancelled_json))
                    }
                    Some(JobSink::Batch { agg, slot }) => agg.fill(slot, cancelled_json),
                    Some(JobSink::Async) | None => {}
                }
                CancelOutcome::Cancelled {
                    was: JobState::Queued,
                }
            }
            JobState::Running => {
                // Trip both flags: the queue-level ticket (so the worker
                // reports "cancelled") and the deadline (so the solve
                // actually stops at its next poll). The completion still
                // flows through `complete`.
                record.ticket.cancel();
                record.deadline.cancel();
                self.cancelled_http.fetch_add(1, Ordering::Relaxed);
                CancelOutcome::Cancelled {
                    was: JobState::Running,
                }
            }
            state => CancelOutcome::AlreadyDone(state),
        }
    }

    /// Trips the abort machinery of the lowest-priority *running* job —
    /// the hard memory watermark's victim. Among equal priorities the
    /// most recently started loses (least work discarded). The solve
    /// observes its tripped deadline at the next poll and completes as
    /// cancelled through the normal [`JobStore::complete`] path; this
    /// only selects and trips. Returns the victim's id and priority.
    pub(crate) fn cancel_lowest_priority_running(&self) -> Option<(u64, u8)> {
        let inner = plock(&self.inner);
        let (&id, record) = inner
            .jobs
            .iter()
            .filter(|(_, r)| r.state == JobState::Running)
            .min_by_key(|(_, r)| {
                (
                    r.meta.priority,
                    // Reverse the start time: later start = smaller key.
                    std::cmp::Reverse(r.running_since.unwrap_or(r.created)),
                )
            })?;
        record.ticket.cancel();
        record.deadline.cancel();
        Some((id, record.meta.priority))
    }

    /// `GET /jobs/<id>`: state + retained result. Applies TTL lazily —
    /// an expired record is removed and reported absent.
    pub(crate) fn view(&self, id: u64) -> Option<Json> {
        let mut inner = plock(&self.inner);
        let expired = inner
            .jobs
            .get(&id)
            .is_some_and(|r| r.completed.is_some_and(|t| t.elapsed() > self.ttl));
        if expired {
            if let Some(r) = inner.jobs.remove(&id) {
                inner.result_bytes = inner.result_bytes.saturating_sub(r.bytes());
                inner.entomb(id, r.state, true);
            }
            self.expired.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let Some(record) = inner.jobs.get(&id) else {
            // Delivered-and-dropped (sync/batch) jobs keep answering with
            // their terminal state — no retained result, but the fate
            // (notably `failed`) is preserved. Evicted records stay 404.
            let tomb = *inner.tombstones.get(&id)?;
            if tomb.evicted {
                return None;
            }
            return Some(Json::obj(vec![
                ("job_id", Json::num(id as f64)),
                ("status", Json::str(tomb.state.as_str())),
                ("retained", Json::Bool(false)),
                ("result", Json::Null),
            ]));
        };
        let mut fields = vec![
            ("job_id", Json::num(id as f64)),
            ("status", Json::str(record.state.as_str())),
            ("graph", Json::str(&*record.meta.graph)),
            (
                "age_ms",
                Json::num(record.created.elapsed().as_millis() as f64),
            ),
        ];
        if record.completed.is_none() {
            if let Some(p) = &record.progress {
                // Live view of a running solve: every field is a relaxed
                // load the search performs anyway.
                let snap = p.counters_snapshot();
                let mut prog = vec![
                    ("phase", Json::str(p.phase().name())),
                    ("nodes_expanded", Json::num(p.nodes_expanded() as f64)),
                    ("incumbent_size", Json::num(p.incumbent_size() as f64)),
                    (
                        "retained_coreness",
                        Json::num(snap.retained_coreness as f64),
                    ),
                    ("retained_f1", Json::num(snap.retained_f1 as f64)),
                    ("retained_f2", Json::num(snap.retained_f2 as f64)),
                    ("retained_f3", Json::num(snap.retained_f3 as f64)),
                    ("searched_mc", Json::num(snap.searched_mc as f64)),
                    ("searched_kvc", Json::num(snap.searched_kvc as f64)),
                ];
                if let Some(since) = record.running_since {
                    prog.push(("elapsed_ms", Json::num(since.elapsed().as_millis() as f64)));
                }
                match record.meta.budget_ms {
                    Some(b) => prog.push(("budget_ms", Json::num(b as f64))),
                    None => prog.push(("budget_ms", Json::Null)),
                }
                fields.push(("progress", Json::obj(prog)));
            }
        }
        match &record.result {
            Some(encoded) => fields.push(("result", Json::parse(encoded).unwrap_or(Json::Null))),
            None => fields.push(("result", Json::Null)),
        }
        Some(Json::obj(fields))
    }

    /// Drops expired completed records, then oldest-completed records
    /// until the byte budget holds. Callers hold the lock.
    fn evict_locked(&self, inner: &mut Inner) {
        // TTL pass over the completion-ordered queue front.
        while let Some(&front) = inner.done_order.front() {
            let expired = inner
                .jobs
                .get(&front)
                .is_none_or(|r| r.completed.is_some_and(|t| t.elapsed() > self.ttl));
            if expired {
                inner.done_order.pop_front();
                if let Some(r) = inner.jobs.remove(&front) {
                    inner.result_bytes = inner.result_bytes.saturating_sub(r.bytes());
                    inner.entomb(front, r.state, true);
                    self.expired.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                break;
            }
        }
        // Byte pass: oldest completed first.
        while inner.result_bytes > self.max_bytes {
            let Some(victim) = inner.done_order.pop_front() else {
                break;
            };
            if let Some(r) = inner.jobs.remove(&victim) {
                inner.result_bytes = inner.result_bytes.saturating_sub(r.bytes());
                inner.entomb(victim, r.state, true);
            }
        }
    }

    /// Why a job id is absent: `"expired"` if a record with this id was
    /// evicted (TTL or byte budget), `"unknown"` if no such job ever
    /// existed (or its tombstone aged out of the bounded history).
    pub(crate) fn missing_reason(&self, id: u64) -> &'static str {
        match plock(&self.inner).tombstones.get(&id) {
            Some(t) if t.evicted => "expired",
            _ => "unknown",
        }
    }

    /// (total records, retained-result bytes) for introspection.
    pub fn stats(&self) -> (usize, usize) {
        let inner = plock(&self.inner);
        (inner.jobs.len(), inner.result_bytes)
    }
}

/// Collects one batch's slot results and sends the combined response when
/// the last slot fills. Slots fill from request workers (cache hits,
/// rejections) and solver workers (live solves) in any order.
pub(crate) struct BatchAggregator {
    responder: Responder,
    slots: Mutex<Vec<Option<Json>>>,
    remaining: AtomicU64,
}

impl BatchAggregator {
    pub(crate) fn new(responder: Responder, n: usize) -> Arc<BatchAggregator> {
        Arc::new(BatchAggregator {
            responder,
            slots: Mutex::new(vec![None; n]),
            remaining: AtomicU64::new(n as u64),
        })
    }

    /// Fills `slot`; the last distinct slot to fill responds. First fill
    /// of a slot wins: a duplicate (a cancel racing a queue-full
    /// rollback can produce one) is dropped rather than double-counted,
    /// and a fill arriving after the response went out (`slots` already
    /// taken) is a no-op — never a panic in a worker thread.
    pub(crate) fn fill(&self, slot: usize, result: Json) {
        {
            let mut slots = plock(&self.slots);
            if slot >= slots.len() || slots[slot].is_some() {
                return;
            }
            slots[slot] = Some(result);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let slots = std::mem::take(&mut *plock(&self.slots));
            let results: Vec<Json> = slots.into_iter().map(|s| s.unwrap_or(Json::Null)).collect();
            let count = results.len();
            self.responder.respond(Response::json(
                200,
                Json::obj(vec![
                    ("results", Json::Arr(results)),
                    ("count", Json::num(count as f64)),
                ]),
            ));
        }
    }
}
