//! lazymc-service — a concurrent clique-query daemon.
//!
//! The paper's work-avoidance machinery (filter cascades, incumbent-driven
//! pruning, wall-clock [`lazymc_core::Deadline`]s) makes a LazyMC query
//! cheap enough to sit behind a long-running service. What stays expensive
//! is everything *around* a query: parsing the graph, building CSR,
//! computing coreness. This crate keeps graphs resident and pays those
//! costs once:
//!
//! * [`registry`] — named graph store: load-once CSR graphs with content
//!   fingerprints, precomputed exact k-core decompositions shared by every
//!   query (via [`lazymc_core::LazyMc::solve_prepared`]), LRU-bounded;
//!   plus the result cache keyed by `(fingerprint, canonical config)`.
//! * [`persist`] — optional `--data-dir` durability: every upload is
//!   written as a checksummed `.lmcs` snapshot (atomic temp+fsync+rename),
//!   the directory is index-scanned (headers only) at boot, and a graph
//!   missing from memory is lazily reloaded — CSR *and* coreness — on its
//!   first use after a restart or eviction. Corrupt files are quarantined
//!   with a warning, never crash the daemon.
//! * [`queue`] — bounded deadline-aware priority job queue with
//!   cancellation, ordered exactly like the scheduler (priority desc,
//!   deadline-earliest, FIFO); a full queue surfaces as HTTP 429
//!   backpressure, and each job's budget is a `Deadline` that starts
//!   ticking at enqueue.
//! * [`protocol`] — request/response types over a minimal hand-rolled
//!   JSON (no serde; the workspace allows no third-party dependencies
//!   beyond its vendored shims).
//! * [`jobs`] — the asynchronous job lifecycle: every solve is a job
//!   with an id, a cancellable ticket + deadline, and a sink; completed
//!   `?async=1` results are retained in a byte-bounded, TTL-evicting
//!   store for `GET /jobs/<id>` polling.
//! * [`conn`] / [`reactor`] — the event-driven I/O path: epoll reactor
//!   threads (via `lazymc-netio`) own every socket, parse requests
//!   incrementally, and buffer partial writes; introspection endpoints
//!   answer *on* the reactor, so `/healthz` stays microseconds even with
//!   every solver busy.
//! * [`overload`] — overload control: the drain-rate estimator behind
//!   every `Retry-After`, the CoDel-style admission shedder driven by
//!   observed queue wait, and soft/hard memory watermarks over the
//!   counting allocator's live-byte gauge.
//! * [`obs`] — per-daemon observability built on `lazymc-obs`: route- and
//!   phase-labelled latency histograms, request tracing (`X-Request-Id`
//!   in → spans → structured JSON log lines out), and the slow-query log
//!   behind `GET /debug/slow`.
//! * `metrics` — the one table of the daemon's counters and gauges
//!   (`lazymc_core::metrics` counters plus cache, reactor and scheduler
//!   telemetry): each entry's name, help, kind, JSON keys and read.
//!   `/metrics` renders it in Prometheus text format, `/healthz` and
//!   `/stats` render its JSON keys, so the three agree by construction.
//! * [`server`] — configuration, routing, the request-worker pool, and
//!   the machine-wide `lazymc-sched` work-stealing pool all solves execute
//!   on (root jobs *and* stolen subtrees; `--solver-workers` sizes it —
//!   see `docs/scheduler.md`).
//!
//! # Quick start
//!
//! ```
//! use lazymc_service::{serve, ServiceConfig};
//! use std::io::{Read, Write};
//!
//! let handle = serve(ServiceConfig {
//!     addr: "127.0.0.1:0".into(), // free port
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//!
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! let body = r#"{"name":"tri","format":"edgelist","content":"0 1\n1 2\n2 0\n"}"#;
//! write!(
//!     conn,
//!     "POST /graphs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
//!     body.len(),
//!     body
//! )
//! .unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! assert!(response.starts_with("HTTP/1.1 201"));
//! handle.stop();
//! ```

// The request path must never die of an avoidable panic: a poisoned lock,
// a "can't happen" unwrap. Fault-injection (crates/chaos) now exercises
// those paths, and this deny holds the line. Sites with a real invariant
// argument carry a targeted allow.
#![deny(clippy::unwrap_used)]

pub mod conn;
pub mod health;
pub mod jobs;
pub mod journal;
mod metrics;
pub mod obs;
pub mod overload;
pub mod persist;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod registry;
pub mod server;

pub use conn::{Request, Response};
pub use health::Health;
pub use jobs::{JobState, JobStore};
pub use journal::{Journal, ReplayedJob};
pub use lazymc_obs::LogSink;
pub use obs::ServiceObs;
pub use overload::{DrainRate, MemLevel, MemWatermarks, Shedder};
pub use persist::SnapshotStore;
pub use protocol::{Json, LoadRequest, SolveRequest};
pub use queue::{JobQueue, JobTicket, QueueFull};
pub use registry::{CachedSolve, GraphEntry, Registry, ResultCache};
pub use server::{serve, ServiceConfig, ServiceHandle, ServiceMetrics, ServiceState};

/// Locks ignoring poison. Every mutex in this crate guards state that
/// stays consistent across an unwind (counters, maps, heaps mutated in
/// single statements), so a panic on another thread — real or
/// chaos-injected — must not cascade into every thread that touches the
/// same lock.
pub(crate) fn plock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
