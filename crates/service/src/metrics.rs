//! The daemon's counters and gauges, each declared once.
//!
//! [`METRICS`] decides which scalar values the daemon exports, under which
//! names, and how each is read. An entry names its series, says what it
//! counts and whether it is a counter or a gauge, lists the `/healthz` and
//! `/stats` fields that report the same value, and reads that value from a
//! [`Scrape`]. `GET /metrics` renders every entry as a series, and
//! `GET /healthz` and `GET /stats` render every entry that has a JSON key
//! as a field, so the three endpoints agree by construction.
//!
//! Storage does not live here: each `AtomicU64` stays in the struct whose
//! code increments it, and an entry only reads it. Families that carry
//! labels or float values (per-worker busy seconds and efficiency, depth
//! per priority, build identity, the drain rate) and the histograms of
//! [`crate::obs`] are rendered after the table, through the same
//! [`header`].

use crate::journal::Journal;
use crate::persist::SnapshotStore;
use crate::plock;
use crate::protocol::Json;
use crate::server::ServiceState;
use lazymc_core::{MetricsSnapshot, SchedMetrics};
use std::sync::atomic::{AtomicU64, Ordering};

/// A Prometheus metric type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Writes a family's `# HELP` and `# TYPE` lines; every family of
/// `/metrics` opens with one call.
pub(crate) fn header(out: &mut String, name: &str, kind: Kind, help: &str) {
    let kind = match kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram => "histogram",
    };
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// One exported value.
struct Metric {
    /// Series name in `/metrics`.
    name: &'static str,
    help: &'static str,
    kind: Kind,
    /// `/healthz` and `/stats` fields that carry the same value (empty:
    /// the value is only a series).
    json: &'static [&'static str],
    read: fn(&Scrape<'_>) -> u64,
}

const fn counter(
    name: &'static str,
    json: &'static [&'static str],
    read: fn(&Scrape<'_>) -> u64,
    help: &'static str,
) -> Metric {
    Metric {
        name,
        help,
        kind: Kind::Counter,
        json,
        read,
    }
}

const fn gauge(
    name: &'static str,
    json: &'static [&'static str],
    read: fn(&Scrape<'_>) -> u64,
    help: &'static str,
) -> Metric {
    Metric {
        name,
        help,
        kind: Kind::Gauge,
        json,
        read,
    }
}

fn get(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

/// What one request reads, taken once: the state itself, plus the values
/// that cost a lock or a walk to gather.
pub(crate) struct Scrape<'a> {
    state: &'a ServiceState,
    /// `lazymc_core` counters summed over every completed solve.
    core: MetricsSnapshot,
    sched: SchedMetrics,
    /// Resident graphs, how many are mapped, their mapped bytes, and the
    /// heap bytes of the rest, from one registry walk. Heap bytes are
    /// memory the daemon owns (what eviction frees); mapped bytes are page
    /// cache the kernel reclaims on its own.
    graphs: u64,
    graphs_mapped: u64,
    mapped_bytes: u64,
    heap_bytes: u64,
    jobs_stored: u64,
    job_store_bytes: u64,
}

impl<'a> Scrape<'a> {
    pub(crate) fn new(state: &'a ServiceState) -> Scrape<'a> {
        let entries = state.registry.entries();
        let (graphs_mapped, mapped_bytes, heap_bytes) =
            entries.iter().fold((0, 0, 0), |(n, mapped, heap), e| {
                (
                    n + u64::from(e.is_mapped()),
                    mapped + e.graph.mapped_bytes(),
                    heap + e.graph.heap_bytes(),
                )
            });
        let (jobs_stored, job_store_bytes) = state.jobs.stats();
        Scrape {
            state,
            core: plock(&state.core_totals).clone(),
            sched: state.sched.metrics(),
            graphs: entries.len() as u64,
            graphs_mapped,
            mapped_bytes,
            heap_bytes,
            jobs_stored: jobs_stored as u64,
            job_store_bytes: job_store_bytes as u64,
        }
    }

    /// `f` of the snapshot store; 0 without a data directory.
    fn store(&self, f: impl Fn(&SnapshotStore) -> u64) -> u64 {
        self.state.registry.store().map_or(0, |store| f(store))
    }

    /// `f` of the job journal; 0 without a data directory.
    fn journal(&self, f: impl Fn(&Journal) -> u64) -> u64 {
        self.state.journal.as_ref().map_or(0, f)
    }

    /// Every field the table gives `/healthz` and `/stats`.
    pub(crate) fn json_fields(&self) -> Vec<(&'static str, Json)> {
        METRICS
            .iter()
            .filter(|m| !m.json.is_empty())
            .flat_map(|m| {
                let value = (m.read)(self);
                m.json
                    .iter()
                    .map(move |&key| (key, Json::num(value as f64)))
            })
            .collect()
    }
}

/// Every counter and gauge of `/metrics`, and through their JSON keys the
/// shared fields of `/healthz` and `/stats`. Adding a metric is one entry
/// here. Laid out one entry per two lines, as a table: name, JSON keys and
/// read, then the help text.
#[rustfmt::skip]
const METRICS: &[Metric] = &[
    // HTTP and the reactor.
    counter("lazymc_requests_total", &["requests_total"], |s| get(&s.state.metrics.requests_total),
        "HTTP requests handled"),
    counter("lazymc_bad_requests_total", &[], |s| get(&s.state.metrics.bad_requests_total),
        "Requests answered with a 4xx/5xx status"),
    counter("lazymc_http_conns_accepted_total", &[], |s| get(&s.state.metrics.conns_accepted_total),
        "TCP connections accepted by the reactor"),
    counter("lazymc_http_conns_rejected_total", &[], |s| get(&s.state.metrics.conns_rejected_total),
        "Connections refused with 503 at the connection limit"),
    counter("lazymc_http_read_stalls_total", &["read_stalls"], |s| get(&s.state.metrics.read_stalls_total),
        "Reads that returned WouldBlock mid-request (partial receive)"),
    counter("lazymc_http_write_stalls_total", &["write_stalls"], |s| get(&s.state.metrics.write_stalls_total),
        "Writes that left response bytes buffered (partial send)"),
    counter("lazymc_http_request_timeouts_total", &[], |s| get(&s.state.metrics.request_timeouts_total),
        "Requests answered 408 after stalling past the read timeout"),
    gauge("lazymc_http_open_connections", &["open_connections"], |s| get(&s.state.metrics.open_connections),
        "Connections currently registered with the reactors"),
    gauge("lazymc_http_buffered_bytes", &["buffered_bytes"], |s| get(&s.state.metrics.buffered_bytes),
        "Request bytes buffered in userspace across all connections"),
    // Solves, jobs and the queue.
    counter("lazymc_solves_total", &["solves_total"], |s| get(&s.state.metrics.solves_total),
        "Solve jobs executed (cache hits excluded)"),
    counter("lazymc_solves_truncated_total", &[], |s| get(&s.state.metrics.solves_truncated_total),
        "Solves cut short by their budget"),
    counter("lazymc_solver_panics_total", &[], |s| get(&s.state.metrics.solver_panics_total),
        "Solve jobs that panicked in the solver"),
    counter("lazymc_jobs_async_total", &[], |s| get(&s.state.jobs.async_submitted),
        "Solve jobs submitted with ?async=1"),
    counter("lazymc_jobs_cancelled_http_total", &[], |s| get(&s.state.jobs.cancelled_http),
        "Jobs cancelled via DELETE /jobs/<id>"),
    counter("lazymc_jobs_expired_total", &[], |s| get(&s.state.jobs.expired),
        "Completed async jobs evicted by TTL"),
    counter("lazymc_batches_total", &[], |s| get(&s.state.metrics.batches_total),
        "POST /solve-batch requests accepted"),
    counter("lazymc_batch_jobs_total", &[], |s| get(&s.state.metrics.batch_jobs_total),
        "Individual solve slots carried by batches"),
    counter("lazymc_jobs_rejected_total", &[], |s| get(&s.state.queue.rejected),
        "Solve jobs rejected with 429 (queue full)"),
    counter("lazymc_jobs_cancelled_total", &[], |s| get(&s.state.queue.cancelled),
        "Queued jobs reaped after cancellation"),
    counter("lazymc_jobs_doa_total", &[], |s| get(&s.state.metrics.jobs_doa_total),
        "Queued jobs reaped dead-on-arrival (budget expired before the solve started)"),
    gauge("lazymc_queue_depth", &["queue_depth"], |s| s.state.queue.depth() as u64,
        "Pending solve jobs"),
    gauge("lazymc_jobs_inflight", &["jobs_inflight"], |s| get(&s.state.jobs.jobs_inflight),
        "Solve jobs currently executing in solver workers"),
    gauge("lazymc_jobs_stored", &["jobs_stored"], |s| s.jobs_stored,
        "Job records tracked (queued, running, retained results)"),
    gauge("lazymc_job_store_bytes", &["job_store_bytes"], |s| s.job_store_bytes,
        "Accounted bytes of retained async-job results"),
    // Result cache.
    counter("lazymc_result_cache_hits_total", &["result_cache_hits"], |s| get(&s.state.results.hits),
        "Solve requests answered from the result cache"),
    counter("lazymc_result_cache_misses_total", &["result_cache_misses"], |s| get(&s.state.results.misses),
        "Solve requests that missed the result cache"),
    counter("lazymc_result_cache_ttl_evictions_total", &[], |s| get(&s.state.results.ttl_evictions),
        "Result-cache entries dropped by TTL expiry"),
    counter("lazymc_result_cache_size_evictions_total", &[], |s| get(&s.state.results.size_evictions),
        "Result-cache entries dropped by the byte budget"),
    gauge("lazymc_result_cache_bytes", &["result_cache_bytes"], |s| s.state.results.bytes() as u64,
        "Accounted bytes held by the result cache"),
    gauge("lazymc_result_cache_entries", &["result_cache_entries"], |s| s.state.results.len() as u64,
        "Entries held by the result cache"),
    // Graph registry. A reload after a restart shows up as a lazy load
    // with core computes flat: preprocessing reused, not redone.
    counter("lazymc_graph_lookup_hits_total", &[], |s| get(&s.state.registry.hits),
        "Registry lookups that found the graph"),
    counter("lazymc_graph_lookup_misses_total", &[], |s| get(&s.state.registry.misses),
        "Registry lookups for unknown graphs"),
    counter("lazymc_graphs_evicted_total", &[], |s| get(&s.state.registry.evictions),
        "Graphs evicted by the registry LRU"),
    counter("lazymc_core_computes_total", &[], |s| get(&s.state.registry.core_computes),
        "k-core decompositions computed in-process (uploads; lazy reloads deserialize instead)"),
    gauge("lazymc_graphs_resident", &["graphs"], |s| s.graphs,
        "Graphs currently resident"),
    gauge("lazymc_graphs_mapped", &["graphs_mapped"], |s| s.graphs_mapped,
        "Resident graphs served zero-copy from a snapshot mapping"),
    gauge("lazymc_mapped_bytes", &["mapped_bytes"], |s| s.mapped_bytes,
        "Bytes of snapshot files currently mapped (page-cache-backed, not daemon heap)"),
    gauge("lazymc_snapshot_heap_bytes", &["snapshot_heap_bytes"], |s| s.heap_bytes,
        "CSR bytes of resident graphs held on the daemon heap (what eviction frees)"),
    // Snapshot store.
    counter("lazymc_snapshot_lazy_loads_total", &[], |s| s.store(|st| get(&st.lazy_loads)),
        "Graphs reloaded from disk snapshots on first use"),
    counter("lazymc_snapshot_mmap_total", &[], |s| s.store(|st| get(&st.mmap_loads)),
        "Graphs mapped zero-copy from disk snapshots (no heap decode)"),
    counter("lazymc_snapshot_writes_total", &[], |s| s.store(|st| get(&st.writes)),
        "Snapshots durably written (uploads and replacements)"),
    counter("lazymc_snapshot_write_errors_total", &[], |s| s.store(|st| get(&st.write_errors)),
        "Snapshot writes that failed (graph resident but not durable)"),
    counter("lazymc_snapshots_quarantined_total", &[], |s| s.store(|st| get(&st.quarantined)),
        "Snapshot files renamed aside after failing validation"),
    gauge("lazymc_snapshots_on_disk", &["snapshots", "on_disk"], |s| s.store(|st| st.len() as u64),
        "Snapshot files indexed in the data dir"),
    gauge("lazymc_snapshot_disk_bytes", &["snapshot_disk_bytes"], |s| s.store(|st| st.total_bytes()),
        "Total bytes of indexed snapshots"),
    // The paper's work counters summed over all completed solves: the
    // Table III funnel and the Fig. 3 filter / MC / k-VC split, live.
    counter("lazymc_core_retained_coreness_total", &[], |s| s.core.retained_coreness,
        "Neighbourhoods passing the coreness precondition"),
    counter("lazymc_core_retained_f1_total", &[], |s| s.core.retained_f1,
        "Neighbourhoods surviving filter 1"),
    counter("lazymc_core_retained_f2_total", &[], |s| s.core.retained_f2,
        "Neighbourhoods surviving filter 2"),
    counter("lazymc_core_retained_f3_total", &[], |s| s.core.retained_f3,
        "Neighbourhoods surviving filter 3"),
    counter("lazymc_core_searched_mc_total", &[], |s| s.core.searched_mc,
        "Detailed searches dispatched to the MC solver"),
    counter("lazymc_core_searched_kvc_total", &[], |s| s.core.searched_kvc,
        "Detailed searches dispatched to the k-VC solver"),
    counter("lazymc_core_mc_nodes_total", &[], |s| s.core.mc_nodes,
        "Branch-and-bound nodes expanded by the MC solver"),
    counter("lazymc_core_vc_nodes_total", &[], |s| s.core.vc_nodes,
        "Branch-and-bound nodes expanded by the k-VC solver"),
    counter("lazymc_core_reduced_vertices_total", &[], |s| s.core.reduced_vertices,
        "Vertices removed by the subgraph reduction pass before detailed searches"),
    counter("lazymc_core_vc_reductions_total", &[], |s| s.core.vc_reductions,
        "Vertices removed or forced by the k-VC kernelization rules"),
    counter("lazymc_core_split_tasks_total", &[], |s| s.core.split_tasks,
        "Subtree tasks generated by intra-solve work splitting"),
    counter("lazymc_core_steals_total", &[], |s| s.core.steals,
        "Split tasks executed by a worker other than their generator"),
    counter("lazymc_core_incumbent_broadcasts_total", &[], |s| s.core.incumbent_broadcasts,
        "Incumbent/early-stop broadcasts between parallel solve workers"),
    counter("lazymc_core_filter_micros_total", &[], |s| s.core.filter_time.as_micros() as u64,
        "Thread-time spent filtering, microseconds"),
    counter("lazymc_core_mc_micros_total", &[], |s| s.core.mc_time.as_micros() as u64,
        "Thread-time in the MC subgraph solver, microseconds"),
    counter("lazymc_core_kvc_micros_total", &[], |s| s.core.kvc_time.as_micros() as u64,
        "Thread-time in the k-VC subgraph solver, microseconds"),
    // The machine-wide scheduler pool: steals and preemptions say how work
    // moved, parks how often workers ran dry.
    counter("lazymc_sched_steals_total", &[], |s| s.sched.steals,
        "Scope tickets taken from another scheduler worker's deque"),
    counter("lazymc_sched_parks_total", &[], |s| s.sched.parks,
        "Times a scheduler worker parked on its doorbell"),
    counter("lazymc_sched_preemptions_total", &[], |s| s.sched.preemptions,
        "Times a helper re-queued its ticket for more urgent work"),
    counter("lazymc_sched_unit_runs_total", &[], |s| s.sched.unit_runs,
        "Scope work units executed by the scheduler"),
    counter("lazymc_sched_job_runs_total", &[], |s| s.sched.job_runs,
        "Root solve jobs executed by the scheduler"),
    counter("lazymc_sched_worker_panics_total", &[], |s| s.sched.worker_panics,
        "Panics caught inside scheduler workers (task units, jobs, or the worker loop)"),
    counter("lazymc_sched_worker_respawns_total", &[], |s| s.sched.worker_respawns,
        "Scheduler worker loops restarted by their supervisor after a panic"),
    gauge("lazymc_sched_workers", &[], |s| s.sched.workers.len() as u64,
        "Worker threads in the machine-wide scheduler pool"),
    // Robustness: fault injection, the job journal, degraded health and
    // the integrity scrubber (see docs/robustness.md).
    counter("lazymc_chaos_injections_total", &[], |_| lazymc_chaos::injections_total(),
        "Faults injected by the chaos harness (0 unless armed)"),
    counter("lazymc_journal_appends_total", &[], |s| s.journal(|j| get(&j.appends)),
        "Records appended to the job journal"),
    counter("lazymc_journal_append_errors_total", &[], |s| s.journal(|j| get(&j.append_errors)),
        "Journal appends that failed (journal disabled, service degraded)"),
    counter("lazymc_journal_rotations_total", &[], |s| s.journal(|j| get(&j.rotations)),
        "Journal segment rotations"),
    counter("lazymc_jobs_replayed_total", &[], |s| s.journal(|j| get(&j.replayed)),
        "Jobs recovered from the journal at boot"),
    counter("lazymc_journal_reenabled_total", &[], |s| s.journal(|j| get(&j.reenabled)),
        "Times the journal self-heal re-probe brought a disabled journal back"),
    gauge("lazymc_journal_pending", &["journal_pending"], |s| s.journal(|j| j.pending_len() as u64),
        "Admitted-but-not-completed jobs tracked by the journal"),
    counter("lazymc_degraded_events_total", &[], |s| get(&s.state.health.degraded_events),
        "Times a component entered the degraded state"),
    gauge("lazymc_degraded", &[], |s| u64::from(s.state.health.is_degraded()),
        "1 when any component is degraded (reasons in /healthz)"),
    counter("lazymc_scrub_passes_total", &["scrub_passes"], |s| get(&s.state.metrics.scrub_passes_total),
        "Background integrity-scrub passes completed"),
    counter("lazymc_scrub_corruptions_total", &["scrub_corruptions"], |s| get(&s.state.metrics.scrub_corruptions_total),
        "Corruptions found by the scrubber (snapshots quarantined, journal CRC failures)"),
    // Overload control and lifecycle.
    counter("lazymc_overload_shed_total", &[], |s| get(&s.state.shedder.shed_total),
        "Admissions refused 503 by the queue-delay shedding controller"),
    gauge("lazymc_overload_shedding", &[], |s| u64::from(s.state.shedder.is_shedding()),
        "1 while the queue-delay controller is shedding lowest-priority admissions"),
    counter("lazymc_drain_completions_observed_total", &[], |s| get(&s.state.drain_rate.observed_total),
        "Job completions observed by the Retry-After drain-rate estimator"),
    gauge("lazymc_retry_after_seconds", &[], |s| s.state.drain_rate.retry_after(s.state.queue.depth()),
        "Retry-After the daemon would attach to a backpressure response right now"),
    gauge("lazymc_draining", &[], |s| u64::from(s.state.is_draining()),
        "1 while the daemon is draining (listener closed, /readyz answers 503)"),
    gauge("lazymc_uptime_seconds", &[], |s| s.state.started.elapsed().as_secs(),
        "Seconds since the daemon started"),
    // Memory watermarks.
    counter("lazymc_mem_soft_rejects_total", &[], |s| get(&s.state.mem.soft_rejects),
        "Uploads rejected 503 at the soft memory watermark"),
    counter("lazymc_mem_hard_cancels_total", &[], |s| get(&s.state.mem.hard_cancels),
        "Running solves cancelled at the hard memory watermark"),
    gauge("lazymc_mem_live_bytes", &[], |s| s.state.mem.live_bytes(),
        "Live heap bytes per the counting allocator (0 when untracked)"),
    gauge("lazymc_mem_soft_limit_bytes", &[], |s| s.state.mem.soft_bytes().unwrap_or(0),
        "Soft memory watermark (80% of --max-memory-bytes; 0 when unset)"),
    gauge("lazymc_mem_hard_limit_bytes", &[], |s| s.state.mem.hard_bytes().unwrap_or(0),
        "Hard memory watermark (--max-memory-bytes; 0 when unset)"),
    gauge("lazymc_mem_tracked", &[], |s| u64::from(s.state.mem.tracked()),
        "1 when this process routes allocations through the counting allocator"),
];

/// The `GET /metrics` body in Prometheus text format: the table, then the
/// labelled and float families, then the histograms.
pub(crate) fn render(state: &ServiceState) -> String {
    let scrape = Scrape::new(state);
    let mut out = String::new();
    for m in METRICS {
        header(&mut out, m.name, m.kind, m.help);
        out.push_str(&format!("{} {}\n", m.name, (m.read)(&scrape)));
    }
    // Per-worker cumulative busy seconds, and the busy fraction of each
    // worker over the window since the previous scrape.
    let busy_ns: Vec<u64> = scrape.sched.workers.iter().map(|w| w.busy_ns).collect();
    header(
        &mut out,
        "lazymc_sched_busy_seconds_total",
        Kind::Counter,
        "Seconds each scheduler worker spent executing task bodies",
    );
    for (i, b) in busy_ns.iter().enumerate() {
        out.push_str(&format!(
            "lazymc_sched_busy_seconds_total{{worker=\"{i}\"}} {:.6}\n",
            *b as f64 / 1e9
        ));
    }
    header(
        &mut out,
        "lazymc_sched_thread_efficiency",
        Kind::Gauge,
        "Busy fraction of each scheduler worker over the last scrape window",
    );
    for (i, e) in state
        .obs
        .sched_window
        .efficiency(&busy_ns)
        .iter()
        .enumerate()
    {
        out.push_str(&format!(
            "lazymc_sched_thread_efficiency{{worker=\"{i}\"}} {e:.6}\n"
        ));
    }
    header(
        &mut out,
        "lazymc_drain_rate_per_sec",
        Kind::Gauge,
        "Observed job completions per second (10s window)",
    );
    out.push_str(&format!(
        "lazymc_drain_rate_per_sec {:.3}\n",
        state.drain_rate.per_sec()
    ));
    header(
        &mut out,
        "lazymc_queue_depth_by_priority",
        Kind::Gauge,
        "Pending solve jobs per priority level",
    );
    for (p, n) in state.queue.depth_by_priority() {
        out.push_str(&format!(
            "lazymc_queue_depth_by_priority{{priority=\"{p}\"}} {n}\n"
        ));
    }
    // Build identity as the conventional constant-1 info gauge.
    header(
        &mut out,
        "lazymc_build_info",
        Kind::Gauge,
        "Build identity of the running daemon",
    );
    out.push_str(&format!(
        "lazymc_build_info{{version=\"{}\",git_sha=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION"),
        option_env!("LAZYMC_GIT_SHA").unwrap_or("unknown"),
    ));
    state.obs.render_prometheus(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_names_kinds_keys_and_help_are_well_formed() {
        let mut names = HashSet::new();
        let mut keys = HashSet::new();
        for m in METRICS {
            assert!(names.insert(m.name), "duplicate series {}", m.name);
            assert!(m.name.starts_with("lazymc_"), "{}", m.name);
            assert_eq!(
                m.name.ends_with("_total"),
                m.kind == Kind::Counter,
                "{}: a name ends in _total if and only if it is a counter",
                m.name
            );
            assert!(!m.help.trim().is_empty(), "{} has no help text", m.name);
            for key in m.json {
                assert!(keys.insert(*key), "duplicate JSON key {key}");
            }
        }
    }

    #[test]
    fn snapshot_heap_bytes_has_a_series() {
        let m = METRICS
            .iter()
            .find(|m| m.json.contains(&"snapshot_heap_bytes"))
            .expect("snapshot_heap_bytes is declared");
        assert_eq!(m.name, "lazymc_snapshot_heap_bytes");
        assert_eq!(m.kind, Kind::Gauge);
    }
}
