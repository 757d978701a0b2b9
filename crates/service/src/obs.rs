//! Daemon-wide observability: per-route latency histograms, the
//! queue-wait / solve-wall / per-phase solve histograms, the slow-query
//! log, and structured JSON log emission.
//!
//! Everything here is built on `lazymc-obs` primitives: lock-free
//! log₂-bucketed [`Histogram`]s (one relaxed `fetch_add` per
//! observation — cheap enough to sit on the reactor's hot path), a
//! bounded keep-the-worst [`SlowLog`], and a [`LogSink`] that emits one
//! JSON object per line (`--log-json`). The reactor stamps every request
//! with a trace id ([`lazymc_obs::trace`], honouring a valid inbound
//! `X-Request-Id`) which flows HTTP → queue → job → solve, so one grep
//! over the log reconstructs a request's whole path through the daemon.

use crate::metrics::{header, Kind};
use crate::plock;
use crate::protocol::Json;
use lazymc_core::PhaseTimes;
use lazymc_obs::{Histogram, HistogramSnapshot, LogSink, SlowLog};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Route classes carried as the `route` label of
/// `lazymc_http_request_seconds`. A fixed, low-cardinality set — labels
/// derive from the *route*, never the raw path, so an attacker cannot
/// mint unbounded series by walking URLs.
pub const ROUTES: [&str; 9] = [
    "healthz",
    "metrics",
    "stats",
    "graphs",
    "jobs",
    "solve",
    "solve_batch",
    "debug",
    "other",
];

/// Index into [`ROUTES`] for one request.
pub fn route_class(path: &str) -> usize {
    let path = path.split('?').next().unwrap_or(path);
    match path {
        // The readiness probe shares the health route class: same
        // cardinality budget, same latency expectations.
        "/healthz" | "/readyz" => 0,
        "/metrics" => 1,
        "/solve" => 5,
        "/solve-batch" => 6,
        p if p == "/stats" || p.starts_with("/stats/") => 2,
        p if p == "/graphs" || p.starts_with("/graphs/") => 3,
        p if p.starts_with("/jobs/") => 4,
        p if p.starts_with("/debug/") => 7,
        _ => 8,
    }
}

/// Solve phases as exported under the `phase` label of
/// `lazymc_solve_phase_seconds` (the order of
/// [`lazymc_core::PhaseTimes`]'s fields).
pub const PHASES: [&str; 6] = [
    "degree_heuristic",
    "kcore",
    "reorder",
    "prepopulate",
    "coreness_heuristic",
    "systematic",
];

/// [`PhaseTimes`] as microseconds, in [`PHASES`] order.
pub fn phase_micros(p: &PhaseTimes) -> [u64; 6] {
    [
        p.degree_heuristic.as_micros() as u64,
        p.kcore.as_micros() as u64,
        p.reorder.as_micros() as u64,
        p.prepopulate.as_micros() as u64,
        p.coreness_heuristic.as_micros() as u64,
        p.systematic.as_micros() as u64,
    ]
}

/// One completed solve as observed by the instrumentation: identity,
/// the span breakdown, and how it ended. Retained (cloned) in the slow
/// log when it clears the threshold.
#[derive(Clone)]
pub struct SolveObservation {
    pub job_id: u64,
    pub graph: String,
    pub trace: String,
    /// Request-body parse time, recorded at submission.
    pub parse_us: u64,
    /// Enqueue → solver pop.
    pub wait_us: u64,
    /// Solver wall time (pop → result).
    pub solve_us: u64,
    /// Result JSON encoding time.
    pub serialize_us: u64,
    /// Per-phase wall times in [`PHASES`] order.
    pub phases_us: [u64; 6],
    pub cancelled: bool,
    pub failed: bool,
}

impl SolveObservation {
    /// The span-tree key: everything the job spent between submission
    /// and its encoded result.
    pub fn total_us(&self) -> u64 {
        self.parse_us + self.wait_us + self.solve_us + self.serialize_us
    }

    /// The span tree as JSON: a `request` root with `parse`,
    /// `queue-wait`, `solve` (whose children are the solver phases) and
    /// `serialize` children. Offsets are microseconds from submission,
    /// so a client can render a flame-style timeline without clocks.
    pub fn span_tree(&self) -> Json {
        let span = |name: &str, start_us: u64, dur_us: u64, children: Vec<Json>| {
            let mut fields = vec![
                ("name", Json::str(name)),
                ("start_us", Json::num(start_us as f64)),
                ("dur_us", Json::num(dur_us as f64)),
            ];
            if !children.is_empty() {
                fields.push(("children", Json::Arr(children)));
            }
            Json::obj(fields)
        };
        let mut at = 0u64;
        let mut children = Vec::new();
        children.push(span("parse", at, self.parse_us, vec![]));
        at += self.parse_us;
        children.push(span("queue-wait", at, self.wait_us, vec![]));
        at += self.wait_us;
        let mut phase_at = at;
        let phase_children = PHASES
            .iter()
            .zip(self.phases_us.iter())
            .filter(|(_, &us)| us > 0)
            .map(|(name, &us)| {
                let s = span(name, phase_at, us, vec![]);
                phase_at += us;
                s
            })
            .collect();
        children.push(span("solve", at, self.solve_us, phase_children));
        at += self.solve_us;
        children.push(span("serialize", at, self.serialize_us, vec![]));
        span("request", 0, self.total_us(), children)
    }
}

/// Turns the scheduler's cumulative per-worker busy-nanosecond counters
/// into a per-scrape-window **thread efficiency** gauge: the fraction of
/// wall time each worker spent executing task bodies since the previous
/// `/metrics` scrape (clamped to [0, 1]). The first scrape's window runs
/// from daemon start, so a single hard solve on an idle pool reports
/// near-1.0 on every worker it recruited.
pub struct SchedWindow {
    last: Mutex<WindowState>,
}

struct WindowState {
    at: Instant,
    busy_ns: Vec<u64>,
}

impl SchedWindow {
    pub fn new() -> SchedWindow {
        SchedWindow {
            last: Mutex::new(WindowState {
                at: Instant::now(),
                busy_ns: Vec::new(),
            }),
        }
    }

    /// Per-worker busy fraction over the window since the previous call,
    /// and advances the window. `busy_ns` is the scheduler's cumulative
    /// snapshot (one entry per worker).
    pub fn efficiency(&self, busy_ns: &[u64]) -> Vec<f64> {
        let now = Instant::now();
        let mut last = plock(&self.last);
        let elapsed_ns = now.duration_since(last.at).as_nanos() as u64;
        let out = busy_ns
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let prev = last.busy_ns.get(i).copied().unwrap_or(0);
                if elapsed_ns == 0 {
                    0.0
                } else {
                    (b.saturating_sub(prev) as f64 / elapsed_ns as f64).clamp(0.0, 1.0)
                }
            })
            .collect();
        last.at = now;
        last.busy_ns = busy_ns.to_vec();
        out
    }
}

impl Default for SchedWindow {
    fn default() -> Self {
        Self::new()
    }
}

/// The daemon's observability state, shared by every layer.
pub struct ServiceObs {
    /// HTTP request latency per route class ([`ROUTES`] order).
    http: [Histogram; ROUTES.len()],
    /// Enqueue → scheduler-take wait.
    pub queue_wait: Histogram,
    /// Solver wall time.
    pub solve_wall: Histogram,
    /// Per-phase solve wall time ([`PHASES`] order).
    phases: [Histogram; PHASES.len()],
    /// The N slowest completed solves above the threshold.
    pub slow: SlowLog<SolveObservation>,
    /// Scrape window for `lazymc_sched_thread_efficiency`.
    pub sched_window: SchedWindow,
    sink: LogSink,
}

impl ServiceObs {
    pub(crate) fn new(sink: LogSink, slow_query_ms: u64, slow_log_len: usize) -> ServiceObs {
        ServiceObs {
            http: Default::default(),
            queue_wait: Histogram::new(),
            solve_wall: Histogram::new(),
            phases: Default::default(),
            slow: SlowLog::new(slow_query_ms.saturating_mul(1000), slow_log_len),
            sched_window: SchedWindow::new(),
            sink,
        }
    }

    /// Snapshot of one route's HTTP latency histogram.
    pub fn http_snapshot(&self, route: usize) -> HistogramSnapshot {
        self.http[route.min(ROUTES.len() - 1)].snapshot()
    }

    /// Records one answered HTTP request and, when logging is on, emits
    /// its structured log line.
    pub(crate) fn observe_http(
        &self,
        route: usize,
        trace: &str,
        method: &str,
        path: &str,
        status: u16,
        dur: Duration,
    ) {
        self.http[route.min(ROUTES.len() - 1)].observe(dur);
        if self.sink.enabled() {
            let line = Json::obj(vec![
                ("ts_ms", Json::num(unix_ms() as f64)),
                ("kind", Json::str("http")),
                ("trace", Json::str(trace)),
                ("method", Json::str(method)),
                ("path", Json::str(path)),
                ("route", Json::str(ROUTES[route.min(ROUTES.len() - 1)])),
                ("status", Json::num(status as f64)),
                ("dur_us", Json::num(dur.as_micros() as f64)),
            ]);
            self.sink.emit(&line.encode());
        }
    }

    /// Records one completed solve: queue-wait / solve-wall / per-phase
    /// histograms, slow-log admission, and the structured log line.
    pub(crate) fn observe_solve(&self, obs: &SolveObservation) {
        self.queue_wait.observe_micros(obs.wait_us);
        self.solve_wall.observe_micros(obs.solve_us);
        for (h, &us) in self.phases.iter().zip(obs.phases_us.iter()) {
            h.observe_micros(us);
        }
        self.slow.record(obs.total_us(), obs.clone());
        if self.sink.enabled() {
            let phases = Json::Obj(
                PHASES
                    .iter()
                    .zip(obs.phases_us.iter())
                    .map(|(name, &us)| (name.to_string(), Json::num(us as f64)))
                    .collect(),
            );
            let line = Json::obj(vec![
                ("ts_ms", Json::num(unix_ms() as f64)),
                ("kind", Json::str("solve")),
                ("trace", Json::str(&*obs.trace)),
                ("job_id", Json::num(obs.job_id as f64)),
                ("graph", Json::str(&*obs.graph)),
                ("parse_us", Json::num(obs.parse_us as f64)),
                ("wait_us", Json::num(obs.wait_us as f64)),
                ("solve_us", Json::num(obs.solve_us as f64)),
                ("serialize_us", Json::num(obs.serialize_us as f64)),
                ("total_us", Json::num(obs.total_us() as f64)),
                ("phases", phases),
                ("cancelled", Json::Bool(obs.cancelled)),
                ("failed", Json::Bool(obs.failed)),
                ("slow", Json::Bool(obs.total_us() >= self.slow.threshold())),
            ]);
            self.sink.emit(&line.encode());
        }
    }

    /// Appends the daemon's histogram families in Prometheus text
    /// format (one `# HELP`/`# TYPE` header per family, one label set
    /// per route/phase).
    pub(crate) fn render_prometheus(&self, out: &mut String) {
        header(
            out,
            "lazymc_http_request_seconds",
            Kind::Histogram,
            "HTTP request latency by route class",
        );
        for (route, h) in ROUTES.iter().zip(self.http.iter()) {
            h.snapshot().render_prometheus(
                out,
                "lazymc_http_request_seconds",
                &format!("route=\"{route}\""),
            );
        }
        header(
            out,
            "lazymc_queue_wait_seconds",
            Kind::Histogram,
            "Solve-job wait between enqueue and solver pop",
        );
        self.queue_wait
            .snapshot()
            .render_prometheus(out, "lazymc_queue_wait_seconds", "");
        header(
            out,
            "lazymc_solve_wall_seconds",
            Kind::Histogram,
            "Solver wall time per executed job",
        );
        self.solve_wall
            .snapshot()
            .render_prometheus(out, "lazymc_solve_wall_seconds", "");
        header(
            out,
            "lazymc_solve_phase_seconds",
            Kind::Histogram,
            "Solve wall time by pipeline phase",
        );
        for (phase, h) in PHASES.iter().zip(self.phases.iter()) {
            h.snapshot().render_prometheus(
                out,
                "lazymc_solve_phase_seconds",
                &format!("phase=\"{phase}\""),
            );
        }
    }

    /// The `GET /debug/slow` body: the retained slowest solves, worst
    /// first, each with its span tree.
    pub(crate) fn slow_json(&self) -> Json {
        let entries: Vec<Json> = self
            .slow
            .snapshot()
            .into_iter()
            .map(|(key_us, o)| {
                Json::obj(vec![
                    ("job_id", Json::num(o.job_id as f64)),
                    ("graph", Json::str(&*o.graph)),
                    ("trace", Json::str(&*o.trace)),
                    ("total_ms", Json::num(key_us as f64 / 1e3)),
                    ("wait_ms", Json::num(o.wait_us as f64 / 1e3)),
                    ("solve_ms", Json::num(o.solve_us as f64 / 1e3)),
                    ("cancelled", Json::Bool(o.cancelled)),
                    ("failed", Json::Bool(o.failed)),
                    ("spans", o.span_tree()),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "threshold_ms",
                Json::num(self.slow.threshold() as f64 / 1e3),
            ),
            ("count", Json::num(entries.len() as f64)),
            ("slow", Json::Arr(entries)),
        ])
    }
}

/// Wall-clock milliseconds since the Unix epoch (log-line timestamps).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn route_classes_are_total_and_bounded() {
        for path in [
            "/healthz",
            "/readyz",
            "/metrics",
            "/stats",
            "/stats/g",
            "/graphs",
            "/graphs/g",
            "/jobs/17",
            "/solve",
            "/solve?async=1",
            "/solve-batch",
            "/debug/slow",
            "/nope",
            "",
        ] {
            assert!(route_class(path) < ROUTES.len(), "{path}");
        }
        assert_eq!(ROUTES[route_class("/solve?async=1")], "solve");
        assert_eq!(ROUTES[route_class("/jobs/3")], "jobs");
        assert_eq!(ROUTES[route_class("/wat")], "other");
    }

    #[test]
    fn span_tree_offsets_tile_the_request() {
        let o = SolveObservation {
            job_id: 7,
            graph: "g".into(),
            trace: "t".into(),
            parse_us: 10,
            wait_us: 20,
            solve_us: 100,
            serialize_us: 5,
            phases_us: [1, 2, 3, 0, 4, 90],
            cancelled: false,
            failed: false,
        };
        assert_eq!(o.total_us(), 135);
        let tree = o.span_tree();
        assert_eq!(tree.get("dur_us").and_then(Json::as_u64), Some(135));
        let Some(Json::Arr(children)) = tree.get("children") else {
            panic!("request span must have children");
        };
        // serialize starts where solve ended.
        let serialize = children.last().unwrap();
        assert_eq!(
            serialize.get("name").and_then(Json::as_str),
            Some("serialize")
        );
        assert_eq!(serialize.get("start_us").and_then(Json::as_u64), Some(130));
        // The zero-duration phase is elided from the solve span.
        let solve = &children[2];
        let Some(Json::Arr(phases)) = solve.get("children") else {
            panic!("solve span must have phase children");
        };
        assert_eq!(phases.len(), 5);
    }

    #[test]
    fn observe_solve_feeds_histograms_slowlog_and_sink() {
        let (sink, buf) = LogSink::capture();
        let obs = ServiceObs::new(sink, 0, 8);
        let o = SolveObservation {
            job_id: 1,
            graph: "g".into(),
            trace: "trace-1".into(),
            parse_us: 1,
            wait_us: 2_000,
            solve_us: 50_000,
            serialize_us: 3,
            phases_us: [0, 10, 5, 5, 10, 49_970],
            cancelled: false,
            failed: false,
        };
        obs.observe_solve(&o);
        assert_eq!(obs.queue_wait.snapshot().count(), 1);
        assert_eq!(obs.solve_wall.snapshot().count(), 1);
        assert_eq!(obs.slow.len(), 1);
        let lines = buf.lock();
        assert_eq!(lines.len(), 1);
        let parsed = Json::parse(&lines[0]).expect("log line is JSON");
        assert_eq!(parsed.get("trace").and_then(Json::as_str), Some("trace-1"));
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("solve"));
    }

    #[test]
    fn prometheus_rendering_has_one_header_per_family() {
        let obs = ServiceObs::new(LogSink::Null, 100, 4);
        obs.observe_http(0, "t", "GET", "/healthz", 200, Duration::from_micros(80));
        let mut out = String::new();
        obs.render_prometheus(&mut out);
        for family in [
            "lazymc_http_request_seconds",
            "lazymc_queue_wait_seconds",
            "lazymc_solve_wall_seconds",
            "lazymc_solve_phase_seconds",
        ] {
            let types = out
                .lines()
                .filter(|l| *l == format!("# TYPE {family} histogram"))
                .count();
            assert_eq!(types, 1, "{family}");
        }
        assert!(out.contains("lazymc_http_request_seconds_bucket{route=\"healthz\",le=\"+Inf\"} 1"));
        assert!(out.contains("lazymc_solve_phase_seconds_count{phase=\"systematic\"} 0"));
    }
}
