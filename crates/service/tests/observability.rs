//! Live-socket tests of the observability substrate: Prometheus
//! text-format conformance of `/metrics` (one `# HELP`/`# TYPE` per
//! family, no duplicate series, monotone cumulative `le` buckets),
//! `X-Request-Id` handling (valid inbound ids honoured and echoed,
//! invalid or absent ids replaced with generated ones), live progress on
//! a running solve via `GET /jobs/<id>`, the `GET /debug/slow` span
//! trees, structured JSON log capture, the expired-vs-unknown 404
//! distinction, and the exposition pin: every `/metrics` family, every
//! `/healthz` and `/stats` field, and the agreement of the JSON fields
//! with the series that carry the same value.

mod common;

use common::{bool_field, str_field, u64_field, upload, Client};
use lazymc_graph::gen;
use lazymc_service::{serve, Json, LogSink, ServiceConfig, ServiceHandle};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

fn start(cfg: ServiceConfig) -> ServiceHandle {
    serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        ..cfg
    })
    .expect("bind service")
}

/// Series name of a Prometheus sample line (text up to `{` or space).
fn series_name(line: &str) -> &str {
    let end = line.find(['{', ' ']).unwrap_or(line.len());
    &line[..end]
}

#[test]
fn metrics_prometheus_text_format_conformance() {
    let handle = start(ServiceConfig::default());
    let mut c = Client::connect(handle.addr());
    // Drive at least one solve through so solve histograms are non-empty.
    let g = gen::planted_clique(150, 0.04, 8, 5);
    upload(&mut c, "g", &g);
    let (status, _) = c.post_json("/solve", r#"{"graph":"g"}"#);
    assert_eq!(status, 200);

    let (status, _, text) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);

    // One # TYPE and at most one # HELP per family; HELP precedes use.
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashSet<String> = HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next().unwrap(), it.next().unwrap());
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate # TYPE for {name}"
            );
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap();
            assert!(
                helps.insert(name.to_string()),
                "duplicate # HELP for {name}"
            );
        }
    }
    for name in types.keys() {
        assert!(helps.contains(name), "{name} has # TYPE but no # HELP");
    }

    // Every sample belongs to a declared family (histograms own their
    // _bucket/_sum/_count series), and no exact series repeats.
    let mut seen: HashSet<&str> = HashSet::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let series = series_name(line);
        let family_ok = types.contains_key(series)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                series
                    .strip_suffix(suffix)
                    .is_some_and(|base| types.get(base).map(String::as_str) == Some("histogram"))
            });
        assert!(family_ok, "sample {series} has no declared family");
        let key = line.rsplit_once(' ').map(|(k, _)| k).unwrap_or(line);
        assert!(seen.insert(key), "duplicate series {key}");
    }

    // Histogram families: cumulative le buckets are monotone, end at
    // +Inf, and agree with _count — per label set.
    let mut buckets: HashMap<String, Vec<(String, u64)>> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let series = series_name(line);
        if let Some(base) = series.strip_suffix("_bucket") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                let labels = &key[series.len()..];
                let le_at = labels.find("le=\"").expect("bucket has le");
                let le = labels[le_at + 4..].split('"').next().unwrap().to_string();
                let group = format!("{base}{}", &labels[..le_at]);
                buckets
                    .entry(group)
                    .or_default()
                    .push((le, value.parse().expect("bucket count")));
            }
        } else if let Some(base) = series.strip_suffix("_count") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                counts.insert(key.to_string(), value.parse().expect("count"));
            }
        }
    }
    assert!(!buckets.is_empty(), "no histogram buckets exported");
    for (group, series) in &buckets {
        assert!(
            series.windows(2).all(|w| w[0].1 <= w[1].1),
            "{group}: cumulative buckets must be monotone"
        );
        let (last_le, last_count) = series.last().unwrap();
        assert_eq!(last_le, "+Inf", "{group}: final bucket must be +Inf");
        // Finite le bounds strictly increase.
        let mut prev = f64::NEG_INFINITY;
        for (le, _) in series.iter().filter(|(le, _)| le != "+Inf") {
            let v: f64 = le.parse().expect("numeric le");
            assert!(v > prev, "{group}: le bounds must increase");
            prev = v;
        }
        let count_key = group.replacen("_bucket", "", 1);
        // Reconstruct the _count key: group is "<base><labels-prefix>".
        let base_end = count_key.find('{').unwrap_or(count_key.len());
        let (base, labels) = count_key.split_at(base_end);
        let labels = labels.trim_end_matches(',');
        let count_series = if labels.is_empty() || labels == "{" {
            format!("{base}_count")
        } else {
            format!("{base}_count{labels}}}")
        };
        assert_eq!(
            counts.get(&count_series),
            Some(last_count),
            "{group}: +Inf bucket must equal _count ({count_series})"
        );
    }

    // All four histogram families declared, and the solve path observed
    // at least one sample into each of queue-wait and solve-wall.
    for family in [
        "lazymc_http_request_seconds",
        "lazymc_queue_wait_seconds",
        "lazymc_solve_wall_seconds",
        "lazymc_solve_phase_seconds",
    ] {
        assert_eq!(types.get(family).map(String::as_str), Some("histogram"));
    }
    assert!(c.metric("lazymc_queue_wait_seconds_count") >= 1);
    assert!(c.metric("lazymc_solve_wall_seconds_count") >= 1);

    // Satellite gauges: build identity and uptime.
    assert!(
        text.contains("lazymc_build_info{version=\""),
        "build info gauge missing"
    );
    assert!(types.contains_key("lazymc_uptime_seconds"));
    handle.stop();
}

#[test]
fn request_id_honoured_echoed_or_generated() {
    let handle = start(ServiceConfig::default());
    let mut c = Client::connect(handle.addr());

    let echo_of = |c: &mut Client, req: &str| -> String {
        let (status, headers, _) = c.raw(req);
        assert_eq!(status, 200);
        headers
            .iter()
            .find(|(k, _)| k == "x-request-id")
            .map(|(_, v)| v.clone())
            .expect("every response carries X-Request-Id")
    };

    // A valid inbound id is honoured verbatim.
    let id = echo_of(
        &mut c,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: trace-abc_123.z\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(id, "trace-abc_123.z");

    // An invalid inbound id (bad characters) is replaced, not echoed.
    let id = echo_of(
        &mut c,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: bad id with spaces\r\nContent-Length: 0\r\n\r\n",
    );
    assert_ne!(id, "bad id with spaces");
    assert!(!id.is_empty());

    // Absent: one is minted, and two requests get distinct ids.
    let a = echo_of(
        &mut c,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    let b = echo_of(
        &mut c,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(!a.is_empty() && !b.is_empty());
    assert_ne!(a, b, "generated trace ids must be unique");
    handle.stop();
}

#[test]
fn running_job_reports_live_progress() {
    let handle = start(ServiceConfig {
        solver_workers: 1,
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    let g = gen::gnp(300, 0.5, 7); // seconds-scale in debug builds
    upload(&mut c, "slow", &g);
    let (status, accepted) = c.post_json("/solve?async=1", r#"{"graph":"slow","no_cache":true}"#);
    assert_eq!(status, 202, "{accepted:?}");
    let id = u64_field(&accepted, "job_id");

    // Poll until the running job exposes nonzero nodes-expanded progress.
    let nodes_at = |view: &Json| -> Option<u64> {
        view.get("progress")
            .and_then(|p| p.get("nodes_expanded"))
            .and_then(Json::as_u64)
    };
    let t = Instant::now();
    let (first, view) = loop {
        let (status, view) = c.get_json(&format!("/jobs/{id}"));
        assert_eq!(status, 200, "{view:?}");
        let state = str_field(&view, "status").to_string();
        if state == "running" {
            if let Some(n) = nodes_at(&view) {
                if n > 0 {
                    break (n, view);
                }
            }
        }
        assert!(
            state == "queued" || state == "running",
            "job finished before progress was observed; use a slower fixture ({state})"
        );
        assert!(
            t.elapsed() < Duration::from_secs(60),
            "no live progress after 60s"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let progress = view.get("progress").expect("running job exposes progress");
    // The phase is one of the published names and elapsed time is sane.
    let phase = str_field(progress, "phase");
    assert!(
        [
            "idle",
            "degree-heuristic",
            "kcore",
            "reorder",
            "prepopulate",
            "coreness-heuristic",
            "systematic",
            "done",
        ]
        .contains(&phase),
        "unexpected phase {phase}"
    );
    assert!(progress
        .get("incumbent_size")
        .and_then(Json::as_u64)
        .is_some());
    assert!(progress.get("elapsed_ms").and_then(Json::as_u64).is_some());

    // Progress must *move* between two polls of the same running solve.
    let t = Instant::now();
    loop {
        let (status, view) = c.get_json(&format!("/jobs/{id}"));
        assert_eq!(status, 200);
        if str_field(&view, "status") != "running" {
            break; // solve finished while we watched: the first poll stands
        }
        if let Some(n) = nodes_at(&view) {
            if n > first {
                break;
            }
        }
        assert!(
            t.elapsed() < Duration::from_secs(60),
            "nodes_expanded never advanced past {first}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let (status, _) = c.delete_json(&format!("/jobs/{id}"));
    assert!(
        status == 200 || status == 409,
        "cancel running job: {status}"
    );
    handle.stop();
}

#[test]
fn debug_slow_serves_span_trees() {
    // Threshold 0: every completed solve is "slow".
    let handle = start(ServiceConfig {
        slow_query_ms: 0,
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    let g = gen::planted_clique(150, 0.04, 8, 11);
    upload(&mut c, "g", &g);
    let (status, result) = c.post_json("/solve", r#"{"graph":"g"}"#);
    assert_eq!(status, 200);
    // Every solve result carries its per-phase wall breakdown.
    assert!(result.get("phase_ms").is_some(), "{result:?}");

    let (status, slow) = c.get_json("/debug/slow");
    assert_eq!(status, 200);
    assert_eq!(slow.get("threshold_ms").and_then(Json::as_u64), Some(0));
    assert!(u64_field(&slow, "count") >= 1, "{slow:?}");
    let Some(Json::Arr(entries)) = slow.get("slow") else {
        panic!("slow must be an array: {slow:?}");
    };
    let entry = &entries[0];
    assert_eq!(str_field(entry, "graph"), "g");
    assert!(!str_field(entry, "trace").is_empty());
    let spans = entry.get("spans").expect("span tree");
    assert_eq!(str_field(spans, "name"), "request");
    let Some(Json::Arr(children)) = spans.get("children") else {
        panic!("request span has children: {spans:?}");
    };
    let names: Vec<&str> = children.iter().map(|s| str_field(s, "name")).collect();
    assert_eq!(names, ["parse", "queue-wait", "solve", "serialize"]);
    // Child spans tile the request: each starts where the previous ended.
    let mut at = 0u64;
    for child in children {
        assert_eq!(u64_field(child, "start_us"), at, "{child:?}");
        at += u64_field(child, "dur_us");
    }
    assert_eq!(at, u64_field(spans, "dur_us"));
    handle.stop();
}

#[test]
fn log_json_lines_parse_and_carry_the_trace() {
    let (sink, lines) = LogSink::capture();
    let handle = start(ServiceConfig {
        log_sink: sink,
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    let g = gen::planted_clique(150, 0.04, 8, 13);
    upload(&mut c, "g", &g);
    let body = r#"{"graph":"g","no_cache":true}"#;
    let (status, _, _) = c.raw(&format!(
        "POST /solve HTTP/1.1\r\nHost: t\r\nX-Request-Id: smoke-trace-1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert_eq!(status, 200);

    let lines = lines.lock().clone();
    assert!(!lines.is_empty(), "log sink captured nothing");
    let mut kinds_with_trace: HashSet<String> = HashSet::new();
    for line in &lines {
        let parsed =
            Json::parse(line).unwrap_or_else(|e| panic!("log line is not JSON ({e}): {line}"));
        let kind = str_field(&parsed, "kind").to_string();
        assert!(
            parsed.get("ts_ms").and_then(Json::as_u64).is_some(),
            "{line}"
        );
        assert!(!str_field(&parsed, "trace").is_empty(), "{line}");
        if str_field(&parsed, "trace") == "smoke-trace-1" {
            kinds_with_trace.insert(kind);
        }
    }
    // The submitted trace id flows through both layers: the HTTP access
    // line and the solve line reference the same id.
    assert!(kinds_with_trace.contains("http"), "{lines:?}");
    assert!(kinds_with_trace.contains("solve"), "{lines:?}");
    handle.stop();
}

#[test]
fn missing_job_404_distinguishes_unknown_from_expired() {
    let handle = start(ServiceConfig {
        job_ttl: Duration::from_millis(200),
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    let g = gen::planted_clique(150, 0.04, 8, 17);
    upload(&mut c, "g", &g);

    // Never-existed id: "unknown".
    let (status, _, body) = c.request("GET", "/jobs/987654321", None);
    assert_eq!(status, 404);
    assert!(body.contains("unknown"), "{body}");
    assert!(!body.contains("expired"), "{body}");

    // A completed job that aged out: "expired".
    let (status, accepted) = c.post_json("/solve?async=1", r#"{"graph":"g"}"#);
    assert_eq!(status, 202);
    let id = u64_field(&accepted, "job_id");
    let t = Instant::now();
    loop {
        let (status, view) = c.get_json(&format!("/jobs/{id}"));
        if status == 404 {
            break; // TTL hit between polls
        }
        if str_field(&view, "status") == "done" {
            break;
        }
        assert!(t.elapsed() < Duration::from_secs(30), "job never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(400));
    let (status, _, body) = c.request("GET", &format!("/jobs/{id}"), None);
    assert_eq!(status, 404);
    assert!(body.contains("expired"), "{body}");

    // DELETE on both kinds reports the same reasons.
    let (status, _, body) = c.request("DELETE", "/jobs/987654321", None);
    assert_eq!(status, 404);
    assert!(body.contains("unknown"), "{body}");
    let (status, _, body) = c.request("DELETE", &format!("/jobs/{id}"), None);
    assert_eq!(status, 404);
    assert!(body.contains("expired"), "{body}");
    handle.stop();
}

#[test]
fn stats_reports_queue_wait_percentiles() {
    let handle = start(ServiceConfig::default());
    let mut c = Client::connect(handle.addr());
    let g = gen::planted_clique(150, 0.04, 8, 19);
    upload(&mut c, "g", &g);
    let (status, _) = c.post_json("/solve", r#"{"graph":"g"}"#);
    assert_eq!(status, 200);

    let (status, stats) = c.get_json("/stats");
    assert_eq!(status, 200);
    assert!(u64_field(&stats, "queue_wait_count") >= 1, "{stats:?}");
    for key in [
        "queue_wait_p50_ms",
        "queue_wait_p90_ms",
        "queue_wait_p99_ms",
    ] {
        assert!(
            stats.get(key).and_then(Json::as_f64).is_some(),
            "missing {key}: {stats:?}"
        );
    }
    handle.stop();
}

/// Every `/metrics` family: name, `# TYPE` and label keys (histograms:
/// without `le`). A family may be added; one that is dropped, renamed,
/// retyped or relabelled fails [`exposition_is_pinned`].
const FAMILIES: &[(&str, &str, &[&str])] = &[
    ("lazymc_requests_total", "counter", &[]),
    ("lazymc_bad_requests_total", "counter", &[]),
    ("lazymc_http_conns_accepted_total", "counter", &[]),
    ("lazymc_http_conns_rejected_total", "counter", &[]),
    ("lazymc_http_read_stalls_total", "counter", &[]),
    ("lazymc_http_write_stalls_total", "counter", &[]),
    ("lazymc_http_request_timeouts_total", "counter", &[]),
    ("lazymc_solves_total", "counter", &[]),
    ("lazymc_solves_truncated_total", "counter", &[]),
    ("lazymc_solver_panics_total", "counter", &[]),
    ("lazymc_jobs_async_total", "counter", &[]),
    ("lazymc_jobs_cancelled_http_total", "counter", &[]),
    ("lazymc_jobs_expired_total", "counter", &[]),
    ("lazymc_batches_total", "counter", &[]),
    ("lazymc_batch_jobs_total", "counter", &[]),
    ("lazymc_result_cache_hits_total", "counter", &[]),
    ("lazymc_result_cache_misses_total", "counter", &[]),
    ("lazymc_result_cache_ttl_evictions_total", "counter", &[]),
    ("lazymc_result_cache_size_evictions_total", "counter", &[]),
    ("lazymc_graph_lookup_hits_total", "counter", &[]),
    ("lazymc_graph_lookup_misses_total", "counter", &[]),
    ("lazymc_graphs_evicted_total", "counter", &[]),
    ("lazymc_jobs_rejected_total", "counter", &[]),
    ("lazymc_jobs_cancelled_total", "counter", &[]),
    ("lazymc_core_computes_total", "counter", &[]),
    ("lazymc_snapshot_lazy_loads_total", "counter", &[]),
    ("lazymc_snapshot_mmap_total", "counter", &[]),
    ("lazymc_snapshot_writes_total", "counter", &[]),
    ("lazymc_snapshot_write_errors_total", "counter", &[]),
    ("lazymc_snapshots_quarantined_total", "counter", &[]),
    ("lazymc_core_retained_coreness_total", "counter", &[]),
    ("lazymc_core_retained_f1_total", "counter", &[]),
    ("lazymc_core_retained_f2_total", "counter", &[]),
    ("lazymc_core_retained_f3_total", "counter", &[]),
    ("lazymc_core_searched_mc_total", "counter", &[]),
    ("lazymc_core_searched_kvc_total", "counter", &[]),
    ("lazymc_core_mc_nodes_total", "counter", &[]),
    ("lazymc_core_vc_nodes_total", "counter", &[]),
    ("lazymc_core_reduced_vertices_total", "counter", &[]),
    ("lazymc_core_vc_reductions_total", "counter", &[]),
    ("lazymc_core_split_tasks_total", "counter", &[]),
    ("lazymc_core_steals_total", "counter", &[]),
    ("lazymc_core_incumbent_broadcasts_total", "counter", &[]),
    ("lazymc_core_filter_micros_total", "counter", &[]),
    ("lazymc_core_mc_micros_total", "counter", &[]),
    ("lazymc_core_kvc_micros_total", "counter", &[]),
    ("lazymc_sched_steals_total", "counter", &[]),
    ("lazymc_sched_parks_total", "counter", &[]),
    ("lazymc_sched_preemptions_total", "counter", &[]),
    ("lazymc_sched_unit_runs_total", "counter", &[]),
    ("lazymc_sched_job_runs_total", "counter", &[]),
    ("lazymc_sched_worker_panics_total", "counter", &[]),
    ("lazymc_sched_worker_respawns_total", "counter", &[]),
    ("lazymc_chaos_injections_total", "counter", &[]),
    ("lazymc_journal_appends_total", "counter", &[]),
    ("lazymc_journal_append_errors_total", "counter", &[]),
    ("lazymc_journal_rotations_total", "counter", &[]),
    ("lazymc_jobs_replayed_total", "counter", &[]),
    ("lazymc_degraded_events_total", "counter", &[]),
    ("lazymc_overload_shed_total", "counter", &[]),
    ("lazymc_jobs_doa_total", "counter", &[]),
    ("lazymc_mem_soft_rejects_total", "counter", &[]),
    ("lazymc_mem_hard_cancels_total", "counter", &[]),
    ("lazymc_journal_reenabled_total", "counter", &[]),
    ("lazymc_scrub_passes_total", "counter", &[]),
    ("lazymc_scrub_corruptions_total", "counter", &[]),
    ("lazymc_drain_completions_observed_total", "counter", &[]),
    ("lazymc_queue_depth", "gauge", &[]),
    ("lazymc_jobs_inflight", "gauge", &[]),
    ("lazymc_jobs_stored", "gauge", &[]),
    ("lazymc_job_store_bytes", "gauge", &[]),
    ("lazymc_http_open_connections", "gauge", &[]),
    ("lazymc_http_buffered_bytes", "gauge", &[]),
    ("lazymc_result_cache_bytes", "gauge", &[]),
    ("lazymc_result_cache_entries", "gauge", &[]),
    ("lazymc_graphs_resident", "gauge", &[]),
    ("lazymc_graphs_mapped", "gauge", &[]),
    ("lazymc_mapped_bytes", "gauge", &[]),
    ("lazymc_snapshots_on_disk", "gauge", &[]),
    ("lazymc_snapshot_disk_bytes", "gauge", &[]),
    ("lazymc_uptime_seconds", "gauge", &[]),
    ("lazymc_degraded", "gauge", &[]),
    ("lazymc_journal_pending", "gauge", &[]),
    ("lazymc_draining", "gauge", &[]),
    ("lazymc_overload_shedding", "gauge", &[]),
    ("lazymc_retry_after_seconds", "gauge", &[]),
    ("lazymc_mem_live_bytes", "gauge", &[]),
    ("lazymc_mem_soft_limit_bytes", "gauge", &[]),
    ("lazymc_mem_hard_limit_bytes", "gauge", &[]),
    ("lazymc_mem_tracked", "gauge", &[]),
    ("lazymc_sched_workers", "gauge", &[]),
    ("lazymc_sched_busy_seconds_total", "counter", &["worker"]),
    ("lazymc_sched_thread_efficiency", "gauge", &["worker"]),
    ("lazymc_drain_rate_per_sec", "gauge", &[]),
    ("lazymc_queue_depth_by_priority", "gauge", &["priority"]),
    ("lazymc_build_info", "gauge", &["git_sha", "version"]),
    ("lazymc_http_request_seconds", "histogram", &["route"]),
    ("lazymc_queue_wait_seconds", "histogram", &[]),
    ("lazymc_solve_wall_seconds", "histogram", &[]),
    ("lazymc_solve_phase_seconds", "histogram", &["phase"]),
];

/// Every `/healthz` field and its JSON type on a durable daemon with a
/// budget cap (so no field is `null`); `a.b` is field `b` of object `a`.
const HEALTHZ_FIELDS: &[(&str, &str)] = &[
    ("status", "string"),
    ("state", "string"),
    ("degraded_reasons", "array"),
    ("journal", "string"),
    ("journal_pending", "number"),
    ("draining", "bool"),
    ("shedding", "bool"),
    ("memory", "object"),
    ("memory.tracked", "bool"),
    ("memory.enforced", "bool"),
    ("memory.live_bytes", "number"),
    ("memory.level", "string"),
    ("scrub_passes", "number"),
    ("scrub_corruptions", "number"),
    ("max_budget_ms", "number"),
    ("uptime_ms", "number"),
    ("graphs", "number"),
    ("durable", "bool"),
    ("snapshots", "number"),
    ("snapshot_disk_bytes", "number"),
    ("graphs_mapped", "number"),
    ("mapped_bytes", "number"),
    ("snapshot_heap_bytes", "number"),
    ("queue_depth", "number"),
    ("jobs_inflight", "number"),
    ("jobs_stored", "number"),
    ("job_store_bytes", "number"),
    ("open_connections", "number"),
    ("read_stalls", "number"),
    ("write_stalls", "number"),
    ("buffered_bytes", "number"),
    ("result_cache_bytes", "number"),
    ("result_cache_entries", "number"),
];

/// Every `/stats` field and its JSON type, as for [`HEALTHZ_FIELDS`]
/// (queue-wait quantiles are numbers once a solve has completed).
const STATS_FIELDS: &[(&str, &str)] = &[
    ("uptime_ms", "number"),
    ("graphs", "number"),
    ("on_disk", "number"),
    ("queue_capacity", "number"),
    ("io_threads", "number"),
    ("workers", "number"),
    ("solver_workers", "number"),
    ("conn_limit", "number"),
    ("job_ttl_ms", "number"),
    ("max_budget_ms", "number"),
    ("requests_total", "number"),
    ("solves_total", "number"),
    ("result_cache_hits", "number"),
    ("result_cache_misses", "number"),
    ("queue_wait_count", "number"),
    ("queue_wait_p50_ms", "number"),
    ("queue_wait_p90_ms", "number"),
    ("queue_wait_p99_ms", "number"),
    ("graphs_mapped", "number"),
    ("mapped_bytes", "number"),
    ("snapshot_heap_bytes", "number"),
    ("queue_depth", "number"),
    ("jobs_inflight", "number"),
    ("jobs_stored", "number"),
    ("job_store_bytes", "number"),
    ("open_connections", "number"),
    ("read_stalls", "number"),
    ("write_stalls", "number"),
    ("buffered_bytes", "number"),
    ("result_cache_bytes", "number"),
    ("result_cache_entries", "number"),
];

/// JSON fields of `/healthz` and `/stats` that report the value of a
/// `/metrics` series, under the field's own name.
const SHARED_FIELDS: &[(&str, &str)] = &[
    ("graphs", "lazymc_graphs_resident"),
    ("snapshots", "lazymc_snapshots_on_disk"),
    ("on_disk", "lazymc_snapshots_on_disk"),
    ("snapshot_disk_bytes", "lazymc_snapshot_disk_bytes"),
    ("journal_pending", "lazymc_journal_pending"),
    ("scrub_passes", "lazymc_scrub_passes_total"),
    ("scrub_corruptions", "lazymc_scrub_corruptions_total"),
    ("requests_total", "lazymc_requests_total"),
    ("solves_total", "lazymc_solves_total"),
    ("result_cache_hits", "lazymc_result_cache_hits_total"),
    ("result_cache_misses", "lazymc_result_cache_misses_total"),
    ("graphs_mapped", "lazymc_graphs_mapped"),
    ("mapped_bytes", "lazymc_mapped_bytes"),
    ("queue_depth", "lazymc_queue_depth"),
    ("jobs_inflight", "lazymc_jobs_inflight"),
    ("jobs_stored", "lazymc_jobs_stored"),
    ("job_store_bytes", "lazymc_job_store_bytes"),
    ("open_connections", "lazymc_http_open_connections"),
    ("read_stalls", "lazymc_http_read_stalls_total"),
    ("write_stalls", "lazymc_http_write_stalls_total"),
    ("buffered_bytes", "lazymc_http_buffered_bytes"),
    ("result_cache_bytes", "lazymc_result_cache_bytes"),
    ("result_cache_entries", "lazymc_result_cache_entries"),
];

fn data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lazymc_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Label keys of one sample line, without `le`, sorted.
fn label_keys(line: &str) -> Vec<String> {
    let Some(open) = line.find('{') else {
        return Vec::new();
    };
    let mut keys = Vec::new();
    let mut rest = &line[open + 1..];
    while let Some(eq) = rest.find("=\"") {
        keys.push(rest[..eq].trim_start_matches(',').to_string());
        // Skip the quoted value, honouring backslash escapes.
        let mut escaped = false;
        let close = rest[eq + 2..]
            .char_indices()
            .find(|&(_, ch)| {
                let end = ch == '"' && !escaped;
                escaped = ch == '\\' && !escaped;
                end
            })
            .map(|(i, _)| eq + 2 + i)
            .expect("closed label value");
        rest = &rest[close + 1..];
        if !rest.starts_with(',') {
            break;
        }
    }
    keys.retain(|k| k != "le");
    keys.sort();
    keys
}

/// `key → JSON type` of an object's fields, one level of nesting flattened
/// as `a.b`.
fn json_types(v: &Json) -> HashMap<String, &'static str> {
    fn type_of(v: &Json) -> &'static str {
        match v {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
    let Json::Obj(fields) = v else {
        panic!("not a JSON object: {v:?}");
    };
    let mut out = HashMap::new();
    for (key, value) in fields {
        out.insert(key.clone(), type_of(value));
        if let Json::Obj(inner) = value {
            for (sub, sv) in inner {
                out.insert(format!("{key}.{sub}"), type_of(sv));
            }
        }
    }
    out
}

/// The value of an unlabelled series in a `/metrics` text.
fn series_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| series_name(l) == name && !l.starts_with('#'))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("series {name} missing"))
}

/// Pins the daemon's whole exposition: each `/metrics` family's name,
/// type and label keys, and each `/healthz` and `/stats` field's key and
/// JSON type. A queued job makes the per-priority depth family carry a
/// sample, so its labels are checked too.
#[test]
fn exposition_is_pinned() {
    let dir = data_dir("pin");
    let handle = start(ServiceConfig {
        solver_workers: 1,
        workers: 4,
        data_dir: Some(dir.to_str().unwrap().to_string()),
        max_budget_ms: Some(600_000),
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    upload(&mut c, "g", &gen::planted_clique(150, 0.04, 8, 5));
    let (status, _) = c.post_json("/solve", r#"{"graph":"g"}"#);
    assert_eq!(status, 200);

    // Job A holds the only solver, job B waits behind it.
    upload(&mut c, "slow", &gen::gnp(300, 0.5, 7)); // seconds-scale in debug builds
    let (status, a) = c.post_json("/solve?async=1", r#"{"graph":"slow","no_cache":true}"#);
    assert_eq!(status, 202);
    let (status, b) = c.post_json("/solve?async=1", r#"{"graph":"slow","no_cache":true}"#);
    assert_eq!(status, 202);
    let (a_id, b_id) = (u64_field(&a, "job_id"), u64_field(&b, "job_id"));
    let (status, _, text) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let (_, view) = c.get_json(&format!("/jobs/{b_id}"));
    assert_eq!(str_field(&view, "status"), "queued", "{view:?}");
    let (_, health) = c.get_json("/healthz");
    let (_, stats) = c.get_json("/stats");
    for id in [b_id, a_id] {
        let (status, cancelled) = c.delete_json(&format!("/jobs/{id}"));
        assert_eq!(status, 200, "{cancelled:?}");
        assert!(bool_field(&cancelled, "cancelled"));
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);

    let mut types: HashMap<&str, &str> = HashMap::new();
    for rest in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let (name, kind) = rest.split_once(' ').expect("# TYPE name kind");
        types.insert(name, kind);
    }
    let mut labels: HashMap<&str, BTreeSet<Vec<String>>> = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let series = series_name(line);
        let family = if types.contains_key(series) {
            series
        } else {
            ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| series.strip_suffix(suffix))
                .filter(|base| types.get(base) == Some(&"histogram"))
                .unwrap_or_else(|| panic!("sample {series} has no family"))
        };
        labels.entry(family).or_default().insert(label_keys(line));
    }
    for &(name, kind, keys) in FAMILIES {
        assert_eq!(types.get(name), Some(&kind), "# TYPE of {name}");
        let want: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        assert_eq!(
            labels.get(name),
            Some(&BTreeSet::from([want])),
            "label keys of {name}"
        );
    }

    for (endpoint, body, pinned) in [
        ("/healthz", &health, HEALTHZ_FIELDS),
        ("/stats", &stats, STATS_FIELDS),
    ] {
        let got = json_types(body);
        for &(key, kind) in pinned {
            assert_eq!(
                got.get(key),
                Some(&kind),
                "{endpoint} field {key}: {body:?}"
            );
        }
    }
}

/// On an idle daemon, every `/healthz` and `/stats` field that reports a
/// series' value equals that series. `/metrics` is read last, so the
/// request counter may run ahead by the two scrapes after `/healthz`.
#[test]
fn idle_json_fields_agree_with_their_series() {
    let dir = data_dir("agree");
    let handle = start(ServiceConfig {
        data_dir: Some(dir.to_str().unwrap().to_string()),
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    upload(&mut c, "g", &gen::planted_clique(150, 0.04, 8, 7));
    for cached in [false, true] {
        let (status, solved) = c.post_json("/solve", r#"{"graph":"g"}"#);
        assert_eq!(status, 200);
        assert_eq!(bool_field(&solved, "cached"), cached);
    }
    let (_, health) = c.get_json("/healthz");
    let (_, stats) = c.get_json("/stats");
    let (status, _, text) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);

    for &(key, series) in SHARED_FIELDS {
        let value = series_value(&text, series);
        let mut seen = false;
        for (endpoint, body) in [("/healthz", &health), ("/stats", &stats)] {
            let Some(field) = body.get(key) else {
                continue;
            };
            seen = true;
            let field = field.as_u64().expect("numeric field");
            if series == "lazymc_requests_total" {
                assert!(
                    (field..=field + 2).contains(&value),
                    "{endpoint} {key} {field} vs {series} {value}"
                );
            } else {
                assert_eq!(field, value, "{endpoint} {key} vs {series}");
            }
        }
        assert!(seen, "no endpoint reports {key}");
    }
}
