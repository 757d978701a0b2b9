//! Per-layer metrics of the traced run, shared by every workload: the
//! solver pipeline (from the traced replay), the daemon's layers (from
//! `/metrics` deltas) and in-process replays of the daemon's upload path.

use crate::common::{ms, percentile, timed, Checks, Metrics, Tracer};
use crate::daemon::{self, Client, Delta};
use crate::library::Case;
use crate::replay::{ReplayTotals, PHASES};
use lazymc_core::{Config, Deadline, LazyMc, SchedPool, TaskMeta};
use lazymc_graph::{io, MappedSnapshot};
use lazymc_order::kcore_sequential;
use lazymc_service::{Json, SnapshotStore};
use std::path::Path;
use std::time::Instant;

/// Pipeline metrics from the traced replays. Counts come from the
/// one-thread replay, where they repeat exactly; phase times from the
/// two-thread replay, which is what `solve_s` measures; kernel times and
/// node rates from the one-thread replay, which is what `solve_t1_s`
/// measures.
pub fn pipeline(m: &mut Metrics, tr2: &Tracer, t1: &ReplayTotals, t2: &ReplayTotals) {
    let n = t1.n.max(1) as f64;
    m.put("core.degree_heuristic_ms", tr2.total_ms(PHASES[0]));
    m.put("core.coreness_heuristic_ms", tr2.total_ms(PHASES[4]));
    m.put("core.omega_gap_degree", t1.omega_gap_degree as f64);
    m.put("core.omega_gap_coreness", t1.omega_gap_coreness as f64);
    m.put("order.kcore_ms", tr2.total_ms(PHASES[1]));
    m.put("order.reorder_ms", tr2.total_ms(PHASES[2]));
    m.put("lazygraph.prepopulate_ms", tr2.total_ms(PHASES[3]));
    m.put("lazygraph.hashed_built", t1.hashed_built as f64);
    m.put("lazygraph.sorted_built", t1.sorted_built as f64);
    m.put(
        "lazygraph.built_frac",
        (t1.hashed_built + t1.sorted_built) as f64 / (2.0 * n),
    );
    m.put("core.systematic_ms", tr2.total_ms(PHASES[5]));
    m.put("core.filter_ms", t2.filter_ms);
    m.put("core.retained_coreness", t1.retained[0] as f64);
    m.put("core.retained_f1", t1.retained[1] as f64);
    m.put("core.retained_f2", t1.retained[2] as f64);
    m.put("core.retained_f3", t1.retained[3] as f64);
    m.put(
        "core.filter_pass_ratio",
        t1.retained[3] as f64 / t1.retained[0].max(1) as f64,
    );
    m.put("core.searched_mc", t1.searched_mc as f64);
    m.put("core.searched_kvc", t1.searched_kvc as f64);
    m.put("solver.mc_ms", t1.mc_ms);
    m.put("solver.kvc_ms", t1.kvc_ms);
    m.put("solver.mc_nodes", t1.mc_nodes as f64);
    m.put("solver.vc_nodes", t1.vc_nodes as f64);
    let rate = |nodes: u64, ms: f64| {
        if ms > 0.0 {
            nodes as f64 / (ms / 1e3)
        } else {
            0.0
        }
    };
    m.put("solver.mc_nodes_per_s", rate(t1.mc_nodes, t1.mc_ms));
    m.put("solver.vc_nodes_per_s", rate(t1.vc_nodes, t1.kvc_ms));
    m.put("solver.vc_reductions", t1.vc_reductions as f64);
    m.put("solver.split_tasks", t2.split_tasks as f64);
    m.put("solver.steals", t2.steals as f64);
}

/// Daemon-layer metrics over a window: queue wait, scheduler work and
/// parks, solve wall, cache hits and refusals, from the `/metrics` delta
/// across it; `cached_ms` are the window's cached-answer latencies.
pub fn service(m: &mut Metrics, d: &Delta, window_s: f64, cached_ms: &[f64]) {
    m.put(
        "service.queue_wait_p50_ms",
        d.hist_quantile_ms("lazymc_queue_wait_seconds", 0.5),
    );
    m.put(
        "service.queue_wait_p99_ms",
        d.hist_quantile_ms("lazymc_queue_wait_seconds", 0.99),
    );
    m.put(
        "sched.efficiency",
        d.sum_prefix("lazymc_sched_busy_seconds_total") / (2.0 * window_s),
    );
    m.put("sched.steals", d.get("lazymc_sched_steals_total"));
    m.put("sched.parks", d.get("lazymc_sched_parks_total"));
    m.put(
        "service.solve_wall_p50_ms",
        d.hist_quantile_ms("lazymc_solve_wall_seconds", 0.5),
    );
    let hits = d.get("lazymc_result_cache_hits_total");
    let misses = d.get("lazymc_result_cache_misses_total");
    m.put("service.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.put(
        "service.cached_p50_ms",
        if cached_ms.is_empty() {
            0.0
        } else {
            percentile(cached_ms, 0.5)
        },
    );
    m.put(
        "service.rejected",
        d.get("lazymc_jobs_rejected_total")
            + d.get("lazymc_overload_shed_total")
            + d.get("lazymc_http_conns_rejected_total"),
    );
}

/// Cached answers asked per graph in [`service_pass`].
const CACHED_PER_GRAPH: usize = 5;

/// One pass of the workload's graphs through a live daemon: upload each,
/// solve it (a miss, run by `solve_prepared_on` on the daemon's
/// scheduler), then ask again so the result cache answers.
pub fn service_pass(m: &mut Metrics, cases: &[Case], dir: &Path, checks: &mut Checks) {
    let data = dir.join("pass-data");
    std::fs::create_dir_all(&data).expect("daemon data directory");
    let handle = daemon::start(&data).expect("start daemon");
    let mut client = Client::connect(handle.addr()).expect("connect to daemon");
    let before = daemon::scrape(&mut client).expect("scrape /metrics");
    let start = Instant::now();
    let mut cached_ms = Vec::new();
    for case in cases {
        let (name, g, omega) = (case.name, &case.graph, case.omega);
        let reply = client.request("POST", "/graphs", &daemon::upload_body(name, g));
        checks.record(daemon::check_upload(name, g, &reply));
        let reply = client.request("POST", "/solve", &daemon::solve_body(name, None, false));
        checks.record(daemon::check_solve(name, g, omega, false, &reply));
        for _ in 0..CACHED_PER_GRAPH {
            let body = daemon::solve_body(name, None, false);
            let (reply, d) = timed(|| client.request("POST", "/solve", &body));
            checks.record(daemon::check_solve(name, g, omega, true, &reply));
            cached_ms.push(ms(d));
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let after = daemon::scrape(&mut client).expect("scrape /metrics");
    drop(client);
    handle.stop();
    service(m, &Delta::new(before, after), window_s, &cached_ms);
}

/// In-process replays of what the daemon does per request, on the
/// workload's own graphs, each timed from the benchmark's side: JSON
/// parsing of the upload and solve bodies, the edge-list and DIMACS
/// parsers, the k-core decomposition, the durable snapshot write and its
/// zero-copy mapping, and `solve_prepared_on` at width 1, whose node
/// counts must equal `t1_nodes`, `LazyMc::solve`'s one-thread
/// `(mc_nodes, vc_nodes)` of each case.
pub fn replays(
    m: &mut Metrics,
    cases: &[Case],
    t1_nodes: &[(u64, u64)],
    dir: &Path,
    checks: &mut Checks,
) {
    let store_dir = dir.join("replay-store");
    let store = SnapshotStore::open(&store_dir).expect("snapshot store");
    let pool = SchedPool::new(2);
    let (mut json_ms, mut parse_ms, mut dimacs_ms, mut kcore_ms, mut write_ms, mut map_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (case, &t1_nodes) in cases.iter().zip(t1_nodes) {
        let (name, g, omega) = (case.name, &case.graph, case.omega);
        let upload = daemon::upload_body(name, g);
        let solve = daemon::solve_body(name, None, true);
        let (parsed, d) = timed(|| (Json::parse(&upload), Json::parse(&solve)));
        json_ms += ms(d);
        let content = match parsed {
            (Ok(v), Ok(_)) => v.get("content").and_then(Json::as_str).map(str::to_string),
            _ => None,
        };
        let Some(content) = content else {
            checks.record(Err(format!("{name}: request bodies do not parse")));
            continue;
        };

        let (read, d) = timed(|| io::read_edge_list(content.as_bytes()));
        parse_ms += ms(d);
        checks.record(match read {
            Ok(h) if h.num_edges() == g.num_edges() => Ok(()),
            _ => Err(format!("{name}: edge list does not read back")),
        });

        let mut dimacs = Vec::new();
        io::write_dimacs(g, &mut dimacs).expect("write to memory");
        let (read, d) = timed(|| io::read_dimacs(dimacs.as_slice()));
        dimacs_ms += ms(d);
        checks.record(match read {
            Ok(h) if &h == g => Ok(()),
            _ => Err(format!("{name}: DIMACS does not read back")),
        });

        let (kc, d) = timed(|| kcore_sequential(g));
        kcore_ms += ms(d);
        let (saved, d) = timed(|| store.save(name, g, &kc));
        write_ms += ms(d);
        checks.record(
            saved
                .map(|_| ())
                .map_err(|e| format!("{name}: snapshot write: {e}")),
        );
        let path = store_dir.join(format!("{name}.lmcs"));
        let (mapped, d) = timed(|| MappedSnapshot::map(&path));
        map_ms += ms(d);
        checks.record(match mapped {
            Ok(s) if s.degeneracy() == kc.degeneracy && s.targets().len() == 2 * g.num_edges() => {
                Ok(())
            }
            Ok(_) => Err(format!("{name}: mapped snapshot differs from the graph")),
            Err(e) => Err(format!("{name}: map: {e}")),
        });

        let r = LazyMc::new(Config::sequential()).solve_prepared_on(
            g,
            None,
            &Deadline::none(),
            None,
            &pool.handle(),
            TaskMeta::adhoc(),
        );
        let got = (r.metrics.mc_nodes, r.metrics.vc_nodes);
        checks.record(if r.size() == omega && got == t1_nodes && g.is_clique(r.vertices()) {
            Ok(())
        } else {
            Err(format!(
                "{name}: solve_prepared_on at width 1 found ω {} with nodes {got:?}, LazyMc::solve {omega} with {t1_nodes:?}",
                r.size()
            ))
        });
    }
    m.put("graph.parse_ms", dimacs_ms);
    m.put("graph.map_ms", map_ms);
    m.put("protocol.json_parse_ms", json_ms);
    m.put("registry.upload_parse_ms", parse_ms);
    m.put("registry.upload_kcore_ms", kcore_ms);
    m.put("persist.snapshot_write_ms", write_ms);
}
