//! Subcommand implementations.

use crate::args::Parsed;
use lazymc_core::{Config, LazyMc, PrePopulate};
use lazymc_graph::{
    connected_components, io, snapshot, suite, triangle_count, CsrGraph, GraphStats,
};
use lazymc_order::kcore_sequential;
use std::time::{Duration, Instant};

/// Top-level usage text.
pub const USAGE: &str = "\
lazymc — work-avoiding maximum clique search

USAGE:
  lazymc solve <file> [--threads N] [--budget SECS] [--phi F] [--top-k K]
               [--filter-rounds R] [--no-early-exit] [--no-second-exit]
               [--prepopulate none|must|all] [--reduction] [--quiet]
  lazymc stats <file>
  lazymc mce <file> [--histogram]
  lazymc compare <file> [--skip ALG[,ALG...]]   (algs: pmc, domega-ls, domega-bs, brb)
  lazymc gen <instance> <out-file> [--test]     (see `lazymc gen list`)
  lazymc serve [<addr>] [--io-threads I] [--workers N] [--solver-workers S]
               [--conn-limit C] [--max-graphs M] [--queue-cap Q]
               [--data-dir DIR] [--max-budget-ms MS] [--job-ttl-ms MS]
               [--result-cache-bytes B] [--log-json] [--slow-query-ms MS]
               [--queue-delay-target-ms MS] [--max-memory-bytes B]
               [--drain-timeout-ms MS] [--scrub-interval-ms MS]
               [--mmap-threshold-bytes B] [--check]
               (default addr 127.0.0.1:7171)
  lazymc snapshot <graph-file> <out.lmcs>
  lazymc restore <file.lmcs> [<out-graph-file>]
  lazymc help

Input formats by extension: .clq/.col/.dimacs (DIMACS), .mtx (MatrixMarket),
anything else is read as a whitespace edge list.

The benchmark is a separate package, perfbench/; see docs/perf.md.

The serve daemon keeps uploaded graphs resident (fingerprinted, coreness
precomputed, LRU-bounded by --max-graphs) and answers clique queries over
HTTP/1.1 on an epoll reactor (--io-threads event loops, --conn-limit open
sockets): POST /graphs, POST /solve (add ?async=1 for 202 + job id),
POST /solve-batch, GET /graphs, GET /stats[/name], GET /jobs/<id>,
DELETE /jobs/<id>, DELETE /graphs/<name>, GET /healthz, GET /metrics,
GET /debug/slow. Introspection answers on the reactor in microseconds
even with every solver busy.

Every request carries a trace id (a valid inbound X-Request-Id is
honoured, otherwise one is minted) echoed in the response and threaded
through the solve. --log-json emits one JSON log line per request and
per solve to stdout; /metrics exports per-route, queue-wait, solve-wall
and per-phase latency histograms; GET /jobs/<id> on a running job
reports live progress (phase, nodes expanded, incumbent size); solves
slower than --slow-query-ms (default 500) land in GET /debug/slow with
a span-tree timing breakdown. Repeated identical queries are served from a byte-bounded
result cache (--result-cache-bytes); completed async jobs stay pollable
for --job-ttl-ms; a full job queue (--queue-cap) answers 429 with a
Retry-After derived from the observed drain rate. --check binds, prints
the address, and exits immediately.

Overload and lifecycle: with --queue-delay-target-ms, sustained queue
waits above the target shed lowest-priority admissions with 503 +
Retry-After (CoDel-style; bursts are not overload). --max-memory-bytes
arms soft/hard live-heap watermarks: above 80% uploads are refused and
/healthz degrades, at 100% the cheapest running solve is cancelled.
Queued jobs whose budget expires before a solver frees up are reaped
dead-on-arrival instead of run. SIGTERM/SIGINT drain gracefully: GET
/readyz flips to 503 (liveness /healthz stays 200), the listener
closes, in-flight and journaled work settles (bounded by
--drain-timeout-ms, default 10000), then the process exits 0 — jobs
that miss the window replay from the journal on the next boot. With a
--data-dir, a background scrubber re-verifies snapshot checksums and
journal CRCs every --scrub-interval-ms (default 60000; 0 disables),
quarantining bit rot before it can ever be served.

With --data-dir, every upload is also written as a checksummed .lmcs
snapshot (CSR + coreness, atomic rename); after a restart graphs reload
lazily on first use — no re-upload, no k-core recomputation. Snapshots
at least --mmap-threshold-bytes large (default 4 MiB; 0 maps everything)
skip the heap decode entirely: the file is mmap'd after checksum
validation and the solver reads CSR arrays and coreness straight out of
the page cache, so a reload costs microseconds regardless of graph size
and mapped graphs do not count against --max-graphs. `snapshot`
precomputes such a file offline from any graph file; `restore` verifies
one and prints (or re-exports) its contents. Drop .lmcs files into the
data dir before boot to pre-seed a daemon.
";

fn load(path: &str) -> Result<CsrGraph, String> {
    io::read_path(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    1
}

/// `lazymc solve`
pub fn solve(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("solve needs a graph file");
    };
    let mut cfg = Config::default();
    macro_rules! set {
        ($field:ident, $flag:literal) => {
            match p.value($flag) {
                Ok(Some(v)) => cfg.$field = v,
                Ok(None) => {}
                Err(e) => return fail(&e),
            }
        };
    }
    set!(threads, "--threads");
    set!(density_threshold, "--phi");
    set!(top_k, "--top-k");
    set!(filter_rounds, "--filter-rounds");
    // One clamp for the whole system (see Config::thread_cap).
    cfg.threads = Config::clamp_threads(cfg.threads);
    match p.value::<f64>("--budget") {
        Ok(Some(secs)) => match Duration::try_from_secs_f64(secs) {
            Ok(d) => cfg.time_budget = Some(d),
            Err(e) => return fail(&format!("invalid value {secs:?} for --budget: {e}")),
        },
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    if p.has("--no-early-exit") {
        cfg.early_exit = false;
        cfg.second_exit = false;
    }
    if p.has("--no-second-exit") {
        cfg.second_exit = false;
    }
    if p.has("--reduction") {
        cfg.subgraph_reduction = true;
    }
    match p.raw("--prepopulate") {
        Some("none") => cfg.prepopulate = PrePopulate::None,
        Some("must") => cfg.prepopulate = PrePopulate::Must,
        Some("all") => cfg.prepopulate = PrePopulate::All,
        Some(other) => return fail(&format!("unknown prepopulate policy {other:?}")),
        None => {}
    }

    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let t = Instant::now();
    let r = LazyMc::new(cfg).solve(&g);
    let elapsed = t.elapsed();

    if r.is_exact() {
        println!("omega {}", r.size());
    } else {
        println!(
            "omega >= {} (budget expired before the proof finished)",
            r.size()
        );
    }
    let mut witness = r.vertices().to_vec();
    witness.sort_unstable();
    println!("clique {witness:?}");
    if !p.has("--quiet") {
        let m = &r.metrics;
        println!("time   {elapsed:?}");
        println!(
            "phases degree-heur {:?} | kcore {:?} | reorder {:?} | prepopulate {:?} | core-heur {:?} | systematic {:?}",
            m.phases.degree_heuristic,
            m.phases.kcore,
            m.phases.reorder,
            m.phases.prepopulate,
            m.phases.coreness_heuristic,
            m.phases.systematic,
        );
        // The systematic phase's work split, summed across threads.
        println!(
            "work filter {:?} | MC {:?} | k-VC {:?}",
            m.filter_time, m.mc_time, m.kvc_time,
        );
        println!(
            "search heuristics {}→{} | searched {} MC + {} k-VC of {} neighbourhoods considered",
            m.omega_degree_heuristic,
            m.omega_coreness_heuristic,
            m.searched_mc,
            m.searched_kvc,
            m.retained_coreness,
        );
    }
    0
}

/// `lazymc stats`
pub fn stats(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("stats needs a graph file");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let s = GraphStats::of(&g);
    let kc = kcore_sequential(&g);
    let (components, _) = connected_components(&g);
    println!("vertices    {}", s.n);
    println!("edges       {}", s.m);
    println!("max degree  {}", s.max_degree);
    println!("avg degree  {:.2}", s.avg_degree);
    println!("density     {:.6}", s.density);
    println!("isolated    {}", s.isolated);
    println!("components  {components}");
    println!("degeneracy  {}", kc.degeneracy);
    println!("omega <=    {}", kc.omega_upper_bound());
    println!("triangles   {}", triangle_count(&g));
    0
}

/// `lazymc mce`
pub fn mce(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("mce needs a graph file");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let t = Instant::now();
    if p.has("--histogram") {
        let mut hist: Vec<u64> = Vec::new();
        let stats = lazymc_mce::for_each_maximal_clique(&g, |c| {
            if hist.len() <= c.len() {
                hist.resize(c.len() + 1, 0);
            }
            hist[c.len()] += 1;
        });
        println!("maximal cliques {}", stats.cliques);
        for (size, count) in hist.iter().enumerate().filter(|(_, &c)| c > 0) {
            println!("  size {size:>3}: {count}");
        }
    } else {
        println!("maximal cliques {}", lazymc_mce::count_maximal_cliques(&g));
    }
    println!("time {:?}", t.elapsed());
    0
}

/// `lazymc compare`
pub fn compare(argv: &[String]) -> i32 {
    use lazymc_baselines as bl;
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("compare needs a graph file");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let skip: Vec<&str> = p
        .raw("--skip")
        .map(|s| s.split(',').collect())
        .unwrap_or_default();

    let t = Instant::now();
    let lazy = LazyMc::new(Config::default()).solve(&g);
    let lazy_time = t.elapsed();
    println!(
        "{:<10} omega {:<5} time {:>12?}",
        "lazymc",
        lazy.size(),
        lazy_time
    );

    type Baseline = Box<dyn Fn(&CsrGraph) -> Vec<u32>>;
    let runs: Vec<(&str, Baseline)> = vec![
        ("pmc", Box::new(bl::pmc_like)),
        (
            "domega-ls",
            Box::new(|g: &CsrGraph| bl::domega(g, bl::GapSchedule::Linear)),
        ),
        (
            "domega-bs",
            Box::new(|g: &CsrGraph| bl::domega(g, bl::GapSchedule::Binary)),
        ),
        ("brb", Box::new(bl::brb_like)),
    ];
    for (name, f) in runs {
        if skip.contains(&name) {
            println!("{name:<10} skipped");
            continue;
        }
        let t = Instant::now();
        let c = f(&g);
        let elapsed = t.elapsed();
        let verdict = if c.len() == lazy.size() {
            ""
        } else {
            "  << DISAGREES"
        };
        println!(
            "{:<10} omega {:<5} time {:>12?}  speedup {:>6.2}x{verdict}",
            name,
            c.len(),
            elapsed,
            elapsed.as_secs_f64() / lazy_time.as_secs_f64().max(1e-9),
        );
        if c.len() != lazy.size() {
            return fail("solver disagreement");
        }
    }
    0
}

/// `lazymc serve`
pub fn serve(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let mut cfg = lazymc_service::ServiceConfig {
        addr: p.positional(0).unwrap_or("127.0.0.1:7171").to_string(),
        ..lazymc_service::ServiceConfig::default()
    };
    macro_rules! set {
        ($field:ident, $flag:literal) => {
            match p.value($flag) {
                Ok(Some(v)) => cfg.$field = v,
                Ok(None) => {}
                Err(e) => return fail(&e),
            }
        };
    }
    set!(workers, "--workers");
    set!(solver_workers, "--solver-workers");
    set!(io_threads, "--io-threads");
    set!(conn_limit, "--conn-limit");
    set!(max_graphs, "--max-graphs");
    set!(queue_capacity, "--queue-cap");
    cfg.data_dir = p.raw("--data-dir").map(str::to_string);
    match p.value::<u64>("--max-budget-ms") {
        Ok(Some(ms)) => cfg.max_budget_ms = Some(ms),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--job-ttl-ms") {
        Ok(Some(ms)) => cfg.job_ttl = Duration::from_millis(ms),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--result-cache-bytes") {
        Ok(Some(bytes)) => cfg.result_cache_bytes = bytes as usize,
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    cfg.log_json = p.has("--log-json");
    match p.value::<u64>("--slow-query-ms") {
        Ok(Some(ms)) => cfg.slow_query_ms = ms,
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--queue-delay-target-ms") {
        Ok(Some(ms)) => cfg.queue_delay_target_ms = Some(ms),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--max-memory-bytes") {
        Ok(Some(bytes)) => cfg.max_memory_bytes = Some(bytes),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--drain-timeout-ms") {
        Ok(Some(ms)) => cfg.drain_timeout = Duration::from_millis(ms),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    // 0 maps every snapshot, u64::MAX decodes everything onto the heap.
    match p.value::<u64>("--mmap-threshold-bytes") {
        Ok(Some(bytes)) => cfg.mmap_threshold_bytes = bytes,
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    // 0 disables the scrubber; anything else overrides the 60s default.
    match p.value::<u64>("--scrub-interval-ms") {
        Ok(Some(0)) => cfg.scrub_interval = None,
        Ok(Some(ms)) => cfg.scrub_interval = Some(Duration::from_millis(ms)),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    // The real daemon turns SIGTERM/SIGINT into a graceful drain
    // (--check exits on its own and must not block signals).
    cfg.handle_signals = !p.has("--check");

    let data_dir = cfg.data_dir.clone();
    // With --log-json, stdout is reserved for structured log lines (one
    // JSON object per line, machine-parseable); the human banner moves to
    // stderr so `lazymc serve --log-json > log.jsonl` stays clean.
    let log_json = cfg.log_json;
    macro_rules! banner {
        ($($t:tt)*) => {
            if log_json { eprintln!($($t)*) } else { println!($($t)*) }
        };
    }
    let handle = match lazymc_service::serve(cfg) {
        Ok(h) => h,
        Err(e) => return fail(&format!("cannot start daemon: {e}")),
    };
    let addr = handle.addr();
    banner!("lazymc-service listening on http://{addr}");
    banner!("  POST /graphs       upload a graph   (name, format, content)");
    banner!("  POST /solve        query a clique   (graph, budget_ms, priority, ...)");
    banner!("  POST /solve?async=1  202 + job id; poll GET /jobs/<id>, DELETE cancels");
    banner!("  POST /solve-batch  array of solve bodies, grouped by graph");
    banner!("  GET  /stats[/name] | /graphs | /jobs/<id> | /healthz | /readyz | /metrics");
    banner!("  GET  /debug/slow   slowest solves with span trees (--slow-query-ms)");
    if let Some(dir) = data_dir {
        let snapshots = handle.state().registry.store().map_or(0, |s| s.len());
        banner!("  durable: {snapshots} snapshot(s) indexed in {dir}");
    }
    if p.has("--check") {
        handle.stop();
        return 0;
    }
    // Block until SIGTERM/SIGINT starts a drain, let admitted work settle
    // (bounded by --drain-timeout-ms), then shut down and exit 0 — queued
    // jobs that missed the window are still journaled and replay on the
    // next boot, so nothing admitted is ever lost.
    handle.wait();
    banner!("lazymc-service drained; exiting");
    handle.stop();
    0
}

/// `lazymc snapshot` — precompute a durable `.lmcs` snapshot (CSR +
/// fingerprint + exact coreness) from any readable graph file, written
/// atomically. The output can pre-seed a daemon's `--data-dir`.
pub fn snapshot(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (Some(path), Some(out)) = (p.positional(0), p.positional(1)) else {
        return fail("snapshot needs a graph file and an output .lmcs path");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let t = Instant::now();
    let kc = kcore_sequential(&g);
    let bytes = snapshot::encode(&g, &kc.coreness, &kc.peel_order);
    if let Err(e) = snapshot::write_file_atomic(std::path::Path::new(out), &bytes) {
        return fail(&format!("cannot write {out}: {e}"));
    }
    println!(
        "wrote {out}: {} vertices, {} edges, degeneracy {}, fingerprint {:016x}, {} bytes in {:?}",
        g.num_vertices(),
        g.num_edges(),
        kc.degeneracy,
        g.fingerprint(),
        bytes.len(),
        t.elapsed()
    );
    0
}

/// `lazymc restore` — verify an `.lmcs` snapshot (checksum, structure,
/// fingerprint, coreness shape) and print its summary; with a second
/// positional, re-export the graph to an ordinary graph file.
pub fn restore(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("restore needs an .lmcs file");
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let d = match snapshot::decode(&bytes) {
        Ok(d) => d,
        Err(e) => return fail(&format!("corrupt snapshot {path}: {e}")),
    };
    let kc = lazymc_order::KCore {
        coreness: d.coreness,
        degeneracy: d.degeneracy,
        peel_order: d.peel_order,
    };
    println!("snapshot    {path} ({} bytes, checksum ok)", bytes.len());
    let g = d.graph;
    println!("vertices    {}", g.num_vertices());
    println!("edges       {}", g.num_edges());
    println!("fingerprint {:016x}", d.fingerprint);
    println!("degeneracy  {}", kc.degeneracy);
    println!("omega <=    {}", kc.omega_upper_bound());
    println!(
        "peel order  {}",
        if kc.peel_order.is_empty() {
            "absent"
        } else {
            "present"
        }
    );
    if let Some(out) = p.positional(1) {
        let file = match std::fs::File::create(out) {
            Ok(f) => f,
            Err(e) => return fail(&format!("cannot create {out}: {e}")),
        };
        let writer = std::io::BufWriter::new(file);
        let result = if out.ends_with(".clq") || out.ends_with(".col") || out.ends_with(".dimacs") {
            io::write_dimacs(&g, writer)
        } else {
            io::write_edge_list(&g, writer)
        };
        if let Err(e) = result {
            return fail(&format!("write failed: {e}"));
        }
        println!("restored    {out}");
    }
    0
}

/// `lazymc gen`
pub fn gen(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(name) = p.positional(0) else {
        return fail("gen needs an instance name (or `list`)");
    };
    if name == "list" {
        for inst in suite::all() {
            println!("{:<14} mirrors {}", inst.name, inst.mirrors);
        }
        return 0;
    }
    let Some(out) = p.positional(1) else {
        return fail("gen needs an output file");
    };
    let Some(inst) = suite::by_name(name) else {
        return fail(&format!(
            "unknown instance {name:?} (try `lazymc gen list`)"
        ));
    };
    let scale = if p.has("--test") {
        suite::Scale::Test
    } else {
        suite::Scale::Standard
    };
    let g = inst.build(scale);
    let file = match std::fs::File::create(out) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot create {out}: {e}")),
    };
    let writer = std::io::BufWriter::new(file);
    let result = if out.ends_with(".clq") || out.ends_with(".col") || out.ends_with(".dimacs") {
        io::write_dimacs(&g, writer)
    } else {
        io::write_edge_list(&g, writer)
    };
    if let Err(e) = result {
        return fail(&format!("write failed: {e}"));
    }
    println!(
        "wrote {} ({} vertices, {} edges) to {out}",
        inst.name,
        g.num_vertices(),
        g.num_edges()
    );
    0
}
