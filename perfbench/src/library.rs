//! The `dense` workload: graphs read from DIMACS files and solved through
//! `LazyMc::solve`, the entry point the library and `lazymc solve` use, at
//! one and two threads.

use crate::common::{
    self, allocations, median, ms, percentile, timed, Checks, Metrics, Rng, Tracer,
};
use crate::layers;
use crate::replay::{traced_solve, ReplayTotals};
use crate::speed::Speed;
use lazymc_core::{Config, LazyMc, SolveResult};
use lazymc_graph::suite::{self, Scale};
use lazymc_graph::{gen, io, CsrGraph};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One input of a solver workload.
pub struct Case {
    pub name: &'static str,
    pub graph: CsrGraph,
    pub path: PathBuf,
    /// ω from an independent solver in `lazymc-baselines`.
    pub omega: usize,
}

/// One dense graph before the seed renames it. `gnp` draws its edges from
/// `rng`, so each seed solves a different random graph.
fn build(name: &str, rng: &mut Rng) -> CsrGraph {
    match name {
        "paley-401" => gen::paley(401),
        "gnp-400-045" => gen::gnp(400, 0.45, rng.next_u64()),
        "hamming-8-2" => gen::hamming(8, 2),
        name => suite::by_name(name)
            .expect("suite instance")
            .build(Scale::Standard),
    }
}

const DENSE: &[&str] = &[
    "paley-401",
    "gnp-400-045",
    "hamming-8-2",
    "social",
    "gene-hard",
    "bio-dense",
];

/// Node counts of the dense graphs at one thread, pinned per seed for the
/// two named seeds: the primary seed 1 and the held-out seed 2. Other
/// seeds check that every one-thread solve of a run repeats the first.
/// `(seed, graph, mc_nodes, vc_nodes)`.
const PINNED_NODES: &[(u64, &str, u64, u64)] = &[
    (1, "paley-401", 1_199_002, 4_182_398),
    (1, "gnp-400-045", 104_398, 10_857),
    (1, "hamming-8-2", 0, 118),
    (1, "social", 3_874, 158_070),
    (1, "gene-hard", 64, 142),
    (1, "bio-dense", 0, 1),
    (2, "paley-401", 1_218_402, 4_103_932),
    (2, "gnp-400-045", 157_182, 28_721),
    (2, "hamming-8-2", 0, 118),
    (2, "social", 3_874, 158_070),
    (2, "gene-hard", 64, 142),
    (2, "bio-dense", 0, 2),
];

/// The workload's graphs, drawn and renamed by the seed.
fn generate(seed: u64) -> Vec<(&'static str, CsrGraph)> {
    let mut rng = Rng::new(seed);
    DENSE
        .iter()
        .map(|&name| {
            let g = build(name, &mut rng);
            (name, common::relabel(&g, &mut rng))
        })
        .collect()
}

/// Writes each graph to a DIMACS file in `dir`.
fn write_files(
    graphs: Vec<(&'static str, CsrGraph)>,
    dir: &Path,
) -> Vec<(&'static str, CsrGraph, PathBuf)> {
    graphs
        .into_iter()
        .map(|(name, g)| {
            let path = dir.join(format!("{name}.clq"));
            let file = std::fs::File::create(&path).expect("create graph file");
            let mut w = std::io::BufWriter::new(file);
            io::write_dimacs(&g, &mut w).expect("write graph file");
            std::io::Write::flush(&mut w).expect("flush graph file");
            (name, g, path)
        })
        .collect()
}

/// ω of the Standard-scale graphs on which every solver in
/// `lazymc-baselines` needs ten seconds or more; `pmc_like`, `brb_like`
/// and `domega` agree on each. Renaming vertices does not change ω, so
/// one value serves every seed.
const PINNED_OMEGA: &[(&str, usize)] = &[("social", 36)];

/// Adds ω from an independent solver, or from `pinned`, to each graph.
fn with_reference(
    written: Vec<(&'static str, CsrGraph, PathBuf)>,
    pinned: &[(&str, usize)],
) -> Vec<Case> {
    written
        .into_iter()
        .map(|(name, graph, path)| {
            let omega = pinned
                .iter()
                .find(|p| p.0 == name)
                .map_or_else(|| lazymc_baselines::pmc_like(&graph).len(), |p| p.1);
            Case {
                name,
                graph,
                path,
                omega,
            }
        })
        .collect()
}

/// Cases for graphs made elsewhere: files written, reference ω computed.
pub fn cases_from(graphs: Vec<(&'static str, CsrGraph)>, dir: &Path) -> Vec<Case> {
    with_reference(write_files(graphs, dir), &[])
}

/// How many times a run repeats its set-up to report a median.
const SETUP_REPEATS: usize = 5;

/// Sets the workload up [`SETUP_REPEATS`] times (generate, rename, write),
/// with the host's speed probed before the first and after each,
/// returning the cases and every set-up.
fn cases(seed: u64, dir: &Path, speed: &mut Speed) -> (Vec<Case>, Vec<Sample>) {
    let mut setups = Vec::new();
    let mut written = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Free the previous copy first, so peak memory is one set's.
        drop(std::mem::take(&mut written));
        let (w, d) = timed(|| write_files(generate(seed), dir));
        setups.push(Sample {
            wall_ms: ms(d),
            scale: speed.since().parse,
        });
        written = w;
    }
    (with_reference(written, PINNED_OMEGA), setups)
}

/// Checks one solve: ω against the reference, the witness, exactness.
fn check_solve(case: &Case, r: &SolveResult, threads: usize) -> Result<(), String> {
    if !r.is_exact() {
        return Err(format!("{} t{threads}: result not exact", case.name));
    }
    if r.size() != case.omega {
        return Err(format!(
            "{} t{threads}: ω {} but the reference says {}",
            case.name,
            r.size(),
            case.omega
        ));
    }
    if !case.graph.is_clique(r.vertices()) {
        return Err(format!("{} t{threads}: witness is not a clique", case.name));
    }
    Ok(())
}

/// One timed operation: its wall time in milliseconds, and the factor
/// that turns it into reference-host time (`speed.rs`).
#[derive(Clone, Copy)]
struct Sample {
    wall_ms: f64,
    scale: f64,
}

/// Every measurement of a run, per graph in case order.
struct Samples {
    /// Every load of each graph's file.
    loads: Vec<Vec<Sample>>,
    t1: Vec<Vec<Sample>>,
    t2: Vec<Vec<Sample>>,
    /// `(mc_nodes, vc_nodes)` of each graph's first t1 solve.
    t1_nodes: Vec<Option<(u64, u64)>>,
}

impl Samples {
    fn new(n: usize) -> Samples {
        Samples {
            loads: vec![Vec::new(); n],
            t1: vec![Vec::new(); n],
            t2: vec![Vec::new(); n],
            t1_nodes: vec![None; n],
        }
    }
}

/// Loads every file once, returning each load's wall time in
/// milliseconds. Loads are spread between the solves rather than run back
/// to back: this host's memory-bound speed flips between a fast and a
/// slow state every few seconds, and samples taken at many moments keep
/// the median in one state.
fn load_all(cases: &[Case], checks: &mut Checks) -> Vec<f64> {
    cases
        .iter()
        .map(|case| {
            let (loaded, d) = timed(|| io::read_path(&case.path));
            checks.record(match loaded {
                Ok(g) if g == case.graph => Ok(()),
                Ok(_) => Err(format!("{}: file read back a different graph", case.name)),
                Err(e) => Err(format!("{}: {e}", case.name)),
            });
            ms(d)
        })
        .collect()
}

/// The two solvers of a run.
struct Solvers {
    t1: LazyMc,
    t2: LazyMc,
}

/// One step of a run, for graph `i`: every file loaded, then the graph
/// solved once at one thread and twice at two, with the host's speed
/// probed after each of the four. One-thread node counts are checked
/// against the pinned values, or else against the graph's first solve in
/// the run.
fn step(
    i: usize,
    cases: &[Case],
    solvers: &Solvers,
    pinned: &impl Fn(&Case) -> Option<(u64, u64)>,
    out: &mut Samples,
    speed: &mut Speed,
    checks: &mut Checks,
) {
    let case = &cases[i];
    let loads = load_all(cases, checks);
    let scale = speed.since().parse;
    for (samples, wall_ms) in out.loads.iter_mut().zip(loads) {
        samples.push(Sample { wall_ms, scale });
    }

    let (r, d) = timed(|| solvers.t1.solve(&case.graph));
    out.t1[i].push(Sample {
        wall_ms: ms(d),
        scale: speed.since().search,
    });
    checks.record(check_solve(case, &r, 1));
    let got = (r.metrics.mc_nodes, r.metrics.vc_nodes);
    let want = *out.t1_nodes[i].get_or_insert(pinned(case).unwrap_or(got));
    checks.record(if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: t1 node counts (mc, vc) = {got:?}, expected {want:?}",
            case.name
        ))
    });

    // Two-thread solves split their work differently from run to run, so
    // their times vary more than one-thread ones: each step takes two.
    for _ in 0..2 {
        let (r, d) = timed(|| solvers.t2.solve(&case.graph));
        out.t2[i].push(Sample {
            wall_ms: ms(d),
            scale: speed.since().search,
        });
        checks.record(check_solve(case, &r, 2));
    }
}

/// Checks one-thread node counts: against the pinned values when there
/// are any, otherwise against `first`.
fn check_nodes(
    cases: &[Case],
    first: &[(u64, u64)],
    nodes: &[(u64, u64)],
    pinned: &impl Fn(&Case) -> Option<(u64, u64)>,
    checks: &mut Checks,
) {
    for ((case, &first), &got) in cases.iter().zip(first).zip(nodes) {
        let want = pinned(case).unwrap_or(first);
        checks.record(if got == want {
            Ok(())
        } else {
            Err(format!(
                "{}: t1 node counts (mc, vc) = {got:?}, expected {want:?}",
                case.name
            ))
        });
    }
}

/// The pinned one-thread node counts of `case` for this seed.
fn pins(seed: u64) -> impl Fn(&Case) -> Option<(u64, u64)> {
    move |case: &Case| {
        PINNED_NODES
            .iter()
            .find(|p| p.0 == seed && p.1 == case.name)
            .map(|p| (p.2, p.3))
    }
}

pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
) -> (Checks, Metrics, Vec<(&'static str, f64)>) {
    let mut checks = Checks::default();
    let mut speed = Speed::new();
    let (cases, setups) = cases(seed, dir, &mut speed);
    if trace {
        let metrics = traced(&cases, dir, &mut checks, pins(seed), |m, inputs, checks| {
            layers::service_pass(m, inputs, dir, checks)
        });
        return (checks, metrics, Vec::new());
    }

    // Passes over the graphs, one step per graph. After the first pass, a
    // step runs while it still ends within the run's time, judged by the
    // same graph's step in the pass before; the run ends at the first that
    // would not, so sample counts differ by at most one between graphs.
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let solvers = Solvers {
        t1: LazyMc::new(Config::sequential()),
        t2: LazyMc::new(Config::default().with_threads(2)),
    };
    let pinned = pins(seed);
    let mut samples = Samples::new(cases.len());
    // A fresh reading, so the first load is not scaled across the
    // reference solves.
    speed.since();
    let mut last = vec![Duration::ZERO; cases.len()];
    'run: for pass in 0.. {
        for i in 0..cases.len() {
            if pass > 0 && start.elapsed() + last[i] > budget {
                break 'run;
            }
            let began = Instant::now();
            step(
                i,
                &cases,
                &solvers,
                &pinned,
                &mut samples,
                &mut speed,
                &mut checks,
            );
            last[i] = began.elapsed();
        }
    }

    // Each graph's median over the run (over every load, for loads), in
    // reference-host time (`speed.rs`); sums and percentiles are then
    // taken over graphs. The stamp also carries the sums in wall time.
    let scaled = |s: &Sample| s.wall_ms * s.scale;
    let wall = |s: &Sample| s.wall_ms;
    let median_of =
        |x: &[Sample], f: fn(&Sample) -> f64| median(&x.iter().map(f).collect::<Vec<_>>());
    let per_graph = |xs: &[Vec<Sample>], f: fn(&Sample) -> f64| -> Vec<f64> {
        xs.iter().map(|x| median_of(x, f)).collect()
    };
    let loads = per_graph(&samples.loads, scaled);
    let t1 = per_graph(&samples.t1, scaled);
    let t2 = per_graph(&samples.t2, scaled);
    let sum_s = |xs: &[f64]| xs.iter().sum::<f64>() / 1e3;
    let count = |xs: &[Vec<Sample>]| xs.iter().map(Vec::len).sum::<usize>();
    let (load_n, t1_n, t2_n) = (
        count(&samples.loads),
        count(&samples.t1),
        count(&samples.t2),
    );
    let mut notes = vec![
        ("wall_load_s", sum_s(&per_graph(&samples.loads, wall))),
        ("wall_solve_s", sum_s(&per_graph(&samples.t2, wall))),
        ("wall_solve_t1_s", sum_s(&per_graph(&samples.t1, wall))),
        ("wall_setup_s", median_of(&setups, wall) / 1e3),
    ];
    notes.extend(speed.notes());

    let mut m = Metrics::default();
    m.timing("setup_s", median_of(&setups, scaled) / 1e3, setups.len());
    m.timing("load_s", sum_s(&loads), load_n);
    m.timing("solve_s", sum_s(&t2), t2_n);
    m.timing("solve_t1_s", sum_s(&t1), t1_n);
    m.put("peak_rss_mb", common::peak_rss_mb());
    m.timing("solve_p50_ms", percentile(&t2, 0.5), t2_n);
    m.timing("solve_p99_ms", percentile(&t2, 0.99), t2_n);
    m.timing("upload_p50_ms", percentile(&loads, 0.5), load_n);
    m.timing("upload_p90_ms", percentile(&loads, 0.9), load_n);
    m.timing("max_rps", cases.len() as f64 / sum_s(&t2), t2_n);
    (checks, m, notes)
}

/// The traced run shared by every workload. Each graph is solved by
/// `LazyMc::solve` and by the traced replay in turn, at one thread and
/// then at two, so the two sides see the same machine state; then come
/// the layer replays and `daemon_layers`, which fills the daemon's layer
/// metrics. Returns every per-layer metric.
pub fn traced(
    cases: &[Case],
    dir: &Path,
    checks: &mut Checks,
    pinned: impl Fn(&Case) -> Option<(u64, u64)>,
    daemon_layers: impl FnOnce(&mut Metrics, &[Case], &mut Checks),
) -> Metrics {
    let t1 = LazyMc::new(Config::sequential());
    let t2 = LazyMc::new(Config::default().with_threads(2));
    let mut tr1 = Tracer::new();
    let mut tr2 = Tracer::new();
    let mut t1_totals = ReplayTotals::default();
    let mut t2_totals = ReplayTotals::default();
    let (mut plain_t1_s, mut plain_t2_s, mut t2_cpu_s) = (0.0, 0.0, 0.0);
    let mut t1_nodes = Vec::new();
    let (mut allocs, mut alloc_bytes) = (0, 0);
    for case in cases {
        let ((r, d), a) = allocations(|| timed(|| t1.solve(&case.graph)));
        allocs += a.allocs;
        alloc_bytes += a.allocated_bytes;
        checks.record(check_solve(case, &r, 1));
        plain_t1_s += d.as_secs_f64();
        let nodes = (r.metrics.mc_nodes, r.metrics.vc_nodes);
        t1_nodes.push(nodes);

        let r1 = traced_solve(&mut tr1, &case.graph, &Config::sequential());
        checks.record(if r1.clique.len() == case.omega && (r1.mc_nodes, r1.vc_nodes) == nodes {
            Ok(())
        } else {
            Err(format!(
                "{}: traced t1 replay found ω {} with nodes ({}, {}), LazyMc::solve ω {} with {nodes:?}",
                case.name,
                r1.clique.len(),
                r1.mc_nodes,
                r1.vc_nodes,
                case.omega
            ))
        });
        t1_totals.add(&case.graph, &r1);

        let cpu = common::process_cpu();
        let ((r, d), a) = allocations(|| timed(|| t2.solve(&case.graph)));
        t2_cpu_s += (common::process_cpu() - cpu).as_secs_f64();
        allocs += a.allocs;
        alloc_bytes += a.allocated_bytes;
        checks.record(check_solve(case, &r, 2));
        plain_t2_s += d.as_secs_f64();

        let r2 = traced_solve(&mut tr2, &case.graph, &Config::default().with_threads(2));
        checks.record(
            if r2.clique.len() == case.omega && case.graph.is_clique(&r2.clique) {
                Ok(())
            } else {
                Err(format!(
                    "{}: traced t2 replay found ω {}",
                    case.name,
                    r2.clique.len()
                ))
            },
        );
        t2_totals.add(&case.graph, &r2);
    }
    check_nodes(cases, &t1_nodes, &t1_nodes, &pinned, checks);
    let traced_s = (tr1.total_ms("core.solve") + tr2.total_ms("core.solve")) / 1e3;
    if let Err(e) = tr2.write(&dir.with_extension("spans.jsonl")) {
        eprintln!("perfbench: cannot write spans: {e}");
    }

    let mut m = Metrics::default();
    layers::pipeline(&mut m, &tr2, &t1_totals, &t2_totals);
    let solves = (2 * cases.len()) as f64;
    m.put("par.cpu_util", t2_cpu_s / (2.0 * plain_t2_s));
    m.put("par.speedup_t2", plain_t1_s / plain_t2_s);
    m.put("alloc.count", allocs as f64 / solves);
    m.put("alloc.bytes", alloc_bytes as f64 / solves);
    daemon_layers(&mut m, cases, checks);
    layers::replays(&mut m, cases, &t1_nodes, dir, checks);
    m.put(
        "trace.overhead_ms",
        (traced_s - plain_t1_s - plain_t2_s) * 1e3,
    );
    m
}
