//! The traced replay of `LazyMc::solve`: the same six phase calls the
//! solver makes (paper Alg. 1), each wrapped in a span, with the search
//! counters read back afterwards. The result must match the untraced
//! solve — ω always, node counts exactly at one thread.

use crate::common::Tracer;
use lazymc_core::heuristic::{coreness_heuristic, degree_heuristic};
use lazymc_core::metrics::Counters;
use lazymc_core::systematic::systematic_search_on;
use lazymc_core::{Config, Deadline, Incumbent, OrderKind};
use lazymc_graph::{CsrGraph, VertexId};
use lazymc_lazygraph::LazyGraph;
use lazymc_order::relabel::level_ranges;
use lazymc_order::{coreness_degree_order, kcore_sequential, kcore_with_floor};
use std::sync::atomic::Ordering::Relaxed;

/// What one traced solve found and counted.
pub struct ReplayResult {
    pub clique: Vec<VertexId>,
    pub omega_degree: usize,
    pub omega_coreness: usize,
    pub hashed_built: usize,
    pub sorted_built: usize,
    pub retained: [u64; 4],
    pub searched_mc: u64,
    pub searched_kvc: u64,
    pub filter_ms: f64,
    pub mc_ms: f64,
    pub kvc_ms: f64,
    pub mc_nodes: u64,
    pub vc_nodes: u64,
    pub vc_reductions: u64,
    pub split_tasks: u64,
    pub steals: u64,
}

/// Span names of the six phases, in pipeline order.
pub const PHASES: [&str; 6] = [
    "core.degree_heuristic",
    "order.kcore",
    "order.reorder",
    "lazygraph.prepopulate",
    "core.coreness_heuristic",
    "core.systematic",
];

/// Solves `g` under `cfg` phase by phase, as `LazyMc::solve` does: on a
/// thread pool of `cfg.threads` workers, with no budget.
pub fn traced_solve(tr: &mut Tracer, g: &CsrGraph, cfg: &Config) -> ReplayResult {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .expect("thread pool");
    pool.install(|| tr.span("core.solve", |tr| phases(tr, g, cfg)))
}

fn phases(tr: &mut Tracer, g: &CsrGraph, cfg: &Config) -> ReplayResult {
    let inc = Incumbent::new();
    let counters = Counters::default();
    let deadline = Deadline::none();

    tr.span(PHASES[0], |_| degree_heuristic(g, cfg, &inc));
    let omega_degree = inc.size();
    let kc = tr.span(PHASES[1], |_| match cfg.order {
        OrderKind::CorenessDegree if cfg.kcore_floor => kcore_with_floor(g, omega_degree as u32),
        _ => kcore_sequential(g),
    });
    let (order, levels) = tr.span(PHASES[2], |_| {
        let order = coreness_degree_order(g, &kc.coreness);
        let levels = level_ranges(&order, &kc.coreness, kc.degeneracy);
        (order, levels)
    });
    let lg = tr.span(PHASES[3], |_| {
        let lg = LazyGraph::new(g, &order, &kc.coreness, inc.size_cell());
        lg.prepopulate(cfg.prepopulate, omega_degree);
        lg
    });
    tr.span(PHASES[4], |_| coreness_heuristic(&lg, &levels, cfg, &inc));
    let omega_coreness = inc.size();
    tr.span(PHASES[5], |_| {
        systematic_search_on(
            &lg,
            &levels,
            kc.degeneracy,
            cfg,
            &inc,
            &counters,
            &deadline,
            None,
        )
    });

    let (hashed_built, sorted_built) = lg.built_counts();
    ReplayResult {
        clique: inc.clique(),
        omega_degree,
        omega_coreness,
        hashed_built,
        sorted_built,
        retained: [
            counters.retained_coreness.load(Relaxed),
            counters.retained_f1.load(Relaxed),
            counters.retained_f2.load(Relaxed),
            counters.retained_f3.load(Relaxed),
        ],
        searched_mc: counters.searched_mc.load(Relaxed),
        searched_kvc: counters.searched_kvc.load(Relaxed),
        filter_ms: counters.filter_ns.load(Relaxed) as f64 / 1e6,
        mc_ms: counters.mc_ns.load(Relaxed) as f64 / 1e6,
        kvc_ms: counters.kvc_ns.load(Relaxed) as f64 / 1e6,
        mc_nodes: counters.mc_nodes.load(Relaxed),
        vc_nodes: counters.vc_nodes.load(Relaxed),
        vc_reductions: counters.vc_reductions.load(Relaxed),
        split_tasks: counters.split_tasks.load(Relaxed),
        steals: counters.steals.load(Relaxed),
    }
}

/// Sums of [`ReplayResult`] counters over a pass of the workload's graphs.
#[derive(Default)]
pub struct ReplayTotals {
    pub n: usize,
    pub omega_gap_degree: u64,
    pub omega_gap_coreness: u64,
    pub hashed_built: u64,
    pub sorted_built: u64,
    pub retained: [u64; 4],
    pub searched_mc: u64,
    pub searched_kvc: u64,
    pub filter_ms: f64,
    pub mc_ms: f64,
    pub kvc_ms: f64,
    pub mc_nodes: u64,
    pub vc_nodes: u64,
    pub vc_reductions: u64,
    pub split_tasks: u64,
    pub steals: u64,
}

impl ReplayTotals {
    pub fn add(&mut self, g: &CsrGraph, r: &ReplayResult) {
        let omega = r.clique.len();
        self.n += g.num_vertices();
        self.omega_gap_degree += (omega - r.omega_degree.min(omega)) as u64;
        self.omega_gap_coreness += (omega - r.omega_coreness.min(omega)) as u64;
        self.hashed_built += r.hashed_built as u64;
        self.sorted_built += r.sorted_built as u64;
        for (t, x) in self.retained.iter_mut().zip(r.retained) {
            *t += x;
        }
        self.searched_mc += r.searched_mc;
        self.searched_kvc += r.searched_kvc;
        self.filter_ms += r.filter_ms;
        self.mc_ms += r.mc_ms;
        self.kvc_ms += r.kvc_ms;
        self.mc_nodes += r.mc_nodes;
        self.vc_nodes += r.vc_nodes;
        self.vc_reductions += r.vc_reductions;
        self.split_tasks += r.split_tasks;
        self.steals += r.steals;
    }
}
