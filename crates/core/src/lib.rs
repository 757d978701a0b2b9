//! LazyMC — work-avoiding parallel maximum clique search.
//!
//! The paper's primary contribution (Algorithm 1), assembled from the
//! workspace substrates:
//!
//! ```text
//! LazyMC(G):
//!   1. degree-based heuristic search           (heuristic::degree_heuristic)
//!   2. coreness with incumbent floor           (lazymc_order::kcore_with_floor)
//!   3. (coreness, degree) sort order           (lazymc_order::coreness_degree_order)
//!   4. lazy filtered hashed relabelled graph   (lazymc_lazygraph::LazyGraph)
//!   5. coreness-based heuristic search         (heuristic::coreness_heuristic)
//!   6. systematic search                       (systematic::systematic_search)
//! ```
//!
//! # Example
//!
//! ```
//! use lazymc_core::{Config, LazyMc};
//! use lazymc_graph::gen;
//!
//! let g = gen::planted_clique(300, 0.03, 11, 7);
//! let result = LazyMc::new(Config::default()).solve(&g);
//! assert_eq!(result.size(), 11);
//! assert!(g.is_clique(result.vertices()));
//! ```

mod bitrows;
pub mod config;
pub mod heuristic;
pub mod incumbent;
pub mod metrics;
pub mod progress;
pub mod systematic;
pub mod zone;

pub use config::{Config, OrderKind, PrePopulate};
pub use incumbent::Incumbent;
pub use metrics::{MetricsSnapshot, PhaseTimes};
pub use progress::{Phase, SolveProgress};
pub use zone::{zone_analysis, ZoneStats};

use lazymc_graph::{GraphAccess, VertexId};
use lazymc_lazygraph::LazyGraph;
use lazymc_order::relabel::level_ranges;
use lazymc_order::{
    coreness_degree_order, kcore_sequential, kcore_with_floor, KCoreView, VertexOrder,
};
pub use lazymc_sched::{Pool as SchedPool, SchedHandle, SchedMetrics, TaskMeta};
use std::time::Instant;
pub use systematic::{Deadline, JobSched};

/// Result of a [`LazyMc::solve`] run.
#[derive(Debug, Clone)]
pub struct SolveResult {
    clique: Vec<VertexId>,
    exact: bool,
    /// Everything measured during the run.
    pub metrics: MetricsSnapshot,
}

impl SolveResult {
    /// ω(G) when [`SolveResult::is_exact`]; otherwise the best clique size
    /// found before the time budget expired (a lower bound on ω).
    pub fn size(&self) -> usize {
        self.clique.len()
    }

    /// Whether the search completed (always true without a time budget).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The witness clique, in original vertex ids.
    pub fn vertices(&self) -> &[VertexId] {
        &self.clique
    }

    /// Consumes the result, yielding the witness clique.
    pub fn into_vertices(self) -> Vec<VertexId> {
        self.clique
    }
}

/// The LazyMC solver.
#[derive(Debug, Clone, Default)]
pub struct LazyMc {
    config: Config,
}

impl LazyMc {
    /// Creates a solver with the given configuration.
    pub fn new(config: Config) -> Self {
        LazyMc { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Finds a maximum clique of `g`. The returned witness is in original
    /// vertex ids; its size is deterministic, its identity need not be.
    pub fn solve(&self, g: &dyn GraphAccess) -> SolveResult {
        let deadline = Deadline::starting_now(self.config.time_budget);
        self.solve_prepared(g, None, &deadline, None)
    }

    /// [`LazyMc::solve`] for long-running callers that amortize work across
    /// queries: an exact precomputed k-core decomposition of `g` (e.g.
    /// shared by a graph registry) skips the per-solve coreness phase, and
    /// the externally owned [`Deadline`] lets a job budget start ticking at
    /// *enqueue* time rather than solve time. Pass a fresh `Deadline` per
    /// call — `truncated` is sticky.
    ///
    /// `kcore` must come from [`lazymc_order::kcore_sequential`] on this
    /// exact graph; a decomposition without a peel order is recomputed when
    /// the configured order requires one.
    ///
    /// With `progress`, the solve publishes its current phase, work
    /// counters and incumbent size as it runs, so an observer thread can
    /// report on a solve that has not finished. Passing `None` costs
    /// nothing.
    ///
    /// The systematic search runs on the process-wide scheduler pool
    /// (created by the first solve that hands it work, one worker per
    /// hardware thread, shared by every solve in the process) at the
    /// configured width; `threads = 1` never touches it. The data-parallel phases —
    /// the heuristics, k-core and prepopulate — run on the rayon shim at
    /// the configured thread count.
    pub fn solve_prepared(
        &self,
        g: &dyn GraphAccess,
        kcore: Option<KCoreView<'_>>,
        deadline: &Deadline,
        progress: Option<&SolveProgress>,
    ) -> SolveResult {
        let result = if self.config.threads > 0 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(self.config.threads)
                .build()
                .expect("failed to build rayon pool");
            pool.install(|| self.solve_inner(g, kcore, deadline, progress, None))
        } else {
            self.solve_inner(g, kcore, deadline, progress, None)
        };
        if let Some(p) = progress {
            p.set_phase(Phase::Done);
        }
        result
    }

    /// [`LazyMc::solve_prepared`] on the caller's scheduler pool
    /// instead of the process-wide one: the systematic sweep and every
    /// intra-solve subtree split become stealable tasks stamped with
    /// `meta` (job id, deadline, priority) on the pool behind `handle`.
    /// The caller's thread drives the solve and recruits pool workers
    /// through scopes, so a `threads = 1` config touches the scheduler
    /// not at all and stays bit-identical to the sequential kernels.
    pub fn solve_prepared_on(
        &self,
        g: &dyn GraphAccess,
        kcore: Option<KCoreView<'_>>,
        deadline: &Deadline,
        progress: Option<&SolveProgress>,
        handle: &SchedHandle,
        meta: TaskMeta,
    ) -> SolveResult {
        let sched = JobSched::new(
            handle.clone(),
            meta,
            self.config.sched_width(handle.workers()),
        );
        let result = self.solve_inner(g, kcore, deadline, progress, Some(&sched));
        if let Some(p) = progress {
            p.set_phase(Phase::Done);
        }
        result
    }

    fn solve_inner(
        &self,
        g: &dyn GraphAccess,
        pre: Option<KCoreView<'_>>,
        deadline: &Deadline,
        progress: Option<&SolveProgress>,
        sched: Option<&JobSched>,
    ) -> SolveResult {
        let cfg = &self.config;
        let mut phases = PhaseTimes::default();
        // Observed solves share the incumbent-size cell and the work
        // counters with their progress cell; the search itself is
        // identical either way (same relaxed atomics, same layout).
        let (inc, counters_owned);
        let counters: &metrics::Counters = match progress {
            Some(p) => {
                inc = Incumbent::with_size_cell(p.incumbent_cell());
                &p.counters
            }
            None => {
                inc = Incumbent::new();
                counters_owned = metrics::Counters::default();
                &counters_owned
            }
        };
        let mark = |ph: Phase| {
            if let Some(p) = progress {
                p.set_phase(ph);
            }
        };

        if g.num_vertices() == 0 {
            return SolveResult {
                clique: Vec::new(),
                exact: true,
                metrics: MetricsSnapshot::default(),
            };
        }

        // 1. Degree-based heuristic search (Alg. 1 line 3).
        mark(Phase::DegreeHeuristic);
        let t = Instant::now();
        heuristic::degree_heuristic(g, cfg, &inc);
        phases.degree_heuristic = t.elapsed();
        let omega_degree = inc.size();

        // 2. Coreness, floored at the incumbent (line 4): vertices the
        //    heuristic already rules out never get an exact coreness.
        //    The peeling order requires the exact sequential computation.
        //    A caller-provided exact decomposition (registry amortization)
        //    replaces the whole phase; the floor optimization only avoids
        //    work while *computing* coreness, so exact values are always a
        //    valid substitute.
        mark(Phase::Kcore);
        let t = Instant::now();
        let kc_owned;
        let kc: KCoreView<'_> = match pre {
            Some(kc) if cfg.order != config::OrderKind::Peeling || !kc.peel_order.is_empty() => kc,
            _ => {
                kc_owned = match cfg.order {
                    config::OrderKind::Peeling => kcore_sequential(g),
                    config::OrderKind::CorenessDegree if cfg.kcore_floor => {
                        kcore_with_floor(g, omega_degree as u32)
                    }
                    config::OrderKind::CorenessDegree => kcore_sequential(g),
                };
                kc_owned.view()
            }
        };
        phases.kcore = t.elapsed();

        // 3. Vertex order (line 5): (coreness, degree) counting sort, or
        //    the peeling order itself (paper §IV-F: sequential solvers get
        //    it for free, and it bounds right-neighbourhoods by coreness).
        mark(Phase::Reorder);
        let t = Instant::now();
        let order = match cfg.order {
            config::OrderKind::CorenessDegree => coreness_degree_order(g, kc.coreness),
            config::OrderKind::Peeling => VertexOrder::from_listing(kc.peel_order.to_vec()),
        };
        let levels = level_ranges(&order, kc.coreness, kc.degeneracy);
        phases.reorder = t.elapsed();

        // 4. Lazy graph + pre-population of the must subgraph (line 6).
        mark(Phase::Prepopulate);
        let t = Instant::now();
        let lg = LazyGraph::new(g, &order, kc.coreness, inc.size_cell());
        lg.prepopulate(cfg.prepopulate, omega_degree);
        phases.prepopulate = t.elapsed();

        // 5. Coreness-based heuristic search (line 7).
        mark(Phase::CorenessHeuristic);
        let t = Instant::now();
        heuristic::coreness_heuristic(&lg, &levels, cfg, &inc);
        phases.coreness_heuristic = t.elapsed();
        let omega_coreness = inc.size();

        // 6. Systematic search (line 8).
        mark(Phase::Systematic);
        let t = Instant::now();
        systematic::systematic_search_on(
            &lg,
            &levels,
            kc.degeneracy,
            cfg,
            &inc,
            counters,
            deadline,
            sched,
        );
        phases.systematic = t.elapsed();

        let mut snapshot = metrics::snapshot_counters(counters);
        snapshot.phases = phases;
        snapshot.omega_degree_heuristic = omega_degree;
        snapshot.omega_coreness_heuristic = omega_coreness;
        snapshot.degeneracy = kc.degeneracy;
        snapshot.n = g.num_vertices();
        snapshot.m = g.num_edges();
        snapshot.lazy_built = lg.built_counts();

        // The last check before the answer leaves the solver, in every
        // build: ω(ω−1)/2 adjacency probes, next to a whole solve.
        let clique = inc.clique();
        assert!(
            g.is_clique(&clique),
            "solver answer is not a clique: ω = {}, n = {}",
            clique.len(),
            g.num_vertices()
        );
        SolveResult {
            clique,
            exact: !deadline.truncated(),
            metrics: snapshot,
        }
    }
}

/// Convenience: solve with the default configuration.
pub fn solve(g: &dyn GraphAccess) -> SolveResult {
    LazyMc::default().solve(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazymc_graph::{gen, CsrGraph};

    #[test]
    fn solves_known_graphs() {
        let cases: Vec<(CsrGraph, usize)> = vec![
            (gen::complete(10), 10),
            (gen::path(20), 2),
            (gen::cycle(9), 2),
            (gen::star(15), 2),
            (gen::triangulated_grid(8, 6), 4),
            (gen::caveman(6, 5, 0.0, 1), 5),
            (CsrGraph::empty(5), 1),
            (CsrGraph::empty(0), 0),
        ];
        for (g, omega) in cases {
            let r = solve(&g);
            assert_eq!(r.size(), omega, "graph {g:?}");
            assert!(g.is_clique(r.vertices()));
        }
    }

    #[test]
    fn planted_clique_recovered() {
        let g = gen::planted_clique(400, 0.02, 14, 99);
        let r = solve(&g);
        assert_eq!(r.size(), 14);
    }

    #[test]
    fn phases_and_heuristics_recorded() {
        let g = gen::planted_clique(200, 0.04, 10, 3);
        let r = solve(&g);
        assert!(r.metrics.omega_degree_heuristic >= 1);
        assert!(r.metrics.omega_coreness_heuristic >= r.metrics.omega_degree_heuristic);
        assert_eq!(r.metrics.n, 200);
        assert!(r.metrics.degeneracy >= 9);
    }

    #[test]
    fn all_ablation_configs_agree() {
        let g = gen::planted_clique(150, 0.05, 9, 21);
        let expected = solve(&g).size();
        let configs = vec![
            Config::no_work_avoidance(),
            Config::sequential(),
            Config {
                early_exit: false,
                ..Config::default()
            },
            Config {
                second_exit: false,
                ..Config::default()
            },
            Config {
                prepopulate: PrePopulate::None,
                ..Config::default()
            },
            Config {
                prepopulate: PrePopulate::All,
                ..Config::default()
            },
            Config::default().with_density_threshold(0.0),
            Config::default().with_density_threshold(1.0),
            Config {
                low_core_probes: false,
                ..Config::default()
            },
            Config {
                kcore_floor: false,
                ..Config::default()
            },
            Config {
                top_k: 1,
                ..Config::default()
            },
        ];
        for cfg in configs {
            let r = LazyMc::new(cfg.clone()).solve(&g);
            assert_eq!(r.size(), expected, "config {cfg:?}");
            assert!(g.is_clique(r.vertices()));
        }
    }

    #[test]
    fn extension_configs_agree() {
        let g = gen::planted_clique(200, 0.04, 11, 31);
        let expected = solve(&g).size();
        let configs = vec![
            Config {
                filter_rounds: 1,
                ..Config::default()
            },
            Config {
                filter_rounds: 3,
                ..Config::default()
            },
            Config {
                filter_rounds: 4,
                ..Config::default()
            },
            Config {
                order: OrderKind::Peeling,
                ..Config::default()
            },
            Config {
                subgraph_reduction: true,
                ..Config::default()
            },
            Config {
                order: OrderKind::Peeling,
                subgraph_reduction: true,
                filter_rounds: 1,
                ..Config::default()
            },
        ];
        for cfg in configs {
            let r = LazyMc::new(cfg.clone()).solve(&g);
            assert_eq!(r.size(), expected, "config {cfg:?}");
            assert!(r.is_exact());
            assert!(g.is_clique(r.vertices()));
        }
    }

    #[test]
    fn zero_time_budget_yields_inexact_lower_bound() {
        // A budget that expires immediately: the systematic phase is
        // skipped, the heuristic incumbent is returned, flagged inexact
        // (unless the heuristics happened to prove nothing was skipped).
        let g = gen::dense_overlap(200, 25, 8, 16, 0.1, 7);
        let exact = solve(&g);
        let budgeted = LazyMc::new(Config {
            time_budget: Some(std::time::Duration::ZERO),
            ..Config::default()
        })
        .solve(&g);
        assert!(budgeted.size() <= exact.size());
        assert!(g.is_clique(budgeted.vertices()));
        // the systematic phase was cut short, so the result is not exact
        assert!(!budgeted.is_exact());
    }

    #[test]
    fn generous_time_budget_stays_exact() {
        let g = gen::planted_clique(150, 0.04, 9, 8);
        let r = LazyMc::new(Config {
            time_budget: Some(std::time::Duration::from_secs(600)),
            ..Config::default()
        })
        .solve(&g);
        assert!(r.is_exact());
        assert_eq!(r.size(), 9);
    }

    #[test]
    fn prepared_solve_matches_plain_solve() {
        let g = gen::dense_overlap(200, 25, 8, 16, 0.1, 5);
        let expected = solve(&g);
        let kc = kcore_sequential(&g);
        for cfg in [
            Config::default(),
            Config {
                order: OrderKind::Peeling,
                ..Config::default()
            },
        ] {
            let solver = LazyMc::new(cfg.clone());
            let deadline = Deadline::none();
            let r = solver.solve_prepared(&g, Some(kc.view()), &deadline, None);
            assert_eq!(r.size(), expected.size(), "config {cfg:?}");
            assert!(r.is_exact());
            assert!(g.is_clique(r.vertices()));
            // The shared decomposition makes the per-solve phase ~free.
            assert_eq!(r.metrics.degeneracy, kc.degeneracy);
        }
    }

    #[test]
    fn prepared_solve_honours_external_deadline() {
        let g = gen::dense_overlap(200, 25, 8, 16, 0.1, 7);
        let kc = kcore_sequential(&g);
        // A deadline that expired before the solve even started (job sat in
        // a queue past its budget): the result is a sound lower bound
        // flagged inexact.
        let deadline = Deadline::starting_now(Some(std::time::Duration::ZERO));
        let r = LazyMc::default().solve_prepared(&g, Some(kc.view()), &deadline, None);
        assert!(!r.is_exact());
        assert!(g.is_clique(r.vertices()));
    }

    #[test]
    fn observed_solve_publishes_progress_and_matches_plain() {
        let g = gen::planted_clique(200, 0.04, 10, 3);
        let progress = SolveProgress::new();
        let deadline = Deadline::none();
        let r = LazyMc::default().solve_prepared(&g, None, &deadline, Some(&progress));
        assert_eq!(r.size(), 10);
        assert_eq!(progress.phase(), Phase::Done);
        // The incumbent cell and the counters are the solve's own.
        assert_eq!(progress.incumbent_size(), r.size());
        let live = progress.counters_snapshot();
        assert_eq!(live.mc_nodes, r.metrics.mc_nodes);
        assert_eq!(live.retained_coreness, r.metrics.retained_coreness);
    }

    #[test]
    fn sched_solve_matches_plain_solve() {
        let g = gen::dense_overlap(150, 20, 8, 16, 0.1, 12);
        let expected = LazyMc::new(Config::sequential()).solve(&g).size();
        let pool = SchedPool::new(3);
        for t in [2, 4] {
            let deadline = Deadline::none();
            let r = LazyMc::new(Config::default().with_threads(t)).solve_prepared_on(
                &g,
                None,
                &deadline,
                None,
                &pool.handle(),
                TaskMeta::adhoc(),
            );
            assert_eq!(r.size(), expected, "sched width {t}");
            assert!(r.is_exact());
            assert!(g.is_clique(r.vertices()));
        }
    }

    #[test]
    fn sched_solve_at_width_one_is_bit_identical_to_sequential() {
        // threads = 1 on the pool must not merely agree on ω — it must run
        // the very same deterministic kernels: identical node counts.
        let g = gen::gnp(90, 0.5, 13);
        let seq = LazyMc::new(Config::sequential()).solve(&g);
        let pool = SchedPool::new(2);
        let deadline = Deadline::none();
        let r = LazyMc::new(Config::sequential()).solve_prepared_on(
            &g,
            None,
            &deadline,
            None,
            &pool.handle(),
            TaskMeta::adhoc(),
        );
        assert_eq!(r.size(), seq.size());
        assert_eq!(r.metrics.mc_nodes, seq.metrics.mc_nodes);
        assert_eq!(r.metrics.vc_nodes, seq.metrics.vc_nodes);
        assert_eq!(r.metrics.split_tasks, 0);
        assert_eq!(r.metrics.steals, 0);
    }

    #[test]
    fn sched_solve_observed_aggregates_stolen_subtree_nodes() {
        // GET /jobs/<id> live progress must count nodes from *every*
        // worker executing the job's stolen subtrees: the progress cell's
        // counters are the solve's own, so the final live total equals the
        // result's total even though pool workers did part of the work.
        let g = gen::gnp(100, 0.6, 21);
        let pool = SchedPool::new(3);
        let progress = SolveProgress::new();
        let deadline = Deadline::none();
        let r = LazyMc::new(Config::default().with_threads(4)).solve_prepared_on(
            &g,
            None,
            &deadline,
            Some(&progress),
            &pool.handle(),
            TaskMeta::adhoc(),
        );
        assert!(r.metrics.split_tasks > 0, "must exercise stolen subtrees");
        assert_eq!(
            progress.nodes_expanded(),
            r.metrics.mc_nodes + r.metrics.vc_nodes,
            "live progress must aggregate node counts across all workers"
        );
        assert_eq!(progress.incumbent_size(), r.size());
    }

    #[test]
    fn thread_counts_agree() {
        let g = gen::dense_overlap(150, 20, 8, 16, 0.1, 12);
        let expected = LazyMc::new(Config::sequential()).solve(&g).size();
        for t in [2, 4] {
            let r = LazyMc::new(Config::default().with_threads(t)).solve(&g);
            assert_eq!(r.size(), expected, "threads {t}");
        }
    }
}
