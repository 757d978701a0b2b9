//! Concurrent `LazyMc::solve` callers share one process-wide scheduler
//! pool. Each multi-thread solve used to bring threads of its own; now
//! they all claim work from the same workers, so this checks that
//! concurrent solves stay exact and that a one-thread solve on either
//! side of them never touches the pool.

use lazymc::core::{Config, LazyMc, SolveResult};
use lazymc::graph::{gen, CsrGraph};

/// Three seeded dense graphs whose neighbourhoods reach the search kernels.
fn graphs() -> Vec<CsrGraph> {
    vec![
        gen::gnp(120, 0.5, 3),
        gen::dense_overlap(150, 20, 8, 16, 0.1, 5),
        gen::gnp(120, 0.5, 7),
    ]
}

/// The deterministic one-thread counters of a sequential solve.
fn sequential_counts(r: &SolveResult) -> (u64, u64, u64, u64) {
    let m = &r.metrics;
    (m.mc_nodes, m.vc_nodes, m.split_tasks, m.steals)
}

#[test]
fn concurrent_solves_share_the_pool_and_stay_exact() {
    let probe = gen::gnp(90, 0.5, 13);
    let sequential = LazyMc::new(Config::sequential());
    let before = sequential_counts(&sequential.solve(&probe));
    assert_eq!((before.2, before.3), (0, 0), "one thread never splits");

    let graphs = graphs();
    let omegas: Vec<usize> = graphs.iter().map(|g| sequential.solve(g).size()).collect();

    std::thread::scope(|s| {
        for t in 0..4 {
            let (graphs, omegas) = (&graphs, &omegas);
            s.spawn(move || {
                let solver = LazyMc::new(Config::default().with_threads(2));
                // Rotate the order so the callers overlap on different graphs.
                for i in (0..graphs.len()).map(|i| (i + t) % graphs.len()) {
                    let r = solver.solve(&graphs[i]);
                    assert!(r.is_exact(), "caller {t}, graph {i}: not exact");
                    assert!(graphs[i].is_clique(r.vertices()), "caller {t}, graph {i}");
                    assert_eq!(r.size(), omegas[i], "caller {t}, graph {i}: wrong ω");
                }
            });
        }
    });

    let after = sequential_counts(&sequential.solve(&probe));
    assert_eq!(
        after, before,
        "a one-thread solve after the pool solves must expand the same trees"
    );
}
