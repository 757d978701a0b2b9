//! The parallel drivers against the sequential kernels: MC, clique-via-VC
//! and k-VC decision solves whose subtree tasks run on the machine-wide
//! work-stealing pool must agree with the sequential kernels on ω (and
//! produce genuine witnesses) under random steal interleavings — the
//! pool's workers race the calling thread for every arena slot, so each
//! proptest case is a fresh interleaving.
//!
//! Set `LAZYMC_TEST_THREADS=<n>` to pin the solve width (CI runs the
//! suite once with 4); unset, every test sweeps widths 2, 4 and 8. The
//! pool itself is one shared 4-worker instance for the whole binary —
//! exactly the deployment shape (many solves, one pool).

use lazymc_sched::{Pool, SchedHandle, TaskMeta};
use lazymc_solver::{
    max_clique_dense_sched, max_clique_dense_scratch, max_clique_exact, max_clique_via_vc_sched,
    max_clique_via_vc_scratch, min_vertex_cover, vc::is_vertex_cover, vertex_cover_decision_sched,
    Bitset, LiveNodes, McScratch, McStats, VcSolveScratch,
};
use proptest::prelude::*;
use std::sync::OnceLock;

mod common;
use common::pseudo_graph;

/// The binary-wide scheduler pool. Never shut down: it lives in a static,
/// and the workers park when idle.
fn sched() -> SchedHandle {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(4)).handle()
}

/// Solve widths to exercise: the `LAZYMC_TEST_THREADS` override, or the
/// standard {2, 4, 8} sweep.
fn test_widths() -> Vec<usize> {
    match std::env::var("LAZYMC_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("LAZYMC_TEST_THREADS must be a positive integer")],
        Err(_) => vec![2, 4, 8],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sched_mc_agrees_with_sequential(
        n in 4usize..80,
        p in 0u64..1000,
        seed in 0u64..10_000,
    ) {
        let m = pseudo_graph(n, p, seed);
        let omega = max_clique_exact(&m).len();
        let handle = sched();
        for width in test_widths() {
            let mut out = Vec::new();
            let found = max_clique_dense_sched(
                &m, &Bitset::full(n), 0, &handle, TaskMeta::adhoc(), width, None, None, &mut out,
                LiveNodes::NONE,
            );
            prop_assert!(found, "n={n} p={p} width={width}");
            prop_assert_eq!(out.len(), omega, "n={} p={} seed={}", n, p, seed);
            prop_assert!(m.is_clique(&out), "witness must be a clique");
            // The lower bound suppresses exactly at ω.
            prop_assert!(!max_clique_dense_sched(
                &m, &Bitset::full(n), omega, &handle, TaskMeta::adhoc(), width, None, None,
                &mut out, LiveNodes::NONE,
            ));
            prop_assert!(out.is_empty());
        }
    }

    #[test]
    fn sched_clique_via_vc_agrees_with_sequential(
        n in 4usize..60,
        p in 400u64..1000,
        seed in 0u64..10_000,
    ) {
        let m = pseudo_graph(n, p, seed);
        let omega = max_clique_exact(&m).len();
        let handle = sched();
        for width in test_widths() {
            let mut scratch = VcSolveScratch::new();
            let mut out = Vec::new();
            prop_assert!(
                max_clique_via_vc_sched(
                    &m, 0, &handle, TaskMeta::adhoc(), width, None, None, &mut scratch,
                    &mut out, LiveNodes::NONE,
                ),
                "n={n} p={p} width={width}"
            );
            prop_assert_eq!(out.len(), omega, "n={} p={} seed={}", n, p, seed);
            prop_assert!(m.is_clique(&out));
            prop_assert!(!max_clique_via_vc_sched(
                &m, omega, &handle, TaskMeta::adhoc(), width, None, None, &mut scratch,
                &mut out, LiveNodes::NONE,
            ));
        }
    }

    #[test]
    fn sched_vc_decision_agrees_with_sequential(
        n in 4usize..60,
        p in 0u64..500,
        seed in 0u64..10_000,
    ) {
        let m = pseudo_graph(n, p, seed);
        let alive = Bitset::full(n);
        let mvc = min_vertex_cover(&m, None).len();
        let handle = sched();
        for width in test_widths() {
            let mut out = Vec::new();
            // At the optimum: success with a genuine cover.
            let d = vertex_cover_decision_sched(
                &m, &alive, mvc, &handle, TaskMeta::adhoc(), width, None, None, &mut out,
                LiveNodes::NONE,
            );
            prop_assert!(d.found, "n={n} p={p} width={width} k={mvc}");
            prop_assert!(!d.stopped);
            prop_assert!(out.len() <= mvc);
            prop_assert!(is_vertex_cover(&m, &alive, &out));
            // One below: a unanimous, authoritative no.
            if mvc > 0 {
                let d = vertex_cover_decision_sched(
                    &m, &alive, mvc - 1, &handle, TaskMeta::adhoc(), width, None, None, &mut out,
                    LiveNodes::NONE,
                );
                prop_assert!(!d.found && !d.stopped);
                prop_assert!(out.is_empty());
            }
        }
    }
}

/// Width 1 must never touch the scheduler: the driver falls through to
/// the thread-local sequential kernel, bit-identical to a direct scratch
/// call — same node count, same witness, zero split tasks.
#[test]
fn width_one_is_bit_identical_to_the_sequential_kernel() {
    let m = pseudo_graph(90, 550, 13);
    let within = Bitset::full(m.len());
    let handle = sched();

    let mut seq_stats = McStats::default();
    let mut seq_out = Vec::new();
    let mut scratch = McScratch::new();
    assert!(max_clique_dense_scratch(
        &m,
        &within,
        0,
        Some(&mut seq_stats),
        &mut scratch,
        &mut seq_out,
        LiveNodes::NONE,
    ));

    let mut one_stats = McStats::default();
    let mut one_out = Vec::new();
    assert!(max_clique_dense_sched(
        &m,
        &within,
        0,
        &handle,
        TaskMeta::adhoc(),
        1,
        None,
        Some(&mut one_stats),
        &mut one_out,
        LiveNodes::NONE,
    ));
    assert_eq!(one_out, seq_out, "width-1 witness must match exactly");
    assert_eq!(one_stats.nodes, seq_stats.nodes, "node-for-node identical");
    assert_eq!(one_stats.split_tasks, 0);
    assert_eq!(one_stats.steals, 0);

    // Same for the via-VC engine.
    let mut vc_scratch = VcSolveScratch::new();
    let mut vc_seq = Vec::new();
    assert!(max_clique_via_vc_scratch(
        &m,
        0,
        None,
        &mut vc_scratch,
        &mut vc_seq,
        LiveNodes::NONE,
    ));
    let mut vc_one = Vec::new();
    assert!(max_clique_via_vc_sched(
        &m,
        0,
        &handle,
        TaskMeta::adhoc(),
        1,
        None,
        None,
        &mut vc_scratch,
        &mut vc_one,
        LiveNodes::NONE,
    ));
    assert_eq!(vc_one.len(), vc_seq.len());
    assert!(m.is_clique(&vc_one));
}
