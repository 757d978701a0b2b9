//! Split engine calls against the sequential kernels: MC, clique-via-VC
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
    max_clique_dense, max_clique_via_vc, min_vertex_cover, vc::is_vertex_cover,
    vertex_cover_decision, BitMatrix, Bitset, McStats, Run, Split, VcStats,
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

/// A run bound to `handle` at `width`.
fn split(handle: &SchedHandle, width: usize) -> Run<'_> {
    Run {
        split: Some(Split {
            sched: handle,
            meta: TaskMeta::adhoc(),
            width,
        }),
        ..Run::default()
    }
}

/// ω by the sequential MC engine.
fn omega_of(m: &BitMatrix) -> usize {
    let mut out = Vec::new();
    max_clique_dense(m, &Bitset::full(m.len()), 0, Run::default(), None, &mut out);
    out.len()
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
        let omega = omega_of(&m);
        let handle = sched();
        let within = Bitset::full(n);
        for width in test_widths() {
            let run = split(&handle, width);
            let mut out = Vec::new();
            let found = max_clique_dense(&m, &within, 0, run, None, &mut out);
            prop_assert!(found, "n={n} p={p} width={width}");
            prop_assert_eq!(out.len(), omega, "n={} p={} seed={}", n, p, seed);
            prop_assert!(m.is_clique(&out), "witness must be a clique");
            // The lower bound suppresses exactly at ω.
            prop_assert!(!max_clique_dense(&m, &within, omega, run, None, &mut out));
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
        let omega = omega_of(&m);
        let handle = sched();
        for width in test_widths() {
            let run = split(&handle, width);
            let mut out = Vec::new();
            prop_assert!(
                max_clique_via_vc(&m, 0, run, None, &mut out),
                "n={n} p={p} width={width}"
            );
            prop_assert_eq!(out.len(), omega, "n={} p={} seed={}", n, p, seed);
            prop_assert!(m.is_clique(&out));
            prop_assert!(!max_clique_via_vc(&m, omega, run, None, &mut out));
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
            let run = split(&handle, width);
            let mut out = Vec::new();
            // At the optimum: success with a genuine cover.
            let d = vertex_cover_decision(&m, &alive, mvc, run, None, &mut out);
            prop_assert!(d.found, "n={n} p={p} width={width} k={mvc}");
            prop_assert!(!d.stopped);
            prop_assert!(out.len() <= mvc);
            prop_assert!(is_vertex_cover(&m, &alive, &out));
            // One below: a unanimous, authoritative no.
            if mvc > 0 {
                let d = vertex_cover_decision(&m, &alive, mvc - 1, run, None, &mut out);
                prop_assert!(!d.found && !d.stopped);
                prop_assert!(out.is_empty());
            }
        }
    }
}

/// Width 1 must never touch the scheduler: each entry bound at width 1
/// runs the same sequential kernel as an entry with no binding — same
/// witness, same node count, zero split tasks — for all three engines.
#[test]
fn width_one_is_bit_identical_to_the_sequential_kernel() {
    let m = pseudo_graph(90, 550, 13);
    let within = Bitset::full(m.len());
    let handle = sched();
    let one = split(&handle, 1);

    let mut seq_stats = McStats::default();
    let mut seq_out = Vec::new();
    assert!(max_clique_dense(
        &m,
        &within,
        0,
        Run::default(),
        Some(&mut seq_stats),
        &mut seq_out
    ));
    let mut one_stats = McStats::default();
    let mut one_out = Vec::new();
    assert!(max_clique_dense(
        &m,
        &within,
        0,
        one,
        Some(&mut one_stats),
        &mut one_out
    ));
    assert_eq!(one_out, seq_out, "width-1 witness must match exactly");
    assert_eq!(one_stats, seq_stats, "node-for-node identical");
    assert_eq!(one_stats.split_tasks, 0);
    assert_eq!(one_stats.steals, 0);

    // The clique-via-VC pipeline on the same (dense) matrix.
    let mut vc_seq_stats = VcStats::default();
    let mut vc_seq = Vec::new();
    assert!(max_clique_via_vc(
        &m,
        0,
        Run::default(),
        Some(&mut vc_seq_stats),
        &mut vc_seq
    ));
    let mut vc_one_stats = VcStats::default();
    let mut vc_one = Vec::new();
    assert!(max_clique_via_vc(
        &m,
        0,
        one,
        Some(&mut vc_one_stats),
        &mut vc_one
    ));
    assert_eq!(vc_one, vc_seq, "width-1 witness must match exactly");
    assert_eq!(vc_one_stats, vc_seq_stats, "node-for-node identical");
    assert!(vc_seq_stats.nodes > 0);
    assert_eq!(vc_one_stats.split_tasks, 0);

    // One k-VC decision at the optimum of a sparser matrix.
    let sparse = pseudo_graph(60, 200, 3);
    let alive = Bitset::full(sparse.len());
    let mvc = min_vertex_cover(&sparse, None).len();
    let mut d_seq_stats = VcStats::default();
    let mut d_seq = Vec::new();
    let d = vertex_cover_decision(
        &sparse,
        &alive,
        mvc,
        Run::default(),
        Some(&mut d_seq_stats),
        &mut d_seq,
    );
    assert!(d.found && !d.stopped);
    let mut d_one_stats = VcStats::default();
    let mut d_one = Vec::new();
    let d = vertex_cover_decision(
        &sparse,
        &alive,
        mvc,
        one,
        Some(&mut d_one_stats),
        &mut d_one,
    );
    assert!(d.found && !d.stopped);
    assert_eq!(d_one, d_seq, "width-1 cover must match exactly");
    assert_eq!(d_one_stats, d_seq_stats, "node-for-node identical");
    assert_eq!(d_one_stats.split_tasks, 0);
}
