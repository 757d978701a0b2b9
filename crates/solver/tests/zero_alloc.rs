//! Proof that the solver hot paths are allocation-free after warm-up.
//!
//! A counting `GlobalAlloc` (installed only in this test binary) tallies
//! allocations per thread; the tests warm a scratch arena on a fixed dense
//! subgraph, then re-run the identical search and assert the steady-state
//! run performed **zero** heap allocations — the contract the `McScratch` /
//! `VcSolveScratch` arenas and the `ColorScratch` word loops exist to keep.
//!
//! Counters are thread-local so concurrently running tests cannot pollute
//! each other's tallies.

use lazymc_solver::{
    max_clique_dense_scratch, max_clique_dense_subtree, max_clique_via_vc_scratch,
    min_vertex_cover, reduce_candidates, vertex_cover_decision_abortable, Bitset, ColorScratch,
    LiveNodes, McScratch, SearchAbort, SharedBest, VcScratch, VcSolveScratch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;
use common::pseudo_graph as dense_graph;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct ThreadCountingAlloc;

// SAFETY: delegates to `System`; bookkeeping is a const-initialized
// thread-local `Cell` (no allocation on access), read via `try_with` so
// accesses during TLS teardown degrade to "not counted" instead of
// aborting.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

/// The kernels' live-progress sink, unobserved here.
const NONE: LiveNodes<'static> = LiveNodes::NONE;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[test]
fn dense_mc_search_is_allocation_free_after_warmup() {
    let adj = dense_graph(120, 550, 42);
    let within = Bitset::full(adj.len());
    let mut scratch = McScratch::new();
    let mut out = Vec::new();

    // Warm-up: grows every per-depth buffer to this instance's size.
    let found_warm = max_clique_dense_scratch(&adj, &within, 0, None, &mut scratch, &mut out, NONE);
    assert!(found_warm);
    let omega = out.len();
    assert!(omega >= 3, "graph must be non-trivial, got omega {omega}");

    // Steady state: the identical search must not touch the heap.
    let before = thread_allocs();
    let found = max_clique_dense_scratch(&adj, &within, 0, None, &mut scratch, &mut out, NONE);
    let allocs = thread_allocs() - before;
    assert!(found);
    assert_eq!(out.len(), omega);
    assert_eq!(
        allocs, 0,
        "dense MC search allocated {allocs} times after warm-up"
    );
}

#[test]
fn color_order_is_allocation_free_after_warmup() {
    let adj = dense_graph(130, 600, 7);
    let cand = Bitset::full(adj.len());
    let mut scratch = ColorScratch::new();
    let (mut order, mut bound) = (Vec::new(), Vec::new());

    lazymc_solver::color_order_scratch(&adj, &cand, &mut order, &mut bound, &mut scratch);
    let colors_warm = *bound.last().unwrap();

    let before = thread_allocs();
    lazymc_solver::color_order_scratch(&adj, &cand, &mut order, &mut bound, &mut scratch);
    let allocs = thread_allocs() - before;
    assert_eq!(*bound.last().unwrap(), colors_warm);
    assert_eq!(
        allocs, 0,
        "color_order allocated {allocs} times after warm-up"
    );
}

#[test]
fn clique_via_vc_pipeline_is_allocation_free_after_warmup() {
    // Dense enough that the complement (where the VC search runs) is
    // sparse — the pipeline the systematic search uses for dense
    // neighbourhoods, complement construction included.
    let adj = dense_graph(100, 820, 99);
    let mut scratch = VcSolveScratch::new();
    let mut out = Vec::new();

    assert!(max_clique_via_vc_scratch(
        &adj,
        0,
        None,
        &mut scratch,
        &mut out,
        NONE
    ));
    let omega = out.len();

    let before = thread_allocs();
    assert!(max_clique_via_vc_scratch(
        &adj,
        0,
        None,
        &mut scratch,
        &mut out,
        NONE
    ));
    let allocs = thread_allocs() - before;
    assert_eq!(out.len(), omega);
    assert_eq!(
        allocs, 0,
        "clique-via-VC pipeline allocated {allocs} times after warm-up"
    );
}

#[test]
fn parallel_mc_worker_is_allocation_free_after_warmup() {
    // The body of a parallel MC worker is `max_clique_dense_subtree`: a
    // branch-prefix task run against a shared incumbent. After one warm-up
    // run, a worker's steady state — node expansions, bound refreshes from
    // the shared atomic, *and* incumbent publications (the witness buffer
    // is pre-reserved, as the split driver does) — must not touch the
    // heap.
    let adj = dense_graph(120, 550, 42);
    let cand = Bitset::full(adj.len());
    let mut scratch = McScratch::new();

    // Warm-up: grows the arena and establishes ω in a first incumbent.
    let warm = SharedBest::with_floor(0);
    warm.reserve(adj.len());
    max_clique_dense_subtree(&adj, &cand, &[], &warm, None, &mut scratch, NONE);
    let omega = warm.size();
    assert!(omega >= 3, "graph must be non-trivial, got omega {omega}");

    // Steady state 1: a fresh shared incumbent (pre-reserved) makes the
    // worker re-find and re-publish every improvement — still zero allocs.
    let shared = SharedBest::with_floor(0);
    shared.reserve(adj.len());
    let before = thread_allocs();
    max_clique_dense_subtree(&adj, &cand, &[], &shared, None, &mut scratch, NONE);
    let allocs = thread_allocs() - before;
    assert_eq!(shared.size(), omega);
    assert!(
        shared.broadcasts() > 0,
        "improvements must have been published"
    );
    assert_eq!(
        allocs, 0,
        "parallel MC worker allocated {allocs} times after warm-up"
    );

    // Steady state 2: a saturated incumbent (everything prunes) — the
    // prune-heavy regime a worker spends most of its life in.
    let before = thread_allocs();
    max_clique_dense_subtree(&adj, &cand, &[], &shared, None, &mut scratch, NONE);
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "pruned MC worker allocated {allocs} times after warm-up"
    );
}

#[test]
fn parallel_vc_worker_is_allocation_free_after_warmup() {
    // The body of a parallel k-VC decision worker is
    // `vertex_cover_decision_abortable`; with a warm arena, polling the
    // abort flag and the full kernelize/branch/path-cycle machinery must
    // not allocate.
    let adj = dense_graph(90, 250, 17);
    let alive = Bitset::full(adj.len());
    let mvc = min_vertex_cover(&adj, None).len();
    let abort = SearchAbort::new();
    let mut scratch = VcScratch::new();
    let mut cover = Vec::new();

    // Warm-up at the optimum (success path) and one below (failure path).
    assert!(vertex_cover_decision_abortable(
        &adj,
        &alive,
        mvc,
        &abort,
        None,
        &mut scratch,
        &mut cover,
        NONE
    ));
    assert!(!vertex_cover_decision_abortable(
        &adj,
        &alive,
        mvc - 1,
        &abort,
        None,
        &mut scratch,
        &mut cover,
        NONE
    ));

    let before = thread_allocs();
    assert!(vertex_cover_decision_abortable(
        &adj,
        &alive,
        mvc,
        &abort,
        None,
        &mut scratch,
        &mut cover,
        NONE
    ));
    assert!(!vertex_cover_decision_abortable(
        &adj,
        &alive,
        mvc - 1,
        &abort,
        None,
        &mut scratch,
        &mut cover,
        NONE
    ));
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "parallel k-VC worker allocated {allocs} times after warm-up"
    );
}

#[test]
fn sched_task_body_is_allocation_free_after_warmup() {
    // A scheduler unit body runs a subtree through the same thread-local
    // worker arenas (`MC_WORKER` / `VC_WORKER`) that the width-1 driver
    // path uses — so driving the sched entry points at width 1 on this
    // thread exercises exactly the steady-state body: pooled task
    // buffers, arena take/put-back, shared-incumbent reads. After one
    // warm-up, none of it may touch the heap.
    use lazymc_sched::TaskMeta;
    use lazymc_solver::{max_clique_dense_sched, vertex_cover_decision_sched};

    let pool = lazymc_sched::Pool::new(2);
    let handle = pool.handle();
    let adj = dense_graph(120, 550, 42);
    let within = Bitset::full(adj.len());
    let mut out = Vec::new();

    // Warm-up grows the thread-local worker arena.
    assert!(max_clique_dense_sched(
        &adj,
        &within,
        0,
        &handle,
        TaskMeta::adhoc(),
        1,
        None,
        None,
        &mut out,
        NONE,
    ));
    let omega = out.len();

    let before = thread_allocs();
    assert!(max_clique_dense_sched(
        &adj,
        &within,
        0,
        &handle,
        TaskMeta::adhoc(),
        1,
        None,
        None,
        &mut out,
        NONE,
    ));
    let allocs = thread_allocs() - before;
    assert_eq!(out.len(), omega);
    assert_eq!(
        allocs, 0,
        "sched MC task body allocated {allocs} times after warm-up"
    );

    // Same for the k-VC decision body.
    let sparse = dense_graph(90, 250, 17);
    let alive = Bitset::full(sparse.len());
    let mvc = min_vertex_cover(&sparse, None).len();
    let mut cover = Vec::new();
    let d = vertex_cover_decision_sched(
        &sparse,
        &alive,
        mvc,
        &handle,
        TaskMeta::adhoc(),
        1,
        None,
        None,
        &mut cover,
        NONE,
    );
    assert!(d.found);

    let before = thread_allocs();
    let d = vertex_cover_decision_sched(
        &sparse,
        &alive,
        mvc,
        &handle,
        TaskMeta::adhoc(),
        1,
        None,
        None,
        &mut cover,
        NONE,
    );
    let allocs = thread_allocs() - before;
    assert!(d.found);
    assert_eq!(
        allocs, 0,
        "sched k-VC task body allocated {allocs} times after warm-up"
    );
}

#[test]
fn reduce_candidates_is_allocation_free() {
    let adj = dense_graph(110, 300, 17);
    let mut within = Bitset::full(adj.len());
    let before = thread_allocs();
    let removed = reduce_candidates(&adj, &mut within, 34);
    let allocs = thread_allocs() - before;
    assert!(removed > 0, "lb 34 must strip something from a p=0.3 graph");
    assert_eq!(
        allocs, 0,
        "reduce_candidates allocated {allocs} times (it never should)"
    );
}
