//! Proof that the solver hot paths are allocation-free after warm-up.
//!
//! A counting `GlobalAlloc` (installed only in this test binary) tallies
//! allocations per thread; the tests warm the engines' pooled arenas on a
//! fixed dense subgraph, then re-run the identical search and assert the
//! steady-state run performed **zero** heap allocations — the contract
//! the pooled arenas and the `ColorScratch` word loops exist to keep. The
//! split workers' bodies are held to the same contract by the unit tests
//! of `mc.rs` and `vc.rs`.
//!
//! Counters are thread-local so concurrently running tests cannot pollute
//! each other's tallies, and the tests that draw on the engines' pools
//! hold [`POOLS`], so no test takes an arena another one warmed.

use lazymc_solver::{
    max_clique_dense, max_clique_via_vc, min_vertex_cover, reduce_candidates,
    vertex_cover_decision, Bitset, ColorScratch, Run, Split,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

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

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Held by every test that runs an engine entry: the entries share
/// process-wide arena pools, and a concurrent test could otherwise check
/// out the arena this one warmed.
static POOLS: Mutex<()> = Mutex::new(());

fn hold_pools() -> MutexGuard<'static, ()> {
    POOLS.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn dense_mc_search_is_allocation_free_after_warmup() {
    let _pools = hold_pools();
    let adj = dense_graph(120, 550, 42);
    let within = Bitset::full(adj.len());
    let mut out = Vec::new();

    // Warm-up: grows every per-depth buffer to this instance's size.
    let found_warm = max_clique_dense(&adj, &within, 0, Run::default(), None, &mut out);
    assert!(found_warm);
    let omega = out.len();
    assert!(omega >= 3, "graph must be non-trivial, got omega {omega}");

    // Steady state: the identical search must not touch the heap.
    let before = thread_allocs();
    let found = max_clique_dense(&adj, &within, 0, Run::default(), None, &mut out);
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
    let _pools = hold_pools();
    let adj = dense_graph(100, 820, 99);
    let mut out = Vec::new();

    assert!(max_clique_via_vc(&adj, 0, Run::default(), None, &mut out));
    let omega = out.len();

    let before = thread_allocs();
    assert!(max_clique_via_vc(&adj, 0, Run::default(), None, &mut out));
    let allocs = thread_allocs() - before;
    assert_eq!(out.len(), omega);
    assert_eq!(
        allocs, 0,
        "clique-via-VC pipeline allocated {allocs} times after warm-up"
    );
}

#[test]
fn width_one_binding_is_allocation_free_after_warmup() {
    // An entry bound to a pool at width 1 runs the same pooled sequential
    // kernel as an unbound one and never touches the scheduler: after one
    // warm-up, neither the MC search nor a k-VC decision (success and
    // failure path) may touch the heap.
    let _pools = hold_pools();
    let pool = lazymc_sched::Pool::new(2);
    let handle = pool.handle();
    let run = Run {
        split: Some(Split {
            sched: &handle,
            meta: lazymc_sched::TaskMeta::adhoc(),
            width: 1,
        }),
        ..Run::default()
    };
    let adj = dense_graph(120, 550, 42);
    let within = Bitset::full(adj.len());
    let mut out = Vec::new();

    // Warm-up grows the pooled worker arena.
    assert!(max_clique_dense(&adj, &within, 0, run, None, &mut out));
    let omega = out.len();

    let before = thread_allocs();
    assert!(max_clique_dense(&adj, &within, 0, run, None, &mut out));
    let allocs = thread_allocs() - before;
    assert_eq!(out.len(), omega);
    assert_eq!(
        allocs, 0,
        "width-1 MC search allocated {allocs} times after warm-up"
    );

    // Same for the k-VC decision.
    let sparse = dense_graph(90, 250, 17);
    let alive = Bitset::full(sparse.len());
    let mvc = min_vertex_cover(&sparse, None).len();
    let mut cover = Vec::new();
    let mut both = || {
        assert!(vertex_cover_decision(&sparse, &alive, mvc, run, None, &mut cover).found);
        assert!(!vertex_cover_decision(&sparse, &alive, mvc - 1, run, None, &mut cover).found);
    };
    both();

    let before = thread_allocs();
    both();
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "width-1 k-VC decision allocated {allocs} times after warm-up"
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
