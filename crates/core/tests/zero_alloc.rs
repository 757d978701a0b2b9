//! Proof that a neighbourhood search is allocation-free in steady state.
//!
//! `NeighborScratch` promises that once early neighbourhoods have warmed
//! its buffers, every later search runs without touching the heap: the
//! filter lists, the bit path's rows and live sets, the extracted
//! matrices and both subgraph-solver arenas are all reshaped, never
//! reallocated. A counting `GlobalAlloc` (installed only in this test
//! binary, counting per thread) holds it to that: one pass of
//! `neighbor_search` over every vertex warms the scratch and the lazy
//! graph, and a second, identical pass must allocate zero times.

use lazymc_core::metrics::Counters;
use lazymc_core::systematic::{neighbor_search, SearchCtx};
use lazymc_core::{Config, Deadline, Incumbent, JobSched, SchedPool, TaskMeta};
use lazymc_graph::{gen, CsrGraph};
use lazymc_lazygraph::LazyGraph;
use lazymc_order::{coreness_degree_order, kcore_sequential};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::Ordering;

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

/// Searches every right-neighbourhood of `g` twice at one solver thread
/// and returns the second pass's allocation count, with the number of
/// detailed searches the first pass ran.
fn second_pass_allocs(g: &CsrGraph) -> (u64, u64) {
    let kc = kcore_sequential(g);
    let ord = coreness_degree_order(g, &kc.coreness);
    let inc = Incumbent::new();
    let lg = LazyGraph::new(g, &ord, &kc.coreness, inc.size_cell());
    let cfg = Config::default();
    let counters = Counters::default();
    let deadline = Deadline::none();
    // Width 1 never submits to the pool; it only has to exist.
    let pool = SchedPool::new(1);
    let sched = JobSched::new(pool.handle(), TaskMeta::adhoc(), 1);
    let ctx = SearchCtx {
        cfg: &cfg,
        inc: &inc,
        counters: &counters,
        deadline: &deadline,
        solver_threads: 1,
        sched: &sched,
    };
    let pass = || {
        for v in 0..g.num_vertices() as u32 {
            neighbor_search(&lg, v, &ctx);
        }
    };
    pass();
    let searched = counters.searched_mc.load(Ordering::Relaxed)
        + counters.searched_kvc.load(Ordering::Relaxed);
    let before = thread_allocs();
    pass();
    let allocs = thread_allocs() - before;
    assert!(g.is_clique(&inc.clique()));
    (allocs, searched)
}

#[test]
fn neighbourhood_searches_are_allocation_free_after_warmup() {
    // One test, so the two graphs never share the scratch pool from two
    // threads at once.
    //
    // Dense G(n, p): filter 1 leaves dozens of candidates with slack to
    // spare, so the cascade runs on bit rows.
    let dense = gen::gnp(160, 0.5, 9);
    let (allocs, searched) = second_pass_allocs(&dense);
    assert!(searched > 0, "the dense pass must reach detailed searches");
    assert_eq!(allocs, 0, "bit-path pass allocated {allocs} times");

    // Caves of six: degree below 8, so no neighbourhood reaches the bit
    // path's candidate floor and every filter round probes.
    let caves = gen::caveman(60, 6, 0.05, 2);
    assert!(caves.max_degree() < 8, "max degree {}", caves.max_degree());
    let (allocs, searched) = second_pass_allocs(&caves);
    assert!(searched > 0, "the sparse pass must reach detailed searches");
    assert_eq!(allocs, 0, "scalar-path pass allocated {allocs} times");
}
