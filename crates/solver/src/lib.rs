//! Subgraph solvers for LazyMC (paper §IV-E, "algorithmic choice").
//!
//! Once advance filtering has reduced a right-neighbourhood to its zone of
//! interest, the residual problem is solved on a *small, dense* induced
//! subgraph by one of two exact engines:
//!
//! * [`max_clique_dense`] — Bron–Kerbosch-derived branch-and-bound with
//!   Tomita-style color-order branching and greedy-coloring bounds;
//! * [`max_clique_via_vc`] — k-vertex-cover search on the complement
//!   (Buss kernel, degree-0/1/2 kernelization, polynomial path/cycle tail),
//!   with a per-neighbourhood binary search over [`vertex_cover_decision`]
//!   for the exact optimum.
//!
//! Both operate on [`bitset::BitMatrix`] adjacency, the word-parallel dense
//! representation appropriate for subgraphs whose density routinely exceeds
//! 50% (paper §III-D). The same engines back the dOmega-like baseline.
//!
//! Each engine has one entry, and each entry takes a [`Run`]: a
//! [`LiveNodes`] sink for mid-search progress, a stop hook that every
//! kernel polls every [`live::SAMPLE_INTERVAL`] nodes, and an optional
//! [`Split`] binding to a [`lazymc_sched`] pool. The entry picks
//! its own driver: the deterministic sequential kernel when there is no
//! binding, its width is at most 1, or the input has fewer than 32
//! vertices; otherwise the top branch levels become subtree tasks on the
//! pool, sharing one incumbent ([`SharedBest`]) or abort flag
//! ([`SearchAbort`]). The solver spawns no threads of its own. Every
//! arena lives in the solver's pools, so a warm sequential call
//! allocates nothing.
//!
//! ```
//! use lazymc_solver::{max_clique_dense, max_clique_via_vc, BitMatrix, Bitset, Run};
//!
//! // A triangle with a pendant vertex.
//! let mut adj = BitMatrix::new(4);
//! for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
//!     adj.add_edge(u, v);
//! }
//! let mut direct = Vec::new();
//! assert!(max_clique_dense(&adj, &Bitset::full(4), 0, Run::default(), None, &mut direct));
//! assert_eq!(direct.len(), 3);
//! // The k-vertex-cover engine agrees (omega = n - minVC(complement)).
//! let mut via_vc = Vec::new();
//! assert!(max_clique_via_vc(&adj, 0, Run::default(), None, &mut via_vc));
//! assert_eq!(via_vc.len(), 3);
//! ```

pub mod bitset;
pub mod coloring;
pub mod live;
pub mod mc;
pub mod par;
pub mod scratch;
pub mod vc;

pub use bitset::{BitMatrix, Bitset};
pub use coloring::{color_order, color_order_scratch, greedy_color_count, ColorScratch};
pub use live::LiveNodes;
pub use mc::{max_clique_dense, reduce_candidates, McStats};
pub use par::{Run, SearchAbort, SharedBest, Split, StopFn};
pub use scratch::Pool;
pub use vc::{max_clique_via_vc, min_vertex_cover, vertex_cover_decision, Decision, VcStats};

#[cfg(test)]
pub(crate) mod test_util {
    use crate::bitset::{BitMatrix, Bitset};
    use lazymc_sched::{Pool, SchedHandle};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    thread_local! {
        static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts allocations per thread, so the worker-body tests can prove
    /// a warm arena never touches the heap while other tests run.
    struct ThreadCountingAlloc;

    // SAFETY: delegates to `System`; bookkeeping is a const-initialized
    // thread-local `Cell` (no allocation on access), read via `try_with`
    // so accesses during TLS teardown degrade to "not counted" instead of
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

    /// Allocations made by this thread so far.
    pub(crate) fn thread_allocs() -> u64 {
        THREAD_ALLOCS.with(|c| c.get())
    }

    /// A maximum clique by the sequential MC entry (empty for an empty
    /// matrix) — the reference the in-crate tests compare against.
    pub(crate) fn exact_clique(m: &BitMatrix) -> Vec<u32> {
        let mut out = Vec::new();
        let within = Bitset::full(m.len());
        crate::max_clique_dense(m, &within, 0, crate::Run::default(), None, &mut out);
        out
    }

    /// A stop hook that answers `true` from its `n`-th poll on.
    pub(crate) fn stop_at(n: usize) -> impl Fn() -> bool + Sync {
        let polls = AtomicUsize::new(0);
        move || polls.fetch_add(1, Ordering::Relaxed) + 1 >= n
    }

    /// One 4-worker scheduler pool shared by every in-crate test, as the
    /// deployment shares one pool between solves.
    pub(crate) fn test_pool() -> SchedHandle {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool::new(4)).handle()
    }
    /// Deterministic pseudo-random graph (xorshift64*), densities in
    /// permille — the shared fixture generator of the in-crate tests.
    pub(crate) fn pseudo_graph(n: usize, p_permille: u64, seed: u64) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        let mut state = seed | 1;
        for u in 0..n {
            for v in u + 1..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.wrapping_mul(0x2545_F491_4F6C_DD1D) % 1000 < p_permille {
                    m.add_edge(u, v);
                }
            }
        }
        m
    }
}
