//! Subgraph solvers for LazyMC (paper §IV-E, "algorithmic choice").
//!
//! Once advance filtering has reduced a right-neighbourhood to its zone of
//! interest, the residual problem is solved on a *small, dense* induced
//! subgraph by one of two exact engines:
//!
//! * [`mc::max_clique_dense`] — Bron–Kerbosch-derived branch-and-bound with
//!   Tomita-style color-order branching and greedy-coloring bounds;
//! * [`vc::max_clique_via_vc`] — k-vertex-cover search on the complement
//!   (Buss kernel, degree-0/1/2 kernelization, polynomial path/cycle tail),
//!   with a per-neighbourhood binary search for the exact optimum.
//!
//! Both operate on [`bitset::BitMatrix`] adjacency, the word-parallel dense
//! representation appropriate for subgraphs whose density routinely exceeds
//! 50% (paper §III-D). The same engines back the dOmega-like baseline.
//!
//! Each engine has one entry point per driver, and each takes a
//! [`LiveNodes`] sink for mid-search progress:
//!
//! * `_scratch` — the deterministic sequential kernel on a caller-owned
//!   arena (allocation-free once warm);
//! * `_sched` — the same search with its top branch levels split into
//!   subtree tasks on a [`lazymc_sched`] pool, sharing one incumbent
//!   ([`SharedBest`]) or abort flag ([`SearchAbort`]). The solver spawns
//!   no threads of its own, and width 1 is the scratch kernel.
//!
//! ```
//! use lazymc_solver::{BitMatrix, max_clique_exact, max_clique_via_vc};
//!
//! // A triangle with a pendant vertex.
//! let mut adj = BitMatrix::new(4);
//! for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
//!     adj.add_edge(u, v);
//! }
//! let direct = max_clique_exact(&adj);
//! assert_eq!(direct.len(), 3);
//! // The k-vertex-cover engine agrees (omega = n - minVC(complement)).
//! let via_vc = max_clique_via_vc(&adj, 0, None).unwrap();
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
pub use mc::{
    max_clique_dense, max_clique_dense_sched, max_clique_dense_scratch, max_clique_dense_subtree,
    max_clique_dense_within, max_clique_exact, reduce_candidates, McScratch, McStats,
};
pub use par::{SearchAbort, SharedBest, StopFn};
pub use scratch::Pool;
pub use vc::{
    max_clique_via_vc, max_clique_via_vc_sched, max_clique_via_vc_scratch, min_vertex_cover,
    vertex_cover_decision, vertex_cover_decision_abortable, vertex_cover_decision_sched,
    vertex_cover_decision_scratch, vertex_cover_decision_within, VcSchedDecision, VcScratch,
    VcSolveScratch, VcStats,
};

#[cfg(test)]
pub(crate) mod test_util {
    use crate::bitset::BitMatrix;
    use lazymc_sched::{Pool, SchedHandle};
    use std::sync::OnceLock;

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
