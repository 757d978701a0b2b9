//! # lazymc — work-avoiding parallel maximum clique search
//!
//! This crate is the facade of a full reproduction of
//! *Less is More: Faster Maximum Clique Search by Work-Avoidance*
//! (H. Vandierendonck, IPDPS 2025). It re-exports every workspace crate under
//! one roof so that applications can depend on a single package:
//!
//! ```
//! use lazymc::graph::gen;
//! use lazymc::core::{LazyMc, Config};
//!
//! // A 200-vertex random graph with a planted 12-clique.
//! let g = gen::planted_clique(200, 0.05, 12, 42);
//! let result = LazyMc::new(Config::default()).solve(&g);
//! assert_eq!(result.size(), 12);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | CSR graph storage, builders, IO readers, synthetic generators |
//! | [`hopscotch`] | hopscotch hash set (H = 16, bitmask variant) |
//! | [`intersect`] | early-exit set intersection kernels (paper Algs. 3–4) |
//! | [`order`] | k-core decomposition, peeling orders, counting-sort relabelling |
//! | [`lazygraph`] | the lazy filtered hashed relabelled graph (paper Alg. 2) |
//! | [`solver`] | bitset MC branch-and-bound and k-vertex-cover subgraph solvers |
//! | [`core`] | the LazyMC driver: heuristics, filtering, systematic search |
//! | [`baselines`] | PMC-like, dOmega-like, MC-BRB-like comparators and a naive oracle |
//! | [`mce`] | maximal clique enumeration with early-exit pivot selection |
//! | [`service`] | concurrent clique-query daemon (HTTP/1.1, graph registry, job queue) |

pub use lazymc_baselines as baselines;
pub use lazymc_core as core;
pub use lazymc_graph as graph;
pub use lazymc_hopscotch as hopscotch;
pub use lazymc_intersect as intersect;
pub use lazymc_lazygraph as lazygraph;
pub use lazymc_mce as mce;
pub use lazymc_order as order;
pub use lazymc_service as service;
pub use lazymc_solver as solver;

/// Convenience: solve a graph with default LazyMC settings and return the
/// maximum clique as a vector of vertex ids of the input graph.
pub fn maximum_clique(g: &graph::CsrGraph) -> Vec<u32> {
    lazymc_core::LazyMc::new(lazymc_core::Config::default())
        .solve(g)
        .into_vertices()
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_links_all_crates() {
        // Compile-time smoke check that every re-export resolves.
        let _ = crate::maximum_clique;
    }
}
