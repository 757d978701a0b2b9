//! PMC-like parallel maximum clique solver (Rossi et al. \[6\]).
//!
//! The paper's closest comparator. The structural differences from LazyMC
//! are exactly the paper's contributions, absent here:
//!
//! * the relabelled graph is built **eagerly** for all vertices up front;
//! * neighbourhoods are **unfiltered** — only the size-vs-incumbent test
//!   prunes before a search (no 3-stage advance filtering);
//! * intersections run to completion (sorted merges, no early exits);
//! * every surviving subproblem goes to the coloring-bounded MC search —
//!   no k-vertex-cover algorithmic choice.
//!
//! Shared with PMC proper: degeneracy ordering, a coreness-based greedy
//! heuristic, parallel search over vertices, coloring-based pruning.

use crate::shared::{greedy_from, SharedBest};
use lazymc_graph::{CsrGraph, VertexId};
use lazymc_intersect::intersect_sorted;
use lazymc_order::kcore_sequential;
use lazymc_solver::bitset::{BitMatrix, Bitset};
use lazymc_solver::{max_clique_dense, Run};
use rayon::prelude::*;

/// Runs the PMC-like solver; returns a maximum clique in original ids.
pub fn pmc_like(g: &CsrGraph) -> Vec<VertexId> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let kc = kcore_sequential(g);

    // Eager reordered graph: vertices relabelled by peeling order. This is
    // the up-front cost LazyMC's lazy representation avoids.
    let mut rank = vec![0 as VertexId; n];
    for (i, &v) in kc.peel_order.iter().enumerate() {
        rank[v as usize] = i as VertexId;
    }
    let rg = g.relabel(&rank);
    let core_rel: Vec<u32> = kc
        .peel_order
        .iter()
        .map(|&v| kc.coreness[v as usize])
        .collect();

    let best = SharedBest::new();

    // Heuristic: greedy descent from the vertices of the top coreness
    // levels (PMC primes its incumbent the same way).
    let top: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| kc.coreness[v as usize] == kc.degeneracy)
        .take(16)
        .collect();
    for v in top {
        best.offer(&greedy_from(g, v));
    }

    // Parallel branch-and-bound over right-neighbourhoods, highest
    // coreness first.
    (0..n as VertexId).into_par_iter().rev().for_each(|v| {
        let cstar = best.size();
        if (core_rel[v as usize] as usize) < cstar {
            return;
        }
        let nbrs = rg.neighbors(v);
        let split = nbrs.partition_point(|&u| u <= v);
        let right = &nbrs[split..];
        if right.len() < cstar {
            return; // cannot host a clique of size cstar+1 through v
        }
        // Cut out G[N+(v)] with full sorted-merge intersections.
        let members: Vec<VertexId> = right.to_vec();
        let mut adj = BitMatrix::new(members.len());
        let mut row = Vec::new();
        for (i, &u) in members.iter().enumerate() {
            intersect_sorted(&members, rg.neighbors(u), &mut row);
            for &w in &row {
                let j = members.binary_search(&w).expect("member");
                if j > i {
                    adj.add_edge(i, j);
                }
            }
        }
        let within = Bitset::full(members.len());
        let mut local = Vec::new();
        let lb = cstar.saturating_sub(1);
        if max_clique_dense(&adj, &within, lb, Run::default(), None, &mut local) {
            let mut clique: Vec<VertexId> = local
                .iter()
                .map(|&i| kc.peel_order[members[i as usize] as usize])
                .collect();
            clique.push(kc.peel_order[v as usize]);
            best.offer(&clique);
        }
    });

    // Ensure a non-empty answer on edgeless graphs.
    let result = best.take();
    if result.is_empty() && n > 0 {
        return vec![0];
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazymc_graph::gen;

    #[test]
    fn pmc_solves_known_graphs() {
        assert_eq!(pmc_like(&gen::complete(9)).len(), 9);
        assert_eq!(pmc_like(&gen::path(15)).len(), 2);
        assert_eq!(pmc_like(&gen::triangulated_grid(6, 5)).len(), 4);
        assert_eq!(pmc_like(&CsrGraph::empty(4)).len(), 1);
        assert_eq!(pmc_like(&CsrGraph::empty(0)).len(), 0);
    }

    #[test]
    fn pmc_finds_planted_clique() {
        let g = gen::planted_clique(200, 0.03, 11, 4);
        let c = pmc_like(&g);
        assert!(g.is_clique(&c));
        assert_eq!(c.len(), 11);
    }

    #[test]
    fn pmc_caveman() {
        let g = gen::caveman(8, 6, 0.05, 3);
        assert_eq!(pmc_like(&g).len(), 6);
    }
}
