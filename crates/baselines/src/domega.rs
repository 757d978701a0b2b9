//! dOmega-like solver (Walteros & Buchanan \[7\]).
//!
//! Exploits the observation that ω is usually close to the degeneracy
//! upper bound d+1: test clique-core gaps γ = d+1−ω in increasing order,
//! answering each "is there a clique of size d+1−γ?" question by
//! k-vertex-cover decisions on the complements of right-neighbourhoods.
//! The gap progression is either **linear** (γ = 0, 1, 2, …) or a
//! **binary search** — the paper's dOmega-LS and dOmega-BS columns, whose
//! divergence on gap-heavy graphs Table II reproduces.
//!
//! Sequential, like the original.

use crate::shared::greedy_from;
use lazymc_graph::{CsrGraph, VertexId};
use lazymc_order::kcore_sequential;
use lazymc_solver::bitset::{BitMatrix, Bitset};
use lazymc_solver::{vertex_cover_decision, Run};

/// Gap progression strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapSchedule {
    /// γ = 0, 1, 2, … (dOmega-LS).
    Linear,
    /// Binary search over γ (dOmega-BS).
    Binary,
}

/// Runs the dOmega-like solver.
pub fn domega(g: &CsrGraph, schedule: GapSchedule) -> Vec<VertexId> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let kc = kcore_sequential(g);
    let d = kc.degeneracy as usize;

    // Heuristic lower bound: greedy from a few of the deepest-core vertices.
    let mut best: Vec<VertexId> = vec![0];
    for &v in kc
        .peel_order
        .iter()
        .rev()
        .take(8)
        .collect::<Vec<_>>()
        .iter()
    {
        let c = greedy_from(g, *v);
        if c.len() > best.len() {
            best = c;
        }
    }

    // rank in peeling order for right-neighbourhood definition
    let mut rank = vec![0 as VertexId; n];
    for (i, &v) in kc.peel_order.iter().enumerate() {
        rank[v as usize] = i as VertexId;
    }

    // test(target): find a clique of size >= target, or None.
    let test = |target: usize| -> Option<Vec<VertexId>> {
        if target <= 1 {
            return Some(vec![0]);
        }
        for &v in &kc.peel_order {
            if (kc.coreness[v as usize] as usize) < target - 1 {
                continue;
            }
            // right-neighbourhood in peel order, restricted to coreness
            // >= target-1 (neighbourhoods are sorted by coreness here).
            let members: Vec<VertexId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| {
                    rank[u as usize] > rank[v as usize]
                        && (kc.coreness[u as usize] as usize) >= target - 1
                })
                .collect();
            if members.len() < target - 1 {
                continue;
            }
            // Does G[members] contain a clique of size target-1?
            // ⟺ minVC(complement) <= |members| - (target-1).
            let mut adj = BitMatrix::new(members.len());
            for (i, &u) in members.iter().enumerate() {
                for (j, &w) in members.iter().enumerate().skip(i + 1) {
                    if g.has_edge(u, w) {
                        adj.add_edge(i, j);
                    }
                }
            }
            let comp = adj.complement();
            let k = members.len() - (target - 1);
            let alive = Bitset::full(members.len());
            let mut cover = Vec::new();
            if vertex_cover_decision(&comp, &alive, k, Run::default(), None, &mut cover).found {
                let mut in_cover = vec![false; members.len()];
                for &c in &cover {
                    in_cover[c as usize] = true;
                }
                let mut clique: Vec<VertexId> = members
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !in_cover[i])
                    .map(|(_, &u)| u)
                    .collect();
                clique.push(v);
                debug_assert!(g.is_clique(&clique));
                return Some(clique);
            }
        }
        None
    };

    match schedule {
        GapSchedule::Linear => {
            // γ = 0, 1, 2, …: targets d+1, d, …; the first hit is ω.
            let mut target = d + 1;
            while target > best.len() {
                if let Some(c) = test(target) {
                    return c;
                }
                target -= 1;
            }
            best
        }
        GapSchedule::Binary => {
            // Largest feasible target in [best, d+1] by bisection
            // (feasibility is monotone decreasing in the target).
            let mut lo = best.len();
            let mut hi = d + 1;
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                match test(mid) {
                    Some(c) => {
                        lo = c.len().max(mid);
                        if c.len() > best.len() {
                            best = c;
                        }
                    }
                    None => hi = mid - 1,
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazymc_graph::gen;

    #[test]
    fn both_schedules_solve_known_graphs() {
        for schedule in [GapSchedule::Linear, GapSchedule::Binary] {
            assert_eq!(domega(&gen::complete(7), schedule).len(), 7);
            assert_eq!(domega(&gen::path(10), schedule).len(), 2);
            assert_eq!(domega(&gen::triangulated_grid(5, 4), schedule).len(), 4);
            assert_eq!(domega(&CsrGraph::empty(3), schedule).len(), 1);
        }
    }

    #[test]
    fn schedules_agree_on_gap_heavy_graph() {
        let g = gen::dense_overlap(100, 12, 6, 12, 0.08, 3);
        let ls = domega(&g, GapSchedule::Linear);
        let bs = domega(&g, GapSchedule::Binary);
        assert!(g.is_clique(&ls));
        assert!(g.is_clique(&bs));
        assert_eq!(ls.len(), bs.len());
    }

    #[test]
    fn zero_gap_graph_hits_first_probe() {
        // caveman with no rewiring: ω = community size = d+1, gap 0: LS
        // succeeds on its very first target.
        let g = gen::caveman(5, 6, 0.0, 1);
        assert_eq!(domega(&g, GapSchedule::Linear).len(), 6);
    }
}
