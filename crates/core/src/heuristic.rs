//! Heuristic (greedy, inexact) clique searches — paper Algorithms 5 and 6.
//!
//! Both prime the incumbent cheaply so that filtering and pruning bite from
//! the very start of the systematic search. The *degree-based* search runs
//! on the original graph before any preprocessing and repeatedly absorbs
//! the candidate with the highest residual degree; the *coreness-based*
//! search runs on the relabelled lazy graph and absorbs the
//! highest-numbered (= highest-coreness) candidate. Both lean on the
//! early-exit intersection kernels; the degree-based descent swaps them
//! for popcounts over bit rows when its first candidate set is large
//! enough (`bitrows`), growing the same clique either way.

use crate::bitrows::{self, RowBuilder, MAX_RETAINED_ARENA_BYTES};
use crate::config::Config;
use crate::incumbent::Incumbent;
use lazymc_graph::{GraphAccess, VertexId};
use lazymc_intersect::{
    intersect_gt, intersect_plain, intersect_size_gt_val, intersect_size_plain, intersect_sorted,
    SortedSlice,
};
use lazymc_lazygraph::LazyGraph;
use lazymc_solver::bitset::{BitMatrix, Bitset};
use lazymc_solver::Pool;
use rayon::prelude::*;

/// Per-descent reusable buffers for the greedy heuristic searches: the
/// candidate set, the clique under construction, the intersection output,
/// and the bit path's map, rows and live set. Pooled so the thousands of
/// parallel descents reuse a handful of warmed allocations instead of
/// allocating their own.
#[derive(Default)]
struct HeurScratch {
    cand: Vec<VertexId>,
    clique: Vec<VertexId>,
    tmp: Vec<VertexId>,
    builder: RowBuilder,
    rows: BitMatrix,
    alive: Bitset,
}

impl HeurScratch {
    fn heap_bytes(&self) -> usize {
        (self.cand.capacity() + self.clique.capacity() + self.tmp.capacity()) * 4
            + self.builder.heap_bytes()
            + self.rows.heap_bytes()
            + self.alive.heap_bytes()
    }
}

/// A hub's descent grows O(|cand|²/8)-byte rows; the same retention rule
/// as the neighbourhood arenas keeps them from being pinned forever.
static HEUR_SCRATCH: Pool<HeurScratch> =
    Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_ARENA_BYTES);

/// Degree-based heuristic search (paper Algorithm 5).
///
/// Expands the `top_k` highest-degree vertices in parallel; from each, it
/// greedily grows a clique by absorbing the candidate of maximum degree
/// *within the candidate set* (ties: first seen). Small candidate sets
/// find it with `intersect-size-gt-val`, whose threshold ratchets to the
/// running maximum; larger ones build the set's bit rows once and take
/// popcounts (the gate is [`bitrows::heuristic_rows_pay`]). Both paths
/// grow the same clique.
pub fn degree_heuristic(g: &dyn GraphAccess, cfg: &Config, inc: &Incumbent) {
    let n = g.num_vertices();
    if n == 0 || cfg.top_k == 0 {
        return;
    }
    let k = cfg.top_k.min(n);
    // Top-k selection by degree (O(n) select, then truncate).
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    if k < n {
        ids.select_nth_unstable_by_key(k - 1, |&v| std::cmp::Reverse(g.degree(v)));
        ids.truncate(k);
    }
    ids.par_iter().for_each(|&v| {
        HEUR_SCRATCH.with(|s| {
            let cstar = inc.size();
            s.cand.clear();
            s.cand.extend(
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| g.degree(u) >= cstar),
            );
            s.clique.clear();
            s.clique.push(v);
            if bitrows::heuristic_rows_pay(&s.cand) {
                descend_rows(g, s);
            } else {
                descend_probes(g, s, cfg.early_exit);
            }
            inc.offer(&s.clique);
        });
    });
}

/// The greedy descent from `s.cand` by per-pair probes, the scalar path:
/// absorb the candidate of maximum degree within the set, then shrink the
/// set to `cand ∩ N(u)` by a sorted merge.
fn descend_probes(g: &dyn GraphAccess, s: &mut HeurScratch, early_exit: bool) {
    let HeurScratch {
        cand, clique, tmp, ..
    } = s;
    while !cand.is_empty() {
        let u = select_max_degree_candidate(g, cand, early_exit);
        clique.push(u);
        intersect_sorted(cand, g.neighbors(u), tmp);
        std::mem::swap(cand, tmp);
    }
}

/// The same descent over `s.cand`'s bit rows, built once: each step's
/// degrees are `popcount(row_w & alive)`, scanned in candidate order with
/// the same first-seen tie-break, and `cand ∩ N(u)` is `alive &= row_u`.
fn descend_rows(g: &dyn GraphAccess, s: &mut HeurScratch) {
    let HeurScratch {
        cand,
        clique,
        builder,
        rows,
        alive,
        ..
    } = s;
    builder.build(cand, |u| g.neighbors(u), rows);
    alive.reset_full(cand.len());
    while let Some(first) = alive.first() {
        let (mut best_i, mut best_d) = (first, 0usize);
        for i in alive.iter() {
            let d = alive.intersection_count_words(rows.row(i));
            if d > best_d {
                best_d = d;
                best_i = i;
            }
        }
        clique.push(cand[best_i]);
        alive.intersect_with_words(rows.row(best_i));
    }
}

/// `arg max_{w ∈ cand} |cand ∩ N(w)|`, with the early-exit kernel ratcheting
/// on the best value seen so far (ties: first seen).
fn select_max_degree_candidate(
    g: &dyn GraphAccess,
    cand: &[VertexId],
    early_exit: bool,
) -> VertexId {
    let mut best_w = cand[0];
    let mut best_d = 0usize;
    for &w in cand {
        let nw = SortedSlice(g.neighbors(w));
        let d = if early_exit {
            intersect_size_gt_val(cand, &nw, best_d)
        } else {
            Some(intersect_size_plain(cand, &nw))
        };
        if let Some(d) = d {
            if d > best_d {
                best_d = d;
                best_w = w;
            }
        }
    }
    best_w
}

/// Coreness-based heuristic search (paper Algorithm 6).
///
/// One greedy descent per degeneracy level, in parallel: start from the
/// lowest-numbered vertex of the level, repeatedly absorb the
/// highest-numbered candidate (maximal coreness under the relabelling),
/// shrinking the candidate set with `intersect-gt` at θ = |C*| − |C| — if
/// the remaining intersection cannot beat the incumbent, the whole descent
/// is abandoned.
pub fn coreness_heuristic(
    lg: &LazyGraph<'_>,
    levels: &[(u32, u32)],
    cfg: &Config,
    inc: &Incumbent,
) {
    levels.par_iter().rev().for_each(|&(start, end)| {
        if start == end {
            return; // empty level
        }
        HEUR_SCRATCH.with(|s| {
            let v = start; // lowest-numbered vertex of this coreness level
            let HeurScratch {
                cand, clique, tmp, ..
            } = s;
            cand.clear();
            cand.extend_from_slice(lg.right_sorted(v));
            let clique_rel = clique;
            clique_rel.clear();
            clique_rel.push(v);
            while !cand.is_empty() {
                let u = *cand.last().unwrap(); // highest-numbered candidate
                clique_rel.push(u);
                let theta = inc.size().saturating_sub(clique_rel.len());
                let res = if cfg.early_exit {
                    intersect_gt(cand, lg.hashed(u), tmp, theta)
                } else {
                    Some(intersect_plain(cand, lg.hashed(u), tmp))
                };
                match res {
                    Some(_) => std::mem::swap(cand, tmp),
                    // Early exit: the descent cannot beat the incumbent any
                    // more (remaining intersection ≤ |C*| − |C|). The prefix
                    // gathered so far is still a valid clique, so fall through
                    // to the offer — which rejects non-improving candidates.
                    None => break,
                }
            }
            // Every prefix of the greedy descent is a clique: each absorbed
            // vertex came from the common neighbourhood of all before it.
            // Map to original ids in place (tmp is free again here).
            tmp.clear();
            tmp.extend(clique_rel.iter().map(|&r| lg.order().to_original(r)));
            debug_assert!(lg.original_graph().is_clique(tmp));
            inc.offer(tmp);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazymc_graph::{gen, CsrGraph};
    use lazymc_order::{coreness_degree_order, kcore_sequential, relabel::level_ranges};

    fn run_degree(g: &CsrGraph) -> usize {
        let inc = Incumbent::new();
        degree_heuristic(g, &Config::default(), &inc);
        assert!(g.is_clique(&inc.clique()));
        inc.size()
    }

    fn run_coreness(g: &CsrGraph, seed_incumbent: usize) -> usize {
        let kc = kcore_sequential(g);
        let ord = coreness_degree_order(g, &kc.coreness);
        let inc = Incumbent::new();
        if seed_incumbent > 0 {
            // pre-seed with an artificial size floor (no witness needed)
        }
        let lg = LazyGraph::new(g, &ord, &kc.coreness, inc.size_cell());
        let levels = level_ranges(&ord, &kc.coreness, kc.degeneracy);
        coreness_heuristic(&lg, &levels, &Config::default(), &inc);
        assert!(g.is_clique(&inc.clique()));
        inc.size()
    }

    /// Runs both descent paths from every vertex of `g`, each with the
    /// candidate set the heuristic would build at incumbent size `cstar`,
    /// and asserts they grow the same clique. Returns the largest
    /// candidate set seen.
    fn assert_descents_agree(g: &CsrGraph, cstar: usize) -> usize {
        let mut largest = 0;
        for v in g.vertices() {
            let mut runs = Vec::new();
            for rows in [false, true] {
                let mut s = HeurScratch::default();
                s.cand
                    .extend(g.neighbors(v).iter().filter(|&&u| g.degree(u) >= cstar));
                s.clique.push(v);
                largest = largest.max(s.cand.len());
                if rows {
                    descend_rows(g, &mut s);
                } else {
                    descend_probes(g, &mut s, true);
                }
                runs.push(s.clique);
            }
            assert_eq!(runs[0], runs[1], "seed vertex {v}, |C*| {cstar}");
            assert!(g.is_clique(&runs[0]));
        }
        largest
    }

    #[test]
    fn descent_paths_grow_the_same_clique() {
        // A hub joined to everything gives one candidate set of n − 1,
        // past the row cap in release builds.
        let hub = |n: usize, p: f64, seed: u64| {
            let g = gen::gnp(n, p, seed);
            let mut edges: Vec<(u32, u32)> = g.edges().collect();
            edges.extend((1..n as u32).map(|u| (0, u)));
            CsrGraph::from_edges(n, &edges)
        };
        let graphs = if cfg!(debug_assertions) {
            vec![
                gen::gnp(80, 0.4, 1),
                gen::planted_clique(120, 0.08, 12, 2),
                hub(150, 0.1, 3),
            ]
        } else {
            vec![
                gen::gnp(400, 0.45, 1),
                gen::planted_clique(600, 0.1, 25, 2),
                hub(4200, 0.004, 3),
            ]
        };
        let mut largest = 0;
        for g in &graphs {
            for cstar in [0, 3, 8] {
                largest = largest.max(assert_descents_agree(g, cstar));
            }
        }
        let want = if cfg!(debug_assertions) {
            100
        } else {
            bitrows::MAX_ROWS + 1
        };
        assert!(largest >= want, "the sweep must reach {want} candidates");
    }

    #[test]
    fn degree_heuristic_finds_complete_graph() {
        let g = gen::complete(12);
        assert_eq!(run_degree(&g), 12);
    }

    #[test]
    fn degree_heuristic_on_planted_clique() {
        let g = gen::planted_clique(300, 0.02, 15, 11);
        // the planted clique's members have the highest degrees; greedy
        // should recover most or all of it
        assert!(run_degree(&g) >= 10);
    }

    #[test]
    fn degree_heuristic_trivial_graphs() {
        assert_eq!(run_degree(&gen::star(8)), 2);
        assert_eq!(run_degree(&gen::path(6)), 2);
        let isolated = CsrGraph::empty(4);
        assert_eq!(run_degree(&isolated), 1);
    }

    #[test]
    fn degree_heuristic_empty_graph() {
        let g = CsrGraph::empty(0);
        let inc = Incumbent::new();
        degree_heuristic(&g, &Config::default(), &inc);
        assert_eq!(inc.size(), 0);
    }

    #[test]
    fn coreness_heuristic_finds_caveman_community() {
        let g = gen::caveman(8, 6, 0.0, 1);
        assert_eq!(run_coreness(&g, 0), 6);
    }

    #[test]
    fn coreness_heuristic_on_complete_graph() {
        assert_eq!(run_coreness(&gen::complete(9), 0), 9);
    }

    #[test]
    fn heuristics_agree_with_early_exit_disabled() {
        let g = gen::planted_clique(150, 0.04, 10, 3);
        let inc1 = Incumbent::new();
        degree_heuristic(&g, &Config::default(), &inc1);
        let inc2 = Incumbent::new();
        let cfg = Config {
            early_exit: false,
            ..Config::default()
        };
        degree_heuristic(&g, &cfg, &inc2);
        // Early exits never change the greedy trajectory, only its cost.
        assert_eq!(inc1.size(), inc2.size());
    }
}
