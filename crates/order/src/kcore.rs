//! k-core decomposition.
//!
//! The coreness of a vertex upper-bounds the cliques it can join: coreness
//! `k` admits at most a `(k+1)`-clique, so the graph's degeneracy `d` gives
//! `ω(G) <= d + 1` and the *clique-core gap* `g = d + 1 - ω` (paper §II).
//! LazyMC leans on coreness for the vertex order, for all three advance
//! filters, and for the must/may zone analysis.

use lazymc_graph::{GraphAccess, VertexId};
use rayon::prelude::*;

/// Result of a k-core decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KCore {
    /// Exact coreness per vertex (see [`kcore_with_floor`] for the capped
    /// variant's semantics).
    pub coreness: Vec<u32>,
    /// Maximum coreness — the graph's degeneracy.
    pub degeneracy: u32,
    /// The order vertices were peeled in, when the algorithm defines one
    /// (sequential peeling only; empty for the parallel variants).
    pub peel_order: Vec<VertexId>,
}

impl KCore {
    /// Upper bound on the maximum clique size: degeneracy + 1.
    pub fn omega_upper_bound(&self) -> usize {
        if self.coreness.is_empty() {
            0
        } else {
            self.degeneracy as usize + 1
        }
    }

    /// Borrowed view of this decomposition.
    pub fn view(&self) -> KCoreView<'_> {
        KCoreView {
            coreness: &self.coreness,
            degeneracy: self.degeneracy,
            peel_order: &self.peel_order,
        }
    }
}

/// Borrowed k-core decomposition — the shape the solver pipeline
/// actually consumes. Owning [`KCore`]s view into their `Vec`s;
/// zero-copy mapped snapshots view straight into the file mapping, so a
/// precomputed decomposition never has to be copied to be used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KCoreView<'a> {
    /// Exact coreness per vertex.
    pub coreness: &'a [u32],
    /// Maximum coreness — the graph's degeneracy.
    pub degeneracy: u32,
    /// Sequential peel order; empty when the decomposition has none.
    pub peel_order: &'a [VertexId],
}

impl KCoreView<'_> {
    /// Upper bound on the maximum clique size: degeneracy + 1.
    pub fn omega_upper_bound(&self) -> usize {
        if self.coreness.is_empty() {
            0
        } else {
            self.degeneracy as usize + 1
        }
    }
}

/// Sequential Matula–Beck bucket peeling: O(n + m).
///
/// Repeatedly removes a minimum-degree vertex; the degree at removal time
/// (monotonically clamped) is the vertex's coreness, and the removal order
/// is the *peeling order* whose right-neighbourhoods are bounded by
/// coreness.
pub fn kcore_sequential(g: &dyn GraphAccess) -> KCore {
    let n = g.num_vertices();
    if n == 0 {
        return KCore {
            coreness: Vec::new(),
            degeneracy: 0,
            peel_order: Vec::new(),
        };
    }
    let mut degree: Vec<u32> = g.degrees();
    let max_deg = *degree.iter().max().unwrap() as usize;

    // Bucket queue: vertices grouped by current degree, with per-vertex
    // positions so we can move a vertex between buckets in O(1).
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &degree {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 0..=max_deg {
        bucket_start[i + 1] += bucket_start[i];
    }
    let mut vert = vec![0 as VertexId; n]; // vertices sorted by current degree
    let mut pos = vec![0usize; n]; // position of each vertex in `vert`
    {
        let mut cursor = bucket_start.clone();
        for v in 0..n {
            let d = degree[v] as usize;
            vert[cursor[d]] = v as VertexId;
            pos[v] = cursor[d];
            cursor[d] += 1;
        }
    }
    // bucket_start[d] = index of first vertex with degree >= d as peeling
    // proceeds (classic BZ array layout).
    let mut coreness = vec![0u32; n];
    let mut peel_order = Vec::with_capacity(n);
    let mut degeneracy = 0u32;
    for i in 0..n {
        let v = vert[i];
        let dv = degree[v as usize];
        degeneracy = degeneracy.max(dv);
        coreness[v as usize] = degeneracy; // degrees are clamped below, so dv never drops
        peel_order.push(v);
        // "Remove" v: decrement the degree of each not-yet-peeled neighbor
        // with degree > dv, moving it one bucket down.
        for &u in g.neighbors(v) {
            let du = degree[u as usize];
            if du > dv {
                // Swap u to the front of its bucket, then shrink the bucket.
                let bstart = bucket_start[du as usize];
                let w = vert[bstart];
                let pu = pos[u as usize];
                vert.swap(bstart, pu);
                pos[w as usize] = pu;
                pos[u as usize] = bstart;
                bucket_start[du as usize] += 1;
                degree[u as usize] = du - 1;
            }
        }
    }
    KCore {
        coreness,
        degeneracy,
        peel_order,
    }
}

/// Parallel round-based peeling.
///
/// For k = 0, 1, 2, … repeatedly strip (in parallel rounds) every remaining
/// vertex with residual degree ≤ k, assigning it coreness k. Produces the
/// exact coreness but, as the paper notes, no unique peeling order.
pub fn kcore_parallel(g: &dyn GraphAccess) -> KCore {
    use std::sync::atomic::{AtomicI64, Ordering};

    let n = g.num_vertices();
    if n == 0 {
        return KCore {
            coreness: Vec::new(),
            degeneracy: 0,
            peel_order: Vec::new(),
        };
    }
    let degree: Vec<AtomicI64> = g
        .degrees()
        .into_iter()
        .map(|d| AtomicI64::new(d as i64))
        .collect();
    let coreness: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    let mut alive = n;
    let mut k: i64 = 0;
    // Start the frontier from the current global minimum degree each epoch.
    while alive > 0 {
        // Collect the initial frontier for this k.
        let mut frontier: Vec<VertexId> = (0..n as u32)
            .into_par_iter()
            .filter(|&v| {
                coreness[v as usize].load(Ordering::Relaxed) < 0
                    && degree[v as usize].load(Ordering::Relaxed) <= k
            })
            .collect();
        if frontier.is_empty() {
            k += 1;
            continue;
        }
        while !frontier.is_empty() {
            alive -= frontier.len();
            frontier
                .par_iter()
                .for_each(|&v| coreness[v as usize].store(k, Ordering::Relaxed));
            // Decrement neighbors; a neighbor whose degree crosses the k
            // threshold joins the next round. Degrees fall by 1 per atomic
            // fetch_sub and the returned old values are distinct, so exactly
            // one decrementer observes the `old - 1 == k` crossing: each
            // vertex enters the frontier exactly once.
            frontier = frontier
                .par_iter()
                .flat_map_iter(|&v| {
                    g.neighbors(v).iter().copied().filter(|&u| {
                        if coreness[u as usize].load(Ordering::Relaxed) >= 0 {
                            return false;
                        }
                        let old = degree[u as usize].fetch_sub(1, Ordering::Relaxed);
                        old - 1 == k
                    })
                })
                .collect();
        }
        // Some vertices may now have residual degree < current k (bulk
        // decrements); the epoch rescan at the top catches them because we
        // do not advance k until a full empty scan.
        let any_below: bool = (0..n as u32).into_par_iter().any(|v| {
            coreness[v as usize].load(Ordering::Relaxed) < 0
                && degree[v as usize].load(Ordering::Relaxed) <= k
        });
        if !any_below {
            k += 1;
        }
    }
    let coreness: Vec<u32> = coreness
        .into_iter()
        .map(|c| c.into_inner().max(0) as u32)
        .collect();
    let degeneracy = coreness.par_iter().copied().max().unwrap_or(0);
    KCore {
        coreness,
        degeneracy,
        peel_order: Vec::new(),
    }
}

/// The paper's `KCore(G, |C*|)` (Alg. 1 line 4): coreness restricted to the
/// zone of interest.
///
/// Vertices that cannot belong to a clique larger than `floor` — i.e. whose
/// coreness is `< floor` — receive the *capped* value
/// `min(degree, floor.saturating_sub(1))`; vertices inside the `floor`-core
/// receive their exact coreness. This keeps the expensive exact computation
/// confined to the subgraph that can still matter, exactly the
/// work-avoidance the paper describes.
///
/// Guarantees, for every vertex `v` with true coreness `c*(v)`:
/// * `coreness[v] >= floor` ⟺ `c*(v) >= floor`;
/// * if `c*(v) >= floor` then `coreness[v] == c*(v)`.
pub fn kcore_with_floor(g: &dyn GraphAccess, floor: u32) -> KCore {
    let n = g.num_vertices();
    if floor == 0 {
        return kcore_sequential(g);
    }
    // Phase 1: iteratively strip vertices with residual degree < floor.
    // What remains is exactly the floor-core.
    let mut degree: Vec<i64> = g.degrees().into_iter().map(|d| d as i64).collect();
    let mut removed = vec![false; n];
    let mut frontier: Vec<VertexId> = (0..n as u32)
        .filter(|&v| degree[v as usize] < floor as i64)
        .collect();
    for &v in &frontier {
        removed[v as usize] = true;
    }
    while let Some(v) = frontier.pop() {
        for &u in g.neighbors(v) {
            if !removed[u as usize] {
                degree[u as usize] -= 1;
                if degree[u as usize] < floor as i64 {
                    removed[u as usize] = true;
                    frontier.push(u);
                }
            }
        }
    }
    // Phase 2: exact peeling of the floor-core subgraph.
    let survivors: Vec<VertexId> = (0..n as u32).filter(|&v| !removed[v as usize]).collect();
    let (sub, back) = g.induced_subgraph(&survivors);
    let sub_core = kcore_sequential(&sub);

    let mut coreness = vec![0u32; n];
    let mut degeneracy = 0u32;
    for v in 0..n {
        if removed[v] {
            // Capped value; only its being < floor matters downstream, the
            // degree tie-break keeps the sort order sensible.
            coreness[v] = (g.degree(v as VertexId) as u32).min(floor - 1);
        }
    }
    for (i, &orig) in back.iter().enumerate() {
        // Coreness within the floor-core equals coreness in G for vertices
        // whose true coreness is >= floor (peeling below floor removes the
        // same set regardless of order).
        coreness[orig as usize] = sub_core.coreness[i];
        degeneracy = degeneracy.max(sub_core.coreness[i]);
    }
    // Degeneracy of the whole graph can exceed the floor-core degeneracy
    // only if it is < floor; report the true max over our (capped) values.
    let degeneracy = coreness.iter().copied().max().unwrap_or(0).max(degeneracy);
    KCore {
        coreness,
        degeneracy,
        peel_order: Vec::new(),
    }
}

/// Naive reference implementation straight from the definition (repeatedly
/// delete all vertices of degree < k). O(n·m); used by tests only.
pub fn kcore_naive(g: &dyn GraphAccess) -> Vec<u32> {
    let n = g.num_vertices();
    let mut coreness = vec![0u32; n];
    let mut k = 1u32;
    let mut present: Vec<bool> = (0..n).map(|v| g.degree(v as u32) > 0).collect();
    // Vertices with degree 0 have coreness 0.
    loop {
        if !present.iter().any(|&p| p) {
            break;
        }
        // compute k-core: repeatedly remove degree < k
        let mut cur = present.clone();
        loop {
            let mut changed = false;
            for v in 0..n {
                if cur[v] {
                    let d = g
                        .neighbors(v as u32)
                        .iter()
                        .filter(|&&u| cur[u as usize])
                        .count();
                    if (d as u32) < k {
                        cur[v] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for v in 0..n {
            if cur[v] {
                coreness[v] = k;
            }
        }
        if !cur.iter().any(|&p| p) {
            break;
        }
        present = cur;
        k += 1;
    }
    coreness
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazymc_graph::{gen, CsrGraph};

    #[test]
    fn complete_graph_coreness() {
        let g = gen::complete(6);
        let kc = kcore_sequential(&g);
        assert_eq!(kc.degeneracy, 5);
        assert!(kc.coreness.iter().all(|&c| c == 5));
        assert_eq!(kc.omega_upper_bound(), 6);
    }

    #[test]
    fn path_coreness_is_one() {
        let g = gen::path(10);
        let kc = kcore_sequential(&g);
        assert_eq!(kc.degeneracy, 1);
        assert!(kc.coreness.iter().all(|&c| c == 1));
    }

    #[test]
    fn cycle_coreness_is_two() {
        let g = gen::cycle(8);
        let kc = kcore_sequential(&g);
        assert_eq!(kc.degeneracy, 2);
        assert!(kc.coreness.iter().all(|&c| c == 2));
    }

    #[test]
    fn star_center_and_leaves() {
        let g = gen::star(10);
        let kc = kcore_sequential(&g);
        assert_eq!(kc.degeneracy, 1);
        assert!(kc.coreness.iter().all(|&c| c == 1));
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let g = CsrGraph::from_edges(5, &[(0, 1)]);
        let kc = kcore_sequential(&g);
        assert_eq!(kc.coreness[2], 0);
        assert_eq!(kc.coreness[0], 1);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        let kc = kcore_sequential(&g);
        assert_eq!(kc.degeneracy, 0);
        assert_eq!(kc.omega_upper_bound(), 0);
        let kp = kcore_parallel(&g);
        assert_eq!(kp.coreness, kc.coreness);
    }

    #[test]
    fn sequential_matches_naive_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::gnp(60, 0.15, seed);
            let kc = kcore_sequential(&g);
            assert_eq!(kc.coreness, kcore_naive(&g), "seed {seed}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..5 {
            let g = gen::gnp(200, 0.05, seed);
            let seq = kcore_sequential(&g);
            let par = kcore_parallel(&g);
            assert_eq!(seq.coreness, par.coreness, "seed {seed}");
            assert_eq!(seq.degeneracy, par.degeneracy);
        }
    }

    #[test]
    fn peel_order_right_neighborhood_bound() {
        // The defining property of the peeling order: at peel time, each
        // vertex's not-yet-peeled neighbourhood is no larger than its
        // coreness... and therefore every right-neighbourhood under the
        // peel-order relabelling is bounded by the coreness.
        let g = gen::gnp(150, 0.08, 3);
        let kc = kcore_sequential(&g);
        let mut rank = vec![0u32; g.num_vertices()];
        for (i, &v) in kc.peel_order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        for v in g.vertices() {
            let right = g
                .neighbors(v)
                .iter()
                .filter(|&&u| rank[u as usize] > rank[v as usize])
                .count();
            assert!(
                right <= kc.coreness[v as usize] as usize,
                "vertex {v}: right-degree {right} > coreness {}",
                kc.coreness[v as usize]
            );
        }
    }

    #[test]
    fn floored_kcore_agrees_above_floor() {
        for seed in 0..4 {
            let g = gen::planted_clique(120, 0.06, 9, seed);
            let exact = kcore_sequential(&g);
            for floor in [0u32, 2, 5, 8, 12] {
                let capped = kcore_with_floor(&g, floor);
                for v in 0..g.num_vertices() {
                    let (e, c) = (exact.coreness[v], capped.coreness[v]);
                    assert_eq!(
                        e >= floor,
                        c >= floor,
                        "seed {seed} floor {floor} v {v}: exact {e} capped {c}"
                    );
                    if e >= floor {
                        assert_eq!(e, c, "seed {seed} floor {floor} v {v}");
                    } else {
                        assert!(c < floor.max(1));
                    }
                }
            }
        }
    }

    #[test]
    fn floored_kcore_floor_zero_is_exact() {
        let g = gen::gnp(80, 0.1, 9);
        assert_eq!(
            kcore_with_floor(&g, 0).coreness,
            kcore_sequential(&g).coreness
        );
    }

    /// `kc` written into a snapshot of `g` and read back by the heap
    /// reader.
    fn through_snapshot(g: &CsrGraph, kc: &KCore) -> KCore {
        use lazymc_graph::snapshot::{decode, encode};
        let back = decode(&encode(g, &kc.coreness, &kc.peel_order)).expect("decode");
        assert_eq!(&back.graph, g);
        KCore {
            coreness: back.coreness,
            degeneracy: back.degeneracy,
            peel_order: back.peel_order,
        }
    }

    #[test]
    fn kcore_round_trips_through_snapshot_bytes() {
        for seed in 0..3 {
            let g = gen::planted_clique(120, 0.06, 8, seed);
            let kc = kcore_sequential(&g);
            assert_eq!(through_snapshot(&g, &kc), kc, "seed {seed}");
        }
    }

    #[test]
    fn parallel_kcore_without_peel_order_round_trips() {
        let g = gen::gnp(100, 0.08, 5);
        let kc = kcore_parallel(&g);
        assert!(kc.peel_order.is_empty());
        assert_eq!(through_snapshot(&g, &kc), kc);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = CsrGraph::empty(0);
        let kc = kcore_sequential(&g);
        assert_eq!(through_snapshot(&g, &kc), kc);
    }
}
