//! Dense maximum clique branch-and-bound.
//!
//! The subgraph MC solver of the paper (§IV-E): derived from Bron–Kerbosch
//! with Tomita-style branching — candidates are greedily colored and
//! explored in reverse color order so that `|C| + color(v) <= |C*|` prunes
//! the whole remaining prefix — plus incumbent-size pruning. It operates on
//! the bit-matrix adjacency of the (small, dense) filtered neighbourhood.
//!
//! [`max_clique_dense`] is the engine's one entry. Given a
//! [`Split`](crate::Split) of width ≥ 2 and at least 32 candidates, it
//! splits the top branch levels into subtree tasks on the scheduler pool
//! against one shared incumbent; otherwise it runs the sequential kernel,
//! whose node counts are deterministic.
//!
//! All per-node state — the candidate set, color order and bounds of every
//! depth, the current and best cliques, the coloring buffers — lives in a
//! reusable arena checked out of the `MC_WORKER` pool. A node expansion
//! performs **zero heap allocations** once the arena is warm (verified by
//! the counting-allocator tests in `tests/zero_alloc.rs` and in this module);
//! the paper's work-avoidance thesis cuts both ways, and per-node
//! `memcpy`+`malloc` of bitsets was the largest avoidable work left in the
//! innermost loop.

use crate::bitset::{BitMatrix, Bitset};
use crate::coloring::{color_order_scratch, ColorScratch};
use crate::par::{Run, SharedBest, SPLIT_MIN_VERTICES};
use crate::scratch::{Pool, MAX_RETAINED_BYTES};
use lazymc_sched::Scope;
use std::sync::Mutex;

/// Search statistics, used by the work-accounting figures.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct McStats {
    /// Branch-and-bound tree nodes expanded.
    pub nodes: u64,
    /// Of `nodes`, how many were already flushed into a
    /// [`LiveNodes`](crate::LiveNodes) sink mid-search. Callers that
    /// accumulate `nodes` into the same sink after the call must add only
    /// `nodes - sampled` to keep the total exact.
    pub sampled: u64,
    /// Subtree tasks generated by the parallel work-splitting driver
    /// (0 for a sequential solve).
    pub split_tasks: u64,
    /// Tasks executed by a worker other than the thread that generated
    /// them (a measure of how much work actually migrated).
    pub steals: u64,
    /// Incumbent improvements published to the shared best-size cell —
    /// each one immediately tightens every other worker's bound.
    pub incumbent_broadcasts: u64,
}

impl McStats {
    /// Element-wise sum of another run's statistics into `self`.
    pub fn merge(&mut self, other: &McStats) {
        self.nodes += other.nodes;
        self.sampled += other.sampled;
        self.split_tasks += other.split_tasks;
        self.steals += other.steals;
        self.incumbent_broadcasts += other.incumbent_broadcasts;
    }
}

/// Per-depth reusable buffers: the color order, its bounds, and the
/// candidate set owned by that depth.
#[derive(Default)]
struct DepthScratch {
    order: Vec<u32>,
    bound: Vec<u32>,
    cand: Bitset,
}

/// Reusable arena for the dense MC search: all per-depth state plus the
/// coloring buffers and the clique vectors. Every node expansion is
/// allocation-free once it is warm; buffers grow monotonically and are
/// reshaped (never reallocated, once large enough) between solves.
#[derive(Default)]
struct McScratch {
    depths: Vec<DepthScratch>,
    color: ColorScratch,
    current: Vec<u32>,
    best_clique: Vec<u32>,
}

impl McScratch {
    /// Heap bytes retained by the arena (pool retention bound).
    fn heap_bytes(&self) -> usize {
        self.color.heap_bytes()
            + (self.current.capacity() + self.best_clique.capacity()) * 4
            + self
                .depths
                .iter()
                .map(|d| d.cand.heap_bytes() + (d.order.capacity() + d.bound.capacity()) * 4)
                .sum::<usize>()
    }
}

/// How a searcher observes (and feeds) an incumbent beyond its own local
/// best. The sequential kernel uses [`NoLink`], a zero-sized no-op that
/// monomorphizes away entirely — `threads = 1` runs byte-for-byte today's
/// search, with deterministic node counts. Parallel workers use
/// [`SharedLink`], which reads the shared best-size atomic before bounding
/// every node and publishes improvements the instant they are found.
trait IncumbentLink {
    /// Latest globally known best size (0 when nothing is shared).
    fn read(&self) -> usize;
    /// Publishes an improvement to the other workers (no-op when local).
    fn publish(&self, clique: &[u32]);
    /// Whether the solve was told to stop (cancellation / deadline trip).
    /// Constant `false` for the sequential link, so the check folds away
    /// and `threads = 1` stays bit-identical.
    fn halted(&self) -> bool;
}

/// Solver-local incumbent only: the sequential code path.
struct NoLink;

impl IncumbentLink for NoLink {
    #[inline]
    fn read(&self) -> usize {
        0
    }
    #[inline]
    fn publish(&self, _clique: &[u32]) {}
    #[inline]
    fn halted(&self) -> bool {
        false
    }
}

/// Link to the [`SharedBest`] of a parallel solve.
struct SharedLink<'a>(&'a SharedBest);

impl IncumbentLink for SharedLink<'_> {
    #[inline]
    fn read(&self) -> usize {
        self.0.size()
    }
    #[inline]
    fn publish(&self, clique: &[u32]) {
        self.0.offer(clique);
    }
    #[inline]
    fn halted(&self) -> bool {
        self.0.halted()
    }
}

struct Searcher<'a, L: IncumbentLink> {
    adj: &'a BitMatrix,
    best: usize,
    found: bool,
    /// Set when `run.stop` fired at one of this searcher's polls.
    halted: bool,
    stats: McStats,
    scratch: &'a mut McScratch,
    link: L,
    run: Run<'a>,
}

impl<L: IncumbentLink> Searcher<'_, L> {
    /// Expands the node whose candidate set the caller placed in
    /// `scratch.depths[depth].cand`.
    fn expand(&mut self, depth: usize) {
        if self.halted || self.link.halted() {
            // Cancelled / deadline-tripped solve: unwind without counting
            // the node; the best clique so far stays valid.
            return;
        }
        self.stats.nodes += 1;
        if self.run.pulse(self.stats.nodes, &mut self.stats.sampled) {
            self.halted = true;
            return;
        }
        // An improvement found on any other worker shrinks this subtree:
        // refresh the bound before coloring (one relaxed load per node).
        let shared = self.link.read();
        if shared > self.best {
            self.best = shared;
        }
        // Take this depth's buffers out of the arena for the duration of
        // the frame (empty vectors and a zero-capacity bitset go in; no
        // allocation either way).
        let mut d = std::mem::take(&mut self.scratch.depths[depth]);
        color_order_scratch(
            self.adj,
            &d.cand,
            &mut d.order,
            &mut d.bound,
            &mut self.scratch.color,
        );
        for i in (0..d.order.len()).rev() {
            if self.scratch.current.len() + d.bound[i] as usize <= self.best {
                break; // bounds ascend: everything before i prunes too
            }
            let v = d.order[i] as usize;
            self.scratch.current.push(v as u32);
            if self.scratch.depths.len() <= depth + 1 {
                // First visit to this depth (warm-up): grow the arena.
                self.scratch.depths.push(DepthScratch::default());
            }
            let child = &mut self.scratch.depths[depth + 1];
            // Sized without zeroing: the intersection overwrites every word.
            child.cand.reset_for_overwrite(d.cand.capacity());
            d.cand.intersection_into(self.adj.row(v), &mut child.cand);
            if child.cand.is_empty() {
                if self.scratch.current.len() > self.best {
                    self.best = self.scratch.current.len();
                    self.found = true;
                    self.scratch.best_clique.clear();
                    let current = &self.scratch.current;
                    self.scratch.best_clique.extend_from_slice(current);
                    self.link.publish(&self.scratch.best_clique);
                }
            } else {
                self.expand(depth + 1);
            }
            self.scratch.current.pop();
            d.cand.remove(v);
        }
        self.scratch.depths[depth] = d;
    }
}

/// Runs the branch-and-bound over `cand` below the clique `prefix` on
/// `scratch`, accepting only cliques larger than `floor`: the sequential
/// kernel with [`NoLink`], the body of a split worker with [`SharedLink`]
/// (which bounds against the shared incumbent before coloring every node
/// and publishes improvements the instant they are found). Returns
/// whether a clique was found, left in `scratch.best_clique`, the run's
/// statistics, and whether `run.stop` halted it (the clique is then the
/// best one found before the halt). Allocation-free on a warm arena.
fn search<L: IncumbentLink>(
    adj: &BitMatrix,
    cand: &Bitset,
    prefix: &[u32],
    floor: usize,
    link: L,
    run: Run<'_>,
    scratch: &mut McScratch,
) -> (bool, McStats, bool) {
    if scratch.depths.is_empty() {
        scratch.depths.push(DepthScratch::default());
    }
    scratch.depths[0].cand.copy_from(cand);
    scratch.current.clear();
    scratch.current.extend_from_slice(prefix);
    scratch.best_clique.clear();
    let mut s = Searcher {
        adj,
        best: floor,
        found: false,
        halted: false,
        stats: McStats::default(),
        scratch,
        link,
        run,
    };
    s.expand(0);
    (s.found, s.stats, s.halted)
}

// ---------------------------------------------------------------------------
// Work-splitting driver on the machine-wide scheduler
// ---------------------------------------------------------------------------

/// One branch-prefix subtree task: up to two chosen vertices plus the
/// residual candidate set and the color bound at generation time.
#[derive(Default)]
struct McTask {
    prefix: [u32; 2],
    plen: u8,
    /// Upper bound on any clique in this subtree: the prefix plus the
    /// candidate set lies inside the generating level's color classes
    /// `order[0..=i]`, so `(plen - 1) + bound[i]` bounds the whole task —
    /// the same tight form the kernel's own prune rule uses. Workers
    /// re-check it against the shared incumbent at claim time, so tasks
    /// pruned by another worker's improvement are skipped unopened.
    ub: u32,
    cand: Bitset,
}

/// Pooled buffers for task generation: the root coloring, the working
/// candidate sets, and the task arena itself (bitsets reused across
/// solves, so a warm split allocates nothing).
#[derive(Default)]
struct McSplitScratch {
    color: ColorScratch,
    work: Bitset,
    child: Bitset,
    order: Vec<u32>,
    bound: Vec<u32>,
    tasks: Vec<McTask>,
    spill: Vec<McTask>,
}

impl McSplitScratch {
    fn heap_bytes(&self) -> usize {
        self.color.heap_bytes()
            + self.work.heap_bytes()
            + self.child.heap_bytes()
            + (self.order.capacity() + self.bound.capacity()) * 4
            + self
                .tasks
                .iter()
                .chain(self.spill.iter())
                .map(|t| t.cand.heap_bytes())
                .sum::<usize>()
    }
}

/// Search arenas of the sequential kernel and of every subtree worker.
static MC_WORKER: Pool<McScratch> = Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_BYTES);
static MC_SPLIT: Pool<McSplitScratch> = Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_BYTES);

/// Appends one task slot (reusing a warm slot when available) and returns
/// the count of live tasks.
fn push_task(
    tasks: &mut Vec<McTask>,
    live: &mut usize,
    prefix: [u32; 2],
    plen: u8,
    ub: u32,
    cand: &Bitset,
) {
    if *live == tasks.len() {
        tasks.push(McTask::default());
    }
    let t = &mut tasks[*live];
    t.prefix = prefix;
    t.plen = plen;
    t.ub = ub;
    t.cand.copy_from(cand);
    *live += 1;
}

/// Expands the top of the branch-and-bound tree into subtree tasks in
/// `split.tasks`: the root level first, then — when that yields fewer
/// tasks than `width` claimants — each root task's second level. Trivial
/// leaves are offered to `shared` directly. Returns the live task count.
fn gen_mc_tasks(
    adj: &BitMatrix,
    within: &Bitset,
    width: usize,
    shared: &SharedBest,
    split: &mut McSplitScratch,
    local: &mut McStats,
) -> usize {
    let mut live = 0usize;
    color_order_scratch(
        adj,
        within,
        &mut split.order,
        &mut split.bound,
        &mut split.color,
    );
    split.work.copy_from(within);
    local.nodes += 1; // the root expansion
    for i in (0..split.order.len()).rev() {
        if split.bound[i] as usize <= shared.size() {
            break; // bounds ascend: everything before i prunes too
        }
        let v = split.order[i] as usize;
        split.child.reset_for_overwrite(split.work.capacity());
        split.work.intersection_into(adj.row(v), &mut split.child);
        if split.child.is_empty() {
            shared.offer(&[v as u32]);
        } else {
            push_task(
                &mut split.tasks,
                &mut live,
                [v as u32, 0],
                1,
                split.bound[i],
                &split.child,
            );
        }
        split.work.remove(v);
    }
    // --- Second-level split when the root is narrower than the crew --
    if live > 0 && live < width {
        std::mem::swap(&mut split.tasks, &mut split.spill);
        let level0 = live;
        live = 0;
        for ti in 0..level0 {
            let McSplitScratch {
                color,
                work,
                child,
                order,
                bound,
                tasks,
                spill,
            } = &mut *split;
            let t = &spill[ti];
            let v = t.prefix[0];
            color_order_scratch(adj, &t.cand, order, bound, color);
            work.copy_from(&t.cand);
            local.nodes += 1;
            for i in (0..order.len()).rev() {
                if (bound[i] as usize) < shared.size() {
                    break;
                }
                let u = order[i] as usize;
                child.reset_for_overwrite(work.capacity());
                work.intersection_into(adj.row(u), child);
                if child.is_empty() {
                    shared.offer(&[v, u as u32]);
                } else {
                    push_task(tasks, &mut live, [v, u as u32], 2, 1 + bound[i], child);
                }
                work.remove(u);
            }
        }
    }
    live
}

/// Task arena of one scheduler-run MC solve: scope unit `i` owns slot `i`.
/// Re-splits append new slots under the lock and publish the indices to
/// the scope, so subtree tasks stay resubmittable mid-solve.
struct McArena {
    tasks: Vec<McTask>,
    live: usize,
}

/// Finds a maximum clique of the subgraph of `adj` induced by `within`
/// *if it is larger than `lb`*, writing the witness into `out` (cleared
/// either way) and returning whether one was found. `stats`, when given,
/// accumulates the work done.
///
/// Runs the sequential kernel unless `run` splits (see [`Run`]). A split
/// solve turns its top branch levels into claimable scope units that any
/// idle pool worker — including workers of *other* solves between their
/// own claims — executes against this solve's [`SharedBest`]. Units
/// re-split one level deeper when the pool reports idle capacity. Node
/// counts of a split solve depend on scheduling; the *result* does not.
///
/// Every kernel polls `run.stop` every
/// [`SAMPLE_INTERVAL`](crate::live::SAMPLE_INTERVAL) nodes; a hit halts
/// the search (a split solve's every stolen subtree too, via the shared
/// incumbent's halt flag), and the witness is the best clique above `lb`
/// found before it.
pub fn max_clique_dense(
    adj: &BitMatrix,
    within: &Bitset,
    lb: usize,
    run: Run<'_>,
    stats: Option<&mut McStats>,
    out: &mut Vec<u32>,
) -> bool {
    out.clear();
    if adj.is_empty() || within.len() <= lb {
        return false;
    }
    let Some(split) = run.split_for(within.len()) else {
        let (found, local) = MC_WORKER.with(|scr| {
            let (found, stats, _) = search(adj, within, &[], lb, NoLink, run, scr);
            if found {
                out.extend_from_slice(&scr.best_clique);
            }
            (found, stats)
        });
        if let Some(s) = stats {
            s.merge(&local);
        }
        return found;
    };
    let shared = SharedBest::with_floor(lb);
    shared.reserve(within.len());
    let mut local = McStats::default();
    let mut gen = MC_SPLIT.take();
    let live = gen_mc_tasks(adj, within, split.width, &shared, &mut gen, &mut local);
    local.split_tasks += live as u64;
    if live > 0 {
        let arena = Mutex::new(McArena {
            tasks: std::mem::take(&mut gen.tasks),
            live,
        });
        let agg = Mutex::new(McStats::default());
        split
            .sched
            .scope(split.meta, split.width - 1, live, &|sc, i| {
                mc_sched_unit(adj, &arena, i, &shared, run, &agg, sc);
            });
        local.merge(&agg.into_inner().unwrap());
        gen.tasks = arena.into_inner().unwrap().tasks;
    }
    MC_SPLIT.put(gen);
    local.incumbent_broadcasts += shared.broadcasts();
    if let Some(s) = stats {
        s.merge(&local);
    }
    shared.clique_into(out)
}

/// One scheduler scope unit: claims arena slot `i`, re-splits it one
/// level deeper when the pool has idle workers, otherwise runs the
/// subtree against the shared incumbent. Steady-state allocation-free:
/// the task stays in pooled buffers, the worker arena comes from
/// [`MC_WORKER`].
fn mc_sched_unit(
    adj: &BitMatrix,
    arena: &Mutex<McArena>,
    i: usize,
    shared: &SharedBest,
    run: Run<'_>,
    agg: &Mutex<McStats>,
    sc: &Scope<'_>,
) {
    let mut stats = McStats::default();
    if sc.is_helper() {
        stats.steals += 1;
    }
    if let Some(stop) = run.stop {
        if !shared.halted() && stop() {
            shared.halt();
        }
    }
    if !shared.halted() {
        let t = {
            let mut g = arena.lock().unwrap();
            std::mem::take(&mut g.tasks[i])
        };
        if t.ub as usize > shared.size() {
            if t.plen == 1 && t.cand.len() >= SPLIT_MIN_VERTICES && sc.idle_workers() > 0 {
                resplit_mc_task(adj, arena, &t, shared, sc, &mut stats);
            } else {
                let prefix = &t.prefix[..t.plen as usize];
                let floor = shared.size();
                let (_, local, halted) = MC_WORKER
                    .with(|scr| search(adj, &t.cand, prefix, floor, SharedLink(shared), run, scr));
                stats.merge(&local);
                if halted {
                    shared.halt();
                }
            }
        }
        // Return the slot (and its warm buffers) for later solves.
        arena.lock().unwrap().tasks[i] = t;
    }
    agg.lock().unwrap().merge(&stats);
}

/// Expands a one-vertex-prefix task into its second-level children,
/// appended to the arena and published to the scope — the same expansion
/// the generation pass applies to narrow roots, now on demand when the
/// pool reports idle capacity mid-solve.
fn resplit_mc_task(
    adj: &BitMatrix,
    arena: &Mutex<McArena>,
    t: &McTask,
    shared: &SharedBest,
    sc: &Scope<'_>,
    stats: &mut McStats,
) {
    let mut gen = MC_SPLIT.take();
    color_order_scratch(adj, &t.cand, &mut gen.order, &mut gen.bound, &mut gen.color);
    gen.work.copy_from(&t.cand);
    stats.nodes += 1;
    let v = t.prefix[0];
    let fresh = {
        let mut g = arena.lock().unwrap();
        let mut live = g.live;
        for i in (0..gen.order.len()).rev() {
            if (gen.bound[i] as usize) < shared.size() {
                break;
            }
            let u = gen.order[i] as usize;
            gen.child.reset_for_overwrite(gen.work.capacity());
            gen.work.intersection_into(adj.row(u), &mut gen.child);
            if gen.child.is_empty() {
                shared.offer(&[v, u as u32]);
            } else {
                push_task(
                    &mut g.tasks,
                    &mut live,
                    [v, u as u32],
                    2,
                    1 + gen.bound[i],
                    &gen.child,
                );
            }
            gen.work.remove(u);
        }
        let fresh = live - g.live;
        g.live = live;
        fresh
    };
    MC_SPLIT.put(gen);
    stats.split_tasks += fresh as u64;
    sc.publish(fresh);
}

/// Iterated degree reduction within a candidate set: removes every vertex
/// whose candidate-degree cannot complete a clique of size > `lb`, to a
/// fixpoint. This is the "MC-BRB-style filtering inside the subgraph" the
/// paper names as an easy extension to LazyMC (§V-A); returns the number
/// of vertices removed. Allocation-free: iterates word snapshots instead
/// of cloning the set per round.
pub fn reduce_candidates(adj: &BitMatrix, within: &mut Bitset, lb: usize) -> usize {
    let mut removed = 0usize;
    loop {
        let mut changed = false;
        for wi in 0..within.words().len() {
            let mut w = within.words()[wi];
            while w != 0 {
                let v = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                // a clique through v has at most deg_within(v) + 1 vertices
                if adj.degree_within(v, within) < lb {
                    within.remove(v);
                    removed += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            return removed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::SAMPLE_INTERVAL;
    use crate::test_util::{
        exact_clique, pseudo_graph as pseudo_dense, stop_at, test_pool, thread_allocs,
    };

    fn from_edges(n: usize, edges: &[(usize, usize)]) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        for &(u, v) in edges {
            m.add_edge(u, v);
        }
        m
    }

    /// The sequential entry on the whole matrix above `lb`.
    fn dense(m: &BitMatrix, lb: usize, stats: Option<&mut McStats>) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        max_clique_dense(
            m,
            &Bitset::full(m.len()),
            lb,
            Run::default(),
            stats,
            &mut out,
        )
        .then_some(out)
    }

    #[test]
    fn triangle() {
        let m = from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = exact_clique(&m);
        assert_eq!(c.len(), 3);
        assert!(m.is_clique(&c));
    }

    #[test]
    fn complete_graph() {
        let mut m = BitMatrix::new(7);
        for u in 0..7 {
            for v in u + 1..7 {
                m.add_edge(u, v);
            }
        }
        assert_eq!(exact_clique(&m).len(), 7);
    }

    #[test]
    fn edgeless_graph_clique_is_single_vertex() {
        let m = BitMatrix::new(5);
        assert_eq!(exact_clique(&m).len(), 1);
    }

    #[test]
    fn empty_graph() {
        let m = BitMatrix::new(0);
        assert!(exact_clique(&m).is_empty());
    }

    #[test]
    fn lower_bound_suppresses_result() {
        let m = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(dense(&m, 3, None).is_none());
        assert!(dense(&m, 4, None).is_none());
        assert_eq!(dense(&m, 2, None).unwrap().len(), 3);
    }

    #[test]
    fn two_cliques_picks_larger() {
        // K3 on {0,1,2} and K4 on {3,4,5,6}
        let mut edges = vec![(0, 1), (1, 2), (2, 0)];
        for u in 3..7 {
            for v in u + 1..7 {
                edges.push((u, v));
            }
        }
        edges.push((2, 3)); // bridge
        let m = from_edges(7, &edges);
        let c = exact_clique(&m);
        assert_eq!(c.len(), 4);
        let mut c = c;
        c.sort_unstable();
        assert_eq!(c, vec![3, 4, 5, 6]);
    }

    #[test]
    fn petersen_graph_omega_two() {
        // The Petersen graph is triangle-free: ω = 2.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let edges: Vec<(usize, usize)> =
            outer.iter().chain(&spokes).chain(&inner).copied().collect();
        let m = from_edges(10, &edges);
        assert_eq!(exact_clique(&m).len(), 2);
    }

    #[test]
    fn stats_count_nodes() {
        let m = from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]);
        let mut st = McStats::default();
        let c = dense(&m, 0, Some(&mut st));
        assert_eq!(c.unwrap().len(), 3);
        assert!(st.nodes > 0);
    }

    #[test]
    fn scratch_reuse_across_solves_and_sizes() {
        // One arena, many subgraphs of different sizes: results must match
        // the known ω exactly (stale per-depth state must not leak).
        let mut scratch = McScratch::default();
        let graphs: Vec<(BitMatrix, usize)> = vec![
            (from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]), 3),
            (from_edges(100, &[(0, 99), (99, 50), (50, 0)]), 3),
            (BitMatrix::new(5), 1),
            (from_edges(3, &[(0, 1), (1, 2), (2, 0)]), 3),
        ];
        for (m, omega) in &graphs {
            let within = Bitset::full(m.len());
            let (found, ..) = search(m, &within, &[], 0, NoLink, Run::default(), &mut scratch);
            assert!(found);
            assert_eq!(scratch.best_clique.len(), *omega);
            assert!(m.is_clique(&scratch.best_clique));
        }
        // lb suppression finds nothing
        let (m, _) = &graphs[0];
        let within = Bitset::full(m.len());
        let (found, ..) = search(m, &within, &[], 4, NoLink, Run::default(), &mut scratch);
        assert!(!found);
    }

    /// The entry split at `width` on the shared test pool.
    fn dense_sched(
        m: &BitMatrix,
        lb: usize,
        width: usize,
        stats: Option<&mut McStats>,
        out: &mut Vec<u32>,
    ) -> bool {
        let pool = test_pool();
        let run = Run {
            split: Some(crate::Split {
                sched: &pool,
                meta: lazymc_sched::TaskMeta::adhoc(),
                width,
            }),
            ..Run::default()
        };
        max_clique_dense(m, &Bitset::full(m.len()), lb, run, stats, out)
    }

    #[test]
    fn parallel_matches_sequential() {
        for (n, p, seed) in [(60, 400, 3), (80, 550, 11), (48, 700, 29)] {
            let m = pseudo_dense(n, p, seed);
            let expect = exact_clique(&m);
            for threads in [2, 4, 8] {
                let mut out = Vec::new();
                let mut st = McStats::default();
                let found = dense_sched(&m, 0, threads, Some(&mut st), &mut out);
                assert!(found, "n={n} threads={threads}");
                assert_eq!(out.len(), expect.len(), "n={n} threads={threads}");
                assert!(m.is_clique(&out));
                assert!(st.nodes > 0);
                assert!(st.split_tasks > 0, "n={n} must be worth splitting");
            }
        }
    }

    #[test]
    fn parallel_respects_lower_bound() {
        let m = pseudo_dense(64, 500, 5);
        let omega = exact_clique(&m).len();
        let mut out = Vec::new();
        assert!(!dense_sched(&m, omega, 4, None, &mut out));
        assert!(out.is_empty());
        assert!(dense_sched(&m, omega - 1, 4, None, &mut out));
        assert_eq!(out.len(), omega);
    }

    #[test]
    fn parallel_small_input_falls_back_to_sequential() {
        // Below the split cutoff the node counts must be byte-identical
        // to the sequential kernel (deterministic fallback).
        let m = pseudo_dense(20, 500, 7);
        let mut seq = McStats::default();
        let expect = dense(&m, 0, Some(&mut seq)).unwrap();
        let mut out = Vec::new();
        let mut par = McStats::default();
        assert!(dense_sched(&m, 0, 8, Some(&mut par), &mut out));
        assert_eq!(out.len(), expect.len());
        assert_eq!(par.nodes, seq.nodes, "fallback must be the exact kernel");
        assert_eq!(par.split_tasks, 0);
    }

    #[test]
    fn subtree_task_publishes_through_shared_incumbent() {
        let m = pseudo_dense(40, 600, 13);
        let omega = exact_clique(&m).len();
        let shared = SharedBest::with_floor(0);
        let mut scratch = McScratch::default();
        // A task rooted at the empty prefix over the full candidate set is
        // the whole search: the shared incumbent must end at ω.
        let cand = Bitset::full(40);
        search(
            &m,
            &cand,
            &[],
            0,
            SharedLink(&shared),
            Run::default(),
            &mut scratch,
        );
        assert_eq!(shared.size(), omega);
        let mut out = Vec::new();
        assert!(shared.clique_into(&mut out));
        assert_eq!(out.len(), omega);
        assert!(m.is_clique(&out));
        assert!(shared.broadcasts() > 0);
    }

    #[test]
    fn parallel_mc_worker_is_allocation_free_after_warmup() {
        // The body of a split worker: a branch-prefix task run against a
        // shared incumbent. After one warm-up run, a worker's steady state
        // — node expansions, bound refreshes from the shared atomic, *and*
        // incumbent publications (the witness buffer is pre-reserved, as
        // the split solve does) — must not touch the heap.
        let adj = pseudo_dense(120, 550, 42);
        let cand = Bitset::full(adj.len());
        let mut scratch = McScratch::default();
        let run = |shared: &SharedBest, scratch: &mut McScratch| {
            let floor = shared.size();
            let link = SharedLink(shared);
            search(&adj, &cand, &[], floor, link, Run::default(), scratch);
        };

        // Warm-up: grows the arena and establishes ω in a first incumbent.
        let warm = SharedBest::with_floor(0);
        warm.reserve(adj.len());
        run(&warm, &mut scratch);
        let omega = warm.size();
        assert!(omega >= 3, "graph must be non-trivial, got omega {omega}");

        // Steady state 1: a fresh shared incumbent (pre-reserved) makes the
        // worker re-find and re-publish every improvement — still zero allocs.
        let shared = SharedBest::with_floor(0);
        shared.reserve(adj.len());
        let before = thread_allocs();
        run(&shared, &mut scratch);
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
        run(&shared, &mut scratch);
        let allocs = thread_allocs() - before;
        assert_eq!(
            allocs, 0,
            "pruned MC worker allocated {allocs} times after warm-up"
        );
    }

    #[test]
    fn reduce_candidates_removes_low_degree() {
        // Triangle + pendant: lb 2 strips the pendant (degree 1 < 2).
        let m = from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut within = Bitset::full(4);
        let removed = reduce_candidates(&m, &mut within, 2);
        assert_eq!(removed, 1);
        assert!(!within.contains(3));
        assert_eq!(within.len(), 3);
        // Fixpoint cascades: a path collapses entirely under lb 2.
        let p = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut within = Bitset::full(4);
        assert_eq!(reduce_candidates(&p, &mut within, 2), 4);
        assert!(within.is_empty());
    }

    #[test]
    fn stop_halts_the_search_within_its_polls() {
        // A search of 356k nodes.
        let m = pseudo_dense(150, 800, 9);
        const POLLS: u64 = 3;
        let pool = test_pool();
        for width in [1, 2] {
            let stop = stop_at(POLLS as usize);
            let run = Run {
                stop: Some(&stop),
                split: Some(crate::Split {
                    sched: &pool,
                    meta: lazymc_sched::TaskMeta::adhoc(),
                    width,
                }),
                ..Run::default()
            };
            let mut st = McStats::default();
            let mut out = Vec::new();
            let found = max_clique_dense(&m, &Bitset::full(150), 2, run, Some(&mut st), &mut out);
            // The best clique found before the halt is kept.
            assert_eq!(found, !out.is_empty(), "width {width}");
            assert!(out.is_empty() || (out.len() > 2 && m.is_clique(&out)));
            if width == 1 {
                assert!(found, "12k nodes reach many leaves");
                assert_eq!(st.nodes, POLLS * SAMPLE_INTERVAL);
            } else {
                // Every claim polls too; task generation adds a few
                // unpolled nodes.
                assert!(
                    st.nodes <= POLLS * SAMPLE_INTERVAL + 64,
                    "{} nodes",
                    st.nodes
                );
            }
        }
    }
}
