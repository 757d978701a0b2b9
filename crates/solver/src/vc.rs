//! k-vertex-cover branch-and-bound — the paper's algorithmic-choice solver.
//!
//! Filtered neighbourhoods are often extremely dense (paper §III-D), which
//! makes direct MC search expensive; their *complements* are sparse, and a
//! clique of size `s` in `G[N]` is exactly an independent set of size `s` in
//! the complement, i.e. a vertex cover of size `|N| - s`. The paper solves
//! such subgraphs by a per-neighbourhood binary search over k-VC decisions
//! (§IV-E), with a solver implementing:
//!
//! * the Buss kernel (vertices of degree > k are forced into the cover);
//! * kernelization of degree-0/1/2 vertices — only the non-merging degree-2
//!   case, as in the paper;
//! * a polynomial path/cycle solver once the maximum degree drops to 2;
//! * branching on a highest-degree vertex otherwise.
//!
//! Two entries: [`vertex_cover_decision`] answers one k-VC decision, and
//! [`max_clique_via_vc`] runs the clique-via-VC pipeline over it. Like the
//! MC engine, a decision runs the sequential kernel unless its [`Run`]
//! splits, and then its top branch levels become subtree tasks on the
//! scheduler pool under one abort flag ([`SearchAbort`]). Every kernel
//! polls `run.stop` every [`SAMPLE_INTERVAL`](crate::live::SAMPLE_INTERVAL)
//! nodes, so a deadline or cancellation ends a decision with `stopped`.
//!
//! The search runs on two kernels over the same rules. The wide kernel
//! works on [`BitMatrix`] rows, sized for the matrix the decision started
//! on, and keeps its per-depth state (the alive set of every branch
//! level, the row/seen scratch of the kernelization and path/cycle
//! solvers) in pooled arenas. Once a node has at most 64 live vertices
//! (99.6% of paley-401's nodes), it gathers them into a stack-held
//! `[u64; 64]` row array with an ascending local→matrix index map, and the
//! word kernel finishes the subtree on `u64` masks: a degree is
//! `popcount(rows[v] & alive)`, the two branches are `alive & !bit(v)` and
//! `alive & !(rows[v] | bit(v))`, and nothing is copied between depths.
//! The map keeps the matrix order, so both kernels make the same picks,
//! reductions and cover pushes in the same order: covers and [`VcStats`]
//! do not depend on where the switch happens. The pipeline keeps its
//! complement matrix and bound buffers in a pool of its own — zero
//! steady-state heap allocation per node on either kernel.

use crate::bitset::{BitMatrix, Bitset};
use crate::par::{Run, SearchAbort, SPLIT_MIN_VERTICES};
use crate::scratch::{Pool, MAX_RETAINED_BYTES};
use lazymc_sched::Scope;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Search statistics for work accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VcStats {
    /// Branch-and-bound tree nodes expanded.
    pub nodes: u64,
    /// Of `nodes`, how many were already flushed into a
    /// [`LiveNodes`](crate::LiveNodes) sink mid-search (see
    /// `McStats::sampled`).
    pub sampled: u64,
    /// Vertices removed (or forced into the cover) by the kernelization
    /// rules — Buss, degree-0/1 and the non-merging degree-2 case.
    pub reductions: u64,
    /// Subtree tasks generated by the parallel work-splitting driver
    /// (0 for a sequential solve).
    pub split_tasks: u64,
    /// Tasks executed by a worker other than the thread that generated
    /// them.
    pub steals: u64,
    /// Early-stop broadcasts: a worker found a cover and signalled every
    /// other worker to abandon its subtree.
    pub incumbent_broadcasts: u64,
}

impl VcStats {
    /// Element-wise sum of another run's statistics into `self`.
    pub fn merge(&mut self, other: &VcStats) {
        self.nodes += other.nodes;
        self.sampled += other.sampled;
        self.reductions += other.reductions;
        self.split_tasks += other.split_tasks;
        self.steals += other.steals;
        self.incumbent_broadcasts += other.incumbent_broadcasts;
    }
}

/// Per-depth reusable buffer: the alive set owned by that branch level.
#[derive(Default)]
struct VcDepth {
    alive: Bitset,
}

/// Reusable arena for the k-VC decision search; once it is warm no node
/// expansion allocates.
#[derive(Default)]
struct VcScratch {
    depths: Vec<VcDepth>,
    row: Bitset,
    seen: Bitset,
    cycle: Vec<u32>,
}

impl VcScratch {
    /// Heap bytes retained by the arena (pool retention bound).
    fn heap_bytes(&self) -> usize {
        self.row.heap_bytes()
            + self.seen.heap_bytes()
            + self.cycle.capacity() * 4
            + self
                .depths
                .iter()
                .map(|d| d.alive.heap_bytes())
                .sum::<usize>()
    }
}

/// Reusable buffers of the clique-via-VC pipeline: the complement
/// matrix, the cover of the latest decision and the best one, and the
/// matching bound's scratch. The decisions bring their own arenas.
#[derive(Default)]
struct VcPipeline {
    comp: BitMatrix,
    cover: Vec<u32>,
    best_cover: Vec<u32>,
    full: Bitset,
    avail: Bitset,
    row: Bitset,
    in_cover: Vec<bool>,
}

impl VcPipeline {
    fn heap_bytes(&self) -> usize {
        self.comp.heap_bytes()
            + (self.cover.capacity() + self.best_cover.capacity()) * 4
            + self.full.heap_bytes()
            + self.avail.heap_bytes()
            + self.row.heap_bytes()
            + self.in_cover.capacity()
    }
}

static VC_PIPELINE: Pool<VcPipeline> = Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_BYTES);

/// Exact minimum vertex cover via binary search over the decision problem,
/// bracketed by a maximal-matching lower bound and a greedy upper bound.
pub fn min_vertex_cover(adj: &BitMatrix, stats: Option<&mut VcStats>) -> Vec<u32> {
    let n = adj.len();
    let alive = Bitset::full(n);
    let lb = matching_lower_bound(adj, &alive);
    let greedy = greedy_cover(adj, &alive);
    let mut best = greedy.clone();
    let (mut lo, mut hi) = (lb, greedy.len());
    let mut local = VcStats::default();
    let mut cover = Vec::new();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let run = Run::default();
        if vertex_cover_decision(adj, &alive, mid, run, Some(&mut local), &mut cover).found {
            hi = cover.len().min(mid);
            std::mem::swap(&mut best, &mut cover);
        } else {
            lo = mid + 1;
        }
    }
    if let Some(out) = stats {
        out.nodes += local.nodes;
        out.reductions += local.reductions;
    }
    best
}

/// Maximum clique of `adj` via minimum vertex cover of the complement.
///
/// Writes the witness into `out` (cleared either way) and returns whether
/// a clique larger than `lb` exists. This is the paper's
/// per-neighbourhood algorithmic choice: the initial decision at
/// `k0 = n - lb - 1` alone discharges most neighbourhoods; only when a
/// better clique exists does a binary search refine to the exact
/// optimum. Every decision goes through [`vertex_cover_decision`] with
/// `run`, so each one splits or not by the same rule. A decision that
/// reports `stopped` (deadline trip or cancellation) ends the refinement
/// early; the witness is then the best one found so far, and the caller
/// marks the solve truncated. With warm pools the whole pipeline —
/// complement matrix included — performs no heap allocation.
pub fn max_clique_via_vc(
    adj: &BitMatrix,
    lb: usize,
    run: Run<'_>,
    stats: Option<&mut VcStats>,
    out: &mut Vec<u32>,
) -> bool {
    clique_via_vc(adj, lb, run, WORD_CUTOFF, stats, out)
}

/// [`max_clique_via_vc`] whose sequential decisions move to the word
/// kernel at `word_cutoff` live vertices.
fn clique_via_vc(
    adj: &BitMatrix,
    lb: usize,
    run: Run<'_>,
    word_cutoff: usize,
    stats: Option<&mut VcStats>,
    out: &mut Vec<u32>,
) -> bool {
    out.clear();
    let n = adj.len();
    if n == 0 || n <= lb {
        return false;
    }
    let mut local = VcStats::default();
    let found = VC_PIPELINE.with(|p| {
        adj.complement_into(&mut p.comp);
        p.full.reset_full(n);
        let VcPipeline {
            comp,
            cover,
            best_cover,
            full,
            avail,
            row,
            in_cover,
        } = p;
        let mut decide = |k: usize, cover: &mut Vec<u32>| {
            decision(comp, full, k, run, word_cutoff, Some(&mut local), cover)
        };
        // ω > lb ⟺ minVC(complement) <= n - lb - 1.
        let first = decide(n - lb - 1, cover);
        if !first.found {
            return false;
        }
        let mut halted = first.stopped;
        std::mem::swap(best_cover, cover);
        // Refine: binary search down to the true minimum to maximize the clique.
        let mut lo = matching_lower_bound_scratch(comp, full, avail, row);
        let mut hi = best_cover.len();
        while lo < hi && !halted {
            let mid = lo + (hi - lo) / 2;
            let d = decide(mid, cover);
            halted = d.stopped;
            if d.found {
                hi = cover.len().min(mid);
                std::mem::swap(best_cover, cover);
            } else {
                lo = mid + 1;
            }
        }
        in_cover.clear();
        in_cover.resize(n, false);
        for &v in best_cover.iter() {
            in_cover[v as usize] = true;
        }
        out.extend((0..n as u32).filter(|&v| !in_cover[v as usize]));
        debug_assert!(adj.is_clique(out));
        true
    });
    if let Some(s) = stats {
        s.merge(&local);
    }
    found
}

// ---------------------------------------------------------------------------
// Work-splitting driver on the machine-wide scheduler
// ---------------------------------------------------------------------------

/// How many branch levels task generation descends before parking the
/// residual subproblem as a task ("split the top one/two levels").
const VC_SPLIT_LEVELS: usize = 2;

/// One parked subtree of a decision search: the residual alive set, the
/// remaining budget, and the cover vertices already committed on the path
/// (kernel-forced picks and branch choices).
#[derive(Default)]
struct VcTask {
    alive: Bitset,
    k: i64,
    picks: Vec<u32>,
}

/// Pooled buffers for decision-task generation (bitsets and pick lists
/// reused across solves, so a warm split allocates nothing).
#[derive(Default)]
struct VcSplitScratch {
    gen: VcScratch,
    levels: Vec<Bitset>,
    picks: Vec<u32>,
    tasks: Vec<VcTask>,
}

impl VcSplitScratch {
    fn heap_bytes(&self) -> usize {
        self.gen.heap_bytes()
            + self.picks.capacity() * 4
            + self.levels.iter().map(Bitset::heap_bytes).sum::<usize>()
            + self
                .tasks
                .iter()
                .map(|t| t.alive.heap_bytes() + t.picks.capacity() * 4)
                .sum::<usize>()
    }
}

/// Everything one decision worker needs: a search arena plus a cover
/// buffer for the subproblem's result.
#[derive(Default)]
struct VcWorkerScratch {
    search: VcScratch,
    cover: Vec<u32>,
}

impl VcWorkerScratch {
    fn heap_bytes(&self) -> usize {
        self.search.heap_bytes() + self.cover.capacity() * 4
    }
}

/// Search arenas of the sequential kernel and of every subtree worker.
static VC_WORKER: Pool<VcWorkerScratch> =
    Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_BYTES);
static VC_SPLIT: Pool<VcSplitScratch> = Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_BYTES);

/// Task sink of one generation pass.
struct VcGen<'a> {
    tasks: &'a mut Vec<VcTask>,
    live: usize,
    out: &'a mut Vec<u32>,
}

impl VcGen<'_> {
    fn push(&mut self, alive: &Bitset, k: i64, picks: &[u32]) {
        if self.live == self.tasks.len() {
            self.tasks.push(VcTask::default());
        }
        let t = &mut self.tasks[self.live];
        t.alive.copy_from(alive);
        t.k = k;
        t.picks.clear();
        t.picks.extend_from_slice(picks);
        self.live += 1;
    }
}

/// Expands the top of the decision tree, exactly as the sequential solver
/// would (kernelize → terminal checks → branch on a maximum-degree
/// vertex), but parks each subtree at the depth cutoff as a task instead
/// of recursing into it. `levels[0]` holds this node's alive set; deeper
/// recursion uses the following slots. Returns `true` when a full cover
/// was already found during generation (copied into `sink.out`).
fn gen_vc_tasks(
    solver: &mut VcSolver<'_, NoAbort>,
    levels: &mut [Bitset],
    k: i64,
    picks: &mut Vec<u32>,
    sink: &mut VcGen<'_>,
) -> bool {
    solver.stats.nodes += 1;
    let mark = picks.len();
    let (cur, rest) = levels.split_first_mut().expect("levels sized by caller");
    let mut k = k;
    let Some(kern) = solver.kernelize(cur, &mut k, picks) else {
        picks.truncate(mark);
        return false;
    };
    if kern.m == 0 {
        sink.out.clear();
        sink.out.extend_from_slice(picks);
        return true;
    }
    if k <= 0 || kern.m > (k as usize) * kern.max_d {
        picks.truncate(mark);
        return false;
    }
    if kern.max_d <= 2 {
        if solver.solve_paths_cycles(cur, k, picks) {
            sink.out.clear();
            sink.out.extend_from_slice(picks);
            return true;
        }
        picks.truncate(mark);
        return false;
    }
    if rest.is_empty() {
        // Depth cutoff: park the residual subproblem for a worker.
        sink.push(cur, k, picks);
        picks.truncate(mark);
        return false;
    }
    let v = kern.max_v;
    // Option A: v joins the cover.
    let branch_mark = picks.len();
    rest[0].copy_from(cur);
    rest[0].remove(v);
    picks.push(v as u32);
    if gen_vc_tasks(solver, rest, k - 1, picks, sink) {
        return true;
    }
    picks.truncate(branch_mark);
    // Option B: all of v's alive neighbors join the cover.
    rest[0].copy_from(cur);
    let mut taken = 0i64;
    {
        let row = solver.alive_row(v, cur);
        for u in row.iter() {
            picks.push(u as u32);
            taken += 1;
        }
    }
    for &u in &picks[branch_mark..] {
        rest[0].remove(u as usize);
    }
    rest[0].remove(v);
    if gen_vc_tasks(solver, rest, k - taken, picks, sink) {
        return true;
    }
    picks.truncate(mark);
    false
}

/// Task arena of one scheduler-run decision: scope unit `i` owns slot
/// `i`; re-splits append under the lock and publish the new indices.
struct VcArena {
    tasks: Vec<VcTask>,
    live: usize,
}

/// Most tasks one decision may fan out to; re-splits stop past this (the
/// subtree runs inline instead), bounding arena memory under pathological
/// re-split cascades.
const VC_SCHED_MAX_TASKS: usize = 4096;

/// Outcome of one k-VC decision. `found = false` with `stopped = true` is
/// *not* authoritative — `run.stop` halted the search mid-way (deadline
/// trip or cancellation), on the sequential kernel as on a split one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Decision {
    pub found: bool,
    pub stopped: bool,
}

/// Decides whether `adj` restricted to `alive` has a vertex cover of size
/// at most `k`. On success the cover is written to `out` (cleared either
/// way). `stats`, when given, accumulates the work done.
///
/// Runs the sequential kernel unless `run` splits (see [`Run`]). A split
/// decision turns its top two branch levels into claimable scope units
/// that any idle pool worker executes under this decision's
/// [`SearchAbort`]: the first cover found wins and every other subtree
/// terminates at its next node. Units re-split deeper when the pool
/// reports idle capacity. Every kernel polls `run.stop` every
/// [`SAMPLE_INTERVAL`](crate::live::SAMPLE_INTERVAL) nodes (a split one
/// also at each claim, and a hit trips the abort), so a deadline or
/// cancellation ends the decision with `stopped` set.
pub fn vertex_cover_decision(
    adj: &BitMatrix,
    alive: &Bitset,
    k: usize,
    run: Run<'_>,
    stats: Option<&mut VcStats>,
    out: &mut Vec<u32>,
) -> Decision {
    decision(adj, alive, k, run, WORD_CUTOFF, stats, out)
}

/// [`vertex_cover_decision`] whose sequential kernel moves to the word
/// kernel at `word_cutoff` live vertices (split workers use
/// [`WORD_CUTOFF`]).
fn decision(
    adj: &BitMatrix,
    alive: &Bitset,
    k: usize,
    run: Run<'_>,
    word_cutoff: usize,
    stats: Option<&mut VcStats>,
    out: &mut Vec<u32>,
) -> Decision {
    out.clear();
    let Some(split) = run.split_for(alive.len()) else {
        let (decision, local) = VC_WORKER.with(|w| {
            let mut solver = VcSolver::new(adj, &mut w.search, NoAbort, run);
            solver.word_cutoff = word_cutoff;
            let found = solver.decide(alive, k, out);
            let stopped = solver.halted;
            (Decision { found, stopped }, solver.stats)
        });
        if let Some(s) = stats {
            s.merge(&local);
        }
        return decision;
    };
    let mut local = VcStats::default();
    let mut scr = VC_SPLIT.take();
    while scr.levels.len() < VC_SPLIT_LEVELS + 1 {
        scr.levels.push(Bitset::default());
    }
    let (solved, live) = {
        let VcSplitScratch {
            gen,
            levels,
            picks,
            tasks,
        } = &mut *scr;
        picks.clear();
        levels[0].copy_from(alive);
        let mut solver = VcSolver::new(adj, gen, NoAbort, run);
        let mut tsink = VcGen {
            tasks,
            live: 0,
            out,
        };
        let solved = gen_vc_tasks(&mut solver, levels, k as i64, picks, &mut tsink);
        local.merge(&solver.stats);
        local.split_tasks += tsink.live as u64;
        (solved, tsink.live)
    };
    let mut decision = Decision::default();
    if solved {
        decision.found = true;
    } else if live > 0 {
        let abort = SearchAbort::new();
        let stopped = AtomicBool::new(false);
        let winner: Mutex<Option<Vec<u32>>> = Mutex::new(None);
        let arena = Mutex::new(VcArena {
            tasks: std::mem::take(&mut scr.tasks),
            live,
        });
        let agg = Mutex::new(VcStats::default());
        split
            .sched
            .scope(split.meta, split.width - 1, live, &|sc, i| {
                vc_sched_unit(adj, &arena, i, &abort, &stopped, &winner, run, &agg, sc);
            });
        local.merge(&agg.into_inner().unwrap());
        scr.tasks = arena.into_inner().unwrap().tasks;
        decision.stopped = stopped.load(Ordering::Relaxed);
        if let Some(cover) = winner.into_inner().unwrap() {
            out.clear();
            out.extend_from_slice(&cover);
            decision.found = true;
        }
    }
    VC_SPLIT.put(scr);
    if let Some(s) = stats {
        s.merge(&local);
    }
    if !decision.found {
        out.clear();
    }
    decision
}

/// One scheduler scope unit of a decision: claims arena slot `i`,
/// re-splits it deeper when the pool has idle workers, otherwise runs
/// the abortable kernel on it. A `run.stop` hit, at the claim or inside
/// the kernel, sets `stopped` and trips the abort.
#[allow(clippy::too_many_arguments)]
fn vc_sched_unit(
    adj: &BitMatrix,
    arena: &Mutex<VcArena>,
    i: usize,
    abort: &SearchAbort,
    stopped: &AtomicBool,
    winner: &Mutex<Option<Vec<u32>>>,
    run: Run<'_>,
    agg: &Mutex<VcStats>,
    sc: &Scope<'_>,
) {
    let mut stats = VcStats::default();
    if sc.is_helper() {
        stats.steals += 1;
    }
    if let Some(stop) = run.stop {
        if !abort.triggered() && stop() {
            stopped.store(true, Ordering::Relaxed);
            abort.trigger();
        }
    }
    if !abort.triggered() {
        let (t, room) = {
            let mut g = arena.lock().unwrap();
            (std::mem::take(&mut g.tasks[i]), g.live < VC_SCHED_MAX_TASKS)
        };
        if t.alive.len() >= SPLIT_MIN_VERTICES && room && sc.idle_workers() > 0 {
            resplit_vc_task(adj, arena, &t, abort, winner, sc, &mut stats, run);
        } else {
            let mut w = VC_WORKER.take();
            let VcWorkerScratch { search, cover } = &mut *w;
            let mut solver = VcSolver::new(adj, search, SharedAbort(abort), run);
            let ok = solver.decide(&t.alive, t.k as usize, cover);
            stats.merge(&solver.stats);
            if ok {
                publish_vc_winner(winner, &t.picks, cover, abort, &mut stats);
            } else if solver.halted {
                stopped.store(true, Ordering::Relaxed);
                abort.trigger();
            }
            VC_WORKER.put(w);
        }
        // Return the slot (and its warm buffers) for later solves.
        arena.lock().unwrap().tasks[i] = t;
    }
    agg.lock().unwrap().merge(&stats);
}

/// First cover wins: records `picks + cover` and trips the abort so the
/// rest of the crew stops.
fn publish_vc_winner(
    winner: &Mutex<Option<Vec<u32>>>,
    picks: &[u32],
    cover: &[u32],
    abort: &SearchAbort,
    stats: &mut VcStats,
) {
    let mut g = winner.lock().unwrap();
    if g.is_none() {
        let mut full = Vec::with_capacity(picks.len() + cover.len());
        full.extend_from_slice(picks);
        full.extend_from_slice(cover);
        *g = Some(full);
        stats.incumbent_broadcasts += 1;
    }
    drop(g);
    abort.trigger();
}

/// Expands a parked decision task [`VC_SPLIT_LEVELS`] levels deeper,
/// appending the children to the arena and publishing them to the scope —
/// the on-demand re-split for idle pool capacity. A cover discovered
/// during expansion settles the decision immediately.
#[allow(clippy::too_many_arguments)]
fn resplit_vc_task(
    adj: &BitMatrix,
    arena: &Mutex<VcArena>,
    t: &VcTask,
    abort: &SearchAbort,
    winner: &Mutex<Option<Vec<u32>>>,
    sc: &Scope<'_>,
    stats: &mut VcStats,
    run: Run<'_>,
) {
    let mut split = VC_SPLIT.take();
    let mut w = VC_WORKER.take();
    while split.levels.len() < VC_SPLIT_LEVELS + 1 {
        split.levels.push(Bitset::default());
    }
    let (solved, fresh) = {
        let VcSplitScratch {
            gen,
            levels,
            picks,
            tasks: _,
        } = &mut *split;
        picks.clear();
        picks.extend_from_slice(&t.picks);
        levels[0].copy_from(&t.alive);
        let mut solver = VcSolver::new(adj, gen, NoAbort, run);
        let mut g = arena.lock().unwrap();
        let a = &mut *g;
        let live0 = a.live;
        let mut tsink = VcGen {
            tasks: &mut a.tasks,
            live: live0,
            out: &mut w.cover,
        };
        let solved = gen_vc_tasks(&mut solver, levels, t.k, picks, &mut tsink);
        let live1 = tsink.live;
        a.live = live1;
        stats.merge(&solver.stats);
        (solved, live1 - live0)
    };
    stats.split_tasks += fresh as u64;
    if solved {
        // `w.cover` already contains the full pick path (seeded above).
        publish_vc_winner(winner, &[], &w.cover, abort, stats);
    } else {
        sc.publish(fresh);
    }
    VC_WORKER.put(w);
    VC_SPLIT.put(split);
}

/// Lower bound: size of a greedily-built maximal matching (every cover must
/// contain at least one endpoint of each matched edge).
pub fn matching_lower_bound(adj: &BitMatrix, alive: &Bitset) -> usize {
    let mut avail = Bitset::new(0);
    let mut row = Bitset::new(0);
    matching_lower_bound_scratch(adj, alive, &mut avail, &mut row)
}

fn matching_lower_bound_scratch(
    adj: &BitMatrix,
    alive: &Bitset,
    avail: &mut Bitset,
    row: &mut Bitset,
) -> usize {
    avail.copy_from(alive);
    row.reset_for_overwrite(alive.capacity());
    let mut matched = 0usize;
    while let Some(v) = avail.first() {
        avail.remove(v);
        avail.intersection_into(adj.row(v), row);
        if let Some(u) = row.first() {
            avail.remove(u);
            matched += 1;
        }
    }
    matched
}

/// Greedy 2-ish-approximation: repeatedly add a maximum-degree vertex.
pub fn greedy_cover(adj: &BitMatrix, alive: &Bitset) -> Vec<u32> {
    let mut alive = alive.clone();
    let mut cover = Vec::new();
    loop {
        let mut best_v = usize::MAX;
        let mut best_d = 0usize;
        for v in alive.iter() {
            let d = adj.degree_within(v, &alive);
            if d > best_d {
                best_d = d;
                best_v = v;
            }
        }
        if best_d == 0 {
            return cover;
        }
        cover.push(best_v as u32);
        alive.remove(best_v);
    }
}

/// How a decision search observes the cooperative abort flag. The
/// sequential kernel uses [`NoAbort`], a zero-sized no-op that the
/// optimizer removes — `threads = 1` runs byte-for-byte today's search
/// with deterministic node counts. Parallel workers use [`SharedAbort`],
/// which polls the flag once per node (one relaxed load).
trait AbortLink {
    fn aborted(&self) -> bool;
}

/// Never aborted: the sequential code path.
struct NoAbort;

impl AbortLink for NoAbort {
    #[inline]
    fn aborted(&self) -> bool {
        false
    }
}

/// Link to the [`SearchAbort`] of a parallel decision.
struct SharedAbort<'a>(&'a SearchAbort);

impl AbortLink for SharedAbort<'_> {
    #[inline]
    fn aborted(&self) -> bool {
        self.0.triggered()
    }
}

struct VcSolver<'a, A: AbortLink> {
    adj: &'a BitMatrix,
    stats: VcStats,
    scratch: &'a mut VcScratch,
    abort: A,
    run: Run<'a>,
    /// Set when `run.stop` fired at one of this solver's polls; the
    /// search then unwinds like an aborted split worker.
    halted: bool,
    /// Nodes with at most this many live vertices finish on the word
    /// kernel: [`WORD_CUTOFF`], or 0 in tests that pin the wide kernel.
    word_cutoff: usize,
}

/// Outcome of a kernelization fixpoint.
struct Kernelized {
    /// Undirected edges remaining.
    m: usize,
    /// The first alive vertex of maximum degree (valid when `m > 0`): a
    /// matrix index on the wide kernel, a local one on the word kernel.
    max_v: usize,
    /// Its degree.
    max_d: usize,
}

impl<'a, A: AbortLink> VcSolver<'a, A> {
    fn new(adj: &'a BitMatrix, scratch: &'a mut VcScratch, abort: A, run: Run<'a>) -> Self {
        VcSolver {
            adj,
            stats: VcStats::default(),
            scratch,
            abort,
            run,
            halted: false,
            word_cutoff: WORD_CUTOFF,
        }
    }

    /// One decision from the root: a cover of size ≤ `k` of `alive`,
    /// written to `out` (cleared first, and left empty when there is
    /// none). The sequential kernel with [`NoAbort`]; the body of a split
    /// worker with [`SharedAbort`], whose `false` is not authoritative
    /// once the flag is triggered — another worker already found a cover.
    /// Nor is a `false` with `halted` set: `run.stop` fired. Allocation-free
    /// on a warm arena.
    fn decide(&mut self, alive: &Bitset, k: usize, out: &mut Vec<u32>) -> bool {
        out.clear();
        if self.scratch.depths.is_empty() {
            self.scratch.depths.push(VcDepth::default());
        }
        self.scratch.depths[0].alive.copy_from(alive);
        let ok = self.solve(0, k as i64, out);
        if !ok {
            out.clear();
        }
        ok
    }

    /// Decision: cover of size ≤ k for the alive set the caller placed in
    /// `scratch.depths[depth].alive`. On success the chosen vertices are
    /// appended to `cover`; on failure `cover` is restored to its length
    /// at entry. When the abort link or `run.stop` fires, the search
    /// unwinds with `false` — a result the *caller* must treat as
    /// non-authoritative. A node with at most `word_cutoff` live vertices
    /// gathers them once and finishes its subtree on the word kernel.
    fn solve(&mut self, depth: usize, k: i64, cover: &mut Vec<u32>) -> bool {
        let alive = &self.scratch.depths[depth].alive;
        if alive.len() <= self.word_cutoff {
            let (g, all) = WordGraph::gather(self.adj, alive);
            return self.word_solve(&g, all, k, cover);
        }
        if !self.enter() {
            return false;
        }
        while self.scratch.depths.len() <= depth + 1 {
            // First visit to this depth (warm-up): grow the arena.
            self.scratch.depths.push(VcDepth::default());
        }
        let mut d = std::mem::take(&mut self.scratch.depths[depth]);
        let ok = self.solve_with(depth, &mut d.alive, k, cover);
        self.scratch.depths[depth] = d;
        ok
    }

    /// Counts one node, and polls the abort link every node and
    /// `run.stop` every [`SAMPLE_INTERVAL`](crate::live::SAMPLE_INTERVAL)
    /// nodes. Returns `false` when the search must unwind.
    #[inline]
    fn enter(&mut self) -> bool {
        if self.halted || self.abort.aborted() {
            return false;
        }
        self.stats.nodes += 1;
        if self.run.pulse(self.stats.nodes, &mut self.stats.sampled) {
            self.halted = true;
            return false;
        }
        true
    }

    /// [`VcSolver::solve`] on a gathered subgraph, `alive` a mask over its
    /// local indices: the same kernelization, bounds, path/cycle tail and
    /// branch order, with every set one word. The children are masks
    /// passed down, so nothing is copied between depths.
    fn word_solve(
        &mut self,
        g: &WordGraph,
        mut alive: u64,
        mut k: i64,
        cover: &mut Vec<u32>,
    ) -> bool {
        if !self.enter() {
            return false;
        }
        let frame_mark = cover.len();
        let Some(kern) = g.kernelize(&mut alive, &mut k, cover, &mut self.stats.reductions) else {
            cover.truncate(frame_mark);
            return false;
        };
        if kern.m == 0 {
            return true;
        }
        if k <= 0 || kern.m > (k as usize) * kern.max_d {
            cover.truncate(frame_mark);
            return false;
        }
        if kern.max_d <= 2 {
            if g.paths_cycles(alive, k, cover) {
                return true;
            }
            cover.truncate(frame_mark);
            return false;
        }
        // Option A: v joins the cover.
        let v = kern.max_v;
        let branch_mark = cover.len();
        cover.push(g.map[v]);
        if self.word_solve(g, alive & !(1 << v), k - 1, cover) {
            return true;
        }
        cover.truncate(branch_mark);
        // Option B: all of v's alive neighbors join the cover.
        let nbrs = g.rows[v] & alive;
        g.push_all(nbrs, cover);
        let k_b = k - nbrs.count_ones() as i64;
        if self.word_solve(g, alive & !(nbrs | 1 << v), k_b, cover) {
            return true;
        }
        cover.truncate(frame_mark);
        false
    }

    fn solve_with(
        &mut self,
        depth: usize,
        alive: &mut Bitset,
        mut k: i64,
        cover: &mut Vec<u32>,
    ) -> bool {
        let frame_mark = cover.len();
        // --- Kernelization fixpoint (pushes forced picks onto cover) ----
        let Some(kern) = self.kernelize(alive, &mut k, cover) else {
            cover.truncate(frame_mark);
            return false;
        };
        if kern.m == 0 {
            return true; // kernel picks cover everything
        }
        if k <= 0 {
            cover.truncate(frame_mark);
            return false;
        }
        // Buss counting bound: max degree ≤ k after kernelization, so k
        // vertices cover at most k·max_d edges.
        if kern.m > (k as usize) * kern.max_d {
            cover.truncate(frame_mark);
            return false;
        }
        // --- Polynomial tail: paths and cycles --------------------------
        if kern.max_d <= 2 {
            if self.solve_paths_cycles(alive, k, cover) {
                return true;
            }
            cover.truncate(frame_mark);
            return false;
        }
        // --- Branch on a maximum-degree vertex --------------------------
        let v = kern.max_v;
        // Option A: v joins the cover.
        let branch_mark = cover.len();
        {
            let child = &mut self.scratch.depths[depth + 1].alive;
            child.copy_from(alive);
            child.remove(v);
            cover.push(v as u32);
            if self.solve(depth + 1, k - 1, cover) {
                return true;
            }
            cover.truncate(branch_mark);
        }
        // Option B: all of v's alive neighbors join the cover.
        let taken = {
            let VcScratch { depths, row, .. } = &mut *self.scratch;
            row.reset_for_overwrite(alive.capacity());
            alive.intersection_into(self.adj.row(v), row);
            let child = &mut depths[depth + 1].alive;
            child.copy_from(alive);
            let mut taken = 0i64;
            for u in row.iter() {
                cover.push(u as u32);
                child.remove(u);
                taken += 1;
            }
            child.remove(v);
            taken
        };
        if self.solve(depth + 1, k - taken, cover) {
            return true;
        }
        cover.truncate(frame_mark);
        false
    }

    /// Applies the degree-0/1/2 and Buss rules to a fixpoint. Returns
    /// `None` when the budget `k` is exhausted mid-kernelization, otherwise
    /// the residual edge count and a maximum-degree vertex. Iterates word
    /// snapshots of the alive set — no per-sweep vertex list is built.
    fn kernelize(
        &mut self,
        alive: &mut Bitset,
        k: &mut i64,
        cover: &mut Vec<u32>,
    ) -> Option<Kernelized> {
        loop {
            if *k < 0 {
                return None;
            }
            let mut changed = false;
            let mut m2 = 0usize; // sum of degrees over the sweep
            let mut max_v = usize::MAX;
            let mut max_d = 0usize;
            for wi in 0..alive.words().len() {
                let mut w = alive.words()[wi];
                while w != 0 {
                    let v = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    if !alive.contains(v) {
                        continue; // removed earlier in this sweep
                    }
                    let d = self.adj.degree_within(v, alive);
                    if d == 0 {
                        alive.remove(v); // isolated: never needed in a cover
                        self.stats.reductions += 1;
                        changed = true;
                    } else if d as i64 > *k {
                        // Buss rule: more than k incident edges ⇒ v is forced.
                        cover.push(v as u32);
                        alive.remove(v);
                        self.stats.reductions += 1;
                        *k -= 1;
                        changed = true;
                        if *k < 0 {
                            return None;
                        }
                    } else if d == 1 {
                        // Take the single neighbor: always at least as good.
                        let u = self.neighbor_within(v, alive).expect("degree 1");
                        cover.push(u as u32);
                        alive.remove(u);
                        alive.remove(v);
                        self.stats.reductions += 2;
                        *k -= 1;
                        changed = true;
                    } else if d == 2 {
                        // Non-merging degree-2 rule (the paper implements only
                        // this case): if v's two neighbors are adjacent, taking
                        // both dominates any cover containing v.
                        let (a, b) = self.two_neighbors_within(v, alive);
                        if self.adj.has_edge(a, b) {
                            cover.push(a as u32);
                            cover.push(b as u32);
                            alive.remove(a);
                            alive.remove(b);
                            alive.remove(v);
                            self.stats.reductions += 3;
                            *k -= 2;
                            changed = true;
                        } else {
                            m2 += d;
                            if d > max_d {
                                max_d = d;
                                max_v = v;
                            }
                        }
                    } else {
                        m2 += d;
                        if d > max_d {
                            max_d = d;
                            max_v = v;
                        }
                    }
                }
            }
            if !changed {
                // Nothing moved this sweep, so m2/max_d describe the whole
                // alive subgraph consistently.
                return Some(Kernelized {
                    m: m2 / 2,
                    max_v,
                    max_d,
                });
            }
        }
    }

    fn alive_row(&mut self, v: usize, alive: &Bitset) -> &Bitset {
        let row = &mut self.scratch.row;
        row.reset_for_overwrite(alive.capacity());
        alive.intersection_into(self.adj.row(v), row);
        row
    }

    fn neighbor_within(&mut self, v: usize, alive: &Bitset) -> Option<usize> {
        self.alive_row(v, alive).first()
    }

    fn two_neighbors_within(&mut self, v: usize, alive: &Bitset) -> (usize, usize) {
        let row = self.alive_row(v, alive);
        let a = row.first().expect("degree 2");
        let b = row.iter().find(|&u| u != a).expect("degree 2");
        (a, b)
    }

    /// All alive vertices have degree ≤ 2: disjoint paths and cycles.
    /// Optimal covers are closed-form; returns whether they fit in `k`.
    /// On failure the caller restores `cover`.
    fn solve_paths_cycles(&mut self, alive: &Bitset, mut k: i64, cover: &mut Vec<u32>) -> bool {
        let adj = self.adj;
        let VcScratch {
            row, seen, cycle, ..
        } = &mut *self.scratch;
        seen.reset(alive.capacity());
        // Paths first: start walks from endpoints (degree ≤ 1).
        for v in alive.iter() {
            if seen.contains(v) || adj.degree_within(v, alive) > 1 {
                continue;
            }
            // walk the path, taking every second vertex (odd positions)
            let mut prev = usize::MAX;
            let mut cur = v;
            let mut idx = 0usize;
            loop {
                seen.insert(cur);
                if idx % 2 == 1 {
                    cover.push(cur as u32);
                    k -= 1;
                }
                row.reset_for_overwrite(alive.capacity());
                alive.intersection_into(adj.row(cur), row);
                if prev != usize::MAX {
                    row.remove(prev);
                }
                // skip already-seen (handles single vertices)
                let next = row.iter().find(|&u| !seen.contains(u));
                match next {
                    Some(nx) => {
                        prev = cur;
                        cur = nx;
                        idx += 1;
                    }
                    None => break,
                }
            }
            if k < 0 {
                return false;
            }
        }
        // Remaining unseen vertices with degree 2 form cycles.
        for v in alive.iter() {
            if seen.contains(v) {
                continue;
            }
            cycle.clear();
            let mut prev = usize::MAX;
            let mut cur = v;
            loop {
                seen.insert(cur);
                cycle.push(cur as u32);
                row.reset_for_overwrite(alive.capacity());
                alive.intersection_into(adj.row(cur), row);
                if prev != usize::MAX {
                    row.remove(prev);
                }
                let next = row.iter().find(|&u| !seen.contains(u));
                match next {
                    Some(nx) => {
                        prev = cur;
                        cur = nx;
                    }
                    None => break,
                }
            }
            // Cycle of length L needs ceil(L/2): odd positions, plus the
            // last vertex when L is odd.
            let l = cycle.len();
            for (i, &u) in cycle.iter().enumerate() {
                if i % 2 == 1 {
                    cover.push(u);
                    k -= 1;
                }
            }
            if l % 2 == 1 && l > 1 {
                cover.push(cycle[l - 1]);
                k -= 1;
            }
            if k < 0 {
                return false;
            }
        }
        true
    }
}

/// Largest live set a decision node gathers into a [`WordGraph`]. 99.6%
/// of paley-401's k-VC nodes have at most 64 live vertices; wider sets
/// stay on the [`BitMatrix`] rows.
const WORD_CUTOFF: usize = 64;

/// The live subgraph of a k-VC node of at most 64 vertices, gathered
/// once: local vertex `i` is matrix vertex `map[i]`, in ascending order,
/// and `rows[i]` is its adjacency over the local indices. The map keeps
/// the matrix order, so every lowest-index pick, first-seen tie-break and
/// cover push of the word kernel happens as on the wide one.
struct WordGraph {
    rows: [u64; 64],
    map: [u32; 64],
}

/// The local set `{0, …, c−1}`. `1u64 << 64` overflows (in release
/// builds it wraps to `1`, which would make a full 64-vertex set
/// empty), so `c = 64` is spelled out.
fn low_mask(c: usize) -> u64 {
    debug_assert!(c <= 64);
    if c == 64 {
        u64::MAX
    } else {
        (1u64 << c) - 1
    }
}

impl WordGraph {
    /// Gathers `adj` restricted to `alive` (at most 64 members) by one
    /// bit test per pair; returns it with the mask of all its vertices.
    fn gather(adj: &BitMatrix, alive: &Bitset) -> (WordGraph, u64) {
        let mut g = WordGraph {
            rows: [0; 64],
            map: [0; 64],
        };
        let mut c = 0;
        for v in alive.iter() {
            g.map[c] = v as u32;
            c += 1;
        }
        let map = &g.map[..c];
        for (row_out, &v) in g.rows.iter_mut().zip(map) {
            let row = adj.row(v as usize);
            let mut r = 0u64;
            for (j, &u) in map.iter().enumerate() {
                let u = u as usize;
                r |= (row[u / 64] >> (u % 64) & 1) << j;
            }
            *row_out = r;
        }
        (g, low_mask(c))
    }

    /// Pushes the matrix indices of `set` onto `cover`, ascending.
    fn push_all(&self, mut set: u64, cover: &mut Vec<u32>) {
        while set != 0 {
            cover.push(self.map[set.trailing_zeros() as usize]);
            set &= set - 1;
        }
    }

    /// [`VcSolver::kernelize`] on a mask: the same rules in the same
    /// order, degrees by `popcount(rows[v] & alive)`.
    fn kernelize(
        &self,
        alive: &mut u64,
        k: &mut i64,
        cover: &mut Vec<u32>,
        reductions: &mut u64,
    ) -> Option<Kernelized> {
        loop {
            if *k < 0 {
                return None;
            }
            let mut changed = false;
            let mut m2 = 0usize;
            let mut max_v = usize::MAX;
            let mut max_d = 0usize;
            let mut w = *alive;
            while w != 0 {
                let v = w.trailing_zeros() as usize;
                w &= w - 1;
                if *alive & 1 << v == 0 {
                    continue; // removed earlier in this sweep
                }
                let nbrs = self.rows[v] & *alive;
                let d = nbrs.count_ones() as usize;
                if d == 0 {
                    *alive &= !(1 << v);
                    *reductions += 1;
                    changed = true;
                } else if d as i64 > *k {
                    cover.push(self.map[v]);
                    *alive &= !(1 << v);
                    *reductions += 1;
                    *k -= 1;
                    changed = true;
                    if *k < 0 {
                        return None;
                    }
                } else if d == 1 {
                    let u = nbrs.trailing_zeros() as usize;
                    cover.push(self.map[u]);
                    *alive &= !(1 << u | 1 << v);
                    *reductions += 2;
                    *k -= 1;
                    changed = true;
                } else if d == 2
                    && self.rows[nbrs.trailing_zeros() as usize] & (nbrs & (nbrs - 1)) != 0
                {
                    // Non-merging degree-2 rule: the two neighbours are
                    // adjacent, so take both.
                    self.push_all(nbrs, cover);
                    *alive &= !(nbrs | 1 << v);
                    *reductions += 3;
                    *k -= 2;
                    changed = true;
                } else {
                    m2 += d;
                    if d > max_d {
                        max_d = d;
                        max_v = v;
                    }
                }
            }
            if !changed {
                return Some(Kernelized {
                    m: m2 / 2,
                    max_v,
                    max_d,
                });
            }
        }
    }

    /// [`VcSolver::solve_paths_cycles`] on a mask: path walks from the
    /// endpoints first, then the cycles, pushing the same vertices in the
    /// same order. On failure the caller restores `cover`.
    fn paths_cycles(&self, alive: u64, mut k: i64, cover: &mut Vec<u32>) -> bool {
        let mut seen = 0u64;
        // The walk's next vertex is the lowest unseen alive neighbour;
        // the previous one is always seen already.
        let next = |cur: usize, seen: u64| self.rows[cur] & alive & !seen;
        let mut starts = alive;
        while starts != 0 {
            let v = starts.trailing_zeros() as usize;
            starts &= starts - 1;
            if seen & 1 << v != 0 || (self.rows[v] & alive).count_ones() > 1 {
                continue;
            }
            // Take every second vertex of the path.
            let (mut cur, mut odd) = (v, false);
            loop {
                seen |= 1 << cur;
                if odd {
                    cover.push(self.map[cur]);
                    k -= 1;
                }
                let nx = next(cur, seen);
                if nx == 0 {
                    break;
                }
                cur = nx.trailing_zeros() as usize;
                odd = !odd;
            }
            if k < 0 {
                return false;
            }
        }
        let mut starts = alive;
        while starts != 0 {
            let v = starts.trailing_zeros() as usize;
            starts &= starts - 1;
            if seen & 1 << v != 0 {
                continue;
            }
            // A cycle of length L needs ceil(L/2): odd positions, plus
            // the last vertex when L is odd.
            let (mut cur, mut len) = (v, 0usize);
            loop {
                seen |= 1 << cur;
                if len % 2 == 1 {
                    cover.push(self.map[cur]);
                    k -= 1;
                }
                len += 1;
                let nx = next(cur, seen);
                if nx == 0 {
                    break;
                }
                cur = nx.trailing_zeros() as usize;
            }
            if len % 2 == 1 && len > 1 {
                cover.push(self.map[cur]);
                k -= 1;
            }
            if k < 0 {
                return false;
            }
        }
        true
    }
}

/// Verifies `cover` touches every edge of the alive subgraph (tests).
pub fn is_vertex_cover(adj: &BitMatrix, alive: &Bitset, cover: &[u32]) -> bool {
    let mut covered = vec![false; adj.len()];
    for &v in cover {
        covered[v as usize] = true;
    }
    for u in alive.iter() {
        for w in 0..adj.len() {
            if alive.contains(w) && adj.has_edge(u, w) && !covered[u] && !covered[w] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::live::SAMPLE_INTERVAL;
    use crate::test_util::{exact_clique, pseudo_graph, stop_at, test_pool, thread_allocs};
    use crate::Split;
    use lazymc_sched::TaskMeta;

    fn from_edges(n: usize, edges: &[(usize, usize)]) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        for &(u, v) in edges {
            m.add_edge(u, v);
        }
        m
    }

    /// The sequential decision on the whole matrix.
    fn decide(m: &BitMatrix, k: usize, stats: Option<&mut VcStats>) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        vertex_cover_decision(
            m,
            &Bitset::full(m.len()),
            k,
            Run::default(),
            stats,
            &mut out,
        )
        .found
        .then_some(out)
    }

    /// The sequential clique-via-VC pipeline.
    fn via_vc(m: &BitMatrix, lb: usize) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        max_clique_via_vc(m, lb, Run::default(), None, &mut out).then_some(out)
    }

    /// A run split at `width` on the shared test pool.
    fn split_run(pool: &lazymc_sched::SchedHandle, width: usize) -> Run<'_> {
        Run {
            split: Some(Split {
                sched: pool,
                meta: TaskMeta::adhoc(),
                width,
            }),
            ..Run::default()
        }
    }

    #[test]
    fn single_edge_needs_one() {
        let m = from_edges(2, &[(0, 1)]);
        assert!(decide(&m, 1, None).is_some());
        assert!(decide(&m, 0, None).is_none());
    }

    #[test]
    fn triangle_needs_two() {
        let m = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(decide(&m, 1, None).is_none());
        let c = decide(&m, 2, None).unwrap();
        assert!(is_vertex_cover(&m, &Bitset::full(3), &c));
        assert!(c.len() <= 2);
    }

    #[test]
    fn star_needs_one() {
        let m = from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let c = decide(&m, 1, None).unwrap();
        assert_eq!(c, vec![0]);
    }

    #[test]
    fn path_cover_sizes() {
        // P_n needs floor(n/2)
        for n in 2..10usize {
            let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let m = from_edges(n, &edges);
            let mvc = min_vertex_cover(&m, None);
            assert_eq!(mvc.len(), n / 2, "path n={n}");
            assert!(is_vertex_cover(&m, &Bitset::full(n), &mvc));
        }
    }

    #[test]
    fn cycle_cover_sizes() {
        // C_n needs ceil(n/2)
        for n in 3..10usize {
            let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            edges.push((n - 1, 0));
            let m = from_edges(n, &edges);
            let mvc = min_vertex_cover(&m, None);
            assert_eq!(mvc.len(), n.div_ceil(2), "cycle n={n}");
            assert!(is_vertex_cover(&m, &Bitset::full(n), &mvc));
        }
    }

    #[test]
    fn complete_graph_cover_is_n_minus_one() {
        for n in 2..8usize {
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    edges.push((u, v));
                }
            }
            let m = from_edges(n, &edges);
            assert_eq!(min_vertex_cover(&m, None).len(), n - 1, "K{n}");
        }
    }

    #[test]
    fn empty_graph_cover_is_empty() {
        let m = BitMatrix::new(5);
        assert!(min_vertex_cover(&m, None).is_empty());
        assert!(decide(&m, 0, None).is_some());
    }

    #[test]
    fn clique_via_vc_matches_direct() {
        // assorted small graphs
        let graphs = vec![
            from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
            from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]),
            from_edges(4, &[]),
        ];
        for m in graphs {
            let direct = exact_clique(&m);
            let via = via_vc(&m, 0).unwrap_or_default();
            // edgeless graphs: ω = 1 > lb = 0, both should find a vertex
            assert_eq!(direct.len(), via.len().max(direct.len().min(via.len())));
            assert_eq!(direct.len(), via.len());
            assert!(m.is_clique(&via));
        }
    }

    #[test]
    fn clique_via_vc_respects_lower_bound() {
        let m = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(via_vc(&m, 3).is_none());
        assert_eq!(via_vc(&m, 2).unwrap().len(), 3);
    }

    #[test]
    fn matching_bound_is_a_lower_bound() {
        let m = from_edges(6, &[(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)]);
        let alive = Bitset::full(6);
        let lb = matching_lower_bound(&m, &alive);
        let mvc = min_vertex_cover(&m, None).len();
        assert!(lb <= mvc);
    }

    #[test]
    fn stats_accumulate() {
        let m = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let mut st = VcStats::default();
        let _ = min_vertex_cover(&m, Some(&mut st));
        assert!(st.nodes > 0);
    }

    #[test]
    fn kernelization_reductions_counted() {
        // A star kernelizes entirely (degree-1 rule): reductions > 0.
        let m = from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mut st = VcStats::default();
        let c = decide(&m, 1, Some(&mut st)).unwrap();
        assert_eq!(c, vec![0]);
        assert!(st.reductions > 0);
    }

    #[test]
    fn parallel_decision_matches_sequential() {
        let pool = test_pool();
        for (n, p, seed) in [(50, 120, 3), (64, 200, 17), (40, 300, 9)] {
            let m = pseudo_graph(n, p, seed);
            let alive = Bitset::full(n);
            let mvc = min_vertex_cover(&m, None).len();
            let decide =
                |k: usize, threads: usize, st: Option<&mut VcStats>, out: &mut Vec<u32>| {
                    vertex_cover_decision(&m, &alive, k, split_run(&pool, threads), st, out)
                };
            for threads in [2, 4, 8] {
                let mut out = Vec::new();
                // Exactly at the optimum: must succeed with a valid cover.
                let mut st = VcStats::default();
                assert!(
                    decide(mvc, threads, Some(&mut st), &mut out).found,
                    "n={n} threads={threads} k={mvc}"
                );
                assert!(out.len() <= mvc);
                assert!(is_vertex_cover(&m, &alive, &out));
                assert!(st.nodes > 0);
                // One below: must fail, unanimously.
                if mvc > 0 {
                    assert!(!decide(mvc - 1, threads, None, &mut out).found);
                    assert!(out.is_empty());
                }
            }
        }
    }

    #[test]
    fn parallel_clique_via_vc_matches_sequential() {
        let pool = test_pool();
        for (n, p, seed) in [(48, 780, 5), (64, 850, 23)] {
            let m = pseudo_graph(n, p, seed);
            let omega = exact_clique(&m).len();
            for threads in [2, 4] {
                let run = split_run(&pool, threads);
                let mut out = Vec::new();
                let mut st = VcStats::default();
                assert!(max_clique_via_vc(&m, 0, run, Some(&mut st), &mut out));
                assert_eq!(out.len(), omega, "n={n} threads={threads}");
                assert!(m.is_clique(&out));
                // lb suppression must agree too.
                assert!(!max_clique_via_vc(&m, omega, run, None, &mut out));
            }
        }
    }

    #[test]
    fn abortable_decision_stops_on_trigger() {
        let m = pseudo_graph(60, 250, 7);
        let alive = Bitset::full(60);
        let abort = SearchAbort::new();
        abort.trigger();
        let mut scratch = VcScratch::default();
        let mut out = Vec::new();
        // Pre-triggered: the search unwinds immediately (nodes == 0) and
        // its `false` is non-authoritative by contract.
        let mut solver = VcSolver::new(&m, &mut scratch, SharedAbort(&abort), Run::default());
        assert!(!solver.decide(&alive, 60, &mut out));
        assert_eq!(solver.stats.nodes, 0);
    }

    #[test]
    fn parallel_vc_worker_is_allocation_free_after_warmup() {
        // The body of a split decision worker: with a warm arena, polling
        // the abort flag and the full kernelize/branch/path-cycle
        // machinery must not allocate.
        let adj = pseudo_graph(90, 250, 17);
        let alive = Bitset::full(adj.len());
        let mvc = min_vertex_cover(&adj, None).len();
        let abort = SearchAbort::new();
        let mut scratch = VcScratch::default();
        let mut cover = Vec::new();
        let mut both = || {
            // The word kernel, and the wide one all the way down.
            for word_cutoff in [WORD_CUTOFF, 0] {
                let mut solver =
                    VcSolver::new(&adj, &mut scratch, SharedAbort(&abort), Run::default());
                solver.word_cutoff = word_cutoff;
                // At the optimum (success path) and one below (failure path).
                assert!(solver.decide(&alive, mvc, &mut cover));
                assert!(!solver.decide(&alive, mvc - 1, &mut cover));
            }
        };

        both();
        let before = thread_allocs();
        both();
        let allocs = thread_allocs() - before;
        assert_eq!(
            allocs, 0,
            "parallel k-VC worker allocated {allocs} times after warm-up"
        );
    }

    #[test]
    fn scratch_reuse_across_solves_and_sizes() {
        // The pooled pipeline through subgraphs of different sizes must
        // match the direct engine exactly.
        let graphs = vec![
            from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
            from_edges(70, &[(0, 69), (69, 35), (35, 0), (1, 2)]),
            from_edges(3, &[(0, 1), (1, 2), (2, 0)]),
            from_edges(4, &[]),
        ];
        for m in &graphs {
            let out = via_vc(m, 0).expect("omega >= 1");
            assert_eq!(out.len(), exact_clique(m).len(), "graph {m:?}");
            assert!(m.is_clique(&out));
        }
        // lb suppression
        let mut out = vec![7];
        assert!(!max_clique_via_vc(
            &graphs[2],
            3,
            Run::default(),
            None,
            &mut out
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn low_mask_spells_out_the_full_word() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(63), u64::MAX >> 1);
        assert_eq!(low_mask(64), u64::MAX);
    }

    /// The sequential decision and pipeline with the word kernel from
    /// [`WORD_CUTOFF`] live vertices, and with 0, which keeps every
    /// non-empty node on the wide kernel: the same outcome, cover and
    /// statistics on G(n, p) on both sides of 64 vertices. Debug builds
    /// run a small sweep, release builds the full one.
    #[test]
    fn word_kernel_matches_wide_kernel() {
        let (sizes, densities): (Vec<usize>, &[u64]) = if cfg!(debug_assertions) {
            (
                vec![1, 2, 3, 8, 21, 40, 63, 64, 65, 70],
                &[50, 300, 500, 700, 950],
            )
        } else {
            let mut sizes: Vec<usize> = (1..=70).collect();
            sizes.extend([80, 90, 100, 115, 130]);
            (sizes, &[50, 150, 300, 500, 700, 850, 950])
        };
        for n in sizes {
            for &p in densities {
                let seed = 1000 * n as u64 + p;
                let m = pseudo_graph(n, p, seed);
                let all = Bitset::full(n);
                let mvc = min_vertex_cover(&m, None).len();
                for k in [mvc.checked_sub(1), Some(mvc)].into_iter().flatten() {
                    let run = |word_cutoff| {
                        let (mut st, mut out) = (VcStats::default(), Vec::new());
                        let d = decision(
                            &m,
                            &all,
                            k,
                            Run::default(),
                            word_cutoff,
                            Some(&mut st),
                            &mut out,
                        );
                        (d, out, st)
                    };
                    let word = run(WORD_CUTOFF);
                    assert_eq!(word.0.found, k == mvc, "n={n} p={p} k={k}");
                    assert_eq!(run(0), word, "decision n={n} p={p} seed={seed} k={k}");
                }
                let omega = exact_clique(&m).len();
                for lb in [0, omega.saturating_sub(1), omega] {
                    let run = |word_cutoff| {
                        let (mut st, mut out) = (VcStats::default(), Vec::new());
                        let found = clique_via_vc(
                            &m,
                            lb,
                            Run::default(),
                            word_cutoff,
                            Some(&mut st),
                            &mut out,
                        );
                        (found, out, st)
                    };
                    let word = run(WORD_CUTOFF);
                    assert_eq!(word.0, omega > lb, "n={n} p={p} lb={lb}");
                    assert_eq!(run(0), word, "pipeline n={n} p={p} seed={seed} lb={lb}");
                }
            }
        }
    }

    #[test]
    fn stop_halts_a_decision_within_its_polls() {
        // One below its minimum cover (85): a search of 119k nodes.
        let m = pseudo_graph(110, 150, 117);
        let alive = Bitset::full(110);
        const POLLS: u64 = 3;
        let pool = test_pool();
        for width in [1, 2] {
            let stop = stop_at(POLLS as usize);
            let run = Run {
                stop: Some(&stop),
                ..split_run(&pool, width)
            };
            let mut st = VcStats::default();
            let mut out = Vec::new();
            let d = vertex_cover_decision(&m, &alive, 84, run, Some(&mut st), &mut out);
            assert!(d.stopped && !d.found && out.is_empty(), "width {width}");
            if width == 1 {
                // The sequential kernel stops at exactly its last poll.
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
