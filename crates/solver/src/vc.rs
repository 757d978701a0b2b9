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
//! Like the MC engine, the search keeps all per-depth state (the alive set
//! of every branch level, the row/seen scratch of the kernelization and
//! path/cycle solvers) in a reusable [`VcScratch`] arena, and the whole
//! clique-via-VC pipeline (complement matrix included) in a
//! [`VcSolveScratch`] — zero steady-state heap allocation per node.

use crate::bitset::{BitMatrix, Bitset};
use crate::live::LiveNodes;
use crate::par::{SearchAbort, StopFn};
use crate::scratch::Pool;
use lazymc_sched::{SchedHandle, Scope, TaskMeta};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Search statistics for work accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VcStats {
    /// Branch-and-bound tree nodes expanded.
    pub nodes: u64,
    /// Of `nodes`, how many were already flushed into a [`LiveNodes`]
    /// sink mid-search (see `McStats::sampled`).
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

/// Reusable arena for the k-VC decision search. Hold one per worker; after
/// warm-up no node expansion allocates.
#[derive(Default)]
pub struct VcScratch {
    depths: Vec<VcDepth>,
    row: Bitset,
    seen: Bitset,
    cycle: Vec<u32>,
}

impl VcScratch {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes retained by the arena (pool retention bound).
    pub fn heap_bytes(&self) -> usize {
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

/// Reusable buffers for the full clique-via-VC pipeline: the complement
/// matrix, the decision search arena, and the binary-search bookkeeping.
#[derive(Default)]
pub struct VcSolveScratch {
    comp: BitMatrix,
    search: VcScratch,
    cover: Vec<u32>,
    best_cover: Vec<u32>,
    full: Bitset,
    avail: Bitset,
    row: Bitset,
    in_cover: Vec<bool>,
}

impl VcSolveScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes retained by the whole pipeline scratch.
    pub fn heap_bytes(&self) -> usize {
        self.comp.heap_bytes()
            + self.search.heap_bytes()
            + (self.cover.capacity() + self.best_cover.capacity()) * 4
            + self.full.heap_bytes()
            + self.avail.heap_bytes()
            + self.row.heap_bytes()
            + self.in_cover.capacity()
    }
}

/// Scratch-arena decision: cover of size ≤ `k` for `adj` restricted to
/// `alive`. On success the cover is written to `out` (cleared either way)
/// and `true` is returned. Node counts are sampled into `live` as in
/// `max_clique_dense_scratch`; `LiveNodes::NONE` observes nothing.
pub fn vertex_cover_decision_scratch(
    adj: &BitMatrix,
    alive: &Bitset,
    k: usize,
    stats: Option<&mut VcStats>,
    scratch: &mut VcScratch,
    out: &mut Vec<u32>,
    live: LiveNodes<'_>,
) -> bool {
    out.clear();
    if scratch.depths.is_empty() {
        scratch.depths.push(VcDepth::default());
    }
    scratch.depths[0].alive.copy_from(alive);
    let mut solver = VcSolver {
        adj,
        stats: VcStats::default(),
        scratch,
        abort: NoAbort,
        live,
    };
    let ok = solver.solve(0, k as i64, out);
    let local = solver.stats;
    if let Some(s) = stats {
        s.nodes += local.nodes;
        s.sampled += local.sampled;
        s.reductions += local.reductions;
    }
    if !ok {
        out.clear();
    }
    ok
}

/// [`vertex_cover_decision_scratch`] with a cooperative abort flag — the
/// body of a parallel decision worker. A `false` return obtained while
/// `abort` is triggered is **not** authoritative: another worker already
/// found a cover and this subtree was abandoned mid-search. With a warm
/// `scratch` this performs no heap allocation (the per-worker steady
/// state the zero-alloc tests pin down).
#[allow(clippy::too_many_arguments)]
pub fn vertex_cover_decision_abortable(
    adj: &BitMatrix,
    alive: &Bitset,
    k: usize,
    abort: &SearchAbort,
    stats: Option<&mut VcStats>,
    scratch: &mut VcScratch,
    out: &mut Vec<u32>,
    live: LiveNodes<'_>,
) -> bool {
    out.clear();
    if scratch.depths.is_empty() {
        scratch.depths.push(VcDepth::default());
    }
    scratch.depths[0].alive.copy_from(alive);
    let mut solver = VcSolver {
        adj,
        stats: VcStats::default(),
        scratch,
        abort: SharedAbort(abort),
        live,
    };
    let ok = solver.solve(0, k as i64, out);
    let local = solver.stats;
    if let Some(s) = stats {
        s.merge(&local);
    }
    if !ok {
        out.clear();
    }
    ok
}

/// Decides whether `adj` (restricted to `alive`) has a vertex cover of size
/// at most `k`; on success returns the cover. One-shot convenience over
/// [`vertex_cover_decision_scratch`].
pub fn vertex_cover_decision_within(
    adj: &BitMatrix,
    alive: &Bitset,
    k: usize,
    stats: Option<&mut VcStats>,
) -> Option<Vec<u32>> {
    let mut scratch = VcScratch::default();
    let mut cover = Vec::new();
    vertex_cover_decision_scratch(
        adj,
        alive,
        k,
        stats,
        &mut scratch,
        &mut cover,
        LiveNodes::NONE,
    )
    .then_some(cover)
}

/// Decides whether the whole graph has a vertex cover of size ≤ `k`.
pub fn vertex_cover_decision(
    adj: &BitMatrix,
    k: usize,
    stats: Option<&mut VcStats>,
) -> Option<Vec<u32>> {
    vertex_cover_decision_within(adj, &Bitset::full(adj.len()), k, stats)
}

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
    let mut scratch = VcScratch::default();
    let mut cover = Vec::new();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if vertex_cover_decision_scratch(
            adj,
            &alive,
            mid,
            Some(&mut local),
            &mut scratch,
            &mut cover,
            LiveNodes::NONE,
        ) {
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

/// Scratch-arena maximum clique of `adj` via minimum vertex cover of the
/// complement. Writes the witness into `out` and returns whether a clique
/// larger than `lb` exists. With a warm `scratch`, the entire pipeline —
/// complement matrix included — performs no heap allocation. Node counts
/// are sampled into `live` as in `max_clique_dense_scratch`.
pub fn max_clique_via_vc_scratch(
    adj: &BitMatrix,
    lb: usize,
    stats: Option<&mut VcStats>,
    scratch: &mut VcSolveScratch,
    out: &mut Vec<u32>,
    live: LiveNodes<'_>,
) -> bool {
    max_clique_via_vc_pipeline(
        adj,
        lb,
        stats,
        scratch,
        out,
        |comp, full, k, search, local, cover| VcSchedDecision {
            found: vertex_cover_decision_scratch(comp, full, k, Some(local), search, cover, live),
            stopped: false,
        },
    )
}

/// The one clique-via-VC pipeline behind every entry point: complement,
/// initial decision at `k0 = n - lb - 1`, then a binary-search refinement
/// to the true minimum. Only the *decision* call differs between drivers,
/// so the caller passes it in as `decide(complement, alive, k, arena,
/// stats, cover)`. A decision that reports `stopped` (deadline trip or
/// cancellation) ends the refinement early; the witness is then the best
/// one found so far, and the caller marks the solve truncated.
fn max_clique_via_vc_pipeline(
    adj: &BitMatrix,
    lb: usize,
    stats: Option<&mut VcStats>,
    scratch: &mut VcSolveScratch,
    out: &mut Vec<u32>,
    mut decide: impl FnMut(
        &BitMatrix,
        &Bitset,
        usize,
        &mut VcScratch,
        &mut VcStats,
        &mut Vec<u32>,
    ) -> VcSchedDecision,
) -> bool {
    out.clear();
    let n = adj.len();
    if n == 0 || n <= lb {
        return false;
    }
    adj.complement_into(&mut scratch.comp);
    scratch.full.reset_full(n);
    let mut local = VcStats::default();
    let VcSolveScratch {
        comp,
        search,
        cover,
        best_cover,
        full,
        avail,
        row,
        in_cover,
    } = scratch;
    // ω > lb ⟺ minVC(complement) <= n - lb - 1.
    let first = decide(comp, full, n - lb - 1, search, &mut local, cover);
    if !first.found {
        if let Some(s) = stats {
            s.merge(&local);
        }
        return false;
    }
    let mut halted = first.stopped;
    std::mem::swap(best_cover, cover);
    // Refine: binary search down to the true minimum to maximize the clique.
    let mut lo = matching_lower_bound_scratch(comp, full, avail, row);
    let mut hi = best_cover.len();
    while lo < hi && !halted {
        let mid = lo + (hi - lo) / 2;
        let d = decide(comp, full, mid, search, &mut local, cover);
        halted = d.stopped;
        if d.found {
            hi = cover.len().min(mid);
            std::mem::swap(best_cover, cover);
        } else {
            lo = mid + 1;
        }
    }
    if let Some(s) = stats {
        s.merge(&local);
    }
    in_cover.clear();
    in_cover.resize(n, false);
    for &v in best_cover.iter() {
        in_cover[v as usize] = true;
    }
    out.extend((0..n as u32).filter(|&v| !in_cover[v as usize]));
    debug_assert!(adj.is_clique(out));
    true
}

/// Maximum clique of `adj` via minimum vertex cover of the complement.
///
/// Returns `Some(clique)` with `clique.len() = ω > lb`, or `None` when
/// `ω <= lb`. This is the paper's per-neighbourhood algorithmic choice: the
/// initial decision call alone discharges most neighbourhoods; only when a
/// better clique exists does the binary search refine to the exact optimum.
/// One-shot convenience over [`max_clique_via_vc_scratch`].
pub fn max_clique_via_vc(
    adj: &BitMatrix,
    lb: usize,
    stats: Option<&mut VcStats>,
) -> Option<Vec<u32>> {
    let mut scratch = VcSolveScratch::default();
    let mut out = Vec::new();
    max_clique_via_vc_scratch(adj, lb, stats, &mut scratch, &mut out, LiveNodes::NONE)
        .then_some(out)
}

// ---------------------------------------------------------------------------
// Work-splitting driver on the machine-wide scheduler
// ---------------------------------------------------------------------------

/// Below this many alive vertices a parallel decision is not worth
/// splitting: the subtree tasks would cost more to generate and claim
/// than to run.
const VC_SPLIT_MIN_VERTICES: usize = 32;

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

/// Arenas grown past this bound by an outlier instance are dropped on
/// return instead of pinned in the static pools for the process lifetime.
const MAX_RETAINED_PAR_BYTES: usize = 8 << 20;

static VC_WORKER: Pool<VcWorkerScratch> =
    Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_PAR_BYTES);
static VC_SPLIT: Pool<VcSplitScratch> =
    Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_PAR_BYTES);

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

/// Outcome of one decision of the clique-via-VC pipeline. `found = false`
/// with `stopped = true` is *not* authoritative — the solve was halted by
/// its deadline or cancellation mid-search. Scratch-kernel decisions never
/// stop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VcSchedDecision {
    pub found: bool,
    pub stopped: bool,
}

/// Decision (`cover of size ≤ k`?) on the machine-wide scheduler: the top
/// [`VC_SPLIT_LEVELS`] branch levels become claimable scope units that
/// any idle pool worker can execute under this job's [`SearchAbort`].
/// Units re-split deeper when the pool reports idle capacity, and
/// `should_stop` (deadline / cancellation) trips the abort so every
/// stolen subtree terminates at its next node.
///
/// `width <= 1` runs the bit-identical sequential kernel.
#[allow(clippy::too_many_arguments)]
pub fn vertex_cover_decision_sched(
    adj: &BitMatrix,
    alive: &Bitset,
    k: usize,
    sched: &SchedHandle,
    meta: TaskMeta,
    width: usize,
    should_stop: Option<StopFn<'_>>,
    stats: Option<&mut VcStats>,
    out: &mut Vec<u32>,
    sink: LiveNodes<'_>,
) -> VcSchedDecision {
    out.clear();
    if width <= 1 || alive.len() < VC_SPLIT_MIN_VERTICES {
        let found = VC_WORKER.with(|w| {
            vertex_cover_decision_scratch(adj, alive, k, stats, &mut w.search, out, sink)
        });
        return VcSchedDecision {
            found,
            stopped: false,
        };
    }
    let mut local = VcStats::default();
    let mut split = VC_SPLIT.take();
    while split.levels.len() < VC_SPLIT_LEVELS + 1 {
        split.levels.push(Bitset::default());
    }
    let (solved, live) = {
        let VcSplitScratch {
            gen,
            levels,
            picks,
            tasks,
        } = &mut *split;
        picks.clear();
        levels[0].copy_from(alive);
        let mut solver = VcSolver {
            adj,
            stats: VcStats::default(),
            scratch: gen,
            abort: NoAbort,
            live: sink,
        };
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
    let mut decision = VcSchedDecision::default();
    if solved {
        decision.found = true;
    } else if live > 0 {
        let abort = SearchAbort::new();
        let stopped = AtomicBool::new(false);
        let winner: Mutex<Option<Vec<u32>>> = Mutex::new(None);
        let arena = Mutex::new(VcArena {
            tasks: std::mem::take(&mut split.tasks),
            live,
        });
        let agg = Mutex::new(VcStats::default());
        sched.scope(meta, width - 1, live, &|sc, i| {
            vc_sched_unit(
                adj,
                &arena,
                i,
                &abort,
                &stopped,
                &winner,
                should_stop,
                &agg,
                sc,
                sink,
            );
        });
        local.merge(&agg.into_inner().unwrap());
        split.tasks = arena.into_inner().unwrap().tasks;
        decision.stopped = stopped.load(Ordering::Relaxed);
        if let Some(cover) = winner.into_inner().unwrap() {
            out.clear();
            out.extend_from_slice(&cover);
            decision.found = true;
        }
    }
    VC_SPLIT.put(split);
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
/// the abortable kernel on it.
#[allow(clippy::too_many_arguments)]
fn vc_sched_unit(
    adj: &BitMatrix,
    arena: &Mutex<VcArena>,
    i: usize,
    abort: &SearchAbort,
    stopped: &AtomicBool,
    winner: &Mutex<Option<Vec<u32>>>,
    should_stop: Option<StopFn<'_>>,
    agg: &Mutex<VcStats>,
    sc: &Scope<'_>,
    sink: LiveNodes<'_>,
) {
    let mut stats = VcStats::default();
    if sc.is_helper() {
        stats.steals += 1;
    }
    if let Some(stop) = should_stop {
        if !abort.triggered() && stop() {
            stopped.store(true, Ordering::Relaxed);
            abort.trigger();
        }
    }
    if !abort.triggered() {
        let t = {
            let mut g = arena.lock().unwrap();
            std::mem::take(&mut g.tasks[i])
        };
        let room = arena.lock().unwrap().live < VC_SCHED_MAX_TASKS;
        if t.alive.len() >= VC_SPLIT_MIN_VERTICES && room && sc.idle_workers() > 0 {
            resplit_vc_task(adj, arena, &t, abort, winner, sc, &mut stats, sink);
        } else {
            let mut w = VC_WORKER.take();
            let ok = vertex_cover_decision_abortable(
                adj,
                &t.alive,
                t.k as usize,
                abort,
                Some(&mut stats),
                &mut w.search,
                &mut w.cover,
                sink,
            );
            if ok {
                publish_vc_winner(winner, &t.picks, &w.cover, abort, &mut stats);
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
    sink: LiveNodes<'_>,
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
        let mut solver = VcSolver {
            adj,
            stats: VcStats::default(),
            scratch: gen,
            abort: NoAbort,
            live: sink,
        };
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

/// Maximum clique via minimum vertex cover of the complement on the
/// machine-wide scheduler: the pipeline of [`max_clique_via_vc_scratch`],
/// with every decision fanned out as scope units by
/// [`vertex_cover_decision_sched`]. A deadline/cancellation stop ends the
/// refinement early — the result is then the best witness found so far
/// (the caller marks the solve truncated).
#[allow(clippy::too_many_arguments)]
pub fn max_clique_via_vc_sched(
    adj: &BitMatrix,
    lb: usize,
    sched: &SchedHandle,
    meta: TaskMeta,
    width: usize,
    should_stop: Option<StopFn<'_>>,
    stats: Option<&mut VcStats>,
    scratch: &mut VcSolveScratch,
    out: &mut Vec<u32>,
    live: LiveNodes<'_>,
) -> bool {
    max_clique_via_vc_pipeline(
        adj,
        lb,
        stats,
        scratch,
        out,
        |comp, full, k, _search, local, cover| {
            vertex_cover_decision_sched(
                comp,
                full,
                k,
                sched,
                meta,
                width,
                should_stop,
                Some(local),
                cover,
                live,
            )
        },
    )
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
    live: LiveNodes<'a>,
}

/// Outcome of a kernelization fixpoint.
struct Kernelized {
    /// Undirected edges remaining.
    m: usize,
    /// A maximum-degree alive vertex (valid when `m > 0`).
    max_v: usize,
    /// Its degree.
    max_d: usize,
}

impl<A: AbortLink> VcSolver<'_, A> {
    /// Decision: cover of size ≤ k for the alive set the caller placed in
    /// `scratch.depths[depth].alive`. On success the chosen vertices are
    /// appended to `cover`; on failure `cover` is restored to its length
    /// at entry. When the abort link fires, the search unwinds with
    /// `false` — a result the *caller* must treat as non-authoritative.
    fn solve(&mut self, depth: usize, k: i64, cover: &mut Vec<u32>) -> bool {
        if self.abort.aborted() {
            return false;
        }
        self.stats.nodes += 1;
        self.live.tick(self.stats.nodes, &mut self.stats.sampled);
        while self.scratch.depths.len() <= depth + 1 {
            // First visit to this depth (warm-up): grow the arena.
            self.scratch.depths.push(VcDepth::default());
        }
        let mut d = std::mem::take(&mut self.scratch.depths[depth]);
        let ok = self.solve_with(depth, &mut d.alive, k, cover);
        self.scratch.depths[depth] = d;
        ok
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

    fn from_edges(n: usize, edges: &[(usize, usize)]) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        for &(u, v) in edges {
            m.add_edge(u, v);
        }
        m
    }

    #[test]
    fn single_edge_needs_one() {
        let m = from_edges(2, &[(0, 1)]);
        assert!(vertex_cover_decision(&m, 1, None).is_some());
        assert!(vertex_cover_decision(&m, 0, None).is_none());
    }

    #[test]
    fn triangle_needs_two() {
        let m = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(vertex_cover_decision(&m, 1, None).is_none());
        let c = vertex_cover_decision(&m, 2, None).unwrap();
        assert!(is_vertex_cover(&m, &Bitset::full(3), &c));
        assert!(c.len() <= 2);
    }

    #[test]
    fn star_needs_one() {
        let m = from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let c = vertex_cover_decision(&m, 1, None).unwrap();
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
        assert!(vertex_cover_decision(&m, 0, None).is_some());
    }

    #[test]
    fn clique_via_vc_matches_direct() {
        use crate::mc::max_clique_exact;
        // assorted small graphs
        let graphs = vec![
            from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
            from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]),
            from_edges(4, &[]),
        ];
        for m in graphs {
            let direct = max_clique_exact(&m);
            let via = max_clique_via_vc(&m, 0, None).unwrap_or_default();
            // edgeless graphs: ω = 1 > lb = 0, both should find a vertex
            assert_eq!(direct.len(), via.len().max(direct.len().min(via.len())));
            assert_eq!(direct.len(), via.len());
            assert!(m.is_clique(&via));
        }
    }

    #[test]
    fn clique_via_vc_respects_lower_bound() {
        let m = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(max_clique_via_vc(&m, 3, None).is_none());
        assert_eq!(max_clique_via_vc(&m, 2, None).unwrap().len(), 3);
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
        let c = vertex_cover_decision(&m, 1, Some(&mut st)).unwrap();
        assert_eq!(c, vec![0]);
        assert!(st.reductions > 0);
    }

    use crate::test_util::{pseudo_graph, test_pool};

    #[test]
    fn parallel_decision_matches_sequential() {
        let pool = test_pool();
        for (n, p, seed) in [(50, 120, 3), (64, 200, 17), (40, 300, 9)] {
            let m = pseudo_graph(n, p, seed);
            let alive = Bitset::full(n);
            let mvc = min_vertex_cover(&m, None).len();
            let decide =
                |k: usize, threads: usize, st: Option<&mut VcStats>, out: &mut Vec<u32>| {
                    vertex_cover_decision_sched(
                        &m,
                        &alive,
                        k,
                        &pool,
                        TaskMeta::adhoc(),
                        threads,
                        None,
                        st,
                        out,
                        LiveNodes::NONE,
                    )
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
        use crate::mc::max_clique_exact;
        let pool = test_pool();
        for (n, p, seed) in [(48, 780, 5), (64, 850, 23)] {
            let m = pseudo_graph(n, p, seed);
            let omega = max_clique_exact(&m).len();
            for threads in [2, 4] {
                let mut scratch = VcSolveScratch::new();
                let mut out = Vec::new();
                let mut st = VcStats::default();
                let mut solve = |lb: usize, st: Option<&mut VcStats>, out: &mut Vec<u32>| {
                    max_clique_via_vc_sched(
                        &m,
                        lb,
                        &pool,
                        TaskMeta::adhoc(),
                        threads,
                        None,
                        st,
                        &mut scratch,
                        out,
                        LiveNodes::NONE,
                    )
                };
                assert!(solve(0, Some(&mut st), &mut out));
                assert_eq!(out.len(), omega, "n={n} threads={threads}");
                assert!(m.is_clique(&out));
                // lb suppression must agree too.
                assert!(!solve(omega, None, &mut out));
            }
        }
    }

    #[test]
    fn abortable_decision_stops_on_trigger() {
        let m = pseudo_graph(60, 250, 7);
        let alive = Bitset::full(60);
        let abort = SearchAbort::new();
        abort.trigger();
        let mut scratch = VcScratch::new();
        let mut out = Vec::new();
        let mut st = VcStats::default();
        // Pre-triggered: the search unwinds immediately (nodes == 0) and
        // its `false` is non-authoritative by contract.
        let ok = vertex_cover_decision_abortable(
            &m,
            &alive,
            60,
            &abort,
            Some(&mut st),
            &mut scratch,
            &mut out,
            LiveNodes::NONE,
        );
        assert!(!ok);
        assert_eq!(st.nodes, 0);
    }

    #[test]
    fn scratch_reuse_across_solves_and_sizes() {
        // One scratch through subgraphs of different sizes must match the
        // fresh-scratch answers exactly.
        let mut scratch = VcSolveScratch::new();
        let mut out = Vec::new();
        let graphs = vec![
            from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
            from_edges(70, &[(0, 69), (69, 35), (35, 0), (1, 2)]),
            from_edges(3, &[(0, 1), (1, 2), (2, 0)]),
            from_edges(4, &[]),
        ];
        for m in &graphs {
            let expect = max_clique_via_vc(m, 0, None).unwrap();
            assert!(max_clique_via_vc_scratch(
                m,
                0,
                None,
                &mut scratch,
                &mut out,
                LiveNodes::NONE,
            ));
            assert_eq!(out.len(), expect.len(), "graph {m:?}");
            assert!(m.is_clique(&out));
        }
        // lb suppression
        assert!(!max_clique_via_vc_scratch(
            &graphs[2],
            3,
            None,
            &mut scratch,
            &mut out,
            LiveNodes::NONE,
        ));
        assert!(out.is_empty());
    }
}
