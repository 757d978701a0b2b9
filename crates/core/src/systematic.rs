//! Systematic search — paper Algorithms 7 and 8.
//!
//! The exhaustive phase: every vertex whose coreness can still beat the
//! incumbent gets its right-neighbourhood searched. The order is the crux
//! of the work-avoidance story:
//!
//! 1. a cheap *probe* pass touches one vertex per degeneracy level (helps
//!    gap-heavy graphs lift the incumbent early);
//! 2. the main sweep walks coreness levels from high to low — *must*
//!    vertices first, then *may* vertices — processing all vertices of a
//!    level in parallel; as the incumbent grows, whole levels vanish.
//!
//! Both passes, and every subtree split inside a neighbourhood solve, run
//! on one `lazymc_sched` work-stealing pool: the daemon's, or for library
//! solves the process-wide pool created on first use.
//!
//! Each right-neighbourhood passes three advance filters before any
//! detailed search (Alg. 8): a coreness filter, then two rounds of
//! induced-degree filtering. Only a few neighbourhoods in a thousand
//! survive (paper Table III); survivors are solved by direct MC or by k-VC
//! on the complement, chosen by density.
//!
//! The induced-degree rounds run on one of two paths, picked per
//! neighbourhood from its candidate count and θ (`bitrows`): small or
//! tight candidate sets probe per pair with `intersect-size-gt-bool`/`-val`
//! (`filter_probes`); larger ones build their bit rows once and count by
//! popcount (`filter_rows`), then hand the detailed search its matrix by
//! compacting the surviving rows. Both compute the same survivors, m̂ and
//! matrix, so the funnel, the engine choice and every node count are the
//! same on either path.

use crate::bitrows::{self, RowBuilder, MAX_RETAINED_ARENA_BYTES};
use crate::config::{hardware_threads, Config};
use crate::incumbent::Incumbent;
use crate::metrics::Counters;
use lazymc_graph::VertexId;
use lazymc_hopscotch::HopscotchSet;
use lazymc_intersect::{intersect_size_gt_bool, intersect_size_gt_val, intersect_size_plain};
use lazymc_lazygraph::LazyGraph;
use lazymc_sched::{Pool as SchedPool, SchedHandle, TaskMeta};
use lazymc_solver::bitset::{BitMatrix, Bitset};
use lazymc_solver::scratch::Pool;
use lazymc_solver::{
    max_clique_dense, max_clique_via_vc, LiveNodes, McStats, Run, Split, StopFn, VcStats,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Per-worker reusable buffers for one neighbourhood search: the filter
/// candidate lists and the probe path's hash table, the bit path's rows
/// and live sets, the extracted (and compacted) submatrices, and the
/// witness. Checked out of [`NEIGHBOR_SCRATCH`] per call, so the whole
/// systematic sweep reaches zero steady-state allocation — buffers warmed
/// by early neighbourhoods serve every later one. The subgraph engines
/// keep their own arenas in the solver's pools.
#[derive(Default)]
struct NeighborScratch {
    clique: Vec<u32>,
    n1: Vec<VertexId>,
    /// The probe path's candidate table, rebuilt per round in place.
    table: HopscotchSet,
    next: Vec<VertexId>,
    adj: BitMatrix,
    small: BitMatrix,
    /// Local index maps of the two compactions (bit-path survivors, then
    /// the reduced k-VC matrix).
    map: Vec<u32>,
    within: Bitset,
    orig: Vec<VertexId>,
    builder: RowBuilder,
    rows: BitMatrix,
    alive: Bitset,
    kept: Bitset,
}

impl NeighborScratch {
    fn heap_bytes(&self) -> usize {
        (self.clique.capacity()
            + self.n1.capacity()
            + self.next.capacity()
            + self.map.capacity()
            + self.orig.capacity())
            * 4
            + self.table.heap_bytes()
            + self.adj.heap_bytes()
            + self.small.heap_bytes()
            + self.within.heap_bytes()
            + self.builder.heap_bytes()
            + self.rows.heap_bytes()
            + self.alive.heap_bytes()
            + self.kept.heap_bytes()
    }
}

static NEIGHBOR_SCRATCH: Pool<NeighborScratch> =
    Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_ARENA_BYTES);

/// Wall-clock budget shared across the systematic search. When it expires,
/// no *new* neighbourhood search starts; `truncated` records whether any
/// work was actually skipped (i.e. whether the result may be inexact).
pub struct Deadline {
    expires: Option<Instant>,
    truncated: AtomicBool,
    /// Externally requested abort (job cancellation over HTTP): behaves
    /// exactly like an expired budget — no new search starts, the result
    /// reports itself truncated — so the solver needs no second code path.
    cancelled: AtomicBool,
}

impl Deadline {
    /// A deadline from an optional budget, starting now.
    pub fn starting_now(budget: Option<std::time::Duration>) -> Self {
        Deadline {
            expires: budget.map(|b| Instant::now() + b),
            truncated: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Unlimited.
    pub fn none() -> Self {
        Self::starting_now(None)
    }

    /// Expires the deadline immediately, whatever its budget. Safe to call
    /// from any thread while a solve is running against it: the solve's
    /// subgraph search stops within a few thousand nodes, then the solve
    /// truncates.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`Deadline::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    #[inline]
    fn expired(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.expires {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }

    /// Checks expiry and, if expired, records that work was skipped.
    #[inline]
    fn should_skip(&self) -> bool {
        if self.expired() {
            self.truncated.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Whether any search was skipped because the budget ran out.
    pub fn truncated(&self) -> bool {
        self.truncated.load(Ordering::Relaxed)
    }

    /// The absolute expiry instant, if the deadline has a budget at all.
    /// The service queue orders jobs by this (deadline-earliest wins a
    /// priority tie), so the number the scheduler races against and the
    /// number admission sorts by are one and the same.
    pub fn expires_at(&self) -> Option<Instant> {
        self.expires
    }
}

/// Binding of one solve to a scheduler pool: the pool, the
/// identity/urgency metadata every subtree task of the job carries (so
/// stolen subtrees keep their job's deadline and priority wherever they
/// run), and the job's nominal width — the helper count one scope may
/// recruit, from [`Config::sched_width`], not a reserved share: actual
/// parallelism is whatever the pool has spare at claim time.
#[derive(Clone)]
pub struct JobSched {
    /// The pool to run on; `None` is the process-wide pool.
    pool: Option<SchedHandle>,
    /// Identity + urgency stamped on every task this solve submits.
    pub meta: TaskMeta,
    /// Nominal intra-solve width (≥ 1); `1` never submits tasks at all.
    pub width: usize,
}

impl JobSched {
    /// A solve on the pool behind `handle`.
    pub fn new(handle: SchedHandle, meta: TaskMeta, width: usize) -> Self {
        JobSched {
            pool: Some(handle),
            meta,
            width,
        }
    }

    /// A solve that brings no pool of its own (the library and the CLI):
    /// the process-wide pool, at `cfg`'s width on one worker per hardware
    /// thread.
    pub(crate) fn process_wide(cfg: &Config) -> Self {
        JobSched {
            pool: None,
            meta: TaskMeta::adhoc(),
            width: cfg.sched_width(hardware_threads()),
        }
    }

    /// The pool's handle. Only widths above 1 ask for it, so a sequential
    /// solve never creates the process-wide pool or touches any pool.
    fn handle(&self) -> SchedHandle {
        match &self.pool {
            Some(h) => h.clone(),
            None => process_pool().handle(),
        }
    }
}

/// The process-wide pool, created on first use with one worker per
/// hardware thread and shared by every later solve. It is never shut
/// down; idle workers park.
fn process_pool() -> &'static SchedPool {
    static POOL: OnceLock<SchedPool> = OnceLock::new();
    POOL.get_or_init(|| SchedPool::new(hardware_threads()))
}

/// Shared context of one systematic sweep, handed to every neighbourhood
/// search: the configuration, the global incumbent, the counters, the
/// deadline — plus the *intra-solve* thread budget chosen per phase by
/// the work-splitting rule.
pub struct SearchCtx<'a> {
    pub cfg: &'a Config,
    pub inc: &'a Incumbent,
    pub counters: &'a Counters,
    pub deadline: &'a Deadline,
    /// Threads the detailed subgraph search of this call may use. `1`
    /// runs the deterministic sequential kernels; above that, the dense
    /// MC and k-VC solvers split their top branch levels into subtree
    /// tasks on `sched`'s pool, sharing one incumbent.
    pub solver_threads: usize,
    /// The pool the sweep and the subtree splits run on.
    pub sched: &'a JobSched,
}

/// Runs `f` over `items`: inline at width 1 or for a single item, else as
/// the units of one scope on the solve's pool with up to `width − 1`
/// helpers. The second argument handed to
/// `f` is the intra-solve thread budget: when a phase has fewer pending
/// vertices than workers, vertex-level parallelism cannot keep the crew
/// busy, so the spare threads are pushed *inside* each subgraph solve
/// (subtree-level splitting); otherwise solves stay sequential inside
/// and the vertices themselves fan out. This is the "split only when
/// fewer pending vertices than idle workers" rule.
fn sweep_parallel(items: &[VertexId], js: &JobSched, f: impl Fn(VertexId, usize) + Sync) {
    let pending = items.len();
    if pending == 0 {
        return;
    }
    let workers = js.width.max(1);
    let inner = if pending < workers {
        (workers / pending).max(1)
    } else {
        1
    };
    if workers <= 1 || pending == 1 {
        for &v in items {
            f(v, inner);
        }
        return;
    }
    // Idle workers of *any* job steal the level's vertices, and the scope
    // owner claims alongside, so a level never waits on pool capacity.
    js.handle()
        .scope(js.meta, workers - 1, pending, &|_sc, i| f(items[i], inner));
}

/// Runs the systematic search (paper Algorithm 7) on a scheduler pool:
/// both the level sweeps and the intra-solve subtree splits run as
/// stealable tasks carrying the job's deadline and priority. `None` runs
/// on the process-wide pool, created on first use with one worker per
/// hardware thread, at `cfg.sched_width` of that size.
#[allow(clippy::too_many_arguments)]
pub fn systematic_search_on(
    lg: &LazyGraph<'_>,
    levels: &[(u32, u32)],
    degeneracy: u32,
    cfg: &Config,
    inc: &Incumbent,
    counters: &Counters,
    deadline: &Deadline,
    sched: Option<&JobSched>,
) {
    let deg = degeneracy as usize;
    let process_wide;
    let sched = match sched {
        Some(js) => js,
        None => {
            process_wide = JobSched::process_wide(cfg);
            &process_wide
        }
    };
    // Phase 1: one probe per degeneracy level, from the incumbent level up.
    // Probed vertices are remembered so the main sweep does not search the
    // same right-neighbourhood twice.
    let probed: Vec<AtomicBool> = if cfg.low_core_probes {
        (0..lg.num_vertices())
            .map(|_| AtomicBool::new(false))
            .collect()
    } else {
        Vec::new()
    };
    if cfg.low_core_probes {
        let floor = inc.size().min(deg);
        let probes: Vec<VertexId> = (floor..=deg)
            .filter_map(|k| {
                let (start, end) = levels[k];
                (start < end).then(|| {
                    probed[start as usize].store(true, Ordering::Relaxed);
                    start
                })
            })
            .collect();
        sweep_parallel(&probes, sched, |v, inner| {
            if !deadline.should_skip() {
                let ctx = SearchCtx {
                    cfg,
                    inc,
                    counters,
                    deadline,
                    solver_threads: inner,
                    sched,
                };
                neighbor_search(lg, v, &ctx);
            }
        });
    }
    // Phase 2: high-to-low level sweep, parallel within each level. The
    // incumbent only grows, so once a level falls below it we can stop.
    for k in (1..=deg).rev() {
        if k < inc.size() || deadline.should_skip() {
            break;
        }
        let (start, end) = levels[k];
        let vs: Vec<VertexId> = (start..end)
            .filter(|&v| probed.is_empty() || !probed[v as usize].load(Ordering::Relaxed))
            .collect();
        sweep_parallel(&vs, sched, |v, inner| {
            // Re-check against the *current* incumbent: it may have grown
            // since the level test.
            if (lg.coreness(v) as usize) >= inc.size() && !deadline.should_skip() {
                let ctx = SearchCtx {
                    cfg,
                    inc,
                    counters,
                    deadline,
                    solver_threads: inner,
                    sched,
                };
                neighbor_search(lg, v, &ctx);
            }
        });
    }
}

/// Searches the right-neighbourhood of relabelled vertex `v`
/// (paper Algorithm 8).
pub fn neighbor_search(lg: &LazyGraph<'_>, v: VertexId, ctx: &SearchCtx<'_>) {
    NEIGHBOR_SCRATCH.with(|scr| neighbor_search_scratch(lg, v, ctx, scr));
}

fn neighbor_search_scratch(
    lg: &LazyGraph<'_>,
    v: VertexId,
    ctx: &SearchCtx<'_>,
    scr: &mut NeighborScratch,
) {
    let SearchCtx {
        cfg,
        inc,
        counters,
        deadline,
        solver_threads,
        sched,
    } = *ctx;
    let t0 = Instant::now();
    let cstar = inc.size();
    counters.add(&counters.retained_coreness, 1);

    // --- Filter 1: coreness of the neighbors themselves ------------------
    scr.n1.clear();
    scr.n1.extend(
        lg.right_sorted(v)
            .iter()
            .copied()
            .filter(|&u| (lg.coreness(u) as usize) >= cstar),
    );
    if scr.n1.len() < cstar {
        counters.add(&counters.filter_ns, t0.elapsed().as_nanos() as u64);
        return;
    }
    counters.add(&counters.retained_f1, 1);

    // A clique of size cstar+1 through v needs every member to see strictly
    // more than cstar−2 *other* members inside N (u and v complete the
    // count). For cstar < 2 the threshold is negative, i.e. vacuous: the
    // degree filters keep everything.
    let theta = if cstar >= 2 { Some(cstar - 2) } else { None };

    // --- Induced-degree filter rounds (Alg. 8 filters 2 and 3) -----------
    // Survivors stay in `scr.n1`, and a passed cascade leaves G[N3] in
    // `scr.adj` in local (positional) index space 0..nn.
    let cascade = if bitrows::filter_rows_pay(&scr.n1, theta) {
        filter_rows(lg, cstar, theta, cfg.filter_rounds, scr)
    } else {
        filter_probes(lg, cstar, theta, cfg, scr)
    };
    if cascade.f2 {
        counters.add(&counters.retained_f2, 1);
    }
    let Some(m_hat) = cascade.m_hat else {
        counters.add(&counters.filter_ns, t0.elapsed().as_nanos() as u64);
        return;
    };
    counters.add(&counters.retained_f3, 1);
    let n3 = &scr.n1;

    // --- Algorithmic choice by estimated density (Alg. 8 line 14) --------
    // m̂ was counted against the previous round's set ⊇ N3, so the ratio
    // can exceed 1; clamp so that φ = 1 reliably means "always direct MC".
    let nn = n3.len();
    let density = if nn > 1 {
        (m_hat as f64 / (nn as f64 * (nn - 1) as f64)).min(1.0)
    } else {
        0.0
    };
    let adj = &scr.adj;

    // Optional extension (paper §V-A): MC-BRB-style iterated reduction on
    // the extracted subgraph before the detailed search.
    scr.within.reset_full(nn);
    if cfg.subgraph_reduction {
        let removed =
            lazymc_solver::mc::reduce_candidates(adj, &mut scr.within, cstar.saturating_sub(1));
        counters.add(&counters.reduced_vertices, removed as u64);
        if scr.within.len() < cstar {
            counters.add(&counters.filter_ns, t0.elapsed().as_nanos() as u64);
            return;
        }
    }

    let filter_elapsed = t0.elapsed().as_nanos() as u64;
    counters.add(&counters.filter_ns, filter_elapsed);
    if deadline.should_skip() {
        return;
    }

    // A clique K ⊆ N together with v gives |K|+1, so beat the incumbent iff
    // |K| > cstar − 1.
    let lb = cstar.saturating_sub(1);
    // Intra-solve thread budget: above 1 the engines may split their top
    // branch levels into subtree tasks on the pool, against a shared
    // incumbent. Width 1 binds no pool at all. Every engine kernel polls
    // `stop` every few thousand nodes (split ones also per claimed
    // subtree task), so a deadline trip or cancellation ends even one
    // long search, on every stolen subtree of the job wherever it runs.
    let handle = (solver_threads > 1).then(|| sched.handle());
    let split = handle.as_ref().map(|h| Split {
        sched: h,
        meta: sched.meta,
        width: solver_threads,
    });
    let stop = || deadline.should_skip();
    let stop: Option<StopFn<'_>> = Some(&stop);
    let t1 = Instant::now();
    let clique = &mut scr.clique;
    // Live observers see the node counters move mid-search; the engines
    // record flushed batches in `sampled`, so the residual adds below keep
    // the final totals exact.
    let found = if density > cfg.density_threshold {
        counters.add(&counters.searched_kvc, 1);
        let mut st = VcStats::default();
        let live = LiveNodes::new(&counters.vc_nodes);
        let run = Run { live, stop, split };
        // The k-VC engine works on whole matrices; compact when the
        // reduction removed vertices.
        let compacted = scr.within.len() < nn;
        if compacted {
            compact_matrix_into(adj, &scr.within, &mut scr.small, &mut scr.map);
        }
        let vc_adj = if compacted { &scr.small } else { adj };
        let r = max_clique_via_vc(vc_adj, lb, run, Some(&mut st), clique);
        if r && compacted {
            // translate compacted indices back to positions in n3
            for i in clique.iter_mut() {
                *i = scr.map[*i as usize];
            }
        }
        counters.add(&counters.vc_nodes, st.nodes - st.sampled);
        counters.add(&counters.vc_reductions, st.reductions);
        counters.add(&counters.split_tasks, st.split_tasks);
        counters.add(&counters.steals, st.steals);
        counters.add(&counters.incumbent_broadcasts, st.incumbent_broadcasts);
        counters.add(&counters.kvc_ns, t1.elapsed().as_nanos() as u64);
        r
    } else {
        counters.add(&counters.searched_mc, 1);
        let mut st = McStats::default();
        let live = LiveNodes::new(&counters.mc_nodes);
        let run = Run { live, stop, split };
        let r = max_clique_dense(adj, &scr.within, lb, run, Some(&mut st), clique);
        counters.add(&counters.mc_nodes, st.nodes - st.sampled);
        counters.add(&counters.split_tasks, st.split_tasks);
        counters.add(&counters.steals, st.steals);
        counters.add(&counters.incumbent_broadcasts, st.incumbent_broadcasts);
        counters.add(&counters.mc_ns, t1.elapsed().as_nanos() as u64);
        r
    };

    if found {
        let order = lg.order();
        scr.orig.clear();
        scr.orig
            .extend(clique.iter().map(|&i| order.to_original(n3[i as usize])));
        scr.orig.push(order.to_original(v));
        debug_assert!(lg.original_graph().is_clique(&scr.orig));
        inc.offer(&scr.orig);
    }
}

/// Outcome of the induced-degree rounds (Alg. 8 filters 2 and 3) on one
/// neighbourhood: the Table III funnel steps it passed, and m̂.
#[derive(Debug, PartialEq, Eq)]
struct Cascade {
    /// Round 0 left at least |C*| candidates (`retained_f2`).
    f2: bool,
    /// The edge estimate m̂ summed by the last round, when every round
    /// left at least |C*| candidates (`retained_f3`).
    m_hat: Option<u64>,
}

/// The induced-degree rounds by per-pair probes over `scr.n1`, the scalar
/// path. All rounds but the last use the boolean early-exit kernel; the
/// final round uses the counting kernel so the edge estimate m̂ comes out
/// of it. The candidate set is the probed (B) side; a hash table is built
/// only when it is large enough to out-cost binary search, and the kernels
/// always scan the smaller side as A. The survivor lists ping-pong between
/// two pooled buffers. A passed cascade extracts G[N3] into `scr.adj`.
fn filter_probes(
    lg: &LazyGraph<'_>,
    cstar: usize,
    theta: Option<usize>,
    cfg: &Config,
    scr: &mut NeighborScratch,
) -> Cascade {
    let rounds = cfg.filter_rounds.max(1);
    let mut f2 = false;
    let mut m_hat = 0u64;
    for round in 0..rounds {
        let last = round + 1 == rounds;
        {
            let NeighborScratch {
                n1: cand,
                next,
                table,
                ..
            } = scr;
            let set = CandSet::new(cand, table);
            next.clear();
            if !last {
                if let Some(theta) = theta {
                    for &u in cand.iter() {
                        if induced_degree_gt(lg, u, cand, &set, theta, cfg) {
                            next.push(u);
                        }
                    }
                } else {
                    next.extend_from_slice(cand);
                }
            } else {
                m_hat = 0;
                for &u in cand.iter() {
                    if let Some(d) = induced_degree_count(lg, u, cand, &set, theta, cfg) {
                        next.push(u);
                        m_hat += d as u64;
                    }
                }
            }
        }
        std::mem::swap(&mut scr.n1, &mut scr.next);
        f2 |= round == 0 && scr.n1.len() >= cstar;
        if scr.n1.len() < cstar {
            return Cascade { f2, m_hat: None };
        }
    }
    extract_submatrix_into(lg, &scr.n1, &mut scr.adj);
    Cascade {
        f2,
        m_hat: Some(m_hat),
    }
}

/// The same rounds as [`filter_probes`] by popcounts over local bit rows,
/// the bit path: `scr.n1`'s induced rows are built once, each round keeps
/// `u` iff `popcount(row_u & alive) > θ`, and the last round sums m̂ from
/// the same counts. Survivors, m̂ and the funnel are the same set
/// functions; `early_exit` and `second_exit` have nothing to skip here. A
/// passed cascade compacts the surviving rows into `scr.adj`, which equals
/// what [`extract_submatrix_into`] builds over the survivors.
fn filter_rows(
    lg: &LazyGraph<'_>,
    cstar: usize,
    theta: Option<usize>,
    rounds: usize,
    scr: &mut NeighborScratch,
) -> Cascade {
    let NeighborScratch {
        n1,
        next,
        adj,
        map,
        rows,
        alive,
        kept,
        builder,
        ..
    } = scr;
    builder.build(n1, |u| lg.sorted(u), rows);
    let nn = n1.len();
    alive.reset_full(nn);
    let rounds = rounds.max(1);
    let mut f2 = false;
    let mut m_hat = 0u64;
    for round in 0..rounds {
        // Without a threshold, only the last round does anything: it
        // counts m̂ and keeps everyone.
        if round + 1 == rounds || theta.is_some() {
            kept.reset(nn);
            m_hat = 0;
            for i in alive.iter() {
                let d = alive.intersection_count_words(rows.row(i));
                if theta.is_none_or(|t| d > t) {
                    kept.insert(i);
                    m_hat += d as u64;
                }
            }
            std::mem::swap(alive, kept);
        }
        let len = alive.len();
        f2 |= round == 0 && len >= cstar;
        if len < cstar {
            return Cascade { f2, m_hat: None };
        }
    }
    next.clear();
    next.extend(alive.iter().map(|i| n1[i]));
    std::mem::swap(n1, next);
    compact_matrix_into(rows, alive, adj, map);
    Cascade {
        f2,
        m_hat: Some(m_hat),
    }
}

/// Compacts `adj` to the vertices of `within`, writing the smaller matrix
/// into `small` and the local→original index map into `map` (both reused).
fn compact_matrix_into(
    adj: &BitMatrix,
    within: &Bitset,
    small: &mut BitMatrix,
    map: &mut Vec<u32>,
) {
    map.clear();
    map.extend(within.iter().map(|i| i as u32));
    small.reset(map.len());
    for (i, &oi) in map.iter().enumerate() {
        for (j, &oj) in map.iter().enumerate().skip(i + 1) {
            if adj.has_edge(oi as usize, oj as usize) {
                small.add_edge(i, j);
            }
        }
    }
}

/// Candidate-set membership: a real hash table when the set is large, the
/// sorted slice itself below that (hash construction would dominate the
/// handful of probes it serves).
enum CandSet<'a> {
    Small(&'a [VertexId]),
    Large(&'a HopscotchSet),
}

/// Above this size, probing pays for building a hopscotch table.
const HASH_CUTOFF: usize = 64;

impl<'a> CandSet<'a> {
    /// Membership of `sorted`, filling `table` (in place) when the set is
    /// large enough to hash.
    fn new(sorted: &'a [VertexId], table: &'a mut HopscotchSet) -> Self {
        if sorted.len() > HASH_CUTOFF {
            table.reset(sorted.len());
            for &u in sorted {
                table.insert(u);
            }
            CandSet::Large(table)
        } else {
            CandSet::Small(sorted)
        }
    }
}

impl lazymc_intersect::Membership for CandSet<'_> {
    #[inline]
    fn contains_key(&self, key: u32) -> bool {
        match self {
            CandSet::Small(s) => s.binary_search(&key).is_ok(),
            CandSet::Large(h) => h.contains(key),
        }
    }
    #[inline]
    fn size(&self) -> usize {
        match self {
            CandSet::Small(s) => s.len(),
            CandSet::Large(h) => h.len(),
        }
    }
}

/// Decides `|N(u) ∩ cand| > theta`, scanning whichever side is smaller.
#[inline]
fn induced_degree_gt(
    lg: &LazyGraph<'_>,
    u: VertexId,
    cand: &[VertexId],
    cand_set: &CandSet<'_>,
    theta: usize,
    cfg: &Config,
) -> bool {
    let nu = lg.sorted(u);
    if nu.len() <= cand.len() {
        // scan u's (smaller) neighbourhood against the candidate set
        if cfg.early_exit {
            intersect_size_gt_bool(nu, cand_set, theta, cfg.second_exit)
        } else {
            intersect_size_plain(nu, cand_set) > theta
        }
    } else {
        // scan the (smaller) candidate set against u's sorted neighbourhood
        let b = lazymc_intersect::SortedSlice(nu);
        if cfg.early_exit {
            intersect_size_gt_bool(cand, &b, theta, cfg.second_exit)
        } else {
            intersect_size_plain(cand, &b) > theta
        }
    }
}

/// Computes `|N(u) ∩ cand|` if it exceeds `theta` (always, when `theta` is
/// `None`), scanning whichever side is smaller.
#[inline]
fn induced_degree_count(
    lg: &LazyGraph<'_>,
    u: VertexId,
    cand: &[VertexId],
    cand_set: &CandSet<'_>,
    theta: Option<usize>,
    cfg: &Config,
) -> Option<usize> {
    let nu = lg.sorted(u);
    if nu.len() <= cand.len() {
        match (theta, cfg.early_exit) {
            (Some(t), true) => intersect_size_gt_val(nu, cand_set, t).filter(|&d| d > t),
            (Some(t), false) => {
                let d = intersect_size_plain(nu, cand_set);
                (d > t).then_some(d)
            }
            (None, _) => Some(intersect_size_plain(nu, cand_set)),
        }
    } else {
        let b = lazymc_intersect::SortedSlice(nu);
        match (theta, cfg.early_exit) {
            (Some(t), true) => intersect_size_gt_val(cand, &b, t).filter(|&d| d > t),
            (Some(t), false) => {
                let d = intersect_size_plain(cand, &b);
                (d > t).then_some(d)
            }
            (None, _) => Some(intersect_size_plain(cand, &b)),
        }
    }
}

/// Builds the dense adjacency of the subgraph induced by the sorted
/// relabelled vertex list `members`, in local (positional) index space,
/// into the reused `adj`. Each row is produced by merging the member list
/// with the member's lazy sorted neighbourhood.
pub(crate) fn extract_submatrix_into(
    lg: &LazyGraph<'_>,
    members: &[VertexId],
    adj: &mut BitMatrix,
) {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    let nn = members.len();
    adj.reset(nn);
    for (i, &u) in members.iter().enumerate() {
        let nbrs = lg.sorted(u);
        if nbrs.len() > 8 * nn {
            // strongly skewed (hub neighbourhood): probe per member instead
            // of merging through the whole row
            for (a, &m) in members.iter().enumerate().skip(i + 1) {
                if nbrs.binary_search(&m).is_ok() {
                    adj.add_edge(i, a);
                }
            }
            continue;
        }
        // two-pointer merge over (members, nbrs), recording local positions
        let (mut a, mut b) = (0usize, 0usize);
        while a < nn && b < nbrs.len() {
            match members[a].cmp(&nbrs[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    if a > i {
                        adj.add_edge(i, a);
                    }
                    a += 1;
                    b += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazymc_graph::{gen, CsrGraph};
    use lazymc_order::{coreness_degree_order, kcore_sequential, relabel::level_ranges};

    struct Fixture<'a> {
        lg: LazyGraph<'a>,
        levels: Vec<(u32, u32)>,
        degeneracy: u32,
    }

    fn fixture<'a>(
        g: &'a CsrGraph,
        ord: &'a lazymc_order::VertexOrder,
        core: &'a [u32],
        degeneracy: u32,
        inc: &Incumbent,
    ) -> Fixture<'a> {
        let lg = LazyGraph::new(g, ord, core, inc.size_cell());
        let levels = level_ranges(ord, core, degeneracy);
        Fixture {
            lg,
            levels,
            degeneracy,
        }
    }

    fn solve_systematic(g: &CsrGraph) -> usize {
        let kc = kcore_sequential(g);
        let ord = coreness_degree_order(g, &kc.coreness);
        let inc = Incumbent::new();
        // prime with any single vertex so cstar ≥ 1
        if g.num_vertices() > 0 {
            inc.offer(&[0]);
        }
        let f = fixture(g, &ord, &kc.coreness, kc.degeneracy, &inc);
        let counters = Counters::default();
        systematic_search_on(
            &f.lg,
            &f.levels,
            f.degeneracy,
            &Config::default(),
            &inc,
            &counters,
            &Deadline::none(),
            None,
        );
        assert!(g.is_clique(&inc.clique()));
        inc.size()
    }

    #[test]
    fn finds_planted_clique() {
        let g = gen::planted_clique(200, 0.03, 12, 5);
        assert_eq!(solve_systematic(&g), 12);
    }

    #[test]
    fn complete_graph() {
        assert_eq!(solve_systematic(&gen::complete(15)), 15);
    }

    #[test]
    fn triangulated_grid_is_k4() {
        assert_eq!(solve_systematic(&gen::triangulated_grid(10, 8)), 4);
    }

    #[test]
    fn caveman_community() {
        assert_eq!(solve_systematic(&gen::caveman(10, 7, 0.05, 2)), 7);
    }

    #[test]
    fn path_graph_omega_two() {
        assert_eq!(solve_systematic(&gen::path(30)), 2);
    }

    #[test]
    fn filters_discharge_most_neighborhoods() {
        // On an easy gap-0 graph, after the heuristics the filters should
        // discharge nearly everything (Table III's 0-rows).
        let g = gen::caveman(20, 6, 0.0, 3);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let inc = Incumbent::new();
        // seed incumbent with a full community (size 6 = ω)
        inc.offer(&[0, 1, 2, 3, 4, 5]);
        let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
        let counters = Counters::default();
        systematic_search_on(
            &f.lg,
            &f.levels,
            f.degeneracy,
            &Config::default(),
            &inc,
            &counters,
            &Deadline::none(),
            None,
        );
        let snap = crate::metrics::snapshot_counters(&counters);
        assert_eq!(inc.size(), 6, "ω must not regress");
        assert_eq!(
            snap.retained_f3, 0,
            "with ω incumbent, no neighbourhood should reach detailed search"
        );
    }

    #[test]
    fn density_threshold_routes_to_kvc() {
        // A dense instance with φ = 0 forces every detailed search to k-VC;
        // φ = 1 forces MC. Results must agree.
        let g = gen::dense_overlap(120, 15, 8, 14, 0.15, 9);
        let mut sizes = Vec::new();
        for phi in [0.0, 1.0] {
            let kc = kcore_sequential(&g);
            let ord = coreness_degree_order(&g, &kc.coreness);
            let inc = Incumbent::new();
            // Prime with an edge so cstar ≥ 2: every subgraph reaching a
            // detailed search then has m̂ ≥ |N| > 0, making the φ = 0 route
            // deterministic.
            let (u, v) = g.edges().next().unwrap();
            inc.offer(&[u, v]);
            let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
            let counters = Counters::default();
            let cfg = Config::default().with_density_threshold(phi);
            systematic_search_on(
                &f.lg,
                &f.levels,
                f.degeneracy,
                &cfg,
                &inc,
                &counters,
                &Deadline::none(),
                None,
            );
            let snap = crate::metrics::snapshot_counters(&counters);
            if phi == 0.0 {
                assert_eq!(snap.searched_mc, 0, "phi=0 must route everything to k-VC");
            } else {
                assert_eq!(snap.searched_kvc, 0, "phi=1 must route everything to MC");
            }
            sizes.push(inc.size());
        }
        assert_eq!(sizes[0], sizes[1], "algorithmic choice must not change ω");
    }

    #[test]
    fn sched_driven_sweep_splits_and_agrees() {
        // Dense G(n,p): filtered neighbourhoods are large enough to split.
        // Searching every right-neighbourhood with an intra-solve budget of
        // 4 threads on a shared pool must (a) reach ω — every clique has a
        // least vertex in the order, whose right-neighbourhood holds the
        // rest — and (b) actually engage the subtree drivers (split tasks
        // recorded).
        let g = gen::gnp(100, 0.6, 42);
        let expected = crate::solve(&g).size();
        let pool = lazymc_sched::Pool::new(3);
        let js = JobSched::new(pool.handle(), lazymc_sched::TaskMeta::adhoc(), 4);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let inc = Incumbent::new();
        let (u, v) = g.edges().next().unwrap();
        inc.offer(&[u, v]);
        let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
        let counters = Counters::default();
        let cfg = Config::default();
        let deadline = Deadline::none();
        for v in 0..g.num_vertices() as u32 {
            let ctx = SearchCtx {
                cfg: &cfg,
                inc: &inc,
                counters: &counters,
                deadline: &deadline,
                solver_threads: 4,
                sched: &js,
            };
            neighbor_search(&f.lg, v, &ctx);
        }
        assert_eq!(inc.size(), expected, "scheduler must not change ω");
        assert!(g.is_clique(&inc.clique()));
        let snap = crate::metrics::snapshot_counters(&counters);
        assert!(
            snap.split_tasks > 0,
            "dense neighbourhoods on the pool must generate subtree tasks"
        );
    }

    #[test]
    fn sched_full_sweep_matches_plain() {
        // systematic_search_on with a pool binding: whole levels fan out
        // as scope units; ω matches the process-wide pool's answer.
        let g = gen::dense_overlap(120, 15, 8, 14, 0.15, 9);
        let expected = solve_systematic(&g);
        let pool = lazymc_sched::Pool::new(2);
        let js = JobSched::new(pool.handle(), lazymc_sched::TaskMeta::adhoc(), 3);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let inc = Incumbent::new();
        inc.offer(&[0]);
        let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
        let counters = Counters::default();
        systematic_search_on(
            &f.lg,
            &f.levels,
            f.degeneracy,
            &Config::default(),
            &inc,
            &counters,
            &Deadline::none(),
            Some(&js),
        );
        assert_eq!(inc.size(), expected);
        assert!(g.is_clique(&inc.clique()));
    }

    #[test]
    fn solver_threads_one_is_sequential_kernel() {
        // The same sweep at solver_threads = 1 must produce identical node
        // counts across runs (the deterministic sequential kernels).
        let g = gen::gnp(80, 0.55, 7);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let mut node_counts = Vec::new();
        for _ in 0..2 {
            let inc = Incumbent::new();
            let (u, v) = g.edges().next().unwrap();
            inc.offer(&[u, v]);
            let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
            let counters = Counters::default();
            let cfg = Config::default();
            let deadline = Deadline::none();
            let js = JobSched::process_wide(&Config::sequential());
            for v in 0..g.num_vertices() as u32 {
                let ctx = SearchCtx {
                    cfg: &cfg,
                    inc: &inc,
                    counters: &counters,
                    deadline: &deadline,
                    solver_threads: 1,
                    sched: &js,
                };
                neighbor_search(&f.lg, v, &ctx);
            }
            let snap = crate::metrics::snapshot_counters(&counters);
            assert_eq!(snap.split_tasks, 0, "threads=1 must never split");
            assert_eq!(snap.steals, 0);
            node_counts.push((snap.mc_nodes, snap.vc_nodes));
        }
        assert_eq!(node_counts[0], node_counts[1]);
    }

    /// `gnp` plus vertex 0 joined to everything: a hub whose list dwarfs
    /// every candidate set it meets.
    fn with_hub(n: usize, p: f64, seed: u64) -> CsrGraph {
        let g = gen::gnp(n, p, seed);
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.extend((1..n as u32).map(|u| (0, u)));
        CsrGraph::from_edges(n, &edges)
    }

    /// Graphs of the differential sweeps: a smaller set in debug builds,
    /// as `tests/pr3_node_counts.rs` does.
    fn differential_graphs() -> Vec<CsrGraph> {
        if cfg!(debug_assertions) {
            vec![
                gen::gnp(90, 0.3, 1),
                gen::planted_clique(120, 0.1, 14, 2),
                with_hub(100, 0.2, 3),
            ]
        } else {
            vec![
                gen::gnp(300, 0.45, 1),
                gen::gnp(600, 0.05, 4),
                gen::planted_clique(500, 0.15, 30, 2),
                with_hub(400, 0.3, 3),
                gen::paley(101),
            ]
        }
    }

    /// Runs both filter paths on `v`'s neighbourhood at incumbent size
    /// `cstar` and asserts they agree: the same funnel outcome and m̂, and
    /// for a passed cascade the same survivors in the same order and an
    /// equal extracted matrix. Returns whether the cascade passed.
    fn assert_filter_paths_agree(
        lg: &LazyGraph<'_>,
        v: VertexId,
        cstar: usize,
        cfg: &Config,
    ) -> Option<bool> {
        let n1: Vec<VertexId> = lg
            .right_sorted(v)
            .iter()
            .copied()
            .filter(|&u| (lg.coreness(u) as usize) >= cstar)
            .collect();
        if n1.len() < cstar || n1.is_empty() {
            return None;
        }
        let theta = cstar.checked_sub(2);
        let mut probes = NeighborScratch::default();
        probes.n1.clone_from(&n1);
        let a = filter_probes(lg, cstar, theta, cfg, &mut probes);
        let mut rows = NeighborScratch::default();
        rows.n1.clone_from(&n1);
        let b = filter_rows(lg, cstar, theta, cfg.filter_rounds, &mut rows);
        let at = format!("v {v}, |C*| {cstar}, rounds {}", cfg.filter_rounds);
        assert_eq!(a, b, "funnel and m̂ at {at}");
        if a.m_hat.is_some() {
            assert_eq!(probes.n1, rows.n1, "survivors at {at}");
            assert_eq!(probes.adj, rows.adj, "extracted matrix at {at}");
        }
        Some(a.m_hat.is_some())
    }

    #[test]
    fn filter_paths_agree_on_every_vertex() {
        let mut passed = 0;
        let mut dropped = 0;
        for g in differential_graphs() {
            let kc = kcore_sequential(&g);
            let ord = coreness_degree_order(&g, &kc.coreness);
            // Incumbent 0 while the lists are built: every list keeps
            // every neighbour, whatever |C*| a case then filters at.
            let inc = Incumbent::new();
            let lg = LazyGraph::new(&g, &ord, &kc.coreness, inc.size_cell());
            let d = kc.degeneracy as usize;
            // θ none (|C*| 0 and 1), θ 0, small θ, and θ near the top.
            let cstars = [0, 1, 2, 4, d / 2, d.saturating_sub(1), d, d + 1];
            for rounds in 1..=4 {
                for early_exit in [true, false] {
                    let cfg = Config {
                        filter_rounds: rounds,
                        early_exit,
                        second_exit: early_exit,
                        ..Config::default()
                    };
                    for v in 0..g.num_vertices() as VertexId {
                        for &cstar in &cstars {
                            match assert_filter_paths_agree(&lg, v, cstar, &cfg) {
                                Some(true) => passed += 1,
                                Some(false) => dropped += 1,
                                None => {}
                            }
                        }
                    }
                }
            }
        }
        assert!(
            passed > 0 && dropped > 0,
            "sweep must see both outcomes ({passed} passed, {dropped} dropped)"
        );
    }

    #[test]
    fn extract_submatrix_matches_graph() {
        let g = gen::gnp(60, 0.15, 7);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let inc = Incumbent::new();
        let lg = LazyGraph::new(&g, &ord, &kc.coreness, inc.size_cell());
        let members: Vec<u32> = (10..30).collect();
        let mut adj = BitMatrix::new(7); // wrong-size scratch gets reshaped
        extract_submatrix_into(&lg, &members, &mut adj);
        for i in 0..members.len() {
            for j in 0..members.len() {
                let oi = ord.to_original(members[i]);
                let oj = ord.to_original(members[j]);
                assert_eq!(
                    adj.has_edge(i, j),
                    i != j && g.has_edge(oi, oj),
                    "local ({i},{j})"
                );
            }
        }
    }
}
