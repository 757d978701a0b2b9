//! Intra-solve work-splitting substrate: the per-call [`Run`] context of
//! the engine entries, and the shared incumbent and cooperative abort
//! flag their split solves coordinate on.
//!
//! The paper's work-avoidance thesis extends across threads: a bound that
//! is published the instant any worker improves it prunes *every* worker's
//! subtree. Two primitives carry that idea into the dense engines:
//!
//! * [`SharedBest`] — the incumbent of one parallel MC solve. The size
//!   lives in an `AtomicUsize` read with `Relaxed` loads on every node
//!   expansion (the same discipline as the solver-global
//!   `lazymc_core::Incumbent`); the witness clique sits behind a mutex
//!   touched only on improvements. Every successful publication is
//!   counted, surfaced as the `incumbent_broadcasts` statistic.
//! * [`SearchAbort`] — the k-VC analogue. A decision search has no
//!   incumbent to tighten; instead the first worker to find a cover
//!   triggers the flag and every other worker's subtree terminates at its
//!   next node.
//!
//! Both are deliberately tiny: the split solves in `mc`/`vc` keep their
//! tasks in a pooled arena whose slots are claimed as units of one
//! `lazymc_sched` scope, and the sequential kernels stay byte-identical
//! via zero-sized link types that monomorphize the sharing away.

use crate::live::{LiveNodes, SAMPLE_INTERVAL};
use lazymc_sched::{SchedHandle, TaskMeta};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Cooperative stop hook of an engine call: polled every
/// [`SAMPLE_INTERVAL`] nodes by every kernel, sequential or split, and
/// once per claimed subtree task; `true` means "halt the whole solve"
/// (deadline trip or cancellation). Kept as a plain closure so the solver
/// never learns the driver's deadline type.
pub type StopFn<'a> = &'a (dyn Fn() -> bool + Sync);

/// Below this many vertices a solve is not worth splitting: the subtree
/// tasks would cost more to generate and claim than to run.
pub(crate) const SPLIT_MIN_VERTICES: usize = 32;

/// A scheduler binding for one engine call: the pool, the metadata every
/// subtree task of the job carries (so stolen subtrees keep the job's
/// deadline and priority wherever they run), and the nominal width — the
/// helper count one scope may recruit, plus the caller.
#[derive(Clone, Copy)]
pub struct Split<'a> {
    pub sched: &'a SchedHandle,
    pub meta: TaskMeta,
    pub width: usize,
}

/// What an engine call runs with besides its input. The default is the
/// sequential kernel with no observer.
///
/// An entry runs the sequential kernel — deterministic node counts, no
/// pool touched — when `split` is `None`, its width is at most 1, or the
/// input has fewer than 32 vertices. Otherwise it splits its top branch
/// levels into subtree tasks on `split.sched`. Either way `stop` is
/// polled every [`SAMPLE_INTERVAL`] nodes, so a deadline or cancellation
/// halts even one long search within a few thousand nodes.
#[derive(Clone, Copy, Default)]
pub struct Run<'a> {
    /// Receives the node count every few thousand expansions.
    pub live: LiveNodes<'a>,
    /// Polled every [`SAMPLE_INTERVAL`] nodes and once per claimed
    /// subtree task; `true` halts the solve (deadline trip or
    /// cancellation).
    pub stop: Option<StopFn<'a>>,
    /// Where the solve may split.
    pub split: Option<Split<'a>>,
}

impl<'a> Run<'a> {
    /// The binding an input of `n` vertices splits on, or `None` when the
    /// sequential kernel runs.
    pub(crate) fn split_for(&self, n: usize) -> Option<Split<'a>> {
        self.split
            .filter(|s| s.width > 1 && n >= SPLIT_MIN_VERTICES)
    }

    /// The per-node hook of every kernel, called with its running node
    /// count: every [`SAMPLE_INTERVAL`] nodes it flushes a batch into
    /// `live` and polls `stop`. Returns whether the search must halt.
    /// Node counts do not depend on it while `stop` answers `false`.
    #[inline]
    pub(crate) fn pulse(&self, nodes: u64, sampled: &mut u64) -> bool {
        self.live.tick(nodes, sampled);
        nodes.is_multiple_of(SAMPLE_INTERVAL) && self.stop.is_some_and(|stop| stop())
    }
}

/// The shared incumbent of one parallel MC solve: best size (atomic, read
/// per node by every worker) plus the witness clique (mutex, written only
/// on improvements).
pub struct SharedBest {
    size: AtomicUsize,
    clique: Mutex<Vec<u32>>,
    broadcasts: AtomicU64,
    halt: AtomicBool,
}

impl SharedBest {
    /// An incumbent floored at `lb`: only cliques strictly larger are
    /// accepted (the caller's incumbent already covers `lb`).
    pub fn with_floor(lb: usize) -> Self {
        SharedBest {
            size: AtomicUsize::new(lb),
            clique: Mutex::new(Vec::new()),
            broadcasts: AtomicU64::new(0),
            halt: AtomicBool::new(false),
        }
    }

    /// Tells every worker sharing this incumbent to stop searching: a
    /// cancelled or deadline-tripped solve drains mid-subtree instead of
    /// finishing its current task. The incumbent found so far remains
    /// valid (it only ever holds real cliques).
    #[inline]
    pub fn halt(&self) {
        self.halt.store(true, Ordering::Relaxed);
    }

    /// Whether the solve was told to stop.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halt.load(Ordering::Relaxed)
    }

    /// Current best size (floor included). `Relaxed`: staleness only costs
    /// a little extra search, never correctness.
    #[inline]
    pub fn size(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }

    /// Pre-sizes the witness buffer so that publications of cliques up to
    /// `cap` vertices never allocate — the split drivers call this with
    /// the candidate-set size, keeping the whole worker steady state
    /// allocation-free.
    pub fn reserve(&self, cap: usize) {
        let mut guard = self.clique.lock().unwrap();
        let len = guard.len();
        guard.reserve(cap.saturating_sub(len));
    }

    /// Offers a candidate; returns whether it became the new incumbent.
    /// CAS-up first, so losing threads never take the lock.
    pub fn offer(&self, candidate: &[u32]) -> bool {
        let mut cur = self.size.load(Ordering::Relaxed);
        loop {
            if candidate.len() <= cur {
                return false;
            }
            match self.size.compare_exchange_weak(
                cur,
                candidate.len(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let mut guard = self.clique.lock().unwrap();
                    // A larger offer may have raced past between the CAS
                    // and the lock; never shrink the witness.
                    if candidate.len() > guard.len() {
                        guard.clear();
                        guard.extend_from_slice(candidate);
                    }
                    self.broadcasts.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// How many improvements were published to the other workers.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts.load(Ordering::Relaxed)
    }

    /// Copies the witness into `out` (cleared first); returns whether the
    /// incumbent ever rose above its floor.
    pub fn clique_into(&self, out: &mut Vec<u32>) -> bool {
        out.clear();
        let guard = self.clique.lock().unwrap();
        if guard.is_empty() {
            return false;
        }
        out.extend_from_slice(&guard);
        true
    }
}

/// Cooperative early-stop flag for parallel k-VC decision searches: the
/// first worker to find a cover triggers it; everyone else's subtree
/// terminates at the next node expansion.
#[derive(Default)]
pub struct SearchAbort(AtomicBool);

impl SearchAbort {
    /// An untriggered flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signals every cooperating worker to stop.
    #[inline]
    pub fn trigger(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the search was stopped. A `false` decision result obtained
    /// while this is `true` is *not* authoritative — another worker
    /// already succeeded.
    #[inline]
    pub fn triggered(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_best_is_monotone_and_floored() {
        let b = SharedBest::with_floor(2);
        assert_eq!(b.size(), 2);
        assert!(!b.offer(&[1, 2])); // not strictly better than the floor
        assert!(b.offer(&[1, 2, 3]));
        assert_eq!(b.size(), 3);
        assert!(!b.offer(&[7, 8, 9]));
        assert_eq!(b.broadcasts(), 1);
        let mut out = vec![99];
        assert!(b.clique_into(&mut out));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn unimproved_incumbent_reports_nothing() {
        let b = SharedBest::with_floor(5);
        let mut out = vec![1];
        assert!(!b.clique_into(&mut out));
        assert!(out.is_empty());
        assert_eq!(b.broadcasts(), 0);
    }

    #[test]
    fn concurrent_offers_keep_maximum() {
        let b = SharedBest::with_floor(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = &b;
                s.spawn(move || {
                    for n in 1..100usize {
                        let cand: Vec<u32> = (0..(n + t) as u32).collect();
                        b.offer(&cand);
                    }
                });
            }
        });
        assert_eq!(b.size(), 102);
        let mut out = Vec::new();
        assert!(b.clique_into(&mut out));
        assert_eq!(out.len(), 102);
    }

    #[test]
    fn abort_flag_latches() {
        let a = SearchAbort::new();
        assert!(!a.triggered());
        a.trigger();
        assert!(a.triggered());
        a.trigger();
        assert!(a.triggered());
    }
}
