//! Live solve progress.
//!
//! A [`SolveProgress`] is a shared cell a long-running caller (the query
//! daemon) hands to [`crate::LazyMc::solve_prepared`]. The
//! solve publishes into it as it runs — current phase, the relaxed work
//! [`Counters`], and the incumbent size — so an observer thread can
//! snapshot a *running* solve without touching the search: every store
//! is a relaxed atomic the search already performs (or a phase marker
//! written six times per solve).

use crate::metrics::{snapshot_counters, Counters, MetricsSnapshot};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which top-level phase (paper Alg. 1) a solve is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Not started yet (queued).
    Idle = 0,
    /// Degree-based heuristic search (line 3).
    DegreeHeuristic = 1,
    /// Coreness computation (line 4).
    Kcore = 2,
    /// Sort-order determination (line 5).
    Reorder = 3,
    /// Lazy-graph construction + pre-population (line 6).
    Prepopulate = 4,
    /// Coreness-based heuristic search (line 7).
    CorenessHeuristic = 5,
    /// Systematic search (line 8).
    Systematic = 6,
    /// Solve finished.
    Done = 7,
}

impl Phase {
    /// Stable snake-case name (used in progress JSON and span names).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::DegreeHeuristic => "degree-heuristic",
            Phase::Kcore => "kcore",
            Phase::Reorder => "reorder",
            Phase::Prepopulate => "prepopulate",
            Phase::CorenessHeuristic => "coreness-heuristic",
            Phase::Systematic => "systematic",
            Phase::Done => "done",
        }
    }

    fn from_u8(v: u8) -> Phase {
        match v {
            1 => Phase::DegreeHeuristic,
            2 => Phase::Kcore,
            3 => Phase::Reorder,
            4 => Phase::Prepopulate,
            5 => Phase::CorenessHeuristic,
            6 => Phase::Systematic,
            7 => Phase::Done,
            _ => Phase::Idle,
        }
    }
}

/// Shared live-progress cell for one solve.
///
/// The solve writes; any number of observers read. All loads and stores
/// are relaxed — observers get a *recent* view, not a consistent one,
/// which is exactly what a progress endpoint needs.
#[derive(Default)]
pub struct SolveProgress {
    phase: AtomicU8,
    /// The solve's work counters, updated in place by the search. The
    /// solver kernels also drain sampled node counts here mid-search
    /// (see `lazymc_solver`), so `mc_nodes`/`vc_nodes` tick while a
    /// detailed search is still inside one subgraph.
    pub counters: Counters,
    incumbent: Arc<AtomicUsize>,
}

impl SolveProgress {
    /// Fresh progress cell (phase [`Phase::Idle`], all counters zero).
    pub fn new() -> SolveProgress {
        SolveProgress::default()
    }

    /// Publishes the current phase.
    pub fn set_phase(&self, p: Phase) {
        self.phase.store(p as u8, Ordering::Relaxed);
    }

    /// The most recently published phase.
    pub fn phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::Relaxed))
    }

    /// The shared incumbent-size cell (the observed solve's `Incumbent`
    /// is built over this same cell, so it ticks on every improvement).
    pub fn incumbent_cell(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.incumbent)
    }

    /// Current incumbent size.
    pub fn incumbent_size(&self) -> usize {
        self.incumbent.load(Ordering::Relaxed)
    }

    /// Best-effort snapshot of the work counters so far (phases, graph
    /// shape and heuristic fields of the result are zero — those are
    /// only known when the solve finishes).
    pub fn counters_snapshot(&self) -> MetricsSnapshot {
        snapshot_counters(&self.counters)
    }

    /// Total branch-and-bound nodes expanded so far (MC + k-VC).
    pub fn nodes_expanded(&self) -> u64 {
        self.counters.mc_nodes.load(Ordering::Relaxed)
            + self.counters.vc_nodes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_roundtrips_through_the_atomic() {
        let p = SolveProgress::new();
        assert_eq!(p.phase(), Phase::Idle);
        for ph in [
            Phase::DegreeHeuristic,
            Phase::Kcore,
            Phase::Reorder,
            Phase::Prepopulate,
            Phase::CorenessHeuristic,
            Phase::Systematic,
            Phase::Done,
        ] {
            p.set_phase(ph);
            assert_eq!(p.phase(), ph);
            assert_eq!(p.phase().name(), ph.name());
        }
    }

    #[test]
    fn snapshot_sees_counter_updates() {
        let p = SolveProgress::new();
        p.counters.add(&p.counters.mc_nodes, 41);
        p.counters.add(&p.counters.vc_nodes, 1);
        assert_eq!(p.nodes_expanded(), 42);
        assert_eq!(p.counters_snapshot().mc_nodes, 41);
    }

    #[test]
    fn incumbent_cell_is_shared() {
        let p = SolveProgress::new();
        let cell = p.incumbent_cell();
        cell.store(9, Ordering::Relaxed);
        assert_eq!(p.incumbent_size(), 9);
    }
}
