//! Solver configuration.
//!
//! Every knob the paper ablates is a field here, so the experiment harness
//! can regenerate Figs. 4–7 by toggling a `Config` rather than recompiling.

pub use lazymc_lazygraph::PrePopulate;

/// Which vertex relabelling the solver uses (paper §IV-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderKind {
    /// Sort by (coreness asc, degree asc) — the paper's parallel-friendly
    /// order (no unique peeling order exists under parallel k-core).
    #[default]
    CorenessDegree,
    /// The Matula–Beck peeling order itself, which sequential solvers get
    /// for free and which bounds every right-neighbourhood by coreness.
    /// Forces an exact sequential k-core (the floor optimization does not
    /// produce a peel order).
    Peeling,
}

/// Configuration of a [`crate::LazyMc`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Threads one solve may use; `0` uses the whole machine. The search
    /// runs on a scheduler pool at [`Config::sched_width`]: the caller's
    /// (the daemon's), or else the process-wide pool with one worker per
    /// hardware thread. The heuristics, k-core and prepopulate run on the
    /// rayon shim at this count through either entry, daemon solves
    /// included. `1` is the deterministic sequential solve.
    pub threads: usize,
    /// How many of the highest-degree vertices the degree-based heuristic
    /// search expands (paper Alg. 5, "top-K").
    pub top_k: usize,
    /// Density threshold φ for algorithmic choice (paper Alg. 8 line 14):
    /// filtered subgraphs denser than this go to the k-VC solver, the rest
    /// to direct MC search. Paper §V-B uses 0.5; Fig. 6 sweeps it.
    pub density_threshold: f64,
    /// Enable the early-exit intersection kernels (Fig. 5 ablation: when
    /// false, plain full intersections are used wherever the intersection
    /// kernels run). Filter rounds and degree-heuristic descents over
    /// candidate sets large enough for bit rows take popcounts instead,
    /// which have nothing to exit early from; the choice between the two
    /// depends on the input alone, never on this flag.
    pub early_exit: bool,
    /// Enable the *second* early exit of `intersect-size-gt-bool`
    /// (Fig. 5 ablation; like `early_exit`, it acts only where the scalar
    /// filter kernels run).
    pub second_exit: bool,
    /// Lazy-graph pre-population policy (Fig. 4 ablation).
    pub prepopulate: PrePopulate,
    /// Probe one low-coreness vertex per degeneracy level before the main
    /// high-to-low sweep (paper Alg. 7's first phase; helps gap-heavy
    /// graphs establish a good incumbent early).
    pub low_core_probes: bool,
    /// Compute coreness with the incumbent-size floor (the paper's
    /// `KCore(G, |C*|)`), skipping exact coreness for vertices that the
    /// degree-heuristic incumbent already rules out.
    pub kcore_floor: bool,
    /// Rounds of induced-degree filtering in `NeighborSearch` (≥ 1). The
    /// paper finds two sufficient ("the filtering could be repeated until
    /// no further vertices are removed"); this knob lets the ablation
    /// harness test 1..4.
    pub filter_rounds: usize,
    /// Vertex relabelling strategy.
    pub order: OrderKind,
    /// MC-BRB-style iterated degree reduction on the extracted subgraph
    /// before dispatching a detailed search — the extension the paper
    /// names in §V-A ("these rules could be easily added to LazyMC").
    /// Off by default to stay faithful to the evaluated system.
    pub subgraph_reduction: bool,
    /// Optional wall-clock budget. When it expires the solver stops
    /// starting new neighbourhood searches and returns the best clique
    /// found so far, flagged as inexact (the paper's 30-minute timeout
    /// discipline, usable in-process).
    pub time_budget: Option<std::time::Duration>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            threads: 0,
            top_k: 32,
            density_threshold: 0.5,
            early_exit: true,
            second_exit: true,
            prepopulate: PrePopulate::Must,
            low_core_probes: true,
            kcore_floor: true,
            filter_rounds: 2,
            order: OrderKind::CorenessDegree,
            subgraph_reduction: false,
            time_budget: None,
        }
    }
}

/// Hardware threads of this machine (1 when unknown).
pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Config {
    /// The one hard ceiling for every thread request in the system —
    /// client-supplied `threads` in the query daemon, `--threads` on the
    /// CLI and bench harness, and the daemon's own worker pools all clamp
    /// against this single definition (they used to disagree). Beyond
    /// ~2× the machine's parallelism there is no speedup, only a
    /// thread-spawn DoS; the floor of 8 keeps small machines accepting
    /// modest oversubscription (useful for tests and latency hiding).
    pub fn thread_cap() -> usize {
        hardware_threads().saturating_mul(2).max(8)
    }

    /// Clamps a requested thread count to [`Config::thread_cap`]
    /// (`0` — "use the ambient pool" — passes through unchanged).
    pub fn clamp_threads(threads: usize) -> usize {
        threads.min(Self::thread_cap())
    }

    /// The intra-solve width of a job running on the machine-wide
    /// scheduler, given the pool's worker count: the configured thread
    /// count (clamped as ever), or — for `threads = 0`, "use whatever is
    /// there" — the pool capacity itself. This replaces the old static
    /// per-job thread share: capacity is a property of the *pool*, asked
    /// at solve time, not a number frozen into the config.
    pub fn sched_width(&self, pool_workers: usize) -> usize {
        match self.threads {
            0 => pool_workers.max(1),
            t => Self::clamp_threads(t).max(1),
        }
    }

    /// A configuration with every work-avoidance feature disabled — the
    /// "naive eager" end of the ablation spectrum.
    pub fn no_work_avoidance() -> Self {
        Config {
            early_exit: false,
            second_exit: false,
            prepopulate: PrePopulate::All,
            low_core_probes: false,
            kcore_floor: false,
            ..Config::default()
        }
    }

    /// Sequential configuration (1 thread).
    pub fn sequential() -> Self {
        Config {
            threads: 1,
            ..Config::default()
        }
    }

    /// Sets the thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the density threshold (builder style).
    pub fn with_density_threshold(mut self, phi: f64) -> Self {
        self.density_threshold = phi;
        self
    }

    /// Canonical text encoding of every semantic field, stable across runs
    /// and platforms. Two configs with the same key request the same
    /// search; the service layer keys its result cache on
    /// `(graph fingerprint, canonical_key)`. `threads` is *excluded*: the
    /// thread count changes cost, never the answer.
    pub fn canonical_key(&self) -> String {
        format!(
            "v1;top_k={};phi={};ee={};se={};pp={};probes={};floor={};rounds={};order={};red={};budget={}",
            self.top_k,
            self.density_threshold,
            u8::from(self.early_exit),
            u8::from(self.second_exit),
            match self.prepopulate {
                PrePopulate::None => "none",
                PrePopulate::Must => "must",
                PrePopulate::All => "all",
            },
            u8::from(self.low_core_probes),
            u8::from(self.kcore_floor),
            self.filter_rounds,
            match self.order {
                OrderKind::CorenessDegree => "cd",
                OrderKind::Peeling => "peel",
            },
            u8::from(self.subgraph_reduction),
            match self.time_budget {
                None => "none".to_string(),
                Some(d) => format!("{}ns", d.as_nanos()),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = Config::default();
        assert!(c.early_exit && c.second_exit);
        assert_eq!(c.density_threshold, 0.5);
        assert_eq!(c.prepopulate, PrePopulate::Must);
    }

    #[test]
    fn builders_compose() {
        let c = Config::sequential()
            .with_density_threshold(0.1)
            .with_threads(4);
        assert_eq!(c.threads, 4);
        assert_eq!(c.density_threshold, 0.1);
    }

    #[test]
    fn thread_cap_is_the_single_clamp() {
        let cap = Config::thread_cap();
        // At least the floor, at least 2× the machine.
        assert!(cap >= 8);
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(cap >= machine * 2);
        // Clamping: identity below the cap, the cap above it, 0 unchanged.
        assert_eq!(Config::clamp_threads(0), 0);
        assert_eq!(Config::clamp_threads(1), 1);
        assert_eq!(Config::clamp_threads(cap), cap);
        assert_eq!(Config::clamp_threads(cap + 1), cap);
        assert_eq!(Config::clamp_threads(usize::MAX), cap);
    }

    #[test]
    fn sched_width_queries_capacity_only_when_unpinned() {
        // threads = 0 means "whatever the pool has"; a pinned count wins
        // (clamped), and the result is always at least 1.
        let ambient = Config::default();
        assert_eq!(ambient.sched_width(6), 6);
        assert_eq!(ambient.sched_width(0), 1);
        let pinned = Config::default().with_threads(3);
        assert_eq!(pinned.sched_width(16), 3);
        let huge = Config::default().with_threads(usize::MAX);
        assert_eq!(huge.sched_width(4), Config::thread_cap());
    }

    #[test]
    fn canonical_key_is_stable_and_discriminating() {
        let a = Config::default();
        assert_eq!(a.canonical_key(), Config::default().canonical_key());
        // Thread count never changes the answer, so it is not in the key.
        assert_eq!(a.canonical_key(), Config::sequential().canonical_key());
        // Every semantic field is.
        let variants = vec![
            Config {
                top_k: 1,
                ..a.clone()
            },
            a.clone().with_density_threshold(0.25),
            Config {
                early_exit: false,
                ..a.clone()
            },
            Config {
                second_exit: false,
                ..a.clone()
            },
            Config {
                prepopulate: PrePopulate::All,
                ..a.clone()
            },
            Config {
                low_core_probes: false,
                ..a.clone()
            },
            Config {
                kcore_floor: false,
                ..a.clone()
            },
            Config {
                filter_rounds: 3,
                ..a.clone()
            },
            Config {
                order: OrderKind::Peeling,
                ..a.clone()
            },
            Config {
                subgraph_reduction: true,
                ..a.clone()
            },
            Config {
                time_budget: Some(std::time::Duration::from_millis(5)),
                ..a.clone()
            },
        ];
        let mut keys: Vec<String> = variants.iter().map(Config::canonical_key).collect();
        keys.push(a.canonical_key());
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "canonical keys must be distinct");
    }
}
