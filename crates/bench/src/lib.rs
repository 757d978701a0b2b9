//! Experiment harness for the LazyMC reproduction.
//!
//! One binary per table/figure of the paper (`src/bin/`, driven by
//! `repro_all`) plus shared plumbing: suite loading, timing, and
//! text-table rendering. The repository's benchmark is `perfbench/`
//! (see `docs/perf.md`).

pub mod harness;
pub mod perf;

pub use harness::{median, time_once, time_stats, Table};

// perfbench imports the allocator and `perf::host_facts` through this crate.
pub use lazymc_obs::alloc;

pub mod cli;
