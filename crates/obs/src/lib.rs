//! Observability primitives for the lazymc daemon.
//!
//! Everything in this crate is dependency-free (stdlib + the vendored
//! `parking_lot` shim) and designed to sit on hot paths without
//! serializing them:
//!
//! * [`Histogram`] — a lock-free log₂-bucketed latency histogram over
//!   atomic buckets; snapshots are mergeable and render directly to the
//!   Prometheus text exposition format (`_bucket`/`_sum`/`_count` with
//!   cumulative `le` labels).
//! * [`trace`] — request trace ids: generation without an RNG, and
//!   validation of inbound `X-Request-Id` values.
//! * [`Span`] — a named `[start, start+dur)` interval relative to some
//!   request epoch; a flat `Vec<Span>` is the crate's span "tree" (the
//!   daemon's requests are a pipeline, not a call graph, so offsets are
//!   all the structure anyone needs).
//! * [`SlowLog`] — a bounded keep-the-worst log of completed operations
//!   over an admission threshold.
//! * [`LogSink`] — where structured log lines go: stdout in production,
//!   a capture buffer in tests.
//! * [`alloc`] — a counting global allocator; the daemon's memory
//!   watermarks read its live-byte gauge.

pub mod alloc;
mod hist;
mod sink;
mod slow;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use sink::LogSink;
pub use slow::SlowLog;

/// One timed interval of a request's life, offsets relative to the
/// moment the request was received (or the solve started — the emitter
/// picks the epoch and says so).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers (`"parse"`, `"queue-wait"`, `"kcore"`, …).
    pub name: &'static str,
    /// Microseconds from the epoch to the interval's start.
    pub start_us: u64,
    /// Interval length in microseconds.
    pub dur_us: u64,
}

impl Span {
    /// A span starting at `start_us` lasting `dur_us`.
    pub fn new(name: &'static str, start_us: u64, dur_us: u64) -> Span {
        Span {
            name,
            start_us,
            dur_us,
        }
    }

    /// Microseconds from the epoch to the interval's end.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_end_is_start_plus_duration() {
        let s = Span::new("parse", 10, 25);
        assert_eq!(s.end_us(), 35);
        assert_eq!(s.name, "parse");
    }
}
