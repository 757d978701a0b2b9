//! Overload control: the daemon's answer to *too much success*.
//!
//! PR 8 made faults survivable; this module makes sustained over-capacity
//! traffic survivable, in the paper's work-avoidance spirit — the cheapest
//! job is the one never run:
//!
//! * [`DrainRate`] — a sliding-window estimator of how fast the solve
//!   pipeline completes jobs. Every `Retry-After` the daemon emits (queue
//!   full, connection limit, shed) is derived from it: `backlog ÷ rate`,
//!   so clients are told when capacity will plausibly exist instead of a
//!   static "1".
//! * [`Shedder`] — a CoDel-style controller on queue wait. While the
//!   *observed* queue wait of popped jobs stays above
//!   `--queue-delay-target-ms` for a full interval, the daemon sheds
//!   lowest-priority admissions with `503 + Retry-After` rather than
//!   letting every queued job's latency grow without bound. One wait
//!   observation below target (or an empty queue) exits shedding — the
//!   controller reacts to *standing* queues, not bursts.
//! * [`MemWatermarks`] — soft/hard thresholds over the counting
//!   allocator's live-byte gauge (`--max-memory-bytes`). Above soft
//!   (80 %): uploads are rejected 503 and `/healthz` degrades. Above
//!   hard (100 %): the lowest-priority *running* solve is cancelled
//!   through the existing abort machinery.

use crate::plock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How far back completions count toward the drain rate.
const DRAIN_WINDOW: Duration = Duration::from_secs(10);
/// Retry-After bounds: never 0 (clients would hammer), never absurd.
const RETRY_AFTER_MIN: u64 = 1;
const RETRY_AFTER_MAX: u64 = 60;

/// Sliding-window completions-per-second estimator shared by every
/// backpressure response.
pub struct DrainRate {
    completions: Mutex<VecDeque<Instant>>,
    /// Lifetime completions observed (monotonic, for /metrics).
    pub observed_total: AtomicU64,
}

impl Default for DrainRate {
    fn default() -> DrainRate {
        DrainRate::new()
    }
}

impl DrainRate {
    pub fn new() -> DrainRate {
        DrainRate {
            completions: Mutex::new(VecDeque::new()),
            observed_total: AtomicU64::new(0),
        }
    }

    /// Records one finished job (solved, failed, cancelled or reaped —
    /// each frees a queue slot, which is what a waiting client cares
    /// about).
    pub fn observe_completion(&self) {
        self.observed_total.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let mut window = plock(&self.completions);
        window.push_back(now);
        while window
            .front()
            .is_some_and(|&t| now.duration_since(t) > DRAIN_WINDOW)
        {
            window.pop_front();
        }
    }

    /// Completions per second over the window; 0.0 while nothing has
    /// finished recently.
    pub fn per_sec(&self) -> f64 {
        let now = Instant::now();
        let mut window = plock(&self.completions);
        while window
            .front()
            .is_some_and(|&t| now.duration_since(t) > DRAIN_WINDOW)
        {
            window.pop_front();
        }
        window.len() as f64 / DRAIN_WINDOW.as_secs_f64()
    }

    /// Seconds until `backlog` jobs plausibly drained, clamped to
    /// `[1, 60]`. With no observed drain (cold start, wedged pool) the
    /// answer is the cap — "come back much later" is the honest estimate.
    pub fn retry_after(&self, backlog: usize) -> u64 {
        let rate = self.per_sec();
        if rate <= f64::EPSILON {
            return if backlog == 0 {
                RETRY_AFTER_MIN
            } else {
                RETRY_AFTER_MAX
            };
        }
        let secs = (backlog as f64 / rate).ceil() as u64;
        secs.clamp(RETRY_AFTER_MIN, RETRY_AFTER_MAX)
    }
}

struct ShedState {
    /// When observed waits first exceeded the target without relief.
    above_since: Option<Instant>,
}

/// CoDel-style shedding controller on observed queue wait.
pub struct Shedder {
    /// Queue-delay target; `None` disables shedding entirely.
    target: Option<Duration>,
    state: Mutex<ShedState>,
    shedding: AtomicBool,
    /// Admissions rejected by the controller.
    pub shed_total: AtomicU64,
}

impl Shedder {
    pub fn new(target: Option<Duration>) -> Shedder {
        Shedder {
            target,
            state: Mutex::new(ShedState { above_since: None }),
            shedding: AtomicBool::new(false),
            shed_total: AtomicU64::new(0),
        }
    }

    /// The controller's reaction interval: waits must stay above target
    /// for this long before shedding starts (CoDel's "standing queue"
    /// criterion — a single burst above target is not overload).
    fn interval(&self, target: Duration) -> Duration {
        target.max(Duration::from_millis(100))
    }

    /// Feeds one measured queue wait (recorded at job pop). Also the exit
    /// path: any wait at/below target immediately ends shedding.
    pub fn observe_wait(&self, wait: Duration) {
        let Some(target) = self.target else { return };
        let mut state = plock(&self.state);
        if wait <= target {
            state.above_since = None;
            self.shedding.store(false, Ordering::Relaxed);
            return;
        }
        let now = Instant::now();
        let since = *state.above_since.get_or_insert(now);
        if now.duration_since(since) >= self.interval(target) {
            self.shedding.store(true, Ordering::Relaxed);
        }
    }

    /// An empty queue cannot have a standing-queue problem; called when
    /// the queue drains so shedding ends even if no further pop happens.
    pub fn observe_idle(&self) {
        if self.target.is_none() {
            return;
        }
        plock(&self.state).above_since = None;
        self.shedding.store(false, Ordering::Relaxed);
    }

    pub fn is_shedding(&self) -> bool {
        self.shedding.load(Ordering::Relaxed)
    }

    /// Whether an admission at `priority` should be shed right now.
    /// Only the lowest-priority admissions are shed: a job that would
    /// overtake something already waiting (`priority` strictly above the
    /// best queued priority) is still accepted — overload must not lock
    /// out urgent work.
    pub fn should_shed(&self, priority: u8, best_queued_priority: Option<u8>) -> bool {
        if !self.is_shedding() {
            return false;
        }
        match best_queued_priority {
            Some(best) => priority <= best,
            // Queue momentarily empty: nothing is standing, admit.
            None => false,
        }
    }

    /// Counts one shed admission.
    pub fn count_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }
}

/// Memory pressure classification against `--max-memory-bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// Below the soft watermark (or tracking unavailable / no limit set).
    Ok,
    /// Above soft (80 % of max): reject large new work, degrade health.
    Soft,
    /// Above hard (100 % of max): actively cancel the cheapest running
    /// solve to get back under.
    Hard,
}

/// Soft/hard watermarks over the counting allocator's live-byte gauge.
pub struct MemWatermarks {
    max_bytes: Option<u64>,
    /// Whether this process actually routes allocations through the
    /// counting allocator (the `lazymc` binary does; library test
    /// binaries do not — watermarks are inert there, reported as
    /// untracked rather than pretending zero bytes are live).
    tracked: bool,
    /// Uploads rejected at the soft watermark.
    pub soft_rejects: AtomicU64,
    /// Running solves cancelled at the hard watermark.
    pub hard_cancels: AtomicU64,
}

impl MemWatermarks {
    pub fn new(max_bytes: Option<u64>) -> MemWatermarks {
        MemWatermarks {
            max_bytes,
            tracked: lazymc_obs::alloc::tracking_enabled(),
            soft_rejects: AtomicU64::new(0),
            hard_cancels: AtomicU64::new(0),
        }
    }

    /// Whether watermark enforcement is live (a limit is set *and* the
    /// allocator is counting).
    pub fn enforced(&self) -> bool {
        self.max_bytes.is_some() && self.tracked
    }

    pub fn tracked(&self) -> bool {
        self.tracked
    }

    pub fn live_bytes(&self) -> u64 {
        lazymc_obs::alloc::live_bytes()
    }

    /// Soft watermark: 80 % of the configured maximum.
    pub fn soft_bytes(&self) -> Option<u64> {
        self.max_bytes.map(|max| max / 5 * 4)
    }

    pub fn hard_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    pub fn level(&self) -> MemLevel {
        if !self.enforced() {
            return MemLevel::Ok;
        }
        self.classify(self.live_bytes())
    }

    /// Pure classification, separated so tests can drive it with
    /// synthetic live-byte readings regardless of which allocator the
    /// test binary installed.
    pub fn classify(&self, live: u64) -> MemLevel {
        let (Some(soft), Some(hard)) = (self.soft_bytes(), self.hard_bytes()) else {
            return MemLevel::Ok;
        };
        if live >= hard {
            MemLevel::Hard
        } else if live >= soft {
            MemLevel::Soft
        } else {
            MemLevel::Ok
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_tracks_drain_rate() {
        let d = DrainRate::new();
        // Nothing drained yet: empty backlog says come back soon, real
        // backlog says come back late.
        assert_eq!(d.retry_after(0), RETRY_AFTER_MIN);
        assert_eq!(d.retry_after(10), RETRY_AFTER_MAX);
        for _ in 0..50 {
            d.observe_completion();
        }
        // 50 completions in a 10s window → 5/s → 20 jobs ≈ 4s.
        let eta = d.retry_after(20);
        assert!((3..=5).contains(&eta), "eta {eta}");
        assert_eq!(d.retry_after(1), RETRY_AFTER_MIN);
        assert_eq!(d.retry_after(10_000), RETRY_AFTER_MAX);
        assert_eq!(d.observed_total.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn shedder_requires_a_standing_queue() {
        let target = Duration::from_millis(1);
        let s = Shedder::new(Some(target));
        assert!(!s.is_shedding());
        // One bad wait is a burst, not overload.
        s.observe_wait(Duration::from_millis(50));
        assert!(!s.is_shedding());
        // Waits still above target a full interval later: shed.
        std::thread::sleep(s.interval(target) + Duration::from_millis(10));
        s.observe_wait(Duration::from_millis(50));
        assert!(s.is_shedding());
        // Only lowest-priority admissions are refused.
        assert!(s.should_shed(0, Some(0)));
        assert!(s.should_shed(1, Some(2)));
        assert!(!s.should_shed(3, Some(2)), "overtaking work still admitted");
        assert!(!s.should_shed(0, None), "empty queue admits");
        // A single good wait exits immediately.
        s.observe_wait(Duration::from_micros(100));
        assert!(!s.is_shedding());
        // And an idle queue also exits.
        std::thread::sleep(s.interval(target) + Duration::from_millis(10));
        s.observe_wait(Duration::from_millis(50));
        std::thread::sleep(s.interval(target) + Duration::from_millis(10));
        s.observe_wait(Duration::from_millis(50));
        assert!(s.is_shedding());
        s.observe_idle();
        assert!(!s.is_shedding());
    }

    #[test]
    fn shedder_disabled_without_target() {
        let s = Shedder::new(None);
        s.observe_wait(Duration::from_secs(10));
        s.observe_wait(Duration::from_secs(10));
        assert!(!s.is_shedding());
        assert!(!s.should_shed(0, Some(0)));
    }

    #[test]
    fn mem_levels_classify_against_soft_and_hard() {
        let m = MemWatermarks::new(Some(1000));
        assert_eq!(m.soft_bytes(), Some(800));
        assert_eq!(m.hard_bytes(), Some(1000));
        assert_eq!(m.classify(0), MemLevel::Ok);
        assert_eq!(m.classify(799), MemLevel::Ok);
        assert_eq!(m.classify(800), MemLevel::Soft);
        assert_eq!(m.classify(999), MemLevel::Soft);
        assert_eq!(m.classify(1000), MemLevel::Hard);
        let unlimited = MemWatermarks::new(None);
        assert_eq!(unlimited.classify(u64::MAX), MemLevel::Ok);
        assert!(!unlimited.enforced());
    }
}
