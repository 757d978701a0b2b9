//! lazymc-chaos — dependency-free fault injection for the lazymc daemon.
//!
//! A *fault point* is a named call site (`lazymc_chaos::point!("sched.unit")`
//! or `lazymc_chaos::raise_io("persist.write")?`) compiled into debug builds
//! and compiled out of release builds (unless the `armed` feature is on —
//! the calls below constant-fold to nothing when [`COMPILED_IN`] is false).
//! Points do nothing until a *spec* arms them at runtime, either via the
//! `LAZYMC_CHAOS` environment variable at boot or `POST /debug/chaos` live.
//!
//! # Spec grammar
//!
//! ```text
//! spec    := clause [ ',' clause ]*
//! clause  := point '=' fault [ '@' trigger ]
//! fault   := 'eio' | 'enospc' | 'panic' | 'delay:' MILLIS
//! trigger := 'always' | 'once' | 'every:' N | 'prob:' P [ ':' SEED ]
//! ```
//!
//! Examples:
//!
//! ```text
//! LAZYMC_CHAOS='persist.write=eio@once'
//! LAZYMC_CHAOS='sched.unit=panic@every:50,journal.append=enospc'
//! LAZYMC_CHAOS='netio.wait=delay:5@prob:0.1:42'
//! ```
//!
//! Triggers are deterministic: `every:N` fires on the Nth, 2Nth, … hit of
//! that point; `prob:P:SEED` drives a per-point xorshift64 stream from SEED
//! (default seed 0x1azy… well, `0x6c617a79`), so a single-threaded run
//! replays identically. `once` fires on the first hit only.
//!
//! Io-style faults (`eio`, `enospc`) only apply at io points
//! ([`raise_io`]); at unit points ([`raise`]) they are ignored without
//! counting as an injection. `panic` and `delay` apply at both.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Environment variable consulted by [`arm_from_env`].
pub const ENV_VAR: &str = "LAZYMC_CHAOS";

/// Whether fault points exist in this build. Debug builds always compile
/// them in; release builds only with the `armed` cargo feature.
pub const COMPILED_IN: bool = cfg!(any(debug_assertions, feature = "armed"));

/// The fault a point injects when its trigger fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// `io::Error` EIO ("chaos: injected I/O error").
    Eio,
    /// `io::Error` ENOSPC ("chaos: injected disk-full error").
    Enospc,
    /// Panic with a message naming the point.
    Panic,
    /// Sleep for this many milliseconds, then continue normally.
    DelayMs(u64),
}

impl Fault {
    fn label(&self) -> String {
        match self {
            Fault::Eio => "eio".into(),
            Fault::Enospc => "enospc".into(),
            Fault::Panic => "panic".into(),
            Fault::DelayMs(ms) => format!("delay:{ms}"),
        }
    }
}

const DEFAULT_SEED: u64 = 0x6c61_7a79; // "lazy"

enum Trigger {
    Always,
    Once(AtomicBool),
    /// Fires on every Nth hit (hits N, 2N, …).
    Every(u64, AtomicU64),
    /// Threshold out of 2^32 against the high bits of a xorshift64 stream.
    Prob(u32, AtomicU64),
}

impl Trigger {
    fn label(&self) -> String {
        match self {
            Trigger::Always => "always".into(),
            Trigger::Once(_) => "once".into(),
            Trigger::Every(n, _) => format!("every:{n}"),
            Trigger::Prob(thr, _) => {
                format!("prob:{:.4}", *thr as f64 / 4294967296.0)
            }
        }
    }

    fn fires(&self) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::Once(done) => !done.swap(true, Ordering::Relaxed),
            Trigger::Every(n, count) => {
                let hit = count.fetch_add(1, Ordering::Relaxed) + 1;
                *n > 0 && hit % *n == 0
            }
            Trigger::Prob(threshold, state) => {
                // Racy read-modify-write is acceptable: concurrent hits may
                // share a draw, but a single-threaded run is deterministic.
                let mut x = state.load(Ordering::Relaxed);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                state.store(x, Ordering::Relaxed);
                ((x >> 32) as u32) < *threshold
            }
        }
    }
}

struct PointState {
    fault: Fault,
    trigger: Trigger,
    hits: AtomicU64,
    injected: AtomicU64,
}

struct Registry {
    spec: String,
    points: BTreeMap<String, PointState>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static INJECTIONS: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Option<Registry>> {
    static REG: OnceLock<Mutex<Option<Registry>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(None))
}

fn parse_fault(s: &str) -> Result<Fault, String> {
    match s {
        "eio" => Ok(Fault::Eio),
        "enospc" => Ok(Fault::Enospc),
        "panic" => Ok(Fault::Panic),
        _ => {
            if let Some(ms) = s.strip_prefix("delay:") {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad delay millis in fault `{s}`"))?;
                Ok(Fault::DelayMs(ms))
            } else {
                Err(format!(
                    "unknown fault `{s}` (expected eio|enospc|panic|delay:<ms>)"
                ))
            }
        }
    }
}

fn parse_trigger(s: &str) -> Result<Trigger, String> {
    match s {
        "always" => Ok(Trigger::Always),
        "once" => Ok(Trigger::Once(AtomicBool::new(false))),
        _ => {
            if let Some(n) = s.strip_prefix("every:") {
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("bad count in trigger `{s}`"))?;
                if n == 0 {
                    return Err("every:0 never fires; use a positive count".into());
                }
                Ok(Trigger::Every(n, AtomicU64::new(0)))
            } else if let Some(rest) = s.strip_prefix("prob:") {
                let (p, seed) = match rest.split_once(':') {
                    Some((p, seed)) => {
                        let seed: u64 = seed
                            .parse()
                            .map_err(|_| format!("bad seed in trigger `{s}`"))?;
                        (p, seed)
                    }
                    None => (rest, DEFAULT_SEED),
                };
                let p: f64 = p
                    .parse()
                    .map_err(|_| format!("bad probability in trigger `{s}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} outside [0,1]"));
                }
                let threshold = (p * 4294967296.0).min(u32::MAX as f64) as u32;
                Ok(Trigger::Prob(threshold, AtomicU64::new(seed.max(1))))
            } else {
                Err(format!(
                    "unknown trigger `{s}` (expected always|once|every:<n>|prob:<p>[:<seed>])"
                ))
            }
        }
    }
}

fn parse_spec(spec: &str) -> Result<BTreeMap<String, PointState>, String> {
    let mut points = BTreeMap::new();
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (name, rhs) = clause
            .split_once('=')
            .ok_or_else(|| format!("clause `{clause}` missing `=` (point=fault[@trigger])"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("clause `{clause}` has an empty point name"));
        }
        let (fault, trigger) = match rhs.split_once('@') {
            Some((f, t)) => (parse_fault(f.trim())?, parse_trigger(t.trim())?),
            None => (parse_fault(rhs.trim())?, Trigger::Always),
        };
        points.insert(
            name.to_string(),
            PointState {
                fault,
                trigger,
                hits: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            },
        );
    }
    if points.is_empty() {
        return Err("empty chaos spec".into());
    }
    Ok(points)
}

/// Arm the registry with `spec`, replacing any previous configuration.
/// Returns the number of armed points. Errs on parse failure or when fault
/// points are compiled out of this build ([`COMPILED_IN`] is false).
pub fn arm(spec: &str) -> Result<usize, String> {
    if !COMPILED_IN {
        return Err("chaos fault points are compiled out of this build \
             (release without the lazymc-chaos `armed` feature)"
            .into());
    }
    let points = parse_spec(spec)?;
    let n = points.len();
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    *reg = Some(Registry {
        spec: spec.trim().to_string(),
        points,
    });
    drop(reg);
    ARMED.store(true, Ordering::Release);
    Ok(n)
}

/// Arm from the `LAZYMC_CHAOS` environment variable. Returns `None` when the
/// variable is unset or empty, otherwise the result of [`arm`].
pub fn arm_from_env() -> Option<Result<usize, String>> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => Some(arm(&spec)),
        _ => None,
    }
}

/// Disarm every point. Counters for the dropped configuration are lost;
/// the process-wide [`injections_total`] survives.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    *reg = None;
}

/// The currently armed spec string, if any.
pub fn active_spec() -> Option<String> {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.as_ref().map(|r| r.spec.clone())
}

/// Process-wide count of injected faults (io errors, panics, delays) since
/// start. Survives re-arming and disarming.
pub fn injections_total() -> u64 {
    INJECTIONS.load(Ordering::Relaxed)
}

/// Per-point statistics for the currently armed configuration.
#[derive(Clone, Debug)]
pub struct PointStat {
    pub point: String,
    pub fault: String,
    pub trigger: String,
    pub hits: u64,
    pub injected: u64,
}

/// Snapshot of every armed point's counters (empty when disarmed).
pub fn point_stats() -> Vec<PointStat> {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let Some(reg) = reg.as_ref() else {
        return Vec::new();
    };
    reg.points
        .iter()
        .map(|(name, p)| PointStat {
            point: name.clone(),
            fault: p.fault.label(),
            trigger: p.trigger.label(),
            hits: p.hits.load(Ordering::Relaxed),
            injected: p.injected.load(Ordering::Relaxed),
        })
        .collect()
}

/// Evaluate `point` and return the fault to apply now, if any. Counts the
/// hit and (when the trigger fires) the injection.
fn evaluate(point: &str, io_capable: bool) -> Option<Fault> {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let state = reg.as_ref()?.points.get(point)?;
    state.hits.fetch_add(1, Ordering::Relaxed);
    if !io_capable && matches!(state.fault, Fault::Eio | Fault::Enospc) {
        // Io faults are meaningless at a unit point; don't burn the trigger.
        return None;
    }
    if !state.trigger.fires() {
        return None;
    }
    state.injected.fetch_add(1, Ordering::Relaxed);
    INJECTIONS.fetch_add(1, Ordering::Relaxed);
    Some(state.fault)
}

fn apply_panic_or_delay(point: &str, fault: Fault) {
    match fault {
        Fault::Panic => panic!("chaos: injected panic at point `{point}`"),
        Fault::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
        Fault::Eio | Fault::Enospc => unreachable!("io fault at unit point"),
    }
}

/// Unit fault point: may panic or sleep; io faults armed on this point are
/// ignored. Compiles to nothing in release builds without `armed`.
#[inline(always)]
pub fn raise(point: &str) {
    if !COMPILED_IN || !ARMED.load(Ordering::Acquire) {
        return;
    }
    if let Some(fault) = evaluate(point, false) {
        apply_panic_or_delay(point, fault);
    }
}

/// Io fault point: returns the injected `io::Error` for `eio`/`enospc`,
/// panics for `panic`, sleeps for `delay`. Compiles to `Ok(())` in release
/// builds without `armed`.
#[inline(always)]
pub fn raise_io(point: &str) -> io::Result<()> {
    if !COMPILED_IN || !ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    match evaluate(point, true) {
        Some(Fault::Eio) => Err(io::Error::other(format!(
            "chaos: injected I/O error at point `{point}` (EIO)"
        ))),
        Some(Fault::Enospc) => Err(io::Error::new(
            io::ErrorKind::StorageFull,
            format!("chaos: injected disk-full error at point `{point}` (ENOSPC)"),
        )),
        Some(fault) => {
            apply_panic_or_delay(point, fault);
            Ok(())
        }
        None => Ok(()),
    }
}

/// Unit fault point. `lazymc_chaos::point!("sched.unit")` — may panic or
/// inject latency at the call site.
#[macro_export]
macro_rules! point {
    ($name:expr) => {
        $crate::raise($name)
    };
}

/// Io fault point for use inside functions returning `io::Result` (or any
/// `Result<_, E: From<io::Error>>`): `lazymc_chaos::io_point!("persist.write");`
/// propagates the injected error with `?`.
#[macro_export]
macro_rules! io_point {
    ($name:expr) => {
        $crate::raise_io($name)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global; serialize tests that arm it.
    fn guard() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_points_do_nothing() {
        let _g = guard();
        disarm();
        raise("anything");
        assert!(raise_io("anything").is_ok());
        assert!(active_spec().is_none());
        assert!(point_stats().is_empty());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(arm("").is_err());
        assert!(arm("noequals").is_err());
        assert!(arm("p=weird").is_err());
        assert!(arm("p=eio@every:0").is_err());
        assert!(arm("p=eio@prob:1.5").is_err());
        assert!(arm("p=delay:abc").is_err());
        assert!(arm("=eio").is_err());
    }

    #[test]
    fn eio_and_enospc_inject_on_io_points_only() {
        let _g = guard();
        arm("io.p=eio,unit.p=enospc").unwrap();
        let err = raise_io("io.p").unwrap_err();
        assert!(err.to_string().contains("EIO"), "{err}");
        // Unit points ignore io faults without burning the trigger.
        raise("unit.p");
        let stats = point_stats();
        let unit = stats.iter().find(|s| s.point == "unit.p").unwrap();
        assert_eq!(unit.hits, 1);
        assert_eq!(unit.injected, 0);
        let err = raise_io("unit.p").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        disarm();
    }

    #[test]
    fn once_fires_exactly_once() {
        let _g = guard();
        arm("p=eio@once").unwrap();
        assert!(raise_io("p").is_err());
        assert!(raise_io("p").is_ok());
        assert!(raise_io("p").is_ok());
        let stats = point_stats();
        assert_eq!(stats[0].hits, 3);
        assert_eq!(stats[0].injected, 1);
        disarm();
    }

    #[test]
    fn every_nth_is_periodic() {
        let _g = guard();
        arm("p=eio@every:3").unwrap();
        let pattern: Vec<bool> = (0..9).map(|_| raise_io("p").is_err()).collect();
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true]
        );
        disarm();
    }

    #[test]
    fn prob_is_deterministic_for_a_seed() {
        let _g = guard();
        arm("p=eio@prob:0.5:12345").unwrap();
        let a: Vec<bool> = (0..64).map(|_| raise_io("p").is_err()).collect();
        arm("p=eio@prob:0.5:12345").unwrap();
        let b: Vec<bool> = (0..64).map(|_| raise_io("p").is_err()).collect();
        assert_eq!(a, b);
        let fired = a.iter().filter(|f| **f).count();
        assert!((8..=56).contains(&fired), "p=0.5 fired {fired}/64");
        disarm();
    }

    #[test]
    fn panic_fault_panics_with_point_name() {
        let _g = guard();
        arm("p=panic@once").unwrap();
        let caught = std::panic::catch_unwind(|| raise("p"));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("chaos: injected panic at point `p`"), "{msg}");
        raise("p"); // once: second hit is clean
        assert!(injections_total() >= 1);
        disarm();
    }

    #[test]
    fn delay_returns_ok_after_sleeping() {
        let _g = guard();
        arm("p=delay:1").unwrap();
        let start = std::time::Instant::now();
        assert!(raise_io("p").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(1));
        disarm();
    }

    #[test]
    fn arm_replaces_previous_spec() {
        let _g = guard();
        arm("a=eio").unwrap();
        arm("b=panic@once").unwrap();
        assert!(raise_io("a").is_ok(), "old point must be gone");
        assert_eq!(active_spec().as_deref(), Some("b=panic@once"));
        disarm();
    }

    #[test]
    fn env_arming_round_trips() {
        let _g = guard();
        std::env::set_var(ENV_VAR, "p=eio@once");
        assert_eq!(arm_from_env(), Some(Ok(1)));
        std::env::remove_var(ENV_VAR);
        assert_eq!(arm_from_env(), None);
        disarm();
    }
}
