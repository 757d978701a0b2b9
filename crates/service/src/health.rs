//! Degraded-health tracking: the daemon's answer to non-fatal faults.
//!
//! A snapshot write failing with ENOSPC, or the job journal hitting an I/O
//! error, must not turn uploads and solves into 500s — the in-memory side
//! of both features keeps working. Instead the failing component records a
//! *degradation reason* here; `/healthz` reports `"state": "degraded"`
//! with the reasons, monitoring alerts on the `/metrics` degraded gauge, and
//! the component clears its reason on the next success (disk freed,
//! journal re-enabled after an operator fixes the volume).
//!
//! Reasons are keyed by component (`"snapshot"`, `"journal"`, …): a
//! component flapping between ok and failing holds one slot, not a
//! growing list.

use crate::plock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared degraded-state registry; one per [`crate::ServiceState`].
#[derive(Default)]
pub struct Health {
    reasons: Mutex<BTreeMap<&'static str, String>>,
    /// Times any component entered the degraded state (not per-flap
    /// refreshes of an existing reason).
    pub degraded_events: AtomicU64,
}

impl Health {
    pub fn new() -> Health {
        Health::default()
    }

    /// Marks `component` degraded with a human-readable reason. Updating
    /// an already-degraded component refreshes the reason without counting
    /// a new event.
    pub fn degrade(&self, component: &'static str, reason: String) {
        let mut reasons = plock(&self.reasons);
        if reasons.insert(component, reason).is_none() {
            self.degraded_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Clears `component`'s degradation (no-op if it was healthy).
    pub fn clear(&self, component: &'static str) {
        plock(&self.reasons).remove(component);
    }

    pub fn is_degraded(&self) -> bool {
        !plock(&self.reasons).is_empty()
    }

    /// `(component, reason)` pairs, ordered by component.
    pub fn reasons(&self) -> Vec<(&'static str, String)> {
        plock(&self.reasons)
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn degrade_clear_lifecycle() {
        let h = Health::new();
        assert!(!h.is_degraded());
        h.degrade("snapshot", "disk full".into());
        h.degrade("journal", "EIO".into());
        assert!(h.is_degraded());
        assert_eq!(h.degraded_events.load(Ordering::Relaxed), 2);
        // Refreshing a reason is not a new event.
        h.degrade("snapshot", "still full".into());
        assert_eq!(h.degraded_events.load(Ordering::Relaxed), 2);
        assert_eq!(
            h.reasons(),
            vec![
                ("journal", "EIO".to_string()),
                ("snapshot", "still full".to_string())
            ]
        );
        h.clear("snapshot");
        h.clear("journal");
        assert!(!h.is_degraded());
        // Re-entering after a clear counts again.
        h.degrade("snapshot", "full again".into());
        assert_eq!(h.degraded_events.load(Ordering::Relaxed), 3);
    }
}
