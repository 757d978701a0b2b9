//! A counting global allocator.
//!
//! Wraps [`std::alloc::System`] with relaxed atomic counters: allocation
//! count, cumulative allocated bytes and freed bytes. The `lazymc` binary
//! installs it as its `#[global_allocator]`, so the daemon's memory
//! watermarks can read the live heap ([`live_bytes`]). Overhead is two
//! relaxed `fetch_add`s per allocation, noise for every workload here.
//!
//! The counters are process-wide. [`snapshot`] + [`AllocSnapshot::delta`]
//! bracket a region; [`tracking_enabled`] probes (with one throwaway
//! allocation) whether this process actually installed the allocator, so
//! callers can say "untracked" instead of reporting zeros as fact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Install with:
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn record_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    }

    #[inline]
    fn record_free(size: usize) {
        FREED.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the bookkeeping touches
// only atomics (no allocation, no TLS), so it is reentrancy-safe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::record_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::record_free(layout.size());
            Self::record_alloc(new_size);
        }
        p
    }
}

/// A point-in-time reading of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls so far (allocs + non-trivial reallocs).
    pub allocs: u64,
    /// Cumulative bytes ever allocated.
    pub allocated_bytes: u64,
}

/// Reads the current counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED.load(Ordering::Relaxed),
    }
}

impl AllocSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            allocated_bytes: self.allocated_bytes - earlier.allocated_bytes,
        }
    }
}

/// Bytes currently live (allocated and not yet freed). This is the gauge
/// the daemon's memory watermarks compare against `--max-memory-bytes`;
/// it reads as zero in processes that never installed the allocator
/// (check [`tracking_enabled`] before trusting it).
pub fn live_bytes() -> u64 {
    ALLOCATED
        .load(Ordering::Relaxed)
        .saturating_sub(FREED.load(Ordering::Relaxed))
}

/// Whether this process routes allocations through [`CountingAlloc`]
/// (i.e. some binary crate installed it as the global allocator).
pub fn tracking_enabled() -> bool {
    let before = ALLOCS.load(Ordering::Relaxed);
    let probe = Box::new(0u64);
    std::hint::black_box(&probe);
    drop(probe);
    ALLOCS.load(Ordering::Relaxed) != before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_arithmetic() {
        let a = AllocSnapshot {
            allocs: 10,
            allocated_bytes: 100,
        };
        let b = AllocSnapshot {
            allocs: 14,
            allocated_bytes: 160,
        };
        let d = b.delta(&a);
        assert_eq!(d.allocs, 4);
        assert_eq!(d.allocated_bytes, 60);
    }

    #[test]
    fn untracked_process_reports_disabled() {
        // The test binary does not install the allocator.
        assert!(!tracking_enabled());
        assert_eq!(snapshot().allocs, 0);
        assert_eq!(live_bytes(), 0);
    }
}
