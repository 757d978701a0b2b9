//! A tiny lock-based object pool for search scratch arenas.
//!
//! The systematic sweep solves thousands of small neighbourhood subgraphs
//! from short-lived parallel tasks. Every arena the engines use — the MC
//! and k-VC search arenas, the clique-via-VC pipeline's complement matrix
//! and bound buffers, the split solves' task arenas — lives in a static
//! pool of its module: a call checks one out, runs, and returns it.
//! Because arenas grow monotonically and are reshaped (not reallocated)
//! between solves, the whole sweep reaches a steady state where no solve
//! allocates at all — the buffers warmed by early neighbourhoods are
//! reused by every later one, across worker threads and parallel phases.
//!
//! The pool is a mutex around a stack of boxes. One lock round-trip per
//! neighbourhood solve is noise next to the solve itself, and a stack (as
//! opposed to per-thread storage) lets any scheduler worker pick up the
//! arena another worker warmed, so a solve's first claims on a fresh
//! worker do not start cold.

use std::sync::Mutex;

/// Most idle objects a pool retains; beyond that, returned objects are
/// dropped. Bounds memory at (number of workers that ever ran) arenas.
const POOL_CAP: usize = 64;

/// Arenas grown past this many heap bytes by an outlier instance are
/// dropped on return instead of pinned in the engines' static pools for
/// the process lifetime.
pub(crate) const MAX_RETAINED_BYTES: usize = 8 << 20;

/// A pool of reusable `T`s. `T::default()` is the cold-start object.
pub struct Pool<T> {
    stack: Mutex<Vec<Box<T>>>,
    /// When set, objects failing the predicate are dropped on `put`
    /// instead of retained — the hook long-lived processes use to stop
    /// one huge problem instance from pinning its arenas forever.
    retain: Option<fn(&T) -> bool>,
}

impl<T: Default> Pool<T> {
    /// An empty pool (usable as a `static`).
    pub const fn new() -> Self {
        Pool {
            stack: Mutex::new(Vec::new()),
            retain: None,
        }
    }

    /// An empty pool that drops returned objects failing `retain` —
    /// e.g. arenas grown past a byte budget by an outlier instance.
    pub const fn with_retain(retain: fn(&T) -> bool) -> Self {
        Pool {
            stack: Mutex::new(Vec::new()),
            retain: Some(retain),
        }
    }

    /// Pops a warm object, or builds a cold one.
    pub fn take(&self) -> Box<T> {
        self.stack.lock().unwrap().pop().unwrap_or_default()
    }

    /// Returns an object to the pool (dropped when the pool is full or
    /// the object fails the retain predicate).
    pub fn put(&self, item: Box<T>) {
        if let Some(retain) = self.retain {
            if !retain(&item) {
                return;
            }
        }
        let mut stack = self.stack.lock().unwrap();
        if stack.len() < POOL_CAP {
            stack.push(item);
        }
    }

    /// Runs `f` with a pooled object, returning it afterwards. If `f`
    /// panics the object is dropped, not returned — a half-updated arena
    /// never re-enters circulation.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut item = self.take();
        let r = f(&mut item);
        self.put(item);
        r
    }
}

impl<T: Default> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_objects() {
        static POOL: Pool<Vec<u32>> = Pool::new();
        POOL.with(|v| {
            assert!(v.is_empty());
            v.reserve(1024);
        });
        let cap = POOL.with(|v| v.capacity());
        assert!(cap >= 1024, "warm object must come back from the pool");
    }

    #[test]
    fn pool_retain_drops_oversized() {
        static POOL: Pool<Vec<u32>> = Pool::with_retain(|v| v.capacity() <= 100);
        POOL.with(|v| v.reserve(1000));
        // The oversized object was dropped on return: next take is cold.
        assert_eq!(POOL.with(|v| v.capacity()), 0);
        POOL.with(|v| v.reserve(10));
        assert!(POOL.with(|v| v.capacity()) >= 10, "small objects retained");
    }

    #[test]
    fn pool_survives_concurrent_use() {
        static POOL: Pool<Vec<u32>> = Pool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100u32 {
                        POOL.with(|v| {
                            v.clear();
                            v.push(i);
                            assert_eq!(v.len(), 1);
                        });
                    }
                });
            }
        });
    }
}
