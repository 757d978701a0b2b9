//! Hopscotch hash set for `u32` vertex identifiers.
//!
//! The paper (§V) implements neighbourhood sets with hopscotch hashing
//! [Herlihy, Shavit, Tzafrir, DISC'08] where the maximum distance between a
//! key's slot and its home bucket equals one cache line: 64 bytes = 16
//! four-byte vertex ids. Membership metadata is kept as a *bitmask* per home
//! bucket (the paper found bitmasks faster than the original delta encoding).
//!
//! This crate reimplements exactly that variant:
//!
//! * neighbourhood size `H = 16`, hop-information is a `u16` bitmask;
//! * open addressing over a power-of-two table with multiplicative
//!   (Fibonacci) hashing;
//! * `contains` probes only the (at most 16) slots whose bit is set — the
//!   operation the early-exit intersection kernels hammer;
//! * insertion displaces ("hops") the nearest free slot towards the home
//!   bucket; if no displacement chain exists the table grows.
//!
//! The set is optimized for the build-once, probe-many pattern of
//! neighbourhood sets; removal is supported for general use.
//!
//! ```
//! use lazymc_hopscotch::HopscotchSet;
//!
//! let mut set = HopscotchSet::with_capacity(4);
//! set.insert(7);
//! set.insert(42);
//! assert!(set.contains(7) && !set.contains(8));
//! assert_eq!(set.len(), 2);
//! set.remove(7);
//! assert!(!set.contains(7));
//! ```

/// Hop range: one 64-byte cache line of 4-byte ids.
pub const H: usize = 16;

/// Sentinel marking an empty slot. `u32::MAX` can therefore not be stored;
/// vertex ids are always `< |V| <= u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// Smallest table we ever allocate. Must exceed `H` so displacement windows
/// cannot wrap onto themselves.
const MIN_CAPACITY: usize = 32;

/// Load factor numerator/denominator: grow beyond 7/8 full.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// An insert-only hopscotch hash set of `u32` keys.
#[derive(Clone)]
pub struct HopscotchSet {
    slots: Vec<u32>,
    hop: Vec<u16>,
    mask: usize,
    len: usize,
    shift: u32,
}

impl HopscotchSet {
    /// Creates an empty set sized for `expected` insertions without growth.
    pub fn with_capacity(expected: usize) -> Self {
        let mut set = Self::unallocated();
        set.reset(expected);
        set
    }

    /// Creates an empty set with the default minimum capacity.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Empties the set and sizes it for `expected` insertions, as
    /// [`HopscotchSet::with_capacity`] does, inside the existing
    /// allocation whenever that is large enough — so a set rebuilt per
    /// round over candidate lists of similar size stops allocating once
    /// it has seen the largest.
    pub fn reset(&mut self, expected: usize) {
        // Size so that `expected` keys stay under the load limit.
        let wanted = expected
            .saturating_mul(LOAD_DEN)
            .div_ceil(LOAD_NUM)
            .max(MIN_CAPACITY);
        self.reshape(wanted.next_power_of_two());
    }

    /// A set with no table yet; every constructor reshapes it at once.
    fn unallocated() -> Self {
        HopscotchSet {
            slots: Vec::new(),
            hop: Vec::new(),
            mask: 0,
            len: 0,
            shift: 0,
        }
    }

    /// Empties the table and gives it `cap` slots.
    fn reshape(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= MIN_CAPACITY);
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        self.hop.clear();
        self.hop.resize(cap, 0);
        self.mask = cap - 1;
        self.len = 0;
        self.shift = 64 - cap.trailing_zeros();
    }

    /// Number of keys stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current table capacity (diagnostics / tests).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes the table holds on to (pool retention bounds).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * 4 + self.hop.capacity() * 2
    }

    /// Fibonacci multiplicative hash onto the table.
    #[inline(always)]
    fn home(&self, key: u32) -> usize {
        (((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize) & self.mask
    }

    /// Membership test: probes only slots flagged in the home bitmask.
    /// This is the hot operation of every intersection kernel.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        let home = self.home(key);
        let mut bits = self.hop[home];
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            if self.slots[(home + i) & self.mask] == key {
                return true;
            }
            bits &= bits - 1;
        }
        false
    }

    /// Inserts `key`; returns `true` if it was not present before.
    ///
    /// # Panics
    /// Panics on `key == u32::MAX` (reserved sentinel).
    pub fn insert(&mut self, key: u32) -> bool {
        assert_ne!(key, EMPTY, "u32::MAX is reserved");
        if self.contains(key) {
            return false;
        }
        if (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow();
        }
        while !self.try_insert(key) {
            self.grow();
        }
        self.len += 1;
        true
    }

    /// One insertion attempt at the current capacity; `false` means the
    /// displacement chain failed and the table must grow.
    fn try_insert(&mut self, key: u32) -> bool {
        let home = self.home(key);
        // Find the nearest free slot (linear probe; bounded by table size).
        let cap = self.slots.len();
        let mut free_dist = usize::MAX;
        for d in 0..cap {
            if self.slots[(home + d) & self.mask] == EMPTY {
                free_dist = d;
                break;
            }
        }
        if free_dist == usize::MAX {
            return false; // table completely full (cannot happen below load limit)
        }
        // Hop the free slot towards home until it lies within H.
        while free_dist >= H {
            let free_slot = (home + free_dist) & self.mask;
            let mut hopped = false;
            // Consider buckets that could relocate one of their keys into
            // the free slot: bucket `free_slot - off` can, if it owns a key
            // at distance j < off (the key then moves to distance off < H).
            for off in (1..H).rev() {
                let b = free_slot.wrapping_sub(off) & self.mask;
                let candidates = self.hop[b] & ((1u16 << off) - 1);
                if candidates != 0 {
                    let j = candidates.trailing_zeros() as usize;
                    let s = (b + j) & self.mask;
                    self.slots[free_slot] = self.slots[s];
                    self.slots[s] = EMPTY;
                    self.hop[b] = (self.hop[b] & !(1u16 << j)) | (1u16 << off);
                    free_dist -= off - j;
                    hopped = true;
                    break;
                }
            }
            if !hopped {
                return false;
            }
        }
        let slot = (home + free_dist) & self.mask;
        debug_assert_eq!(self.slots[slot], EMPTY);
        self.slots[slot] = key;
        self.hop[home] |= 1u16 << free_dist;
        true
    }

    /// Doubles capacity and rehashes.
    fn grow(&mut self) {
        let mut cap = self.slots.len() * 2;
        'retry: loop {
            let mut bigger = Self::unallocated();
            bigger.reshape(cap);
            for &k in &self.slots {
                if k != EMPTY && !bigger.try_insert(k) {
                    // Chain failure right after doubling is extremely rare;
                    // keep doubling until everything fits.
                    cap *= 2;
                    continue 'retry;
                }
            }
            bigger.len = self.len;
            *self = bigger;
            return;
        }
    }

    /// Removes `key`; returns `true` if it was present. Lookups only ever
    /// walk home-bucket bitmasks, so clearing the slot and its hop bit is
    /// all hopscotch deletion requires (no tombstones, no compaction).
    pub fn remove(&mut self, key: u32) -> bool {
        if key == EMPTY {
            return false;
        }
        let home = self.home(key);
        let mut bits = self.hop[home];
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            let slot = (home + i) & self.mask;
            if self.slots[slot] == key {
                self.slots[slot] = EMPTY;
                self.hop[home] &= !(1u16 << i);
                self.len -= 1;
                return true;
            }
            bits &= bits - 1;
        }
        false
    }

    /// Iterates over the stored keys in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().copied().filter(|&k| k != EMPTY)
    }

    /// Collects the keys into a sorted vector (tests / conversions).
    pub fn to_sorted_vec(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.iter().collect();
        v.sort_unstable();
        v
    }

    /// Internal consistency check used by the property tests: every key's
    /// slot must lie within `H` of its home, and every hop bit must point at
    /// a key hashing to that bucket.
    pub fn check_invariants(&self) -> Result<(), String> {
        let cap = self.slots.len();
        let mut counted = 0usize;
        for b in 0..cap {
            let mut bits = self.hop[b];
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = (b + i) & self.mask;
                let k = self.slots[s];
                if k == EMPTY {
                    return Err(format!("hop bit {i} of bucket {b} points at empty slot"));
                }
                if self.home(k) != b {
                    return Err(format!("key {k} in bucket {b} hashes elsewhere"));
                }
                counted += 1;
            }
        }
        if counted != self.len {
            return Err(format!("hop bits count {counted} != len {}", self.len));
        }
        for (s, &k) in self.slots.iter().enumerate() {
            if k != EMPTY {
                let b = self.home(k);
                let dist = s.wrapping_sub(b) & self.mask;
                if dist >= H {
                    return Err(format!("key {k} at distance {dist} >= H from home"));
                }
                if self.hop[b] & (1u16 << dist) == 0 {
                    return Err(format!("key {k} not flagged in home bitmask"));
                }
            }
        }
        Ok(())
    }
}

impl Default for HopscotchSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<u32> for HopscotchSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let it = iter.into_iter();
        let mut s = HopscotchSet::with_capacity(it.size_hint().0);
        for k in it {
            s.insert(k);
        }
        s
    }
}

impl<'a> FromIterator<&'a u32> for HopscotchSet {
    fn from_iter<T: IntoIterator<Item = &'a u32>>(iter: T) -> Self {
        iter.into_iter().copied().collect()
    }
}

impl std::fmt::Debug for HopscotchSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HopscotchSet {{ len: {}, capacity: {} }}",
            self.len,
            self.capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = HopscotchSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(0));
        assert!(s.contains(5));
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn empty_set() {
        let s = HopscotchSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
        s.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn rejects_sentinel() {
        let mut s = HopscotchSet::new();
        s.insert(u32::MAX);
    }

    #[test]
    fn sequential_dense_keys() {
        let mut s = HopscotchSet::with_capacity(1000);
        for k in 0..1000u32 {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), 1000);
        for k in 0..1000u32 {
            assert!(s.contains(k), "missing {k}");
        }
        for k in 1000..2000u32 {
            assert!(!s.contains(k));
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn growth_from_minimum() {
        let mut s = HopscotchSet::new();
        let start_cap = s.capacity();
        for k in 0..10_000u32 {
            s.insert(k * 7 + 1);
        }
        assert!(s.capacity() > start_cap);
        assert_eq!(s.len(), 10_000);
        for k in 0..10_000u32 {
            assert!(s.contains(k * 7 + 1));
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn collision_heavy_same_bucket() {
        // Keys spaced exactly `capacity` apart share a home bucket under the
        // masked multiplicative hash often enough to exercise displacement.
        let mut s = HopscotchSet::with_capacity(64);
        let cap = s.capacity() as u32;
        for i in 0..40u32 {
            s.insert(i * cap);
        }
        for i in 0..40u32 {
            assert!(s.contains(i * cap));
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut s = HopscotchSet::with_capacity(500);
        let cap = s.capacity();
        for k in 0..500u32 {
            s.insert(k.wrapping_mul(2_654_435_761));
        }
        assert_eq!(s.capacity(), cap, "pre-sized table should not grow");
    }

    #[test]
    fn reset_empties_and_reuses_the_allocation() {
        let mut s: HopscotchSet = (0..500u32).collect();
        let bytes = s.heap_bytes();
        let slots = s.slots.as_ptr();
        s.reset(100);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(7));
        assert_eq!(s.capacity(), HopscotchSet::with_capacity(100).capacity());
        for k in 1000..1100u32 {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), 100);
        assert!(s.contains(1050) && !s.contains(50));
        s.check_invariants().unwrap();
        // Shrinking and refilling stayed inside the first allocation.
        assert_eq!(s.slots.as_ptr(), slots);
        assert_eq!(s.heap_bytes(), bytes);
    }

    #[test]
    fn iter_yields_exactly_inserted_keys() {
        let keys = [3u32, 99, 12, 7, 1_000_000, 42];
        let s: HopscotchSet = keys.iter().collect();
        let mut got = s.to_sorted_vec();
        got.dedup();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_basics() {
        let mut s = HopscotchSet::new();
        s.insert(10);
        s.insert(20);
        assert!(s.remove(10));
        assert!(!s.remove(10));
        assert!(!s.contains(10));
        assert!(s.contains(20));
        assert_eq!(s.len(), 1);
        s.check_invariants().unwrap();
        // re-insertion after removal works
        assert!(s.insert(10));
        assert!(s.contains(10));
        s.check_invariants().unwrap();
    }

    #[test]
    fn remove_under_collisions() {
        let mut s = HopscotchSet::with_capacity(64);
        let cap = s.capacity() as u32;
        for i in 0..30u32 {
            s.insert(i * cap);
        }
        for i in (0..30u32).step_by(2) {
            assert!(s.remove(i * cap), "remove {i}");
        }
        for i in 0..30u32 {
            assert_eq!(s.contains(i * cap), i % 2 == 1, "key {i}");
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn remove_of_sentinel_is_noop() {
        let mut s = HopscotchSet::new();
        assert!(!s.remove(u32::MAX));
    }

    #[test]
    fn large_random_workload_matches_std() {
        use std::collections::HashSet;
        let mut model = HashSet::new();
        let mut s = HopscotchSet::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x as u32) & 0xFFFF; // force collisions
            assert_eq!(s.insert(k), model.insert(k));
        }
        assert_eq!(s.len(), model.len());
        for k in 0..=0xFFFFu32 {
            assert_eq!(s.contains(k), model.contains(&k));
        }
        s.check_invariants().unwrap();
    }
}
