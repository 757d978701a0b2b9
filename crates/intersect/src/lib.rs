//! Early-exit set intersection kernels — the paper's §IV-B contribution.
//!
//! Graph-mining time is dominated by set intersections whose results are
//! only *useful* when they are large enough: a candidate set only matters
//! if it can still produce a clique larger than the incumbent. The paper
//! introduces three operations that abandon work as soon as the outcome is
//! decided:
//!
//! * [`intersect_gt`] (paper Alg. 3) — materializes `A ∩ B` only if its
//!   size exceeds θ; used by the heuristic searches.
//! * [`intersect_size_gt_val`] — returns `|A ∩ B|` if it exceeds θ; used to
//!   find maximum-degree vertices.
//! * [`intersect_size_gt_bool`] (paper Alg. 4) — decides `|A ∩ B| > θ` with
//!   *two* early exits: a failure exit (too many misses) and a success exit
//!   (enough hits are guaranteed even if everything remaining misses);
//!   used by the advance filters.
//!
//! `A` is always a sorted slice; `B` is anything implementing
//! [`Membership`] — a hopscotch hash set on the hot path, or a sorted slice
//! when the lazy graph only has the array representation. Plain (no-exit)
//! variants back the paper's Fig. 5 ablation, and a sorted–sorted merge
//! kernel serves the baselines.
//!
//! ```
//! use lazymc_hopscotch::HopscotchSet;
//! use lazymc_intersect::{intersect_gt, intersect_size_gt_bool};
//!
//! let a = [1u32, 3, 5, 7, 9];
//! let b: HopscotchSet = [3u32, 5, 7, 11].into_iter().collect();
//! // |A ∩ B| = 3 > 2, so the intersection is materialized…
//! let mut out = Vec::new();
//! assert_eq!(intersect_gt(&a, &b, &mut out, 2), Some(3));
//! assert_eq!(out, vec![3, 5, 7]);
//! // …but a threshold of 3 lets the kernel abandon the work early.
//! assert_eq!(intersect_gt(&a, &b, &mut out, 3), None);
//! assert!(intersect_size_gt_bool(&a, &b, 2, true));
//! ```

use lazymc_hopscotch::HopscotchSet;

/// Anything that can answer membership queries for `u32` keys.
///
/// The kernels are generic (and monomorphized) over this trait so the same
/// algorithm runs against a hash set or a sorted array, mirroring the lazy
/// graph's "work with either representation" contexts (paper §IV-A).
pub trait Membership {
    /// Does the set contain `key`?
    fn contains_key(&self, key: u32) -> bool;
    /// Number of elements.
    fn size(&self) -> usize;
}

impl Membership for HopscotchSet {
    #[inline(always)]
    fn contains_key(&self, key: u32) -> bool {
        self.contains(key)
    }
    #[inline(always)]
    fn size(&self) -> usize {
        self.len()
    }
}

/// A sorted `u32` slice answering membership by binary search.
#[derive(Clone, Copy, Debug)]
pub struct SortedSlice<'a>(pub &'a [u32]);

impl Membership for SortedSlice<'_> {
    #[inline(always)]
    fn contains_key(&self, key: u32) -> bool {
        self.0.binary_search(&key).is_ok()
    }
    #[inline(always)]
    fn size(&self) -> usize {
        self.0.len()
    }
}

/// Paper Algorithm 3, `intersect-gt`: writes `A ∩ B` into `out` and returns
/// `Some(|A ∩ B|)` unless it can prove `|A ∩ B| <= theta` first, in which
/// case it returns `None` (leaving `out` with a partial prefix).
///
/// Guarantee: whenever `|A ∩ B| > theta` the result is `Some` with the full
/// sorted intersection in `out`. A `Some` with size `<= theta` is possible
/// only in the boundary case `|A| == theta` (the paper tolerates the same).
pub fn intersect_gt<M: Membership>(
    a: &[u32],
    b: &M,
    out: &mut Vec<u32>,
    theta: usize,
) -> Option<usize> {
    out.clear();
    let n = a.len();
    if n < theta || b.size() < theta {
        return None;
    }
    // Number of misses we may still tolerate while keeping |A∩B| > theta.
    let mut h = (n - theta) as i64;
    for &x in a {
        if !b.contains_key(x) {
            h -= 1;
            if h <= 0 {
                return None;
            }
        } else {
            out.push(x);
        }
    }
    Some(out.len())
}

/// `intersect-size-gt-val`: like [`intersect_gt`] but only counts.
/// Returns `Some(|A ∩ B|)` when the size exceeds `theta` (or completes at
/// the `|A| == theta` boundary), `None` as soon as the bound is violated.
pub fn intersect_size_gt_val<M: Membership>(a: &[u32], b: &M, theta: usize) -> Option<usize> {
    let n = a.len();
    if n < theta || b.size() < theta {
        return None;
    }
    let mut h = (n - theta) as i64;
    let mut hits = 0usize;
    for &x in a {
        if !b.contains_key(x) {
            h -= 1;
            if h <= 0 {
                return None;
            }
        } else {
            hits += 1;
        }
    }
    Some(hits)
}

/// Paper Algorithm 4, `intersect-size-gt-bool`: decides `|A ∩ B| > theta`.
///
/// Two early exits: the *failure* exit fires when so many elements of `A`
/// missed that θ+1 hits are impossible; the *success* exit (`second_exit`)
/// fires when the hits already banked guarantee success even if every
/// remaining element misses. Disabling `second_exit` reproduces the paper's
/// Fig. 5 ablation.
pub fn intersect_size_gt_bool<M: Membership>(
    a: &[u32],
    b: &M,
    theta: usize,
    second_exit: bool,
) -> bool {
    let n = a.len();
    if n <= theta || b.size() <= theta {
        return false;
    }
    let mut h = (n - theta) as i64;
    for (i, &x) in a.iter().enumerate() {
        if !b.contains_key(x) {
            h -= 1;
            if h <= 0 {
                return false; // cannot reach theta+1 hits any more
            }
        } else if second_exit && h > (n - i - 1) as i64 {
            return true; // success even if all remaining elements miss
        }
    }
    h > 0
}

/// Plain full intersection (no early exit): `out = A ∩ B`, returns the size.
/// Baseline for the Fig. 5 ablation.
pub fn intersect_plain<M: Membership>(a: &[u32], b: &M, out: &mut Vec<u32>) -> usize {
    out.clear();
    for &x in a {
        if b.contains_key(x) {
            out.push(x);
        }
    }
    out.len()
}

/// Plain intersection size (no early exit).
pub fn intersect_size_plain<M: Membership>(a: &[u32], b: &M) -> usize {
    let mut hits = 0usize;
    for &x in a {
        if b.contains_key(x) {
            hits += 1;
        }
    }
    hits
}

/// Sorted–sorted merge intersection, the classic two-pointer kernel used by
/// the eager baselines (PMC works off sorted adjacency arrays).
pub fn intersect_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) -> usize {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hset(keys: &[u32]) -> HopscotchSet {
        keys.iter().collect()
    }

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    #[test]
    fn intersect_gt_materializes_when_above_threshold() {
        let a = [1u32, 3, 5, 7, 9];
        let b = hset(&[3, 5, 7, 11]);
        let mut out = Vec::new();
        let r = intersect_gt(&a, &b, &mut out, 2);
        assert_eq!(r, Some(3));
        assert_eq!(out, vec![3, 5, 7]);
    }

    #[test]
    fn intersect_gt_exits_early_when_below() {
        let a = [1u32, 2, 3, 4, 5];
        let b = hset(&[100, 200, 300]);
        let mut out = Vec::new();
        assert_eq!(intersect_gt(&a, &b, &mut out, 3), None);
    }

    #[test]
    fn intersect_gt_rejects_small_inputs_immediately() {
        let a = [1u32, 2];
        let b = hset(&[1, 2]);
        let mut out = Vec::new();
        // n < theta → cannot possibly exceed theta
        assert_eq!(intersect_gt(&a, &b, &mut out, 3), None);
    }

    #[test]
    fn intersect_gt_boundary_full_containment() {
        // |A| == theta and A ⊆ B: the kernel completes and reports theta,
        // matching the paper's "may return -1 when the size is θ or less".
        let a = [2u32, 4, 6];
        let b = hset(&[2, 4, 6, 8]);
        let mut out = Vec::new();
        assert_eq!(intersect_gt(&a, &b, &mut out, 3), Some(3));
    }

    #[test]
    fn intersect_gt_theta_zero_all_misses() {
        let a = [1u32, 2, 3];
        let b = hset(&[10, 20]);
        let mut out = Vec::new();
        // theta = 0: an empty intersection is not > 0, so None is correct.
        assert_eq!(intersect_gt(&a, &b, &mut out, 0), None);
    }

    #[test]
    fn size_gt_val_matches_gt() {
        let a = [1u32, 3, 5, 7, 9, 11];
        let b = hset(&[1, 5, 9, 11, 13]);
        assert_eq!(intersect_size_gt_val(&a, &b, 3), Some(4));
        assert_eq!(intersect_size_gt_val(&a, &b, 4), None);
    }

    #[test]
    fn size_gt_bool_failure_exit() {
        let a = [1u32, 2, 3, 4];
        let b = hset(&[1]);
        assert!(!intersect_size_gt_bool(&a, &b, 1, true));
        assert!(!intersect_size_gt_bool(&a, &b, 1, false));
    }

    #[test]
    fn size_gt_bool_thresholds_on_full_overlap() {
        let a: Vec<u32> = (0..100).collect();
        let b: HopscotchSet = (0u32..100).collect();
        for theta in [0usize, 1, 50, 98, 99, 100, 150] {
            let expect = 100 > theta; // |A∩B| = 100
            assert_eq!(
                intersect_size_gt_bool(&a, &b, theta, true),
                expect,
                "theta={theta} second=true"
            );
            assert_eq!(
                intersect_size_gt_bool(&a, &b, theta, false),
                expect,
                "theta={theta} second=false"
            );
        }
    }

    #[test]
    fn size_gt_bool_empty_inputs() {
        let b = hset(&[]);
        assert!(!intersect_size_gt_bool(&[], &b, 0, true));
        let b2 = hset(&[1, 2, 3]);
        assert!(!intersect_size_gt_bool(&[], &b2, 0, true));
    }

    #[test]
    fn plain_variants_match_naive() {
        let a = [1u32, 4, 9, 16, 25];
        let bs = [4u32, 9, 10, 25, 30];
        let b = hset(&bs);
        let mut out = Vec::new();
        assert_eq!(intersect_plain(&a, &b, &mut out), 3);
        assert_eq!(out, naive(&a, &bs));
        assert_eq!(intersect_size_plain(&a, &b), 3);
    }

    #[test]
    fn sorted_matches_naive() {
        let a = [1u32, 4, 9, 16, 25, 36];
        let b = [2u32, 4, 8, 16, 32, 36, 40, 50];
        let want = naive(&a, &b);
        let mut out = Vec::new();
        assert_eq!(intersect_sorted(&a, &b, &mut out), want.len());
        assert_eq!(out, want);
    }

    #[test]
    fn sorted_slice_membership_backend() {
        let a = [1u32, 3, 5, 7];
        let b = [3u32, 7, 8];
        let m = SortedSlice(&b);
        assert_eq!(intersect_size_gt_val(&a, &m, 1), Some(2));
        assert!(intersect_size_gt_bool(&a, &m, 1, true));
        assert!(!intersect_size_gt_bool(&a, &m, 2, true));
    }
}
