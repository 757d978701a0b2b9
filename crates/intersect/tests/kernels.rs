//! Property tests: every kernel must agree with the naive sorted
//! intersection under every threshold, for hash-set and sorted-slice
//! membership backends alike.

use lazymc_hopscotch::HopscotchSet;
use lazymc_intersect::*;
use proptest::prelude::*;

fn sorted_dedup(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

fn naive_intersection(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().copied().filter(|x| b.contains(x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Contract of Alg. 3: Some(s) → s and the buffer are exact;
    /// None → the true size is <= theta.
    #[test]
    fn intersect_gt_contract(
        a in proptest::collection::vec(0u32..500, 0..80),
        b in proptest::collection::vec(0u32..500, 0..80),
        theta in 0usize..40,
    ) {
        let a = sorted_dedup(a);
        let b = sorted_dedup(b);
        let truth = naive_intersection(&a, &b);
        let bs: HopscotchSet = b.iter().collect();
        let mut out = Vec::new();
        match intersect_gt(&a, &bs, &mut out, theta) {
            Some(s) => {
                prop_assert_eq!(s, truth.len());
                prop_assert_eq!(&out, &truth);
            }
            None => prop_assert!(truth.len() <= theta,
                "early exit but |A∩B| = {} > theta = {}", truth.len(), theta),
        }
        // completeness: size > theta ⇒ must not early-exit
        if truth.len() > theta {
            let r = intersect_gt(&a, &bs, &mut out, theta);
            prop_assert_eq!(r, Some(truth.len()));
        }
    }

    #[test]
    fn intersect_size_gt_val_contract(
        a in proptest::collection::vec(0u32..500, 0..80),
        b in proptest::collection::vec(0u32..500, 0..80),
        theta in 0usize..40,
    ) {
        let a = sorted_dedup(a);
        let b = sorted_dedup(b);
        let truth = naive_intersection(&a, &b).len();
        let bs: HopscotchSet = b.iter().collect();
        match intersect_size_gt_val(&a, &bs, theta) {
            Some(s) => prop_assert_eq!(s, truth),
            None => prop_assert!(truth <= theta),
        }
    }

    /// Alg. 4 must compute exactly |A∩B| > theta — with and without the
    /// second exit, and for both membership backends.
    #[test]
    fn intersect_size_gt_bool_exact(
        a in proptest::collection::vec(0u32..300, 0..80),
        b in proptest::collection::vec(0u32..300, 0..80),
        theta in 0usize..40,
    ) {
        let a = sorted_dedup(a);
        let b = sorted_dedup(b);
        let truth = naive_intersection(&a, &b).len() > theta;
        let bs: HopscotchSet = b.iter().collect();
        prop_assert_eq!(intersect_size_gt_bool(&a, &bs, theta, true), truth);
        prop_assert_eq!(intersect_size_gt_bool(&a, &bs, theta, false), truth);
        let sl = SortedSlice(&b);
        prop_assert_eq!(intersect_size_gt_bool(&a, &sl, theta, true), truth);
        prop_assert_eq!(intersect_size_gt_bool(&a, &sl, theta, false), truth);
    }

    #[test]
    fn all_full_intersections_agree(
        a in proptest::collection::vec(0u32..1000, 0..120),
        b in proptest::collection::vec(0u32..1000, 0..120),
    ) {
        let a = sorted_dedup(a);
        let b = sorted_dedup(b);
        let truth = naive_intersection(&a, &b);
        let bs: HopscotchSet = b.iter().collect();
        let mut out = Vec::new();
        prop_assert_eq!(intersect_plain(&a, &bs, &mut out), truth.len());
        prop_assert_eq!(&out, &truth);
        prop_assert_eq!(intersect_size_plain(&a, &bs), truth.len());
        prop_assert_eq!(intersect_sorted(&a, &b, &mut out), truth.len());
        prop_assert_eq!(&out, &truth);
    }

    /// Early-exit kernels must never be *wrong* merely because the sets are
    /// heavily skewed in size (the regime they were designed for).
    #[test]
    fn skewed_sizes(
        small in proptest::collection::vec(0u32..10_000, 0..12),
        big_seed in 0u32..1000,
        theta in 0usize..12,
    ) {
        let small = sorted_dedup(small);
        let big: Vec<u32> = (0..5_000u32).map(|i| i * 2 + big_seed % 2).collect();
        let truth = naive_intersection(&small, &big).len();
        let bs: HopscotchSet = big.iter().collect();
        prop_assert_eq!(intersect_size_gt_bool(&small, &bs, theta, true), truth > theta);
        match intersect_size_gt_val(&small, &bs, theta) {
            Some(s) => prop_assert_eq!(s, truth),
            None => prop_assert!(truth <= theta),
        }
    }
}
