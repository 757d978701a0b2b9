//! Cross-solver property tests on random graphs:
//!
//! * ω(G) = |V| − minVC(Ḡ) (the equivalence LazyMC's algorithmic choice
//!   rests on, paper §II-B);
//! * the direct MC engine and the VC-based engine agree;
//! * the greedy coloring number always upper-bounds ω;
//! * decisions are monotone in k.

use lazymc_graph::gen;
use lazymc_solver::bitset::{BitMatrix, Bitset};
use lazymc_solver::{
    greedy_color_count, max_clique_dense, max_clique_via_vc, min_vertex_cover, vc::is_vertex_cover,
    vertex_cover_decision, Run,
};
use proptest::prelude::*;

/// The sequential MC engine on the whole matrix above `lb`.
fn direct_mc(m: &BitMatrix, lb: usize) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    max_clique_dense(
        m,
        &Bitset::full(m.len()),
        lb,
        Run::default(),
        None,
        &mut out,
    )
    .then_some(out)
}

/// The sequential clique-via-VC engine above `lb`.
fn via_vc(m: &BitMatrix, lb: usize) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    max_clique_via_vc(m, lb, Run::default(), None, &mut out).then_some(out)
}

/// A maximum clique by the direct engine (empty for an empty matrix).
fn exact_clique(m: &BitMatrix) -> Vec<u32> {
    direct_mc(m, 0).unwrap_or_default()
}

/// The sequential decision on the whole matrix.
fn decide(m: &BitMatrix, k: usize) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    let alive = Bitset::full(m.len());
    vertex_cover_decision(m, &alive, k, Run::default(), None, &mut out)
        .found
        .then_some(out)
}

fn arb_matrix() -> impl Strategy<Value = BitMatrix> {
    (2usize..28, 0.0f64..0.8, 0u64..10_000).prop_map(|(n, p, seed)| {
        let g = gen::gnp(n, p, seed);
        BitMatrix::from_csr(&g)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn clique_cover_duality(m in arb_matrix()) {
        let omega = exact_clique(&m).len();
        let comp = m.complement();
        let mvc = min_vertex_cover(&comp, None);
        prop_assert!(is_vertex_cover(&comp, &Bitset::full(m.len()), &mvc));
        prop_assert_eq!(omega, m.len() - mvc.len());
    }

    #[test]
    fn vc_engine_agrees_with_direct_mc(m in arb_matrix()) {
        let direct = exact_clique(&m);
        let via = via_vc(&m, 0).expect("omega >= 1 > 0");
        prop_assert_eq!(direct.len(), via.len());
        prop_assert!(m.is_clique(&via));
        prop_assert!(m.is_clique(&direct));
        // and with a lower bound exactly at / above omega
        prop_assert!(via_vc(&m, direct.len()).is_none());
        if direct.len() > 1 {
            let again = via_vc(&m, direct.len() - 1).unwrap();
            prop_assert_eq!(again.len(), direct.len());
        }
    }

    #[test]
    fn warm_arenas_agree_across_sizes(m in arb_matrix()) {
        // The engines keep their arenas in pools, so every call runs on
        // buffers an earlier, differently sized problem warmed. Both must
        // match the duality reference on this instance, on a shifted one
        // right after, and stay silent at lb = omega (stale-state check).
        let omega = m.len() - min_vertex_cover(&m.complement(), None).len();
        let out = direct_mc(&m, 0).expect("omega >= 1");
        prop_assert_eq!(out.len(), omega);
        prop_assert!(m.is_clique(&out));
        let out = via_vc(&m, 0).expect("omega >= 1");
        prop_assert_eq!(out.len(), omega);
        prop_assert!(m.is_clique(&out));

        // Re-solve a shifted instance through the now-warm arenas.
        let m2 = {
            let g = gen::gnp(m.len() + 5, 0.4, 1234);
            BitMatrix::from_csr(&g)
        };
        let omega2 = m2.len() - min_vertex_cover(&m2.complement(), None).len();
        prop_assert_eq!(direct_mc(&m2, 0).map(|c| c.len()), Some(omega2));
        prop_assert_eq!(via_vc(&m2, 0).map(|c| c.len()), Some(omega2));

        // lb handling: both engines stay silent at lb = omega.
        prop_assert!(direct_mc(&m, omega).is_none());
        prop_assert!(via_vc(&m, omega).is_none());
    }

    #[test]
    fn coloring_upper_bounds_omega(m in arb_matrix()) {
        let omega = exact_clique(&m).len();
        let colors = greedy_color_count(&m, &Bitset::full(m.len()));
        prop_assert!(colors >= omega, "colors {} < omega {}", colors, omega);
    }

    #[test]
    fn vc_decision_monotone_in_k(m in arb_matrix()) {
        let n = m.len();
        let mvc = min_vertex_cover(&m, None).len();
        for k in 0..=n {
            let feasible = decide(&m, k).is_some();
            prop_assert_eq!(feasible, k >= mvc, "k={} mvc={}", k, mvc);
            if let Some(c) = decide(&m, k) {
                prop_assert!(c.len() <= k);
                prop_assert!(is_vertex_cover(&m, &Bitset::full(n), &c));
            }
        }
    }

    #[test]
    fn mc_lower_bound_contract(m in arb_matrix()) {
        let omega = exact_clique(&m).len();
        for lb in 0..omega + 2 {
            match direct_mc(&m, lb) {
                Some(c) => {
                    prop_assert!(c.len() > lb);
                    prop_assert_eq!(c.len(), omega);
                }
                None => prop_assert!(omega <= lb),
            }
        }
    }
}
