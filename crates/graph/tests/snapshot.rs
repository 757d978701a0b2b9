//! Property tests for the `.lmcs` snapshot format: `decode ∘ encode`
//! identity on arbitrary graphs (including the suite's synthetic régimes)
//! and corruption rejection under random byte flips and truncations.

use lazymc_graph::snapshot::{decode, encode, validate};
use lazymc_graph::{gen, CsrGraph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        // Raw edge soup (duplicates/self-loops normalized by the builder).
        proptest::collection::vec((0u32..50, 0u32..50), 0..250)
            .prop_map(|edges| CsrGraph::from_edges(0, &edges)),
        // The synthetic régimes the suite is built from.
        (10usize..80, 0u64..20).prop_map(|(n, seed)| gen::gnp(n, 0.1, seed)),
        (20usize..90, 0u64..20).prop_map(|(n, seed)| gen::planted_clique(n, 0.08, 6, seed)),
        (2usize..40).prop_map(gen::complete),
        (0usize..40).prop_map(CsrGraph::empty),
        (2usize..30, 0u64..10).prop_map(|(n, seed)| gen::barabasi_albert(n.max(3), 2, seed)),
    ]
}

/// A stand-in coreness array: the ladder checks its shape, not its values.
fn coreness_of(g: &CsrGraph) -> Vec<u32> {
    (0..g.num_vertices() as u32).map(|v| v % 7).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// decode ∘ encode is the identity on the graph, its fingerprint, and
    /// the stored coreness.
    #[test]
    fn round_trip_identity(g in arb_graph()) {
        let coreness = coreness_of(&g);
        let bytes = encode(&g, &coreness, &[]);
        let back = decode(&bytes).expect("decode of a fresh encode");
        prop_assert_eq!(back.fingerprint, g.fingerprint());
        prop_assert_eq!(&back.graph, &g);
        prop_assert_eq!(&back.coreness, &coreness);
        // Determinism: same inputs, same bytes.
        prop_assert_eq!(&bytes, &encode(&g, &coreness, &[]));
    }

    /// Any single flipped byte is rejected, wherever it lands.
    #[test]
    fn flipped_byte_rejected(g in arb_graph(), at_frac in 0u64..1000, bit in 0u32..8) {
        let bytes = encode(&g, &coreness_of(&g), &[]);
        let at = (at_frac as usize * bytes.len()) / 1000;
        let at = at.min(bytes.len() - 1);
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 1u8 << bit;
        prop_assert!(
            validate(&corrupt).is_err(),
            "flip of bit {} at byte {}/{} went undetected", bit, at, bytes.len()
        );
    }

    /// Any strict prefix is rejected as truncation.
    #[test]
    fn truncation_rejected(g in arb_graph(), cut_frac in 0u64..1000) {
        let bytes = encode(&g, &coreness_of(&g), &[]);
        let cut = (cut_frac as usize * bytes.len()) / 1000;
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(validate(&bytes[..cut]).is_err());
    }
}
