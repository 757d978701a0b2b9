//! Reader parity: `MappedSnapshot::map` must accept exactly the files
//! that the heap reader (`snapshot::decode`, behind
//! `SnapshotStore::load` and `lazymc restore`) accepts — and on
//! acceptance the borrowed slices must be bit-identical to the decoded
//! arrays. Both run the one validation ladder, so this holds by
//! construction; the properties keep it that way. Probed under random
//! single-byte flips and truncations, the same corruption model
//! `crates/graph/tests/snapshot.rs` uses for the ladder alone.

use lazymc_graph::snapshot::{decode, encode, write_file_atomic};
use lazymc_graph::{gen, CsrGraph, GraphAccess, MappedSnapshot};
use lazymc_order::kcore_sequential;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        proptest::collection::vec((0u32..40, 0u32..40), 0..200)
            .prop_map(|edges| CsrGraph::from_edges(0, &edges)),
        (10usize..70, 0u64..20).prop_map(|(n, seed)| gen::gnp(n, 0.1, seed)),
        (20usize..80, 0u64..20).prop_map(|(n, seed)| gen::planted_clique(n, 0.08, 6, seed)),
        (0usize..30).prop_map(CsrGraph::empty),
        (3usize..30, 0u64..10).prop_map(|(n, seed)| gen::barabasi_albert(n, 2, seed)),
    ]
}

/// Writes `bytes` to a unique temp file and returns its path.
fn tmp_file(bytes: &[u8]) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("lazymc_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{}.lmcs", SEQ.fetch_add(1, Ordering::Relaxed)));
    write_file_atomic(&path, bytes).expect("write");
    path
}

/// The full snapshot bytes the service persists: CSR + embedded k-core.
fn full_snapshot_bytes(g: &CsrGraph) -> Vec<u8> {
    let kc = kcore_sequential(g);
    encode(g, &kc.coreness, &kc.peel_order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A freshly persisted snapshot maps, and every borrowed slice is
    /// bit-identical to what the heap pipeline decodes.
    #[test]
    fn mapped_slices_equal_decoded_arrays(g in arb_graph()) {
        let bytes = full_snapshot_bytes(&g);
        let heap = decode(&bytes).expect("heap reader rejects its own encode");
        prop_assert_eq!(&heap.graph, &g);
        let path = tmp_file(&bytes);
        let m = MappedSnapshot::map(&path).expect("map of a valid snapshot");
        let kc = kcore_sequential(&g);
        prop_assert_eq!(GraphAccess::num_vertices(&m), g.num_vertices());
        prop_assert_eq!(GraphAccess::num_edges(&m), g.num_edges());
        prop_assert_eq!(m.fingerprint(), g.fingerprint());
        prop_assert_eq!(heap.fingerprint, g.fingerprint());
        for v in 0..g.num_vertices() as u32 {
            prop_assert_eq!(GraphAccess::neighbors(&m, v), g.neighbors(v));
        }
        for (coreness, degeneracy, peel_order) in [
            (m.coreness(), m.degeneracy(), m.peel_order()),
            (&heap.coreness[..], heap.degeneracy, &heap.peel_order[..]),
        ] {
            prop_assert_eq!(coreness, &kc.coreness[..]);
            prop_assert_eq!(degeneracy, kc.degeneracy);
            prop_assert_eq!(peel_order, &kc.peel_order[..]);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Any single flipped byte is rejected by BOTH paths — the mapped
    /// loader must not accept bytes the decoder quarantines, nor vice
    /// versa (the flip breaks the whole-file checksum either way; a
    /// checksum-field flip mismatches the recomputed sum instead).
    #[test]
    fn flipped_byte_parity(g in arb_graph(), at_frac in 0u64..1000, bit in 0u32..8) {
        let bytes = full_snapshot_bytes(&g);
        let at = ((at_frac as usize * bytes.len()) / 1000).min(bytes.len() - 1);
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 1u8 << bit;
        let path = tmp_file(&corrupt);
        let map_ok = MappedSnapshot::map(&path).is_ok();
        let heap_ok = decode(&corrupt).is_ok();
        prop_assert_eq!(
            map_ok, heap_ok,
            "parity broke on bit {} of byte {}/{}", bit, at, bytes.len()
        );
        prop_assert!(!map_ok, "flip of bit {} at byte {} went undetected", bit, at);
        let _ = std::fs::remove_file(&path);
    }

    /// Every strict prefix is rejected by both paths.
    #[test]
    fn truncation_parity(g in arb_graph(), cut_frac in 0u64..1000) {
        let bytes = full_snapshot_bytes(&g);
        let keep = (cut_frac as usize * bytes.len()) / 1000;
        let keep = keep.min(bytes.len().saturating_sub(1));
        let truncated = &bytes[..keep];
        let path = tmp_file(truncated);
        let map_ok = MappedSnapshot::map(&path).is_ok();
        let heap_ok = decode(truncated).is_ok();
        prop_assert_eq!(map_ok, heap_ok, "truncation parity broke at {} bytes", keep);
        prop_assert!(!map_ok, "truncation to {} bytes went undetected", keep);
        let _ = std::fs::remove_file(&path);
    }
}
