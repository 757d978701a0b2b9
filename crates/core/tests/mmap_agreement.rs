//! Representation independence of the solve pipeline: a graph solved
//! through a zero-copy `MappedSnapshot` (CSR and coreness borrowed from
//! the file mapping) must be *bit-identical* to the same graph solved
//! from the heap — same ω, same witness, same node counts — at
//! `threads = 1`, where the search is deterministic. This is the
//! property that makes `--mmap-threshold-bytes` a pure performance knob.

use lazymc_core::{Config, Deadline, LazyMc};
use lazymc_graph::snapshot::{encode, write_file_atomic};
use lazymc_graph::{gen, CsrGraph, MappedSnapshot};
use lazymc_order::{kcore_sequential, KCoreView};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        // Uniform G(n,p) across the density range.
        (2usize..90, 0.0f64..0.5, 0u64..10_000).prop_map(|(n, p, s)| gen::gnp(n, p, s)),
        // Power-law régime — the one the mmap path exists for.
        (3usize..120, 2usize..6, 0u64..10_000).prop_map(|(n, k, s)| gen::barabasi_albert(
            n.max(k + 1),
            k,
            s
        )),
        (10usize..60, 0.0f64..0.2, 4usize..9, 0u64..10_000)
            .prop_map(|(n, p, k, s)| gen::planted_clique(n.max(k), p, k.min(n), s)),
    ]
}

fn snap_to_tmp(g: &CsrGraph) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("lazymc_agree_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{}.lmcs", SEQ.fetch_add(1, Ordering::Relaxed)));
    let kc = kcore_sequential(g);
    write_file_atomic(&path, &encode(g, &kc.coreness, &kc.peel_order)).expect("write snapshot");
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mapped_solve_is_bit_identical_to_heap(g in arb_graph(), phi in 0.0f64..=1.0) {
        let cfg = Config {
            threads: 1,
            density_threshold: phi,
            ..Config::default()
        };
        // Heap path: prepared solve with an owned decomposition, exactly
        // what the registry does for small graphs.
        let kc = kcore_sequential(&g);
        let heap = LazyMc::new(cfg.clone()).solve_prepared(
            &g,
            Some(kc.view()),
            &Deadline::starting_now(None),
            None,
        );
        // Mapped path: the same graph through the file mapping, coreness
        // borrowed from the snapshot rather than recomputed.
        let path = snap_to_tmp(&g);
        let m = MappedSnapshot::map(&path).expect("map");
        let view = KCoreView {
            coreness: m.coreness(),
            degeneracy: m.degeneracy(),
            peel_order: m.peel_order(),
        };
        let mapped = LazyMc::new(cfg).solve_prepared(
            &m,
            Some(view),
            &Deadline::starting_now(None),
            None,
        );
        prop_assert_eq!(heap.size(), mapped.size(), "omega diverged");
        prop_assert_eq!(heap.vertices(), mapped.vertices(), "witness diverged");
        prop_assert!(heap.is_exact() && mapped.is_exact());
        // Work-avoidance counters: identical search trees, not merely
        // identical answers.
        prop_assert_eq!(heap.metrics.mc_nodes, mapped.metrics.mc_nodes);
        prop_assert_eq!(heap.metrics.vc_nodes, mapped.metrics.vc_nodes);
        prop_assert_eq!(heap.metrics.searched_mc, mapped.metrics.searched_mc);
        prop_assert_eq!(heap.metrics.searched_kvc, mapped.metrics.searched_kvc);
        let _ = std::fs::remove_file(&path);
    }
}
