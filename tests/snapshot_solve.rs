//! Oracle smoke for persisted graphs: seeded graphs saved to a snapshot
//! store and loaded back, onto the heap and as a zero-copy mapping, solve
//! to the Bron–Kerbosch ω with their loaded k-core at 1 and 2 threads.
//! Both readers refuse a snapshot with one flipped payload byte.

use lazymc::baselines::{self, Algorithm};
use lazymc::core::{Config, Deadline, LazyMc, SolveResult};
use lazymc::graph::{gen, CsrGraph, GraphAccess};
use lazymc::order::{kcore_sequential, KCoreView};
use lazymc::service::SnapshotStore;
use std::path::PathBuf;

fn graphs() -> Vec<CsrGraph> {
    (1..=2)
        .flat_map(|s| {
            [
                gen::gnp(60, 0.3, s),
                gen::planted_clique(80, 0.05, 7, s),
                gen::barabasi_albert(120, 3, s),
            ]
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lazymc_snapsolve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn solve(g: &dyn GraphAccess, kcore: KCoreView<'_>, threads: usize) -> SolveResult {
    LazyMc::new(Config::default().with_threads(threads)).solve_prepared(
        g,
        Some(kcore),
        &Deadline::none(),
        None,
    )
}

#[test]
fn heap_and_mapped_snapshots_solve_to_the_oracle() {
    let dir = tmp_dir("solve");
    let store = SnapshotStore::open(&dir).expect("open store");
    for (i, g) in graphs().iter().enumerate() {
        let name = format!("g{i}");
        store.save(&name, g, &kcore_sequential(g)).expect("save");
        let omega = baselines::run(Algorithm::Reference, g).len();
        let (heap, heap_kcore, _) = store.load(&name).expect("heap load");
        assert_eq!(&heap, g, "{name}: heap load differs from the saved graph");
        let mapped = store.load_mapped(&name).expect("mapped load");
        let mapped_kcore = KCoreView {
            coreness: mapped.coreness(),
            degeneracy: mapped.degeneracy(),
            peel_order: mapped.peel_order(),
        };
        for threads in [1, 2] {
            let on_heap = solve(&heap, heap_kcore.view(), threads);
            let on_mapping = solve(&mapped, mapped_kcore, threads);
            for (side, r) in [("heap", &on_heap), ("mapped", &on_mapping)] {
                assert_eq!(r.size(), omega, "{name} {side} t{threads}: wrong ω");
                assert!(r.is_exact(), "{name} {side} t{threads}: inexact");
                assert!(
                    g.is_clique(r.vertices()),
                    "{name} {side} t{threads}: witness is not a clique"
                );
            }
            if threads == 1 {
                let nodes = |r: &SolveResult| (r.metrics.mc_nodes, r.metrics.vc_nodes);
                assert_eq!(
                    nodes(&on_heap),
                    nodes(&on_mapping),
                    "{name}: heap and mapped searches diverged"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_readers_refuse_a_flipped_payload_byte() {
    let dir = tmp_dir("flip");
    let store = SnapshotStore::open(&dir).expect("open store");
    let g = gen::planted_clique(80, 0.05, 7, 1);
    let kcore = kcore_sequential(&g);
    for name in ["heap", "mapped"] {
        store.save(name, &g, &kcore).expect("save");
        let path = dir.join(format!("{name}.lmcs"));
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
    }
    assert!(store.load("heap").is_none(), "heap reader accepted a flip");
    assert!(
        store.load_mapped("mapped").is_none(),
        "mapped reader accepted a flip"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
