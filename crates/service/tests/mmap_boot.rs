//! Live-socket proof of the massive-registry régime: a daemon booted
//! over 200 pre-seeded snapshots with `mmap_threshold_bytes = 0` serves
//! stats and solves on every one of them with ZERO heap decodes and
//! ZERO k-core recomputations — each first touch is an mmap, counted by
//! `lazymc_snapshot_mmap_total`, and mapped graphs never pressure the
//! `max_graphs` eviction capacity.

mod common;

use common::{bool_field, u64_field, Client};
use lazymc_graph::snapshot::{encode, write_file_atomic};
use lazymc_graph::{gen, CsrGraph};
use lazymc_order::kcore_sequential;
use lazymc_service::{serve, ServiceConfig};
use std::path::{Path, PathBuf};

const SNAPSHOTS: usize = 200;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lazymc_svc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_snapshot(dir: &Path, name: &str, g: &CsrGraph) {
    let kc = kcore_sequential(g);
    let bytes = encode(g, &kc.coreness, &kc.peel_order);
    write_file_atomic(&dir.join(format!("{name}.lmcs")), &bytes).expect("seed snapshot");
}

#[test]
fn cold_boot_200_snapshots_without_a_single_decode() {
    let dir = tmp_dir("mmapboot");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // One graph with a known planted clique (solved below), 199 fillers.
    let planted = gen::planted_clique(300, 0.03, 11, 7);
    seed_snapshot(&dir, "boot-000", &planted);
    for i in 1..SNAPSHOTS {
        seed_snapshot(
            &dir,
            &format!("boot-{i:03}"),
            &gen::gnp(120, 0.08, i as u64),
        );
    }

    // max_graphs far below the snapshot count: if mapped entries counted
    // toward eviction capacity, touching all 200 would thrash.
    let handle = serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        max_graphs: 4,
        mmap_threshold_bytes: 0,
        data_dir: Some(dir.to_str().expect("utf8 dir").to_string()),
        scrub_interval: None,
        ..ServiceConfig::default()
    })
    .expect("bind service");
    let mut c = Client::connect(handle.addr());

    // Lazy boot: everything on disk, nothing resident.
    let (_, health) = c.get_json("/healthz");
    assert_eq!(u64_field(&health, "graphs"), 0);
    assert_eq!(u64_field(&health, "snapshots"), SNAPSHOTS as u64);

    // Touch all 200. Each first touch must be an mmap, not a decode.
    for i in 0..SNAPSHOTS {
        let (status, stats) = c.get_json(&format!("/stats/boot-{i:03}"));
        assert_eq!(status, 200, "stats on boot-{i:03}");
        assert!(bool_field(&stats, "mapped"), "boot-{i:03} not mapped");
        assert!(u64_field(&stats, "mapped_bytes") > 0);
    }

    // A solve through a mapping gives the exact planted answer.
    let (status, solved) = c.post_json("/solve", r#"{"graph":"boot-000","threads":1}"#);
    assert_eq!(status, 200);
    assert!(bool_field(&solved, "exact"));
    assert_eq!(u64_field(&solved, "omega"), 11);

    // The régime, proven by the daemon's own counters: zero decodes,
    // zero re-peels, 200 mmaps, all 200 resident as mappings despite
    // max_graphs = 4 — at page-cache cost, not heap cost.
    assert_eq!(c.metric("lazymc_core_computes_total"), 0);
    assert_eq!(c.metric("lazymc_snapshot_lazy_loads_total"), 0);
    assert_eq!(c.metric("lazymc_snapshot_mmap_total"), SNAPSHOTS as u64);
    assert_eq!(c.metric("lazymc_graphs_mapped"), SNAPSHOTS as u64);
    assert!(c.metric("lazymc_mapped_bytes") > 0);
    assert_eq!(c.metric("lazymc_graphs_evicted_total"), 0);

    let (_, health) = c.get_json("/healthz");
    assert_eq!(u64_field(&health, "graphs"), SNAPSHOTS as u64);
    assert_eq!(u64_field(&health, "graphs_mapped"), SNAPSHOTS as u64);
    assert!(u64_field(&health, "mapped_bytes") > 0);
    assert_eq!(
        u64_field(&health, "snapshot_heap_bytes"),
        0,
        "mapped graphs must cost zero resident heap"
    );

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The threshold splits the registry: small snapshots decode onto the
/// heap (dense-kernel fast path), large ones map. `u64::MAX` disables
/// mapping entirely.
#[test]
fn threshold_splits_heap_and_mapped() {
    let dir = tmp_dir("mmapthresh");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let small = gen::gnp(60, 0.1, 1); // ~KB-scale snapshot
    let large = gen::gnp(4_000, 0.01, 2); // comfortably past 64 KiB
    seed_snapshot(&dir, "small", &small);
    seed_snapshot(&dir, "large", &large);

    let handle = serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        mmap_threshold_bytes: 64 << 10,
        data_dir: Some(dir.to_str().expect("utf8 dir").to_string()),
        scrub_interval: None,
        ..ServiceConfig::default()
    })
    .expect("bind service");
    let mut c = Client::connect(handle.addr());

    let (_, s) = c.get_json("/stats/small");
    assert!(!bool_field(&s, "mapped"), "below threshold stays heap");
    let (_, l) = c.get_json("/stats/large");
    assert!(bool_field(&l, "mapped"), "above threshold must map");
    // The heap reload decoded and counted as a lazy load; the mapped
    // one counted as an mmap. Neither recomputed a k-core.
    assert_eq!(c.metric("lazymc_snapshot_lazy_loads_total"), 1);
    assert_eq!(c.metric("lazymc_snapshot_mmap_total"), 1);
    assert_eq!(c.metric("lazymc_core_computes_total"), 0);

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
