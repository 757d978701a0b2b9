//! Live-socket tests of `--data-dir` durability and the request-framing
//! hardening: kill-and-restart reload (no re-core), corruption quarantine,
//! LRU eviction + lazy reload over HTTP, DELETE unlinking, and the
//! request-smuggling error surface (duplicate Content-Length, chunked
//! Transfer-Encoding).

mod common;

use common::{bool_field, u64_field, upload, Client};
use lazymc_graph::gen;
use lazymc_service::{serve, Json, ServiceConfig, ServiceHandle};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lazymc_svc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(data_dir: &std::path::Path, max_graphs: usize) -> ServiceHandle {
    serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        max_graphs,
        data_dir: Some(data_dir.to_str().unwrap().to_string()),
        ..ServiceConfig::default()
    })
    .expect("bind service")
}

/// The acceptance scenario: upload, kill the daemon, boot a fresh one over
/// the same data dir, and solve WITHOUT re-uploading. The reload must be
/// lazy (nothing resident before first touch), must not recompute the
/// k-core, and must agree with the pre-restart answer.
#[test]
fn restart_survives_and_skips_recore() {
    let dir = tmp_dir("restart");
    let g = gen::planted_clique(250, 0.04, 10, 13);

    // Daemon #1: upload + solve.
    let first = start(&dir, 8);
    let mut c1 = Client::connect(first.addr());
    let info = upload(&mut c1, "pc", &g);
    let degeneracy = u64_field(&info, "degeneracy");
    let (status, solved) = c1.post_json("/solve", r#"{"graph":"pc"}"#);
    assert_eq!(status, 200);
    let omega = u64_field(&solved, "omega");
    assert!(bool_field(&solved, "exact"));
    assert_eq!(c1.metric("lazymc_core_computes_total"), 1);
    assert_eq!(c1.metric("lazymc_snapshot_writes_total"), 1);
    assert_eq!(c1.metric("lazymc_snapshot_lazy_loads_total"), 0);
    first.stop(); // kill

    // Daemon #2 over the same dir: the graph is on disk, not in memory.
    let second = start(&dir, 8);
    let mut c2 = Client::connect(second.addr());
    let (_, health) = c2.get_json("/healthz");
    assert_eq!(
        u64_field(&health, "graphs"),
        0,
        "lazy: nothing resident at boot"
    );
    assert_eq!(u64_field(&health, "snapshots"), 1);
    assert!(u64_field(&health, "snapshot_disk_bytes") > 0);
    let (_, listing) = c2.get_json("/graphs");
    match listing.get("on_disk") {
        Some(Json::Arr(names)) => {
            assert_eq!(names.len(), 1);
            assert_eq!(names[0].as_str(), Some("pc"));
        }
        other => panic!("bad on_disk {other:?}"),
    }

    // Solve without re-upload: lazy-load hit, zero core computes.
    let (status, resolved) = c2.post_json("/solve", r#"{"graph":"pc"}"#);
    assert_eq!(
        status, 200,
        "solve after restart without re-upload: {resolved:?}"
    );
    assert_eq!(u64_field(&resolved, "omega"), omega);
    assert!(bool_field(&resolved, "exact"));
    assert_eq!(
        c2.metric("lazymc_snapshot_lazy_loads_total"),
        1,
        "first touch reloads from disk"
    );
    assert_eq!(
        c2.metric("lazymc_core_computes_total"),
        0,
        "coreness must be deserialized, not recomputed"
    );

    // The reloaded stats agree with the original preprocessing.
    let (status, stats) = c2.get_json("/stats/pc");
    assert_eq!(status, 200);
    assert_eq!(u64_field(&stats, "degeneracy"), degeneracy);
    assert!(bool_field(&stats, "lazy_loaded"));
    assert!(u64_field(&stats, "snapshot_bytes") > 0);

    // Second solve: plain memory hit, still exactly one lazy load.
    let (_, again) = c2.post_json("/solve", r#"{"graph":"pc"}"#);
    assert_eq!(u64_field(&again, "omega"), omega);
    assert_eq!(c2.metric("lazymc_snapshot_lazy_loads_total"), 1);

    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted snapshot in the data dir is quarantined with a warning at
/// boot (or at first load), never crashing the daemon or serving wrong
/// bytes.
#[test]
fn corrupted_snapshot_is_quarantined_not_fatal() {
    let dir = tmp_dir("quarantine");
    let g = gen::planted_clique(150, 0.05, 8, 3);
    {
        let first = start(&dir, 8);
        let mut c = Client::connect(first.addr());
        upload(&mut c, "ok", &g);
        upload(&mut c, "bitrot", &g);
        first.stop();
    }
    // Flip one payload byte in bitrot's snapshot: the header stays valid,
    // so only the full checksum at load time can catch it.
    let victim = dir.join("bitrot.lmcs");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() - 5;
    bytes[at] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();
    // And drop outright garbage beside it (caught at boot scan).
    std::fs::write(dir.join("junk.lmcs"), b"LMCSgarbage").unwrap();

    let second = start(&dir, 8);
    let mut c = Client::connect(second.addr());
    assert_eq!(
        c.metric("lazymc_snapshots_quarantined_total"),
        1,
        "junk dies at scan"
    );

    // The intact graph still lazily reloads and solves.
    let (status, solved) = c.post_json("/solve", r#"{"graph":"ok"}"#);
    assert_eq!(status, 200, "{solved:?}");
    assert!(bool_field(&solved, "exact"));

    // Touching the bit-rotted graph quarantines it and answers 404.
    let (status, _) = c.post_json("/solve", r#"{"graph":"bitrot"}"#);
    assert_eq!(status, 404, "corrupt snapshot must not resurrect");
    assert_eq!(c.metric("lazymc_snapshots_quarantined_total"), 2);
    assert!(dir.join("bitrot.lmcs.corrupt").exists());
    assert!(dir.join("junk.lmcs.corrupt").exists());

    // The daemon is still healthy after all of that.
    let (status, health) = c.get_json("/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// LRU eviction with a data dir only frees memory: the victim lazily
/// reloads on its next query (registry-level mid-flight safety is covered
/// by registry unit tests), answers cached solves again, and DELETE
/// unlinks the snapshot for real. Runs with the default heap reload and
/// with the reload mapped (`mmap_threshold_bytes` 0 once the uploads are
/// in: mapped entries do not count against capacity, so an upload mapped
/// at 0 would never be evicted).
#[test]
fn eviction_reloads_lazily_but_delete_unlinks() {
    eviction_reloads("evict_heap", false);
    eviction_reloads("evict_mmap", true);
}

fn eviction_reloads(tag: &str, map_reload: bool) {
    let dir = tmp_dir(tag);
    let handle = start(&dir, 2);
    let mut c = Client::connect(handle.addr());

    let g = gen::planted_clique(120, 0.05, 7, 5);
    upload(&mut c, "a", &g);
    let (_, first) = c.post_json("/solve", r#"{"graph":"a"}"#);
    let omega = u64_field(&first, "omega");
    upload(&mut c, "b", &gen::complete(6));
    upload(&mut c, "c", &gen::complete(7)); // evicts "a" (LRU)
    assert!(c.metric("lazymc_graphs_evicted_total") >= 1, "{tag}");
    assert_eq!(
        c.metric("lazymc_snapshots_on_disk"),
        3,
        "eviction keeps the snapshot"
    );

    if map_reload {
        handle.state().registry.set_mmap_threshold(0);
    }

    // The evicted graph answers again via lazy reload — same omega, no
    // re-upload, no re-core (3 uploads = 3 core computes, no more).
    let (status, resolved) = c.post_json("/solve", r#"{"graph":"a","no_cache":true}"#);
    assert_eq!(status, 200, "{resolved:?}");
    assert_eq!(u64_field(&resolved, "omega"), omega);
    // One reload, counted by the path it took (heap decode or mapping).
    assert_eq!(
        c.metric("lazymc_snapshot_lazy_loads_total"),
        u64::from(!map_reload),
        "{tag}"
    );
    assert_eq!(
        c.metric("lazymc_snapshot_mmap_total"),
        u64::from(map_reload),
        "{tag}"
    );
    assert_eq!(c.metric("lazymc_core_computes_total"), 3);

    // The reloaded graph keeps the fingerprint its first answer was
    // cached under, so a cache-allowed solve is a hit with a valid witness.
    let (status, cached) = c.post_json("/solve", r#"{"graph":"a"}"#);
    assert_eq!(status, 200, "{cached:?}");
    assert!(bool_field(&cached, "cached"), "{tag}: {cached:?}");
    assert_eq!(u64_field(&cached, "omega"), omega);
    let Some(Json::Arr(witness)) = cached.get("clique") else {
        panic!("{tag}: no witness in {cached:?}");
    };
    let witness: Vec<u32> = witness.iter().map(|v| v.as_u64().unwrap() as u32).collect();
    assert_eq!(witness.len() as u64, omega);
    assert!(g.is_clique(&witness), "{tag}: cached witness {witness:?}");

    // DELETE = forget durably: memory, disk, and no lazy resurrection.
    let (status, _, _) = c.request("DELETE", "/graphs/a", None);
    assert_eq!(status, 200);
    assert!(
        !dir.join("a.lmcs").exists(),
        "DELETE must unlink the snapshot"
    );
    let (status, _) = c.post_json("/solve", r#"{"graph":"a"}"#);
    assert_eq!(status, 404);
    // Deleting an evicted (disk-only) graph also works end-to-end.
    upload(&mut c, "d", &gen::complete(5)); // evicts b or c from memory
    let (status, _, _) = c.request("DELETE", "/graphs/b", None);
    assert_eq!(status, 200, "disk-only graphs are deletable");
    assert!(!dir.join("b.lmcs").exists());

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pre-seeding: `.lmcs` files written offline (e.g. by `lazymc snapshot`)
/// are picked up by the boot index scan and served without any upload.
#[test]
fn preseeded_data_dir_serves_without_upload() {
    let dir = tmp_dir("preseed");
    std::fs::create_dir_all(&dir).unwrap();
    let g = gen::planted_clique(100, 0.06, 9, 21);
    let kc = lazymc_order::kcore_sequential(&g);
    let bytes = lazymc_graph::snapshot::encode(&g, &kc.coreness, &kc.peel_order);
    lazymc_graph::snapshot::write_file_atomic(&dir.join("seeded.lmcs"), &bytes).unwrap();

    let handle = start(&dir, 8);
    let mut c = Client::connect(handle.addr());
    let (status, solved) = c.post_json("/solve", r#"{"graph":"seeded"}"#);
    assert_eq!(status, 200, "{solved:?}");
    assert!(bool_field(&solved, "exact"));
    assert!(u64_field(&solved, "omega") >= 9);
    assert_eq!(c.metric("lazymc_core_computes_total"), 0);
    assert_eq!(c.metric("lazymc_snapshot_lazy_loads_total"), 1);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Request-smuggling hygiene: duplicate/conflicting Content-Length headers
/// are a 400, Transfer-Encoding (chunked or otherwise) a 501 — in both
/// cases the connection closes instead of misreading the body.
#[test]
fn framing_rejects_smuggling_vectors() {
    let handle = serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    // Conflicting Content-Length pair.
    let mut c = Client::connect(addr);
    let (status, _, body) = c.raw(
        "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}xyz",
    );
    assert_eq!(status, 400, "conflicting Content-Length: {body}");

    // Duplicate-but-agreeing Content-Length is still ambiguous upstream.
    let mut c = Client::connect(addr);
    let (status, _, _) = c
        .raw("POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}");
    assert_eq!(status, 400, "duplicate Content-Length");

    // Comma-merged Content-Length list.
    let mut c = Client::connect(addr);
    let (status, _, _) = c.raw("POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: 2, 2\r\n\r\n{}");
    assert_eq!(status, 400, "comma-joined Content-Length");

    // Chunked transfer coding: answered 501, never parsed as if framed.
    let mut c = Client::connect(addr);
    let (status, _, body) = c.raw(
        "POST /solve HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    );
    assert_eq!(status, 501, "chunked must be refused: {body}");
    assert!(body.contains("Transfer-Encoding"));

    // TE + CL together (the classic desync vector) also refused.
    let mut c = Client::connect(addr);
    let (status, _, _) = c.raw(
        "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
    );
    assert_eq!(status, 501, "TE+CL must be refused");

    // The daemon still serves ordinary requests afterwards.
    let mut c = Client::connect(addr);
    let (status, _) = c.get_json("/healthz");
    assert_eq!(status, 200);
    handle.stop();
}

/// Without --data-dir nothing persists and the new surfaces degrade
/// gracefully (no snapshot metrics movement, no on_disk names).
#[test]
fn memory_only_mode_unchanged() {
    let handle = serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        ..ServiceConfig::default()
    })
    .expect("bind");
    let mut c = Client::connect(handle.addr());
    upload(&mut c, "tmp", &gen::complete(5));
    let (_, health) = c.get_json("/healthz");
    assert!(!bool_field(&health, "durable"));
    assert_eq!(u64_field(&health, "snapshots"), 0);
    assert_eq!(c.metric("lazymc_snapshot_writes_total"), 0);
    let (_, stats) = c.get_json("/stats/tmp");
    assert_eq!(u64_field(&stats, "snapshot_bytes"), 0);
    assert!(!bool_field(&stats, "lazy_loaded"));
    handle.stop();
}
