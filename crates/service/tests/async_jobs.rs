//! Live-socket tests of the asynchronous job lifecycle and batch solves:
//! `POST /solve?async=1` → 202 + job id, `GET /jobs/<id>` polling, TTL
//! expiry of retained results, `DELETE /jobs/<id>` for queued jobs
//! (cancel-before-pop) and running jobs (cancel-mid-solve, which expires
//! the solve's deadline), and `POST /solve-batch` agreement with
//! sequential solves — including the one-registry-reload guarantee when
//! the batch lands on an evicted/restarted graph.

mod common;

use common::{bool_field, str_field, u64_field, upload, Client};
use lazymc_core::{Config, LazyMc};
use lazymc_graph::gen;
use lazymc_service::{serve, Json, ServiceConfig, ServiceHandle};
use std::time::{Duration, Instant};

fn start(cfg: ServiceConfig) -> ServiceHandle {
    serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        ..cfg
    })
    .expect("bind service")
}

/// Polls `GET /jobs/<id>` until the status satisfies `done`, failing
/// after `timeout`.
fn poll_job(client: &mut Client, id: u64, timeout: Duration, done: impl Fn(&str) -> bool) -> Json {
    let t = Instant::now();
    loop {
        let (status, view) = client.get_json(&format!("/jobs/{id}"));
        assert_eq!(status, 200, "job {id} vanished while polling: {view:?}");
        if done(str_field(&view, "status")) {
            return view;
        }
        assert!(
            t.elapsed() < timeout,
            "job {id} stuck in {:?} after {timeout:?}",
            str_field(&view, "status")
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn async_job_lifecycle_result_and_ttl_expiry() {
    let handle = start(ServiceConfig {
        job_ttl: Duration::from_millis(400),
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    let g = gen::planted_clique(200, 0.04, 9, 3);
    let expected = LazyMc::new(Config::default()).solve(&g).size();
    upload(&mut c, "pc", &g);

    // Submit asynchronously: 202 with a pollable job id.
    let (status, accepted) = c.post_json("/solve?async=1", r#"{"graph":"pc"}"#);
    assert_eq!(status, 202, "async submit: {accepted:?}");
    let id = u64_field(&accepted, "job_id");
    assert_eq!(str_field(&accepted, "status"), "queued");
    assert_eq!(str_field(&accepted, "poll"), format!("/jobs/{id}"));

    // Poll to completion; the retained result matches a direct solve.
    let view = poll_job(&mut c, id, Duration::from_secs(30), |s| s == "done");
    let result = view.get("result").expect("retained result");
    assert_eq!(u64_field(result, "omega") as usize, expected);
    assert!(bool_field(result, "exact"));
    assert!(!bool_field(result, "cancelled"));
    assert_eq!(u64_field(result, "job_id"), id);
    assert!(c.metric("lazymc_jobs_async_total") >= 1);

    // Cancelling a finished job is a 409, not a silent no-op.
    let (status, _) = c.delete_json(&format!("/jobs/{id}"));
    assert_eq!(status, 409, "done jobs cannot be cancelled");

    // After the TTL the result is gone — 404, and the eviction is counted.
    std::thread::sleep(Duration::from_millis(600));
    let (status, _) = c.get_json(&format!("/jobs/{id}"));
    assert_eq!(status, 404, "expired job must be unpollable");
    assert!(c.metric("lazymc_jobs_expired_total") >= 1);

    // Unknown ids and junk ids are 404s.
    let (status, _) = c.get_json("/jobs/999999");
    assert_eq!(status, 404);
    let (status, _) = c.get_json("/jobs/not-a-number");
    assert_eq!(status, 404);

    // The async body flag works like the query parameter.
    let (status, accepted) =
        c.post_json("/solve", r#"{"graph":"pc","async":true,"no_cache":true}"#);
    assert_eq!(status, 202, "body async flag: {accepted:?}");
    poll_job(
        &mut c,
        u64_field(&accepted, "job_id"),
        Duration::from_secs(30),
        |s| s == "done",
    );
    handle.stop();
}

#[test]
fn cancel_before_pop_skips_the_queued_job() {
    // One solver worker: job A occupies it, job B sits queued.
    let handle = start(ServiceConfig {
        solver_workers: 1,
        workers: 4,
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    let g = gen::gnp(300, 0.5, 7); // seconds-scale in debug builds
    upload(&mut c, "slow", &g);

    let (status, a) = c.post_json("/solve?async=1", r#"{"graph":"slow","no_cache":true}"#);
    assert_eq!(status, 202);
    let a_id = u64_field(&a, "job_id");
    let (status, b) = c.post_json("/solve?async=1", r#"{"graph":"slow","no_cache":true}"#);
    assert_eq!(status, 202);
    let b_id = u64_field(&b, "job_id");

    // B must still be queued (A holds the only solver).
    let (_, view) = c.get_json(&format!("/jobs/{b_id}"));
    assert_eq!(str_field(&view, "status"), "queued", "{view:?}");

    // Cancel it before any worker pops it.
    let (status, cancelled) = c.delete_json(&format!("/jobs/{b_id}"));
    assert_eq!(status, 200, "{cancelled:?}");
    assert!(bool_field(&cancelled, "cancelled"));
    assert_eq!(str_field(&cancelled, "was"), "queued");
    let (_, view) = c.get_json(&format!("/jobs/{b_id}"));
    assert_eq!(str_field(&view, "status"), "cancelled");
    assert_eq!(
        view.get("result"),
        Some(&Json::Null),
        "never ran, no result"
    );

    // Cancelling again is a 409 (already cancelled).
    let (status, _) = c.delete_json(&format!("/jobs/{b_id}"));
    assert_eq!(status, 409);

    // Cancel A too (once it is running) so the test does not wait out
    // the solve; both cancellations are visible in /metrics.
    poll_job(&mut c, a_id, Duration::from_secs(30), |s| s == "running");
    let (status, cancelled) = c.delete_json(&format!("/jobs/{a_id}"));
    assert_eq!(status, 200);
    assert_eq!(str_field(&cancelled, "was"), "running");
    poll_job(&mut c, a_id, Duration::from_secs(30), |s| s == "cancelled");
    assert_eq!(c.metric("lazymc_jobs_cancelled_http_total"), 2);
    // The cancelled-while-queued job is reaped at pop time, never run.
    let t = Instant::now();
    while c.metric("lazymc_jobs_cancelled_total") < 1 {
        assert!(t.elapsed() < Duration::from_secs(30), "B was never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(c.metric("lazymc_solves_total"), 1, "only A ever executed");
    handle.stop();
}

#[test]
fn cancel_mid_solve_interrupts_via_the_deadline() {
    let handle = start(ServiceConfig {
        solver_workers: 1,
        workers: 4,
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    // Unbudgeted and ~seconds even in release: the cancel must be what
    // stops it.
    let g = gen::gnp(350, 0.5, 7);
    upload(&mut c, "hard", &g);

    let (status, a) = c.post_json("/solve?async=1", r#"{"graph":"hard","no_cache":true}"#);
    assert_eq!(status, 202);
    let id = u64_field(&a, "job_id");
    poll_job(&mut c, id, Duration::from_secs(30), |s| s == "running");

    let cancelled_at = Instant::now();
    let (status, response) = c.delete_json(&format!("/jobs/{id}"));
    assert_eq!(status, 200, "{response:?}");
    assert_eq!(str_field(&response, "was"), "running");

    // The deadline trip stops the solve at its next poll (before each
    // neighbourhood and every 4,096 search nodes) — far sooner than the
    // full search would take.
    let view = poll_job(&mut c, id, Duration::from_secs(30), |s| s == "cancelled");
    let interrupted_after = cancelled_at.elapsed();
    let result = view
        .get("result")
        .expect("cancelled jobs keep their partial result");
    assert!(bool_field(result, "cancelled"));
    assert!(
        bool_field(result, "truncated"),
        "an interrupted solve must report truncation: {result:?}"
    );
    assert!(
        interrupted_after < Duration::from_secs(10),
        "cancellation took {interrupted_after:?}"
    );
    assert!(c.metric("lazymc_solves_truncated_total") >= 1);
    handle.stop();
}

#[test]
fn batch_matches_sequential_solves_slot_for_slot() {
    let handle = start(ServiceConfig::default());
    let mut c = Client::connect(handle.addr());
    let g1 = gen::planted_clique(150, 0.05, 8, 3);
    let g2 = gen::complete(10);
    upload(&mut c, "g1", &g1);
    upload(&mut c, "g2", &g2);

    // Mixed batch: two graphs interleaved, an unknown graph, an invalid
    // slot, and a repeat — slot order must be preserved in the response.
    let batch = r#"{"requests":[
        {"graph":"g1","threads":1,"no_cache":true},
        {"graph":"g2","threads":1,"no_cache":true},
        {"graph":"ghost","threads":1},
        {"graph":"g1","priority":99},
        {"graph":"g1","threads":1,"no_cache":true}
    ]}"#;
    let (status, response) = c.post_json("/solve-batch", batch);
    assert_eq!(status, 200, "batch failed: {response:?}");
    assert_eq!(u64_field(&response, "count"), 5);
    let results = match response.get("results") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("bad results {other:?}"),
    };

    // Sequential reference runs (threads=1 keeps witnesses bit-identical).
    let (_, seq1) = c.post_json("/solve", r#"{"graph":"g1","threads":1,"no_cache":true}"#);
    let (_, seq2) = c.post_json("/solve", r#"{"graph":"g2","threads":1,"no_cache":true}"#);
    for (slot, seq) in [(0usize, &seq1), (1, &seq2), (4, &seq1)] {
        assert_eq!(
            u64_field(&results[slot], "omega"),
            u64_field(seq, "omega"),
            "slot {slot} disagrees with the sequential solve"
        );
        assert_eq!(
            results[slot].get("clique"),
            seq.get("clique"),
            "slot {slot} witness differs from the sequential solve"
        );
        assert!(bool_field(&results[slot], "exact"));
    }
    assert_eq!(
        u64_field(&results[2], "status"),
        404,
        "unknown graph slot: {:?}",
        results[2]
    );
    assert!(results[2].get("error").is_some());
    assert_eq!(u64_field(&results[3], "status"), 400, "invalid slot");

    // Bare-array form, served from cache where possible.
    let (status, response) = c.post_json("/solve-batch", r#"[{"graph":"g2","threads":1}]"#);
    assert_eq!(status, 200);
    assert_eq!(u64_field(&response, "count"), 1);

    // Degenerate bodies.
    let (status, _) = c.post_json("/solve-batch", r#"{"requests":[]}"#);
    assert_eq!(status, 400, "empty batch");
    let (status, _) = c.post_json("/solve-batch", r#"{"requests":"nope"}"#);
    assert_eq!(status, 400);

    assert!(c.metric("lazymc_batches_total") >= 2);
    assert!(c.metric("lazymc_batch_jobs_total") >= 6);
    handle.stop();
}

/// The co-location guarantee: a batch of M requests against a graph that
/// is on disk but not resident triggers exactly ONE snapshot reload, not
/// M — and still agrees with sequential solves.
#[test]
fn batch_on_restarted_graph_reloads_registry_once() {
    let dir = std::env::temp_dir().join(format!("lazymc_batch_reload_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = gen::planted_clique(180, 0.05, 9, 11);

    // Daemon #1 uploads durably, then dies.
    {
        let first = start(ServiceConfig {
            data_dir: Some(dir.to_str().unwrap().to_string()),
            ..ServiceConfig::default()
        });
        let mut c = Client::connect(first.addr());
        upload(&mut c, "pc", &g);
        first.stop();
    }

    // Daemon #2: nothing resident; a 6-slot batch must reload once.
    let second = start(ServiceConfig {
        data_dir: Some(dir.to_str().unwrap().to_string()),
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(second.addr());
    assert_eq!(c.metric("lazymc_snapshot_lazy_loads_total"), 0);
    let batch = r#"{"requests":[
        {"graph":"pc","threads":1,"no_cache":true},
        {"graph":"pc","threads":1,"no_cache":true},
        {"graph":"pc","threads":1,"no_cache":true},
        {"graph":"pc","threads":1,"no_cache":true},
        {"graph":"pc","threads":1,"no_cache":true},
        {"graph":"pc","threads":1,"no_cache":true}
    ]}"#;
    let (status, response) = c.post_json("/solve-batch", batch);
    assert_eq!(status, 200, "{response:?}");
    let results = match response.get("results") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("bad results {other:?}"),
    };
    assert_eq!(results.len(), 6);
    assert_eq!(
        c.metric("lazymc_snapshot_lazy_loads_total"),
        1,
        "6 batch slots on one graph must decode the snapshot exactly once"
    );
    assert_eq!(c.metric("lazymc_core_computes_total"), 0, "no re-core");

    // And the answers agree with a sequential solve on the same daemon.
    let (_, seq) = c.post_json("/solve", r#"{"graph":"pc","threads":1,"no_cache":true}"#);
    for (slot, r) in results.iter().enumerate() {
        assert_eq!(
            u64_field(r, "omega"),
            u64_field(&seq, "omega"),
            "slot {slot}"
        );
        assert_eq!(r.get("clique"), seq.get("clique"), "slot {slot}");
    }
    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
