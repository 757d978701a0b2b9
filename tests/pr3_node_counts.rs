//! The one-thread node-count contract: at `threads = 1` the solver must
//! expand exactly the search trees recorded in `BENCH_PR3.json`.
//!
//! The file is the single declaration of those counts; this test builds
//! the seven dense cases from the same generators, seeds and configs and
//! compares every work counter. Node counts are deterministic only at one
//! thread (at two or more the shared incumbent makes pruning depend on
//! scheduling), so that is the only width checked here.
//!
//! Release builds run all seven cases (paley-577 alone takes most of
//! ~20 s); debug builds run the two cheap ones.

use lazymc::core::{Config, LazyMc};
use lazymc::graph::{gen, CsrGraph};
use lazymc::service::Json;

/// Cases cheap enough for a debug build.
const DEBUG_CASES: &[&str] = &["gnp-400-045", "overlap-400-red"];

/// The work counters pinned per case, in `BENCH_PR3.json` field names.
const FIELDS: &[&str] = &[
    "n",
    "m",
    "omega",
    "mc_nodes",
    "vc_nodes",
    "searched_mc",
    "searched_kvc",
    "reduced_vertices",
    "vc_reductions",
];

/// Builds a case exactly as it was when `BENCH_PR3.json` was recorded.
fn case(name: &str) -> (CsrGraph, Config) {
    match name {
        "paley-401" => (gen::paley(401), Config::default()),
        "paley-577" => (gen::paley(577), Config::default()),
        "gnp-300-055" => (gen::gnp(300, 0.55, 11), Config::default()),
        "gnp-400-045" => (gen::gnp(400, 0.45, 5), Config::default()),
        "hamming-8-2" => (gen::hamming(8, 2), Config::default()),
        "overlap-400-red" => (
            gen::dense_overlap(400, 40, 14, 22, 0.12, 21),
            Config {
                subgraph_reduction: true,
                ..Config::default()
            },
        ),
        // φ = 0 forces every detailed search through the k-VC engine.
        "gnp-250-060-kvc" => (
            gen::gnp(250, 0.60, 17),
            Config::default().with_density_threshold(0.0),
        ),
        other => panic!("BENCH_PR3.json names an unknown case {other:?}"),
    }
}

#[test]
fn one_thread_node_counts_match_bench_pr3() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_PR3.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_PR3.json");
    let report = Json::parse(&text).expect("parse BENCH_PR3.json");
    assert_eq!(report.get("threads").and_then(Json::as_u64), Some(1));
    let Some(Json::Arr(cases)) = report.get("cases") else {
        panic!("BENCH_PR3.json has no cases array");
    };
    assert_eq!(cases.len(), 7, "BENCH_PR3.json pins seven cases");

    let mut mismatches = Vec::new();
    let mut checked = 0;
    for pinned in cases {
        let name = pinned.get("name").and_then(Json::as_str).expect("name");
        if cfg!(debug_assertions) && !DEBUG_CASES.contains(&name) {
            continue;
        }
        let (g, mut config) = case(name);
        config.threads = 1;
        let r = LazyMc::new(config).solve(&g);
        assert!(g.is_clique(r.vertices()), "{name}: witness is not a clique");
        assert!(r.is_exact(), "{name}: solve did not finish");
        let m = &r.metrics;
        let got = [
            g.num_vertices() as u64,
            g.num_edges() as u64,
            r.size() as u64,
            m.mc_nodes,
            m.vc_nodes,
            m.searched_mc,
            m.searched_kvc,
            m.reduced_vertices,
            m.vc_reductions,
        ];
        for (field, got) in FIELDS.iter().zip(got) {
            let want = pinned.get(field).and_then(Json::as_u64);
            if want != Some(got) {
                mismatches.push(format!("{name} {field}: got {got}, pinned {want:?}"));
            }
        }
        checked += 1;
    }
    let expected = if cfg!(debug_assertions) {
        DEBUG_CASES.len()
    } else {
        cases.len()
    };
    assert_eq!(checked, expected, "cases checked");
    assert!(
        mismatches.is_empty(),
        "one-thread counts differ from BENCH_PR3.json:\n{}",
        mismatches.join("\n")
    );
}
