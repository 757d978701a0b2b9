//! `lazymc` — command-line maximum clique solver.
//!
//! ```text
//! lazymc solve <file> [--threads N] [--budget SECS] [--phi F]
//!                     [--no-early-exit] [--no-second-exit]
//!                     [--prepopulate none|must|all] [--reduction] [--quiet]
//! lazymc stats <file>
//! lazymc mce <file> [--histogram]
//! lazymc compare <file> [--skip ALG[,ALG…]]
//! lazymc gen <instance> <out-file> [--test]
//! lazymc serve [<addr>] [--workers N] [--max-graphs M] [--queue-cap Q]
//!              [--data-dir DIR] [--mmap-threshold-bytes B] [--check]
//! lazymc snapshot <graph-file> <out.lmcs>
//! lazymc restore <file.lmcs> [<out-graph-file>]
//! lazymc help
//! ```
//!
//! Input files may be whitespace edge lists, DIMACS `.clq`/`.col`, or
//! MatrixMarket `.mtx` (chosen by extension).
//!
//! `lazymc help` prints every flag. The benchmark is the separate
//! `perfbench/` package (see `docs/perf.md`).

#![deny(clippy::unwrap_used)]

mod args;
mod commands;

/// Route every allocation through the counting allocator so the daemon's
/// `--max-memory-bytes` watermarks can read the live heap (two relaxed
/// atomic adds per allocation — noise for every command here).
#[global_allocator]
static ALLOC: lazymc_obs::alloc::CountingAlloc = lazymc_obs::alloc::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&argv);
    std::process::exit(code);
}

fn run(argv: &[String]) -> i32 {
    match argv.first().map(String::as_str) {
        Some("solve") => commands::solve(&argv[1..]),
        Some("stats") => commands::stats(&argv[1..]),
        Some("mce") => commands::mce(&argv[1..]),
        Some("compare") => commands::compare(&argv[1..]),
        Some("gen") => commands::gen(&argv[1..]),
        Some("serve") => commands::serve(&argv[1..]),
        Some("snapshot") => commands::snapshot(&argv[1..]),
        Some("restore") => commands::restore(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            0
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n\n{}", commands::USAGE);
            2
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn help_succeeds() {
        assert_eq!(run(&["help".into()]), 0);
        assert_eq!(run(&[]), 0);
    }

    #[test]
    fn unknown_command_fails() {
        assert_eq!(run(&["frobnicate".into()]), 2);
        // The benchmark is the separate perfbench package, not a command.
        assert_eq!(run(&["bench".into(), "--suite".into(), "quick".into()]), 2);
        assert_eq!(run(&["fetch".into(), "--list".into()]), 2);
    }

    #[test]
    fn missing_file_fails_cleanly() {
        assert_ne!(run(&["solve".into(), "/nonexistent/graph.clq".into()]), 0);
        assert_ne!(run(&["stats".into(), "/nonexistent/graph.clq".into()]), 0);
    }

    #[test]
    fn end_to_end_gen_stats_solve_mce_compare() {
        let dir = std::env::temp_dir().join("lazymc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collab.clq");
        let path_s = path.to_str().unwrap().to_string();

        assert_eq!(
            run(&[
                "gen".into(),
                "collab".into(),
                path_s.clone(),
                "--test".into()
            ]),
            0
        );
        assert_eq!(run(&["stats".into(), path_s.clone()]), 0);
        assert_eq!(run(&["solve".into(), path_s.clone(), "--quiet".into()]), 0);
        assert_eq!(
            run(&[
                "solve".into(),
                path_s.clone(),
                "--threads".into(),
                "1".into(),
                "--phi".into(),
                "0.2".into(),
                "--no-second-exit".into(),
                "--prepopulate".into(),
                "none".into(),
            ]),
            0
        );
        assert_eq!(
            run(&["mce".into(), path_s.clone(), "--histogram".into()]),
            0
        );
        assert_eq!(
            run(&[
                "compare".into(),
                path_s.clone(),
                "--skip".into(),
                "domega-ls".into()
            ]),
            0
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lazymc_cli_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.clq");
        let snap = dir.join("g.lmcs");
        let back = dir.join("back.clq");
        let (graph_s, snap_s, back_s) = (
            graph.to_str().unwrap().to_string(),
            snap.to_str().unwrap().to_string(),
            back.to_str().unwrap().to_string(),
        );
        assert_eq!(
            run(&[
                "gen".into(),
                "collab".into(),
                graph_s.clone(),
                "--test".into()
            ]),
            0
        );
        assert_eq!(
            run(&["snapshot".into(), graph_s.clone(), snap_s.clone()]),
            0
        );
        assert_eq!(run(&["restore".into(), snap_s.clone(), back_s.clone()]), 0);
        // Re-exported graph has identical content (same fingerprint class).
        let original = lazymc_graph::io::read_path(&graph).unwrap();
        let restored = lazymc_graph::io::read_path(&back).unwrap();
        assert_eq!(original.fingerprint(), restored.fingerprint());
        // A corrupted snapshot is rejected loudly, not mis-restored.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();
        assert_ne!(run(&["restore".into(), snap_s.clone()]), 0);
        // Missing args / missing files fail cleanly.
        assert_ne!(run(&["snapshot".into(), graph_s.clone()]), 0);
        assert_ne!(run(&["restore".into(), "/nonexistent.lmcs".into()]), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_check_with_data_dir_creates_and_scans() {
        let dir = std::env::temp_dir().join(format!("lazymc_cli_dd_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            run(&[
                "serve".into(),
                "127.0.0.1:0".into(),
                "--data-dir".into(),
                dir.to_str().unwrap().into(),
                "--check".into(),
            ]),
            0
        );
        assert!(dir.is_dir(), "--data-dir must be created at boot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_check_binds_and_exits() {
        assert_eq!(
            run(&["serve".into(), "127.0.0.1:0".into(), "--check".into()]),
            0
        );
    }

    #[test]
    fn serve_accepts_reactor_and_job_flags() {
        // Every valued serve flag must be registered in args::VALUED;
        // an unregistered one dies with "flag needs a value".
        assert_eq!(
            run(&[
                "serve".into(),
                "127.0.0.1:0".into(),
                "--io-threads".into(),
                "2".into(),
                "--conn-limit".into(),
                "64".into(),
                "--solver-workers".into(),
                "1".into(),
                "--job-ttl-ms".into(),
                "5000".into(),
                "--result-cache-bytes".into(),
                "65536".into(),
                "--mmap-threshold-bytes".into(),
                "0".into(),
                "--check".into(),
            ]),
            0
        );
    }

    #[test]
    fn serve_rejects_bad_inputs() {
        assert_ne!(
            run(&["serve".into(), "not-an-address".into(), "--check".into()]),
            0
        );
        assert_ne!(
            run(&[
                "serve".into(),
                "127.0.0.1:0".into(),
                "--workers".into(),
                "x".into()
            ]),
            0
        );
    }

    #[test]
    fn gen_rejects_unknown_instance() {
        assert_ne!(run(&["gen".into(), "nope".into(), "/tmp/x.clq".into()]), 0);
    }

    #[test]
    fn solve_rejects_bad_flag_values() {
        assert_ne!(
            run(&[
                "solve".into(),
                "x.clq".into(),
                "--threads".into(),
                "banana".into()
            ]),
            0
        );
        // Budgets no Duration can hold exit 1 with an error, not a panic.
        for bad in ["-1", "nan", "inf", "1e300"] {
            assert_eq!(
                run(&[
                    "solve".into(),
                    "x.clq".into(),
                    "--budget".into(),
                    bad.into()
                ]),
                1,
                "--budget {bad}"
            );
        }
    }
}
