//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense|service --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root: the metric names and units come from
//! `BENCHMARK.json` there. The last line of standard output is the result
//! object; the line before it stamps the run with the host and the code
//! version. `perfbench/README.md` describes the workloads and metrics.

mod common;
mod daemon;
mod layers;
mod library;
mod replay;
mod service;
mod speed;

use common::{Report, Stamp};

/// Counts every allocation, so the traced run can report allocations per
/// solve and the daemon can enforce memory watermarks as in `lazymc`.
#[global_allocator]
static ALLOC: lazymc_bench::alloc::CountingAlloc = lazymc_bench::alloc::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?.to_string();
    if !matches!(workload.as_str(), "dense" | "service") {
        return Err(format!("unknown workload {workload:?} (dense or service)"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match common::declared(section) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = match common::work_dir(&args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot make a work directory: {e}");
            std::process::exit(2);
        }
    };
    let (checks, metrics, notes) = match args.workload.as_str() {
        "service" => service::run(args.seed, args.seconds, args.trace, &dir),
        _ => library::run(args.seed, args.seconds, args.trace, &dir),
    };
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("perfbench: cannot remove {}: {e}", dir.display());
    }
    let report = Report {
        workload: &args.workload,
        seed: args.seed,
        trace: args.trace,
        stamp: Stamp::collect(),
        checks,
        metrics,
        notes,
    };
    if let Err(e) = report.print(&declared) {
        eprintln!("perfbench: {e}");
        std::process::exit(3);
    }
}
