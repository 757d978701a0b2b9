//! Pieces every workload shares: seeded inputs, percentiles, process
//! readings from `/proc`, the span recorder of the traced run, and the
//! result record the benchmark prints.

use lazymc_graph::{CsrGraph, VertexId};
use lazymc_service::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Vertices are shuffled only within blocks of this many consecutive ids.
const RELABEL_BLOCK: usize = 64;

/// The graph with its vertices renamed by a seeded permutation: the same
/// structure and ω, different ids, so the seed changes the ties the
/// solver breaks by vertex id. Ids move only within blocks of
/// [`RELABEL_BLOCK`], so the locality of the generated graph survives, as
/// that of a real input would: a fully random renaming turns every
/// neighbour access into a cache miss, and the timings into a measure of
/// the host's memory contention.
pub fn relabel(g: &CsrGraph, rng: &mut Rng) -> CsrGraph {
    let n = g.num_vertices();
    let mut rank: Vec<VertexId> = (0..n as VertexId).collect();
    for block in rank.chunks_mut(RELABEL_BLOCK) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
    }
    g.relabel(&rank)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Runs `f`, counting the heap allocations it makes (this process, all
/// threads).
pub fn allocations<R>(f: impl FnOnce() -> R) -> (R, lazymc_bench::alloc::AllocSnapshot) {
    let before = lazymc_bench::alloc::snapshot();
    let r = f();
    (r, lazymc_bench::alloc::snapshot().delta(&before))
}

/// Nearest-rank percentile of `xs` (any order); `q` in `(0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// The median: the mean of the middle two for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") as f64 / 1024.0
}

fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(key)?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// CPU time (user + system) this process has used so far, all threads.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line, in clock ticks.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    // USER_HZ is 100 on every Linux configuration this runs on.
    Duration::from_millis(ticks * 10)
}

/// Host facts and code version for the run's stamp.
pub struct Stamp {
    pub host_cores: u64,
    pub host_mem_bytes: u64,
    pub git_sha: String,
}

impl Stamp {
    pub fn collect() -> Stamp {
        let (cores, mem) = lazymc_bench::perf::host_facts();
        Stamp {
            host_cores: cores.unwrap_or(0),
            host_mem_bytes: mem.unwrap_or(0),
            git_sha: git_sha().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `None` outside a git work tree.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// The scratch directory for one run: inputs written for the load path
/// and the daemon's data directory. Emptied first, removed by the caller.
pub fn work_dir(workload: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("perfbench/work").join(format!("{workload}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Counts checked operations, and reports the first failures on stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one checked operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {why}");
            }
        }
    }
}

/// Measured metric values, plus the sample count behind each timing.
/// Names and units are declared once, in `BENCHMARK.json`.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A timing together with how many measurements it summarises.
    pub fn timing(&mut self, name: &'static str, value: f64, n: usize) {
        self.put(name, value);
        self.samples.insert(name, n);
    }
}

/// The metrics `BENCHMARK.json` declares for one mode: name and unit.
pub fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = v.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: {section} entry without name or unit"))
        })
        .collect()
}

fn num(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else {
        Json::Null
    }
}

/// What one run prints: a stamp line (host, code version, sample counts,
/// run validity) and then, as the last line, the result object.
pub struct Report<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub stamp: Stamp,
    pub checks: Checks,
    pub metrics: Metrics,
    /// Extra facts for the stamp line (e.g. generator lateness).
    pub notes: Vec<(&'static str, f64)>,
}

impl Report<'_> {
    /// Prints the run, with exactly the `declared` metrics in their order
    /// and units; a metric measured but not declared, or declared but not
    /// measured, is an error.
    pub fn print(&self, declared: &[(String, String)]) -> Result<(), String> {
        let mut values = Vec::new();
        for (name, unit) in declared {
            let v = self
                .metrics
                .values
                .get(name.as_str())
                .ok_or_else(|| format!("declared metric {name} was not measured"))?;
            values.push((
                name.clone(),
                Json::obj(vec![("value", num(*v)), ("unit", Json::str(unit))]),
            ));
        }
        if let Some(extra) = self
            .metrics
            .values
            .keys()
            .find(|k| !declared.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is measured but not declared"));
        }
        let mut stamp = vec![
            ("workload", Json::str(self.workload)),
            ("seed", num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("host_cores", num(self.stamp.host_cores as f64)),
            ("host_mem_bytes", num(self.stamp.host_mem_bytes as f64)),
            ("git_sha", Json::str(&self.stamp.git_sha)),
            (
                "failed_frac",
                num(self.checks.failed as f64 / self.checks.attempted.max(1) as f64),
            ),
        ];
        stamp.extend(self.notes.iter().map(|&(k, v)| (k, num(v))));
        let samples = self
            .metrics
            .samples
            .iter()
            .map(|(k, n)| (k.to_string(), num(*n as f64)))
            .collect();
        stamp.push(("samples", Json::Obj(samples)));
        println!("{}", Json::obj(vec![("stamp", Json::obj(stamp))]).encode());
        let result = Json::obj(vec![
            ("correct", Json::Bool(self.checks.failed == 0)),
            ("attempted", num(self.checks.attempted.max(1) as f64)),
            ("failed", num(self.checks.failed as f64)),
            ("metrics", Json::Obj(values)),
        ]);
        println!("{}", result.encode());
        Ok(())
    }
}

/// One recorded span: a named interval and the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span recorder for the traced run. Spans wrap calls into a
/// layer's public function from the benchmark's side, so the program
/// itself carries no tracing.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        r
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .sum()
    }

    /// Writes the spans as JSON lines (name, parent index, start and end
    /// in microseconds since the recorder started).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let span = Json::obj(vec![
                ("id", num(i as f64)),
                ("name", Json::str(s.name)),
                ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                ("start_us", num(s.start.as_micros() as f64)),
                ("end_us", num(s.end.as_micros() as f64)),
            ]);
            let _ = writeln!(out, "{}", span.encode());
        }
        std::fs::write(path, out)
    }
}
