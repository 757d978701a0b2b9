//! The host's speed, read by fixed probes between the timed operations.
//!
//! A shared 2-core VM runs the same code at speeds that drift by ±25%
//! over tens of seconds, with CPU time equal to wall time: a fixed loop
//! reads 15 ms in one half-minute and 24 ms in the next, and memory-bound
//! work flips between a fast and a slow state every few seconds. A run's
//! medians follow that drift, so two runs of the same code can differ by
//! more than any bound a change should be held to.
//!
//! Probes written here in the benchmark, with no call into lazymc, so no
//! change to the program can move them, read the host's speed for the
//! kinds of work the benchmark times: a small clique search (bitset
//! branch and bound, like the solver) and an edge-list parse into a CSR
//! (line reading, allocation and scattered writes, like a graph load).
//! Every timed operation lies between two readings; it is scaled by the
//! probe's reference time over the mean of those two readings, which
//! expresses it in milliseconds of a host on which the probes take
//! [`SEARCH_REFERENCE_MS`] and [`PARSE_REFERENCE_MS`].
//!
//! Over fifteen runs on a 2-core VM, two-thread solve times followed the
//! one-thread search probe (time ∝ probe^1.1) more closely than the same
//! search run on both cores at once (∝ probe^1.5, with more scatter), so
//! one probe serves solves at either thread count.

use crate::common::{median, ms, timed, Rng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::BufRead;

/// Bitset words per vertex row of the probe graph.
const WORDS: usize = 3;
type Row = [u64; WORDS];

/// The probe graph: `gnp(160, 0.65)` from a fixed seed. One search takes
/// about 20 ms on a 2-core x86-64 VM and visits 26,658 nodes.
const VERTICES: usize = 160;
const DENSITY: f64 = 0.65;
const SEED: u64 = 7;
/// ω of the probe graph.
const OMEGA: u32 = 15;
/// The parse probe's edge list: `PARSE_EDGES` random edges over
/// `PARSE_VERTICES` vertices, in DIMACS form (about 1.3 MB of text).
const PARSE_VERTICES: u32 = 20_000;
const PARSE_EDGES: usize = 100_000;
/// Probe times of the reference host: the median probes on the 2-core VM
/// the bounds in `BENCHMARK.json` were set on.
pub const SEARCH_REFERENCE_MS: f64 = 18.0;
pub const PARSE_REFERENCE_MS: f64 = 20.0;

/// One reading of the probes, in milliseconds.
#[derive(Clone, Copy)]
struct Reading {
    search_ms: f64,
    parse_ms: f64,
}

/// Factors that turn a time measured between two readings into
/// reference-host time, one per kind of work.
pub struct Factors {
    /// For solves, solve latencies and capacity.
    pub search: f64,
    /// For loads, boots, set-ups and upload latencies.
    pub parse: f64,
}

impl Factors {
    fn between(a: &Reading, b: &Reading) -> Factors {
        let mean = |x: f64, y: f64| (x + y) / 2.0;
        Factors {
            search: SEARCH_REFERENCE_MS / mean(a.search_ms, b.search_ms),
            parse: PARSE_REFERENCE_MS / mean(a.parse_ms, b.parse_ms),
        }
    }
}

/// The probes' inputs, and every reading of a run; the last one is where
/// the work being timed began.
pub struct Speed {
    adj: Vec<Row>,
    text: String,
    readings: Vec<Reading>,
}

impl Speed {
    /// Builds the probes' inputs and takes the first reading.
    pub fn new() -> Speed {
        let mut rng = Rng::new(SEED);
        let mut adj = vec![[0; WORDS]; VERTICES];
        for i in 0..VERTICES {
            for j in 0..i {
                if rng.unit() < DENSITY {
                    adj[i][j / 64] |= 1 << (j % 64);
                    adj[j][i / 64] |= 1 << (i % 64);
                }
            }
        }
        let mut text = format!("p edge {PARSE_VERTICES} {PARSE_EDGES}\n");
        for _ in 0..PARSE_EDGES {
            let u = 1 + rng.below(PARSE_VERTICES as usize);
            let v = 1 + rng.below(PARSE_VERTICES as usize);
            let _ = writeln!(text, "e {u} {v}");
        }
        let mut speed = Speed {
            adj,
            text,
            readings: Vec::new(),
        };
        speed.probe();
        speed
    }

    /// Takes a reading and returns the factors for the work done since
    /// the one before.
    pub fn since(&mut self) -> Factors {
        let last = *self.readings.last().expect("the first reading");
        Factors::between(&last, &self.probe())
    }

    /// Times one run of each probe.
    fn probe(&mut self) -> Reading {
        let adj = &self.adj;
        let (best, search_time) = timed(|| search(adj));
        assert_eq!(best, OMEGA, "the search probe lost its clique");

        let (arcs, parse_time) = timed(|| parse(black_box(&self.text)));
        assert_eq!(arcs, 2 * PARSE_EDGES, "the parse probe lost edges");

        let reading = Reading {
            search_ms: ms(search_time),
            parse_ms: ms(parse_time),
        };
        self.readings.push(reading);
        reading
    }

    /// The run's median probe times, for the stamp.
    pub fn notes(&self) -> Vec<(&'static str, f64)> {
        let all = |f: fn(&Reading) -> f64| median(&self.readings.iter().map(f).collect::<Vec<_>>());
        vec![
            ("search_probe_ms", all(|r| r.search_ms)),
            ("parse_probe_ms", all(|r| r.parse_ms)),
            ("probe_samples", self.readings.len() as f64),
        ]
    }
}

/// ω of the search probe's graph.
fn search(adj: &[Row]) -> u32 {
    let mut all: Row = [0; WORDS];
    for v in 0..VERTICES {
        all[v / 64] |= 1 << (v % 64);
    }
    let mut best = 0;
    expand(adj, 0, black_box(all), &mut best);
    best
}

/// Reads a DIMACS edge list line by line into a CSR with sorted rows;
/// returns the number of arcs.
fn parse(text: &str) -> usize {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut n = 0;
    for line in text.as_bytes().lines() {
        let line = line.expect("in-memory text");
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("p") => n = it.nth(1).and_then(|x| x.parse().ok()).unwrap_or(0),
            Some("e") => {
                let mut id = || it.next().and_then(|x| x.parse::<u32>().ok()).unwrap_or(1) - 1;
                edges.push((id(), id()));
            }
            _ => {}
        }
    }
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in &edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut fill = offsets.clone();
    let mut targets = vec![0u32; offsets[n]];
    for &(u, v) in &edges {
        targets[fill[u as usize]] = v;
        fill[u as usize] += 1;
        targets[fill[v as usize]] = u;
        fill[v as usize] += 1;
    }
    for w in offsets.windows(2) {
        targets[w[0]..w[1]].sort_unstable();
    }
    black_box(&targets).len()
}

fn first(r: &Row) -> Option<usize> {
    r.iter()
        .position(|&w| w != 0)
        .map(|k| k * 64 + r[k].trailing_zeros() as usize)
}

fn remove(r: &mut Row, v: usize) {
    r[v / 64] &= !(1 << (v % 64));
}

/// Branch and bound over the candidates `p`, bounded by greedy colouring
/// (Tomita's MCQ).
fn expand(adj: &[Row], size: u32, mut p: Row, best: &mut u32) {
    let mut order = Vec::with_capacity(VERTICES);
    let mut colour = Vec::with_capacity(VERTICES);
    let mut uncoloured = p;
    let mut c = 0;
    while uncoloured.iter().any(|&w| w != 0) {
        c += 1;
        let mut q = uncoloured;
        while let Some(v) = first(&q) {
            remove(&mut q, v);
            remove(&mut uncoloured, v);
            for (w, a) in q.iter_mut().zip(&adj[v]) {
                *w &= !a;
            }
            order.push(v);
            colour.push(c);
        }
    }
    for (&v, &c) in order.iter().zip(&colour).rev() {
        if size + c <= *best {
            return;
        }
        let mut next = p;
        for (w, a) in next.iter_mut().zip(&adj[v]) {
            *w &= a;
        }
        if next.iter().all(|&w| w == 0) {
            *best = (*best).max(size + 1);
        } else {
            expand(adj, size + 1, next, best);
        }
        remove(&mut p, v);
    }
}
