//! The `service` workload: a live daemon with a data directory, holding
//! the Test-scale suite graphs, driven over loopback sockets.
//!
//! * An open loop sends a fixed mix at a fixed rate — uncached `/solve`,
//!   cached `/solve` and `POST /graphs` of freshly renamed graphs — and
//!   times each request from when it was due to its last response byte.
//! * A closed-loop burst over two connections then measures capacity.
//! * Sequential uncached passes over the resident graphs at one and two
//!   solver threads, and cold boots over the data directory, give the
//!   solve and load times every workload reports.

use crate::common::{self, median, ms, percentile, timed, Checks, Metrics, Rng};
use crate::daemon::{self, Client, Delta};
use crate::layers;
use crate::library::{self, Case};
use crate::speed::Speed;
use lazymc_graph::suite::{self, Scale};
use lazymc_service::ServiceHandle;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second: about a third of what the
/// closed-loop burst sustains on a 2-core host. At half, a slow spell of
/// the host pushed the daemon past capacity and the backlog grew.
const RATE: f64 = 190.0;
/// The mix follows two rules, checked on every run (`upload_time_share`
/// in the stamp):
///
/// * every uncached solve is matched by one cached read of an answer, so
///   cached and uncached solves are equally many;
/// * uploads (the write path) take half of the daemon's request time, as
///   `/metrics` reads it (`lazymc_http_request_seconds_sum` of the
///   `graphs` route against the `solve` route), so a change that trades
///   one path for the other moves both sides' figures alike.
///
/// With `UPLOAD_COST` = an upload's request time over that of an uncached
/// plus a cached solve, uploads are then 1 / (1 + 2 × UPLOAD_COST) of the
/// requests and each kind of solve UPLOAD_COST / (1 + 2 × UPLOAD_COST).
/// `UPLOAD_COST` was read from `/metrics` on a 2-core host
/// (`upload_request_ms` / (2 × `solve_request_ms`) in the stamp).
const UPLOAD_COST: f64 = 0.66;
const UPLOAD: f64 = 1.0 / (1.0 + 2.0 * UPLOAD_COST);
const UNCACHED: f64 = UPLOAD_COST / (1.0 + 2.0 * UPLOAD_COST);
/// Length of each round's closed-loop capacity burst.
const BURST: Duration = Duration::from_secs(1);
/// Sender threads and connections: no more than the host has cores.
const CONNECTIONS: usize = 2;
/// Rounds per run. Each round runs an open-loop window, a capacity burst,
/// sequential passes and a cold boot, so every figure is sampled across
/// the whole run.
const ROUNDS: usize = 5;
/// Sequential passes over the resident graphs per round and thread count.
const PASSES: usize = 10;
/// Set-ups per run, reported as a median.
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Uncached,
    Cached,
    Upload,
}

fn pick(rng: &mut Rng) -> Kind {
    let u = rng.unit();
    if u < UPLOAD {
        Kind::Upload
    } else if u < UPLOAD + UNCACHED {
        Kind::Uncached
    } else {
        Kind::Cached
    }
}

/// Seed of round `r` of a run with `seed`.
fn round_seed(seed: u64, r: u64) -> u64 {
    Rng::new(seed).next_u64() ^ r
}

/// The graphs requests go to.
struct Inputs {
    resident: Vec<Case>,
}

/// One request, ready to send, with the check of its answer.
struct Request<'a> {
    path: &'static str,
    body: String,
    check: Box<dyn Fn(&std::io::Result<(u16, String)>) -> Result<(), String> + 'a>,
}

impl Inputs {
    fn new(seed: u64, dir: &Path) -> Inputs {
        let mut rng = Rng::new(seed);
        let graphs = suite::all()
            .iter()
            .map(|inst| {
                (
                    inst.name,
                    common::relabel(&inst.build(Scale::Test), &mut rng),
                )
            })
            .collect();
        let files = dir.join("files");
        std::fs::create_dir_all(&files).expect("graph file directory");
        Inputs {
            resident: library::cases_from(graphs, &files),
        }
    }

    /// A request of `kind`; `pick` chooses the resident graph. An upload
    /// sends that graph with its vertices renamed by `rename`, under
    /// `upload-<name>`, so the write traffic has the size and shape of
    /// the read traffic and one slot per resident graph.
    fn request(&self, kind: Kind, pick: usize, rename: u64) -> Request<'_> {
        let case = &self.resident[pick % self.resident.len()];
        let (name, omega) = (case.name, case.omega);
        match kind {
            Kind::Upload => {
                let slot = format!("upload-{name}");
                let g = common::relabel(&case.graph, &mut Rng::new(rename));
                Request {
                    path: "/graphs",
                    body: daemon::upload_body(&slot, &g),
                    check: Box::new(move |reply| daemon::check_upload(&slot, &g, reply)),
                }
            }
            kind => {
                let cached = kind == Kind::Cached;
                Request {
                    path: "/solve",
                    body: daemon::solve_body(name, None, !cached),
                    check: Box::new(move |reply| {
                        daemon::check_solve(name, &case.graph, omega, cached, reply)
                    }),
                }
            }
        }
    }
}

impl Request<'_> {
    /// Sends the request and checks the answer. Returns the outcome and
    /// when the request went out.
    fn send(&self, client: &mut Client) -> (Result<(), String>, Instant) {
        let sent = Instant::now();
        let reply = client.request("POST", self.path, &self.body);
        ((self.check)(&reply), sent)
    }
}

/// Boots a daemon over a fresh data directory, uploads the resident graphs
/// and solves each once, which fills the result cache.
fn set_up(inputs: &Inputs, data: &Path, checks: &mut Checks) -> ServiceHandle {
    if data.exists() {
        std::fs::remove_dir_all(data).expect("clear data directory");
    }
    std::fs::create_dir_all(data).expect("data directory");
    let handle = daemon::start(data).expect("start daemon");
    let mut client = Client::connect(handle.addr()).expect("connect to daemon");
    for case in &inputs.resident {
        let reply = client.request(
            "POST",
            "/graphs",
            &daemon::upload_body(case.name, &case.graph),
        );
        checks.record(daemon::check_upload(case.name, &case.graph, &reply));
        let reply = client.request(
            "POST",
            "/solve",
            &daemon::solve_body(case.name, None, false),
        );
        checks.record(daemon::check_solve(
            case.name,
            &case.graph,
            case.omega,
            false,
            &reply,
        ));
    }
    handle
}

/// One open-loop request, as measured.
struct Sample {
    kind: Kind,
    /// From when it was due to its last response byte.
    latency_ms: f64,
    /// How late it was sent.
    late_ms: f64,
}

/// What the open loop measured.
struct OpenLoop {
    samples: Vec<Sample>,
    window_s: f64,
}

impl OpenLoop {
    fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_ms)
            .collect()
    }

    /// Lateness percentile over the requests in `[from, to)` of the
    /// schedule (a share of its length).
    fn late(&self, q: f64, from: f64, to: f64) -> f64 {
        let n = self.samples.len() as f64;
        let part: Vec<f64> = self.samples[(from * n) as usize..(to * n) as usize]
            .iter()
            .map(|s| s.late_ms)
            .collect();
        if part.is_empty() {
            0.0
        } else {
            percentile(&part, q)
        }
    }
}

/// Sends `RATE × seconds` requests on a fixed schedule over
/// [`CONNECTIONS`] connections. A request waits for a free connection, and
/// that wait counts in its latency.
fn open_loop(
    inputs: &Inputs,
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> OpenLoop {
    let mut rng = Rng::new(seed);
    let total = (RATE * seconds) as usize;
    let schedule: Vec<(Kind, usize, u64)> = (0..total)
        .map(|_| (pick(&mut rng), rng.below(1 << 20), rng.next_u64()))
        .collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(total));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut client = Client::connect(addr).expect("connect to daemon");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(kind, pick, rename)) = schedule.get(i) else {
                        break;
                    };
                    // Built before its due time, so building is not timed.
                    let request = inputs.request(kind, pick, rename);
                    let due = start + Duration::from_secs_f64(i as f64 / RATE);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let (outcome, sent) = request.send(&mut client);
                    let done = Instant::now();
                    let sample = Sample {
                        kind,
                        latency_ms: ms(done - due),
                        late_ms: ms(sent.saturating_duration_since(due)),
                    };
                    results
                        .lock()
                        .expect("results lock")
                        .push((i, sample, outcome));
                }
            });
        }
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|r| r.0);
    let samples = results
        .into_iter()
        .map(|(_, sample, outcome)| {
            checks.record(outcome);
            sample
        })
        .collect();
    OpenLoop { samples, window_s }
}

/// Whether the generator kept to its schedule. Two connections make
/// requests wait behind a slow one for tens of milliseconds now and then;
/// a run is invalid only when the generator falls a second behind, or
/// when the backlog grows: lateness ends the window above 100 ms and at
/// more than four times where it began.
fn generator_kept_up(ol: &OpenLoop) -> Result<(), String> {
    let p99 = ol.late(0.99, 0.0, 1.0);
    let first = ol.late(0.5, 0.0, 0.25);
    let last = ol.late(0.5, 0.75, 1.0);
    if p99 > 1000.0 {
        return Err(format!(
            "open loop invalid: the generator ran {p99:.1} ms late (p99)"
        ));
    }
    if last > 100.0 && last > 4.0 * first {
        return Err(format!(
            "open loop invalid: backlog grew (median lateness {first:.1} ms → {last:.1} ms)"
        ));
    }
    Ok(())
}

/// Closed loop: each connection sends the mix back to back for
/// [`BURST`]; returns completed requests per second.
fn burst(inputs: &Inputs, addr: SocketAddr, seed: u64, checks: &mut Checks) -> f64 {
    let start = Instant::now();
    let outcomes = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..CONNECTIONS {
            let outcomes = &outcomes;
            s.spawn(move || {
                let mut rng = Rng::new(round_seed(seed, c as u64 + 1));
                let mut client = Client::connect(addr).expect("connect to daemon");
                let mut mine = Vec::new();
                while start.elapsed() < BURST {
                    let kind = pick(&mut rng);
                    let request = inputs.request(kind, rng.below(1 << 20), rng.next_u64());
                    mine.push(request.send(&mut client).0);
                }
                outcomes.lock().expect("outcomes lock").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let outcomes = outcomes.into_inner().expect("outcomes lock");
    let completed = outcomes.len();
    for outcome in outcomes {
        checks.record(outcome);
    }
    completed as f64 / elapsed
}

/// One sequential pass of uncached solves over the resident graphs at
/// `threads` solver threads; seconds.
fn pass(inputs: &Inputs, client: &mut Client, threads: usize, checks: &mut Checks) -> f64 {
    let mut total = 0.0;
    for case in &inputs.resident {
        let body = daemon::solve_body(case.name, Some(threads), true);
        let (reply, d) = timed(|| client.request("POST", "/solve", &body));
        checks.record(daemon::check_solve(
            case.name,
            &case.graph,
            case.omega,
            false,
            &reply,
        ));
        total += d.as_secs_f64();
    }
    total
}

/// Boots a daemon over the populated data directory and times it until
/// every resident graph answers `/stats`; then solves each once, which
/// fills the new daemon's result cache.
fn cold_boot(inputs: &Inputs, data: &Path, checks: &mut Checks) -> (ServiceHandle, f64) {
    let start = Instant::now();
    let handle = daemon::start(data).expect("start daemon");
    let mut client = Client::connect(handle.addr()).expect("connect to daemon");
    for case in &inputs.resident {
        let reply = client.request("GET", &format!("/stats/{}", case.name), "");
        checks.record(match reply {
            Ok((200, _)) => Ok(()),
            Ok((status, body)) => Err(format!("/stats/{} after boot: {status} {body}", case.name)),
            Err(e) => Err(format!("/stats/{} after boot: {e}", case.name)),
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    for case in &inputs.resident {
        let reply = client.request(
            "POST",
            "/solve",
            &daemon::solve_body(case.name, None, false),
        );
        checks.record(daemon::check_solve(
            case.name,
            &case.graph,
            case.omega,
            false,
            &reply,
        ));
    }
    (handle, elapsed)
}

pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
) -> (Checks, Metrics, Vec<(&'static str, f64)>) {
    let mut checks = Checks::default();
    let inputs = Inputs::new(seed, dir);
    let data = dir.join("data");
    // Every phase lies between two readings of the host's speed, taken
    // while the daemon is idle (`speed.rs`); each measurement is kept as
    // (wall, reference-host) values.
    let mut speed = Speed::new();
    let mut setups = Vec::new();
    let mut handle = None;
    for _ in 0..SETUPS {
        if let Some(h) = handle.take() {
            ServiceHandle::stop(h);
        }
        let (h, d) = timed(|| set_up(&inputs, &data, &mut checks));
        let f = speed.since();
        setups.push((d.as_secs_f64(), d.as_secs_f64() * f.parse));
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up");
    let addr = handle.addr();
    let mut notes = Vec::new();

    if trace {
        let metrics = library::traced(
            &inputs.resident,
            dir,
            &mut checks,
            |_| None,
            |m, _, checks| {
                let mut client = Client::connect(addr).expect("connect to daemon");
                let before = daemon::scrape(&mut client).expect("scrape /metrics");
                let window = seconds as f64 / ROUNDS as f64;
                let ol = open_loop(&inputs, addr, round_seed(seed, 0), window, checks);
                let after = daemon::scrape(&mut client).expect("scrape /metrics");
                checks.record(generator_kept_up(&ol));
                let delta = Delta::new(before, after);
                layers::service(m, &delta, ol.window_s, &ol.latencies(Kind::Cached));
                notes.push(("gen_late_p50_ms", ol.late(0.5, 0.0, 1.0)));
                notes.push(("gen_late_p99_ms", ol.late(0.99, 0.0, 1.0)));
                let mut routes = RouteTime::default();
                routes.add(&delta);
                routes.notes(&mut notes);
            },
        );
        handle.stop();
        return (checks, metrics, notes);
    }

    let mut handle = handle;
    let (mut loops, mut bursts, mut boots, mut t1, mut t2) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut routes = RouteTime::default();
    for r in 0..ROUNDS as u64 {
        let addr = handle.addr();
        let window = (seconds as f64 / ROUNDS as f64 - BURST.as_secs_f64()).max(1.0);
        let mut client = Client::connect(addr).expect("connect to daemon");
        let before = daemon::scrape(&mut client).expect("scrape /metrics");
        let ol = open_loop(&inputs, addr, round_seed(seed, r), window, &mut checks);
        let after = daemon::scrape(&mut client).expect("scrape /metrics");
        routes.add(&Delta::new(before, after));
        checks.record(generator_kept_up(&ol));
        loops.push((ol, speed.since()));

        let rps = burst(&inputs, addr, round_seed(seed, r), &mut checks);
        bursts.push((rps, rps / speed.since().search));

        let mut walls = (Vec::new(), Vec::new());
        for _ in 0..PASSES {
            walls.0.push(pass(&inputs, &mut client, 2, &mut checks));
            walls.1.push(pass(&inputs, &mut client, 1, &mut checks));
        }
        let f = speed.since().search;
        t2.extend(walls.0.iter().map(|&w| (w, w * f)));
        t1.extend(walls.1.iter().map(|&w| (w, w * f)));

        drop(client);
        handle.stop();
        let (h, boot) = cold_boot(&inputs, &data, &mut checks);
        handle = h;
        boots.push((boot, boot * speed.since().parse));
    }
    handle.stop();

    let late: Vec<f64> = loops
        .iter()
        .flat_map(|(ol, _)| ol.samples.iter().map(|s| s.late_ms))
        .collect();
    notes.push(("gen_late_p50_ms", percentile(&late, 0.5)));
    notes.push(("gen_late_p99_ms", percentile(&late, 0.99)));
    notes.push(("rate_rps", RATE));
    routes.notes(&mut notes);
    // Repeated work reports the median of its repetitions; a latency
    // percentile, the median over rounds of each round's percentile. The
    // whole host stalls now and then for 0.1–0.3 s (the generator runs as
    // late as the daemon): over pooled samples such a stall set the p99 of
    // one run in five, while within a round it moves only that round.
    // Solve latencies scale by the search probe, uploads by the parse one.
    let per_round = |kind: Kind, q: f64| {
        let parts: Vec<(f64, f64)> = loops
            .iter()
            .map(|(ol, f)| {
                let wall = percentile(&ol.latencies(kind), q);
                let factor = if kind == Kind::Upload {
                    f.parse
                } else {
                    f.search
                };
                (wall, wall * factor)
            })
            .collect();
        let n = loops.iter().map(|(ol, _)| ol.latencies(kind).len()).sum();
        (parts, n)
    };
    let mut m = Metrics::default();
    let mut timing = |name: &'static str, wall_name: &'static str, xs: &[(f64, f64)], n: usize| {
        let wall: Vec<f64> = xs.iter().map(|x| x.0).collect();
        let scaled: Vec<f64> = xs.iter().map(|x| x.1).collect();
        m.timing(name, median(&scaled), n);
        notes.push((wall_name, median(&wall)));
    };
    timing("setup_s", "wall_setup_s", &setups, setups.len());
    timing("load_s", "wall_load_s", &boots, boots.len());
    timing("solve_s", "wall_solve_s", &t2, t2.len());
    timing("solve_t1_s", "wall_solve_t1_s", &t1, t1.len());
    for (name, wall_name, kind, q) in [
        ("solve_p50_ms", "wall_solve_p50_ms", Kind::Uncached, 0.5),
        ("solve_p99_ms", "wall_solve_p99_ms", Kind::Uncached, 0.99),
        ("upload_p50_ms", "wall_upload_p50_ms", Kind::Upload, 0.5),
        ("upload_p90_ms", "wall_upload_p90_ms", Kind::Upload, 0.9),
    ] {
        let (parts, n) = per_round(kind, q);
        timing(name, wall_name, &parts, n);
    }
    timing("max_rps", "wall_max_rps", &bursts, bursts.len());
    m.put("peak_rss_mb", common::peak_rss_mb());
    notes.extend(speed.notes());
    (checks, m, notes)
}

/// Daemon request time by route over the open-loop windows, as
/// `/metrics` reads it: the check of the mix's upload rule.
#[derive(Default)]
struct RouteTime {
    upload_s: f64,
    uploads: f64,
    solve_s: f64,
    solves: f64,
}

impl RouteTime {
    fn add(&mut self, d: &Delta) {
        let route = |r: &str, part: &str| {
            d.get(&format!(
                "lazymc_http_request_seconds_{part}{{route=\"{r}\"}}"
            ))
        };
        self.upload_s += route("graphs", "sum");
        self.uploads += route("graphs", "count");
        self.solve_s += route("solve", "sum");
        self.solves += route("solve", "count");
    }

    /// The uploads' share of request time, and the mean request time of
    /// an upload and of a solve (cached or not), for the stamp.
    fn notes(&self, notes: &mut Vec<(&'static str, f64)>) {
        notes.push((
            "upload_time_share",
            self.upload_s / (self.upload_s + self.solve_s).max(1e-9),
        ));
        notes.push((
            "upload_request_ms",
            1e3 * self.upload_s / self.uploads.max(1.0),
        ));
        notes.push((
            "solve_request_ms",
            1e3 * self.solve_s / self.solves.max(1.0),
        ));
    }
}
