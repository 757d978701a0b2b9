//! Talking to a live `lazymc-service` daemon: start and stop one over a
//! data directory, a blocking HTTP/1.1 client, request bodies, answer
//! checks and `/metrics` scrapes.

use lazymc_graph::{io, CsrGraph};
use lazymc_service::{serve, Json, ServiceConfig, ServiceHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

/// Starts a daemon as `lazymc serve` ships, on a free loopback port with
/// `data_dir` for its snapshots. Every other setting is the default: as
/// many request and solver workers as the host has cores, eight resident
/// graphs (beyond that the registry evicts and reloads from snapshots),
/// a 64-job queue and the background scrubber.
pub fn start(data_dir: &Path) -> std::io::Result<ServiceHandle> {
    serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    })
}

/// A keep-alive connection with Nagle off, so request fragments add no
/// delayed-ACK latency to what is measured.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request and reads the whole response: status and body.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The graph as an edge list.
fn edge_list(g: &CsrGraph) -> String {
    let mut text = Vec::new();
    io::write_edge_list(g, &mut text).expect("write to memory");
    String::from_utf8(text).expect("edge lists are ASCII")
}

/// A `POST /graphs` body uploading `g` under `name` as an edge list.
pub fn upload_body(name: &str, g: &CsrGraph) -> String {
    Json::obj(vec![
        ("name", Json::str(name)),
        ("format", Json::str("edgelist")),
        ("content", Json::str(edge_list(g))),
    ])
    .encode()
}

/// A `POST /solve` body; `fresh` bypasses the result cache.
pub fn solve_body(name: &str, threads: Option<usize>, fresh: bool) -> String {
    let mut pairs = vec![("graph", Json::str(name))];
    if let Some(t) = threads {
        pairs.push(("threads", Json::num(t as f64)));
    }
    if fresh {
        pairs.push(("no_cache", Json::Bool(true)));
    }
    Json::obj(pairs).encode()
}

/// Checks a `/solve` answer: status, exactness, ω against the reference,
/// the witness, and whether the cache answered as intended.
pub fn check_solve(
    name: &str,
    g: &CsrGraph,
    omega: usize,
    want_cached: bool,
    reply: &std::io::Result<(u16, String)>,
) -> Result<(), String> {
    let (status, body) = reply.as_ref().map_err(|e| format!("{name}: {e}"))?;
    if *status != 200 {
        return Err(format!("{name}: status {status}: {body}"));
    }
    let v = Json::parse(body).map_err(|e| format!("{name}: bad JSON: {e}"))?;
    let got = v.get("omega").and_then(Json::as_u64).unwrap_or(0) as usize;
    let clique: Vec<u32> = match v.get("clique") {
        Some(Json::Arr(xs)) => xs
            .iter()
            .filter_map(|x| x.as_u64().map(|x| x as u32))
            .collect(),
        _ => Vec::new(),
    };
    if v.get("exact").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{name}: answer not exact"));
    }
    if got != omega || clique.len() != omega || !g.is_clique(&clique) {
        return Err(format!(
            "{name}: ω {got} (witness of {}), reference {omega}",
            clique.len()
        ));
    }
    if v.get("cached").and_then(Json::as_bool) != Some(want_cached) {
        return Err(format!("{name}: cached should be {want_cached}"));
    }
    Ok(())
}

/// Checks a `POST /graphs` answer against the uploaded graph.
pub fn check_upload(
    name: &str,
    g: &CsrGraph,
    reply: &std::io::Result<(u16, String)>,
) -> Result<(), String> {
    let (status, body) = reply.as_ref().map_err(|e| format!("upload {name}: {e}"))?;
    if *status != 201 {
        return Err(format!("upload {name}: status {status}: {body}"));
    }
    let v = Json::parse(body).map_err(|e| format!("upload {name}: bad JSON: {e}"))?;
    let n = v.get("vertices").and_then(Json::as_u64).unwrap_or(0) as usize;
    let m = v.get("edges").and_then(Json::as_u64).unwrap_or(0) as usize;
    // An edge list cannot name isolated vertices after the last endpoint.
    let last = (0..g.num_vertices() as u32)
        .rev()
        .find(|&v| g.degree(v) > 0);
    if (n, m) != (last.map_or(0, |v| v as usize + 1), g.num_edges()) {
        return Err(format!(
            "upload {name}: daemon holds {n} vertices / {m} edges"
        ));
    }
    Ok(())
}

/// `/metrics` as a map from series (with labels) to value.
pub fn scrape(client: &mut Client) -> std::io::Result<BTreeMap<String, f64>> {
    let (status, body) = client.request("GET", "/metrics", "")?;
    if status != 200 {
        return Err(std::io::Error::other(format!("/metrics status {status}")));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// The change of every series between two scrapes.
pub struct Delta {
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
}

impl Delta {
    pub fn new(before: BTreeMap<String, f64>, after: BTreeMap<String, f64>) -> Delta {
        Delta { before, after }
    }

    /// The change of one series; 0 for a series neither scrape has.
    pub fn get(&self, series: &str) -> f64 {
        self.after.get(series).copied().unwrap_or(0.0)
            - self.before.get(series).copied().unwrap_or(0.0)
    }

    /// Sum of the changes of every series whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.after
            .keys()
            .filter(|k| k.starts_with(prefix))
            .map(|k| self.get(k))
            .sum()
    }

    /// Quantile `q` of a log₂-bucketed latency histogram's new
    /// observations, in milliseconds, interpolated linearly within the
    /// bucket it falls in.
    pub fn hist_quantile_ms(&self, hist: &str, q: f64) -> f64 {
        let prefix = format!("{hist}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .after
            .keys()
            .filter_map(|k| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, self.get(k)))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let mut lower = (0.0, 0.0);
        for &(bound, count) in &buckets {
            if count >= rank {
                let upper = if bound.is_finite() {
                    bound
                } else {
                    lower.0 * 2.0
                };
                let share = (rank - lower.1) / (count - lower.1).max(1e-9);
                return (lower.0 + share * (upper - lower.0)) * 1e3;
            }
            lower = (bound, count);
        }
        lower.0 * 1e3
    }
}
