//! Zero-downtime lifecycle acceptance: a real `lazymc serve` child gets
//! SIGTERM mid-load and must drain — stop accepting, finish or persist
//! every admitted job, flip `/readyz` while `/healthz` stays live, tell
//! keep-alive clients `Connection: close`, and exit 0. A restart over the
//! same `--data-dir` then proves the journal owes nothing: a graceful
//! drain, unlike the SIGKILL in `crash_recovery.rs`, loses no work *and*
//! leaves none behind.

use lazymc_service::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `lazymc serve 127.0.0.1:0 --data-dir <dir> ...` and parses the
/// bound address out of the startup banner.
fn spawn_daemon(data_dir: &Path, extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lazymc"));
    cmd.arg("serve")
        .arg("127.0.0.1:0")
        .arg("--data-dir")
        .arg(data_dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn lazymc serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before printing its address")
            .expect("read banner line");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.trim().parse().expect("bound address");
        }
    };
    std::thread::spawn(move || for _ in lines {});
    Daemon { child, addr }
}

/// Minimal keep-alive HTTP client (mirrors the service test client; CLI
/// tests cannot share that module across crates).
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).expect("nodelay");
                    let reader = BufReader::new(stream.try_clone().expect("clone"));
                    return Client { stream, reader };
                }
                Err(e) => {
                    assert!(Instant::now() < deadline, "daemon never accepted: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// One request; returns (status, lower-cased headers, parsed body).
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> (u16, Vec<(String, String)>, Json) {
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        self.stream.flush().expect("flush");
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
            .parse()
            .expect("numeric status");
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_string());
                if k == "content-length" {
                    content_length = v.parse().expect("content-length");
                }
                headers.push((k, v));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        let body = String::from_utf8(body).expect("utf8");
        (status, headers, Json::parse(&body).expect("json body"))
    }
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing number {key:?} in {v:?}")) as u64
}

fn str_field<'a>(v: &'a Json, key: &'a str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

fn has_close(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lazymc_drain_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigterm_drains_finishes_jobs_and_exits_zero() {
    let dir = tmp_dir("term");
    let mut first = spawn_daemon(
        &dir,
        &[
            "--solver-workers",
            "1",
            "--workers",
            "1",
            "--drain-timeout-ms",
            "30000",
        ],
    );
    let mut c = Client::connect(first.addr);

    let g = lazymc_graph::gen::gnp(240, 0.5, 7);
    let mut edges = Vec::new();
    lazymc_graph::io::write_edge_list(&g, &mut edges).expect("serialize graph");
    let upload = Json::obj(vec![
        ("name", Json::str("dense")),
        ("format", Json::str("edgelist")),
        (
            "content",
            Json::str(String::from_utf8(edges).expect("utf8")),
        ),
    ])
    .encode();
    let (status, _, info) = c.request("POST", "/graphs", &upload);
    assert_eq!(status, 201, "upload failed: {info:?}");

    // One job pins the lone solver for ~1.2 s; three more wait behind it.
    // Every budget is measured from enqueue, so all of it resolves (runs,
    // finishes early, or is reaped dead-on-arrival) well inside the drain
    // timeout — a graceful exit has work to wait for, but not forever.
    let body = r#"{"graph":"dense","no_cache":true,"budget_ms":1200,"threads":1}"#;
    let mut admitted = 0u64;
    for _ in 0..4 {
        let (status, _, accepted) = c.request("POST", "/solve?async=1", body);
        assert_eq!(status, 202, "admission failed: {accepted:?}");
        admitted += 1;
    }
    assert_eq!(admitted, 4);

    // Pre-open the probe connections: the listener closes once the drain
    // begins, but connections accepted before it must keep answering.
    let mut ready_probe = Client::connect(first.addr);
    let mut health_probe = Client::connect(first.addr);
    let (status, headers, _) = ready_probe.request("GET", "/readyz", "");
    assert_eq!(status, 200, "daemon must be ready before SIGTERM");
    assert!(!has_close(&headers), "keep-alive before the drain");

    assert_eq!(
        unsafe { kill(first.child.id() as i32, SIGTERM) },
        0,
        "kill(SIGTERM) failed"
    );

    // The daemon handles the signal asynchronously: poll /healthz on its
    // in-flight connection until it reports the drain (bounded), and keep
    // that response for the checks below.
    let t = Instant::now();
    let (status, health) = loop {
        let (status, _, health) = health_probe.request("GET", "/healthz", "");
        let draining = health.get("draining").and_then(Json::as_bool) == Some(true);
        if draining || status != 200 || t.elapsed() >= Duration::from_secs(5) {
            break (status, health);
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    // In-flight connections: /healthz stays 200 and reports the phase,
    // while /readyz flips to 503 (with Connection: close).
    assert_eq!(status, 200, "/healthz stays live through the drain");
    assert_eq!(
        health.get("draining").and_then(Json::as_bool),
        Some(true),
        "healthz must report draining: {health:?}"
    );
    let (status, headers, _) = ready_probe.request("GET", "/readyz", "");
    assert_eq!(status, 503, "/readyz must refuse while draining");
    assert!(
        has_close(&headers),
        "drain responses must say Connection: close, got {headers:?}"
    );

    // The listener is gone: new connections are refused, not queued.
    let t = Instant::now();
    loop {
        if TcpStream::connect(first.addr).is_err() {
            break;
        }
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "listener still accepting after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The child finishes its admitted work and exits 0 — not killed, not
    // timed out, not panicking on the way down.
    let t = Instant::now();
    let status = loop {
        if let Some(status) = first.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            t.elapsed() < Duration::from_secs(60),
            "daemon never exited after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "drain must exit 0, got {status:?}");

    // A restart over the same data dir owes no replay: every admitted job
    // reached a terminal state before the first daemon exited.
    let second = spawn_daemon(&dir, &["--solver-workers", "1", "--workers", "1"]);
    let mut c = Client::connect(second.addr);
    let (status, _, health) = c.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(str_field(&health, "journal"), "enabled");
    assert_eq!(
        u64_field(&health, "journal_pending"),
        0,
        "graceful drain must leave no admitted-incomplete jobs behind"
    );
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}
