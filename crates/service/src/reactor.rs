//! The event loop: one reactor thread per `--io-threads`, each owning an
//! epoll [`Poller`], its share of the connections,
//! and (for reactor 0) the nonblocking listener.
//!
//! The reactor never computes and never blocks: it accepts, reads bytes
//! into connection buffers, routes complete requests (cheap introspection
//! endpoints answer inline; anything heavier is handed to the request
//! worker pool), and drains response bytes back out. Responses produced
//! off-thread — by request workers or, transitively, solver workers —
//! come back through a [`Responder`], which pushes a completion into the
//! owning reactor's queue and rings its eventfd doorbell. That doorbell
//! is the *only* way other threads interact with the loop, so no socket
//! is ever touched by two threads.

use crate::conn::{Conn, ConnState, ReadOutcome, ReqObs, Response};
use crate::plock;
use crate::server::{dispatch, Dispatched, ReqWork, ServiceConfig, ServiceState};
use lazymc_netio::{Events, Interest, Poller, Wakeup};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const WAKEUP_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;
/// Reactor 0's signalfd (SIGTERM/SIGINT → graceful drain).
const SIGNAL_TOKEN: u64 = 2;
/// First token handed to a connection (0–2 are reserved above).
pub(crate) const FIRST_CONN_TOKEN: u64 = 3;

/// How long an idle keep-alive connection survives once a drain begins:
/// long enough for a final probe (`/readyz`) or an in-flight response,
/// short enough that drains are not held open by parked clients.
const DRAIN_IDLE_GRACE: Duration = Duration::from_millis(500);

/// A response produced off the reactor thread, addressed to one
/// connection's one in-flight request.
pub(crate) struct Completion {
    pub conn: u64,
    pub serial: u64,
    pub response: Response,
}

/// The reactor's cross-thread mailbox.
pub(crate) struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    /// Connections accepted by reactor 0 and assigned to this reactor.
    injected: Mutex<Vec<TcpStream>>,
    wakeup: Wakeup,
}

impl ReactorShared {
    pub(crate) fn new() -> std::io::Result<ReactorShared> {
        Ok(ReactorShared {
            completions: Mutex::new(Vec::new()),
            injected: Mutex::new(Vec::new()),
            wakeup: Wakeup::new()?,
        })
    }

    pub(crate) fn notify(&self) {
        self.wakeup.notify();
    }

    fn inject(&self, stream: TcpStream) {
        plock(&self.injected).push(stream);
        self.wakeup.notify();
    }
}

/// Write-half of a pending request: whoever holds it (or any of its
/// clones — they share one debt) owes the connection exactly one
/// response. The first `respond` wins; later ones are ignored. If every
/// clone is dropped without responding — a panicking handler, a job
/// record that vanished — the drop of the last clone sends a `500`
/// instead, so no connection can be orphaned in its awaiting state.
#[derive(Clone)]
pub struct Responder {
    inner: Arc<ResponderInner>,
}

struct ResponderInner {
    shared: Arc<ReactorShared>,
    conn: u64,
    serial: u64,
    answered: std::sync::atomic::AtomicBool,
}

impl ResponderInner {
    fn send(&self, response: Response) {
        plock(&self.shared.completions).push(Completion {
            conn: self.conn,
            serial: self.serial,
            response,
        });
        self.shared.wakeup.notify();
    }
}

impl Responder {
    pub(crate) fn new(shared: Arc<ReactorShared>, conn: u64, serial: u64) -> Responder {
        Responder {
            inner: Arc::new(ResponderInner {
                shared,
                conn,
                serial,
                answered: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Delivers the response to the reactor that owns the connection. If
    /// the connection died in the meantime, the completion is dropped
    /// there — never an error here. Only the first respond across all
    /// clones is delivered.
    pub(crate) fn respond(&self, response: Response) {
        if self.inner.answered.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.send(response);
    }

    /// Marks the debt settled without sending — for requests the reactor
    /// answers directly on its own thread (the completion queue never
    /// sees them, and the drop backstop must not fire a stray 500).
    pub(crate) fn dismiss(&self) {
        self.inner
            .answered
            .store(true, std::sync::atomic::Ordering::Release);
    }
}

impl Drop for ResponderInner {
    fn drop(&mut self) {
        // Last clone gone without an answer: the handler panicked or a
        // job sink was lost. The old thread-per-connection server's
        // equivalent was a dead reply channel turning into a 500 — keep
        // that contract rather than leaving the connection awaiting
        // (awaiting connections are exempt from the idle sweep).
        if !self.answered.load(Ordering::Acquire) {
            self.send(Response::error(
                500,
                "request handler failed before responding",
            ));
        }
    }
}

pub(crate) struct ReactorArgs {
    pub idx: usize,
    pub state: Arc<ServiceState>,
    pub cfg: ServiceConfig,
    /// `Some` only for reactor 0, which owns accepting.
    pub listener: Option<TcpListener>,
    /// `Some` only for reactor 0 when the daemon handles signals:
    /// SIGTERM/SIGINT arrive as readability here and start a drain.
    pub signal: Option<lazymc_netio::SignalFd>,
    pub shared: Arc<ReactorShared>,
    /// Every reactor's mailbox (self included), for accept handoff.
    pub peers: Vec<Arc<ReactorShared>>,
    pub shutdown: Arc<AtomicBool>,
    pub work_tx: mpsc::Sender<ReqWork>,
}

pub(crate) fn run_reactor(args: ReactorArgs) {
    let mut r = Reactor {
        poller: match Poller::new() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("lazymc-service: reactor {} failed to start: {e}", args.idx);
                return;
            }
        },
        conns: std::collections::HashMap::new(),
        next_rr: args.idx,
        last_sweep: Instant::now(),
        args,
    };
    if r.poller
        .register(r.args.shared.wakeup.fd(), WAKEUP_TOKEN, Interest::READ)
        .is_err()
    {
        return;
    }
    if let Some(listener) = &r.args.listener {
        let _ = listener.set_nonblocking(true);
        if r.poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
    }
    if let Some(signal) = &r.args.signal {
        if r.poller
            .register(signal.fd(), SIGNAL_TOKEN, Interest::READ)
            .is_err()
        {
            eprintln!("lazymc-service: failed to watch signalfd; SIGTERM will kill, not drain");
        }
    }
    r.run();
}

struct Reactor {
    poller: Poller,
    conns: std::collections::HashMap<u64, Conn>,
    /// Round-robin cursor for accept handoff.
    next_rr: usize,
    last_sweep: Instant,
    args: ReactorArgs,
}

impl Reactor {
    fn run(&mut self) {
        let sweep_every = (self.args.cfg.read_timeout / 4)
            .min(Duration::from_millis(100))
            .max(Duration::from_millis(5));
        let mut events = Events::with_capacity(256);
        loop {
            let _ = self.poller.wait(&mut events, Some(sweep_every));
            if self.args.shutdown.load(Ordering::SeqCst) {
                // Sever everything; in-flight completions die with us.
                for (_, conn) in self.conns.drain() {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                    self.args
                        .state
                        .metrics
                        .open_connections
                        .fetch_sub(1, Ordering::Relaxed);
                }
                return;
            }
            let ready: Vec<(u64, bool, bool, bool)> = events
                .iter()
                .map(|e| (e.token, e.readable, e.writable, e.error || e.closed))
                .collect();
            for (token, readable, writable, fatal) in ready {
                match token {
                    WAKEUP_TOKEN => {
                        self.args.shared.wakeup.drain();
                    }
                    LISTENER_TOKEN => self.accept_ready(),
                    SIGNAL_TOKEN => {
                        if self.args.signal.as_ref().is_some_and(|s| s.drain()) {
                            // SIGTERM/SIGINT: start the graceful drain and
                            // wake the peers so they act on it too.
                            self.args.state.begin_drain();
                            for peer in &self.args.peers {
                                peer.notify();
                            }
                        }
                    }
                    token => self.conn_ready(token, readable, writable, fatal),
                }
            }
            // Drain mode (SIGTERM, or begin_drain from any thread): stop
            // accepting — readiness probes already see 503 — and let
            // everything in flight settle.
            if self.args.state.is_draining() {
                self.enter_drain();
            }
            // Mailbox work can arrive with or without a doorbell event
            // (the notify may land while we are already awake).
            self.drain_injected();
            self.drain_completions();
            if self.last_sweep.elapsed() >= sweep_every {
                self.sweep_timeouts();
                self.last_sweep = Instant::now();
            }
        }
    }

    /// Acts on drain mode; idempotent, called every loop iteration while
    /// draining. Reactor 0 closes the listener (new TCP connections are
    /// refused by the OS from that moment; `/readyz` flipped to 503 the
    /// instant the flag was set, strictly before this). Open connections
    /// are left to finish: their next response carries
    /// `Connection: close` (see [`Reactor::deliver`]) and idle ones are
    /// reaped by the sweep after a short grace.
    fn enter_drain(&mut self) {
        if let Some(listener) = self.args.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
            eprintln!("lazymc-service: drain: listener closed");
        }
    }

    // -- accept path --------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            // Scoped borrow of the listener so `adopt` below can take
            // `&mut self`.
            let accepted = match &self.args.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    let m = &self.args.state.metrics;
                    m.conns_accepted_total.fetch_add(1, Ordering::Relaxed);
                    if m.open_connections.load(Ordering::Relaxed)
                        >= self.args.cfg.effective_conn_limit() as u64
                    {
                        m.conns_rejected_total.fetch_add(1, Ordering::Relaxed);
                        // Best-effort 503 so the client knows it was load,
                        // not a crash; then the stream drops.
                        let _ = stream.set_nonblocking(true);
                        let mut buf = Vec::new();
                        let mut busy =
                            Response::error(503, "connection limit reached; retry shortly");
                        busy.retry_after = Some(
                            self.args
                                .state
                                .drain_rate
                                .retry_after(self.args.state.queue.depth()),
                        );
                        busy.serialize_into(&mut buf);
                        use std::io::Write as _;
                        let mut s = stream;
                        let _ = s.write(&buf);
                        continue;
                    }
                    let n = self.args.peers.len();
                    let target = self.next_rr % n;
                    self.next_rr = self.next_rr.wrapping_add(1);
                    if target == self.args.idx {
                        self.adopt(stream);
                    } else {
                        self.args.peers[target].inject(stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.args.cfg.so_sndbuf {
            let _ = lazymc_netio::sockopt::set_send_buf(stream.as_raw_fd(), bytes);
        }
        let token = self
            .args
            .state
            .next_conn_token
            .fetch_add(1, Ordering::Relaxed);
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream));
        self.args
            .state
            .metrics
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
        // The socket may already hold a full request (accept and data can
        // race); pump once rather than waiting for the next edge.
        self.conn_ready(token, true, false, false);
    }

    fn drain_injected(&mut self) {
        let injected: Vec<TcpStream> = std::mem::take(&mut *plock(&self.args.shared.injected));
        for stream in injected {
            self.adopt(stream);
        }
    }

    // -- connection events --------------------------------------------

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, fatal: bool) {
        if fatal {
            // EPOLLERR, or EPOLLHUP proper (fully closed/reset — which
            // the kernel keeps reporting regardless of interest, so the
            // fd must go now). Half-close is NOT in this bucket: it
            // arrives as readable + EOF and drains normally.
            self.close(token);
            return;
        }
        if writable {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.on_writable() {
                Ok(true) => {
                    if conn.close_after_write {
                        self.close(token);
                        return;
                    }
                    self.pump_buffered(token);
                }
                Ok(false) => {
                    self.args
                        .state
                        .metrics
                        .write_stalls_total
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        if readable {
            self.pump_read(token);
        }
        self.sync_interest(token);
    }

    /// Whether connections may still grow their input buffers: the
    /// aggregate userspace buffering budget has headroom.
    fn allow_grow(&self) -> bool {
        (self
            .args
            .state
            .metrics
            .buffered_bytes
            .load(Ordering::Relaxed) as usize)
            < self.args.cfg.max_buffered_bytes
    }

    /// Reconciles one connection's buffered bytes with the global gauge
    /// (and lets over-grown buffers shrink back).
    fn sync_buffered(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.maybe_shrink();
        let now = conn.buffered();
        let before = conn.accounted;
        conn.accounted = now;
        let gauge = &self.args.state.metrics.buffered_bytes;
        if now > before {
            gauge.fetch_add((now - before) as u64, Ordering::Relaxed);
        } else if before > now {
            gauge.fetch_sub((before - now) as u64, Ordering::Relaxed);
        }
    }

    /// Reads and routes until the connection has nothing actionable.
    fn pump_read(&mut self, token: u64) {
        loop {
            let allow_grow = self.allow_grow();
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let outcome = conn.on_readable(self.args.cfg.max_body_bytes, allow_grow);
            self.sync_buffered(token);
            match self.apply_outcome(token, outcome) {
                Pump::Continue => continue,
                Pump::Done => return,
            }
        }
    }

    /// After a response drained: serve pipelined requests already
    /// buffered.
    fn pump_buffered(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Reading || conn.wants_write() {
                return;
            }
            let outcome = conn.next_buffered_request(self.args.cfg.max_body_bytes);
            self.sync_buffered(token);
            match self.apply_outcome(token, outcome) {
                Pump::Continue => continue,
                Pump::Done => return,
            }
        }
    }

    fn apply_outcome(&mut self, token: u64, outcome: ReadOutcome) -> Pump {
        let m = &self.args.state.metrics;
        match outcome {
            ReadOutcome::Request(mut req) => {
                m.requests_total.fetch_add(1, Ordering::Relaxed);
                let Some(conn) = self.conns.get_mut(&token) else {
                    return Pump::Done;
                };
                conn.serial += 1;
                conn.keep_alive = req.keep_alive;
                let serial = conn.serial;
                conn.state = ConnState::Awaiting { serial };
                // Resolve the request's trace id (validated inbound
                // `X-Request-Id`, or freshly minted) and stamp the
                // observation facts consumed when the response delivers.
                let trace = lazymc_obs::trace::adopt_or_generate(req.trace.as_deref());
                conn.req_obs = Some(ReqObs {
                    trace: trace.clone(),
                    route: crate::obs::route_class(&req.path),
                    method: req.method.clone(),
                    path: req.route_path().to_string(),
                    received: Instant::now(),
                });
                req.trace = Some(trace);
                let responder = Responder::new(self.args.shared.clone(), token, serial);
                match dispatch(
                    &self.args.state,
                    &self.args.cfg,
                    req,
                    responder,
                    &self.args.work_tx,
                ) {
                    Dispatched::Ready(response) => {
                        self.deliver(token, serial, response);
                        Pump::Continue
                    }
                    Dispatched::Pending => Pump::Done,
                }
            }
            ReadOutcome::BadRequest(status) => {
                m.bad_requests_total.fetch_add(1, Ordering::Relaxed);
                let message = match status {
                    501 => "Transfer-Encoding is not supported; send a Content-Length body",
                    413 => "request body too large",
                    _ => "malformed request",
                };
                let Some(conn) = self.conns.get_mut(&token) else {
                    return Pump::Done;
                };
                conn.close_after_write = true;
                conn.queue_response(&Response::error(status, message), false);
                self.flush(token);
                Pump::Done
            }
            ReadOutcome::Eof => {
                // Finish writing whatever is queued, then close.
                let Some(conn) = self.conns.get_mut(&token) else {
                    return Pump::Done;
                };
                if conn.wants_write() || matches!(conn.state, ConnState::Awaiting { .. }) {
                    conn.close_after_write = true;
                } else {
                    self.close(token);
                }
                Pump::Done
            }
            ReadOutcome::Stalled => {
                m.read_stalls_total.fetch_add(1, Ordering::Relaxed);
                Pump::Done
            }
            ReadOutcome::Progress => Pump::Done,
        }
    }

    /// Queues a response on a connection and flushes what the socket
    /// accepts now.
    fn deliver(&mut self, token: u64, serial: u64, mut response: Response) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // A stale completion (connection already moved on) is dropped —
        // strictly: only the request currently awaited may be answered,
        // or a late/spurious completion could corrupt the keep-alive
        // response stream.
        if !conn.is_awaiting(serial) {
            return;
        }
        // Settle the request's observation debt: latency histogram,
        // structured log line, and the `X-Request-Id` echo.
        if let Some(ro) = conn.req_obs.take() {
            response.request_id = Some(ro.trace.clone());
            self.args.state.obs.observe_http(
                ro.route,
                &ro.trace,
                &ro.method,
                &ro.path,
                response.status,
                ro.received.elapsed(),
            );
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if response.status >= 400 {
            self.args
                .state
                .metrics
                .bad_requests_total
                .fetch_add(1, Ordering::Relaxed);
        }
        // Draining: every response announces `Connection: close` and the
        // connection closes once it drains — clients are steered to
        // another instance while this one finishes.
        let keep_alive = conn.keep_alive && !self.args.state.is_draining();
        conn.queue_response(&response, keep_alive);
        self.flush(token);
    }

    /// Drives a write burst; closes on fatal errors or completed
    /// close-after-write. Deliberately does NOT serve pipelined
    /// follow-ups (callers do, iteratively — keeps recursion depth flat
    /// however deep a client pipelines).
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.on_writable() {
            Ok(true) => {
                if conn.close_after_write {
                    self.close(token);
                }
            }
            Ok(false) => {
                self.args
                    .state
                    .metrics
                    .write_stalls_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => self.close(token),
        }
        self.sync_interest(token);
    }

    fn drain_completions(&mut self) {
        let completions: Vec<Completion> =
            std::mem::take(&mut *plock(&self.args.shared.completions));
        for c in completions {
            let Some(conn) = self.conns.get(&c.conn) else {
                continue;
            };
            if !conn.is_awaiting(c.serial) {
                continue;
            }
            self.deliver(c.conn, c.serial, c.response);
            // The response may have fully drained already; serve any
            // pipelined requests that were buffered behind it.
            self.pump_buffered(c.conn);
            self.sync_interest(c.conn);
        }
    }

    // -- housekeeping -------------------------------------------------

    fn sync_interest(&mut self, token: u64) {
        let allow_grow = self.allow_grow();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = (conn.wants_read(allow_grow), conn.wants_write());
        if want == conn.registered {
            return;
        }
        let interest = Interest {
            readable: want.0,
            writable: want.1,
            edge: false,
        };
        if self
            .poller
            .modify(conn.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            conn.registered = want;
        }
    }

    fn sweep_timeouts(&mut self) {
        let timeout = self.args.cfg.read_timeout;
        let draining = self.args.state.is_draining();
        let now = Instant::now();
        let stale: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let idle_for = now.duration_since(c.last_activity);
                // During a drain, idle keep-alive connections get a short
                // grace instead of the full read timeout — a drain must
                // not be held open by parked clients. Mid-request
                // connections keep the normal clock.
                idle_for > timeout || (draining && !c.mid_request() && idle_for > DRAIN_IDLE_GRACE)
            })
            // Requests awaiting a solver response are exempt: their clock
            // is the job budget, not the socket timeout.
            .filter(|(_, c)| !matches!(c.state, ConnState::Awaiting { .. }))
            .map(|(&t, c)| (t, c.mid_request()))
            .collect();
        for (token, mid_request) in stale {
            if mid_request {
                // Slow-loris: a request started arriving and then stalled.
                let m = &self.args.state.metrics;
                m.request_timeouts_total.fetch_add(1, Ordering::Relaxed);
                m.bad_requests_total.fetch_add(1, Ordering::Relaxed);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.close_after_write = true;
                    conn.queue_response(
                        &Response::error(408, "request incomplete after read timeout"),
                        false,
                    );
                }
                self.flush(token);
            } else {
                // Idle keep-alive connection: close silently, like the old
                // per-socket read timeout did.
                self.close(token);
            }
        }
        // Re-arm read interest on connections parked by the buffering
        // budget: freeing bytes generates no epoll event of its own, so
        // the periodic sweep is what lets them resume.
        if self.allow_grow() {
            let parked: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.registered.0)
                .map(|(&t, _)| t)
                .collect();
            for token in parked {
                self.sync_interest(token);
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if conn.accounted > 0 {
                self.args
                    .state
                    .metrics
                    .buffered_bytes
                    .fetch_sub(conn.accounted as u64, Ordering::Relaxed);
            }
            self.args
                .state
                .metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

enum Pump {
    Continue,
    Done,
}
