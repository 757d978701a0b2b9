//! Per-connection state machine: incremental HTTP/1.1 request parsing,
//! buffered partial writes, keep-alive, and progress timeouts.
//!
//! A `Conn` owns one nonblocking socket registered with the reactor's
//! poller. It never blocks: readable events append bytes to an input
//! buffer that the incremental `Parser` consumes; complete requests are
//! handed to the router; responses are queued into an output buffer that
//! drains on writable events. The framing-hardening rules of the old
//! blocking parser are preserved verbatim — duplicate/conflicting
//! `Content-Length` → 400, any `Transfer-Encoding` → 501, header line and
//! count caps — they are enforced *incrementally*, so an attacker cannot
//! buffer their way past them with a slow drip feed.
//!
//! Timeouts are progress-based: a connection with a partially received
//! request that stalls past the read timeout gets `408 Request Timeout`
//! (slow-loris defense); an *idle* keep-alive connection is closed
//! silently, exactly like the old per-socket read timeout did.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Longest accepted request line or header line (terminator included).
pub(crate) const MAX_HEADER_LINE: usize = 16 * 1024;
/// Most header lines accepted per request.
pub(crate) const MAX_HEADERS: usize = 100;
/// Most bytes of *pipelined* follow-up input buffered while a request is
/// still being answered; beyond it the connection stops reading until the
/// response drains (bounded memory per connection).
const MAX_PIPELINED_BUFFER: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path including any query string (`/solve?async=1`).
    pub path: String,
    pub body: String,
    pub keep_alive: bool,
    /// Trace id for this request. The parser captures a raw inbound
    /// `X-Request-Id` here; the reactor replaces it with the *resolved*
    /// id (validated inbound value, or a freshly minted one) before the
    /// request is routed, so every handler downstream sees the id the
    /// response will echo.
    pub trace: Option<String>,
}

impl Request {
    /// The path without its query string.
    pub fn route_path(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// Whether the query string carries `key=1` or `key=true` (or a bare
    /// `key`).
    pub fn query_flag(&self, key: &str) -> bool {
        let Some(query) = self.path.split_once('?').map(|(_, q)| q) else {
            return false;
        };
        query.split('&').any(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            k == key && matches!(v, "" | "1" | "true")
        })
    }
}

/// An HTTP response ready for serialization.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    pub retry_after: Option<u64>,
    /// Trace id echoed as an `X-Request-Id` response header (set by the
    /// reactor at delivery; handlers never fill it themselves).
    pub request_id: Option<String>,
}

impl Response {
    pub fn json(status: u16, value: crate::protocol::Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: value.encode(),
            retry_after: None,
            request_id: None,
        }
    }

    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(
            status,
            crate::protocol::Json::obj(vec![("error", crate::protocol::Json::str(message.into()))]),
        )
    }

    pub fn text(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            body,
            retry_after: None,
            request_id: None,
        }
    }

    /// Serializes as a one-shot close-delimited response (used for the
    /// pre-registration 503 at the connection limit).
    pub(crate) fn serialize_into(&self, out: &mut Vec<u8>) {
        self.serialize(false, out);
    }

    /// Serializes status line + headers + body into `out`.
    fn serialize(&self, keep_alive: bool, out: &mut Vec<u8>) {
        use std::fmt::Write as _;
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(head, "Retry-After: {secs}\r\n");
        }
        if let Some(id) = &self.request_id {
            let _ = write!(head, "X-Request-Id: {id}\r\n");
        }
        head.push_str("\r\n");
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(self.body.as_bytes());
    }
}

pub(crate) fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Incremental HTTP/1.1 request parser. Feed it the connection's input
/// buffer; it consumes complete lines (and, later, body bytes) in place
/// and reports one of three outcomes per step.
#[derive(Default)]
pub(crate) struct Parser {
    state: ParseState,
}

#[derive(Default)]
enum ParseState {
    /// Waiting for (more of) the request line.
    #[default]
    Start,
    /// Request line parsed; reading header lines.
    Headers {
        method: String,
        path: String,
        keep_alive: bool,
        content_length: Option<usize>,
        n_headers: usize,
        trace: Option<String>,
    },
    /// Head complete; accumulating `content_length` body bytes.
    Body {
        method: String,
        path: String,
        keep_alive: bool,
        content_length: usize,
        trace: Option<String>,
    },
}

pub(crate) enum ParseStep {
    /// No complete request yet; wait for more bytes.
    NeedMore,
    /// One complete request, consumed from the buffer.
    Complete(Request),
    /// Protocol error: answer with this status and close.
    Error(u16),
}

impl Parser {
    /// Whether a request is partially received (for 408-vs-silent-close
    /// timeout decisions).
    pub(crate) fn mid_request(&self, buffered: usize) -> bool {
        !matches!(self.state, ParseState::Start) || buffered > 0
    }

    /// Advances over `buf`, consuming what it parses. Call again after
    /// appending more bytes (or after `Complete`, for pipelining).
    pub(crate) fn step(&mut self, buf: &mut VecDeque<u8>, max_body: usize) -> ParseStep {
        loop {
            match std::mem::take(&mut self.state) {
                ParseState::Start => {
                    let line = match take_line(buf, MAX_HEADER_LINE) {
                        LineStep::Line(l) => l,
                        LineStep::NeedMore => return ParseStep::NeedMore,
                        LineStep::TooLong => return ParseStep::Error(400),
                    };
                    if line.trim().is_empty() {
                        // Tolerate stray blank lines between requests
                        // (robustness, RFC 9112 §2.2).
                        continue;
                    }
                    let mut parts = line.split_whitespace();
                    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
                        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p, v),
                        _ => return ParseStep::Error(400),
                    };
                    self.state = ParseState::Headers {
                        method: method.to_string(),
                        path: path.to_string(),
                        keep_alive: version == "HTTP/1.1",
                        content_length: None,
                        n_headers: 0,
                        trace: None,
                    };
                }
                ParseState::Headers {
                    method,
                    path,
                    mut keep_alive,
                    mut content_length,
                    mut n_headers,
                    mut trace,
                } => {
                    let line = match take_line(buf, MAX_HEADER_LINE) {
                        LineStep::Line(l) => l,
                        LineStep::NeedMore => {
                            self.state = ParseState::Headers {
                                method,
                                path,
                                keep_alive,
                                content_length,
                                n_headers,
                                trace,
                            };
                            return ParseStep::NeedMore;
                        }
                        LineStep::TooLong => return ParseStep::Error(400),
                    };
                    let header = line.trim_end();
                    if header.is_empty() {
                        // End of head.
                        let content_length = content_length.unwrap_or(0);
                        if content_length > max_body {
                            return ParseStep::Error(413);
                        }
                        self.state = ParseState::Body {
                            method,
                            path,
                            keep_alive,
                            content_length,
                            trace,
                        };
                        continue;
                    }
                    n_headers += 1;
                    if n_headers > MAX_HEADERS {
                        return ParseStep::Error(400);
                    }
                    if let Some((name, value)) = header.split_once(':') {
                        let value = value.trim();
                        match name.to_ascii_lowercase().as_str() {
                            "content-length" => {
                                // Request-smuggling hygiene: two
                                // Content-Length headers (even agreeing
                                // ones) mean another party in the chain may
                                // frame this request differently — reject
                                // rather than pick one. A comma-joined list
                                // inside one header fails the integer parse
                                // for the same reason.
                                if content_length.is_some() {
                                    return ParseStep::Error(400);
                                }
                                match value.parse() {
                                    Ok(n) => content_length = Some(n),
                                    Err(_) => return ParseStep::Error(400),
                                }
                            }
                            "transfer-encoding" => {
                                // We never decode chunked bodies. 501 (and
                                // closing) beats misreading the chunked
                                // stream as a fixed-length body.
                                return ParseStep::Error(501);
                            }
                            "connection" => {
                                keep_alive = !value.eq_ignore_ascii_case("close");
                            }
                            "x-request-id" => {
                                // Raw capture; validation (length, safe
                                // charset) happens when the reactor
                                // resolves the request's trace id.
                                trace = Some(value.to_string());
                            }
                            _ => {}
                        }
                    }
                    self.state = ParseState::Headers {
                        method,
                        path,
                        keep_alive,
                        content_length,
                        n_headers,
                        trace,
                    };
                }
                ParseState::Body {
                    method,
                    path,
                    keep_alive,
                    content_length,
                    trace,
                } => {
                    if buf.len() < content_length {
                        self.state = ParseState::Body {
                            method,
                            path,
                            keep_alive,
                            content_length,
                            trace,
                        };
                        return ParseStep::NeedMore;
                    }
                    let bytes: Vec<u8> = buf.drain(..content_length).collect();
                    let body = match String::from_utf8(bytes) {
                        Ok(b) => b,
                        Err(_) => return ParseStep::Error(400),
                    };
                    return ParseStep::Complete(Request {
                        method,
                        path,
                        body,
                        keep_alive,
                        trace,
                    });
                }
            }
        }
    }
}

enum LineStep {
    Line(String),
    NeedMore,
    TooLong,
}

/// Takes one `\n`-terminated line out of `buf` (at most `cap` bytes,
/// terminator included — same cap the blocking parser enforced per
/// `read_line`).
fn take_line(buf: &mut VecDeque<u8>, cap: usize) -> LineStep {
    match buf.iter().position(|&b| b == b'\n') {
        Some(idx) if idx + 1 > cap => LineStep::TooLong,
        Some(idx) => {
            let line: Vec<u8> = buf.drain(..=idx).collect();
            match String::from_utf8(line) {
                Ok(s) => LineStep::Line(s),
                Err(_) => LineStep::TooLong, // non-UTF-8 head → 400 upstream
            }
        }
        None if buf.len() > cap => LineStep::TooLong,
        None => LineStep::NeedMore,
    }
}

/// What the connection is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Reading (or waiting for) request bytes.
    Reading,
    /// A request was dispatched; its response will arrive via the
    /// completion queue. The stored serial guards against stale
    /// completions racing a connection reset.
    Awaiting { serial: u64 },
    /// Flushing the output buffer.
    Writing,
    /// Fatal; reactor must drop the connection.
    Closed,
}

/// Result of pumping a connection's readable side.
pub(crate) enum ReadOutcome {
    /// Nothing actionable (all buffered, no complete request).
    Progress,
    /// A complete request is ready for routing.
    Request(Request),
    /// Parse error: `queue_error` was NOT yet called — the reactor
    /// decides (it counts the error first).
    BadRequest(u16),
    /// Peer closed and nothing remains to do.
    Eof,
    /// The read stalled mid-request (`WouldBlock` with a partial request
    /// buffered) — reported so the reactor can count it.
    Stalled,
}

/// Per-request observation facts: stamped by the reactor when a parsed
/// request is dispatched, consumed when its response is delivered (HTTP
/// latency histogram + request log line + `X-Request-Id` echo).
pub(crate) struct ReqObs {
    pub trace: String,
    /// Index into [`crate::obs::ROUTES`].
    pub route: usize,
    pub method: String,
    pub path: String,
    pub received: Instant,
}

pub(crate) struct Conn {
    pub stream: TcpStream,
    pub state: ConnState,
    in_buf: VecDeque<u8>,
    parser: Parser,
    out: Vec<u8>,
    out_pos: usize,
    /// Keep-alive decision for the response currently queued/being built.
    pub keep_alive: bool,
    /// Close once the output buffer drains.
    pub close_after_write: bool,
    pub last_activity: Instant,
    /// Serial of the most recently dispatched request.
    pub serial: u64,
    /// The (read, write) interest currently registered with the poller,
    /// so the reactor only issues `epoll_ctl` on changes.
    pub registered: (bool, bool),
    /// Buffered bytes this connection has reported into the reactor's
    /// global accounting (see `Reactor::sync_buffered`).
    pub accounted: usize,
    /// Peer sent EOF; finish writing, then close.
    saw_eof: bool,
    /// Observation facts of the request currently being answered.
    pub(crate) req_obs: Option<ReqObs>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: ConnState::Reading,
            in_buf: VecDeque::new(),
            parser: Parser::default(),
            out: Vec::new(),
            out_pos: 0,
            keep_alive: true,
            close_after_write: false,
            last_activity: Instant::now(),
            serial: 0,
            registered: (true, false),
            accounted: 0,
            saw_eof: false,
            req_obs: None,
        }
    }

    /// Whether unsent response bytes are queued.
    pub(crate) fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Whether the reactor should keep read interest. Backpressure
    /// applies at two levels: per connection, a response in flight caps
    /// pipelined read-ahead; globally, when the daemon's aggregate
    /// buffered bytes exceed their budget (`allow_grow == false`),
    /// connections that already hold a buffer's worth stop reading until
    /// the budget frees — so N slow large-body uploads are bounded by
    /// the budget, not by `N × max_body_bytes`.
    pub(crate) fn wants_read(&self, allow_grow: bool) -> bool {
        if self.saw_eof {
            return false;
        }
        if !allow_grow && self.in_buf.len() >= MAX_PIPELINED_BUFFER {
            return false;
        }
        match self.state {
            ConnState::Reading => true,
            ConnState::Awaiting { .. } | ConnState::Writing => {
                self.in_buf.len() < MAX_PIPELINED_BUFFER
            }
            ConnState::Closed => false,
        }
    }

    /// Bytes currently buffered on the read side (for the reactor's
    /// global accounting).
    pub(crate) fn buffered(&self) -> usize {
        self.in_buf.len()
    }

    /// Returns an over-grown input buffer's memory after a large body
    /// drained (a keep-alive connection must not pin its high-water mark
    /// for life).
    pub(crate) fn maybe_shrink(&mut self) {
        if self.in_buf.capacity() > 2 * MAX_PIPELINED_BUFFER
            && self.in_buf.len() < MAX_PIPELINED_BUFFER
        {
            self.in_buf.shrink_to(MAX_PIPELINED_BUFFER);
        }
    }

    /// Whether a request is partially received (408 on timeout) as
    /// opposed to the connection sitting idle between requests (silent
    /// close on timeout).
    pub(crate) fn mid_request(&self) -> bool {
        matches!(self.state, ConnState::Reading) && self.parser.mid_request(self.in_buf.len())
    }

    pub(crate) fn is_awaiting(&self, serial: u64) -> bool {
        self.state == ConnState::Awaiting { serial }
    }

    /// Pumps the readable side: drains the socket into the input buffer,
    /// then tries to complete a request. At most one request is returned
    /// per call (the reactor routes it before pumping again).
    pub(crate) fn on_readable(&mut self, max_body: usize, allow_grow: bool) -> ReadOutcome {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if !self.wants_read(allow_grow) {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.last_activity = Instant::now();
                    self.in_buf.extend(&chunk[..n]);
                    // Opportunistically stop slurping once a full request
                    // is plausibly buffered; level-triggered epoll will
                    // re-report any remainder.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state = ConnState::Closed;
                    return ReadOutcome::Eof;
                }
            }
        }
        // Only parse when ready for a new request.
        if self.state == ConnState::Reading {
            match self.parser.step(&mut self.in_buf, max_body) {
                ParseStep::Complete(req) => return ReadOutcome::Request(req),
                ParseStep::Error(status) => return ReadOutcome::BadRequest(status),
                ParseStep::NeedMore => {}
            }
        }
        if self.saw_eof && self.state == ConnState::Reading {
            // EOF: between requests it is a clean goodbye; mid-request the
            // request can never complete. Either way, nothing more to read.
            return ReadOutcome::Eof;
        }
        if self.state == ConnState::Reading && self.mid_request() {
            // A request is partially received and this readable event did
            // not complete it — a partial receive ("read stall").
            return ReadOutcome::Stalled;
        }
        ReadOutcome::Progress
    }

    /// Queues `response` and switches to writing. `keep_alive` false (or
    /// `close_after_write`) closes once it drains.
    pub(crate) fn queue_response(&mut self, response: &Response, keep_alive: bool) {
        response.serialize(keep_alive && !self.close_after_write, &mut self.out);
        if !keep_alive {
            self.close_after_write = true;
        }
        self.state = ConnState::Writing;
    }

    /// Flushes as much output as the socket accepts. Returns `Ok(true)`
    /// when the buffer fully drained, `Ok(false)` when it stalled
    /// (`WouldBlock`, write interest needed).
    pub(crate) fn on_writable(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        if self.state == ConnState::Writing {
            self.state = ConnState::Reading;
        }
        Ok(true)
    }

    /// Tries to parse the next pipelined request out of already-buffered
    /// bytes (call after a response fully drained).
    pub(crate) fn next_buffered_request(&mut self, max_body: usize) -> ReadOutcome {
        debug_assert_eq!(self.state, ConnState::Reading);
        match self.parser.step(&mut self.in_buf, max_body) {
            ParseStep::Complete(req) => ReadOutcome::Request(req),
            ParseStep::Error(status) => ReadOutcome::BadRequest(status),
            ParseStep::NeedMore => {
                if self.saw_eof {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Progress
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn feed(parser: &mut Parser, buf: &mut VecDeque<u8>, bytes: &[u8]) -> ParseStep {
        buf.extend(bytes);
        parser.step(buf, 1 << 20)
    }

    #[test]
    fn one_shot_request_parses() {
        let mut p = Parser::default();
        let mut buf = VecDeque::new();
        let step = feed(
            &mut p,
            &mut buf,
            b"POST /solve?async=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
        );
        let ParseStep::Complete(req) = step else {
            panic!("expected complete request");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.route_path(), "/solve");
        assert!(req.query_flag("async"));
        assert!(!req.query_flag("sync"));
        assert_eq!(req.body, "{}");
        assert!(req.keep_alive);
        assert!(buf.is_empty());
    }

    #[test]
    fn byte_at_a_time_parses_identically() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        let mut p = Parser::default();
        let mut buf = VecDeque::new();
        for (i, b) in raw.iter().enumerate() {
            match feed(&mut p, &mut buf, &[*b]) {
                ParseStep::NeedMore => assert!(i + 1 < raw.len(), "must complete at final byte"),
                ParseStep::Complete(req) => {
                    assert_eq!(i + 1, raw.len());
                    assert_eq!(req.method, "GET");
                    assert_eq!(req.path, "/healthz");
                    assert!(!req.keep_alive, "Connection: close honored");
                    return;
                }
                ParseStep::Error(s) => panic!("unexpected error {s}"),
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time() {
        let mut p = Parser::default();
        let mut buf = VecDeque::new();
        let step = feed(
            &mut p,
            &mut buf,
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
        );
        let ParseStep::Complete(a) = step else {
            panic!("first request");
        };
        assert_eq!(a.path, "/a");
        let ParseStep::Complete(b) = p.step(&mut buf, 1 << 20) else {
            panic!("second request");
        };
        assert_eq!(b.path, "/b");
        assert!(matches!(p.step(&mut buf, 1 << 20), ParseStep::NeedMore));
    }

    #[test]
    fn framing_hardening_is_preserved() {
        // Duplicate Content-Length (agreeing or not) → 400.
        for head in [
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        ] {
            let mut p = Parser::default();
            let mut buf = VecDeque::new();
            assert!(
                matches!(
                    feed(&mut p, &mut buf, head.as_bytes()),
                    ParseStep::Error(400)
                ),
                "{head:?} must be a 400"
            );
        }
        // Any Transfer-Encoding → 501, even combined with Content-Length.
        for head in [
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let mut p = Parser::default();
            let mut buf = VecDeque::new();
            assert!(
                matches!(
                    feed(&mut p, &mut buf, head.as_bytes()),
                    ParseStep::Error(501)
                ),
                "{head:?} must be a 501"
            );
        }
    }

    #[test]
    fn header_caps_enforced_incrementally() {
        // An endless no-newline drip must die at the line cap, not grow.
        let mut p = Parser::default();
        let mut buf = VecDeque::new();
        let mut died = false;
        for _ in 0..MAX_HEADER_LINE + 10 {
            match feed(&mut p, &mut buf, b"A") {
                ParseStep::NeedMore => {}
                ParseStep::Error(400) => {
                    died = true;
                    break;
                }
                other => panic!(
                    "unexpected step {:?}",
                    match other {
                        ParseStep::Complete(_) => "complete",
                        _ => "error",
                    }
                ),
            }
        }
        assert!(died, "oversized request line must 400");
        assert!(
            buf.len() <= MAX_HEADER_LINE + 10,
            "buffer must not grow unboundedly"
        );

        // Too many header lines → 400.
        let mut p = Parser::default();
        let mut buf = VecDeque::new();
        buf.extend(b"GET / HTTP/1.1\r\n".as_slice());
        let mut rejected = false;
        for i in 0..MAX_HEADERS + 2 {
            match feed(&mut p, &mut buf, format!("X-H-{i}: v\r\n").as_bytes()) {
                ParseStep::NeedMore => {}
                ParseStep::Error(400) => {
                    rejected = true;
                    break;
                }
                _ => panic!("unexpected completion"),
            }
        }
        assert!(rejected, "header count cap must hold");
    }

    #[test]
    fn oversized_body_is_413_before_buffering() {
        let mut p = Parser::default();
        let mut buf = VecDeque::new();
        buf.extend(b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n".as_slice());
        assert!(matches!(p.step(&mut buf, 1000), ParseStep::Error(413)));
    }

    #[test]
    fn bare_lf_line_endings_accepted() {
        let mut p = Parser::default();
        let mut buf = VecDeque::new();
        let step = feed(&mut p, &mut buf, b"GET /x HTTP/1.1\nHost: t\n\n");
        assert!(matches!(step, ParseStep::Complete(_)));
    }
}
