//! A minimal, defensive HTTP/1.1 implementation on `std::net`.
//!
//! The server speaks exactly the subset of HTTP the wire contract
//! (`docs/API.md`) needs: one request line, headers, an optional
//! `Content-Length` body, and keep-alive connection reuse. This is the
//! workspace's one message reader: the [`Client`](crate::Client) and the
//! fault lab's proxy read through [`read_message`] under
//! [`Limits::RESPONSE`], so a hostile server is bounded like a client.
//!
//! # The head/body limit model
//!
//! Every byte a peer can make the server read is bounded *before* it is
//! read, by two independent caps in [`Limits`]:
//!
//! * **Head budget** ([`Limits::max_head_bytes`], default 16 KiB) — one
//!   shared byte budget covering the request line *plus all header
//!   lines*. Each line read subtracts from it, so a peer cannot dodge the
//!   cap by splitting one huge header into many small ones, nor by
//!   sending an endless header stream: the moment the cumulative head
//!   exceeds the budget the request fails with [`HttpError::HeadTooLarge`]
//!   (`431`) without buffering the rest.
//! * **Body cap** ([`Limits::max_body_bytes`], default 1 MiB,
//!   `--max-body` on the binary) — checked against the *declared*
//!   `Content-Length` before a single body byte is read, so an oversized
//!   upload is rejected with [`HttpError::PayloadTooLarge`] (`413`) at
//!   the cost of parsing its head only. Bodies are never chunked and
//!   never streamed: a request either fits the cap or is refused.
//!
//! Time is bounded separately by the socket read timeout
//! (`ServerConfig::read_timeout`): a peer that stalls mid-head or
//! mid-body trips [`HttpError::Timeout`] (`408`) instead of pinning a
//! worker. Together the three bounds mean a connection can cost at most
//! `max_head_bytes + max_body_bytes` memory and one read-timeout of
//! worker time per request, no matter how hostile the peer — and every
//! way a peer can be slow, truncated or malicious maps to a *specific*
//! failure ([`HttpError`]) that the service layer turns into a documented
//! status code instead of a panic or a hung thread.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Hard bounds on what a single request may occupy.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Cap on the request line plus all header lines, in bytes.
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length`, in bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

impl Limits {
    /// The bounds the client and the fault proxy read under: the server's
    /// head budget, and a body cap far above any frontier the API sends.
    pub const RESPONSE: Limits = Limits {
        max_head_bytes: 16 * 1024,
        max_body_bytes: 64 * 1024 * 1024,
    };
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The path, without any `?query` suffix.
    pub path: String,
    /// `(lower-case name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadRequest("body is not valid UTF-8".into()))
    }
}

/// A message head as [`read_message`] reads it: the start line and the
/// headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// The request line or status line.
    pub start: String,
    /// `(name, value)` pairs in wire order; [`read_message`] lower-cases
    /// the names.
    pub headers: Vec<(String, String)>,
}

impl Head {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The status code of a response's status line (`HTTP/1.1 200 OK`).
    pub fn status(&self) -> Result<u16, HttpError> {
        self.start
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| malformed("status line", &self.start))
    }
}

/// A `BadRequest` quoting the malformed `text`.
fn malformed(what: &str, text: &str) -> HttpError {
    HttpError::BadRequest(format!("malformed {what} `{text}`"))
}

/// One `(name, value)` header.
type Header = (String, String);

fn find_header<'a>(headers: &'a [Header], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Why a message could not be read. Each variant has one documented
/// status code ([`HttpError::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before sending a start line —
    /// the clean end of a keep-alive exchange, not an error to report.
    Closed,
    /// Malformed start line, header or `Content-Length` → `400`.
    BadRequest(String),
    /// The peer closed, or the socket failed, partway through a message
    /// → `400`.
    Truncated(String),
    /// The declared `Content-Length` exceeds [`Limits::max_body_bytes`]
    /// → `413`.
    PayloadTooLarge {
        /// What the client declared.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
    /// Head grew past [`Limits::max_head_bytes`] → `431`.
    HeadTooLarge,
    /// The socket read timed out mid-request → `408`.
    Timeout,
}

impl HttpError {
    /// The status code the error is reported as.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed => 400, // never sent; the connection just ends
            HttpError::BadRequest(_) | HttpError::Truncated(_) => 400,
            HttpError::PayloadTooLarge { .. } => 413,
            HttpError::HeadTooLarge => 431,
            HttpError::Timeout => 408,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::BadRequest(m) | HttpError::Truncated(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(
                    f,
                    "payload of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::Timeout => write!(f, "timed out reading the request"),
        }
    }
}

impl std::error::Error for HttpError {}

fn io_error(e: &io::Error, what: &str) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        io::ErrorKind::UnexpectedEof => HttpError::Truncated(format!("truncated {what}")),
        _ => HttpError::Truncated(format!("reading {what}: {e}")),
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, counting against the
/// shared head budget. EOF before any byte yields `Ok(None)`.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(&e, "head")),
        };
        if chunk.is_empty() {
            // EOF: clean close only when nothing of the line has arrived
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Truncated("truncated head".into()))
            };
        }
        let take = chunk.iter().position(|&b| b == b'\n');
        let upto = take.map_or(chunk.len(), |i| i + 1);
        if upto > *budget {
            return Err(HttpError::HeadTooLarge);
        }
        *budget -= upto;
        line.extend_from_slice(&chunk[..upto]);
        reader.consume(upto);
        if take.is_some() {
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line.pop();
            }
            let text = String::from_utf8(line)
                .map_err(|_| HttpError::BadRequest("head is not valid UTF-8".into()))?;
            return Ok(Some(text));
        }
    }
}

/// Reads one message. `start` checks the start line before any header
/// is read; the head then counts against [`Limits::max_head_bytes`], and
/// a `Content-Length` over [`Limits::max_body_bytes`] is refused before
/// any body buffer is allocated.
fn read_with<T>(
    reader: &mut impl BufRead,
    limits: &Limits,
    start: impl FnOnce(String) -> Result<T, HttpError>,
) -> Result<(T, Vec<Header>, Vec<u8>), HttpError> {
    let mut budget = limits.max_head_bytes;
    let line = match read_line(reader, &mut budget)? {
        None => return Err(HttpError::Closed),
        // tolerate one stray blank line before the start line (RFC 9112 §2.2)
        Some(line) if line.is_empty() => {
            read_line(reader, &mut budget)?.ok_or(HttpError::Closed)?
        }
        Some(line) => line,
    };
    let start = start(line)?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget)?
            .ok_or_else(|| HttpError::Truncated("truncated head".into()))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("header", &line))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let declared = match find_header(&headers, "content-length") {
        None => 0,
        Some(v) => v.parse().map_err(|_| malformed("Content-Length", v))?,
    };
    if declared > limits.max_body_bytes {
        return Err(HttpError::PayloadTooLarge {
            declared,
            limit: limits.max_body_bytes,
        });
    }
    let mut body = vec![0u8; declared];
    reader
        .read_exact(&mut body)
        .map_err(|e| io_error(&e, "body"))?;
    Ok((start, headers, body))
}

/// Reads one message, head and body, without interpreting its start
/// line.
pub fn read_message(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<(Head, Vec<u8>), HttpError> {
    let (start, headers, body) = read_with(reader, limits, Ok)?;
    Ok((Head { start, headers }, body))
}

/// Writes `head` then `body` onto the wire in one write. The fault proxy
/// forwards what [`read_message`] read with it, with `body` cut shorter
/// than its `Content-Length` to fake a truncation.
pub fn write_message(writer: &mut impl Write, head: &Head, body: &[u8]) -> io::Result<()> {
    let mut out = Vec::new();
    write!(out, "{}\r\n", head.start)?;
    for (name, value) in &head.headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    writer.write_all(&out)?;
    writer.flush()
}

/// Reads and validates one request. `Err(HttpError::Closed)` means the
/// peer hung up cleanly between requests.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    let ((method, path, http11), headers, body) = read_with(reader, limits, |line| {
        let mut parts = line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => return Err(malformed("request line", &line)),
            };
        if !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(malformed("method", method));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::BadRequest(format!(
                "unsupported protocol `{version}`"
            )));
        }
        let path = target.split('?').next().unwrap_or(target).to_string();
        if !path.starts_with('/') {
            return Err(malformed("target", target));
        }
        Ok((method.to_string(), path, version == "HTTP/1.1"))
    })?;
    let keep_alive = match find_header(&headers, "connection") {
        Some(v) => !v.eq_ignore_ascii_case("close"),
        None => http11,
    };
    Ok(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
    })
}

/// A response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text (JSON everywhere in this server, except `/metrics`).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the always-present `Content-Type`,
    /// `Content-Length` and `Connection` (e.g. `Retry-After` on `503`).
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// A plain-text response (the Prometheus exposition format of
    /// `GET /metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
        }
    }

    /// Adds one extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

/// Every status code this server emits, with its reason phrase.
pub const STATUS_REASONS: [(u16, &str); 11] = [
    (200, "OK"),
    (201, "Created"),
    (400, "Bad Request"),
    (404, "Not Found"),
    (405, "Method Not Allowed"),
    (408, "Request Timeout"),
    (409, "Conflict"),
    (413, "Payload Too Large"),
    (431, "Request Header Fields Too Large"),
    (500, "Internal Server Error"),
    (503, "Service Unavailable"),
];

/// The reason phrase for a status code this server emits ([`STATUS_REASONS`]),
/// `Unknown` for any other.
pub fn reason(status: u16) -> &'static str {
    STATUS_REASONS
        .iter()
        .find(|(code, _)| *code == status)
        .map_or("Unknown", |(_, phrase)| phrase)
}

/// Serializes `response` onto the wire. `keep_alive` controls the
/// `Connection` header the client sees.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = Head {
        start: format!("HTTP/1.1 {} {}", response.status, reason(response.status)),
        headers: vec![
            ("Content-Type".into(), response.content_type.into()),
            ("Content-Length".into(), response.body.len().to_string()),
            ("Connection".into(), connection.into()),
        ],
    };
    for (name, value) in &response.headers {
        head.headers.push((name.to_string(), value.clone()));
    }
    write_message(writer, &head, response.body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(text.as_bytes()), &Limits::default())
    }

    #[test]
    fn well_formed_request_parses() {
        let req = parse(
            "POST /sessions/3/select HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{\"rank\":0}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions/3/select");
        assert_eq!(req.body_str().unwrap(), "{\"rank\":0}");
        assert!(req.keep_alive);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
    }

    #[test]
    fn query_strings_are_stripped_from_the_path() {
        let req = parse("GET /healthz?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "get / HTTP/1.1\r\n\r\n",
            "GET nopath HTTP/1.1\r\n\r\n",
            "GET / SPDY/9\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: soon\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(HttpError::BadRequest(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn truncated_requests_are_bad_requests_not_hangs() {
        for cut in [
            // head cut mid-line
            "POST /sessions HT",
            // headers never terminated
            "GET / HTTP/1.1\r\nHost: x\r\n",
            // body shorter than its declared length
            "POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
        ] {
            let err = parse(cut).unwrap_err();
            assert!(matches!(err, HttpError::Truncated(_)), "{cut:?}: {err:?}");
            assert_eq!(err.status(), 400, "{cut:?}");
        }
    }

    #[test]
    fn clean_eof_before_a_request_is_closed_not_an_error() {
        assert_eq!(parse(""), Err(HttpError::Closed));
    }

    #[test]
    fn oversized_declarations_are_rejected_before_reading() {
        let limits = Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 64,
        };
        let text = "POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n";
        let err = read_request(&mut BufReader::new(text.as_bytes()), &limits).unwrap_err();
        assert_eq!(
            err,
            HttpError::PayloadTooLarge {
                declared: 65,
                limit: 64
            }
        );
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 64,
        };
        let text = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        let err = read_request(&mut BufReader::new(text.as_bytes()), &limits).unwrap_err();
        assert_eq!(err, HttpError::HeadTooLarge);
        assert_eq!(err.status(), 431);
    }

    /// A `BufRead` that hands back the input split at fixed cut points —
    /// the shape TCP segmentation gives a parser: `fill_buf` never spans
    /// a segment boundary, so any accidental "the whole line arrives in
    /// one chunk" assumption fails here.
    struct Segmented {
        parts: Vec<Vec<u8>>,
        index: usize,
        offset: usize,
    }

    impl Segmented {
        fn new(raw: &[u8], cuts: &[usize]) -> Segmented {
            let mut parts = Vec::new();
            let mut last = 0;
            for &cut in cuts {
                assert!(cut > last && cut < raw.len(), "bad cut {cut}");
                parts.push(raw[last..cut].to_vec());
                last = cut;
            }
            parts.push(raw[last..].to_vec());
            Segmented {
                parts,
                index: 0,
                offset: 0,
            }
        }
    }

    impl io::Read for Segmented {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Segmented {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            while self.index < self.parts.len() && self.offset >= self.parts[self.index].len() {
                self.index += 1;
                self.offset = 0;
            }
            match self.parts.get(self.index) {
                None => Ok(&[]),
                Some(part) => Ok(&part[self.offset..]),
            }
        }

        fn consume(&mut self, amt: usize) {
            self.offset += amt;
        }
    }

    /// Table-driven edge cases the fault lab surfaces at the transport:
    /// truncation mid-body, heads split across TCP segments, and bodies
    /// the peer declared but never sent. Requests go through
    /// [`read_request`] under the server's default limits; responses
    /// (rows starting `HTTP/`) through [`read_message`] and
    /// [`Head::status`] under [`Limits::RESPONSE`], as the client and the
    /// fault proxy read them. Every row must resolve to a *specific*
    /// outcome — parsed message or typed error — never a hang or a panic.
    #[test]
    fn segmentation_and_truncation_edge_cases() {
        enum Expect {
            /// Parses; assert `("METHOD /path" or status, body)`.
            Ok(&'static str, &'static str),
            /// Fails with `BadRequest` containing this substring.
            Bad(&'static str),
            /// Fails with `Truncated` containing this substring.
            Cut(&'static str),
            /// Fails with `PayloadTooLarge`.
            TooLarge,
            /// Fails with `HeadTooLarge`.
            HeadTooLarge,
        }
        use Expect::{Bad, Cut, Ok as Parsed, TooLarge};

        let padded_head = format!(
            "HTTP/1.1 200 OK\r\nX-Pad: {}\r\n\r\n",
            "x".repeat(Limits::RESPONSE.max_head_bytes)
        );
        let cases: &[(&str, &[u8], &[usize], Expect)] = &[
            (
                "header split across TCP segments",
                b"GET /healthz HTTP/1.1\r\nX-Trace: abc\r\n\r\n",
                // cuts land mid-request-line, mid-header-name, mid-value
                &[5, 25, 36],
                Parsed("GET /healthz", ""),
            ),
            (
                "CRLF itself split across segments",
                b"GET /healthz HTTP/1.1\r\n\r\n",
                // first \r\n split between \r and \n, and again on the blank line
                &[22, 24],
                Parsed("GET /healthz", ""),
            ),
            (
                "body split across segments",
                b"POST /sessions HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"rank\":0}",
                &[50, 55],
                Parsed("POST /sessions", "{\"rank\":0}"),
            ),
            (
                "one byte per segment end to end",
                b"POST /s HTTP/1.1\r\nContent-Length: 2\r\n\r\nok",
                &[
                    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                    23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
                ],
                Parsed("POST /s", "ok"),
            ),
            (
                "truncated chunk mid-body",
                b"POST /sessions HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"strategy\":\"be",
                &[47],
                Cut("body"),
            ),
            (
                "zero body bytes despite Content-Length > 0",
                b"POST /sessions HTTP/1.1\r\nContent-Length: 10\r\n\r\n",
                &[],
                Cut("body"),
            ),
            (
                "head cut mid-header line",
                b"GET /healthz HTTP/1.1\r\nX-Trunc: ab",
                &[23],
                Cut("head"),
            ),
            (
                "response split mid-status-line, mid-header and mid-body",
                b"HTTP/1.1 201 Created\r\nContent-Length: 13\r\n\r\n{\"session\":0}",
                &[7, 30, 50],
                Parsed("201", "{\"session\":0}"),
            ),
            (
                "response body truncated mid-read",
                b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{\"sessi",
                &[41],
                Cut("body"),
            ),
            (
                "response length no buffer can hold",
                b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n{}",
                &[],
                TooLarge,
            ),
            (
                "response length beyond any integer",
                b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n{}",
                &[],
                Bad("Content-Length"),
            ),
            (
                "response status line without a code",
                b"HTTP/1.1 OK\r\n\r\n",
                &[],
                Bad("status line"),
            ),
            (
                "response head over the cap",
                padded_head.as_bytes(),
                &[9000],
                Expect::HeadTooLarge,
            ),
        ];

        for (name, raw, cuts, expect) in cases {
            let mut reader = Segmented::new(raw, cuts);
            let result = if raw.starts_with(b"HTTP/") {
                read_message(&mut reader, &Limits::RESPONSE)
                    .and_then(|(head, body)| Ok((head.status()?.to_string(), body)))
            } else {
                read_request(&mut reader, &Limits::default())
                    .map(|req| (format!("{} {}", req.method, req.path), req.body))
            };
            match (result, expect) {
                (Ok((start, body)), Parsed(want_start, want_body)) => {
                    assert_eq!(start, *want_start, "{name}");
                    assert_eq!(body, want_body.as_bytes(), "{name}");
                }
                (Err(HttpError::BadRequest(msg)), Bad(needle))
                | (Err(HttpError::Truncated(msg)), Cut(needle)) => {
                    assert!(msg.contains(needle), "{name}: `{msg}` missing `{needle}`");
                }
                (Err(HttpError::PayloadTooLarge { .. }), TooLarge)
                | (Err(HttpError::HeadTooLarge), Expect::HeadTooLarge) => {}
                (result, _) => panic!("{name}: unexpected outcome {result:?}"),
            }
        }
    }

    /// A generated message: the head `read_message` must return, the body,
    /// and the bytes `write_message` puts on the wire for them.
    #[derive(Debug)]
    struct Wire {
        head: Head,
        body: Vec<u8>,
        raw: Vec<u8>,
    }

    impl Wire {
        /// Bytes before the body: the budget a full head consumes.
        fn head_len(&self) -> usize {
            self.raw.len() - self.body.len()
        }
    }

    /// Requests and responses with up to five extra headers and bodies up
    /// to 4 KiB. Header names and values are written as generated and
    /// expected back as `read_message` normalises them: lower-cased names,
    /// trimmed values. A non-empty body always declares its length; an
    /// empty one sometimes declares `0`, at a random header position and
    /// spelling.
    fn arb_wire() -> impl Strategy<Value = Wire> {
        let start = prop_oneof![
            ("[A-Z]{1,7}", "/[a-z0-9/_.-]{0,24}", "[?a-z=&0-9]{0,10}")
                .prop_map(|(m, path, query)| format!("{m} {path}{query} HTTP/1.1")),
            (100u16..600, "[A-Za-z ]{0,16}")
                .prop_map(|(code, reason)| format!("HTTP/1.1 {code} {reason}")),
        ];
        let header = ("[A-Za-z0-9-]{1,12}", "[ -~]{0,24}");
        let spelling = prop_oneof![
            Just("Content-Length"),
            Just("content-length"),
            Just("CONTENT-LENGTH")
        ];
        (
            start,
            prop::collection::vec(header, 0..6),
            prop::collection::vec(any::<u8>(), 0..=4096),
            spelling,
            any::<prop::sample::Index>(),
            any::<bool>(),
        )
            .prop_map(|(start, extra, body, spelling, at, declare_zero)| {
                let mut headers: Vec<Header> = extra
                    .into_iter()
                    .map(|(name, value)| (format!("X-{name}"), value))
                    .collect();
                if !body.is_empty() || declare_zero {
                    let at = at.index(headers.len() + 1);
                    headers.insert(at, (spelling.to_string(), body.len().to_string()));
                }
                let written = Head { start, headers };
                let mut raw = Vec::new();
                write_message(&mut raw, &written, &body).unwrap();
                let headers = written
                    .headers
                    .iter()
                    .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
                    .collect();
                let head = Head {
                    start: written.start,
                    headers,
                };
                Wire { head, body, raw }
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The reader's contract on whatever `write_message` writes: the
        /// same message back under any segmentation; every proper prefix a
        /// truncation (or, at 0 bytes, a clean close), never a malformed
        /// message; and the head and body caps decided exactly by the
        /// message's sizes, before any body is buffered.
        #[test]
        fn written_messages_read_back_under_any_segmentation_and_truncation(
            wire in arb_wire(),
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
            body_cuts in prop::collection::vec(any::<prop::sample::Index>(), 8),
            slack in -8i64..8,
            over in prop_oneof![1usize..=1 << 20, Just(usize::MAX)],
            flip in (any::<prop::sample::Index>(), any::<u8>()),
        ) {
            let raw = &wire.raw;
            let mut cuts: Vec<usize> = cuts.iter().map(|i| 1 + i.index(raw.len() - 1)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let read = read_message(&mut Segmented::new(raw, &cuts), &Limits::RESPONSE);
            prop_assert_eq!(read, Ok((wire.head.clone(), wire.body.clone())));

            // every prefix through the head, sampled ones through the body
            let head_len = wire.head_len();
            let body_prefixes = body_cuts.iter().map(|i| head_len + i.index(wire.body.len() + 1));
            for len in (0..=head_len).chain(body_prefixes).filter(|&len| len < raw.len()) {
                match read_message(&mut &raw[..len], &Limits::RESPONSE) {
                    Err(HttpError::Closed) => prop_assert_eq!(len, 0),
                    Err(HttpError::Truncated(_)) => prop_assert!(len > 0),
                    other => prop_assert!(false, "prefix of {len} bytes read as {other:?}"),
                }
            }

            // a head budget around the head's size, and a body cap under
            // the body: exactly one verdict each
            let max_head_bytes = head_len.saturating_add_signed(slack as isize);
            let max_body_bytes = wire.body.len().saturating_sub(1);
            let limits = Limits { max_head_bytes, max_body_bytes };
            let read = read_message(&mut raw.as_slice(), &limits);
            if head_len > max_head_bytes {
                prop_assert_eq!(read, Err(HttpError::HeadTooLarge));
            } else if wire.body.is_empty() {
                prop_assert!(read.is_ok(), "{read:?}");
            } else {
                let declared = wire.body.len();
                let limit = max_body_bytes;
                prop_assert_eq!(read, Err(HttpError::PayloadTooLarge { declared, limit }));
            }

            // any one byte of the head replaced: `Ok` or a typed error,
            // never a panic, and the same verdict however the bytes arrive
            let (at, byte) = (flip.0.index(head_len), flip.1);
            let mut flipped = raw.clone();
            flipped[at] = byte;
            let whole = read_message(&mut flipped.as_slice(), &Limits::RESPONSE);
            let segmented = read_message(&mut Segmented::new(&flipped, &cuts), &Limits::RESPONSE);
            prop_assert_eq!(segmented, whole);

            // a declared length beyond the cap, with no body behind it, is
            // refused from the head alone
            let limit = wire.body.len();
            let declared = limit.saturating_add(over);
            let mut head = wire.head.clone();
            head.headers.retain(|(name, _)| name != "content-length");
            head.headers.push(("content-length".into(), declared.to_string()));
            let mut raw = Vec::new();
            write_message(&mut raw, &head, &[]).unwrap();
            let limits = Limits { max_head_bytes: Limits::RESPONSE.max_head_bytes, max_body_bytes: limit };
            prop_assert_eq!(
                read_message(&mut raw.as_slice(), &limits),
                Err(HttpError::PayloadTooLarge { declared, limit })
            );
        }
    }

    /// What the fault proxy forwards parses exactly as what it read.
    #[test]
    fn written_messages_parse_as_they_were_read() {
        let raw = "\r\nPOST /sessions/3/select?x=1 HTTP/1.0\nX-Trace :  abc \r\n\
                   Connection: Keep-Alive\r\ncontent-LENGTH: 10\r\n\r\n{\"rank\":0}";
        let (head, body) = read_message(&mut raw.as_bytes(), &Limits::RESPONSE).unwrap();
        let mut forwarded = Vec::new();
        write_message(&mut forwarded, &head, &body).unwrap();
        assert_eq!(
            read_request(&mut forwarded.as_slice(), &Limits::default()),
            parse(raw)
        );
        let response = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n";
        let (head, body) = read_message(&mut response.as_slice(), &Limits::RESPONSE).unwrap();
        let mut forwarded = Vec::new();
        write_message(&mut forwarded, &head, &body).unwrap();
        let again = read_message(&mut forwarded.as_slice(), &Limits::RESPONSE).unwrap();
        assert_eq!(again, (head, body));
    }

    #[test]
    fn extra_headers_are_emitted_before_the_body() {
        let mut out = Vec::new();
        let response = Response::json(503, "{}").with_header("Retry-After", "2");
        write_response(&mut out, &response, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    /// A `Write` that records each `write` call, as a socket sees them.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_goes_out_in_one_write() {
        let mut socket = Writes::default();
        let response = Response::json(503, "{}").with_header("Retry-After", "2");
        write_response(&mut socket, &response, false).unwrap();
        assert_eq!(
            socket.0,
            [
                b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
               Content-Length: 2\r\nConnection: close\r\nRetry-After: 2\r\n\r\n{}"
                    .to_vec()
            ]
        );
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"ok\":true}"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }
}
