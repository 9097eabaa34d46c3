//! A std-only HTTP client for the planning API.
//!
//! [`Client`] holds one keep-alive connection and speaks the wire
//! contract of `docs/API.md`: raw [`request`](Client::request) for tests
//! that need to probe error paths, and typed helpers
//! ([`create`](Client::create) → [`explore`](Client::explore) →
//! [`select`](Client::select) → [`lint`](Client::lint) →
//! [`history`](Client::history) → [`close`](Client::close)) that decode
//! straight into the `poiesis::api`
//! DTOs. It exists so integration tests, the `poiesis_client` CLI and the
//! `server_load` generator all exercise the same code path a real client
//! would.
//!
//! # Response bounds
//!
//! Responses are read by the server's own reader ([`http::read_message`])
//! under [`Limits::RESPONSE`]: a head over 16 KiB or a `Content-Length`
//! over 64 MiB is refused before it is buffered. A response the
//! connection failed to deliver (closed, cut short, timed out) is
//! [`ClientError::Io`], worth a retry on a fresh connection; one that
//! arrived malformed or over the caps is [`ClientError::Decode`].
//!
//! # Retry on `503`
//!
//! Typed calls honour the server's shed signal: a `503` carrying
//! `Retry-After` is retried after waiting the advertised delay (through
//! the client's [`Clock`], so the fault lab replays the wait virtually),
//! up to [`RetryPolicy::max_retries`] times, reconnecting first because a
//! shed connection is closed by the server. Exhausting the budget
//! surfaces the final `503` as a normal [`ClientError::Api`]. Retries are
//! counted ([`Client::retries`]) so load tools can report them. The raw
//! [`request`](Client::request) path never retries — error-path tests
//! need to see exactly one exchange.

use crate::clock::{Clock, SystemClock};
use crate::http::{self, Head, HttpError, Limits};
use poiesis::{FromJson, IterationRecord, LintReport, PlanRequest, PlanResponse, ToJson};
use serde::json::{JsonError, Value};
use std::fmt;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A decoded HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Raw body text.
    pub body: String,
    /// The `Retry-After` header in seconds, when the server sent one
    /// (the `503` shed path always does).
    pub retry_after: Option<u64>,
}

impl HttpResponse {
    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Value, ClientError> {
        Ok(Value::parse(&self.body)?)
    }

    /// Decodes member `key` of the body (see [`Value::field`]).
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, ClientError> {
        Ok(self.json()?.field(key)?)
    }
}

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure.
    Io(String),
    /// The server answered with an error body; `code` is the stable
    /// `error.code` of the wire contract.
    Api {
        /// HTTP status.
        status: u16,
        /// Stable error code (e.g. `unknown_session`).
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// The response body did not decode as the expected DTO.
    Decode(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Api {
                status,
                code,
                message,
            } => write!(f, "api error {status} ({code}): {message}"),
            ClientError::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// A body that did not decode as the expected DTO.
impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Decode(e.to_string())
    }
}

/// Sorts a failed response read into `Io` or `Decode` (module docs).
impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::Closed => ClientError::Io("server closed the connection".into()),
            HttpError::Timeout => ClientError::Io("timed out reading the response".into()),
            HttpError::Truncated(m) => ClientError::Io(m),
            HttpError::BadRequest(m) => ClientError::Decode(m),
            HttpError::HeadTooLarge => ClientError::Decode("response head too large".into()),
            HttpError::PayloadTooLarge { declared, limit } => ClientError::Decode(format!(
                "response of {declared} bytes exceeds the {limit}-byte limit"
            )),
        }
    }
}

/// How typed calls react to a `503` + `Retry-After` shed.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries (beyond the first attempt) before the `503` is surfaced.
    pub max_retries: u32,
    /// Cap on one wait, whatever `Retry-After` advertises — a hostile or
    /// misconfigured server must not park the client for minutes.
    pub max_wait: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            max_wait: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// No retries: every `503` surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            max_wait: Duration::ZERO,
        }
    }
}

/// One keep-alive connection to a planning server.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    read_timeout: Duration,
    clock: Arc<dyn Clock>,
    retry: RetryPolicy,
    retries: u64,
}

impl Client {
    /// Connects, with a read timeout so a dead server fails loudly
    /// instead of hanging the caller, and the default [`RetryPolicy`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Self::connect_with(
            addr,
            Duration::from_secs(60),
            Arc::new(SystemClock::new()),
            RetryPolicy::default(),
        )
    }

    /// Connects with an explicit read timeout, [`Clock`] and
    /// [`RetryPolicy`] — what the fault lab uses to make waits virtual
    /// and timeouts short.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        clock: Arc<dyn Clock>,
        retry: RetryPolicy,
    ) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io("address resolved to nothing".into()))?;
        let (reader, writer) = Self::open(addr, read_timeout)?;
        Ok(Client {
            addr,
            reader,
            writer,
            read_timeout,
            clock,
            retry,
            retries: 0,
        })
    }

    fn open(
        addr: SocketAddr,
        read_timeout: Duration,
    ) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok((BufReader::new(stream), writer))
    }

    /// Drops the current connection and opens a fresh one to the same
    /// address — what a caller does after an [`ClientError::Io`] on a
    /// keep-alive connection the server (or a fault) tore down.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = Self::open(self.addr, self.read_timeout)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// How many `503`-triggered retries this client has performed —
    /// the `poiesis_client_retries_total` the `server_load` summary
    /// reports.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sends one request and reads the response. `body = None` sends no
    /// `Content-Length`; JSON bodies are sent verbatim. Never retries.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ClientError> {
        let mut head = Head {
            start: format!("{method} {path} HTTP/1.1"),
            headers: vec![("Host".into(), "poiesis".into())],
        };
        if let Some(body) = body {
            head.headers
                .push(("Content-Length".into(), body.len().to_string()));
        }
        http::write_message(&mut self.writer, &head, body.unwrap_or("").as_bytes())?;
        self.read_response()
    }

    /// [`request`](Self::request) plus the `503` retry loop the typed
    /// helpers ride on: waits out `Retry-After` on the clock, reconnects
    /// (sheds close the connection) and tries again, bounded by the
    /// [`RetryPolicy`].
    pub fn request_with_retry(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ClientError> {
        let mut attempts_left = self.retry.max_retries;
        loop {
            let response = self.request(method, path, body)?;
            let retriable = response.status == 503 && response.retry_after.is_some();
            if !retriable || attempts_left == 0 {
                return Ok(response);
            }
            attempts_left -= 1;
            self.retries += 1;
            let wait =
                Duration::from_secs(response.retry_after.unwrap_or(1)).min(self.retry.max_wait);
            self.clock.sleep(wait);
            // a shed connection was closed server-side after the 503
            self.reconnect()?;
        }
    }

    fn read_response(&mut self) -> Result<HttpResponse, ClientError> {
        let (head, body) = http::read_message(&mut self.reader, &Limits::RESPONSE)?;
        let body = String::from_utf8(body)
            .map_err(|_| ClientError::Decode("response body is not UTF-8".into()))?;
        Ok(HttpResponse {
            status: head.status()?,
            body,
            retry_after: head.header("retry-after").and_then(|v| v.parse().ok()),
        })
    }

    /// Turns a non-2xx response into [`ClientError::Api`] by decoding the
    /// documented error body.
    fn expect_ok(response: HttpResponse) -> Result<HttpResponse, ClientError> {
        if (200..300).contains(&response.status) {
            return Ok(response);
        }
        let decoded = response.json().and_then(|v| {
            let error = v.get("error")?;
            Ok((error.field("code")?, error.field("message")?))
        });
        let (code, message) =
            decoded.unwrap_or_else(|_| ("unknown".to_string(), response.body.clone()));
        Err(ClientError::Api {
            status: response.status,
            code,
            message,
        })
    }

    fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ClientError> {
        Self::expect_ok(self.request_with_retry(method, path, body)?)
    }

    // ------------------------------------------------------ typed calls

    /// `GET /healthz` → the number of live sessions.
    pub fn healthz(&mut self) -> Result<usize, ClientError> {
        self.call("GET", "/healthz", None)?.field("sessions")
    }

    /// `GET /metrics` → the raw Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let response = self.call("GET", "/metrics", None)?;
        Ok(response.body)
    }

    /// Scrapes `/metrics` and returns the value of `name` — the first
    /// sample line whose metric name (including any `{labels}`) starts
    /// with `name`. Counters and gauges only; errors when the metric is
    /// absent, which for the families documented in `docs/OPERATIONS.md`
    /// means the server predates them.
    pub fn metric_value(&mut self, name: &str) -> Result<f64, ClientError> {
        let text = self.metrics()?;
        for line in text.lines() {
            if line.starts_with('#') || !line.starts_with(name) {
                continue;
            }
            if let Some(value) = line.rsplit(' ').next() {
                if let Ok(value) = value.parse() {
                    return Ok(value);
                }
            }
        }
        Err(ClientError::Decode(format!("no metric `{name}` in scrape")))
    }

    /// `POST /sessions` → the new session handle. `None` uses the
    /// server-side defaults.
    pub fn create(&mut self, plan: Option<&PlanRequest>) -> Result<u64, ClientError> {
        let body = plan.map(|p| p.to_json_string());
        self.call("POST", "/sessions", body.as_deref())?
            .field("session")
    }

    /// `POST /sessions/{id}/explore` → the frontier.
    pub fn explore(&mut self, id: u64) -> Result<PlanResponse, ClientError> {
        let response = self.call("POST", &format!("/sessions/{id}/explore"), None)?;
        Ok(PlanResponse::from_json_str(&response.body)?)
    }

    /// `POST /sessions/{id}/select` with `{"rank":rank}` → the iteration
    /// record.
    pub fn select(&mut self, id: u64, rank: usize) -> Result<IterationRecord, ClientError> {
        let body = Value::object([("rank", rank.to_json())]).to_string();
        self.call("POST", &format!("/sessions/{id}/select"), Some(&body))?
            .field("record")
    }

    /// `POST /sessions/{id}/lint` → static-analysis diagnostics for the
    /// session's current flow.
    pub fn lint(&mut self, id: u64) -> Result<LintReport, ClientError> {
        let response = self.call("POST", &format!("/sessions/{id}/lint"), None)?;
        Ok(LintReport::from_json_str(&response.body)?)
    }

    /// `GET /sessions/{id}/history` → all completed iterations.
    pub fn history(&mut self, id: u64) -> Result<Vec<IterationRecord>, ClientError> {
        self.call("GET", &format!("/sessions/{id}/history"), None)?
            .field("history")
    }

    /// `DELETE /sessions/{id}`.
    pub fn close(&mut self, id: u64) -> Result<(), ClientError> {
        self.call("DELETE", &format!("/sessions/{id}"), None)?;
        Ok(())
    }

    /// `POST /shutdown` — stops the server.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.call("POST", "/shutdown", None)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::thread;

    /// Sends one request to a peer that answers it with `reply` and hangs
    /// up.
    fn ask(reply: Vec<u8>) -> Result<HttpResponse, ClientError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let _ = http::read_request(&mut BufReader::new(&conn), &Limits::default());
            let _ = (&conn).write_all(&reply);
        });
        let mut client = Client::connect_with(
            addr,
            Duration::from_secs(5),
            Arc::new(SystemClock::new()),
            RetryPolicy::none(),
        )
        .unwrap();
        client.request("GET", "/healthz", None)
    }

    #[test]
    fn response_length_beyond_memory_is_an_error_not_a_panic() {
        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n{}";
        let result = ask(reply.to_vec());
        assert!(matches!(result, Err(ClientError::Decode(_))), "{result:?}");
    }

    #[test]
    fn response_head_over_the_cap_is_decode() {
        let pad = "x".repeat(Limits::RESPONSE.max_head_bytes);
        let reply = format!("HTTP/1.1 200 OK\r\nX-Pad: {pad}\r\nContent-Length: 2\r\n\r\n{{}}");
        let result = ask(reply.into_bytes());
        assert!(matches!(result, Err(ClientError::Decode(_))), "{result:?}");
    }

    #[test]
    fn response_truncated_mid_body_is_io() {
        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{\"sessi";
        let result = ask(reply.to_vec());
        assert!(matches!(result, Err(ClientError::Io(_))), "{result:?}");
    }
}
