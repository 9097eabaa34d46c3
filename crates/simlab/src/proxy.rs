//! The wire-fault proxy.
//!
//! [`FaultProxy`] sits between the lab's [`Client`](poiesis_server::Client)
//! and the real server. It delimits exchanges with the server's own
//! HTTP/1.1 reader ([`poiesis_server::http::read_message`], head plus
//! `Content-Length` body, under [`Limits::RESPONSE`] both ways) and
//! writes each message back as it read it, so neither side parses
//! anything the other did not send. A message the reader refuses —
//! malformed, truncated or over the caps — closes the connection. Each
//! exchange draws its fault from the plan by a global exchange counter,
//! so the schedule is a pure function of the seed and of how many
//! requests the client (including its own internal `503` retries) has
//! sent — not of thread timing.
//!
//! The backend address is retargetable because the server under test is
//! killed and restarted on fresh ports mid-run.

use crate::clock::SimClock;
use crate::plan::WireFault;
use poiesis_server::http::{self, HttpError, Limits};
use poiesis_server::service::overloaded;
use std::error::Error;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

struct ProxyState {
    wire: Vec<WireFault>,
    backend: Mutex<SocketAddr>,
    clock: Arc<SimClock>,
    /// Global exchange counter — the index into the wire schedule.
    exchanges: AtomicUsize,
    /// Human-readable log of every fault applied, in exchange order.
    log: Mutex<Vec<String>>,
    stop: AtomicBool,
    stall_hold: Duration,
}

impl ProxyState {
    fn record(&self, index: usize, fault: &WireFault) {
        self.log
            .lock()
            .expect("proxy log")
            .push(format!("exchange {index}: {fault}"));
    }
}

/// A listening fault injector; see the module docs.
pub struct FaultProxy {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    accept: Option<thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds on a loopback ephemeral port and starts proxying to
    /// `backend`, applying `wire` faults round-robin by exchange index.
    /// `stall_hold` is how long a [`WireFault::Stall`] holds the
    /// connection open in real time; it must exceed the client's read
    /// timeout for the stall to present as a hang.
    pub fn spawn(
        wire: Vec<WireFault>,
        backend: SocketAddr,
        clock: Arc<SimClock>,
        stall_hold: Duration,
    ) -> io::Result<FaultProxy> {
        assert!(!wire.is_empty(), "a fault plan needs at least one slot");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            wire,
            backend: Mutex::new(backend),
            clock,
            exchanges: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            stall_hold,
        });
        let accept_state = Arc::clone(&state);
        let accept = thread::Builder::new()
            .name("simlab-proxy".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_state.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { break };
                    let conn_state = Arc::clone(&accept_state);
                    let _ = thread::Builder::new()
                        .name("simlab-proxy-conn".to_string())
                        .spawn(move || {
                            let _ = serve_connection(&conn_state, conn);
                        });
                }
            })?;
        Ok(FaultProxy {
            addr,
            state,
            accept: Some(accept),
        })
    }

    /// Where clients should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Points subsequent exchanges at a new server incarnation.
    pub fn set_backend(&self, backend: SocketAddr) {
        *self.state.backend.lock().expect("proxy backend") = backend;
    }

    /// Exchanges seen so far.
    pub fn exchanges(&self) -> usize {
        self.state.exchanges.load(Ordering::SeqCst)
    }

    /// The applied-fault log, one line per exchange.
    pub fn log(&self) -> Vec<String> {
        self.state.log.lock().expect("proxy log").clone()
    }

    /// Stops accepting and joins the accept thread. In-flight exchange
    /// threads finish on their own (bounded by the stall hold).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.accept.take() {
            let _ = join.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

/// One client connection: exchanges until EOF or a connection-killing
/// fault.
fn serve_connection(state: &ProxyState, client: TcpStream) -> Result<(), Box<dyn Error>> {
    client.set_nodelay(true)?;
    client.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(client.try_clone()?);
    let mut writer = client;
    loop {
        let (head, body) = match http::read_message(&mut reader, &Limits::RESPONSE) {
            Ok(request) => request,
            Err(HttpError::Closed) => return Ok(()), // client closed between exchanges
            Err(e) => return Err(e.into()),
        };
        let index = state.exchanges.fetch_add(1, Ordering::SeqCst);
        let fault = state.wire[index % state.wire.len()].clone();
        state.record(index, &fault);
        match fault {
            WireFault::Drop => return Ok(()),
            WireFault::Stall => {
                thread::sleep(state.stall_hold);
                return Ok(());
            }
            WireFault::Reject503 => {
                // sheds close, like the real server
                http::write_response(&mut writer, &overloaded("injected shed", 1), false)?;
                return Ok(());
            }
            WireFault::Forward | WireFault::Delay { .. } | WireFault::TruncateBody { .. } => {
                if let WireFault::Delay { millis } = fault {
                    state.clock.advance(Duration::from_millis(millis));
                }
                let backend = *state.backend.lock().expect("proxy backend");
                let upstream = TcpStream::connect(backend)?;
                upstream.set_nodelay(true)?;
                upstream.set_read_timeout(Some(Duration::from_secs(10)))?;
                let mut up_reader = BufReader::new(upstream.try_clone()?);
                let mut up_writer = upstream;
                http::write_message(&mut up_writer, &head, &body)?;
                let (head, body) = http::read_message(&mut up_reader, &Limits::RESPONSE)?;
                if let WireFault::TruncateBody { keep_pct } = fault {
                    // Always at least one byte short of complete, so the
                    // client observes a truncation rather than a success.
                    let keep =
                        (body.len() * keep_pct as usize / 100).min(body.len().saturating_sub(1));
                    http::write_message(&mut writer, &head, &body[..keep])?;
                    return Ok(());
                }
                http::write_message(&mut writer, &head, &body)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poiesis_server::{Clock, Response};
    use std::io::{Read, Write};

    fn echo_backend() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || {
            // Serve a fixed number of one-shot connections, then exit.
            for _ in 0..8 {
                let Ok((conn, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut w = conn;
                while http::read_message(&mut reader, &Limits::RESPONSE).is_ok() {
                    let ok = Response::json(200, r#"{"ok":true}"#);
                    if http::write_response(&mut w, &ok, true).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, join)
    }

    fn roundtrip(addr: SocketAddr) -> Result<(http::Head, Vec<u8>), HttpError> {
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut w = conn.try_clone().unwrap();
        w.write_all(b"GET /x HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        http::read_message(&mut BufReader::new(conn), &Limits::RESPONSE)
    }

    #[test]
    fn faults_apply_in_schedule_order() {
        let (backend, _join) = echo_backend();
        let clock = Arc::new(SimClock::new());
        let proxy = FaultProxy::spawn(
            vec![
                WireFault::Forward,
                WireFault::Drop,
                WireFault::TruncateBody { keep_pct: 50 },
                WireFault::Delay { millis: 250 },
            ],
            backend,
            Arc::clone(&clock),
            Duration::from_millis(100),
        )
        .unwrap();

        // Exchange 0: forwarded intact.
        let (_, body) = roundtrip(proxy.addr()).unwrap();
        assert_eq!(body, br#"{"ok":true}"#);
        // Exchange 1: dropped — no response.
        assert_eq!(roundtrip(proxy.addr()).unwrap_err(), HttpError::Closed);
        // Exchange 2: truncated — the reader hits EOF mid-body.
        assert!(matches!(
            roundtrip(proxy.addr()),
            Err(HttpError::Truncated(_))
        ));
        // Exchange 3: delayed virtually, then forwarded intact.
        let (_, body) = roundtrip(proxy.addr()).unwrap();
        assert_eq!(body, br#"{"ok":true}"#);
        assert_eq!(clock.elapsed(), Duration::from_millis(250));

        assert_eq!(proxy.exchanges(), 4);
        let log = proxy.log();
        assert_eq!(log.len(), 4);
        assert!(log[1].contains("drop"), "log: {log:?}");
        proxy.stop();
    }

    #[test]
    fn reject503_carries_retry_after_and_closes() {
        let (backend, _join) = echo_backend();
        let proxy = FaultProxy::spawn(
            vec![WireFault::Reject503],
            backend,
            Arc::new(SimClock::new()),
            Duration::from_millis(100),
        )
        .unwrap();
        let (head, _) = roundtrip(proxy.addr()).unwrap();
        assert_eq!(head.status(), Ok(503));
        assert_eq!(head.header("Retry-After"), Some("1"));
        assert_eq!(head.header("Connection"), Some("close"));
        proxy.stop();
    }

    #[test]
    fn over_cap_backend_length_closes_the_connection_without_a_panic() {
        // A backend that declares a body no buffer can hold.
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let backend_addr = backend.local_addr().unwrap();
        thread::spawn(move || {
            let (mut conn, _) = backend.accept().unwrap();
            let mut request = [0u8; 64];
            let _ = conn.read(&mut request);
            let _ = conn
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n{}");
        });
        let state = ProxyState {
            wire: vec![WireFault::Forward],
            backend: Mutex::new(backend_addr),
            clock: Arc::new(SimClock::new()),
            exchanges: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            stall_hold: Duration::from_millis(100),
        };
        let front = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(front.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (conn, _) = front.accept().unwrap();
        client
            .write_all(b"GET /x HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();

        let served = thread::spawn(move || serve_connection(&state, conn).is_err()).join();
        assert!(
            matches!(served, Ok(true)),
            "the proxy must refuse the length with an error, not a panic"
        );
        let mut forwarded = Vec::new();
        client.read_to_end(&mut forwarded).unwrap();
        assert!(forwarded.is_empty(), "nothing of the response is forwarded");
    }
}
