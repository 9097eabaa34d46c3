//! The connection machinery: bind, accept, bounded queue, thread pool,
//! load shedding, shutdown.
//!
//! The accept loop hands each connection to a fixed pool of worker
//! threads (sized to [`std::thread::available_parallelism`] by default)
//! through a **bounded** hand-off of [`ServerConfig::queue`] waiting
//! slots; a worker counts as idle from the moment it is spawned, so a
//! connection accepted before any worker has been scheduled still waits
//! for one instead of being shed. When
//! every worker is busy and the queue is full, the server *sheds*: the
//! connection is answered immediately with `503` + `Retry-After`
//! ([`ServerConfig::retry_after`]) and closed, and
//! `poiesis_http_shed_total` is incremented — bounded latency for the
//! clients already in, an honest machine-readable "come back later" for
//! the ones that are not, instead of an unbounded backlog that slowly
//! times everyone out. Shutdown is graceful and race-free: a
//! [`ShutdownHandle`] flips an atomic flag and wakes the (blocking)
//! accept call with a loopback connection; the accept loop then closes
//! the hand-off, the workers answer every request whose bytes have
//! arrived (pending connections included), close each keep-alive
//! connection that sits idle between requests within 50 ms, and exit,
//! and [`Server::run`] joins them all before returning. `POST /shutdown`
//! triggers the same path from the wire — which is how the CI smoke job
//! stops the binary cleanly.

use crate::http::{self, HttpError, Limits, Request, Response};
use crate::metrics::Metrics;
use crate::route::Route;
use crate::service::{error_body, http_error_response, PlanningService};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How often a worker waiting on an idle keep-alive connection checks
/// whether shutdown was requested.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections. `0` means
    /// `available_parallelism`.
    pub threads: usize,
    /// Accepted connections that may wait for a free worker before the
    /// server starts shedding with `503`. `0` is a valid rendezvous
    /// queue: a connection is either handed to an idle worker on the
    /// spot or shed.
    pub queue: usize,
    /// The `Retry-After` a shed client is told to wait.
    pub retry_after: Duration,
    /// Per-request size bounds.
    pub limits: Limits,
    /// Socket read timeout — the cap on how long a slow or stalled peer
    /// can hold a worker mid-request, or an idle one between requests.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            queue: 256,
            retry_after: Duration::from_secs(1),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        thread::available_parallelism().map_or(4, |n| n.get())
    }
}

/// Stops a running [`Server`] from another thread (or from the wire, via
/// `POST /shutdown`).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown and wakes the accept loop. Idempotent.
    pub fn shutdown(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        // the accept call is blocking; poke it awake so it observes the
        // flag. A wildcard bind (0.0.0.0 / [::]) is not connectable on
        // every platform — aim at the matching loopback instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    service: Arc<PlanningService>,
    config: ServerConfig,
    flag: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned test port).
    pub fn bind(addr: &str, service: PlanningService, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            service: Arc::new(service),
            config,
            flag: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`run`](Self::run) from anywhere.
    pub fn handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.flag),
            addr: self.local_addr()?,
        })
    }

    /// Serves until shutdown is requested, then drains workers and
    /// returns the number of connections served (shed connections are
    /// counted in `poiesis_http_shed_total`, not here).
    pub fn run(self) -> io::Result<usize> {
        let shutdown = self.handle()?;
        let threads = self.config.effective_threads();
        let metrics = Arc::clone(self.service.metrics());
        let handoff = Arc::new(Handoff::new(threads));

        let workers: Vec<thread::JoinHandle<()>> = (0..threads)
            .map(|i| {
                let handoff = Arc::clone(&handoff);
                let service = Arc::clone(&self.service);
                let config = self.config.clone();
                let shutdown = shutdown.clone();
                let metrics = Arc::clone(&metrics);
                thread::Builder::new()
                    .name(format!("poiesis-http-{i}"))
                    .spawn(move || {
                        // `None` once the hand-off is closed and drained
                        while let Some(stream) = handoff.take() {
                            // a panicking handler must cost one connection,
                            // not one worker
                            let _ = catch_unwind(AssertUnwindSafe(|| {
                                serve_connection(stream, &service, &config, &shutdown, &metrics)
                            }));
                            handoff.release();
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        // shed responses are written off the accept thread: a hostile
        // peer can stall a shed write/drain for seconds, and the accept
        // loop must keep shedding at full speed exactly then. The shed
        // queue is bounded too — when even it is full the connection is
        // dropped silently (still counted), which only happens under a
        // flood that outruns one thread writing ~200-byte responses
        let (shed_sender, shed_receiver) = sync_channel::<TcpStream>(64);
        let shedder = {
            let config = self.config.clone();
            thread::Builder::new()
                .name("poiesis-shed".to_string())
                .spawn(move || {
                    while let Ok(stream) = shed_receiver.recv() {
                        shed(stream, &config);
                    }
                })
                .expect("spawn shedder")
        };

        let mut served = 0usize;
        for stream in self.listener.incoming() {
            if shutdown.is_shutting_down() {
                break;
            }
            match stream {
                Ok(stream) => match handoff.offer(stream, self.config.queue) {
                    Ok(()) => served += 1,
                    // workers busy and queue full: shed instead of
                    // building an unbounded backlog
                    Err(stream) => {
                        metrics.record_shed();
                        let _ = shed_sender.try_send(stream);
                    }
                },
                // accept failures (EMFILE, ECONNABORTED) should not kill
                // the server; the brief pause keeps a *persistent* error
                // (fd exhaustion under flood) from busy-spinning this
                // thread while workers drain the backlog
                Err(_) => {
                    thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        handoff.close();
        drop(shed_sender);
        for worker in workers {
            let _ = worker.join();
        }
        let _ = shedder.join();
        Ok(served)
    }

    /// Convenience for tests and the load generator: consumes the server,
    /// runs it on a background thread, and returns `(addr, handle, join)`.
    pub fn spawn(
        self,
    ) -> io::Result<(
        SocketAddr,
        ShutdownHandle,
        thread::JoinHandle<io::Result<usize>>,
    )> {
        let addr = self.local_addr()?;
        let handle = self.handle()?;
        let join = thread::Builder::new()
            .name("poiesis-accept".to_string())
            .spawn(move || self.run())?;
        Ok((addr, handle, join))
    }
}

/// The accept loop's hand-off to the workers: accepted connections
/// waiting for a worker, and how many workers are free to take one. A
/// worker counts as idle from the moment it is spawned until it takes a
/// connection, so admission never depends on how far a worker thread has
/// been scheduled.
struct Handoff {
    state: Mutex<HandoffState>,
    ready: Condvar,
}

struct HandoffState {
    pending: VecDeque<TcpStream>,
    idle: usize,
    closed: bool,
}

impl Handoff {
    fn new(workers: usize) -> Self {
        Handoff {
            state: Mutex::new(HandoffState {
                pending: VecDeque::new(),
                idle: workers,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits `stream` when an idle worker or one of `queue` waiting slots
    /// is free; hands it back when every worker is busy and the queue is
    /// full. Each idle worker will take one pending connection, so up to
    /// `idle + queue` may be pending at once.
    fn offer(&self, stream: TcpStream, queue: usize) -> Result<(), TcpStream> {
        let mut state = self.state.lock().expect("handoff");
        if state.pending.len() >= state.idle + queue {
            return Err(stream);
        }
        state.pending.push_back(stream);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a connection is pending and takes it, marking the
    /// calling worker busy; `None` once the hand-off is closed and drained.
    fn take(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("handoff");
        loop {
            if let Some(stream) = state.pending.pop_front() {
                state.idle -= 1;
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("handoff");
        }
    }

    /// Marks the calling worker idle again after it finished a connection.
    fn release(&self) {
        self.state.lock().expect("handoff").idle += 1;
    }

    /// Stops admission; workers drain what is pending, then exit.
    fn close(&self) {
        self.state.lock().expect("handoff").closed = true;
        self.ready.notify_all();
    }
}

/// Refuses one connection with `503` + `Retry-After`. Runs on the
/// dedicated shedder thread, never the accept thread, because a hostile
/// peer can hold this for up to ~2 s (write timeout plus drain reads) —
/// tolerable for one background thread, fatal for the accept loop.
fn shed(stream: TcpStream, config: &ServerConfig) {
    use std::io::Read;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let retry_after = config.retry_after.as_secs().max(1);
    let response = Response::json(
        503,
        error_body(
            "overloaded",
            "all workers are busy and the accept queue is full; retry shortly",
        ),
    )
    .with_header("Retry-After", retry_after.to_string());
    let mut stream = stream;
    let _ = http::write_response(&mut stream, &response, false);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // drain (bounded) the request bytes the peer sent: closing with
    // unread data makes the kernel RST the connection, which can discard
    // the 503 before the peer reads it
    let mut sink = [0u8; 2048];
    for _ in 0..8 {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
}

/// The keep-alive request loop for one connection.
fn serve_connection(
    stream: TcpStream,
    service: &PlanningService,
    config: &ServerConfig,
    shutdown: &ShutdownHandle,
    metrics: &Metrics,
) {
    metrics.record_connection();
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match await_request(&mut reader, config, shutdown)
            .and_then(|()| http::read_request(&mut reader, &config.limits))
        {
            Ok(request) => request,
            Err(HttpError::Closed) => return,
            Err(e) => {
                // report the failure if the socket still listens, then
                // hang up — a half-parsed stream cannot be resynchronized
                let response = http_error_response(&e);
                // an unparsable request addresses no route
                metrics.record_request(Route::NotFound, response.status);
                let _ = http::write_response(&mut writer, &response, false);
                return;
            }
        };
        let keep_alive = request.keep_alive;
        let route = Route::parse(&request.method, &request.path);
        let response = {
            let _in_flight = metrics.in_flight_guard();
            dispatch(route, &request, service, shutdown)
        };
        metrics.record_request(route, response.status);
        if http::write_response(&mut writer, &response, keep_alive).is_err() {
            return;
        }
        if !keep_alive || shutdown.is_shutting_down() {
            return;
        }
    }
}

/// Waits for the first byte of the connection's next request, checking
/// for shutdown every [`IDLE_POLL`], so that an idle keep-alive client
/// cannot hold a worker past shutdown. Bytes that have arrived are always
/// served; a connection still idle once shutdown is requested ends with
/// `Closed`, one idle for the whole read timeout with `Timeout`, as a
/// stalled read would. A closed peer is left for `read_request` to see.
fn await_request(
    reader: &mut BufReader<TcpStream>,
    config: &ServerConfig,
    shutdown: &ShutdownHandle,
) -> Result<(), HttpError> {
    if !reader.buffer().is_empty() {
        return Ok(());
    }
    let deadline = Instant::now() + config.read_timeout;
    let waited = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break Err(HttpError::Timeout);
        }
        let _ = reader.get_ref().set_read_timeout(Some(left.min(IDLE_POLL)));
        match reader.fill_buf() {
            Ok(_) => break Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.is_shutting_down() {
                    break Err(HttpError::Closed);
                }
            }
            // a reset peer just ends the connection
            Err(_) => break Err(HttpError::Closed),
        }
    };
    let _ = reader.get_ref().set_read_timeout(Some(config.read_timeout));
    waited
}

/// Serves the one server-level endpoint (`POST /shutdown`); every other
/// route goes to the service.
fn dispatch(
    route: Route<'_>,
    request: &Request,
    service: &PlanningService,
    shutdown: &ShutdownHandle,
) -> Response {
    match route {
        Route::Shutdown => {
            shutdown.shutdown();
            Response::json(200, "{\"shutting_down\":true}")
        }
        Route::ShutdownNotAllowed => Response::json(
            405,
            error_body("method_not_allowed", "shutdown requires POST"),
        ),
        _ => service.respond(route, request),
    }
}
