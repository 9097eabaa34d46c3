//! Integration tests driving a live `poiesis_server` socket.
//!
//! These are the acceptance tests of the wire contract: a full
//! create → explore → select → history → close round-trip, ≥ 8 concurrent
//! client threads, equality of the HTTP-obtained skyline with the
//! in-process facade skyline, graceful shutdown (which does not wait
//! out idle keep-alive clients), the documented
//! behaviour for malformed wire input (truncated requests, bad JSON,
//! unknown handles, oversized payloads), `503` load shedding under
//! saturated workers, `/metrics` content, and kill-and-restart session
//! recovery through `--state-dir` persistence.

use poiesis::{FromJson, PlanRequest, PlanResponse, SessionManager, ToJson};
use poiesis_server::{
    Client, ClientError, Limits, PlanningService, Server, ServerConfig, SessionTemplate, StateStore,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

const ROWS: usize = 80;

/// Spins up a server on an OS-assigned port.
fn spawn_server(
    config: ServerConfig,
) -> (
    SocketAddr,
    poiesis_server::ShutdownHandle,
    thread::JoinHandle<std::io::Result<usize>>,
) {
    let service = PlanningService::new(SessionTemplate::demo(ROWS));
    let server = Server::bind("127.0.0.1:0", service, config).expect("bind");
    server.spawn().expect("spawn")
}

/// A small budget keeps each planning cycle fast while still producing a
/// multi-design frontier.
fn small_request() -> PlanRequest {
    PlanRequest {
        budget: 200,
        ..PlanRequest::default()
    }
}

#[test]
fn full_lifecycle_round_trip_over_a_real_socket() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    assert_eq!(client.healthz().unwrap(), 0);
    let id = client.create(Some(&small_request())).unwrap();
    assert_eq!(client.healthz().unwrap(), 1);

    let frontier = client.explore(id).unwrap();
    assert_eq!(frontier.session, Some(id));
    assert!(!frontier.skyline.is_empty());
    assert!(!frontier.axes.is_empty());

    let record = client.select(id, 0).unwrap();
    assert_eq!(record.cycle, 1);
    assert_eq!(record.selected, frontier.skyline[0].name);

    let lint = client.lint(id).unwrap();
    assert_eq!(lint.session, Some(id));
    assert!(
        lint.ok(),
        "the demo flow must lint clean: {:?}",
        lint.diagnostics
    );

    let history = client.history(id).unwrap();
    assert_eq!(history, vec![record]);

    client.close(id).unwrap();
    assert_eq!(client.healthz().unwrap(), 0);
    match client.explore(id) {
        Err(ClientError::Api {
            status: 404, code, ..
        }) => {
            assert_eq!(code, "unknown_session")
        }
        other => panic!("expected 404 on a closed session, got {other:?}"),
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn http_skyline_equals_the_in_process_facade_skyline() {
    // the same template, request and manager path as the server uses…
    let template = SessionTemplate::demo(ROWS);
    let request = small_request();
    let manager = SessionManager::new();
    let id = manager
        .create_from_request(template.builder(), &request)
        .unwrap();
    let in_process = manager.explore(id).unwrap();

    // …versus one round over the wire
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let remote_id = client.create(Some(&request)).unwrap();
    let over_http = client.explore(remote_id).unwrap();

    assert_eq!(over_http.axes, in_process.axes);
    assert_eq!(over_http.baseline, in_process.baseline);
    assert_eq!(over_http.skyline, in_process.skyline);
    assert_eq!(over_http.alternatives, in_process.alternatives);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn eight_concurrent_clients_run_independent_sessions() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());

    let workers: Vec<_> = (0..8)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let id = client.create(Some(&small_request())).unwrap();
                let frontier = client.explore(id).unwrap();
                assert!(!frontier.skyline.is_empty());
                let record = client.select(id, 0).unwrap();
                assert_eq!(record.cycle, 1);
                assert_eq!(client.history(id).unwrap().len(), 1);
                client.close(id).unwrap();
                id
            })
        })
        .collect();

    let mut ids: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    // every thread got its own session handle
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 8);

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.healthz().unwrap(), 0);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn graceful_shutdown_over_the_wire() {
    let (addr, _handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown_server().unwrap();
    // run() returns, draining the workers
    join.join().unwrap().unwrap();
    // …and the port stops accepting new work
    thread::sleep(Duration::from_millis(50));
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        // the OS may still complete the handshake on a closed listener's
        // backlog; a read then sees EOF
        Ok(mut stream) => {
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let mut buf = [0u8; 1];
            matches!(stream.read(&mut buf), Ok(0) | Err(_))
        }
    };
    assert!(refused, "server still serving after shutdown");
}

#[test]
fn shutdown_closes_idle_keep_alive_clients_and_answers_arrived_requests() {
    // one worker, one waiting slot, the default 10 s read timeout
    let (addr, handle, join) = spawn_server(ServerConfig {
        threads: 1,
        queue: 1,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    // an idle keep-alive client holds the only worker
    let mut idle = Client::connect(addr).expect("connect");
    assert_eq!(idle.healthz().unwrap(), 0);
    // a complete request waits in the one slot — the next peer is shed,
    // so the first one was admitted
    let mut pending = TcpStream::connect(addr).expect("connect");
    pending
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    pending
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let shed = raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n", true);
    assert_eq!(status_of(&shed), 503, "{shed}");

    let start = Instant::now();
    handle.shutdown();
    join.join().unwrap().unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "shutdown waited {took:?} for an idle keep-alive client"
    );
    let mut response = String::new();
    pending.read_to_string(&mut response).unwrap();
    assert_eq!(status_of(&response), 200, "{response}");
    drop(idle);
}

// ---------------------------------------------------------------- hostile

/// Raw socket for bytes the [`Client`] refuses to produce.
fn raw(addr: SocketAddr, bytes: &[u8], half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    stream.write_all(bytes).expect("write");
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {response:?}"))
}

#[test]
fn truncated_requests_get_400_not_a_hung_worker() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });

    // body shorter than its declared Content-Length, then half-close
    let response = raw(
        addr,
        b"POST /sessions HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort",
        true,
    );
    assert_eq!(status_of(&response), 400);
    assert!(response.contains("bad_request"), "{response}");

    // head cut off mid-line
    let response = raw(addr, b"POST /sess", true);
    assert_eq!(status_of(&response), 400);

    // a stalled peer that never finishes its body trips the read timeout
    let response = raw(
        addr,
        b"POST /sessions HTTP/1.1\r\nContent-Length: 10\r\n\r\n",
        false,
    );
    assert_eq!(status_of(&response), 408);
    assert!(response.contains("timeout"), "{response}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn garbage_request_lines_get_400() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    for bad in [
        "GARBAGE\r\n\r\n",
        "GET / FTP/1.0\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n",
    ] {
        let response = raw(addr, bad.as_bytes(), true);
        assert_eq!(status_of(&response), 400, "for {bad:?}");
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn bad_json_bodies_get_400_with_the_documented_code() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let response = client
        .request("POST", "/sessions", Some("{not json"))
        .unwrap();
    assert_eq!(response.status, 400);
    assert!(response.body.contains("\"malformed\""), "{}", response.body);

    // a syntactically-valid body with the wrong shape
    let response = client
        .request("POST", "/sessions", Some("{\"budget\":\"lots\"}"))
        .unwrap();
    assert_eq!(response.status, 400);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn unknown_session_ids_get_404_everywhere() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for (method, path) in [
        ("POST", "/sessions/999/explore"),
        ("POST", "/sessions/999/select"),
        ("GET", "/sessions/999/history"),
        ("DELETE", "/sessions/999"),
    ] {
        let body = if path.ends_with("select") {
            Some("{\"rank\":0}")
        } else {
            None
        };
        let response = client.request(method, path, body).unwrap();
        assert_eq!(response.status, 404, "{method} {path}: {}", response.body);
        assert!(
            response.body.contains("unknown_session"),
            "{method} {path}: {}",
            response.body
        );
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn oversized_payloads_get_413() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        limits: Limits {
            max_body_bytes: 512,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let huge = "x".repeat(600);
    let response = client.request("POST", "/sessions", Some(&huge)).unwrap();
    assert_eq!(response.status, 413);
    assert!(
        response.body.contains("payload_too_large"),
        "{}",
        response.body
    );

    // an honest request the default PlanRequest fits in still works: the
    // cap applies per request, not per connection
    let mut client = Client::connect(addr).expect("reconnect");
    let body = PlanRequest::default().to_json_string();
    assert!(body.len() < 512, "test premise: default request fits");
    let response = client.request("POST", "/sessions", Some(&body)).unwrap();
    assert_eq!(response.status, 201, "{}", response.body);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn oversized_heads_get_431() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        limits: Limits {
            max_head_bytes: 256,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let request = format!(
        "GET /healthz HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
        "p".repeat(500)
    );
    let response = raw(addr, request.as_bytes(), true);
    assert_eq!(status_of(&response), 431);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn keep_alive_reuses_one_connection_for_a_whole_session() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    // the typed client never reconnects: if keep-alive were broken, the
    // second call on the same socket would fail
    let mut client = Client::connect(addr).expect("connect");
    let id = client.create(Some(&small_request())).unwrap();
    let frontier = client.explore(id).unwrap();
    let via_dto = PlanResponse::from_json_str(&frontier.to_json_string()).unwrap();
    assert_eq!(via_dto, frontier);
    client.close(id).unwrap();
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn sessions_list_tracks_creation_and_closure() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let a = client.create(Some(&small_request())).unwrap();
    let b = client.create(Some(&small_request())).unwrap();
    let listed = client.request("GET", "/sessions", None).unwrap();
    assert_eq!(listed.status, 200);
    assert!(listed.body.contains(&format!("{a}")), "{}", listed.body);
    assert!(listed.body.contains(&format!("{b}")), "{}", listed.body);
    client.close(a).unwrap();
    client.close(b).unwrap();
    handle.shutdown();
    join.join().unwrap().unwrap();
}

// ------------------------------------------------------------ hardening

#[test]
fn metrics_scrape_reflects_a_scripted_session() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let id = client.create(Some(&small_request())).unwrap();
    client.explore(id).unwrap();
    client.select(id, 0).unwrap();

    let text = client.metrics().unwrap();
    // route/status counters for exactly what this test did
    for needle in [
        "poiesis_http_requests_total{route=\"session_create\",status=\"201\"} 1",
        "poiesis_http_requests_total{route=\"explore\",status=\"200\"} 1",
        "poiesis_http_requests_total{route=\"select\",status=\"200\"} 1",
        "poiesis_cycle_duration_seconds_count 1",
        "poiesis_sessions_live 1",
        "poiesis_http_connections_total 1",
        "poiesis_http_shed_total 0",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    // the gauge tracks closure, and the typed scraper agrees with the text
    client.close(id).unwrap();
    assert_eq!(client.metric_value("poiesis_sessions_live").unwrap(), 0.0);
    assert!(
        client
            .metric_value("poiesis_http_requests_total{route=\"close\",status=\"200\"}")
            .unwrap()
            >= 1.0
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn saturated_workers_shed_with_503_and_retry_after() {
    // one worker, rendezvous queue: a connection is either handed to the
    // idle worker on the spot or shed
    let (addr, handle, join) = spawn_server(ServerConfig {
        threads: 1,
        queue: 0,
        retry_after: Duration::from_secs(2),
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });

    // the stalled-handler fixture: a peer that connects and sends nothing
    // pins the only worker until the read timeout
    let stall = TcpStream::connect(addr).expect("stall connect");
    thread::sleep(Duration::from_millis(300));

    // the next connection finds no idle worker and no queue slot
    let response = raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n", true);
    assert_eq!(status_of(&response), 503, "{response}");
    assert!(response.contains("Retry-After: 2\r\n"), "{response}");
    assert!(response.contains("\"overloaded\""), "{response}");

    // once the stalled peer is timed out the worker frees up again and
    // the shed is visible on /metrics
    drop(stall);
    thread::sleep(Duration::from_millis(2200));
    let mut client = Client::connect(addr).expect("connect after drain");
    assert!(client.metric_value("poiesis_http_shed_total").unwrap() >= 1.0);
    assert_eq!(client.healthz().unwrap(), 0);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn the_first_connection_to_a_fresh_rendezvous_server_is_served() {
    // a returned `spawn` means every worker is up: the very first peer of
    // a one-worker, zero-queue server must reach the idle worker, never
    // the shedder, however the worker thread happens to be scheduled
    for attempt in 0..50 {
        let (addr, handle, join) = spawn_server(ServerConfig {
            threads: 1,
            queue: 0,
            ..ServerConfig::default()
        });
        let response = raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n", true);
        assert_eq!(status_of(&response), 200, "attempt {attempt}: {response}");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}

/// A scratch `--state-dir` that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("poiesis-it-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Spins up a server whose service persists to `dir`.
fn spawn_persistent_server(
    dir: &PathBuf,
) -> (
    SocketAddr,
    poiesis_server::ShutdownHandle,
    thread::JoinHandle<std::io::Result<usize>>,
) {
    let service = PlanningService::new(SessionTemplate::demo(ROWS))
        .with_store(StateStore::open(dir).expect("open state dir"))
        .expect("load state");
    let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    server.spawn().expect("spawn")
}

#[test]
fn a_killed_server_resumes_sessions_from_its_state_dir() {
    let scratch = Scratch::new("restart");

    // ----- incarnation 1: advance a session one full cycle, then explore
    let (id, history_before, frontier_before) = {
        let (addr, handle, join) = spawn_persistent_server(&scratch.0);
        let mut client = Client::connect(addr).expect("connect");
        let id = client.create(Some(&small_request())).unwrap();
        client.explore(id).unwrap();
        client.select(id, 0).unwrap();
        let history = client.history(id).unwrap();
        let frontier = client.explore(id).unwrap();
        // stop without closing the session — the moral equivalent of a
        // kill: the snapshot only ever reflects completed mutations
        handle.shutdown();
        join.join().unwrap().unwrap();
        (id, history, frontier)
    };
    assert!(scratch.0.join(format!("sessions/{id}.json")).exists());

    // ----- incarnation 2: same state dir, fresh process state
    let (addr, handle, join) = spawn_persistent_server(&scratch.0);
    let mut client = Client::connect(addr).expect("reconnect");
    assert_eq!(client.healthz().unwrap(), 1, "session must survive restart");

    // history is intact and the recovered skyline equals the pre-kill one
    assert_eq!(client.history(id).unwrap(), history_before);
    let frontier_after = client.explore(id).unwrap();
    assert_eq!(frontier_after.skyline, frontier_before.skyline);
    assert_eq!(frontier_after.baseline, frontier_before.baseline);

    // the session keeps iterating: select works and lands in cycle 2
    let record = client.select(id, 0).unwrap();
    assert_eq!(record.cycle, 2);

    // restored managers never reissue handles
    let fresh = client.create(Some(&small_request())).unwrap();
    assert!(fresh > id, "fresh handle {fresh} must exceed restored {id}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn default_create_matches_the_facade_default() {
    // POST /sessions with no body must behave exactly like the documented
    // default PlanRequest — pinned here so the docs cannot drift
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let id = client.create(None).unwrap();

    let template = SessionTemplate::demo(ROWS);
    let session = template.builder().build().unwrap();
    let outcome = session.explore().unwrap();
    let frontier = client.explore(id).unwrap();
    assert_eq!(
        frontier.skyline.iter().map(|s| &s.name).collect::<Vec<_>>(),
        outcome
            .skyline_alternatives()
            .map(|a| &a.name)
            .collect::<Vec<_>>()
    );
    client.close(id).unwrap();
    handle.shutdown();
    join.join().unwrap().unwrap();
}
