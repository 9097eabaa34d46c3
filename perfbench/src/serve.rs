//! The `serve_durable` workload: the planning service over HTTP with
//! durable state.
//!
//! Set-up spawns an in-process `Server` (2 worker threads, default queue)
//! over a `StateStore` directory, waits for `/healthz`, and preloads
//! [`PRELOAD`] sessions, each explored and selected once. Then
//! [`CLIENTS`] keep-alive clients run a closed loop of create → explore
//! → select → history → close lifecycles. Every create, select and close
//! rewrites and fsyncs the whole snapshot under one mutex, while explore
//! and history only read, so the loop mixes a write path and a read path.
//! Every session is created with [`request`], the repository's own
//! load generator's cycle-mode request. The seed picks the frontier rank
//! each preloaded session selects, so it shapes the durable state the
//! loop rewrites; the loop's lifecycles select rank 0.

use crate::layers::{emit_common, LayerSums, OPS};
use crate::replay::replay;
use crate::report::{out_dir, peak_rss_mb, Expectations, RunReport, SeedRng};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use poiesis::{FromJson, IterationRecord, PlanRequest, PlanResponse, Planner, ToJson};
use poiesis_server::{
    Client, PlanningService, Request, Server, ServerConfig, SessionTemplate, ShutdownHandle,
    StateStore,
};
use serde::json::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sessions loaded before timing starts.
pub const PRELOAD: usize = 150;
/// Closed-loop clients (one keep-alive connection each).
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const THREADS: usize = 2;
/// Rows per table of the demo catalog the service plans over.
pub const ROWS: usize = 80;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Planning-cycle replays in the traced run.
const REPLAYS: usize = 5;
/// Explore budget of every session.
pub const BUDGET: usize = 200;

/// The service's session template.
pub fn template() -> SessionTemplate {
    SessionTemplate::demo(ROWS)
}

/// The request every session is created with: the one the repository's
/// load generator sends in cycle mode (`server_load --mode cycle`:
/// `PlanRequest::default()` at its default budget), with one planning
/// worker.
pub fn request() -> PlanRequest {
    PlanRequest {
        budget: BUDGET,
        workers: 1,
        ..PlanRequest::default()
    }
}

/// The key of the explore response's digest in `expected_digests.txt`.
const DIGEST_KEY: &str = "explore";

/// Digest of an explore response, minus the session handle.
pub fn response_digest(response: &PlanResponse) -> String {
    let mut r = response.clone();
    r.session = None;
    scenarios::digest::digest_lines(&[r.to_json_string()])
}

/// Where requests go: the HTTP client, or the in-process twin service.
trait Api {
    /// Sends one request; returns the body of a 2xx response.
    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<String, String>;
}

impl Api for Client {
    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
        let r = self
            .request_with_retry(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        ok_body(r.status, r.body, method, path)
    }
}

impl Api for &PlanningService {
    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.unwrap_or_default().as_bytes().to_vec(),
            keep_alive: true,
        };
        let r = self.handle(&request);
        ok_body(r.status, r.body, method, path)
    }
}

fn ok_body(status: u16, body: String, method: &str, path: &str) -> Result<String, String> {
    if (200..300).contains(&status) {
        Ok(body)
    } else {
        Err(format!("{method} {path}: status {status}: {body}"))
    }
}

/// Round-trip times per operation, milliseconds.
#[derive(Debug, Default)]
struct OpTimes(BTreeMap<&'static str, Vec<f64>>);

impl OpTimes {
    fn timed<T>(&mut self, op: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0
            .entry(op)
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn last(&self, op: &str) -> Option<f64> {
        self.0.get(op).and_then(|v| v.last().copied())
    }

    fn merge(&mut self, other: OpTimes) {
        for (op, v) in other.0 {
            self.0.entry(op).or_default().extend(v);
        }
    }

    fn get(&self, ops: &[&str]) -> Vec<f64> {
        ops.iter()
            .flat_map(|op| self.0.get(op).into_iter().flatten().copied())
            .collect()
    }
}

/// Counts and samples of one client's requests.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    /// Combinations one explore evaluates (deterministic).
    combos: u64,
    /// Explore round trips of completed lifecycles, ms.
    explore_ms: Vec<f64>,
    /// Whole create → close lifecycles, ms.
    lifecycle_ms: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.combos = self.combos.max(other.combos);
        self.explore_ms.extend(other.explore_ms);
        self.lifecycle_ms.extend(other.lifecycle_ms);
    }
}

/// One session: create → explore → select (the frontier rank `pick`
/// modulo the frontier size), then history → close when `full`. Each
/// request is one attempted operation; the first failure ends the
/// session.
fn session(
    api: &mut impl Api,
    pick: u64,
    full: bool,
    expect: &Expectations,
    times: &mut OpTimes,
    tally: &mut Tally,
) {
    let body = request().to_json_string();
    let started = Instant::now();
    let outcome = (|| -> Result<u64, String> {
        tally.attempted += 1;
        let created = times.timed("create", || api.call("POST", "/sessions", Some(&body)))?;
        let id = Value::parse(&created)
            .and_then(|v| v.get("session")?.as_usize("session"))
            .map_err(|e| format!("create: {e}"))?;

        tally.attempted += 1;
        let explored = times.timed("explore", || {
            api.call("POST", &format!("/sessions/{id}/explore"), None)
        })?;
        let response =
            PlanResponse::from_json_str(&explored).map_err(|e| format!("explore: {e}"))?;
        expect.check(DIGEST_KEY, &response_digest(&response))?;
        if response.skyline.is_empty() {
            return Err("explore: empty frontier".to_string());
        }
        let rank = (pick % response.skyline.len() as u64) as usize;
        let chosen = &response.skyline[rank].name;

        tally.attempted += 1;
        let selected = times.timed("select", || {
            api.call(
                "POST",
                &format!("/sessions/{id}/select"),
                Some(&format!("{{\"rank\":{rank}}}")),
            )
        })?;
        let record = Value::parse(&selected)
            .and_then(|v| IterationRecord::from_json(v.get("record")?))
            .map_err(|e| format!("select: {e}"))?;
        if &record.selected != chosen {
            return Err(format!(
                "select integrated {} instead of {chosen}",
                record.selected
            ));
        }
        if !full {
            return Ok(response.enumerated as u64);
        }

        tally.attempted += 1;
        let history = times.timed("history", || {
            api.call("GET", &format!("/sessions/{id}/history"), None)
        })?;
        let records: Vec<IterationRecord> = Value::parse(&history)
            .and_then(|v| {
                v.get("history")?
                    .as_array("history")?
                    .iter()
                    .map(IterationRecord::from_json)
                    .collect()
            })
            .map_err(|e| format!("history: {e}"))?;
        if records != [record] {
            return Err(format!(
                "history of session {id} does not hold its one selection"
            ));
        }

        tally.attempted += 1;
        times.timed("close", || {
            api.call("DELETE", &format!("/sessions/{id}"), None)
        })?;
        Ok(response.enumerated as u64)
    })();
    match outcome {
        Ok(combos) => {
            if full {
                tally.combos = combos;
                tally.explore_ms.extend(times.last("explore"));
                tally
                    .lifecycle_ms
                    .push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
        Err(e) => tally.failures.push(e),
    }
}

/// A running server over a fresh state directory.
struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    join: JoinHandle<std::io::Result<usize>>,
    dir: PathBuf,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        let served = self
            .join
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("server: {e}"))?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("removing state dir: {e}"))
    }
}

fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = out_dir().join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn durable_service(dir: &Path) -> Result<PlanningService, String> {
    let store = StateStore::open(dir).map_err(|e| format!("state dir: {e}"))?;
    PlanningService::new(template()).with_store(store)
}

/// Set-up: state dir, server spawn, readiness, preload.
fn set_up(preload: &[u64], expect: &Expectations, tally: &mut Tally) -> Result<Running, String> {
    let dir = fresh_dir("state")?;
    let config = ServerConfig {
        threads: THREADS,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", durable_service(&dir)?, config)
        .map_err(|e| format!("bind: {e}"))?;
    let (addr, handle, join) = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let running = Running {
        addr,
        handle,
        join,
        dir,
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = loop {
        match Client::connect(addr).and_then(|mut c| c.healthz().map(|_| c)) {
            Ok(c) => break c,
            Err(e) if Instant::now() > deadline => {
                running.stop()?;
                return Err(format!("server never became healthy: {e}"));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let mut times = OpTimes::default();
    for &pick in preload {
        session(&mut client, pick, false, expect, &mut times, tally);
    }
    Ok(running)
}

/// The closed loop: [`CLIENTS`] clients run lifecycles until `seconds`
/// have passed.
fn closed_loop(
    addr: SocketAddr,
    seconds: f64,
    expect: &Expectations,
) -> (OpTimes, Tally, f64, u64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let results: Vec<(OpTimes, Tally, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut times = OpTimes::default();
                    let mut tally = Tally::default();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            tally.attempted += 1;
                            tally.failures.push(format!("connect: {e}"));
                            return (times, tally, 0);
                        }
                    };
                    while Instant::now() < deadline {
                        session(&mut client, 0, true, expect, &mut times, &mut tally);
                    }
                    (times, tally, client.retries())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut times = OpTimes::default();
    let mut tally = Tally::default();
    let mut retries = 0;
    for (t, y, r) in results {
        times.merge(t);
        tally.absorb(y);
        retries += r;
    }
    (times, tally, wall, retries)
}

fn ms(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(0.0)
}

/// Runs `serve_durable` and reports its metrics.
pub fn run(seed: u64, seconds: f64, trace: bool, expect: &Expectations) -> RunReport {
    let mut report = RunReport::default();
    let mut rng = SeedRng::new(seed);
    let preload: Vec<u64> = (0..PRELOAD).map(|_| rng.next_u64()).collect();
    let mut tally = Tally::default();

    // The loop runs on the first server, before any other server's
    // threads have come and gone. glibc hands a new thread the malloc
    // arena an exited thread left behind, so set-ups run before the loop
    // would make which arena holds the loop's snapshot slack (and
    // `VmHWM` with it) vary from run to run. The further set-ups that
    // `setup_s` takes its median over follow the loop.
    let t = Instant::now();
    let running = set_up(&preload, expect, &mut tally);
    let mut setup_secs = vec![t.elapsed().as_secs_f64()];
    let server = match running {
        Ok(r) => r,
        Err(e) => {
            tally.attempted += 1;
            tally.failures.push(e);
            finish(&mut report, tally);
            return report;
        }
    };

    let (times, loop_tally, wall, retries) = closed_loop(server.addr, seconds, expect);
    let peak_mb = peak_rss_mb();
    let lifecycles = loop_tally.lifecycle_ms.len();
    let combos = loop_tally.combos;
    let explore_p50 = median(&loop_tally.explore_ms).unwrap_or(f64::NAN);
    let lifecycle_s = median(&loop_tally.lifecycle_ms).unwrap_or(f64::NAN) / 1e3;
    tally.absorb(loop_tally);
    let shed =
        Client::connect(server.addr).and_then(|mut c| c.metric_value("poiesis_http_shed_total"));
    if let Err(e) = server.stop() {
        tally.attempted += 1;
        tally.failures.push(e);
    }
    let setups = if trace { 1 } else { SETUPS };
    for _ in 1..setups {
        let t = Instant::now();
        let running = set_up(&preload, expect, &mut tally);
        setup_secs.push(t.elapsed().as_secs_f64());
        if let Err(e) = running.and_then(Running::stop) {
            tally.attempted += 1;
            tally.failures.push(e);
        }
    }

    let explore = times.get(&["explore"]);
    let mutation = times.get(&["create", "select", "close"]);
    report.notes.push(format!(
        "{lifecycles} lifecycles in {wall:.1} s: {:.2} lifecycles/s; explore p50 {:.3} ms p90 {:.3} ms (n={}); \
         mutation p50 {:.3} ms p90 {:.3} ms (n={}); {combos} combinations per explore; {PRELOAD} preloaded sessions",
        lifecycles as f64 / wall,
        ms(&explore, 0.5),
        ms(&explore, 0.9),
        explore.len(),
        ms(&mutation, 0.5),
        ms(&mutation, 0.9),
        mutation.len(),
    ));

    if trace {
        let mut sums = LayerSums::default();
        let mut tracer = Tracer::new();
        match shed {
            Ok(v) => {
                sums.direct.insert("server.shed".into(), v);
            }
            Err(e) => {
                tally.attempted += 1;
                tally.failures.push(format!("scrape: {e}"));
            }
        }
        sums.direct.insert("client.retries".into(), retries as f64);
        if let Err(e) = trace_layers(&preload, &times, expect, &mut tally, &mut sums, &mut tracer) {
            tally.attempted += 1;
            tally.failures.push(e);
        }
        sums.emit(&tracer, &mut report);
        crate::layers::write_spans(&tracer, "serve_durable", &mut report);
    } else {
        report.metric("combos_per_s", combos as f64 / lifecycle_s, "1/s");
        report.metric("cycle_ms", explore_p50, "ms");
        emit_common(&mut report, &setup_secs, peak_mb);
    }
    finish(&mut report, tally);
    report
}

fn finish(report: &mut RunReport, tally: Tally) {
    report.attempted += tally.attempted;
    for f in tally.failures {
        report.fail(f);
    }
}

/// The traced half of `serve_durable`: the service layers through an
/// in-process twin with the same preload, the persistence layer at the
/// preload's size, and the planner layers through replays of the cycle a
/// fresh session's explore runs.
fn trace_layers(
    preload: &[u64],
    rtt: &OpTimes,
    expect: &Expectations,
    tally: &mut Tally,
    sums: &mut LayerSums,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let dir = fresh_dir("twin")?;
    let twin = durable_service(&dir)?;
    let mut api = &twin;
    let mut scratch = OpTimes::default();
    for &pick in preload {
        session(&mut api, pick, false, expect, &mut scratch, tally);
    }
    let mut handled = OpTimes::default();
    for _ in 0..60 {
        session(&mut api, 0, true, expect, &mut handled, tally);
    }
    for op in OPS {
        let handle = median(&handled.get(&[op])).unwrap_or(0.0);
        let round_trip = median(&rtt.get(&[op])).unwrap_or(0.0);
        sums.direct
            .insert(format!("service.handle_ms.{op}"), handle);
        sums.direct
            .insert(format!("server.overhead_ms.{op}"), round_trip - handle);
    }

    let manager = twin.manager();
    let mut snap_ms = Vec::new();
    for id in manager.ids() {
        let t = Instant::now();
        manager
            .snapshot_session(id)
            .map_err(|e| format!("snapshot_session: {e}"))?;
        snap_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    sums.direct.insert(
        "manager.snapshot_session_ms".into(),
        median(&snap_ms).unwrap_or(0.0),
    );
    let save_dir = fresh_dir("save")?;
    let store = StateStore::open(&save_dir).map_err(|e| format!("state dir: {e}"))?;
    let snapshot = manager.snapshot();
    let mut save_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        store.save(&snapshot).map_err(|e| format!("save: {e}"))?;
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let bytes = std::fs::metadata(store.path())
        .map_err(|e| e.to_string())?
        .len();
    sums.direct
        .insert("persist.save_ms".into(), median(&save_ms).unwrap_or(0.0));
    sums.direct
        .insert("persist.snapshot_kb".into(), bytes as f64 / 1024.0);
    drop(twin);
    for d in [&dir, &save_dir] {
        std::fs::remove_dir_all(d).map_err(|e| format!("removing {}: {e}", d.display()))?;
    }

    let planner = service_planner(&template(), &request())?;
    let stats = quality::estimator::source_stats(planner.catalog());
    let (mut plain, mut traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPLAYS {
        tally.attempted += 1;
        let t = Instant::now();
        let outcome = planner.plan().map_err(|e| format!("explore cycle: {e}"))?;
        plain = plain.min(t.elapsed().as_secs_f64());
        let r = replay(&planner, &stats, tracer)?;
        if let Err(e) = r.matches(&outcome) {
            tally.failures.push(format!("explore cycle: replay: {e}"));
            continue;
        }
        traced = traced.min(r.cycle_ns as f64 / 1e9);
        sums.add_cycle(&r);
        tracer.span("encode", || {
            PlanResponse::from_outcome(&outcome, &planner.config().objective, None).to_json_string()
        });
    }
    sums.overhead_ratio = traced / plain;
    Ok(())
}

/// The planner the service builds for a fresh session created with
/// `request` — what the traced run replays.
pub fn service_planner(
    template: &SessionTemplate,
    request: &PlanRequest,
) -> Result<Planner, String> {
    request
        .apply(template.builder())
        .and_then(|b| b.build_planner())
        .map_err(|e| e.to_string())
}
