//! SERVER_LOAD — a load generator for `poiesis_server`, reporting
//! throughput and latency percentiles.
//!
//! ```text
//! server_load [--addr host:port] [--clients 8] [--requests 200]
//!             [--mode health|cycle] [--rows 80] [--budget 200]
//!             [--queue N] [--state-dir dir] [--preload N]
//! ```
//!
//! With no `--addr` the generator self-hosts a server in-process (demo
//! catalog, `--rows` rows) so a single command produces numbers;
//! `--queue` bounds its accept queue (default 256) and `--state-dir`
//! turns on snapshot persistence — point both at the same workload to
//! measure what durability costs (see the capacity-planning section of
//! `docs/OPERATIONS.md`). `--preload N` creates, explores and selects N
//! sessions before timing starts and leaves them open, so a durable run
//! shows how a mutation's cost depends on how many sessions the state
//! directory already holds. Two workloads:
//!
//! * `health` — `GET /healthz` per request: measures the raw HTTP layer
//!   (parse, route, respond) without planning work;
//! * `cycle`  — one create → explore → select → close lifecycle per
//!   request: measures the full planning service under concurrency.
//!
//! Each client thread runs `--requests` requests on one keep-alive
//! connection; per-request wall times are merged and reported as
//! req/s plus p50/p90/p99/max latency, followed by a `/metrics` scrape
//! summary (requests served, connections shed, snapshot writes, and
//! combinations pruned by the static screen).

use poiesis::PlanRequest;
use poiesis_server::{Client, PlanningService, Server, ServerConfig, SessionTemplate, StateStore};
use std::time::{Duration, Instant};

/// Strict flag lookup: a present-but-unparseable value is an error, not
/// a silent fallback to the default (which would report numbers for a
/// different workload than the one asked for).
fn opt<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => {
                eprintln!("error: {name} expects a valid value");
                std::process::exit(1);
            }
        },
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = [
        "--addr",
        "--clients",
        "--requests",
        "--mode",
        "--rows",
        "--budget",
        "--queue",
        "--state-dir",
        "--preload",
    ];
    let mut i = 0;
    while i < args.len() {
        if !known.contains(&args[i].as_str()) {
            eprintln!("error: unknown flag `{}`", args[i]);
            eprintln!(
                "usage: server_load [--addr host:port] [--clients N] [--requests N] \
                 [--mode health|cycle] [--rows N] [--budget N] [--queue N] [--state-dir dir] \
                 [--preload N]"
            );
            std::process::exit(1);
        }
        i += 2;
    }
    let clients: usize = opt(&args, "--clients", 8);
    let requests: usize = opt(&args, "--requests", 200);
    let mode: String = opt(&args, "--mode", "health".to_string());
    let rows: usize = opt(&args, "--rows", 80);
    let budget: usize = opt(&args, "--budget", 200);
    if mode != "health" && mode != "cycle" {
        eprintln!("error: --mode must be health or cycle");
        std::process::exit(1);
    }

    // self-host unless pointed at a running server
    let queue: usize = opt(&args, "--queue", ServerConfig::default().queue);
    let state_dir = args
        .iter()
        .position(|a| a == "--state-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (addr, local) = match args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
    {
        Some(addr) => (addr.clone(), None),
        None => {
            let mut service = PlanningService::new(SessionTemplate::demo(rows));
            if let Some(dir) = &state_dir {
                let store = StateStore::open(dir).expect("open state dir");
                service = service.with_store(store).expect("load state");
            }
            let config = ServerConfig {
                queue,
                ..ServerConfig::default()
            };
            let server = Server::bind("127.0.0.1:0", service, config).expect("bind");
            let (addr, handle, join) = server.spawn().expect("spawn");
            (addr.to_string(), Some((handle, join)))
        }
    };
    println!(
        "server_load: {clients} clients x {requests} {mode} requests against {addr}{}",
        if local.is_some() {
            " (self-hosted)"
        } else {
            ""
        }
    );

    let plan = PlanRequest {
        budget,
        ..PlanRequest::default()
    };
    let preload: usize = opt(&args, "--preload", 0);
    if preload > 0 {
        let mut client = Client::connect(addr.as_str()).expect("connect");
        for _ in 0..preload {
            let id = client.create(Some(&plan)).expect("preload create");
            client.explore(id).expect("preload explore");
            client.select(id, 0).expect("preload select");
        }
        println!("  preloaded {preload} open sessions");
    }
    let wall = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            let mode = mode.clone();
            let plan = plan.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr.as_str()).expect("connect");
                let mut latencies = Vec::with_capacity(requests);
                let mut failures = 0usize;
                for _ in 0..requests {
                    let start = Instant::now();
                    let ok = match mode.as_str() {
                        "health" => client.healthz().is_ok(),
                        _ => run_cycle(&mut client, &plan),
                    };
                    latencies.push(start.elapsed());
                    if !ok {
                        failures += 1;
                    }
                }
                (latencies, failures, client.retries())
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(clients * requests);
    let mut failures = 0usize;
    let mut retries = 0u64;
    for worker in workers {
        let (l, f, r) = worker.join().expect("client thread");
        latencies.extend(l);
        failures += f;
        retries += r;
    }
    let elapsed = wall.elapsed();
    latencies.sort_unstable();

    let total = latencies.len();
    let throughput = total as f64 / elapsed.as_secs_f64();
    println!(
        "  {total} requests in {:.2}s  ->  {throughput:.0} req/s  ({failures} failures)",
        elapsed.as_secs_f64()
    );
    for (label, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        println!(
            "  {label}  {:>9.3} ms",
            percentile(&latencies, p).as_secs_f64() * 1e3
        );
    }
    println!(
        "  max  {:>9.3} ms",
        latencies.last().copied().unwrap_or_default().as_secs_f64() * 1e3
    );
    // client-side counterpart of the server's shed counter: how often
    // the typed client honoured a 503 + Retry-After and tried again
    println!("  poiesis_client_retries_total {retries}");

    // scrape the server's own accounting: served vs shed is the load
    // number that matters once backpressure kicks in
    if let Ok(mut client) = Client::connect(addr.as_str()) {
        let scrape = |c: &mut Client, name: &str| c.metric_value(name).unwrap_or(-1.0);
        println!(
            "  /metrics: connections {:.0}, shed {:.0}, snapshot writes {:.0} ({} errors)",
            scrape(&mut client, "poiesis_http_connections_total"),
            scrape(&mut client, "poiesis_http_shed_total"),
            scrape(&mut client, "poiesis_snapshot_writes_total"),
            scrape(&mut client, "poiesis_snapshot_errors_total"),
        );
        println!(
            "  /metrics: combinations statically rejected {:.0}",
            scrape(&mut client, "poiesis_static_rejections_total"),
        );
    }

    if let Some((handle, join)) = local {
        handle.shutdown();
        join.join().expect("server thread").expect("server run");
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// One full session lifecycle; `true` when every step succeeded.
fn run_cycle(client: &mut Client, plan: &PlanRequest) -> bool {
    let Ok(id) = client.create(Some(plan)) else {
        return false;
    };
    let explored = matches!(client.explore(id), Ok(r) if !r.skyline.is_empty());
    let selected = explored && client.select(id, 0).is_ok();
    client.close(id).is_ok() && selected
}
