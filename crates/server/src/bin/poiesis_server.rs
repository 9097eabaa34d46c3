//! `poiesis_server` — serve the planning API over HTTP.
//!
//! ```text
//! poiesis_server [options]
//!     --addr <host:port>     bind address        (default 127.0.0.1:7878)
//!     --threads <N>          worker threads      (default: available cores)
//!     --catalog <spec>       what sessions plan against (default demo:200):
//!                            demo[:rows]              built-in Fig. 2 flow
//!                            scenario:<name>[:rows]   seeded corpus workload
//!                                                     (docs/SCENARIOS.md)
//!                            <model.(xlm|ktr)>[:rows] model file, sources
//!                                                     synthesised per schema
//!     --max-body <bytes>     request body cap    (default 1048576)
//!     --queue <N>            accepted connections that may wait for a
//!                            worker before 503 shedding (default 256)
//!     --retry-after <secs>   Retry-After on shed responses (default 1)
//!     --state-dir <dir>      durable session state: snapshot on every
//!                            mutation, reload on startup (default: none,
//!                            sessions die with the process)
//! ```
//!
//! The server runs until `POST /shutdown` (or the process is killed; with
//! `--state-dir` a kill loses no completed iteration); shutdown is
//! graceful — in-flight requests finish before exit. See `docs/API.md`
//! for the wire contract, `docs/OPERATIONS.md` for metrics/shedding/
//! persistence semantics, and `poiesis_client` for a ready-made driver.

use poiesis_server::{Limits, PlanningService, Server, ServerConfig, SessionTemplate, StateStore};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: poiesis_server [--addr host:port] [--threads N] \
                 [--catalog demo[:rows]|scenario:<name>[:rows]|model[:rows]] \
                 [--max-body bytes] [--queue N] [--retry-after secs] [--state-dir dir]"
            );
            ExitCode::FAILURE
        }
    }
}

fn opt<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} expects a value")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    // reject unknown flags early: a typo'd --catalgo silently serving the
    // demo would be worse than an error
    let known = [
        "--addr",
        "--threads",
        "--catalog",
        "--max-body",
        "--queue",
        "--retry-after",
        "--state-dir",
    ];
    let mut i = 0;
    while i < args.len() {
        if !known.contains(&args[i].as_str()) {
            return Err(format!("unknown flag `{}`", args[i]));
        }
        i += 2;
    }

    let addr = opt(args, "--addr")?.unwrap_or("127.0.0.1:7878");
    let threads: usize = opt(args, "--threads")?
        .map(|v| v.parse().map_err(|_| "--threads expects a number"))
        .transpose()?
        .unwrap_or(0);
    let max_body: usize = opt(args, "--max-body")?
        .map(|v| v.parse().map_err(|_| "--max-body expects a number"))
        .transpose()?
        .unwrap_or_else(|| Limits::default().max_body_bytes);
    let defaults = ServerConfig::default();
    let queue: usize = opt(args, "--queue")?
        .map(|v| v.parse().map_err(|_| "--queue expects a number"))
        .transpose()?
        .unwrap_or(defaults.queue);
    let retry_after: u64 = opt(args, "--retry-after")?
        .map(|v| v.parse().map_err(|_| "--retry-after expects seconds"))
        .transpose()?
        .unwrap_or(defaults.retry_after.as_secs());
    let template = SessionTemplate::from_spec(opt(args, "--catalog")?.unwrap_or("demo:200"))?;

    let config = ServerConfig {
        threads,
        queue,
        retry_after: std::time::Duration::from_secs(retry_after),
        limits: Limits {
            max_body_bytes: max_body,
            ..Limits::default()
        },
        ..defaults
    };
    let label = template.label.clone();
    let mut service = PlanningService::new(template);
    if let Some(dir) = opt(args, "--state-dir")? {
        let store = StateStore::open(dir).map_err(|e| format!("opening state dir {dir}: {e}"))?;
        service = service.with_store(store)?;
        let restored = service.live_sessions();
        if restored > 0 {
            eprintln!("poiesis_server restored {restored} session(s) from {dir}");
        }
    }
    let server = Server::bind(addr, service, config).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("poiesis_server listening on {bound} (catalog {label}); POST /shutdown to stop");
    let served = server.run().map_err(|e| e.to_string())?;
    eprintln!("poiesis_server stopped after {served} connections");
    Ok(())
}
