//! `perfbench` — the repository benchmark: three workloads over the
//! POIESIS planner and planning service, end-to-end metrics from untraced
//! runs, per-layer metrics from a traced replay. See `README.md` in this
//! directory for the workload, metric and layer map.

#![forbid(unsafe_code)]

pub mod layers;
pub mod plan;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod steady;
pub mod trace;

use report::{Expectations, RunReport};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 3] = ["plan_grid", "plan_iterate", "serve_durable"];

/// The committed full-scale exhaustive digests of `BENCH_scenarios.json`
/// (read, never written), keyed by scenario.
pub fn grid_expectations() -> Result<Expectations, String> {
    use serde::json::Value;
    let path = report::repo_root().join("BENCH_scenarios.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let v = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let scale = scenarios::sweep::SweepScale::full();
    let field = |k: &str| v.get(k).and_then(|x| x.as_number(k)).unwrap_or(-1.0);
    if field("rows") != scale.rows as f64 || field("budget") != scale.budget as f64 {
        return Err(format!("{} is not the full-scale sweep", path.display()));
    }
    let entries = v
        .get("entries")
        .and_then(|e| e.as_array("entries"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut pairs = Vec::new();
    for e in entries {
        let get = |k: &str| e.get(k).and_then(|x| x.as_str(k)).map(str::to_string);
        let (scenario, strategy, digest) = (get("scenario"), get("strategy"), get("digest"));
        let (Ok(scenario), Ok(strategy), Ok(digest)) = (scenario, strategy, digest) else {
            return Err(format!("{}: malformed entry", path.display()));
        };
        if strategy == "exhaustive" {
            pairs.push((scenario, digest));
        }
    }
    Ok(Expectations::from_pairs(pairs))
}

/// The expectations `workload` is checked against.
pub fn expectations(workload: &str) -> Result<Expectations, String> {
    match workload {
        "plan_grid" => grid_expectations(),
        _ => report::load_expected(&report::expected_path(), workload),
    }
}

/// Runs one workload in this process.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect: &Expectations,
) -> Result<RunReport, String> {
    Ok(match workload {
        "plan_grid" => plan::run(workload, plan::grid_chains, seed, seconds, trace, expect),
        "plan_iterate" => plan::run(workload, plan::iterate_chains, seed, seconds, trace, expect),
        "serve_durable" => serve::run(seed, seconds, trace, expect),
        _ => {
            return Err(format!(
                "unknown workload `{workload}`; known: {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}
