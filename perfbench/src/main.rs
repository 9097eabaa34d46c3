//! Command-line entry of the repository benchmark.
//!
//! ```text
//! perfbench --workload <plan_grid|plan_iterate|serve_durable|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench steadiness [--runs N] [--seconds S] [--seed N] [--trace 0|1]
//!           [--workload W]...
//! ```
//!
//! One workload prints its notes, every metric by name with its unit, and
//! as its last line the JSON result. `all` runs each workload in its own
//! process and ends with one combined result line. The exit code is 0 only when every operation succeeded.

use perfbench::report::RunReport;
use perfbench::steady::{run_child, steadiness};
use perfbench::{expectations, run_workload, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 10,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag {
            "--workload" => a.workloads.push(value.clone()),
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value `{value}` for {flag}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--runs" => a.runs = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    Ok(a)
}

fn print_report(workload: &str, report: &RunReport) {
    for note in &report.notes {
        println!("{workload}: {note}");
    }
    for m in &report.metrics {
        println!("{workload}: {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
}

fn one(workload: &str, a: &Args) -> Result<bool, String> {
    let report = run_workload(
        workload,
        a.seed,
        a.seconds,
        a.trace,
        &expectations(workload)?,
    )?;
    print_report(workload, &report);
    Ok(report.correct())
}

/// Every workload in its own process, then one combined result line.
fn all(a: &Args) -> Result<bool, String> {
    let mut combined = RunReport::default();
    for workload in WORKLOADS {
        let (lines, result) = run_child(workload, a.seed, a.seconds, a.trace)?;
        for line in &lines[..lines.len() - 1] {
            println!("{line}");
        }
        combined.attempted += 1;
        if !result.correct {
            combined.fail(format!(
                "{workload} reported {} failed operations",
                result.failed
            ));
        }
        for (name, (value, unit)) in result.metrics {
            combined.metric(format!("{workload}.{name}"), value, &unit);
        }
    }
    println!("{}", combined.json_line());
    Ok(combined.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (steady, rest) = match args.first().map(String::as_str) {
        Some("steadiness") => (true, &args[1..]),
        _ => (false, &args[..]),
    };
    let a = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if steady {
        let workloads = if a.workloads.is_empty() {
            WORKLOADS.iter().map(|w| w.to_string()).collect()
        } else {
            a.workloads.clone()
        };
        Ok(steadiness(&workloads, a.runs, a.seconds, a.seed, a.trace))
    } else {
        match a.workloads.as_slice() {
            [w] if w == "all" => all(&a),
            [w] => one(w, &a),
            _ => Err("give exactly one --workload".into()),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
