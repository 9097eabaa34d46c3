//! The steadiness harness: runs each workload repeatedly in child
//! processes, one seed per run, and prints every metric's median,
//! quartiles and spread (interquartile distance as a share of the
//! median) — the evidence behind the bounds in `BENCHMARK.json`.
//!
//! Around every run it also times a latency-bound ALU loop. The loop
//! does the same work every time, so when its time moves the host got
//! slower or faster; it is printed, never gated.

use crate::stats::{median, quartiles, relative_spread};
use serde::json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Dependent multiply-add steps of the reference loop.
const ALU_STEPS: u64 = 100_000_000;

/// Milliseconds the reference loop takes right now.
pub fn alu_reference_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = black_box(1);
    for _ in 0..black_box(ALU_STEPS) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// One child run's result line, decoded.
pub struct ChildResult {
    /// `correct` field.
    pub correct: bool,
    /// `failed` field.
    pub failed: u64,
    /// Metric values and units by name.
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parses a result line of the form the benchmark prints last.
pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let v = Value::parse(line).map_err(|e| format!("result line: {e}"))?;
    let err = |e: serde::json::JsonError| e.to_string();
    let mut metrics = BTreeMap::new();
    for (name, m) in v
        .get("metrics")
        .and_then(|m| m.as_object("metrics"))
        .map_err(err)?
    {
        let value = m
            .get("value")
            .and_then(|x| x.as_number("value"))
            .map_err(err)?;
        let unit = m.get("unit").and_then(|x| x.as_str("unit")).map_err(err)?;
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    Ok(ChildResult {
        correct: v
            .get("correct")
            .and_then(|c| c.as_bool("correct"))
            .map_err(err)?,
        failed: v
            .get("failed")
            .and_then(|f| f.as_number("failed"))
            .map_err(err)? as u64,
        metrics,
    })
}

/// Runs this executable on one workload and returns its stdout lines and
/// decoded result.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Vec<String>, ChildResult), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.last().ok_or_else(|| {
        format!(
            "{workload}: no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let result = parse_result_line(last)?;
    Ok((lines, result))
}

/// Runs every workload `runs` times with seeds `seed_base..` and prints
/// the per-metric spread table. Returns false when any run failed.
pub fn steadiness(
    workloads: &[String],
    runs: usize,
    seconds: f64,
    seed_base: u64,
    trace: bool,
) -> bool {
    let mut all_ok = true;
    for workload in workloads {
        println!(
            "== {workload}: {runs} runs of {seconds} s, seeds {seed_base}..{}",
            seed_base + runs as u64 - 1
        );
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let seed = seed_base + i as u64;
            let before = alu_reference_ms();
            let result = run_child(workload, seed, seconds, trace);
            let after = alu_reference_ms();
            match result {
                Ok((_, r)) => {
                    let shown: Vec<String> = r
                        .metrics
                        .iter()
                        .map(|(k, (v, _))| format!("{k}={v:.4}"))
                        .collect();
                    println!(
                        "run {i:2} seed {seed:3}  alu {before:7.1} -> {after:7.1} ms  correct={} failed={}  {}",
                        r.correct,
                        r.failed,
                        shown.join(" ")
                    );
                    all_ok &= r.correct;
                    for (k, (v, _)) in r.metrics {
                        values.entry(k).or_default().push(v);
                    }
                }
                Err(e) => {
                    println!("run {i:2} seed {seed:3}  FAILED: {e}");
                    all_ok = false;
                }
            }
        }
        println!(
            "{:<36} {:>14} {:>14} {:>14} {:>8}",
            "metric", "median", "q1", "q3", "spread"
        );
        for (name, v) in &values {
            let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{name:<36} {:>14.4} {q1:>14.4} {q3:>14.4} {:>8.4}",
                median(v).unwrap_or(f64::NAN),
                relative_spread(v).unwrap_or(f64::NAN)
            );
        }
    }
    all_ok
}
