//! The per-layer metric set of the traced run, and the set-up and memory
//! metrics every untraced run reports.
//!
//! Every workload reports every per-layer metric. A layer a workload
//! never reaches reports 0 (the service and persistence layers on the
//! planner workloads), so the same names line up across workloads.

use crate::replay::{LayerCounts, Replayed};
use crate::report::{out_dir, RunReport};
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// The request kinds of the serve workload's lifecycle, in order.
pub const OPS: [&str; 5] = ["create", "explore", "select", "history", "close"];

/// The per-layer metrics, in print order, with their units.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("prepare.us_per_cycle", "us"),
        ("generate.us_per_cycle", "us"),
        ("generate.candidates", "count"),
        ("search.us_per_combo", "us"),
        ("bound.us_per_combo", "us"),
        ("bound.prune_ratio", "ratio"),
        ("analysis.prescreen_us_per_combo", "us"),
        ("analysis.prescreen_reject_ratio", "ratio"),
        ("apply.us_per_combo", "us"),
        ("apply.fail_ratio", "ratio"),
        ("analysis.postscreen_us_per_combo", "us"),
        ("quality.estimate_us_per_combo", "us"),
        ("score.us_per_combo", "us"),
        ("skyline.insert_us_per_combo", "us"),
        ("skyline.accept_ratio", "ratio"),
        ("api.encode_us_per_cycle", "us"),
        ("trace.overhead_ratio", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for prefix in ["service.handle_ms", "server.overhead_ms"] {
        names.extend(OPS.iter().map(|op| (format!("{prefix}.{op}"), "ms")));
    }
    names.extend([
        ("persist.save_ms".to_string(), "ms"),
        ("persist.snapshot_kb".to_string(), "KiB"),
        ("manager.snapshot_session_ms".to_string(), "ms"),
        ("server.shed".to_string(), "count"),
        ("client.retries".to_string(), "count"),
    ]);
    names
}

/// Sums over the replayed cycles of a traced run, plus the values the
/// serve workload measures directly.
#[derive(Debug, Default)]
pub struct LayerSums {
    cycles: u64,
    combos: u64,
    bound_pruned: u64,
    counts: LayerCounts,
    /// Geometric mean over cells of traced ÷ untraced cycle time.
    pub overhead_ratio: f64,
    /// Directly measured values (service, server, persistence layers).
    pub direct: BTreeMap<String, f64>,
}

impl LayerSums {
    /// Adds one replayed cycle's counts.
    pub fn add_cycle(&mut self, r: &Replayed) {
        self.cycles += 1;
        self.combos += r.counters.enumerated as u64;
        self.bound_pruned += r.counters.bound_pruned as u64;
        let (a, b) = (&mut self.counts, &r.counts);
        a.candidates += b.candidates;
        a.prescreened += b.prescreened;
        a.prescreen_rejected += b.prescreen_rejected;
        a.applied += b.applied;
        a.apply_failed += b.apply_failed;
        a.skyline_offered += b.skyline_offered;
        a.skyline_accepted += b.skyline_accepted;
    }

    /// Reports every per-layer metric from the spans and counts.
    pub fn emit(&self, tracer: &Tracer, report: &mut RunReport) {
        let selfs = tracer.self_times();
        let us = |layer: &str| selfs.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e3);
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let ratio = |x: usize, n: usize| if n == 0 { 0.0 } else { x as f64 / n as f64 };
        let c = &self.counts;
        let mut values: BTreeMap<String, f64> = [
            ("prepare.us_per_cycle", per(us("prepare"), self.cycles)),
            ("generate.us_per_cycle", per(us("generate"), self.cycles)),
            ("generate.candidates", per(c.candidates as f64, self.cycles)),
            ("search.us_per_combo", per(us("search"), self.combos)),
            ("bound.us_per_combo", per(us("bound"), self.combos)),
            (
                "bound.prune_ratio",
                per(self.bound_pruned as f64, self.combos),
            ),
            (
                "analysis.prescreen_us_per_combo",
                per(us("prescreen"), self.combos),
            ),
            (
                "analysis.prescreen_reject_ratio",
                ratio(c.prescreen_rejected, c.prescreened),
            ),
            ("apply.us_per_combo", per(us("apply"), self.combos)),
            ("apply.fail_ratio", ratio(c.apply_failed, c.applied)),
            (
                "analysis.postscreen_us_per_combo",
                per(us("postscreen"), self.combos),
            ),
            (
                "quality.estimate_us_per_combo",
                per(us("estimate"), self.combos),
            ),
            ("score.us_per_combo", per(us("score"), self.combos)),
            (
                "skyline.insert_us_per_combo",
                per(us("skyline"), self.combos),
            ),
            (
                "skyline.accept_ratio",
                ratio(c.skyline_accepted, c.skyline_offered),
            ),
            (
                "api.encode_us_per_cycle",
                per(us("encode"), selfs.get("encode").map_or(0, |t| t.count)),
            ),
            ("trace.overhead_ratio", self.overhead_ratio),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        values.extend(self.direct.iter().map(|(k, v)| (k.clone(), *v)));
        for (name, unit) in per_layer_names() {
            let value = values.remove(&name).unwrap_or(0.0);
            report.metric(name, value, unit);
        }
        debug_assert!(values.is_empty(), "unlisted per-layer metrics: {values:?}");
    }
}

/// Writes the traced run's spans under the benchmark's `out/` directory
/// and notes where.
pub fn write_spans(tracer: &Tracer, workload: &str, report: &mut RunReport) {
    let path = out_dir().join(format!("spans-{workload}.tsv"));
    match tracer.write(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.notes.push(format!("could not write spans: {e}")),
    }
}

/// `setup_s` (median of the run's set-ups) and `peak_rss_mb` (`VmHWM`
/// read when the workload's measured part ended).
pub fn emit_common(report: &mut RunReport, setup_secs: &[f64], peak_mb: Option<f64>) {
    report.metric("setup_s", median(setup_secs).unwrap_or(f64::NAN), "s");
    report.metric("peak_rss_mb", peak_mb.unwrap_or(f64::NAN), "MiB");
}
