//! BENCH_SCENARIOS — the scenario-corpus sweep: every registered domain
//! scenario × every search strategy on deterministic seeds, at full
//! scale ([`SweepScale::full`]).
//!
//! Each cell of the grid is planned repeatedly (at least three times,
//! until ~0.25 s of accumulated wall time) through the shared
//! `scenarios::sweep::run_cell` harness; every run's frontier digest is
//! asserted bit-identical — the same determinism contract the golden
//! snapshot tests pin — and the best run's timing is recorded. The
//! export carries, per cell: combinations/second, µs per combination,
//! frontier size, the 16-hex skyline digest, and the planner's
//! statically-rejected / bound-pruned / constraint-rejected / failed
//! counters.
//!
//! ```text
//! bench_scenarios [--out FILE.json] [--csv FILE.csv]
//! ```
//!
//! `--out` / `--csv` default to the committed `BENCH_scenarios.{json,csv}`,
//! so a bare run re-baselines them. CI compares a run's non-timing CSV
//! columns against the committed CSV; planning speed is measured by
//! `perfbench`.

use scenarios::sweep::{run_cell, strategies, SweepScale};
use serde::json::Value;

struct Cell {
    scenario: &'static str,
    strategy: String,
    enumerated: usize,
    frontier: usize,
    secs: f64,
    digest: String,
    statically_rejected: usize,
    bound_pruned: usize,
    rejected_by_constraints: usize,
    failed_applications: usize,
    failed_evaluations: usize,
}

impl Cell {
    fn combos_per_sec(&self) -> f64 {
        self.enumerated as f64 / self.secs.max(1e-9)
    }
    fn us_per_combo(&self) -> f64 {
        self.secs * 1e6 / self.enumerated.max(1) as f64
    }

    fn to_json(&self) -> Value {
        let num = |x: f64| Value::number((x * 1000.0).round() / 1000.0).expect("finite");
        Value::object([
            ("scenario".into(), Value::String(self.scenario.into())),
            ("strategy".into(), Value::String(self.strategy.clone())),
            ("enumerated".into(), num(self.enumerated as f64)),
            ("frontier".into(), num(self.frontier as f64)),
            ("secs".into(), num(self.secs)),
            ("combos_per_sec".into(), num(self.combos_per_sec())),
            ("us_per_combo".into(), num(self.us_per_combo())),
            ("digest".into(), Value::String(self.digest.clone())),
            (
                "statically_rejected".into(),
                num(self.statically_rejected as f64),
            ),
            ("bound_pruned".into(), num(self.bound_pruned as f64)),
            (
                "rejected_by_constraints".into(),
                num(self.rejected_by_constraints as f64),
            ),
            (
                "failed_applications".into(),
                num(self.failed_applications as f64),
            ),
            (
                "failed_evaluations".into(),
                num(self.failed_evaluations as f64),
            ),
        ])
    }

    fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{:.4},{:.0},{:.2},{},{},{},{},{},{}",
            self.scenario,
            self.strategy,
            self.enumerated,
            self.frontier,
            self.secs,
            self.combos_per_sec(),
            self.us_per_combo(),
            self.digest,
            self.statically_rejected,
            self.bound_pruned,
            self.rejected_by_constraints,
            self.failed_applications,
            self.failed_evaluations,
        )
    }
}

const CSV_HEADER: &str = "scenario,strategy,enumerated,frontier,secs,combos_per_sec,\
                          us_per_combo,digest,statically_rejected,bound_pruned,\
                          rejected_by_constraints,failed_applications,failed_evaluations";

/// The value following flag `name`, if the flag is present.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_scenarios.json".into());
    let csv_path = flag_value(&args, "--csv").unwrap_or_else(|| "BENCH_scenarios.csv".into());
    let scale = SweepScale::full();

    println!(
        "BENCH_SCENARIOS — {} scenarios × {} strategies, full scale\n",
        scenarios::all().len(),
        strategies().len(),
    );

    let mut cells: Vec<Cell> = Vec::new();
    for s in scenarios::all() {
        for strategy in strategies() {
            // The digest assertion needs at least two runs, and the
            // exported timing must be quiet although the smallest cells
            // finish in well under a millisecond — so repeat each cell
            // until ~0.25s of accumulated wall time (min 3, max 64
            // runs) and take the best. The minimum converges to the
            // true per-cell cost because scheduler noise is one-sided.
            let a = run_cell(&s, strategy, &scale);
            let mut best_secs = a.secs;
            let mut total = a.secs;
            let mut runs = 1usize;
            while (runs < 3 || total < 0.25) && runs < 64 {
                let again = run_cell(&s, strategy, &scale);
                assert_eq!(
                    a.digest, again.digest,
                    "{}/{strategy}: two runs of the same cell diverged — determinism broken",
                    s.name
                );
                best_secs = best_secs.min(again.secs);
                total += again.secs;
                runs += 1;
            }
            let (out, secs) = (a.outcome, best_secs);
            let cell = Cell {
                scenario: s.name,
                strategy: strategy.to_string(),
                enumerated: out.stats.enumerated,
                frontier: out.skyline.len(),
                secs,
                digest: a.digest,
                statically_rejected: out.statically_rejected,
                bound_pruned: out.bound_pruned,
                rejected_by_constraints: out.rejected_by_constraints,
                failed_applications: out.failed_applications,
                failed_evaluations: out.failed_evaluations,
            };
            println!(
                "{:<18} {:<12} {:>7} combos  {:>10.0} combos/s  {:>7.1} µs/combo  frontier {:>2}  digest {}  pruned {:>5}  static {:>4}",
                cell.scenario,
                cell.strategy,
                cell.enumerated,
                cell.combos_per_sec(),
                cell.us_per_combo(),
                cell.frontier,
                cell.digest,
                cell.bound_pruned,
                cell.statically_rejected,
            );
            cells.push(cell);
        }
    }

    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    for cell in &cells {
        csv.push_str(&cell.to_csv());
        csv.push('\n');
    }
    std::fs::write(&csv_path, csv).expect("write bench csv");
    println!("\nwrote {csv_path}");

    let num = |x: f64| Value::number((x * 1000.0).round() / 1000.0).expect("finite");
    let doc = Value::object([
        ("schema".into(), num(1.0)),
        ("rows".into(), num(scale.rows as f64)),
        ("budget".into(), num(scale.budget as f64)),
        (
            "entries".into(),
            Value::Array(cells.iter().map(Cell::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write bench json");
    println!("wrote {out_path}");
}
