//! BENCH_SCENARIOS — the scenario-corpus sweep: every registered domain
//! scenario × every search strategy on deterministic seeds.
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
//! bench_scenarios [--tiny] [--out FILE.json] [--csv FILE.csv]
//!                 [--gate committed.json]
//! ```
//!
//! * `--tiny` runs the CI scale (small catalogs and budgets, seconds not
//!   minutes); the emitted JSON records which scale produced it.
//! * Without `--gate`, the run re-baselines: `--out` / `--csv` default to
//!   the committed baseline of its scale — `BENCH_scenarios.{json,csv}`
//!   at full scale, `BENCH_scenarios.tiny.{json,csv}` under `--tiny`.
//!   With `--gate`, only the outputs named explicitly are written, and
//!   the baseline is read before anything is written.
//! * `--gate FILE` compares this run against a committed baseline from
//!   the *same* scale and exits non-zero when any cell's frontier digest
//!   moved (a determinism or planning regression — digests are
//!   bit-exact, there is no tolerance) or any cell lost more than 20 %
//!   combinations/second (a perf regression). Perf is compared
//!   machine-normalized: each cell's speed ratio vs baseline is judged
//!   against the grid's *median* ratio, so a uniformly slower CI box
//!   doesn't trip the gate but a single regressed cell does; a median
//!   below 50 % fails outright as a global regression.

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

/// Where the sweep writes its `(json, csv)` export. A gate run checks a
/// committed baseline and writes only the outputs it is given explicitly;
/// any other run re-baselines its own scale, defaulting to that scale's
/// committed files, so a tiny run never replaces the full-scale baseline.
fn output_paths(
    tiny: bool,
    out: Option<String>,
    csv: Option<String>,
    gate: bool,
) -> (Option<String>, Option<String>) {
    if gate {
        return (out, csv);
    }
    let stem = if tiny {
        "BENCH_scenarios.tiny"
    } else {
        "BENCH_scenarios"
    };
    (
        Some(out.unwrap_or_else(|| format!("{stem}.json"))),
        Some(csv.unwrap_or_else(|| format!("{stem}.csv"))),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let gate = flag_value(&args, "--gate");
    let (out_path, csv_path) = output_paths(
        tiny,
        flag_value(&args, "--out"),
        flag_value(&args, "--csv"),
        gate.is_some(),
    );
    // Read the baseline before the sweep writes anything, so an output
    // path that names the gate file cannot make the run compare against
    // itself.
    let committed = gate.as_ref().map(|gate_path| {
        let text = std::fs::read_to_string(gate_path)
            .unwrap_or_else(|e| panic!("read gate baseline {gate_path}: {e}"));
        Value::parse(&text).expect("parse gate baseline")
    });

    let scale = if tiny {
        SweepScale::tiny()
    } else {
        SweepScale::full()
    };

    println!(
        "BENCH_SCENARIOS — {} scenarios × {} strategies, {} scale\n",
        scenarios::all().len(),
        strategies().len(),
        scale.label
    );

    let mut cells: Vec<Cell> = Vec::new();
    for s in scenarios::all() {
        for strategy in strategies() {
            // The digest assertion needs at least two runs; the 20%
            // perf gate needs quiet timing, and the smallest cells
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
    if let Some(csv_path) = &csv_path {
        std::fs::write(csv_path, csv).expect("write bench csv");
        println!("\nwrote {csv_path}");
    }

    let num = |x: f64| Value::number((x * 1000.0).round() / 1000.0).expect("finite");
    let doc = Value::object([
        ("schema".into(), num(1.0)),
        ("tiny".into(), Value::Bool(tiny)),
        ("scale".into(), Value::String(scale.label.into())),
        ("rows".into(), num(scale.rows as f64)),
        ("budget".into(), num(scale.budget as f64)),
        (
            "entries".into(),
            Value::Array(cells.iter().map(Cell::to_json).collect()),
        ),
    ]);
    if let Some(out_path) = &out_path {
        std::fs::write(out_path, format!("{doc}\n")).expect("write bench json");
        println!("wrote {out_path}");
    }

    if let (Some(gate_path), Some(committed)) = (gate, committed) {
        let base_tiny = committed
            .get("tiny")
            .and_then(|v| v.as_bool("tiny"))
            .unwrap_or(false);
        assert_eq!(
            base_tiny, tiny,
            "gate baseline was produced at a different scale; compare like with like"
        );
        let entries = committed
            .get("entries")
            .and_then(|v| v.as_array("entries").map(<[Value]>::to_vec))
            .expect("gate baseline entries");
        let field = |e: &Value, k: &str| e.get(k).and_then(|v| v.as_str(k).map(str::to_owned)).ok();
        let mut failures = Vec::new();
        // (cell, speed ratio vs baseline) for the perf pass below
        let mut ratios: Vec<(usize, f64)> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let Some(base) = entries.iter().find(|e| {
                field(e, "scenario").as_deref() == Some(cell.scenario)
                    && field(e, "strategy") == Some(cell.strategy.clone())
            }) else {
                failures.push(format!(
                    "{}/{}: cell missing from baseline {gate_path} — re-run the sweep and commit the new baseline",
                    cell.scenario, cell.strategy
                ));
                continue;
            };
            if let Some(base_digest) = field(base, "digest") {
                if base_digest != cell.digest {
                    failures.push(format!(
                        "{}/{}: frontier digest moved {} -> {} (bit-exact gate; rebless goldens + baseline if intended)",
                        cell.scenario, cell.strategy, base_digest, cell.digest
                    ));
                }
            }
            let base_cps = base
                .get("combos_per_sec")
                .and_then(|v| v.as_number("combos_per_sec"))
                .unwrap_or(0.0);
            if base_cps > 0.0 {
                ratios.push((i, cell.combos_per_sec() / base_cps));
            }
        }
        // Perf gate, machine-normalized: the baseline and this run may be
        // on differently-loaded hardware, which shifts *every* cell's
        // combos/s by the same factor. The grid's median speed ratio IS
        // that factor; a genuine per-cell regression falls >20% below
        // it. A genuine global regression drags the median itself down —
        // caught by the median floor.
        let median_ratio = {
            let mut rs: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
            rs.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            if rs.is_empty() {
                1.0
            } else {
                rs[rs.len() / 2]
            }
        };
        for &(i, ratio) in &ratios {
            if ratio < median_ratio * 0.8 {
                failures.push(format!(
                    "{}/{}: combos/s at {:.0}% of baseline, < 80% of the grid median {:.0}% — per-cell perf regression",
                    cells[i].scenario,
                    cells[i].strategy,
                    ratio * 100.0,
                    median_ratio * 100.0
                ));
            }
        }
        if median_ratio < 0.5 {
            failures.push(format!(
                "grid median combos/s fell to {:.0}% of baseline — global perf regression",
                median_ratio * 100.0
            ));
        }
        for e in &entries {
            let (Some(s), Some(k)) = (field(e, "scenario"), field(e, "strategy")) else {
                continue;
            };
            if !cells.iter().any(|c| c.scenario == s && c.strategy == k) {
                failures.push(format!(
                    "{s}/{k}: baseline cell no longer produced by the grid (scenario removed?)"
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("SCENARIO SWEEP REGRESSION vs {gate_path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!(
            "gate vs {gate_path}: OK (all digests bit-exact; no cell lost >20% combos/s \
             vs the grid median ratio {:.0}%)",
            median_ratio * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::output_paths;

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    #[test]
    fn plain_runs_default_to_their_own_scale() {
        assert_eq!(
            output_paths(false, None, None, false),
            (some("BENCH_scenarios.json"), some("BENCH_scenarios.csv"))
        );
        assert_eq!(
            output_paths(true, None, None, false),
            (
                some("BENCH_scenarios.tiny.json"),
                some("BENCH_scenarios.tiny.csv")
            )
        );
    }

    #[test]
    fn explicit_outputs_win() {
        assert_eq!(
            output_paths(true, some("a.json"), None, false),
            (some("a.json"), some("BENCH_scenarios.tiny.csv"))
        );
        assert_eq!(
            output_paths(false, some("a.json"), some("b.csv"), true),
            (some("a.json"), some("b.csv"))
        );
    }

    #[test]
    fn gate_runs_write_only_what_they_are_given() {
        for tiny in [false, true] {
            assert_eq!(output_paths(tiny, None, None, true), (None, None));
            assert_eq!(
                output_paths(tiny, None, some("b.csv"), true),
                (None, some("b.csv"))
            );
        }
    }
}
