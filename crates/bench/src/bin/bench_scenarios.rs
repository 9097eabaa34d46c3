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
//! counters, and the heap allocations per combination (`allocs_per_combo`:
//! every allocation a run of the cell makes, set-up included, over its
//! combinations, to one decimal). A counting global allocator supplies the
//! last; the bin asserts that a cell's last two runs agree on it.
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
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (including reallocations) made so far by the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation into [`ALLOCS`].
struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, so the
// guarantees the caller gives under the `GlobalAlloc` contract are the ones
// `System` requires. Counting touches only an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    allocs_per_combo: String,
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
            ("scenario", Value::String(self.scenario.into())),
            ("strategy", Value::String(self.strategy.clone())),
            ("enumerated", num(self.enumerated as f64)),
            ("frontier", num(self.frontier as f64)),
            ("secs", num(self.secs)),
            ("combos_per_sec", num(self.combos_per_sec())),
            ("us_per_combo", num(self.us_per_combo())),
            ("digest", Value::String(self.digest.clone())),
            ("statically_rejected", num(self.statically_rejected as f64)),
            ("bound_pruned", num(self.bound_pruned as f64)),
            (
                "rejected_by_constraints",
                num(self.rejected_by_constraints as f64),
            ),
            ("failed_applications", num(self.failed_applications as f64)),
            ("failed_evaluations", num(self.failed_evaluations as f64)),
            (
                "allocs_per_combo",
                Value::number(self.allocs_per_combo.parse().expect("formatted number"))
                    .expect("finite"),
            ),
        ])
    }

    fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{:.4},{:.0},{:.2},{},{},{},{},{},{},{}",
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
            self.allocs_per_combo,
        )
    }
}

const CSV_HEADER: &str = "scenario,strategy,enumerated,frontier,secs,combos_per_sec,\
                          us_per_combo,digest,statically_rejected,bound_pruned,\
                          rejected_by_constraints,failed_applications,failed_evaluations,\
                          allocs_per_combo";

/// Runs one cell, returning the run and its heap allocations per
/// combination, formatted to one decimal.
fn counted_run(
    s: &scenarios::Scenario,
    strategy: poiesis::SearchStrategyKind,
    scale: &SweepScale,
) -> (scenarios::sweep::CellRun, String) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let run = run_cell(s, strategy, scale);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let per_combo = allocs as f64 / run.outcome.stats.enumerated.max(1) as f64;
    (run, format!("{per_combo:.1}"))
}

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
            //
            // The allocation count is the last run's: the first run of the
            // process also pays one-off initialisation. Its last two runs
            // must agree on it.
            let (a, mut allocs) = counted_run(&s, strategy, &scale);
            let mut previous_allocs = None;
            let mut best_secs = a.secs;
            let mut total = a.secs;
            let mut runs = 1usize;
            while (runs < 3 || total < 0.25) && runs < 64 {
                let (again, again_allocs) = counted_run(&s, strategy, &scale);
                assert_eq!(
                    a.digest, again.digest,
                    "{}/{strategy}: two runs of the same cell diverged — determinism broken",
                    s.name
                );
                best_secs = best_secs.min(again.secs);
                total += again.secs;
                runs += 1;
                previous_allocs = Some(std::mem::replace(&mut allocs, again_allocs));
            }
            assert_eq!(
                previous_allocs.as_ref(),
                Some(&allocs),
                "{}/{strategy}: the last two runs disagree on allocations per combination",
                s.name
            );
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
                allocs_per_combo: allocs,
            };
            println!(
                "{:<18} {:<12} {:>7} combos  {:>10.0} combos/s  {:>7.1} µs/combo  frontier {:>2}  digest {}  pruned {:>5}  static {:>4}  allocs/combo {:>6}",
                cell.scenario,
                cell.strategy,
                cell.enumerated,
                cell.combos_per_sec(),
                cell.us_per_combo(),
                cell.frontier,
                cell.digest,
                cell.bound_pruned,
                cell.statically_rejected,
                cell.allocs_per_combo,
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
        ("schema", num(1.0)),
        ("rows", num(scale.rows as f64)),
        ("budget", num(scale.budget as f64)),
        (
            "entries",
            Value::Array(cells.iter().map(Cell::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write bench json");
    println!("wrote {out_path}");
}
