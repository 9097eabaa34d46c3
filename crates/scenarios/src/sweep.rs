//! The deterministic sweep runner: one pinned planner configuration
//! shared by the golden-frontier tests (tiny scale), the `bench_scenarios`
//! bin and `perfbench` (both full scale), so all of them measure *the
//! same cells*.
//!
//! Determinism contract: `workers = 1` (score arithmetic happens in
//! enumeration order), fixed catalog seeds (per scenario), fixed planner
//! seed, and `retain_dominated = false` (the frontier is the output).
//! Under that configuration two runs of [`run_cell`] produce
//! bit-identical frontiers — asserted by the proptests and by the sweep
//! bin running every cell at least three times; CI diffs the full-scale
//! run's digests and counters against the committed
//! `BENCH_scenarios.csv`.

use crate::digest::frontier_digest;
use crate::Scenario;
use fcp::DeploymentPolicy;
use poiesis::{Planner, PlannerConfig, PlannerOutcome, SearchStrategyKind};
use std::time::Instant;

/// Planner seed shared by every cell (catalog seeds vary per scenario).
pub const PLANNER_SEED: u64 = 0x5CE4A210;

/// Sweep scale: catalog rows per base table and the enumeration budget.
#[derive(Debug, Clone, Copy)]
pub struct SweepScale {
    /// Rows per base source table.
    pub rows: usize,
    /// Hard cap on enumerated combinations per cell.
    pub budget: usize,
}

impl SweepScale {
    /// Golden-test scale: the grid the frontier snapshots pin, in about
    /// a second.
    pub fn tiny() -> Self {
        SweepScale {
            rows: 24,
            budget: 400,
        }
    }

    /// Benchmark scale: the grid of `BENCH_scenarios.{json,csv}`
    /// (regenerate with `bench_scenarios`) and of `perfbench`.
    pub fn full() -> Self {
        SweepScale {
            rows: 96,
            budget: 4000,
        }
    }
}

/// The strategy axis of the grid, in column order.
pub fn strategies() -> [SearchStrategyKind; 3] {
    [
        SearchStrategyKind::Exhaustive,
        SearchStrategyKind::Beam { width: 32 },
        SearchStrategyKind::GreedyHillClimb,
    ]
}

/// One completed cell: the planner outcome, its wall time and the
/// frontier digest.
pub struct CellRun {
    /// The planning outcome (frontier, counters, stats).
    pub outcome: PlannerOutcome,
    /// Wall-clock seconds of the planning cycle.
    pub secs: f64,
    /// [`frontier_digest`] of the outcome.
    pub digest: String,
}

/// Runs one (scenario × strategy) cell at the given scale.
pub fn run_cell(s: &Scenario, strategy: SearchStrategyKind, scale: &SweepScale) -> CellRun {
    let policy = DeploymentPolicy {
        top_k_points_per_pattern: usize::MAX,
        min_fitness: 0.0,
        ..DeploymentPolicy::exhaustive(s.depth)
    };
    let config = PlannerConfig {
        policy,
        strategy,
        workers: 1,
        max_alternatives: scale.budget,
        retain_dominated: false,
        objective: s.objective(),
        seed: PLANNER_SEED,
        ..PlannerConfig::default()
    };
    let catalog = s.catalog(scale.rows);
    let registry = fcp::PatternRegistry::standard_for_catalog(&catalog);
    let planner = Planner::new(s.flow(), catalog, registry, config);
    let t = Instant::now();
    let outcome = planner.plan().expect("scenario planning cycle");
    let secs = t.elapsed().as_secs_f64();
    let digest = frontier_digest(&outcome);
    CellRun {
        outcome,
        secs,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cell_produces_a_nonempty_deterministic_frontier() {
        let s = crate::get("log_compaction").unwrap();
        let scale = SweepScale::tiny();
        let a = run_cell(&s, SearchStrategyKind::Exhaustive, &scale);
        let b = run_cell(&s, SearchStrategyKind::Exhaustive, &scale);
        assert!(!a.outcome.skyline.is_empty(), "empty frontier");
        assert_eq!(a.digest, b.digest, "same cell, different frontier bits");
    }
}
