//! Manual-redesign baselines.
//!
//! §1 motivates POIESIS by the failure modes of manual ETL redesign: "wrong
//! configuration of ETL operations, incomplete exploitation of quality
//! enhancement options and wrong placement of optimization patterns". To
//! quantify the claim (BASELINE experiment in DESIGN.md) we model a manual
//! engineer as a process that *samples* a bounded number of application
//! points instead of enumerating all of them, optionally ignoring the
//! placement heuristics.

use crate::error::PoiesisError;
use crate::eval::{characteristic_scores, evaluate_flow, EvalMode};
use crate::generate::{generate_uncapped, Candidate};
use crate::planner::Planner;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How the simulated "manual" engineer works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManualStrategy {
    /// Considers a random subset of points, random placement (no
    /// heuristics): the §1 "wrong placement" failure mode.
    Random,
    /// Considers a random subset but places by fitness within it: a careful
    /// engineer who still cannot check every point ("incomplete
    /// exploitation").
    GreedySampled,
}

/// Result of one manual-baseline run.
#[derive(Debug, Clone)]
pub struct ManualOutcome {
    /// Fraction of all valid application points the engineer examined.
    pub coverage: f64,
    /// Scores (per planner dimension) of the best design found.
    pub best_scores: Vec<f64>,
    /// Sum of best scores (scalar for quick comparison).
    pub best_score_sum: f64,
    /// Number of designs the engineer tried.
    pub designs_tried: usize,
}

/// Simulates a manual redesign: the engineer examines at most `effort`
/// candidate placements (sampled per `strategy`), combines up to the same
/// depth as the planner policy, and keeps the best design found.
pub fn manual_redesign(
    planner: &Planner,
    strategy: ManualStrategy,
    effort: usize,
    seed: u64,
) -> Result<ManualOutcome, PoiesisError> {
    let flow = planner.flow();
    let catalog = planner.catalog();
    let stats = quality::estimator::source_stats(catalog);
    let baseline = evaluate_flow(flow, catalog, &stats, EvalMode::Estimate, seed)
        .map_err(|e| PoiesisError::Eval(e.to_string()))?;

    let all = generate_uncapped(flow, planner.registry())
        .map_err(|e| PoiesisError::Pattern(e.to_string()))?;
    let objective = &planner.config().objective;
    if all.is_empty() {
        let best_scores = vec![100.0; objective.dims()];
        let best_score_sum = objective.scalarize(&best_scores);
        return Ok(ManualOutcome {
            coverage: 0.0,
            best_scores,
            best_score_sum,
            designs_tried: 0,
        });
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sampled: Vec<&Candidate> = all.iter().collect();
    sampled.shuffle(&mut rng);
    sampled.truncate(effort.min(all.len()));
    if strategy == ManualStrategy::GreedySampled {
        sampled.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
    }

    let depth = planner.config().policy.max_patterns_per_flow;
    let dims = objective.characteristics();
    let mut best_scores = vec![100.0; dims.len()];
    // the baseline design itself scores 100 on every axis
    let mut best_sum = objective.scalarize(&best_scores);
    let mut tried = 0usize;

    // The engineer tries single placements and one stacked combination —
    // a realistic bounded effort, far from exhaustive.
    let mut trials: Vec<Vec<&Candidate>> = sampled.iter().map(|c| vec![*c]).collect();
    if depth >= 2 && sampled.len() >= 2 {
        trials.push(sampled.iter().take(depth).copied().collect());
    }
    for combo in trials {
        let Ok((alt, _)) = crate::apply::apply_combination(flow, &combo, "manual_trial") else {
            continue; // a conflicting stack: the engineer gives up on it
        };
        let Ok(m) = evaluate_flow(&alt, catalog, &stats, EvalMode::Estimate, seed) else {
            continue;
        };
        tried += 1;
        let scores = characteristic_scores(&m, &baseline, &dims);
        let sum = objective.scalarize(&scores);
        if sum > best_sum {
            best_sum = sum;
            best_scores = scores;
        }
    }

    Ok(ManualOutcome {
        coverage: sampled.len() as f64 / all.len() as f64,
        best_scores,
        best_score_sum: best_sum,
        designs_tried: tried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;
    use datagen::tpch::{tpch_catalog, tpch_flow};
    use datagen::DirtProfile;
    use fcp::PatternRegistry;

    fn planner() -> Planner {
        let (f, _) = tpch_flow();
        let cat = tpch_catalog(200, &DirtProfile::demo(), 5);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        Planner::new(f, cat, reg, PlannerConfig::default())
    }

    #[test]
    fn manual_coverage_is_partial() {
        let p = planner();
        let m = manual_redesign(&p, ManualStrategy::Random, 5, 7).unwrap();
        assert!(m.coverage < 0.5, "manual effort must miss most points");
        assert!(m.designs_tried > 0);
    }

    #[test]
    fn planner_dominates_manual_baseline() {
        let p = planner();
        let out = p.plan().unwrap();
        let planner_best: f64 = out
            .skyline_alternatives()
            .next()
            .map(|a| a.scores.iter().sum())
            .unwrap();
        for strategy in [ManualStrategy::Random, ManualStrategy::GreedySampled] {
            // average manual performance over a few engineers
            let mut sum = 0.0;
            let trials = 5;
            for s in 0..trials {
                sum += manual_redesign(&p, strategy, 5, 100 + s)
                    .unwrap()
                    .best_score_sum;
            }
            let manual_avg = sum / trials as f64;
            assert!(
                planner_best >= manual_avg,
                "{strategy:?}: planner {planner_best} vs manual {manual_avg}"
            );
        }
    }

    #[test]
    fn greedy_beats_or_matches_random_on_average() {
        let p = planner();
        let (mut g, mut r) = (0.0, 0.0);
        let trials = 8;
        for s in 0..trials {
            g += manual_redesign(&p, ManualStrategy::GreedySampled, 6, 200 + s)
                .unwrap()
                .best_score_sum;
            r += manual_redesign(&p, ManualStrategy::Random, 6, 200 + s)
                .unwrap()
                .best_score_sum;
        }
        assert!(g >= r * 0.98, "greedy {g} vs random {r}");
    }
}
