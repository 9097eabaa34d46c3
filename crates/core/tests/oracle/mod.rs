//! The from-base reference planner the equivalence tests hold the planner
//! to. It is a [`CombinationSink`] that the planner's own search strategy
//! drives over the same [`SearchSpace`], and it shares none of the
//! planner's incremental machinery: each combination is applied to a
//! fresh fork of the base by [`apply_combination`], screened in full by
//! [`analysis::screen`], scored by [`evaluate_flow`], admitted by the
//! policy and the objective and offered to a [`SkylineSet`], one at a time
//! on the calling thread.
//!
//! Shared by the `delta_equivalence` and `planner_oracle` integration
//! tests; not every includer uses every item.
#![allow(dead_code)]

use poiesis::apply::{apply_combination, combination_name};
use poiesis::eval::{characteristic_scores, evaluate_flow};
use poiesis::explore::{theoretical_space, SpaceStats};
use poiesis::generate::{generate_candidates, Candidate};
use poiesis::{
    Alternative, CombinationSink, Insertion, Planner, PlannerOutcome, SearchSpace, SkylineSet,
};
use quality::{MeasureVector, SourceStats};
use std::collections::HashMap;

/// What the oracle planned: the fields of a [`PlannerOutcome`] that
/// [`assert_matches`] compares.
pub struct Oracle {
    pub baseline: MeasureVector,
    pub alternatives: Vec<Alternative>,
    pub skyline: Vec<usize>,
    pub stats: SpaceStats,
    pub rejected_by_constraints: usize,
    pub failed_applications: usize,
    pub failed_evaluations: usize,
    pub statically_rejected: usize,
}

/// One cycle of `planner`'s flow and configuration, planned from the base.
pub fn plan(planner: &Planner) -> Oracle {
    run(planner, true)
}

/// [`plan`] without the static screen: a broken design reaches
/// evaluation, where it fails or is scored.
pub fn plan_unscreened(planner: &Planner) -> Oracle {
    run(planner, false)
}

fn run(planner: &Planner, screen: bool) -> Oracle {
    let config = planner.config();
    let base = planner.flow();
    let stats = quality::estimator::source_stats(planner.catalog());
    let baseline = evaluate_flow(
        base,
        planner.catalog(),
        &stats,
        config.eval_mode,
        config.seed,
    )
    .expect("the base flow evaluates");
    let candidates =
        generate_candidates(base, planner.registry(), &config.policy).expect("candidates generate");
    let space = SearchSpace {
        candidates: &candidates,
        policy: &config.policy,
        budget: config.max_alternatives,
    };
    let mut sink = Sink {
        planner,
        candidates: &candidates,
        baseline: &baseline,
        stats: &stats,
        screen,
        skyline: SkylineSet::new(),
        retained: Vec::new(),
        next_seq: 0,
        rejected_by_constraints: 0,
        failed_applications: 0,
        failed_evaluations: 0,
        statically_rejected: 0,
    };
    let report = config.strategy.instantiate().run(&space, &mut sink);
    let frontier = sink.skyline.ids();
    let skyline = (sink.retained.iter().enumerate())
        .filter(|(_, (seq, _))| frontier.contains(seq))
        .map(|(i, _)| i)
        .collect();
    Oracle {
        alternatives: sink.retained.into_iter().map(|(_, alt)| alt).collect(),
        skyline,
        stats: SpaceStats {
            candidates: candidates.len(),
            theoretical: theoretical_space(
                candidates.len(),
                config.policy.combination_depth(candidates.len()),
            ),
            enumerated: report.enumerated,
            conflicts: report.conflicts,
            truncated: report.truncated,
        },
        rejected_by_constraints: sink.rejected_by_constraints,
        failed_applications: sink.failed_applications,
        failed_evaluations: sink.failed_evaluations,
        statically_rejected: sink.statically_rejected,
        baseline,
    }
}

struct Sink<'a> {
    planner: &'a Planner,
    candidates: &'a [Candidate],
    baseline: &'a MeasureVector,
    stats: &'a HashMap<String, SourceStats>,
    screen: bool,
    skyline: SkylineSet,
    /// `(submission sequence number, alternative)`, in submission order.
    retained: Vec<(usize, Alternative)>,
    next_seq: usize,
    rejected_by_constraints: usize,
    failed_applications: usize,
    failed_evaluations: usize,
    statically_rejected: usize,
}

impl Sink<'_> {
    /// The objective scalar of an admitted combination, `None` otherwise.
    fn process(&mut self, seq: usize, combo: &[usize]) -> Option<f64> {
        let config = self.planner.config();
        let base = self.planner.flow();
        let refs: Vec<&Candidate> = combo.iter().map(|&i| &self.candidates[i]).collect();
        let name = combination_name(base, &refs);
        let Ok((flow, applied)) = apply_combination(base, &refs, name.clone()) else {
            self.failed_applications += 1;
            return None;
        };
        if self.screen && analysis::screen(&flow).is_some() {
            self.statically_rejected += 1;
            return None;
        }
        let catalog = self.planner.catalog();
        let Ok(measures) = evaluate_flow(&flow, catalog, self.stats, config.eval_mode, config.seed)
        else {
            self.failed_evaluations += 1;
            return None;
        };
        let objective = &config.objective;
        if !config.policy.admits(self.baseline, &measures)
            || !objective.admits(self.baseline, &measures)
        {
            self.rejected_by_constraints += 1;
            return None;
        }
        let scores = characteristic_scores(&measures, self.baseline, &objective.characteristics());
        let steer = objective.scalarize(&scores);
        let insertion = self.skyline.insert(seq, objective.oriented(&scores));
        let alt = Alternative {
            name,
            flow,
            applied: applied
                .iter()
                .map(|a| format!("{} {}", a.pattern, a.point))
                .collect(),
            combo: combo.to_vec(),
            measures,
            scores,
        };
        match insertion {
            Insertion::Accepted { evicted } => {
                if !config.retain_dominated {
                    self.retained.retain(|(s, _)| !evicted.contains(s));
                }
                self.retained.push((seq, alt));
            }
            Insertion::Dominated if config.retain_dominated => self.retained.push((seq, alt)),
            Insertion::Dominated => {}
        }
        Some(steer)
    }
}

impl CombinationSink for Sink<'_> {
    fn submit(&mut self, combos: &[Vec<usize>]) -> Vec<Option<f64>> {
        combos
            .iter()
            .map(|combo| {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.process(seq, combo)
            })
            .collect()
    }
}

/// Bit patterns of a measure vector, so that a NaN compares equal to itself.
fn bits(m: &MeasureVector) -> Vec<(quality::MeasureId, u64)> {
    m.iter().map(|(id, v)| (id, v.to_bits())).collect()
}

/// `out` is what `oracle` planned: the same space statistics and counters,
/// baseline, alternatives (names, applied patterns, combinations, measure
/// and score bits, in order) and skyline. The oracle prunes nothing, so
/// neither may the planner.
pub fn assert_matches(out: &PlannerOutcome, oracle: &Oracle) {
    assert_eq!(out.stats, oracle.stats, "space statistics");
    assert_eq!(bits(&out.baseline), bits(&oracle.baseline), "baseline");
    assert_eq!(
        out.rejected_by_constraints, oracle.rejected_by_constraints,
        "rejected_by_constraints"
    );
    assert_eq!(
        out.failed_applications, oracle.failed_applications,
        "failed_applications"
    );
    assert_eq!(
        out.failed_evaluations, oracle.failed_evaluations,
        "failed_evaluations"
    );
    assert_eq!(
        out.statically_rejected, oracle.statically_rejected,
        "statically_rejected"
    );
    assert_eq!(out.bound_pruned, 0, "bound_pruned");
    assert_eq!(
        out.alternatives.len(),
        oracle.alternatives.len(),
        "alternatives"
    );
    for (a, b) in out.alternatives.iter().zip(&oracle.alternatives) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.applied, b.applied, "applied patterns of {}", a.name);
        assert_eq!(a.combo, b.combo, "combination of {}", a.name);
        assert_eq!(
            bits(&a.measures),
            bits(&b.measures),
            "measures of {}",
            a.name
        );
        let score_bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            score_bits(&a.scores),
            score_bits(&b.scores),
            "scores of {}",
            a.name
        );
    }
    assert_eq!(out.skyline, oracle.skyline, "skyline");
}
