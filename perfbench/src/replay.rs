//! Layer-by-layer replay of one planning cycle.
//!
//! [`replay`] re-enacts what `Planner::plan_with` does for a single-worker
//! estimate-mode cycle, from outside the planner: it calls the same public
//! functions in the same order, feeds its own [`CombinationSink`] to the
//! configured strategy, and wraps every call in a [`Tracer`] span. The
//! replay counts only if [`Replayed::matches`] confirms it reproduced the
//! planner's frontier (names and raw measure bits) and its counters
//! exactly — otherwise the per-layer times describe some other program.

use crate::trace::Tracer;
use etl_model::{CowDelta, EtlFlow, SchemaTable};
use fcp::PatternContext;
use poiesis::apply::{apply_combination_incremental, CarriedTable, LabelTable};
use poiesis::eval::{characteristic_scores, evaluate_flow};
use poiesis::generate::generate_candidates;
use poiesis::{
    Alternative, Candidate, CombinationSink, Direction, EvalMode, Insertion, Planner,
    PlannerOutcome, SearchSpace, SkylineSet,
};
use quality::{Characteristic, EstimateBaseline, GainProfile, MeasureVector, SourceStats};
use std::collections::HashMap;

/// The counters a cycle reports, compared field by field with the
/// planner's [`PlannerOutcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Combinations the strategy submitted.
    pub enumerated: usize,
    /// Dropped by the pre- or post-screen.
    pub statically_rejected: usize,
    /// Failed while applying.
    pub failed_applications: usize,
    /// Skipped by the bound pruner.
    pub bound_pruned: usize,
    /// Rejected by policy or objective constraints.
    pub rejected_by_constraints: usize,
}

impl Counters {
    /// The planner's counters for the same cycle.
    pub fn of(outcome: &PlannerOutcome) -> Self {
        Counters {
            enumerated: outcome.stats.enumerated,
            statically_rejected: outcome.statically_rejected,
            failed_applications: outcome.failed_applications,
            bound_pruned: outcome.bound_pruned,
            rejected_by_constraints: outcome.rejected_by_constraints,
        }
    }
}

/// Work counts at the layer boundaries, for the per-layer ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Candidates generated.
    pub candidates: usize,
    /// Combinations that reached the pre-screen.
    pub prescreened: usize,
    /// Combinations the pre-screen rejected.
    pub prescreen_rejected: usize,
    /// Combinations applied (or attempted).
    pub applied: usize,
    /// Combinations whose application failed.
    pub apply_failed: usize,
    /// Points offered to the skyline.
    pub skyline_offered: usize,
    /// Points the skyline accepted.
    pub skyline_accepted: usize,
}

/// What one replayed cycle produced.
pub struct Replayed {
    /// Canonical frontier lines, in the format of
    /// `scenarios::digest::frontier_lines`.
    pub lines: Vec<String>,
    /// The cycle's counters.
    pub counters: Counters,
    /// Layer work counts.
    pub counts: LayerCounts,
    /// Duration of the whole cycle span, nanoseconds.
    pub cycle_ns: u64,
}

impl Replayed {
    /// `Ok` when the replay reproduced `outcome` exactly, else a
    /// description of the first difference.
    pub fn matches(&self, outcome: &PlannerOutcome) -> Result<(), String> {
        let expected = Counters::of(outcome);
        if self.counters != expected {
            return Err(format!(
                "counters differ: replay {:?} vs planner {:?}",
                self.counters, expected
            ));
        }
        if outcome.failed_evaluations != 0 {
            return Err("planner reported failed evaluations".into());
        }
        let lines = scenarios::digest::frontier_lines(outcome);
        if self.lines != lines {
            return Err(format!(
                "frontier differs: replay {} members vs planner {}",
                self.lines.len(),
                lines.len()
            ));
        }
        Ok(())
    }
}

/// Replays one planning cycle of `planner` under `tracer`. `stats` is the
/// catalog's source statistics, which the planner computes once at
/// construction (not per cycle), so they are passed in from outside the
/// timed spans.
pub fn replay(
    planner: &Planner,
    stats: &HashMap<String, SourceStats>,
    tracer: &mut Tracer,
) -> Result<Replayed, String> {
    let config = planner.config();
    if config.workers != 1
        || config.eval_mode != EvalMode::Estimate
        || !config.prescreen
        || !config.delta_eval
    {
        return Err(
            "replay covers single-worker estimate cycles with prescreen and delta evaluation on"
                .into(),
        );
    }
    let base = planner.flow();
    tracer.next_cycle();
    tracer.enter("cycle");
    let result = replay_cycle(planner, base, stats, tracer);
    let cycle_ns = tracer.exit();
    let (lines, counters, counts) = result?;
    Ok(Replayed {
        lines,
        counters,
        counts,
        cycle_ns,
    })
}

type CycleResult = Result<(Vec<String>, Counters, LayerCounts), String>;

fn replay_cycle(
    planner: &Planner,
    base: &EtlFlow,
    stats: &HashMap<String, SourceStats>,
    tracer: &mut Tracer,
) -> CycleResult {
    let config = planner.config();
    tracer.enter("prepare");
    let prepared = (|| {
        base.validate_structure().map_err(|e| e.to_string())?;
        let schemas = etl_model::propagate_schemas(base).map_err(|e| e.to_string())?;
        let baseline = evaluate_flow(
            base,
            planner.catalog(),
            stats,
            config.eval_mode,
            config.seed,
        )
        .map_err(|e| e.to_string())?;
        Ok::<_, String>((schemas, baseline))
    })();
    tracer.exit();
    let (schemas, baseline) = prepared?;
    let candidates = tracer
        .span("generate", || {
            generate_candidates(base, planner.registry(), &config.policy)
        })
        .map_err(|e| e.to_string())?;
    tracer.enter("prepare");
    let context = PatternContext::new(base).map_err(|e| e.to_string());
    let estimate_base = quality::estimate_baseline(base, stats);
    let labels = LabelTable::new(&candidates);
    tracer.exit();
    let context = context?;

    let strategy = config.strategy.instantiate();
    let bound_prune = config.bound_prune && !config.retain_dominated && !strategy.uses_steering();
    let mut sink = ReplaySink {
        planner,
        base,
        stats,
        baseline: &baseline,
        candidates: &candidates,
        dimensions: config.objective.characteristics(),
        context,
        schemas,
        estimate_base,
        labels,
        gain_profiles: bound_prune.then(|| {
            candidates
                .iter()
                .map(|c| c.pattern.gain_profile())
                .collect()
        }),
        tracer,
        next_seq: 0,
        skyline: SkylineSet::new(),
        retained: Vec::new(),
        counters: Counters::default(),
        counts: LayerCounts {
            candidates: candidates.len(),
            ..LayerCounts::default()
        },
    };
    let space = SearchSpace {
        candidates: &candidates,
        policy: &config.policy,
        budget: config.max_alternatives,
    };
    sink.tracer.enter("search");
    let report = strategy.run(&space, &mut sink);
    sink.tracer.exit();
    sink.counters.enumerated = report.enumerated;
    Ok(sink.finish())
}

/// The replay's [`CombinationSink`]: the single-worker body of the
/// planner's streaming engine, one span per layer call.
struct ReplaySink<'a, 't> {
    planner: &'a Planner,
    base: &'a EtlFlow,
    stats: &'a HashMap<String, SourceStats>,
    baseline: &'a MeasureVector,
    candidates: &'a [Candidate],
    dimensions: Vec<Characteristic>,
    context: PatternContext<'a>,
    schemas: SchemaTable,
    estimate_base: EstimateBaseline,
    labels: LabelTable,
    gain_profiles: Option<Vec<GainProfile>>,
    tracer: &'t mut Tracer,
    next_seq: usize,
    skyline: SkylineSet,
    retained: Vec<(usize, Alternative)>,
    counters: Counters,
    counts: LayerCounts,
}

impl ReplaySink<'_, '_> {
    fn process(&mut self, seq: usize, combo: &[usize]) -> Option<f64> {
        let objective = &self.planner.config().objective;
        if let Some(profiles) = &self.gain_profiles {
            let skyline = &self.skyline;
            let dominated = self.tracer.span("bound", || {
                let gain = combo
                    .iter()
                    .fold(GainProfile::neutral(), |acc, &i| acc.combine(&profiles[i]));
                let bound: Vec<f64> = objective
                    .goals()
                    .iter()
                    .map(|g| match g.direction {
                        Direction::Maximize => 100.0 * gain.cap(g.characteristic),
                        Direction::Minimize => -100.0 * quality::RATIO_CLAMP_MIN,
                    })
                    .collect();
                skyline.dominates_point(&bound)
            });
            if dominated {
                self.counters.bound_pruned += 1;
                return None;
            }
        }

        let refs: Vec<&Candidate> = combo.iter().map(|&i| &self.candidates[i]).collect();
        self.counts.prescreened += 1;
        let context = &self.context;
        let screened = self.tracer.span("prescreen", || {
            refs.iter().any(|c| {
                !analysis::check_application(context, c.pattern.as_ref(), c.point).is_empty()
            })
        });
        if screened {
            self.counts.prescreen_rejected += 1;
            self.counters.statically_rejected += 1;
            return None;
        }

        self.counts.applied += 1;
        let (base, labels, schemas) = (self.base, &self.labels, &self.schemas);
        let applied = self.tracer.span("apply", || {
            let name = labels.name(base, combo);
            apply_combination_incremental(base, &refs, name.clone(), schemas)
                .map(|(flow, applied, carried)| (flow, applied, carried, name))
        });
        let Ok((flow, applied, carried, name)) = applied else {
            self.counts.apply_failed += 1;
            self.counters.failed_applications += 1;
            return None;
        };

        let cow: Option<CowDelta> = self.tracer.span("postscreen", || match carried {
            CarriedTable::Broken(_) => None,
            CarriedTable::Exact { cow, .. } => analysis::screen_delta_structural(&flow, &cow)
                .is_none()
                .then_some(cow),
        });
        let Some(cow) = cow else {
            self.counters.statically_rejected += 1;
            return None;
        };

        let (estimate_base, stats) = (&self.estimate_base, self.stats);
        let measures = self.tracer.span("estimate", || {
            quality::estimate_delta_with(&flow, base, estimate_base, stats, &cow)
        });

        let (baseline, dimensions) = (self.baseline, &self.dimensions);
        let scored = self.tracer.span("score", || {
            if !self.planner.config().policy.admits(baseline, &measures)
                || !objective.admits(baseline, &measures)
            {
                return None;
            }
            let scores = characteristic_scores(&measures, baseline, dimensions);
            let steer = objective.scalarize(&scores);
            let oriented = objective.oriented(&scores);
            Some((scores, steer, oriented))
        });
        let Some((scores, steer, oriented)) = scored else {
            self.counters.rejected_by_constraints += 1;
            return None;
        };

        self.counts.skyline_offered += 1;
        let retain_dominated = self.planner.config().retain_dominated;
        let (skyline, retained) = (&mut self.skyline, &mut self.retained);
        let alt = move || Alternative {
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
        let accepted = self
            .tracer
            .span("skyline", || match skyline.insert(seq, oriented) {
                Insertion::Accepted { evicted } => {
                    if !retain_dominated {
                        for seq in evicted {
                            if let Some(pos) = retained.iter().position(|(s, _)| *s == seq) {
                                retained.swap_remove(pos);
                            }
                        }
                    }
                    retained.push((seq, alt()));
                    true
                }
                Insertion::Dominated => {
                    if retain_dominated {
                        retained.push((seq, alt()));
                    }
                    false
                }
            });
        if accepted {
            self.counts.skyline_accepted += 1;
        }
        Some(steer)
    }

    /// The frontier in canonical-line form, plus the counters.
    fn finish(mut self) -> (Vec<String>, Counters, LayerCounts) {
        self.retained.sort_unstable_by_key(|(seq, _)| *seq);
        let members = self.skyline.ids();
        let mut lines: Vec<String> = self
            .retained
            .iter()
            .filter(|(seq, _)| members.binary_search(seq).is_ok())
            .map(|(_, alt)| {
                let mut line = alt.name.clone();
                for (id, v) in alt.measures.iter() {
                    line.push_str(&format!(" {}={:016x}", id.key(), v.to_bits()));
                }
                line
            })
            .collect();
        lines.sort_unstable();
        (lines, self.counters, self.counts)
    }
}

impl CombinationSink for ReplaySink<'_, '_> {
    fn submit(&mut self, combos: &[Vec<usize>]) -> Vec<Option<f64>> {
        self.tracer.enter("submit");
        let base_seq = self.next_seq;
        self.next_seq += combos.len();
        let out = combos
            .iter()
            .enumerate()
            .map(|(i, combo)| self.process(base_seq + i, combo))
            .collect();
        self.tracer.exit();
        out
    }
}
