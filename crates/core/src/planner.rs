//! The Planner: one full generation → application → estimation → skyline
//! cycle (Fig. 3), run as a *streaming* pipeline.
//!
//! The paper notes the analysis "is factorial to the size of the graph" and
//! that only the Pareto frontier is ever shown to the user. The engine
//! therefore never materialises the combination list or the flow pool: a
//! [`SearchStrategy`] walks the space lazily and submits combination
//! batches; workers pull combination indices from a shared cursor, apply
//! and evaluate *per worker*, and feed scores into a shared incremental
//! [`SkylineSet`]. With [`PlannerConfig::retain_dominated`] off, dominated
//! designs are dropped the moment the frontier rejects them, so memory is
//! O(frontier) instead of O(space) and the budget can grow by orders of
//! magnitude.

use crate::apply::{apply_combination, CarriedTable, LabelTable, PrefixStack};
use crate::error::PoiesisError;
use crate::eval::{characteristic_scores, evaluate_flow, Alternative, EvalMode};
use crate::explore::{theoretical_space, SpaceStats};
use crate::generate::{generate_candidates, Candidate};
use crate::objective::Objective;
use crate::search::{CombinationSink, SearchSpace, SearchStrategy, SearchStrategyKind};
use crate::skyline::{Insertion, SkylineSet};
use datagen::Catalog;
use etl_model::EtlFlow;
use fcp::{AppliedPattern, DeploymentPolicy, PatternRegistry};
use quality::{Characteristic, MeasureVector, QualityReport, SourceStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Planner configuration (the "user-defined configurations" input of
/// Fig. 3).
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Deployment policy (pattern selection, combination depth, caps).
    pub policy: DeploymentPolicy,
    /// Estimation mode.
    pub eval_mode: EvalMode,
    /// Worker threads for concurrent evaluation.
    pub workers: usize,
    /// Hard cap on enumerated alternatives per cycle. Memory grows with
    /// what is *retained*, not with the budget: with
    /// [`retain_dominated`](Self::retain_dominated) off the engine holds
    /// O(batch + frontier) flows whatever the budget; with retention on
    /// (the default) every admitted alternative is kept, so raise the
    /// budget and drop dominated designs together.
    pub max_alternatives: usize,
    /// How the combination space is walked.
    pub strategy: SearchStrategyKind,
    /// Keep dominated alternatives in [`PlannerOutcome::alternatives`]
    /// (the historical behaviour, needed for full scatter-plots). When
    /// `false`, dominated designs are dropped as soon as the incremental
    /// skyline rejects them and the outcome holds only the frontier —
    /// memory O(frontier) instead of O(space).
    pub retain_dominated: bool,
    /// The user's quality objective: the scatter-plot axes (Fig. 4 uses
    /// performance × data quality × reliability), their ranking weights and
    /// directions, and hard measure constraints. Replaces the old bare
    /// `dimensions` list and the implicit score-sum ranking.
    pub objective: Objective,
    /// Selects nothing: estimation and simulation are both deterministic.
    /// Kept because the wire's `seed` and existing configurations set it.
    pub seed: u64,
    /// Statically screen every applied combination before evaluation: an
    /// applied flow that no longer validates is counted in
    /// [`PlannerOutcome::statically_rejected`] instead of failing inside
    /// the (much more expensive) evaluation. Pattern preconditions are not
    /// screened here: each application checks its pattern's
    /// [`applicable`](fcp::Pattern::applicable) on the flow it edits. On by
    /// default; turning it off restores the historical fail-at-evaluation
    /// behaviour.
    pub prescreen: bool,
    /// Incremental application and screening. The base flow's
    /// `Arc`-shared schema table is computed once per cycle; each worker
    /// applies combinations on a prefix stack that keeps the applied state
    /// a combination shares with its predecessor, so a combination costs
    /// about one pattern application plus one schema repair by
    /// [`etl_model::repair_table`] (re-propagated from scratch when a
    /// repair reports `false`). The post-screen then checks only the
    /// patched region's structure ([`analysis::screen_delta_structural`]).
    /// Every fork is scored from scratch in either mode, by
    /// [`quality::estimate`] or by simulation ([`EvalMode`]). The resulting
    /// alternatives are bit-identical to the non-incremental path (enforced
    /// by tests), so this is on by default; turning it off restores
    /// [`apply_combination`] plus a full [`analysis::screen`] per
    /// combination, the oracle the tests compare against.
    pub delta_eval: bool,
    /// Bound-based dominance pre-pruning: before a combination is even
    /// forked, its sound optimistic score bound (the patterns'
    /// [`fcp::Pattern::gain_profile`]s folded with
    /// [`quality::GainProfile::combine`], `100 × cap` per maximised axis)
    /// is offered to the current frontier;
    /// if some member already dominates the *best the combination could
    /// possibly score*, it is skipped unevaluated and counted in
    /// [`PlannerOutcome::bound_pruned`]. Pruned combinations provably
    /// cannot enter the skyline, so the frontier is bit-identical with the
    /// flag on or off (proptest-enforced). Activates only when it cannot
    /// change any observable output: [`retain_dominated`](Self::retain_dominated)
    /// off (a pruned flow would otherwise be retained), a non-steering
    /// strategy ([`SearchStrategy::uses_steering`] false — skipping scores
    /// would change beam/greedy walks), and [`EvalMode::Estimate`] (the
    /// bounds are proven against the estimator). On by default.
    pub bound_prune: bool,
}

impl PlannerConfig {
    /// The scatter-plot axes, in order (shorthand for
    /// `self.objective.characteristics()`).
    pub fn dimensions(&self) -> Vec<Characteristic> {
        self.objective.characteristics()
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            policy: DeploymentPolicy::balanced(),
            eval_mode: EvalMode::Estimate,
            workers: 4,
            max_alternatives: 50_000,
            strategy: SearchStrategyKind::Exhaustive,
            retain_dominated: true,
            objective: Objective::balanced(),
            seed: 0xBEEF,
            prescreen: true,
            delta_eval: true,
            bound_prune: true,
        }
    }
}

/// The result of one planning cycle.
pub struct PlannerOutcome {
    /// Baseline (initial flow) measures.
    pub baseline: MeasureVector,
    /// The candidates that were considered.
    pub candidates: Vec<Candidate>,
    /// The evaluated, policy-admitted alternatives that were retained:
    /// everything evaluated when [`PlannerConfig::retain_dominated`] is on,
    /// only the frontier when it is off.
    pub alternatives: Vec<Alternative>,
    /// Indices (into `alternatives`) of the Pareto frontier, ascending —
    /// the only designs presented to the user (Fig. 4).
    pub skyline: Vec<usize>,
    /// Exploration-space statistics.
    pub stats: SpaceStats,
    /// Alternatives rejected by policy measure constraints.
    pub rejected_by_constraints: usize,
    /// Combinations that failed during application: a candidate whose
    /// pattern is not [`applicable`](fcp::Pattern::applicable) on the flow
    /// it would edit (a conflict with an earlier candidate, or a point its
    /// preconditions do not hold at), or an edit that errored.
    pub failed_applications: usize,
    /// Alternatives whose evaluation errored; they are skipped rather than
    /// aborting the cycle, so one bad simulation no longer discards
    /// thousands of good designs.
    pub failed_evaluations: usize,
    /// Combinations dropped by the static post-screen
    /// ([`PlannerConfig::prescreen`]) before any evaluation: the applied
    /// result failed flow validation. A candidate whose preconditions do
    /// not hold fails its application and counts in
    /// [`failed_applications`](Self::failed_applications) instead.
    pub statically_rejected: usize,
    /// Combinations skipped by the bound-based dominance pre-pruner
    /// ([`PlannerConfig::bound_prune`]): their optimistic score bound was
    /// already dominated by the frontier, so they were never forked,
    /// applied or evaluated.
    pub bound_pruned: usize,
    /// `skyline` re-ordered best-objective-first, computed once at
    /// assembly so [`skyline_alternatives`](Self::skyline_alternatives)
    /// neither sorts nor allocates per call.
    ranked: Vec<usize>,
}

impl PlannerOutcome {
    /// Assembles an outcome from the engine's harvest, computing the
    /// best-objective-first skyline order (the [`Objective::scalarize`]
    /// ranking) once.
    fn assemble(
        objective: &Objective,
        baseline: MeasureVector,
        candidates: Vec<Candidate>,
        stats: SpaceStats,
        harvest: Harvest,
    ) -> Self {
        let Harvest {
            alternatives,
            skyline,
            rejected_by_constraints,
            failed_applications,
            failed_evaluations,
            statically_rejected,
            bound_pruned,
        } = harvest;
        let mut ranked = skyline.clone();
        ranked.sort_by(|&a, &b| {
            let sa = objective.scalarize(&alternatives[a].scores);
            let sb = objective.scalarize(&alternatives[b].scores);
            sb.total_cmp(&sa)
        });
        PlannerOutcome {
            baseline,
            candidates,
            alternatives,
            skyline,
            stats,
            rejected_by_constraints,
            failed_applications,
            failed_evaluations,
            statically_rejected,
            bound_pruned,
            ranked,
        }
    }

    /// Iterator over the skyline alternatives, best-objective-first.
    pub fn skyline_alternatives(&self) -> impl Iterator<Item = &Alternative> {
        self.ranked.iter().map(move |&i| &self.alternatives[i])
    }

    /// The frontier design at `rank` (0 = best objective) — a direct O(1)
    /// lookup into the cached ranking, replacing `.nth(rank)` walks.
    pub fn skyline_alternative(&self, rank: usize) -> Option<&Alternative> {
        self.ranked.get(rank).map(|&i| &self.alternatives[i])
    }

    /// The skyline indices ranked best-objective-first (the order
    /// [`skyline_alternatives`](Self::skyline_alternatives) walks).
    pub fn skyline_ranked(&self) -> &[usize] {
        &self.ranked
    }

    /// The skyline alternative names as a sorted set — the identity of the
    /// frontier, independent of index layout or retention mode.
    pub fn skyline_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .skyline
            .iter()
            .map(|&i| self.alternatives[i].name.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    /// The Fig. 5 report for one alternative: relative change of every
    /// measure against the initial flow, grouped by characteristic with
    /// drill-down.
    pub fn report(&self, alt: &Alternative) -> QualityReport {
        QualityReport::build(alt.name.clone(), &self.baseline, &alt.measures)
    }
}

/// The POIESIS Planner.
pub struct Planner {
    flow: EtlFlow,
    catalog: Catalog,
    registry: PatternRegistry,
    config: PlannerConfig,
    stats_cache: HashMap<String, SourceStats>,
}

impl Planner {
    /// Creates a planner for an initial flow over a source catalog.
    ///
    /// This is the legacy entry point, kept working for existing callers;
    /// it routes through the [`SessionBuilder`](crate::SessionBuilder)
    /// internally (without the builder's up-front validation — errors
    /// surface at [`plan`](Self::plan) time, as they always did). New code
    /// should start from [`Poiesis::session`](crate::Poiesis::session).
    pub fn new(
        flow: EtlFlow,
        catalog: Catalog,
        registry: PatternRegistry,
        config: PlannerConfig,
    ) -> Self {
        crate::builder::SessionBuilder::from_config(config)
            .flow(flow)
            .catalog(catalog)
            .registry(registry)
            .assemble_planner()
    }

    /// The unchecked constructor both [`new`](Self::new) and the builder
    /// bottom out in.
    pub(crate) fn from_parts(
        flow: EtlFlow,
        catalog: Catalog,
        registry: PatternRegistry,
        config: PlannerConfig,
    ) -> Self {
        let stats_cache = quality::estimator::source_stats(&catalog);
        Planner {
            flow,
            catalog,
            registry,
            config,
            stats_cache,
        }
    }

    /// The current base flow.
    pub fn flow(&self) -> &EtlFlow {
        &self.flow
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The pattern registry (palette).
    pub fn registry(&self) -> &PatternRegistry {
        &self.registry
    }

    /// The configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Replaces the base flow (used by the iterative session when the user
    /// selects a design).
    pub fn set_flow(&mut self, flow: EtlFlow) {
        self.flow = flow;
    }

    /// Runs one full planning cycle with the configured search strategy.
    pub fn plan(&self) -> Result<PlannerOutcome, PoiesisError> {
        self.plan_with(self.config.strategy.instantiate().as_ref())
    }

    /// Runs one full planning cycle with an explicit (possibly
    /// user-defined) search strategy — the streaming engine.
    pub fn plan_with(&self, strategy: &dyn SearchStrategy) -> Result<PlannerOutcome, PoiesisError> {
        let (baseline, candidates, schemas) = self.prepare()?;
        // `prepare` propagated the table once for the whole cycle; the
        // incremental apply carries it from there.
        let schemas = self.config.delta_eval.then_some(schemas);
        let labels = LabelTable::new(&candidates);
        // The pruner activates only where a skipped combination is provably
        // unobservable — see [`PlannerConfig::bound_prune`].
        let bound_prune = self.config.bound_prune
            && !self.config.retain_dominated
            && !strategy.uses_steering()
            && self.config.eval_mode == EvalMode::Estimate;
        let engine =
            StreamingEngine::new(self, &baseline, &candidates, schemas, labels, bound_prune);
        let space = SearchSpace {
            candidates: &candidates,
            policy: &self.config.policy,
            budget: self.config.max_alternatives,
        };
        let mut sink = EngineSink {
            engine: &engine,
            next_seq: 0,
        };
        let report = strategy.run(&space, &mut sink);
        let harvest = engine.finish();
        let stats = SpaceStats {
            candidates: candidates.len(),
            theoretical: theoretical_space(
                candidates.len(),
                self.config.policy.combination_depth(candidates.len()),
            ),
            enumerated: report.enumerated,
            conflicts: report.conflicts,
            truncated: report.truncated,
        };
        Ok(PlannerOutcome::assemble(
            &self.config.objective,
            baseline,
            candidates,
            stats,
            harvest,
        ))
    }

    /// The apply → post-screen pipeline of one combination: forks and
    /// applies the combination — incrementally on `stack` when the cycle
    /// carries the base's schema table (`schemas`) — and screens the
    /// applied result. Each application checks its pattern's
    /// [`applicable`](fcp::Pattern::applicable) against the flow it edits,
    /// so a candidate whose preconditions do not hold fails here as an
    /// application. The applied flow is unnamed: nothing before the
    /// skyline reads the name, so only a kept design is named.
    fn realize_combination(
        &self,
        stack: &mut PrefixStack,
        combo: &[usize],
        candidates: &[Candidate],
        schemas: Option<&etl_model::SchemaTable>,
    ) -> Realization {
        // With the base schema table, apply incrementally: the table is
        // carried across the combination's applications (O(patch) per step)
        // instead of re-propagated from scratch inside each pattern, and
        // the stack reuses the steps shared with the previous combination.
        let (flow, records, carried) = match schemas {
            Some(schemas) => match stack.apply(&self.flow, schemas, candidates, combo) {
                Some((f, last, c)) => (f, Records::Stacked(last), Some(c)),
                None => return Realization::ApplyFailed,
            },
            None => {
                let refs: Vec<&Candidate> = combo.iter().map(|&i| &candidates[i]).collect();
                match apply_combination(&self.flow, &refs, String::new()) {
                    Ok((f, a)) => (f, Records::Owned(a), None),
                    Err(_) => return Realization::ApplyFailed,
                }
            }
        };
        // structural screen: an applied flow that no longer validates would
        // only fail later (and more expensively) inside evaluation. The
        // incremental apply has already settled the schema verdict and
        // computed the fork's copy-on-write delta, so only the patched
        // region's structure is checked there.
        if self.config.prescreen {
            let invalid = match carried {
                Some(CarriedTable::Broken(_)) => true,
                Some(CarriedTable::Exact { cow }) => {
                    analysis::screen_delta_structural(&flow, &cow).is_some()
                }
                None => analysis::screen(&flow).is_some(),
            };
            if invalid {
                stack.recycle(flow);
                return Realization::Screened;
            }
        }
        Realization::Ready { flow, records }
    }

    /// Scores one realized combination from scratch: [`quality::estimate`]
    /// in [`EvalMode::Estimate`], a simulation otherwise. On the scenario
    /// flows a full estimate is cheaper than a delta one against a cached
    /// baseline, whose per-call clones of O(flow) state cost more than the
    /// nodes it skips.
    fn evaluate_combination(&self, flow: &EtlFlow) -> Result<MeasureVector, simulator::SimError> {
        evaluate_flow(
            flow,
            &self.catalog,
            &self.stats_cache,
            self.config.eval_mode,
            self.config.seed,
        )
    }

    /// The cycle's preamble: validate the flow, score the
    /// baseline, generate candidates. Returns the propagated schema table
    /// so the cycle never re-derives it — validation and the incremental
    /// apply share the one propagation.
    fn prepare(
        &self,
    ) -> Result<(MeasureVector, Vec<Candidate>, etl_model::SchemaTable), PoiesisError> {
        self.flow
            .validate_structure()
            .map_err(|e| PoiesisError::InvalidFlow(e.to_string()))?;
        let schemas = etl_model::propagate_schemas(&self.flow)
            .map_err(|e| PoiesisError::InvalidFlow(etl_model::FlowError::Schema(e).to_string()))?;
        let baseline = evaluate_flow(
            &self.flow,
            &self.catalog,
            &self.stats_cache,
            self.config.eval_mode,
            self.config.seed,
        )
        .map_err(|e| PoiesisError::Eval(e.to_string()))?;
        let candidates = generate_candidates(&self.flow, &self.registry, &self.config.policy)
            .map_err(|e| PoiesisError::Pattern(e.to_string()))?;
        Ok((baseline, candidates, schemas))
    }
}

/// Outcome of [`Planner::realize_combination`]: an applied flow ready for
/// evaluation, or a rejection the engine counts.
enum Realization {
    /// Applied and screened; evaluate it.
    Ready { flow: EtlFlow, records: Records },
    /// Dropped by the static post-screen: the applied flow does not
    /// validate.
    Screened,
    /// The application itself failed: a candidate was not applicable on
    /// the flow it would edit, or its edit errored.
    ApplyFailed,
}

/// The applied patterns of a realized combination.
enum Records {
    /// All of them, in application order, from the one-shot apply.
    Owned(Vec<AppliedPattern>),
    /// The last step's (`None` for an empty combination); the steps before
    /// it are the worker stack's [`prefix_records`](PrefixStack::prefix_records).
    Stacked(Option<AppliedPattern>),
}

impl Records {
    /// One `"pattern point"` line per applied pattern, in application
    /// order, reading a stacked prefix from `stack`.
    fn describe(&self, stack: &PrefixStack) -> Vec<String> {
        let line = |a: &AppliedPattern| format!("{} {}", a.pattern, a.point);
        match self {
            Records::Owned(all) => all.iter().map(line).collect(),
            Records::Stacked(last) => stack.prefix_records().chain(last).map(line).collect(),
        }
    }
}

// --------------------------------------------------------- streaming engine

/// Shared mutable state of one streaming cycle: the live frontier and the
/// retained alternatives, keyed by the combination's global sequence
/// number (its position in the strategy's submission order, which for
/// [`Exhaustive`](crate::search::Exhaustive) equals the lazy enumeration
/// order — so final indices are independent of thread scheduling).
struct EngineState {
    skyline: SkylineSet,
    retained: Vec<(usize, Alternative)>,
}

/// Everything the engine accumulated over a cycle.
struct Harvest {
    alternatives: Vec<Alternative>,
    skyline: Vec<usize>,
    rejected_by_constraints: usize,
    failed_applications: usize,
    failed_evaluations: usize,
    statically_rejected: usize,
    bound_pruned: usize,
}

/// The streaming generate→apply→evaluate→skyline engine. Each submitted
/// batch is processed by a scoped worker pool: workers pull combination
/// indices from a shared atomic cursor, apply + evaluate locally (no
/// up-front flow pool), and push `(seq, scores)` into the shared
/// [`SkylineSet`] under one short-lived lock. Evaluation — the expensive
/// part — runs outside any lock.
struct StreamingEngine<'a> {
    planner: &'a Planner,
    baseline: &'a MeasureVector,
    candidates: &'a [Candidate],
    /// Goal axes, resolved from the objective once per cycle.
    dimensions: Vec<Characteristic>,
    retain_dominated: bool,
    /// The base flow's schema table, carried by the incremental apply
    /// ([`PlannerConfig::delta_eval`]); `None` when it does not apply to
    /// this cycle.
    schemas: Option<etl_model::SchemaTable>,
    /// Candidate labels, derived and ranked once per cycle.
    labels: LabelTable,
    /// Per-candidate static gain profiles, present iff the bound-based
    /// dominance pre-pruner is active for this cycle (see
    /// [`PlannerConfig::bound_prune`] for the activation conditions).
    gain_profiles: Option<Vec<quality::GainProfile>>,
    state: Mutex<EngineState>,
    rejected: AtomicUsize,
    failed_applications: AtomicUsize,
    failed_evaluations: AtomicUsize,
    statically_rejected: AtomicUsize,
    bound_pruned: AtomicUsize,
}

/// The `&mut`-requiring [`CombinationSink`] face of the engine; owns the
/// monotone sequence counter while the engine itself stays shareable
/// across worker threads.
struct EngineSink<'e, 'a> {
    engine: &'e StreamingEngine<'a>,
    next_seq: usize,
}

impl<'a> StreamingEngine<'a> {
    fn new(
        planner: &'a Planner,
        baseline: &'a MeasureVector,
        candidates: &'a [Candidate],
        schemas: Option<etl_model::SchemaTable>,
        labels: LabelTable,
        bound_prune: bool,
    ) -> Self {
        let gain_profiles = bound_prune.then(|| {
            candidates
                .iter()
                .map(|c| c.pattern.gain_profile())
                .collect()
        });
        StreamingEngine {
            planner,
            baseline,
            candidates,
            dimensions: planner.config.objective.characteristics(),
            retain_dominated: planner.config.retain_dominated,
            schemas,
            labels,
            gain_profiles,
            state: Mutex::new(EngineState {
                skyline: SkylineSet::new(),
                retained: Vec::new(),
            }),
            rejected: AtomicUsize::new(0),
            failed_applications: AtomicUsize::new(0),
            failed_evaluations: AtomicUsize::new(0),
            statically_rejected: AtomicUsize::new(0),
            bound_pruned: AtomicUsize::new(0),
        }
    }

    /// Applies (on the worker's `stack`), evaluates and skyline-feeds one
    /// combination; returns its objective, or `None` when it failed or was
    /// rejected.
    fn process(&self, stack: &mut PrefixStack, seq: usize, combo: &[usize]) -> Option<f64> {
        // Bound-based dominance pre-prune: the combination's sound optimistic
        // score bound is offered to the live frontier *before* the fork. A
        // dominated bound proves the real point (never better per axis)
        // would be rejected as dominated too, so skipping it cannot change
        // the skyline or the retained (frontier-only) set.
        if let Some(profiles) = &self.gain_profiles {
            let gain = combo
                .iter()
                .fold(quality::GainProfile::neutral(), |acc, &i| {
                    acc.combine(&profiles[i])
                });
            let objective = &self.planner.config.objective;
            let bound: Vec<f64> = objective
                .goals()
                .iter()
                .map(|g| match g.direction {
                    crate::objective::Direction::Maximize => 100.0 * gain.cap(g.characteristic),
                    // a minimize axis is best served by the worst possible
                    // score, floored by the estimator's ratio clamp
                    crate::objective::Direction::Minimize => -100.0 * quality::RATIO_CLAMP_MIN,
                })
                .collect();
            let dominated = {
                let state = self.state.lock().expect("engine state");
                state.skyline.dominates_point(&bound)
            };
            if dominated {
                self.bound_pruned.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let (flow, records) = match self.planner.realize_combination(
            stack,
            combo,
            self.candidates,
            self.schemas.as_ref(),
        ) {
            Realization::Ready { flow, records } => (flow, records),
            Realization::Screened => {
                self.statically_rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Realization::ApplyFailed => {
                self.failed_applications.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let measures = match self.planner.evaluate_combination(&flow) {
            Ok(m) => m,
            Err(_) => {
                self.failed_evaluations.fetch_add(1, Ordering::Relaxed);
                stack.recycle(flow);
                return None;
            }
        };
        let objective = &self.planner.config.objective;
        if !self.planner.config.policy.admits(self.baseline, &measures)
            || !objective.admits(self.baseline, &measures)
        {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            stack.recycle(flow);
            return None;
        }
        let scores = characteristic_scores(&measures, self.baseline, &self.dimensions);
        // the scalar fed back to steering strategies (beam, greedy) and the
        // oriented point offered to the skyline both come from the user's
        // objective, not an implicit score-sum
        let steer = objective.scalarize(&scores);
        let oriented = objective.oriented(&scores);
        // Alternative construction (name, description strings, combo
        // clone) is deferred until the skyline verdict: with
        // `retain_dominated` off, the overwhelming majority of combinations
        // are dominated and dropped right here, so they never pay for it.
        // The flow carries the design's name, which prefixes the names of
        // the next cycle when the design is selected.
        let alt = |mut flow: EtlFlow| {
            let name = self.labels.name(&self.planner.flow, combo);
            flow.name.clone_from(&name);
            Alternative {
                name,
                flow,
                applied: records.describe(stack),
                combo: combo.to_vec(),
                measures,
                scores,
            }
        };
        let mut state = self.state.lock().expect("engine state");
        let dropped = match state.skyline.insert(seq, oriented) {
            Insertion::Accepted { evicted } => {
                if !self.retain_dominated {
                    for seq in evicted {
                        if let Some(pos) = state.retained.iter().position(|(s, _)| *s == seq) {
                            state.retained.swap_remove(pos);
                        }
                    }
                }
                state.retained.push((seq, alt(flow)));
                None
            }
            Insertion::Dominated if self.retain_dominated => {
                state.retained.push((seq, alt(flow)));
                None
            }
            // the dominated flow is dropped right here, keeping the
            // engine's memory proportional to the frontier
            Insertion::Dominated => Some(flow),
        };
        drop(state);
        if let Some(flow) = dropped {
            stack.recycle(flow);
        }
        Some(steer)
    }

    /// Sorts the retained alternatives back into submission order (the
    /// worker pool finishes them out of order) and maps skyline sequence
    /// numbers to final indices — output is deterministic regardless of
    /// thread scheduling.
    fn finish(self) -> Harvest {
        let state = self.state.into_inner().expect("engine state");
        let mut retained = state.retained;
        retained.sort_unstable_by_key(|(seq, _)| *seq);
        let sky_seqs = state.skyline.ids();
        let mut skyline = Vec::with_capacity(sky_seqs.len());
        let mut pos = 0usize;
        for seq in sky_seqs {
            while retained[pos].0 != seq {
                pos += 1;
            }
            skyline.push(pos);
        }
        Harvest {
            alternatives: retained.into_iter().map(|(_, alt)| alt).collect(),
            skyline,
            rejected_by_constraints: self.rejected.into_inner(),
            failed_applications: self.failed_applications.into_inner(),
            failed_evaluations: self.failed_evaluations.into_inner(),
            statically_rejected: self.statically_rejected.into_inner(),
            bound_pruned: self.bound_pruned.into_inner(),
        }
    }
}

impl CombinationSink for EngineSink<'_, '_> {
    fn submit(&mut self, combos: &[Vec<usize>]) -> Vec<Option<f64>> {
        let engine = self.engine;
        let base_seq = self.next_seq;
        self.next_seq += combos.len();
        crate::eval::par_map_indexed(
            combos.len(),
            engine.planner.config.workers,
            PrefixStack::default,
            |stack, i| engine.process(stack, base_seq + i, &combos[i]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::tpch::{tpch_catalog, tpch_flow};
    use datagen::DirtProfile;
    use quality::MeasureId;

    fn planner(config: PlannerConfig) -> Planner {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(150, &DirtProfile::demo(), 5);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        Planner::new(f, cat, reg, config)
    }

    #[test]
    fn plan_produces_alternatives_and_skyline() {
        let p = planner(PlannerConfig::default());
        let out = p.plan().unwrap();
        assert!(out.alternatives.len() > 10);
        assert!(!out.skyline.is_empty());
        assert!(out.skyline.len() <= out.alternatives.len());
        // skyline members must not be dominated
        for &i in &out.skyline {
            for a in &out.alternatives {
                assert!(!crate::skyline::dominates(
                    &a.scores,
                    &out.alternatives[i].scores
                ));
            }
        }
        assert_eq!(out.failed_evaluations, 0);
    }

    /// The textbook batch skyline of every retained alternative's oriented
    /// scores — a frontier reference that shares none of the engine's
    /// apply, evaluate or incremental-skyline code.
    fn batch_skyline(p: &Planner, out: &PlannerOutcome) -> Vec<usize> {
        let points: Vec<Vec<f64>> = out
            .alternatives
            .iter()
            .map(|a| p.config().objective.oriented(&a.scores))
            .collect();
        crate::skyline::pareto_skyline_bnl(&points)
    }

    #[test]
    fn retained_skyline_is_the_batch_skyline_on_fig2() {
        // With retain_dominated on (the default) every admitted design is
        // kept, so the incremental frontier must be exactly the batch
        // frontier of the retained set.
        let p = planner(PlannerConfig::default());
        let out = p.plan().unwrap();
        assert!(out.alternatives.len() > out.skyline.len());
        assert_eq!(out.skyline, batch_skyline(&p, &out));
    }

    #[test]
    fn dropping_dominated_keeps_only_the_frontier() {
        let lean = planner(PlannerConfig {
            retain_dominated: false,
            ..PlannerConfig::default()
        })
        .plan()
        .unwrap();
        let full = planner(PlannerConfig::default()).plan().unwrap();
        // only frontier members retained, but the frontier is identical
        assert_eq!(lean.alternatives.len(), lean.skyline.len());
        assert_eq!(lean.skyline_names(), full.skyline_names());
        assert!(lean.alternatives.len() < full.alternatives.len());
        // stats describe the same walked space
        assert_eq!(lean.stats, full.stats);
    }

    #[test]
    fn beam_and_greedy_explore_less_and_stay_on_the_true_frontier_scale() {
        let exhaustive = planner(PlannerConfig::default()).plan().unwrap();
        for strategy in [
            SearchStrategyKind::Beam { width: 6 },
            SearchStrategyKind::GreedyHillClimb,
        ] {
            let config = PlannerConfig {
                strategy,
                ..PlannerConfig::default()
            };
            let out = planner(config).plan().unwrap();
            assert!(
                out.stats.enumerated <= exhaustive.stats.enumerated,
                "{strategy} evaluated more than exhaustive"
            );
            assert!(!out.skyline.is_empty(), "{strategy} found no frontier");
            // every frontier point of a partial walk is at least not
            // dominated by anything that walk saw
            for &i in &out.skyline {
                for a in &out.alternatives {
                    assert!(!crate::skyline::dominates(
                        &a.scores,
                        &out.alternatives[i].scores
                    ));
                }
            }
        }
    }

    #[test]
    fn skyline_contains_a_performance_improver() {
        let p = planner(PlannerConfig::default());
        let out = p.plan().unwrap();
        let best = out.skyline_alternatives().next().unwrap();
        assert!(
            best.scores.iter().any(|&s| s > 100.0),
            "the frontier must improve on the baseline somewhere: {:?}",
            best.scores
        );
    }

    #[test]
    fn skyline_ranked_is_cached_and_best_first() {
        let p = planner(PlannerConfig::default());
        let out = p.plan().unwrap();
        let ranked = out.skyline_ranked();
        assert_eq!(ranked.len(), out.skyline.len());
        let sums: Vec<f64> = ranked
            .iter()
            .map(|&i| out.alternatives[i].scores.iter().sum())
            .collect();
        assert!(sums.windows(2).all(|w| w[0] >= w[1]), "{sums:?}");
        // iterator agrees with the cached order
        let names: Vec<&str> = out
            .skyline_alternatives()
            .map(|a| a.name.as_str())
            .collect();
        let expect: Vec<&str> = ranked
            .iter()
            .map(|&i| out.alternatives[i].name.as_str())
            .collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn alternatives_keep_source_schemata_constant() {
        // §3: "keeping the data sources schemata constant"
        let p = planner(PlannerConfig::default());
        let out = p.plan().unwrap();
        let base_sources: Vec<_> = p
            .flow()
            .ops_of_kind("extract")
            .iter()
            .map(|n| p.flow().op(*n).unwrap().kind.clone())
            .collect();
        for alt in &out.alternatives {
            let alt_sources: Vec<_> = alt
                .flow
                .ops_of_kind("extract")
                .iter()
                .map(|n| alt.flow.op(*n).unwrap().kind.clone())
                .collect();
            assert_eq!(base_sources.len(), alt_sources.len());
            for k in &base_sources {
                assert!(alt_sources.contains(k));
            }
        }
    }

    #[test]
    fn thousands_of_alternatives_from_demo_flows() {
        // §4: "the automatic addition of FCPs in different positions and
        // combinations on the initial flows will result in thousands of
        // alternative ETL flows"
        let (f, _) = tpch_flow();
        let cat = tpch_catalog(200, &DirtProfile::demo(), 5);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        let config = PlannerConfig {
            policy: DeploymentPolicy {
                top_k_points_per_pattern: usize::MAX,
                min_fitness: 0.0,
                max_patterns_per_flow: 2,
                max_per_pattern: 2,
                ..DeploymentPolicy::balanced()
            },
            max_alternatives: 50_000,
            ..PlannerConfig::default()
        };
        let p = Planner::new(f, cat, reg, config);
        let out = p.plan().unwrap();
        assert!(
            out.alternatives.len() > 1_000,
            "got {} alternatives",
            out.alternatives.len()
        );
        assert!(
            out.skyline.len() < out.alternatives.len() / 5,
            "the skyline must prune most of the space: {} of {}",
            out.skyline.len(),
            out.alternatives.len()
        );
    }

    #[test]
    fn constraints_reject_alternatives() {
        let mut config = PlannerConfig {
            policy: DeploymentPolicy::reliability_first(),
            ..PlannerConfig::default()
        };
        // absurd constraint: nothing may be slower than 1.0× baseline;
        // checkpoints always cost time, so everything is rejected
        config.policy.constraints = vec![fcp::MeasureConstraint {
            measure: MeasureId::CycleTimeMs,
            ratio_vs_baseline: 1.0,
        }];
        let p = planner(config);
        let out = p.plan().unwrap();
        assert!(out.rejected_by_constraints > 0);
    }

    #[test]
    fn report_matches_fig5_shape() {
        let p = planner(PlannerConfig::default());
        let out = p.plan().unwrap();
        let alt = out.skyline_alternatives().next().unwrap();
        let report = out.report(alt);
        assert_eq!(report.characteristics.len(), Characteristic::ALL.len());
        // drill-down works for performance
        assert!(!report.expand(Characteristic::Performance).is_empty());
    }

    #[test]
    fn simulate_mode_works_end_to_end() {
        let config = PlannerConfig {
            eval_mode: EvalMode::Simulate,
            max_alternatives: 40,
            ..PlannerConfig::default()
        };
        let p = planner(config);
        let out = p.plan().unwrap();
        assert!(!out.alternatives.is_empty());
        assert!(out.baseline.get(MeasureId::Throughput).unwrap() > 0.0);
    }

    #[test]
    fn evaluation_errors_are_counted_not_fatal() {
        // A (deliberately pathological) pattern that renames an extract's
        // source to a table absent from the catalog: the flow still
        // validates structurally and estimation still works, but full
        // simulation fails with `UnknownSource`. With the bugfix the cycle
        // survives and counts the casualty instead of aborting.
        struct BreakSource;
        impl fcp::Pattern for BreakSource {
            fn name(&self) -> &str {
                "BreakSource"
            }
            fn improves(&self) -> Characteristic {
                Characteristic::DataQuality
            }
            fn prerequisites(&self) -> Vec<fcp::Prerequisite> {
                vec![]
            }
            fn candidate_points(
                &self,
                _ctx: &fcp::PatternContext<'_>,
            ) -> Vec<fcp::ApplicationPoint> {
                vec![fcp::ApplicationPoint::Graph]
            }
            fn apply_unchecked(
                &self,
                flow: &mut EtlFlow,
                point: fcp::ApplicationPoint,
                _schemas: &etl_model::SchemaTable,
            ) -> Result<fcp::AppliedPattern, fcp::PatternError> {
                let n = flow.ops_of_kind("extract")[0];
                if let etl_model::OpKind::Extract { source, .. } = &mut flow.op_mut(n).unwrap().kind
                {
                    *source = "__missing_table__".into();
                }
                Ok(fcp::AppliedPattern {
                    pattern: "BreakSource".into(),
                    point,
                    added_nodes: vec![],
                })
            }
        }

        let (f, _) = purchases_flow();
        let cat = purchases_catalog(60, &DirtProfile::demo(), 5);
        let mut reg = PatternRegistry::standard_for_catalog(&cat);
        reg.register(BreakSource);
        let config = PlannerConfig {
            eval_mode: EvalMode::Simulate,
            max_alternatives: 50,
            policy: DeploymentPolicy::exhaustive(1),
            ..PlannerConfig::default()
        };
        let p = Planner::new(f, cat, reg, config);
        let out = p.plan().unwrap();
        assert!(
            out.failed_evaluations > 0,
            "the broken pattern must fail simulation"
        );
        assert!(!out.alternatives.is_empty(), "good designs must survive");
        assert_eq!(
            out.stats.enumerated,
            out.alternatives.len()
                + out.failed_evaluations
                + out.failed_applications
                + out.rejected_by_constraints
                + out.statically_rejected
                + out.bound_pruned
        );
    }

    #[test]
    fn bound_pruning_skips_work_but_keeps_the_skyline_bit_identical() {
        // The tentpole acceptance bar: with the dominance pre-pruner active
        // (retain_dominated off, exhaustive, estimate) the frontier must be
        // exactly the unpruned frontier — same names, same scores — while
        // actually skipping combinations. One worker keeps the submission
        // order deterministic so the prune count is stable.
        let run = |bound_prune: bool| {
            planner(PlannerConfig {
                retain_dominated: false,
                workers: 1,
                bound_prune,
                ..PlannerConfig::default()
            })
            .plan()
            .unwrap()
        };
        let pruned = run(true);
        let full = run(false);
        assert!(
            pruned.bound_pruned > 0,
            "the demo sweep must prune at least one dominated-by-bound combination"
        );
        assert_eq!(full.bound_pruned, 0);
        assert_eq!(pruned.skyline_names(), full.skyline_names());
        let score = |out: &PlannerOutcome| -> Vec<(String, Vec<f64>)> {
            let mut v: Vec<_> = out
                .skyline
                .iter()
                .map(|&i| {
                    (
                        out.alternatives[i].name.clone(),
                        out.alternatives[i].scores.clone(),
                    )
                })
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        assert_eq!(score(&pruned), score(&full));
        // pruned combinations were still enumerated (submitted), so the
        // walked space is identical — only the evaluated share shrinks
        assert_eq!(pruned.stats.enumerated, full.stats.enumerated);
    }

    #[test]
    fn bound_pruning_stays_off_where_it_could_be_observed() {
        // retain_dominated (the default) keeps every evaluated alternative;
        // pruning would remove dominated ones, so the gate must hold it off.
        let out = planner(PlannerConfig::default()).plan().unwrap();
        assert_eq!(out.bound_pruned, 0);
        // steering strategies must see every score
        for strategy in [
            SearchStrategyKind::Beam { width: 6 },
            SearchStrategyKind::GreedyHillClimb,
        ] {
            let out = planner(PlannerConfig {
                strategy,
                retain_dominated: false,
                ..PlannerConfig::default()
            })
            .plan()
            .unwrap();
            assert_eq!(out.bound_pruned, 0, "{strategy} must not prune");
        }
    }

    #[test]
    fn prescreening_preserves_the_frontier() {
        // The pre-screen must be invisible on valid workloads: identical
        // skyline and space accounting with and without it, on both demo
        // flows (the acceptance bar for turning it on by default).
        let screened = planner(PlannerConfig::default()).plan().unwrap();
        let unscreened = planner(PlannerConfig {
            prescreen: false,
            ..PlannerConfig::default()
        })
        .plan()
        .unwrap();
        assert_eq!(screened.skyline_names(), unscreened.skyline_names());
        assert_eq!(screened.alternatives.len(), unscreened.alternatives.len());
        assert_eq!(screened.stats, unscreened.stats);
        assert_eq!(screened.statically_rejected, 0);
        assert_eq!(unscreened.statically_rejected, 0);

        let tpch = |prescreen: bool| {
            let (f, _) = tpch_flow();
            let cat = tpch_catalog(120, &DirtProfile::demo(), 5);
            let reg = PatternRegistry::standard_for_catalog(&cat);
            let config = PlannerConfig {
                prescreen,
                max_alternatives: 2_000,
                ..PlannerConfig::default()
            };
            Planner::new(f, cat, reg, config).plan().unwrap()
        };
        let on = tpch(true);
        let off = tpch(false);
        assert_eq!(on.skyline_names(), off.skyline_names());
        assert_eq!(on.alternatives.len(), off.alternatives.len());
        assert_eq!(on.statically_rejected, 0);
    }

    #[test]
    fn non_applicable_points_are_prescreened() {
        // A pattern that advertises points without honouring its own
        // prerequisites (a buggy `candidate_points` override): the
        // application's `applicable` check must fail those combinations
        // before the pattern's edit runs.
        struct WrongPoint;
        impl fcp::Pattern for WrongPoint {
            fn name(&self) -> &str {
                "WrongPoint"
            }
            fn improves(&self) -> Characteristic {
                Characteristic::Performance
            }
            fn prerequisites(&self) -> Vec<fcp::Prerequisite> {
                // requires a node point, yet advertises the graph point
                vec![fcp::Prerequisite::IsNode]
            }
            fn candidate_points(
                &self,
                _ctx: &fcp::PatternContext<'_>,
            ) -> Vec<fcp::ApplicationPoint> {
                vec![fcp::ApplicationPoint::Graph]
            }
            fn apply_unchecked(
                &self,
                _flow: &mut EtlFlow,
                _point: fcp::ApplicationPoint,
                _schemas: &etl_model::SchemaTable,
            ) -> Result<fcp::AppliedPattern, fcp::PatternError> {
                panic!("an inapplicable point must never reach apply_unchecked");
            }
        }

        let (f, _) = purchases_flow();
        let cat = purchases_catalog(60, &DirtProfile::demo(), 5);
        let mut reg = PatternRegistry::standard_for_catalog(&cat);
        reg.register(WrongPoint);
        let config = PlannerConfig {
            // room for every single-candidate combination: enumeration is
            // ordered by pattern name and `WrongPoint` sorts last
            max_alternatives: 500,
            policy: DeploymentPolicy::exhaustive(1),
            ..PlannerConfig::default()
        };
        let p = Planner::new(f, cat, reg, config);
        let out = p.plan().unwrap();
        assert!(
            out.failed_applications > 0,
            "the wrong point must fail its application"
        );
        assert_eq!(out.statically_rejected, 0);
        assert_eq!(out.failed_evaluations, 0);
        assert!(!out.alternatives.is_empty(), "good designs must survive");
    }

    /// A pattern whose application breaks the flow: it rewrites the
    /// filter predicate over a column that does not exist.
    struct GhostColumn;
    impl fcp::Pattern for GhostColumn {
        fn name(&self) -> &str {
            "GhostColumn"
        }
        fn improves(&self) -> Characteristic {
            Characteristic::DataQuality
        }
        fn prerequisites(&self) -> Vec<fcp::Prerequisite> {
            vec![]
        }
        fn candidate_points(&self, _ctx: &fcp::PatternContext<'_>) -> Vec<fcp::ApplicationPoint> {
            vec![fcp::ApplicationPoint::Graph]
        }
        fn apply_unchecked(
            &self,
            flow: &mut EtlFlow,
            point: fcp::ApplicationPoint,
            _schemas: &etl_model::SchemaTable,
        ) -> Result<fcp::AppliedPattern, fcp::PatternError> {
            let n = flow.ops_of_kind("filter")[0];
            if let etl_model::OpKind::Filter { predicate } = &mut flow.op_mut(n).unwrap().kind {
                *predicate = etl_model::expr::Expr::col("__ghost__");
            }
            Ok(fcp::AppliedPattern {
                pattern: "GhostColumn".into(),
                point,
                added_nodes: vec![],
            })
        }
    }

    #[test]
    fn invalid_applications_are_prescreened_before_evaluation() {
        // A pattern whose application breaks the flow (rewrites the filter
        // predicate over a column that does not exist). With the structural
        // screen on, the broken designs are counted as static rejections
        // and evaluation never sees them; with it off, the same workload
        // pays for the failures at evaluation time.
        let run = |prescreen: bool| {
            let (f, _) = purchases_flow();
            let cat = purchases_catalog(60, &DirtProfile::demo(), 5);
            let mut reg = PatternRegistry::standard_for_catalog(&cat);
            reg.register(GhostColumn);
            let config = PlannerConfig {
                eval_mode: EvalMode::Simulate,
                max_alternatives: 500,
                policy: DeploymentPolicy::exhaustive(1),
                prescreen,
                ..PlannerConfig::default()
            };
            Planner::new(f, cat, reg, config).plan().unwrap()
        };

        let screened = run(true);
        assert!(
            screened.statically_rejected > 0,
            "broken flows must be pruned"
        );
        assert_eq!(
            screened.failed_evaluations, 0,
            "evaluation must never see them"
        );
        assert!(
            !screened.alternatives.is_empty(),
            "good designs must survive"
        );

        let unscreened = run(false);
        assert_eq!(unscreened.statically_rejected, 0);
        assert!(
            unscreened.failed_evaluations > 0,
            "without the screen the same workload fails at evaluation time"
        );
        assert_eq!(screened.skyline_names(), unscreened.skyline_names());
    }

    #[test]
    fn delta_evaluation_is_bit_identical_to_full() {
        // The tentpole's acceptance bar: with `delta_eval` on (default)
        // every alternative's MeasureVector equals the from-scratch value
        // exactly — not approximately — and the frontier is unchanged.
        let run = |delta_eval: bool| {
            planner(PlannerConfig {
                delta_eval,
                ..PlannerConfig::default()
            })
            .plan()
            .unwrap()
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast.skyline_names(), slow.skyline_names());
        assert_eq!(fast.skyline, slow.skyline);
        assert_eq!(fast.alternatives.len(), slow.alternatives.len());
        for (a, b) in fast.alternatives.iter().zip(&slow.alternatives) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.measures, b.measures,
                "delta-evaluated measures must be bit-identical for {}",
                a.name
            );
        }
        assert_eq!(fast.statically_rejected, slow.statically_rejected);
        assert_eq!(fast.failed_applications, slow.failed_applications);
        assert_eq!(fast.failed_evaluations, slow.failed_evaluations);
    }

    #[test]
    fn delta_evaluation_screens_broken_applications_identically() {
        // The delta post-screen must reject exactly the combinations the
        // full screen rejects (a pattern whose application breaks schema
        // consistency), with identical counters.
        let run = |delta_eval: bool| {
            let (f, _) = purchases_flow();
            let cat = purchases_catalog(60, &DirtProfile::demo(), 5);
            let mut reg = PatternRegistry::standard_for_catalog(&cat);
            reg.register(GhostColumn);
            let config = PlannerConfig {
                max_alternatives: 500,
                policy: DeploymentPolicy::exhaustive(2),
                delta_eval,
                ..PlannerConfig::default()
            };
            Planner::new(f, cat, reg, config).plan().unwrap()
        };
        let fast = run(true);
        let slow = run(false);
        assert!(fast.statically_rejected > 0, "broken flows must be pruned");
        assert_eq!(fast.statically_rejected, slow.statically_rejected);
        assert_eq!(fast.failed_evaluations, 0);
        assert_eq!(fast.skyline_names(), slow.skyline_names());
    }

    #[test]
    fn simulate_cycles_on_the_prefix_stack_equal_the_oracle() {
        // Simulate cycles apply on the prefix stack too. They must equal the
        // `delta_eval: false` oracle (`apply_combination` plus a full
        // screen) exactly, broken applications included.
        let run = |delta_eval: bool| {
            let (f, _) = purchases_flow();
            let cat = purchases_catalog(60, &DirtProfile::demo(), 5);
            let mut reg = PatternRegistry::standard_for_catalog(&cat);
            reg.register(GhostColumn);
            let config = PlannerConfig {
                eval_mode: EvalMode::Simulate,
                policy: DeploymentPolicy::exhaustive(2),
                delta_eval,
                ..PlannerConfig::default()
            };
            Planner::new(f, cat, reg, config).plan().unwrap()
        };
        let stack = run(true);
        let oracle = run(false);
        assert!(!stack.stats.truncated, "the whole space is walked");
        assert!(stack.statically_rejected > 0, "broken flows must be pruned");
        assert_eq!(stack.stats, oracle.stats);
        assert_eq!(stack.skyline, oracle.skyline);
        assert_eq!(stack.alternatives.len(), oracle.alternatives.len());
        let bits = |m: &MeasureVector| -> Vec<(MeasureId, u64)> {
            m.iter().map(|(id, v)| (id, v.to_bits())).collect()
        };
        for (a, b) in stack.alternatives.iter().zip(&oracle.alternatives) {
            assert_eq!(a.name, b.name);
            assert_eq!(bits(&a.measures), bits(&b.measures), "for {}", a.name);
        }
        assert_eq!(stack.statically_rejected, oracle.statically_rejected);
        assert_eq!(stack.failed_applications, oracle.failed_applications);
        assert_eq!(stack.failed_evaluations, oracle.failed_evaluations);
        assert_eq!(
            stack.rejected_by_constraints,
            oracle.rejected_by_constraints
        );
    }
}
