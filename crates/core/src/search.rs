//! Pluggable search strategies over the combination space.
//!
//! §2.2 calls the space "factorial to the size of the graph"; walking all
//! of it is only one option. A [`SearchStrategy`] decides *which*
//! combinations get evaluated and in what order, submitting them in batches
//! to a [`CombinationSink`] (the planner's streaming engine) that applies,
//! scores and skyline-filters them — so the strategy never sees a flow and
//! the engine never sees the walk order. Three scenario-diverse walkers are
//! built in:
//!
//! * [`Exhaustive`] — the whole space, lazily, via [`CombinationIter`];
//! * [`Beam`] — depth-by-depth, keeping only the `width` best-scoring
//!   partial combinations per depth (large spaces, bounded work);
//! * [`GreedyHillClimb`] — grows a single combination one pattern at a
//!   time, following the best improvement (cheapest, local optimum).

use crate::explore::{combination_valid, CombinationIter};
use crate::generate::Candidate;
use fcp::DeploymentPolicy;

/// How many combinations [`Exhaustive`] hands to the sink per batch: large
/// enough to amortise worker-pool spin-up, small enough to keep memory
/// O(batch) rather than O(space).
const SUBMIT_BATCH: usize = 2048;

/// The space a strategy walks: candidates, the policy constraining valid
/// combinations, and the evaluation budget.
pub struct SearchSpace<'a> {
    /// Candidate pattern applications (combinations index into this).
    pub candidates: &'a [Candidate],
    /// Policy caps (combination depth, per-pattern cap, point conflicts).
    pub policy: &'a DeploymentPolicy,
    /// Maximum number of combinations that may be submitted for evaluation.
    pub budget: usize,
}

/// Where strategies send work. Implemented by the planner's streaming
/// engine: each submitted combination is applied and evaluated (workers
/// pull from a shared cursor), scored against the baseline, offered to the
/// incremental skyline, and — per combination, in submission order — the
/// scalar objective (characteristic score sum) comes back, or `None` when
/// the combination failed application/evaluation or was rejected by policy
/// constraints. Scores give feedback-driven strategies (beam, greedy)
/// their steering signal.
pub trait CombinationSink {
    /// Evaluates a batch; `result[i]` corresponds to `combos[i]`.
    fn submit(&mut self, combos: &[Vec<usize>]) -> Vec<Option<f64>>;
}

/// What a strategy walked (feeds [`SpaceStats`](crate::explore::SpaceStats)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchReport {
    /// Combinations submitted for evaluation.
    pub enumerated: usize,
    /// Combinations (or partial extensions) discarded as invalid.
    pub conflicts: usize,
    /// True when the budget cut the walk short.
    pub truncated: bool,
}

/// A walk over the combination space.
pub trait SearchStrategy: Send + Sync {
    /// Strategy name for reports and sweep tables.
    fn name(&self) -> &str;
    /// Walks `space`, submitting combinations to `sink`.
    fn run(&self, space: &SearchSpace<'_>, sink: &mut dyn CombinationSink) -> SearchReport;
    /// Whether the walk steers by the per-combination objective scalars the
    /// sink returns (beam, greedy). Defaults to `true`. The planner reads
    /// nothing of it; kept only for perfbench's replay, and ROADMAP item 3
    /// deletes it.
    fn uses_steering(&self) -> bool {
        true
    }
}

/// Serialisable strategy selector for [`PlannerConfig`](crate::PlannerConfig)
/// (the trait stays open for user-defined walkers via
/// [`Planner::plan_with`](crate::Planner::plan_with)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategyKind {
    /// Walk the whole space lazily.
    Exhaustive,
    /// Beam search keeping `width` partials per depth.
    Beam {
        /// Partial combinations kept per depth.
        width: usize,
    },
    /// Greedy single-path hill climb.
    GreedyHillClimb,
}

impl SearchStrategyKind {
    /// Builds the strategy this selector names.
    pub fn instantiate(&self) -> Box<dyn SearchStrategy> {
        match *self {
            SearchStrategyKind::Exhaustive => Box::new(Exhaustive),
            SearchStrategyKind::Beam { width } => Box::new(Beam { width }),
            SearchStrategyKind::GreedyHillClimb => Box::new(GreedyHillClimb),
        }
    }
}

impl std::fmt::Display for SearchStrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchStrategyKind::Exhaustive => write!(f, "exhaustive"),
            SearchStrategyKind::Beam { width } => write!(f, "beam:{width}"),
            SearchStrategyKind::GreedyHillClimb => write!(f, "greedy"),
        }
    }
}

impl std::str::FromStr for SearchStrategyKind {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) syntax back: `exhaustive`,
    /// `greedy`, `beam` (default width 16) or `beam:<width>`. One parser
    /// shared by the CLI flags and the wire DTOs.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exhaustive" => Ok(SearchStrategyKind::Exhaustive),
            "greedy" => Ok(SearchStrategyKind::GreedyHillClimb),
            "beam" => Ok(SearchStrategyKind::Beam { width: 16 }),
            _ => {
                if let Some(w) = s.strip_prefix("beam:") {
                    let width: usize = w.parse().map_err(|_| format!("bad beam width in `{s}`"))?;
                    if width == 0 {
                        return Err(format!("beam width must be positive in `{s}`"));
                    }
                    Ok(SearchStrategyKind::Beam { width })
                } else {
                    Err(format!("unknown strategy `{s}`"))
                }
            }
        }
    }
}

// ------------------------------------------------------------- exhaustive

/// Streams every valid combination (up to the budget) through the sink in
/// lazy batches — the full space, O(batch) memory.
pub struct Exhaustive;

impl SearchStrategy for Exhaustive {
    fn name(&self) -> &str {
        "exhaustive"
    }

    /// The exhaustive walk ignores the returned scalars entirely.
    fn uses_steering(&self) -> bool {
        false
    }

    fn run(&self, space: &SearchSpace<'_>, sink: &mut dyn CombinationSink) -> SearchReport {
        let mut iter = CombinationIter::new(space.candidates, space.policy, space.budget);
        loop {
            let batch: Vec<Vec<usize>> = iter.by_ref().take(SUBMIT_BATCH).collect();
            if batch.is_empty() {
                break;
            }
            sink.submit(&batch);
        }
        let stats = iter.stats();
        SearchReport {
            enumerated: stats.enumerated,
            conflicts: stats.conflicts,
            truncated: stats.truncated,
        }
    }
}

// ------------------------------------------------------------------- beam

/// Depth-by-depth beam search: evaluate all singletons, keep the `width`
/// best, extend each survivor with every higher-indexed candidate, and
/// repeat to the policy depth. Ascending-only extension guarantees each
/// subset is visited at most once.
pub struct Beam {
    /// Partial combinations kept per depth.
    pub width: usize,
}

impl SearchStrategy for Beam {
    fn name(&self) -> &str {
        "beam"
    }

    fn run(&self, space: &SearchSpace<'_>, sink: &mut dyn CombinationSink) -> SearchReport {
        let n = space.candidates.len();
        let depth = space.policy.combination_depth(n);
        let width = self.width.max(1);
        let mut report = SearchReport::default();
        if depth == 0 {
            return report;
        }
        let singles = valid_extensions(space, &mut report, std::iter::once(&Vec::new()));
        let mut beam = submit_scored(space, sink, &mut report, singles);
        beam.truncate(width);
        for _ in 2..=depth {
            if beam.is_empty() || report.truncated {
                break;
            }
            let extensions =
                valid_extensions(space, &mut report, beam.iter().map(|(combo, _)| combo));
            if extensions.is_empty() {
                break;
            }
            beam = submit_scored(space, sink, &mut report, extensions);
            beam.truncate(width);
        }
        report
    }
}

/// All valid one-candidate extensions of `parents`, each extension keeping
/// indices ascending (so no subset is generated twice); invalid extensions
/// are counted as conflicts.
fn valid_extensions<'a>(
    space: &SearchSpace<'_>,
    report: &mut SearchReport,
    parents: impl Iterator<Item = &'a Vec<usize>>,
) -> Vec<Vec<usize>> {
    let n = space.candidates.len();
    let mut out = Vec::new();
    for parent in parents {
        let start = parent.last().map_or(0, |&last| last + 1);
        for j in start..n {
            let mut child = parent.clone();
            child.push(j);
            if combination_valid(space.candidates, &child, space.policy) {
                out.push(child);
            } else {
                report.conflicts += 1;
            }
        }
    }
    out
}

/// Submits `combos` (clipped to the remaining budget), pairing each with
/// its objective; returns the scored survivors sorted best-first.
fn submit_scored(
    space: &SearchSpace<'_>,
    sink: &mut dyn CombinationSink,
    report: &mut SearchReport,
    mut combos: Vec<Vec<usize>>,
) -> Vec<(Vec<usize>, f64)> {
    let remaining = space.budget.saturating_sub(report.enumerated);
    if combos.len() > remaining {
        combos.truncate(remaining);
        report.truncated = true;
    }
    if combos.is_empty() {
        return Vec::new();
    }
    report.enumerated += combos.len();
    let scores = sink.submit(&combos);
    let mut scored: Vec<(Vec<usize>, f64)> = combos
        .into_iter()
        .zip(scores)
        .filter_map(|(combo, score)| score.map(|s| (combo, s)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored
}

// ----------------------------------------------------------------- greedy

/// Greedy hill climb: start from the best singleton and repeatedly add the
/// candidate whose inclusion improves the objective most, stopping at the
/// policy depth or a local optimum. Evaluates O(n · depth) combinations.
pub struct GreedyHillClimb;

impl SearchStrategy for GreedyHillClimb {
    fn name(&self) -> &str {
        "greedy"
    }

    fn run(&self, space: &SearchSpace<'_>, sink: &mut dyn CombinationSink) -> SearchReport {
        let n = space.candidates.len();
        let depth = space.policy.combination_depth(n);
        let mut report = SearchReport::default();
        if depth == 0 {
            return report;
        }
        let singles = valid_extensions(space, &mut report, std::iter::once(&Vec::new()));
        let mut best = match submit_scored(space, sink, &mut report, singles)
            .into_iter()
            .next()
        {
            Some(b) => b,
            None => return report,
        };
        while best.0.len() < depth && !report.truncated {
            // try inserting every absent candidate, keeping indices sorted
            // so names and apply order stay canonical
            let mut moves = Vec::new();
            for j in 0..n {
                if best.0.binary_search(&j).is_ok() {
                    continue;
                }
                let mut child = best.0.clone();
                let at = child.binary_search(&j).unwrap_err();
                child.insert(at, j);
                if combination_valid(space.candidates, &child, space.policy) {
                    moves.push(child);
                } else {
                    report.conflicts += 1;
                }
            }
            let Some(step) = submit_scored(space, sink, &mut report, moves)
                .into_iter()
                .next()
            else {
                break;
            };
            if step.1 <= best.1 {
                break; // local optimum
            }
            best = step;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_uncapped;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use fcp::PatternRegistry;
    use std::collections::HashSet;

    fn candidates() -> Vec<Candidate> {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(100, &DirtProfile::demo(), 1);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        generate_uncapped(&f, &reg).unwrap()
    }

    /// A sink that records submissions and scores a combo by the sum of its
    /// candidate fitnesses (deterministic, no flows involved).
    struct FitnessSink<'a> {
        candidates: &'a [Candidate],
        seen: Vec<Vec<usize>>,
    }

    impl CombinationSink for FitnessSink<'_> {
        fn submit(&mut self, combos: &[Vec<usize>]) -> Vec<Option<f64>> {
            let scores = combos
                .iter()
                .map(|c| Some(c.iter().map(|&i| self.candidates[i].fitness).sum()))
                .collect();
            self.seen.extend_from_slice(combos);
            scores
        }
    }

    fn run(
        strategy: &dyn SearchStrategy,
        policy: &DeploymentPolicy,
        budget: usize,
    ) -> (Vec<Vec<usize>>, SearchReport) {
        let cands = candidates();
        let space = SearchSpace {
            candidates: &cands,
            policy,
            budget,
        };
        let mut sink = FitnessSink {
            candidates: &cands,
            seen: Vec::new(),
        };
        let report = strategy.run(&space, &mut sink);
        (sink.seen, report)
    }

    #[test]
    fn exhaustive_submits_exactly_the_lazy_enumeration() {
        let policy = DeploymentPolicy::exhaustive(2);
        let (seen, report) = run(&Exhaustive, &policy, usize::MAX);
        let cands = candidates();
        let mut iter = CombinationIter::new(&cands, &policy, usize::MAX);
        let lazy: Vec<Vec<usize>> = iter.by_ref().collect();
        let stats = iter.stats();
        assert_eq!(seen, lazy);
        assert_eq!(report.enumerated, stats.enumerated);
        assert_eq!(report.conflicts, stats.conflicts);
        assert!(!report.truncated);
    }

    #[test]
    fn beam_visits_no_subset_twice_and_respects_budget() {
        let policy = DeploymentPolicy::exhaustive(3);
        let (seen, report) = run(&Beam { width: 5 }, &policy, usize::MAX);
        let unique: HashSet<&Vec<usize>> = seen.iter().collect();
        assert_eq!(unique.len(), seen.len(), "no duplicate submissions");
        assert_eq!(report.enumerated, seen.len());
        // a tight budget truncates
        let (seen_tight, report_tight) = run(&Beam { width: 5 }, &policy, 10);
        assert_eq!(seen_tight.len(), 10);
        assert!(report_tight.truncated);
    }

    #[test]
    fn beam_explores_depth_layers() {
        let policy = DeploymentPolicy::exhaustive(3);
        let (seen, _) = run(&Beam { width: 4 }, &policy, usize::MAX);
        for k in 1..=3usize {
            assert!(
                seen.iter().any(|c| c.len() == k),
                "beam never reached depth {k}"
            );
        }
        // every submitted combo is sorted ascending (canonical form)
        for c in &seen {
            assert!(c.windows(2).all(|w| w[0] < w[1]), "{c:?} not canonical");
        }
    }

    #[test]
    fn greedy_follows_improvements_to_a_local_optimum() {
        let policy = DeploymentPolicy::exhaustive(3);
        let (seen, report) = run(&GreedyHillClimb, &policy, usize::MAX);
        let cands = candidates();
        // greedy is cheap: far fewer evaluations than the full space
        let all = CombinationIter::new(&cands, &policy, usize::MAX).count();
        assert!(seen.len() < all / 2, "{} vs {all}", seen.len());
        assert_eq!(report.enumerated, seen.len());
        // the deepest combo seen must score at least as well as any single
        let best_single = cands
            .iter()
            .map(|c| c.fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_seen = seen
            .iter()
            .map(|c| c.iter().map(|&i| cands[i].fitness).sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best_seen >= best_single);
    }

    #[test]
    fn kind_roundtrips_to_strategies() {
        for (kind, name) in [
            (SearchStrategyKind::Exhaustive, "exhaustive"),
            (SearchStrategyKind::Beam { width: 8 }, "beam"),
            (SearchStrategyKind::GreedyHillClimb, "greedy"),
        ] {
            assert_eq!(kind.instantiate().name(), name);
        }
        assert_eq!(SearchStrategyKind::Beam { width: 8 }.to_string(), "beam:8");
    }

    #[test]
    fn kind_parses_its_own_display_syntax() {
        for kind in [
            SearchStrategyKind::Exhaustive,
            SearchStrategyKind::Beam { width: 8 },
            SearchStrategyKind::GreedyHillClimb,
        ] {
            assert_eq!(kind.to_string().parse::<SearchStrategyKind>(), Ok(kind));
        }
        assert_eq!(
            "beam".parse::<SearchStrategyKind>(),
            Ok(SearchStrategyKind::Beam { width: 16 })
        );
        assert!("beam:0".parse::<SearchStrategyKind>().is_err());
        assert!("beam:x".parse::<SearchStrategyKind>().is_err());
        assert!("dfs".parse::<SearchStrategyKind>().is_err());
    }

    #[test]
    fn empty_space_yields_empty_reports() {
        let policy = DeploymentPolicy::balanced();
        let space = SearchSpace {
            candidates: &[],
            policy: &policy,
            budget: 100,
        };
        for kind in [
            SearchStrategyKind::Exhaustive,
            SearchStrategyKind::Beam { width: 3 },
            SearchStrategyKind::GreedyHillClimb,
        ] {
            let mut sink = FitnessSink {
                candidates: &[],
                seen: Vec::new(),
            };
            let report = kind.instantiate().run(&space, &mut sink);
            assert_eq!(report, SearchReport::default(), "{kind}");
            assert!(sink.seen.is_empty());
        }
    }
}
