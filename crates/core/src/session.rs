//! The iterative redesign session.
//!
//! §3: "the redesign process takes place in an iterative, incremental and
//! intuitive fashion … the user makes a selection decision and the tool
//! implements this decision by integrating the corresponding patterns to
//! the existing process flow. Subsequently, new iteration cycles commence,
//! until the user considers that the flow adequately satisfies quality
//! goals."

use crate::error::PoiesisError;
use crate::planner::{Planner, PlannerOutcome};
use etl_model::EtlFlow;

/// Record of one completed iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (1-based).
    pub cycle: usize,
    /// Name of the selected alternative.
    pub selected: String,
    /// Patterns that were integrated.
    pub integrated: Vec<String>,
    /// Scores of the selected design against that cycle's baseline.
    pub scores: Vec<f64>,
}

/// An iterative redesign session wrapping a [`Planner`].
pub struct Session {
    planner: Planner,
    /// The user's original flow name, captured once at session start so
    /// per-cycle fork names are always `<base>__cycle<N>` — no string
    /// surgery on the evolving name (which broke for users whose flow name
    /// itself contained `"__cycle"`).
    base_name: String,
    history: Vec<IterationRecord>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // the planner's registry holds trait objects; summarise instead
        f.debug_struct("Session")
            .field("base_name", &self.base_name)
            .field("current_flow", &self.planner.flow().name)
            .field("cycles_completed", &self.history.len())
            .finish()
    }
}

impl Session {
    /// Starts a session on a planner.
    pub fn new(planner: Planner) -> Self {
        let base_name = planner.flow().name.clone();
        Session {
            planner,
            base_name,
            history: Vec::new(),
        }
    }

    /// Rebuilds a session from persisted state: a planner whose flow is
    /// the (possibly already-evolved) flow of a snapshot, the original
    /// `base_name` captured at session start, and the completed iteration
    /// history. The inverse of reading [`base_name`](Self::base_name),
    /// [`current_flow`](Self::current_flow) and [`history`](Self::history)
    /// out of a live session — which is exactly what
    /// [`SessionManager::snapshot`](crate::SessionManager::snapshot) does.
    pub fn restore(planner: Planner, base_name: String, history: Vec<IterationRecord>) -> Self {
        Session {
            planner,
            base_name,
            history,
        }
    }

    /// The user's original flow name, captured once at session start
    /// (fork names are always `<base_name>__cycle<N>`).
    pub fn base_name(&self) -> &str {
        &self.base_name
    }

    /// The current flow (after all integrations so far).
    pub fn current_flow(&self) -> &EtlFlow {
        self.planner.flow()
    }

    /// The wrapped planner (read access for reports and benches).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The quality objective driving exploration and selection.
    pub fn objective(&self) -> &crate::objective::Objective {
        &self.planner.config().objective
    }

    /// Completed iterations.
    pub fn history(&self) -> &[IterationRecord] {
        &self.history
    }

    /// Runs one planning cycle (generation → application → estimation →
    /// skyline) without integrating anything yet.
    pub fn explore(&self) -> Result<PlannerOutcome, PoiesisError> {
        self.planner.plan()
    }

    /// Integrates the alternative at `skyline_rank` (0 = best objective on
    /// the frontier) of `outcome` into the process, ending the cycle.
    /// Returns the record, or `None` when the rank is out of range.
    pub fn select(
        &mut self,
        outcome: &PlannerOutcome,
        skyline_rank: usize,
    ) -> Option<&IterationRecord> {
        let alt = outcome.skyline_alternative(skyline_rank)?;
        let record = IterationRecord {
            cycle: self.history.len() + 1,
            selected: alt.name.clone(),
            integrated: alt.applied.clone(),
            scores: alt.scores.clone(),
        };
        self.planner.set_flow(
            alt.flow
                .fork(format!("{}__cycle{}", self.base_name, record.cycle)),
        );
        self.history.push(record);
        self.history.last()
    }

    /// Convenience loop: run `cycles` iterations, always selecting the
    /// frontier design that best satisfies the objective. Returns the
    /// history length.
    pub fn auto_run(&mut self, cycles: usize) -> Result<usize, PoiesisError> {
        for _ in 0..cycles {
            let outcome = self.explore()?;
            if outcome.skyline.is_empty() {
                break;
            }
            self.select(&outcome, 0);
        }
        Ok(self.history.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use fcp::PatternRegistry;

    fn session() -> Session {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(150, &DirtProfile::demo(), 5);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        Session::new(Planner::new(f, cat, reg, PlannerConfig::default()))
    }

    #[test]
    fn select_integrates_patterns_into_the_flow() {
        let mut s = session();
        let base_ops = s.current_flow().op_count();
        let outcome = s.explore().unwrap();
        let rec = s.select(&outcome, 0).unwrap();
        assert_eq!(rec.cycle, 1);
        assert!(!rec.selected.is_empty());
        // structural patterns grow the flow; graph-only selections keep size
        assert!(s.current_flow().op_count() >= base_ops);
        assert_eq!(s.history().len(), 1);
    }

    #[test]
    fn explore_with_custom_strategy_feeds_selection() {
        let mut s = session();
        // quick beam pass instead of the configured exhaustive walk
        let strategy = crate::search::Beam { width: 4 };
        let outcome = s.planner().plan_with(&strategy).unwrap();
        assert!(!outcome.skyline.is_empty());
        let rec = s.select(&outcome, 0).unwrap();
        assert_eq!(rec.cycle, 1);
    }

    #[test]
    fn out_of_range_rank_returns_none() {
        let mut s = session();
        let outcome = s.explore().unwrap();
        assert!(s.select(&outcome, 10_000).is_none());
        assert!(s.history().is_empty());
    }

    #[test]
    fn fork_names_derive_from_the_original_base_name() {
        // A user flow whose own name contains the fork marker must not be
        // mangled by selection (the old `split("__cycle")` hack truncated
        // it to "pipeline").
        let (mut f, _) = purchases_flow();
        f.name = "pipeline__cycle_test".to_string();
        let cat = purchases_catalog(150, &DirtProfile::demo(), 5);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        let mut s = Session::new(Planner::new(f, cat, reg, PlannerConfig::default()));
        for expected in [
            "pipeline__cycle_test__cycle1",
            "pipeline__cycle_test__cycle2",
        ] {
            let outcome = s.explore().unwrap();
            s.select(&outcome, 0).unwrap();
            assert_eq!(s.current_flow().name, expected);
        }
    }

    #[test]
    fn select_by_rank_matches_the_ranked_iterator() {
        let mut s = session();
        let outcome = s.explore().unwrap();
        let rank = outcome.skyline_ranked().len().min(2).saturating_sub(1);
        let expect = outcome
            .skyline_alternatives()
            .nth(rank)
            .map(|a| a.name.clone())
            .unwrap();
        assert_eq!(
            outcome.skyline_alternative(rank).map(|a| a.name.clone()),
            Some(expect.clone())
        );
        let rec = s.select(&outcome, rank).unwrap();
        assert_eq!(rec.selected, expect);
    }

    #[test]
    fn iterative_cycles_compound_improvements() {
        let mut s = session();
        let n = s.auto_run(3).unwrap();
        assert_eq!(n, 3);
        // Each selected design improved at least one dimension over its
        // cycle baseline.
        for rec in s.history() {
            assert!(
                rec.scores.iter().any(|&x| x > 100.0),
                "cycle {} scores {:?}",
                rec.cycle,
                rec.scores
            );
        }
        // The flow accumulated pattern-inserted operations or config changes.
        let f = s.current_flow();
        let pattern_ops = f.count_ops(|op| op.from_pattern().is_some());
        assert!(
            pattern_ops > 0
                || f.config.encrypted
                || f.config.role_based_access
                || f.config.resources != etl_model::ResourceClass::Small,
            "three cycles must leave visible integrations"
        );
        f.validate().unwrap();
    }
}
