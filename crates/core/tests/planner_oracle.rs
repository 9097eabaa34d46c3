//! The planner against the from-base oracle (`oracle/mod.rs`) on the
//! Fig. 2 and TPC-H demo flows: the static post-screen is invisible on
//! valid workloads, rejects exactly the designs the oracle's full screen
//! rejects, and every alternative's measures, the frontier and every
//! counter equal the oracle's bit for bit, in estimate and simulate mode
//! and under every search strategy.

mod oracle;

use datagen::fig2::{purchases_catalog, purchases_flow};
use datagen::tpch::{tpch_catalog, tpch_flow};
use datagen::DirtProfile;
use etl_model::EtlFlow;
use fcp::{DeploymentPolicy, PatternRegistry};
use poiesis::{EvalMode, Planner, PlannerConfig, SearchStrategyKind};
use quality::Characteristic;

fn planner(config: PlannerConfig) -> Planner {
    let (f, _) = purchases_flow();
    let cat = purchases_catalog(150, &DirtProfile::demo(), 5);
    let reg = PatternRegistry::standard_for_catalog(&cat);
    Planner::new(f, cat, reg, config)
}

#[test]
fn prescreening_preserves_the_frontier() {
    // The post-screen must be invisible on valid workloads: the planner
    // equals the unscreened oracle exactly, on both demo flows.
    let p = planner(PlannerConfig::default());
    let screened = p.plan().unwrap();
    oracle::assert_matches(&screened, &oracle::plan_unscreened(&p));
    assert_eq!(screened.statically_rejected, 0);

    let (f, _) = tpch_flow();
    let cat = tpch_catalog(120, &DirtProfile::demo(), 5);
    let reg = PatternRegistry::standard_for_catalog(&cat);
    let config = PlannerConfig {
        max_alternatives: 2_000,
        ..PlannerConfig::default()
    };
    let p = Planner::new(f, cat, reg, config);
    let screened = p.plan().unwrap();
    oracle::assert_matches(&screened, &oracle::plan_unscreened(&p));
    assert_eq!(screened.statically_rejected, 0);
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

/// A Fig. 2 planner with [`GhostColumn`] beside the standard palette.
fn ghost_planner(config: PlannerConfig) -> Planner {
    let (f, _) = purchases_flow();
    let cat = purchases_catalog(60, &DirtProfile::demo(), 5);
    let mut reg = PatternRegistry::standard_for_catalog(&cat);
    reg.register(GhostColumn);
    Planner::new(f, cat, reg, config)
}

const STRATEGIES: [SearchStrategyKind; 3] = [
    SearchStrategyKind::Exhaustive,
    SearchStrategyKind::Beam { width: 6 },
    SearchStrategyKind::GreedyHillClimb,
];

#[test]
fn invalid_applications_are_prescreened_before_evaluation() {
    // A pattern whose application breaks the flow (rewrites the filter
    // predicate over a column that does not exist). The structural
    // screen counts the broken designs as static rejections and
    // evaluation never sees them; the unscreened oracle pays for the
    // same failures at evaluation time.
    let p = ghost_planner(PlannerConfig {
        eval_mode: EvalMode::Simulate,
        max_alternatives: 500,
        policy: DeploymentPolicy::exhaustive(1),
        ..PlannerConfig::default()
    });
    let screened = p.plan().unwrap();
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

    let unscreened = oracle::plan_unscreened(&p);
    assert_eq!(unscreened.statically_rejected, 0);
    assert_eq!(
        unscreened.failed_evaluations, screened.statically_rejected,
        "without the screen the same designs fail at evaluation time"
    );
    assert_eq!(unscreened.skyline, screened.skyline);
    oracle::assert_matches(&screened, &oracle::plan(&p));
}

#[test]
fn delta_evaluation_is_bit_identical_to_full() {
    // Every alternative's MeasureVector equals the from-base oracle's
    // exactly — not approximately — and so do the frontier and every
    // counter, under every strategy.
    for strategy in STRATEGIES {
        let p = planner(PlannerConfig {
            strategy,
            ..PlannerConfig::default()
        });
        let out = p.plan().unwrap();
        assert!(!out.alternatives.is_empty(), "{strategy}");
        oracle::assert_matches(&out, &oracle::plan(&p));
    }
}

#[test]
fn delta_evaluation_screens_broken_applications_identically() {
    // The delta post-screen must reject exactly the combinations the
    // oracle's full screen rejects (a pattern whose application breaks
    // schema consistency), with identical counters.
    for strategy in STRATEGIES {
        let p = ghost_planner(PlannerConfig {
            strategy,
            max_alternatives: 500,
            policy: DeploymentPolicy::exhaustive(2),
            ..PlannerConfig::default()
        });
        let out = p.plan().unwrap();
        assert!(
            out.statically_rejected > 0,
            "{strategy}: broken flows must be pruned"
        );
        assert_eq!(out.failed_evaluations, 0);
        oracle::assert_matches(&out, &oracle::plan(&p));
    }
}

#[test]
fn simulate_cycles_on_the_prefix_stack_equal_the_oracle() {
    // Simulate cycles apply on the prefix stack too. They must equal the
    // oracle (`apply_combination` plus a full screen) exactly, broken
    // applications included.
    for strategy in STRATEGIES {
        let p = ghost_planner(PlannerConfig {
            strategy,
            eval_mode: EvalMode::Simulate,
            policy: DeploymentPolicy::exhaustive(2),
            ..PlannerConfig::default()
        });
        let out = p.plan().unwrap();
        assert!(
            !out.stats.truncated,
            "{strategy}: the whole space is walked"
        );
        assert!(
            out.statically_rejected > 0,
            "{strategy}: broken flows must be pruned"
        );
        oracle::assert_matches(&out, &oracle::plan(&p));
    }
}
