//! Cross-crate properties of the incremental-evaluation tentpole: delta
//! (copy-on-write + cached-baseline) planning must be *bit-identical* to
//! from-scratch planning — same measure vectors, same Pareto frontier —
//! across every demo workload and every search strategy, and forked flows
//! must actually share their untouched storage.

use datagen::fig2::{purchases_catalog, purchases_flow};
use datagen::tpcds::{tpcds_catalog, tpcds_flow};
use datagen::tpch::{tpch_catalog, tpch_flow};
use datagen::{Catalog, DirtProfile};
use etl_model::expr::Expr;
use etl_model::{EtlFlow, OpKind, Operation};
use fcp::custom::FitnessPreset;
use fcp::{CustomPattern, DeploymentPolicy, PatternRegistry, Prerequisite};
use poiesis::SearchStrategyKind;
use poiesis::{Planner, PlannerConfig, PlannerOutcome};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Workload {
    Demo,
    Tpch,
    Tpcds,
}

impl Workload {
    fn build(self, scale: usize) -> (EtlFlow, Catalog) {
        let dirt = DirtProfile::demo();
        match self {
            Workload::Demo => {
                let (f, _) = purchases_flow();
                (f, purchases_catalog(scale, &dirt, 5))
            }
            Workload::Tpch => {
                let (f, _) = tpch_flow();
                (f, tpch_catalog(scale, &dirt, 5))
            }
            Workload::Tpcds => {
                let (f, _) = tpcds_flow();
                (f, tpcds_catalog(scale, &dirt, 5))
            }
        }
    }
}

fn plan(workload: Workload, strategy: SearchStrategyKind, delta_eval: bool) -> PlannerOutcome {
    let (flow, catalog) = workload.build(80);
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let config = PlannerConfig {
        strategy,
        delta_eval,
        max_alternatives: 600,
        policy: DeploymentPolicy::exhaustive(2),
        ..PlannerConfig::default()
    };
    Planner::new(flow, catalog, registry, config)
        .plan()
        .unwrap()
}

/// The equality the whole PR hangs on: every retained alternative carries a
/// measure vector equal *to the bit* in both modes, and the frontier is the
/// same set of designs.
fn assert_bit_identical(fast: &PlannerOutcome, slow: &PlannerOutcome) {
    assert_eq!(fast.skyline_names(), slow.skyline_names());
    assert_eq!(fast.skyline, slow.skyline);
    assert_eq!(fast.alternatives.len(), slow.alternatives.len());
    for (a, b) in fast.alternatives.iter().zip(&slow.alternatives) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.measures, b.measures, "measures diverged for {}", a.name);
        assert_eq!(a.scores, b.scores, "scores diverged for {}", a.name);
    }
    assert_eq!(fast.statically_rejected, slow.statically_rejected);
    assert_eq!(fast.failed_applications, slow.failed_applications);
    assert_eq!(fast.failed_evaluations, slow.failed_evaluations);
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Demo),
        Just(Workload::Tpch),
        Just(Workload::Tpcds),
    ]
}

fn arb_strategy() -> impl Strategy<Value = SearchStrategyKind> {
    prop_oneof![
        Just(SearchStrategyKind::Exhaustive),
        (2usize..8).prop_map(|width| SearchStrategyKind::Beam { width }),
        Just(SearchStrategyKind::GreedyHillClimb),
    ]
}

proptest! {
    // Each case runs two full planning cycles; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_planning_matches_scratch_planning(
        workload in arb_workload(),
        strategy in arb_strategy(),
    ) {
        let fast = plan(workload, strategy, true);
        let slow = plan(workload, strategy, false);
        assert_bit_identical(&fast, &slow);
    }
}

#[test]
fn delta_matches_scratch_on_every_workload_and_strategy() {
    // The deterministic floor under the proptest: the full 3×3 grid.
    for workload in [Workload::Demo, Workload::Tpch, Workload::Tpcds] {
        for strategy in [
            SearchStrategyKind::Exhaustive,
            SearchStrategyKind::Beam { width: 4 },
            SearchStrategyKind::GreedyHillClimb,
        ] {
            let fast = plan(workload, strategy, true);
            let slow = plan(workload, strategy, false);
            assert!(!fast.alternatives.is_empty(), "{workload:?}/{strategy}");
            assert_bit_identical(&fast, &slow);
        }
    }
}

#[test]
fn planner_alternatives_share_untouched_storage_with_the_base() {
    // Copy-on-write in anger: every alternative the planner materialises is
    // a fork of the base flow, so all node slots its patch did not touch
    // must still be the *same allocations* as the base flow's.
    let (flow, catalog) = Workload::Demo.build(80);
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let planner = Planner::new(flow, catalog, registry, PlannerConfig::default());
    let out = planner.plan().unwrap();
    assert!(!out.alternatives.is_empty());
    let base = planner.flow();
    for alt in &out.alternatives {
        let delta = alt.flow.delta_since(base);
        let shared = alt.flow.graph.shared_node_slots(&base.graph);
        let live = alt.flow.graph.node_count();
        // `touched_nodes` is a sound overapproximation (an edge retarget
        // reports both endpoints even when one slot stays shared), so the
        // invariant is one-sided: every node *outside* the touched set must
        // still be the base's allocation.
        assert!(
            shared >= live - delta.touched_nodes.len(),
            "{}: patch unshared unrelated nodes ({} shared, {} live, {} touched)",
            alt.name,
            shared,
            live,
            delta.touched_nodes.len()
        );
        assert!(
            delta.touched_nodes.len() < live,
            "{}: a pattern application must not touch the whole flow",
            alt.name
        );
        assert!(shared > 0, "{}: fork shares nothing", alt.name);
    }
}

#[test]
fn delta_matches_scratch_with_a_custom_pattern() {
    // A user-defined pattern's edit runs on the incremental path too: its
    // `apply_unchecked` configures the interposed op from the carried
    // schema table, which must agree to the bit with a from-scratch plan.
    fn plan_with_custom(strategy: SearchStrategyKind, delta_eval: bool) -> PlannerOutcome {
        let (flow, catalog) = Workload::Demo.build(80);
        let mut registry = PatternRegistry::standard_for_catalog(&catalog);
        registry.register(CustomPattern::new(
            "SortEarly",
            quality::Characteristic::Manageability,
            vec![Prerequisite::SchemaHasKeyCandidate],
            FitnessPreset::NearSources,
            |schema| {
                let key = schema
                    .attrs()
                    .iter()
                    .find(|a| !a.nullable)
                    .map(|a| a.name.clone())
                    .expect("prerequisite guarantees a key candidate");
                Operation::new("SORT early", OpKind::Sort { by: vec![key] })
            },
        ));
        let config = PlannerConfig {
            strategy,
            delta_eval,
            max_alternatives: 600,
            policy: DeploymentPolicy::exhaustive(2),
            ..PlannerConfig::default()
        };
        Planner::new(flow, catalog, registry, config)
            .plan()
            .unwrap()
    }

    for strategy in [
        SearchStrategyKind::Exhaustive,
        SearchStrategyKind::Beam { width: 4 },
        SearchStrategyKind::GreedyHillClimb,
    ] {
        let fast = plan_with_custom(strategy, true);
        let slow = plan_with_custom(strategy, false);
        assert!(
            fast.alternatives
                .iter()
                .any(|a| a.applied.iter().any(|p| p.contains("SortEarly"))),
            "{strategy}: the custom pattern was never applied"
        );
        assert_bit_identical(&fast, &slow);
    }
}

/// Appends a constant audit column to an existing derive — an edit of an
/// operation in place that widens every downstream schema. It keeps the
/// default `patch_confined_to_added_nodes() == false`, so the incremental
/// applier must seed its schema repair from the fork's whole delta.
struct AuditStamp;

impl fcp::Pattern for AuditStamp {
    fn name(&self) -> &str {
        "AuditStamp"
    }

    fn improves(&self) -> quality::Characteristic {
        quality::Characteristic::Manageability
    }

    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![
            Prerequisite::IsNode,
            Prerequisite::NodeKindIn(vec!["derive"]),
        ]
    }

    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: fcp::ApplicationPoint,
        _schemas: &etl_model::SchemaTable,
    ) -> Result<fcp::AppliedPattern, fcp::PatternError> {
        let fcp::ApplicationPoint::Node(n) = point else {
            unreachable!("prerequisites admit node points only");
        };
        let op = flow.graph.node_mut(n).expect("live node");
        let OpKind::Derive { outputs } = &mut op.kind else {
            unreachable!("prerequisites admit derives only");
        };
        outputs.push((format!("audit_{}", n.index()), Expr::lit_i(1)));
        Ok(fcp::AppliedPattern {
            pattern: self.name().to_string(),
            point,
            added_nodes: Vec::new(),
        })
    }
}

#[test]
fn delta_matches_scratch_with_an_in_place_editing_pattern() {
    fn plan_with_stamp(strategy: SearchStrategyKind, delta_eval: bool) -> PlannerOutcome {
        let (flow, catalog) = Workload::Demo.build(80);
        let mut registry = PatternRegistry::standard_for_catalog(&catalog);
        registry.register(AuditStamp);
        let config = PlannerConfig {
            strategy,
            delta_eval,
            max_alternatives: 600,
            policy: DeploymentPolicy::exhaustive(2),
            ..PlannerConfig::default()
        };
        Planner::new(flow, catalog, registry, config)
            .plan()
            .unwrap()
    }

    for strategy in [
        SearchStrategyKind::Exhaustive,
        SearchStrategyKind::Beam { width: 4 },
        SearchStrategyKind::GreedyHillClimb,
    ] {
        let fast = plan_with_stamp(strategy, true);
        let slow = plan_with_stamp(strategy, false);
        assert!(
            fast.alternatives
                .iter()
                .any(|a| a.applied.iter().any(|p| p.contains("AuditStamp"))),
            "{strategy}: no combination with the in-place edit reached evaluation"
        );
        assert_bit_identical(&fast, &slow);
    }
}
