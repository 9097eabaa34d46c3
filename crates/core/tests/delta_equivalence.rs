//! Cross-crate properties of incremental planning: the planner, which
//! applies every combination on copy-on-write forks of a prefix stack, must
//! be *bit-identical* to the from-base oracle (`oracle/mod.rs`) — same
//! measure vectors, same Pareto frontier, same counters — across every
//! demo workload and every search strategy, and forked flows must actually
//! share their untouched storage.

mod oracle;

use datagen::fig2::{purchases_catalog, purchases_flow};
use datagen::tpcds::{tpcds_catalog, tpcds_flow};
use datagen::tpch::{tpch_catalog, tpch_flow};
use datagen::{Catalog, DirtProfile};
use etl_model::expr::Expr;
use etl_model::{EtlFlow, OpKind, Operation};
use fcp::custom::FitnessPreset;
use fcp::{CustomPattern, DeploymentPolicy, PatternRegistry, Prerequisite};
use poiesis::apply::{apply_combination, combination_name};
use poiesis::generate::Candidate;
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

fn planner(workload: Workload, strategy: SearchStrategyKind) -> Planner {
    let (flow, catalog) = workload.build(80);
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let config = PlannerConfig {
        strategy,
        max_alternatives: 600,
        policy: DeploymentPolicy::exhaustive(2),
        ..PlannerConfig::default()
    };
    Planner::new(flow, catalog, registry, config)
}

/// An exhaustive policy of `depth` over the two fittest points per
/// pattern: few enough candidates that a 600-combination budget reaches
/// the deepest subsets, whose applied prefixes the planner reuses.
fn deep_policy(depth: usize) -> DeploymentPolicy {
    DeploymentPolicy {
        top_k_points_per_pattern: 2,
        ..DeploymentPolicy::exhaustive(depth)
    }
}

/// A planner over `workload` with `extra` patterns registered beside the
/// standard palette.
fn deep_planner(
    workload: Workload,
    extra: fn(&mut PatternRegistry),
    config: PlannerConfig,
) -> Planner {
    let (flow, catalog) = workload.build(80);
    let mut registry = PatternRegistry::standard_for_catalog(&catalog);
    extra(&mut registry);
    Planner::new(flow, catalog, registry, config)
}

/// Plans one cycle and asserts it equals the oracle's to the bit: every
/// retained alternative's name and measure vector, the frontier and every
/// counter.
fn plan_checked(planner: &Planner) -> PlannerOutcome {
    let out = planner.plan().unwrap();
    oracle::assert_matches(&out, &oracle::plan(planner));
    out
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
    // Each case runs a planning cycle and the oracle's; keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_planning_matches_scratch_planning(
        workload in arb_workload(),
        strategy in arb_strategy(),
    ) {
        plan_checked(&planner(workload, strategy));
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
            let out = plan_checked(&planner(workload, strategy));
            assert!(!out.alternatives.is_empty(), "{workload:?}/{strategy}");
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
    fn plan_with_custom(strategy: SearchStrategyKind) -> PlannerOutcome {
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
                    .map(|a| a.name().to_string())
                    .expect("prerequisite guarantees a key candidate");
                Operation::new("SORT early", OpKind::Sort { by: vec![key] })
            },
        ));
        let config = PlannerConfig {
            strategy,
            max_alternatives: 600,
            policy: DeploymentPolicy::exhaustive(2),
            ..PlannerConfig::default()
        };
        plan_checked(&Planner::new(flow, catalog, registry, config))
    }

    for strategy in [
        SearchStrategyKind::Exhaustive,
        SearchStrategyKind::Beam { width: 4 },
        SearchStrategyKind::GreedyHillClimb,
    ] {
        let out = plan_with_custom(strategy);
        assert!(
            out.alternatives
                .iter()
                .any(|a| a.applied.iter().any(|p| p.contains("SortEarly"))),
            "{strategy}: the custom pattern was never applied"
        );
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
    fn plan_with_stamp(strategy: SearchStrategyKind) -> PlannerOutcome {
        let (flow, catalog) = Workload::Demo.build(80);
        let mut registry = PatternRegistry::standard_for_catalog(&catalog);
        registry.register(AuditStamp);
        let config = PlannerConfig {
            strategy,
            max_alternatives: 600,
            policy: DeploymentPolicy::exhaustive(2),
            ..PlannerConfig::default()
        };
        plan_checked(&Planner::new(flow, catalog, registry, config))
    }

    for strategy in [
        SearchStrategyKind::Exhaustive,
        SearchStrategyKind::Beam { width: 4 },
        SearchStrategyKind::GreedyHillClimb,
    ] {
        let out = plan_with_stamp(strategy);
        assert!(
            out.alternatives
                .iter()
                .any(|a| a.applied.iter().any(|p| p.contains("AuditStamp"))),
            "{strategy}: no combination with the in-place edit reached evaluation"
        );
    }
}

#[test]
fn delta_matches_scratch_at_depths_three_and_four() {
    // Deeper combinations share longer applied prefixes with their
    // predecessors: every strategy must still reach the scratch outcome.
    for workload in [Workload::Demo, Workload::Tpch, Workload::Tpcds] {
        for depth in [3, 4] {
            for strategy in [
                SearchStrategyKind::Exhaustive,
                SearchStrategyKind::Beam { width: 4 },
                SearchStrategyKind::GreedyHillClimb,
            ] {
                let config = PlannerConfig {
                    strategy,
                    max_alternatives: 600,
                    policy: deep_policy(depth),
                    ..PlannerConfig::default()
                };
                let out = plan_checked(&deep_planner(workload, |_| {}, config));
                if strategy == SearchStrategyKind::Exhaustive {
                    assert!(
                        out.alternatives.iter().any(|a| a.combo.len() == depth),
                        "{workload:?}/{strategy}: no depth-{depth} alternative"
                    );
                }
            }
        }
    }
}

#[test]
fn delta_outcomes_do_not_depend_on_the_worker_count() {
    // Each worker applies on its own prefix stack over contiguous chunks;
    // the outcome must be the sequential oracle's at any width.
    for strategy in [
        SearchStrategyKind::Exhaustive,
        SearchStrategyKind::Beam { width: 8 },
        SearchStrategyKind::GreedyHillClimb,
    ] {
        let planner = |workers: usize| {
            let config = PlannerConfig {
                strategy,
                workers,
                max_alternatives: 600,
                policy: deep_policy(3),
                ..PlannerConfig::default()
            };
            deep_planner(Workload::Tpch, |_| {}, config)
        };
        let expected = oracle::plan(&planner(1));
        for workers in [1, 2, 4] {
            oracle::assert_matches(&planner(workers).plan().unwrap(), &expected);
        }
    }
}

#[test]
fn beam_extensions_of_survivors_match_scratch() {
    // Beam extends each kept survivor by every higher-indexed candidate,
    // so a depth-d batch is runs of siblings under d−1 shared candidates.
    // (A width-1 beam keeps the best singleton, which may have no
    // higher-indexed candidate to extend it with.)
    for width in [3, 8] {
        let config = PlannerConfig {
            strategy: SearchStrategyKind::Beam { width },
            max_alternatives: 2000,
            policy: DeploymentPolicy::exhaustive(4),
            ..PlannerConfig::default()
        };
        let out = plan_checked(&deep_planner(Workload::Tpcds, |_| {}, config));
        assert!(
            out.alternatives.iter().any(|a| a.combo.len() == 4),
            "beam:{width} never extended to depth 4"
        );
    }
}

fn register_custom_patterns(registry: &mut PatternRegistry) {
    registry.register(AuditStamp);
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
                .map(|a| a.name().to_string())
                .expect("prerequisite guarantees a key candidate");
            Operation::new("SORT early", OpKind::Sort { by: vec![key] })
        },
    ));
}

#[test]
fn delta_matches_scratch_with_custom_in_place_edits_at_depth_three() {
    // An in-place edit on a stacked prefix unshares the edited operation
    // in the child's fork only; deeper siblings must still agree.
    for strategy in [
        SearchStrategyKind::Exhaustive,
        SearchStrategyKind::Beam { width: 4 },
        SearchStrategyKind::GreedyHillClimb,
    ] {
        let config = PlannerConfig {
            strategy,
            max_alternatives: 600,
            policy: deep_policy(3),
            ..PlannerConfig::default()
        };
        let out = plan_checked(&deep_planner(
            Workload::Demo,
            register_custom_patterns,
            config,
        ));
        if strategy == SearchStrategyKind::Exhaustive {
            assert!(
                out.alternatives
                    .iter()
                    .any(|a| a.combo.len() == 3
                        && a.applied.iter().any(|p| p.contains("AuditStamp"))),
                "no depth-3 combination with the in-place edit"
            );
        }
    }
}

#[test]
fn retained_alternatives_equal_their_from_base_application() {
    // Copy-on-write aliasing: a retained alternative is a fork of a stacked
    // prefix that later siblings forked and edited too (in place, for
    // AuditStamp). None of their edits may reach it: each retained flow
    // must equal the one `apply_combination` builds from the base alone.
    // The planner names a design and describes its patterns only once the
    // skyline keeps it, reading the stacked prefix's records then: name,
    // flow name and applied lines must still be the oracle's, whether
    // dominated designs are retained or only the frontier is.
    for (workers, retain_dominated) in [(1, true), (2, true), (1, false), (2, false)] {
        let config = PlannerConfig {
            workers,
            retain_dominated,
            max_alternatives: 600,
            policy: deep_policy(3),
            ..PlannerConfig::default()
        };
        let planner = deep_planner(Workload::Demo, register_custom_patterns, config);
        let out = planner.plan().unwrap();
        if retain_dominated {
            assert!(out.alternatives.iter().any(|a| a.combo.len() == 3));
        }
        assert!(out.alternatives.iter().any(|a| a.combo.len() > 1));
        for alt in &out.alternatives {
            let refs: Vec<&Candidate> = alt.combo.iter().map(|&i| &out.candidates[i]).collect();
            let name = combination_name(planner.flow(), &refs);
            let (oracle, applied) = apply_combination(planner.flow(), &refs, name.clone()).unwrap();
            assert_eq!(alt.name, name);
            assert_eq!(alt.flow.name, name);
            assert_eq!(
                format!("{:?}", alt.flow),
                format!("{oracle:?}"),
                "{} diverged from its from-base application",
                alt.name
            );
            let lines: Vec<String> = applied
                .iter()
                .map(|a| format!("{} {}", a.pattern, a.point))
                .collect();
            assert_eq!(alt.applied, lines, "{}", alt.name);
        }
    }
}
