//! Property tests for the analyzer's core promise: any structural
//! mutation that breaks a known-valid flow is flagged with the expected
//! `PA0xx` diagnostic code — no silent acceptance of corrupted DAGs.

use analysis::{analyze, codes, Severity};
use datagen::fig2;
use etl_model::expr::Expr;
use etl_model::{Channel, OpKind};
use fcp::builtin::EncryptChannels;
use fcp::{ApplicationPoint, Pattern};
use proptest::prelude::*;

fn error_codes(flow: &etl_model::EtlFlow) -> Vec<&'static str> {
    analyze(flow)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

proptest! {
    /// Reversing any existing edge introduces a cycle, and the analyzer
    /// must say so (PA002) — whatever other damage the extra edge does.
    #[test]
    fn reversing_any_edge_is_flagged_as_a_cycle(pick in any::<prop::sample::Index>()) {
        let (mut flow, _) = fig2::purchases_flow();
        let edges: Vec<_> = flow.graph.edges().map(|e| (e.src, e.dst)).collect();
        let (src, dst) = edges[pick.index(edges.len())];
        flow.graph
            .add_edge(dst, src, Channel { label: String::new() })
            .unwrap();
        let codes_found = error_codes(&flow);
        prop_assert!(
            codes_found.contains(&codes::CYCLE),
            "back-edge {:?}->{:?} not flagged as a cycle; got {codes_found:?}",
            dst,
            src
        );
        prop_assert!(analysis::screen(&flow).is_some(), "screen missed the cycle");
    }

    /// Dropping any edge leaves a node without its input or output and
    /// must surface as a well-formedness error: a disconnected fragment
    /// (PA003), a source that is not an extract (PA004), a sink that is
    /// not a load (PA005), or an arity violation (PA006/PA007).
    #[test]
    fn dropping_any_edge_breaks_wellformedness(pick in any::<prop::sample::Index>()) {
        let (mut flow, _) = fig2::purchases_flow();
        let edge_ids: Vec<_> = flow.graph.edge_ids().collect();
        let victim = edge_ids[pick.index(edge_ids.len())];
        flow.graph.remove_edge(victim).unwrap();
        let expected = [
            codes::DISCONNECTED,
            codes::NON_EXTRACT_SOURCE,
            codes::NON_LOAD_SINK,
            codes::INPUT_ARITY,
            codes::OUTPUT_ARITY,
        ];
        let codes_found = error_codes(&flow);
        prop_assert!(
            codes_found.iter().any(|c| expected.contains(c)),
            "dropping edge {victim:?} produced no well-formedness error; got {codes_found:?}"
        );
    }

    /// Retargeting the filter's predicate at a column nothing upstream
    /// produces must be flagged as an unresolved reference (PA010).
    #[test]
    fn ghost_column_references_are_flagged(suffix in "[a-z]{1,8}") {
        let (mut flow, ids) = fig2::purchases_flow();
        let ghost = format!("zz_{suffix}"); // no fig2 column starts with zz_
        flow.graph.node_mut(ids.filter).unwrap().kind = OpKind::Filter {
            predicate: Expr::col(&ghost),
        };
        let codes_found = error_codes(&flow);
        prop_assert!(
            codes_found.contains(&codes::UNRESOLVED_COLUMN),
            "ghost column `{ghost}` not flagged; got {codes_found:?}"
        );
    }

    /// Marking any extract attribute sensitive either fires PA030 (the
    /// column reaches a load unprotected) or nothing at all (taint was
    /// aggregated/projected away) — never PA031 while unencrypted. Applying
    /// EncryptChannels then clears every PA030, downgrading each leak to an
    /// informational PA031 without inventing or losing any.
    #[test]
    fn encrypt_channels_clears_every_sensitive_leak(
        node_pick in any::<prop::sample::Index>(),
        attr_pick in any::<prop::sample::Index>(),
    ) {
        let (mut flow, _) = fig2::purchases_flow();
        let extracts: Vec<_> = flow
            .graph
            .node_ids()
            .filter(|&n| matches!(flow.op(n).unwrap().kind, OpKind::Extract { .. }))
            .collect();
        let victim = extracts[node_pick.index(extracts.len())];
        if let OpKind::Extract { schema, .. } = &mut flow.graph.node_mut(victim).unwrap().kind {
            let mut attrs = schema.attrs().to_vec();
            let i = attr_pick.index(attrs.len());
            attrs[i].sensitive = true;
            *schema = etl_model::Schema::new(attrs);
        }
        let plain = analyze(&flow);
        prop_assert!(
            plain.iter().all(|d| d.code != codes::SENSITIVE_EXPOSURE),
            "PA031 is reserved for encrypted flows"
        );
        let leaks: Vec<_> = plain
            .iter()
            .filter(|d| d.code == codes::SENSITIVE_LEAK)
            .collect();
        for leak in &leaks {
            prop_assert!(leak.severity == Severity::Warn, "a leak warns, never errors");
            prop_assert!(
                leak.notes.iter().any(|n| n.starts_with("lineage:")),
                "every PA030 carries its lineage trace; notes: {:?}",
                leak.notes
            );
        }
        let mut encrypted = flow.clone();
        EncryptChannels
            .apply(&mut encrypted, ApplicationPoint::Graph)
            .unwrap();
        let after = analyze(&encrypted);
        prop_assert!(
            after.iter().all(|d| d.code != codes::SENSITIVE_LEAK),
            "EncryptChannels must clear PA030"
        );
        let exposures = after
            .iter()
            .filter(|d| d.code == codes::SENSITIVE_EXPOSURE)
            .count();
        prop_assert!(
            exposures == leaks.len(),
            "each leak downgrades to exactly one PA031: {exposures} vs {}",
            leaks.len()
        );
    }
}

/// The columns the fig. 2 purchases flow carries into its loads must leak
/// when marked sensitive — the proptest above tolerates sanitized columns,
/// so this pins the positive case.
#[test]
fn carried_source_columns_do_leak() {
    let (mut flow, _) = fig2::purchases_flow();
    let extracts: Vec<_> = flow
        .graph
        .node_ids()
        .filter(|&n| matches!(flow.op(n).unwrap().kind, OpKind::Extract { .. }))
        .collect();
    if let OpKind::Extract { schema, .. } = &mut flow.graph.node_mut(extracts[0]).unwrap().kind {
        let mut attrs = schema.attrs().to_vec();
        let i = attrs
            .iter()
            .position(|a| a.name() == "amount")
            .expect("fig2 sources carry `amount`");
        attrs[i].sensitive = true;
        *schema = etl_model::Schema::new(attrs);
    }
    let diags = analyze(&flow);
    assert!(
        diags.iter().any(|d| d.code == codes::SENSITIVE_LEAK),
        "`amount` reaches the loads, so PA030 must fire; got {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
}

mod prune_equivalence {
    use super::*;
    use fcp::DeploymentPolicy;
    use poiesis::{Planner, PlannerConfig, PlannerOutcome, SearchStrategyKind};

    /// One small planning cycle over `flow`/`catalog` with the pruner
    /// toggled; retention off and one worker so the gate can activate and
    /// the outcome is deterministic.
    fn run(
        flow: &etl_model::EtlFlow,
        catalog: &datagen::Catalog,
        strategy: SearchStrategyKind,
        bound_prune: bool,
    ) -> PlannerOutcome {
        let config = PlannerConfig {
            policy: DeploymentPolicy::exhaustive(2),
            strategy,
            workers: 1,
            max_alternatives: 400,
            retain_dominated: false,
            bound_prune,
            ..PlannerConfig::default()
        };
        let registry = fcp::PatternRegistry::standard_for_catalog(catalog);
        Planner::new(flow.clone(), catalog.clone(), registry, config)
            .plan()
            .expect("planning cycle")
    }

    fn scored_skyline(out: &PlannerOutcome) -> Vec<(String, Vec<f64>)> {
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Dominance pre-pruning is a pure optimisation: on every workload
        /// × strategy cell the frontier (names *and* scores) is
        /// bit-identical with the pruner on or off. Steering strategies
        /// hold the pruner off via the gate, so equality there is trivial
        /// but still worth pinning.
        #[test]
        fn bound_pruning_never_changes_a_skyline(
            workload in 0usize..3,
            strategy_pick in 0usize..3,
        ) {
            let dirt = datagen::DirtProfile::demo();
            let (flow, catalog) = match workload {
                0 => {
                    let (flow, _) = fig2::purchases_flow();
                    (flow, fig2::purchases_catalog(20, &dirt, 3))
                }
                1 => {
                    let (flow, _) = datagen::tpch::tpch_flow();
                    (flow, datagen::tpch::tpch_catalog(20, &dirt, 3))
                }
                _ => {
                    let (flow, _) = datagen::tpcds::tpcds_flow();
                    (flow, datagen::tpcds::tpcds_catalog(20, &dirt, 3))
                }
            };
            let strategy = match strategy_pick {
                0 => SearchStrategyKind::Exhaustive,
                1 => SearchStrategyKind::Beam { width: 8 },
                _ => SearchStrategyKind::GreedyHillClimb,
            };
            let pruned = run(&flow, &catalog, strategy, true);
            let full = run(&flow, &catalog, strategy, false);
            prop_assert!(full.bound_pruned == 0, "pruner off must prune nothing");
            if strategy != SearchStrategyKind::Exhaustive {
                prop_assert!(pruned.bound_pruned == 0, "steering gate must hold");
            }
            prop_assert_eq!(scored_skyline(&pruned), scored_skyline(&full));
        }
    }
}
