//! Regression test: every single pattern application on the demo flows must
//! leave a structurally valid, schema-consistent flow. Guards against
//! ordering bugs like the join-side swap the interpose splice once had.
//!
//! The contract probes also pin the checked [`fcp::Pattern::apply`] at every
//! point of each flow: where `applicable` says no, `apply` refuses with
//! `NotApplicable` and leaves the flow untouched; where it says yes, the
//! edit succeeds and the flow validates.

use etl_model::{EtlFlow, OpKind, Operation};
use fcp::custom::FitnessPreset;
use fcp::{ApplicationPoint, CustomPattern, PatternContext, PatternError, Prerequisite};
use poiesis::generate::generate_uncapped;

fn check_flow(flow: etl_model::EtlFlow, catalog: datagen::Catalog) {
    let reg = fcp::PatternRegistry::standard_for_catalog(&catalog);
    let cands = generate_uncapped(&flow, &reg).unwrap();
    assert!(!cands.is_empty());
    for c in &cands {
        let mut g = flow.fork("probe");
        if c.pattern.apply(&mut g, c.point).is_ok() {
            g.validate()
                .unwrap_or_else(|e| panic!("invalid flow after {}: {e}", c.describe(&flow)));
        }
    }
}

#[test]
fn every_pattern_application_is_valid_on_tpch() {
    let (f, _) = datagen::tpch::tpch_flow();
    let cat = datagen::tpch::tpch_catalog(100, &datagen::DirtProfile::demo(), 5);
    check_flow(f, cat);
}

#[test]
fn every_pattern_application_is_valid_on_tpcds() {
    let (f, _) = datagen::tpcds::tpcds_flow();
    let cat = datagen::tpcds::tpcds_catalog(100, &datagen::DirtProfile::demo(), 5);
    check_flow(f, cat);
}

#[test]
fn every_pattern_application_is_valid_on_purchases() {
    let (f, _) = datagen::fig2::purchases_flow();
    let cat = datagen::fig2::purchases_catalog(100, &datagen::DirtProfile::demo(), 5);
    check_flow(f, cat);
}

/// A user-defined pattern, so the custom edit is probed beside the built-ins.
fn sort_early() -> CustomPattern {
    CustomPattern::new(
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
    )
}

/// Every application point of the flow: the graph, each node, each edge.
fn every_point(flow: &EtlFlow) -> Vec<ApplicationPoint> {
    std::iter::once(ApplicationPoint::Graph)
        .chain(flow.graph.node_ids().map(ApplicationPoint::Node))
        .chain(flow.graph.edge_ids().map(ApplicationPoint::Edge))
        .collect()
}

fn check_apply_contract(flow: EtlFlow, catalog: datagen::Catalog) {
    let mut reg = fcp::PatternRegistry::standard_for_catalog(&catalog);
    reg.register(sort_early());
    let ctx = PatternContext::new(&flow).unwrap();
    let untouched = xlm::write_flow(&flow.fork("probe"));
    for pattern in reg.iter() {
        let mut applied = 0usize;
        for point in every_point(&flow) {
            let mut g = flow.fork("probe");
            let result = pattern.apply(&mut g, point);
            let at = format!("{} at {}", pattern.name(), point.describe(&flow));
            if pattern.applicable(&ctx, point) {
                result.unwrap_or_else(|e| panic!("{at}: applicable but apply failed: {e}"));
                g.validate()
                    .unwrap_or_else(|e| panic!("{at}: invalid flow after apply: {e}"));
                applied += 1;
            } else {
                let err = result.expect_err(&at);
                assert!(
                    matches!(err, PatternError::NotApplicable { .. }),
                    "{at}: expected NotApplicable, got {err}"
                );
                assert_eq!(xlm::write_flow(&g), untouched, "{at}: refused apply edited");
            }
        }
        if pattern.name() == "SortEarly" {
            assert!(applied > 0, "the custom pattern never applied");
        }
    }
}

#[test]
fn apply_honours_applicability_at_every_point_of_purchases() {
    let (f, _) = datagen::fig2::purchases_flow();
    let cat = datagen::fig2::purchases_catalog(100, &datagen::DirtProfile::demo(), 5);
    check_apply_contract(f, cat);
}

#[test]
fn apply_honours_applicability_at_every_point_of_tpch() {
    let (f, _) = datagen::tpch::tpch_flow();
    let cat = datagen::tpch::tpch_catalog(100, &datagen::DirtProfile::demo(), 5);
    check_apply_contract(f, cat);
}

#[test]
fn apply_honours_applicability_at_every_point_of_tpcds() {
    let (f, _) = datagen::tpcds::tpcds_flow();
    let cat = datagen::tpcds::tpcds_catalog(100, &datagen::DirtProfile::demo(), 5);
    check_apply_contract(f, cat);
}
