//! Every candidate the generator emits holds its pattern's preconditions
//! on the flow it was generated for.
//!
//! The generator checks "all of the potential application points on the
//! ETL flow" for each pattern and keeps the points where the pattern is
//! `applicable`, so the planner does not re-check a candidate's
//! prerequisites on the base flow before applying it. This pins that fact
//! for the standard registry on every shipped flow: it fails if a built-in
//! pattern's `applicable` ever admits a point its declared prerequisites
//! reject.

use datagen::{Catalog, DirtProfile};
use etl_model::EtlFlow;
use fcp::{PatternContext, PatternRegistry};
use poiesis::generate::generate_uncapped;

fn check(flow: &EtlFlow, catalog: &Catalog, what: &str) {
    let registry = PatternRegistry::standard_for_catalog(catalog);
    let candidates = generate_uncapped(flow, &registry).unwrap();
    assert!(!candidates.is_empty(), "{what}: no candidates");
    let ctx = PatternContext::new(flow).unwrap();
    for c in &candidates {
        let diags = analysis::check_application(&ctx, c.pattern.as_ref(), c.point);
        assert!(
            diags.is_empty(),
            "{what}: candidate {} fails its preconditions: {diags:?}",
            c.describe(flow)
        );
    }
}

#[test]
fn standard_candidates_hold_their_preconditions_on_the_demo_flows() {
    let dirt = DirtProfile::demo();
    let (flow, _) = datagen::fig2::purchases_flow();
    check(
        &flow,
        &datagen::fig2::purchases_catalog(60, &dirt, 5),
        "fig2",
    );
    let (flow, _) = datagen::tpch::tpch_flow();
    check(&flow, &datagen::tpch::tpch_catalog(60, &dirt, 5), "tpch");
    let (flow, _) = datagen::tpcds::tpcds_flow();
    check(&flow, &datagen::tpcds::tpcds_catalog(60, &dirt, 5), "tpcds");
}

#[test]
fn standard_candidates_hold_their_preconditions_on_every_scenario() {
    let all = scenarios::all();
    assert_eq!(all.len(), 8);
    for s in all {
        check(&s.flow(), &s.catalog(60), s.name);
    }
}
