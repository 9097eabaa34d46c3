//! Fast canary that the workspace wiring stays intact.
//!
//! Unlike the other integration tests, this one reaches every crate through
//! the `poiesis-workspace` umbrella re-exports, so a broken `pub use` in
//! `src/lib.rs` or a dropped manifest dependency fails here even if the
//! direct-dependency tests still pass. It builds the smallest useful
//! `EtlFlow`, runs one Planner cycle, and checks the skyline is non-empty.

use poiesis_workspace::datagen::{Catalog, DirtProfile, TableSpec};
use poiesis_workspace::etl_model::expr::Expr;
use poiesis_workspace::etl_model::{Attribute, DataType, EtlFlow, Operation, Schema};
use poiesis_workspace::fcp::PatternRegistry;
use poiesis_workspace::poiesis::{Planner, PlannerConfig};
use poiesis_workspace::{flowgraph, quality, simulator, viz, xlm};

#[test]
fn one_planner_cycle_through_the_umbrella() {
    let schema = Schema::new(vec![
        Attribute::required("id", DataType::Int),
        Attribute::new("amount", DataType::Float),
    ]);
    let mut flow = EtlFlow::new("smoke");
    let ext = flow.add_op(Operation::extract("src", schema.clone()));
    let fil = flow.add_op(Operation::filter(
        "positive",
        Expr::col("amount").gt(Expr::lit_f(0.0)),
    ));
    let load = flow.add_op(Operation::load("dw"));
    flow.connect(ext, fil).unwrap();
    flow.connect(fil, load).unwrap();
    flow.validate().unwrap();

    let mut catalog = Catalog::new();
    catalog.add_generated(
        &TableSpec::new("src", schema, 100, "id"),
        &DirtProfile::demo(),
        7,
    );

    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let planner = Planner::new(flow, catalog, registry, PlannerConfig::default());
    let outcome = planner.plan().expect("planning succeeds");

    assert!(
        !outcome.skyline.is_empty(),
        "planner produced an empty skyline"
    );
    assert!(
        outcome.skyline.len() <= outcome.alternatives.len(),
        "skyline cannot exceed the alternative set"
    );
    // Every skyline member must carry a score per planning dimension.
    let dims = outcome
        .skyline_alternatives()
        .next()
        .expect("non-empty skyline has a first member")
        .scores
        .len();
    assert!(dims > 0, "alternatives carry no scores");
}

#[test]
fn sibling_crates_resolve_through_the_umbrella() {
    // One cheap call into each re-exported crate that the planner cycle
    // above does not touch directly.
    let g: flowgraph::DiGraph<u32, u32> = flowgraph::DiGraph::new();
    assert!(flowgraph::is_dag(&g));

    let (flow, _) = poiesis_workspace::datagen::fig2::purchases_flow();
    let catalog = poiesis_workspace::datagen::fig2::purchases_catalog(20, &DirtProfile::clean(), 1);

    let xml = xlm::write_flow(&flow);
    assert_eq!(xlm::read_flow(&xml).unwrap().op_count(), flow.op_count());

    let trace = simulator::simulate(&flow, &catalog).unwrap();
    let measures = quality::evaluate(&flow, &trace);
    assert!(measures.get(quality::MeasureId::CycleTimeMs).unwrap() > 0.0);

    let stats = quality::source_stats(&catalog);
    let estimate = quality::estimate(&flow, &stats);
    let report = quality::QualityReport::build("smoke", &estimate, &estimate);
    assert!(!viz::render_bars(&report, false).is_empty());
}
