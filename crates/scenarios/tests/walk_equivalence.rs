//! The planner's allocation-free walks agree with the code they stand in
//! for, on every flow of the scenario corpus:
//!
//! - `Expr::check_columns` reports exactly what `Expr::bind` reports, on
//!   every filter, router and derive expression, against its input schema
//!   and against that schema with each attribute removed in turn;
//! - the longest path `quality::estimate` derives in its topological walk
//!   equals `quality::evaluate_static`'s, on every scenario base flow and
//!   on every single-pattern fork of it.

use etl_model::expr::Expr;
use etl_model::{EtlFlow, OpKind, Schema};
use poiesis::generate::generate_uncapped;
use quality::MeasureId;

/// Every expression of `flow` with its operation's input schema.
fn expressions(flow: &EtlFlow) -> Vec<(&Expr, Schema)> {
    let table = etl_model::propagate_schemas(flow).expect("scenario flows propagate");
    let mut out = Vec::new();
    for (n, op) in flow.graph.nodes() {
        let input = |n| {
            let pred = flow.graph.predecessors(n).next().expect("an input");
            table[pred.index()].as_deref().unwrap().clone()
        };
        match &op.kind {
            OpKind::Filter { predicate } | OpKind::Router { predicate } => {
                out.push((predicate, input(n)))
            }
            OpKind::Derive { outputs } => {
                out.extend(outputs.iter().map(|(_, e)| (e, input(n))));
            }
            _ => {}
        }
    }
    out
}

#[test]
fn column_check_agrees_with_bind_on_the_scenario_corpus() {
    let mut checked = 0;
    for s in scenarios::all() {
        let flow = s.flow();
        for (expr, input) in expressions(&flow) {
            let mut schemas = vec![input.clone(), Schema::empty()];
            for drop in input.attrs() {
                let kept = input.attrs().iter().filter(|a| a.name() != drop.name());
                schemas.push(Schema::new(kept.cloned().collect()));
            }
            for schema in &schemas {
                assert_eq!(
                    expr.check_columns(schema),
                    expr.bind(schema).map(|_| ()),
                    "{}: `{expr}` against {schema}",
                    s.name
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "only {checked} checks");
}

#[test]
fn estimated_longest_path_equals_the_static_measure() {
    for s in scenarios::all() {
        let (flow, catalog) = (s.flow(), s.catalog(16));
        let stats = quality::source_stats(&catalog);
        let longest = |f: &EtlFlow| {
            let estimated = quality::estimate(f, &stats).get(MeasureId::LongestPath);
            let sorted = quality::evaluate_static(f).get(MeasureId::LongestPath);
            assert!(estimated.is_some(), "{}: no longest path", s.name);
            assert_eq!(estimated, sorted, "{}: `{}`", s.name, f.name);
        };
        longest(&flow);
        let registry = fcp::PatternRegistry::standard_for_catalog(&catalog);
        for c in generate_uncapped(&flow, &registry).unwrap() {
            let mut fork = flow.fork(c.label());
            if c.pattern.apply(&mut fork, c.point).is_ok() {
                longest(&fork);
            }
        }
    }
}
