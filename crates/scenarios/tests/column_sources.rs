//! Drift guard between the two halves of the operator semantics in
//! `etl_model::propagate`: `column_sources` (where each output column comes
//! from) must agree with `propagate_schemas` (what the output schema is) on
//! every shipped flow and on pattern-applied forks of each.
//!
//! For every operation: one source per output attribute; every referenced
//! input column exists; a copy keeps its input's dtype, and its name unless
//! it is a join's right-hand column (which `Schema::join_concat` may
//! rename).

use etl_model::{column_sources, ColumnSource, EtlFlow, OpKind, Schema};
use poiesis::generate::generate_uncapped;

fn check(flow: &EtlFlow, what: &str) {
    let table = etl_model::propagate_schemas(flow)
        .unwrap_or_else(|e| panic!("{what}: schemas do not propagate: {e}"));
    let schema = |n: etl_model::NodeId| -> &Schema { table[n.index()].as_deref().unwrap() };
    for (n, op) in flow.graph.nodes() {
        let inputs: Vec<&Schema> = flow.graph.predecessors(n).map(schema).collect();
        let output = schema(n);
        let sources = column_sources(&op.kind, &inputs);
        let at = format!("{what}: `{}`", op.name());
        assert_eq!(
            sources.len(),
            output.len(),
            "{at}: one source per attribute"
        );
        let right_from = match op.kind {
            OpKind::Join { .. } => inputs[0].len(),
            _ => usize::MAX,
        };
        for (pos, (source, attr)) in sources.iter().zip(output.attrs()).enumerate() {
            match source {
                ColumnSource::Root => {
                    assert!(matches!(op.kind, OpKind::Extract { .. }), "{at}: root")
                }
                ColumnSource::Copy(refs) => assert!(!refs.is_empty(), "{at}: empty copy"),
                ColumnSource::Derived(_) | ColumnSource::Aggregated(_) => {}
            }
            for r in source.inputs() {
                let input = inputs
                    .get(r.input)
                    .and_then(|s| s.attrs().get(r.attr))
                    .unwrap_or_else(|| panic!("{at}: `{}` refers to a missing input", attr.name()));
                if let ColumnSource::Copy(_) = source {
                    assert_eq!(input.dtype, attr.dtype, "{at}: copy of `{}`", attr.name());
                    if pos < right_from {
                        assert_eq!(input.name(), attr.name(), "{at}: copy renamed");
                    }
                }
            }
        }
    }
}

/// Checks `flow`, every single-pattern fork of it, and one fork with every
/// candidate applied in turn.
fn check_with_forks(flow: EtlFlow, catalog: &datagen::Catalog, what: &str) {
    check(&flow, what);
    let registry = fcp::PatternRegistry::standard_for_catalog(catalog);
    let candidates = generate_uncapped(&flow, &registry).unwrap();
    assert!(!candidates.is_empty(), "{what}: no candidates");
    let mut stacked = flow.fork("stacked");
    let mut checked = 0;
    for c in &candidates {
        let label = format!("{what} + {}", c.describe(&flow));
        let mut fork = flow.fork("probe");
        if c.pattern.apply(&mut fork, c.point).is_ok() && fork.validate().is_ok() {
            check(&fork, &label);
            checked += 1;
        }
        let mut next = stacked.fork("stacked");
        if c.pattern.apply(&mut next, c.point).is_ok() && next.validate().is_ok() {
            check(&next, &format!("stacked {label}"));
            stacked = next;
        }
    }
    assert!(checked > 0, "{what}: no candidate applied");
}

#[test]
fn column_sources_agree_with_propagation_on_the_builtin_flows() {
    let dirt = datagen::DirtProfile::demo();
    let (demo, _) = datagen::fig2::purchases_flow();
    check_with_forks(
        demo,
        &datagen::fig2::purchases_catalog(16, &dirt, 5),
        "demo",
    );
    let (tpch, _) = datagen::tpch::tpch_flow();
    check_with_forks(tpch, &datagen::tpch::tpch_catalog(16, &dirt, 5), "tpch");
    let (tpcds, _) = datagen::tpcds::tpcds_flow();
    check_with_forks(tpcds, &datagen::tpcds::tpcds_catalog(16, &dirt, 5), "tpcds");
}

#[test]
fn column_sources_agree_with_propagation_on_every_scenario() {
    for s in scenarios::all() {
        check_with_forks(s.flow(), &s.catalog(16), s.name);
    }
}
