//! The simulation engine: drives execution in topological order, advances
//! the virtual clock and sums the expected savepoint recovery.
//!
//! Timing, latency and redo spans come from [`CostModel`], the cost model
//! the analytic estimator shares; the engine feeds it the rows that really
//! flowed, where the estimator feeds it expected row counts.

use crate::exec::{execute_op, ExecError};
use crate::trace::{LoadedData, OpTrace, Trace};
use datagen::Catalog;
use etl_model::{propagate_schemas, CostModel, EtlFlow, FlowError, OpKind, Tuple};
use std::fmt;

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The flow failed validation (its shape or its schemas).
    Flow(String),
    /// Operator execution failed.
    Exec(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Flow(e) => write!(f, "flow error: {e}"),
            SimError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<FlowError> for SimError {
    fn from(e: FlowError) -> Self {
        SimError::Flow(e.to_string())
    }
}
impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e.to_string())
    }
}

/// Runs one simulation of `flow` over `catalog`.
///
/// The flow's shape is validated and its schemas propagated once; a flow
/// that fails either is a [`SimError::Flow`]. Each edge's rows are moved
/// to the one operator that reads them, and a node's one batch is copied
/// only to broadcast it to several successors.
///
/// Determinism: identical `(flow, catalog)` pairs produce identical
/// traces.
pub fn simulate(flow: &EtlFlow, catalog: &Catalog) -> Result<Trace, SimError> {
    flow.validate_structure()?;
    let schemas = propagate_schemas(flow).map_err(FlowError::from)?;
    let order = flow.topo_order()?;

    let model = CostModel::of(&flow.config);

    let nbound = flow.graph.node_bound();
    // Rows buffered per edge; its one reader takes them.
    let mut edge_rows: Vec<Option<Vec<Tuple>>> = vec![None; flow.graph.edge_bound()];
    // Completion time, per-tuple latency and redo-span per node.
    let mut done = vec![0.0f64; nbound];
    let mut latency = vec![0.0f64; nbound];
    // redo_span: time to recompute this node's segment from the nearest
    // upstream savepoints (what a failure at this node costs to recover).
    let mut redo_span = vec![0.0f64; nbound];

    let mut ops = Vec::with_capacity(order.len());
    let mut loads = Vec::new();
    let mut source_updates = Vec::new();
    let mut expected_redo = 0.0;

    for &n in &order {
        let op = flow.op(n).expect("live node");
        let preds: Vec<_> = flow.graph.predecessors(n).collect();
        let inputs: Vec<Vec<Tuple>> = flow
            .graph
            .in_edges(n)
            .map(|e| {
                edge_rows[e.index()]
                    .take()
                    .expect("topological order fills predecessor edges")
            })
            .collect();
        let in_schemas: Vec<&etl_model::Schema> = preds
            .iter()
            .map(|p| schemas[p.index()].as_deref().expect("propagated"))
            .collect();
        let out_schema = schemas[n.index()].as_deref().expect("propagated");
        let out_edges: Vec<_> = flow.graph.out_edges(n).collect();

        let rows_in: usize = inputs.iter().map(Vec::len).sum();
        let mut outputs = execute_op(
            op,
            inputs,
            &in_schemas,
            out_schema,
            out_edges.len(),
            catalog,
        )?;
        let rows_out: usize = outputs.iter().map(Vec::len).sum();

        // --- timing -----------------------------------------------------
        let ready = preds.iter().map(|p| done[p.index()]).fold(0.0f64, f64::max);
        let service = model.service_ms(op, rows_in as f64, rows_out as f64);
        redo_span[n.index()] = CostModel::redo_span_ms(
            service,
            preds
                .iter()
                .map(|p| (flow.op(*p).expect("live node"), redo_span[p.index()])),
        );
        expected_redo += CostModel::expected_redo_ms(op, redo_span[n.index()]);

        let end = ready + service;
        done[n.index()] = end;

        let in_latency = preds
            .iter()
            .map(|p| latency[p.index()])
            .fold(0.0f64, f64::max);
        latency[n.index()] = in_latency + model.latency_step_ms(op);

        // --- bookkeeping --------------------------------------------------
        if let OpKind::Extract { source, .. } = &op.kind {
            if let Some(t) = catalog.table(source) {
                source_updates.push((source.clone(), t.last_update));
            }
        }
        if let OpKind::Load { target } = &op.kind {
            loads.push(LoadedData {
                target: target.clone(),
                schema: out_schema.clone(),
                rows: outputs.pop().unwrap_or_default(),
            });
        } else if let ([rows], [rest @ .., last]) = (&mut outputs[..], &out_edges[..]) {
            // Broadcast: k successors of one batch cost k − 1 copies.
            for e in rest {
                edge_rows[e.index()] = Some(rows.clone());
            }
            edge_rows[last.index()] = Some(std::mem::take(rows));
        } else {
            for (e, rows) in out_edges.iter().zip(outputs) {
                edge_rows[e.index()] = Some(rows);
            }
        }

        ops.push(OpTrace {
            node: n,
            name: op.name().to_string(),
            kind: op.kind.name().to_string(),
            rows_in,
            rows_out,
            start_ms: ready,
            end_ms: end,
        });
    }

    let load_nodes: Vec<_> = flow.ops_of_kind("load");
    let cycle_time_ms = load_nodes
        .iter()
        .map(|n| done[n.index()])
        .fold(0.0f64, f64::max);
    let avg_latency_ms = if load_nodes.is_empty() {
        0.0
    } else {
        load_nodes.iter().map(|n| latency[n.index()]).sum::<f64>() / load_nodes.len() as f64
    };

    Ok(Trace {
        flow_name: flow.name.clone(),
        ops,
        cycle_time_ms,
        avg_latency_ms,
        expected_redo_ms: expected_redo,
        loads,
        request_time: catalog.request_time(),
        source_updates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::tpch::{tpch_catalog, tpch_flow};
    use datagen::DirtProfile;
    use etl_model::expr::Expr;
    use etl_model::{Attribute, DataType, Operation, ResourceClass, Schema, Value};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            Attribute::required("t_id", DataType::Int),
            Attribute::new("amount", DataType::Float),
        ])
    }

    fn tiny_flow_and_catalog() -> (EtlFlow, Catalog) {
        let schema = tiny_schema();
        let mut cat = Catalog::new();
        cat.add_generated(
            &datagen::TableSpec::new("t", schema.clone(), 100, "t_id"),
            &DirtProfile::clean(),
            1,
        );
        let mut f = EtlFlow::new("tiny");
        let e = f.add_op(Operation::extract("t", schema));
        let fi = f.add_op(Operation::filter(
            "pos",
            Expr::col("amount").gt(Expr::lit_f(0.0)),
        ));
        let l = f.add_op(Operation::load("out"));
        f.connect(e, fi).unwrap();
        f.connect(fi, l).unwrap();
        (f, cat)
    }

    #[test]
    fn simulates_tiny_flow() {
        let (f, cat) = tiny_flow_and_catalog();
        let t = simulate(&f, &cat).unwrap();
        assert_eq!(t.ops.len(), 3);
        assert!(t.cycle_time_ms > 0.0);
        assert!(t.avg_latency_ms > 0.0);
        assert_eq!(t.loads.len(), 1);
        assert_eq!(t.loads[0].rows.len(), 100); // all amounts positive by generator
    }

    /// `extract(t) → split → k loads`, with `t` as in
    /// [`tiny_flow_and_catalog`].
    fn split_flow(k: usize) -> EtlFlow {
        let mut f = EtlFlow::new("split");
        let e = f.add_op(Operation::extract("t", tiny_schema()));
        let s = f.add_op(Operation::new("sp", OpKind::Split));
        f.connect(e, s).unwrap();
        for i in 0..k {
            let l = f.add_op(Operation::load(format!("out{i}")));
            f.connect(s, l).unwrap();
        }
        f
    }

    #[test]
    fn rows_out_counts_each_batch_once_however_many_successors_read_it() {
        let (_, cat) = tiny_flow_and_catalog();
        let f = split_flow(2);
        let t = simulate(&f, &cat).unwrap();
        let trace_of = |kind: &str| t.ops.iter().find(|o| o.kind == kind).unwrap();
        let (extract, split) = (trace_of("extract"), trace_of("split"));
        assert_eq!(extract.rows_out, 100);
        assert_eq!((split.rows_in, split.rows_out), (100, 100));
        // The simulated service time is what the estimator charges.
        let op = f.op(extract.node).unwrap();
        assert_eq!(
            extract.end_ms - extract.start_ms,
            CostModel::of(&f.config).service_ms(op, 0.0, 100.0)
        );
    }

    #[test]
    fn every_successor_of_a_split_sees_equal_rows() {
        let (_, cat) = tiny_flow_and_catalog();
        let t = simulate(&split_flow(3), &cat).unwrap();
        assert_eq!(t.loads.len(), 3);
        assert_eq!(t.loads[0].rows, cat.table("t").unwrap().rows);
        assert!(t.loads.iter().all(|l| l.rows == t.loads[0].rows));
    }

    #[test]
    fn a_router_hands_each_successor_its_own_side() {
        let (_, cat) = tiny_flow_and_catalog();
        let mut f = EtlFlow::new("route");
        let e = f.add_op(Operation::extract("t", tiny_schema()));
        let r = f.add_op(Operation::new(
            "r",
            OpKind::Router {
                predicate: Expr::col("t_id").gt(Expr::lit_i(40)),
            },
        ));
        let (yes, no) = (
            f.add_op(Operation::load("yes")),
            f.add_op(Operation::load("no")),
        );
        f.connect(e, r).unwrap();
        f.connect(r, yes).unwrap();
        f.connect(r, no).unwrap();
        let t = simulate(&f, &cat).unwrap();
        let router = t.ops.iter().find(|o| o.kind == "router").unwrap();
        assert_eq!((router.rows_in, router.rows_out), (100, 100));
        let side = |target: &str| &t.loads.iter().find(|l| l.target == target).unwrap().rows;
        let above = |row: &Tuple| matches!(row[0], Value::Int(id) if id > 40);
        assert!(!side("yes").is_empty() && side("yes").iter().all(above));
        assert!(!side("no").is_empty() && !side("no").iter().any(above));
        assert_eq!(side("yes").len() + side("no").len(), 100);
    }

    /// The demo flows, each simulated cleanly.
    fn demo_traces() -> Vec<(EtlFlow, Trace)> {
        let (fig2, _) = purchases_flow();
        let (tpch, _) = tpch_flow();
        [
            (fig2, purchases_catalog(200, &DirtProfile::demo(), 3)),
            (tpch, tpch_catalog(400, &DirtProfile::demo(), 7)),
        ]
        .into_iter()
        .map(|(f, cat)| {
            let t = simulate(&f, &cat).unwrap();
            (f, t)
        })
        .collect()
    }

    #[test]
    fn every_operator_reads_the_one_batch_its_predecessors_produced() {
        let mut checked = 0;
        for (f, t) in demo_traces() {
            let trace_of = |n| t.ops.iter().find(|o| o.node == n).unwrap();
            // Routers and partitioners split their rows over their edges;
            // every other operator hands its whole batch to each successor.
            let one_batch = |n| !matches!(trace_of(n).kind.as_str(), "router" | "partition");
            for op in &t.ops {
                if f.graph.predecessors(op.node).all(one_batch) {
                    let produced: usize = f
                        .graph
                        .predecessors(op.node)
                        .map(|p| trace_of(p).rows_out)
                        .sum();
                    assert_eq!(op.rows_in, produced, "{} in {}", op.name, f.name);
                    checked += 1;
                }
            }
        }
        assert!(checked > 10, "{checked} operators checked");
    }

    #[test]
    fn simulated_service_is_the_cost_model_of_the_rows_that_flowed() {
        for (f, t) in demo_traces() {
            let model = CostModel::of(&f.config);
            for o in &t.ops {
                let op = f.op(o.node).unwrap();
                let service = model.service_ms(op, o.rows_in as f64, o.rows_out as f64);
                assert_eq!(o.end_ms, o.start_ms + service, "{} in {}", o.name, f.name);
            }
        }
    }

    #[test]
    fn a_schema_error_is_a_flow_error() {
        let (_, cat) = tiny_flow_and_catalog();
        let mut f = EtlFlow::new("ghost");
        let e = f.add_op(Operation::extract("t", tiny_schema()));
        let fi = f.add_op(Operation::filter(
            "g",
            Expr::col("ghost").gt(Expr::lit_f(0.0)),
        ));
        let l = f.add_op(Operation::load("out"));
        f.connect(e, fi).unwrap();
        f.connect(fi, l).unwrap();
        let err = simulate(&f, &cat).unwrap_err();
        assert_eq!(err, SimError::Flow(f.validate().unwrap_err().to_string()));
    }

    #[test]
    fn deterministic_traces() {
        let (f, cat) = tiny_flow_and_catalog();
        let a = simulate(&f, &cat).unwrap();
        let b = simulate(&f, &cat).unwrap();
        assert_eq!(a.cycle_time_ms, b.cycle_time_ms);
        assert_eq!(a.rows_loaded(), b.rows_loaded());
    }

    #[test]
    fn tpch_flow_runs_end_to_end() {
        let (f, _) = tpch_flow();
        let cat = tpch_catalog(400, &DirtProfile::demo(), 7);
        let t = simulate(&f, &cat).unwrap();
        assert_eq!(t.loads.len(), 2);
        assert!(t.rows_loaded() > 0, "joins should produce rows");
        assert!(t.cycle_time_ms > 0.0);
        // every op has a record, in a valid order
        assert_eq!(t.ops.len(), f.op_count());
    }

    #[test]
    fn purchases_flow_runs() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(200, &DirtProfile::demo(), 3);
        let t = simulate(&f, &cat).unwrap();
        assert_eq!(t.loads.len(), 1);
        assert!(t.rows_loaded() > 0);
        assert_eq!(t.source_updates.len(), 2);
    }

    #[test]
    fn larger_resources_are_faster() {
        let (mut f, cat) = tiny_flow_and_catalog();
        let slow = simulate(&f, &cat).unwrap();
        f.config.resources = ResourceClass::Large;
        let fast = simulate(&f, &cat).unwrap();
        assert!(fast.cycle_time_ms < slow.cycle_time_ms);
    }

    #[test]
    fn encryption_costs_time() {
        let (mut f, cat) = tiny_flow_and_catalog();
        let plain = simulate(&f, &cat).unwrap();
        f.config.encrypted = true;
        let enc = simulate(&f, &cat).unwrap();
        assert!(enc.cycle_time_ms > plain.cycle_time_ms);
    }

    #[test]
    fn checkpoint_shrinks_redo_span() {
        // extract -> expensive derive -> (checkpoint?) -> fragile op -> load
        let schema = Schema::new(vec![
            Attribute::required("t_id", DataType::Int),
            Attribute::new("amount", DataType::Float),
        ]);
        let mut cat = Catalog::new();
        cat.add_generated(
            &datagen::TableSpec::new("t", schema.clone(), 2_000, "t_id"),
            &DirtProfile::clean(),
            1,
        );
        let build = |with_cp: bool| {
            let mut f = EtlFlow::new("cp");
            let e = f.add_op(Operation::extract("t", schema.clone()));
            let d = f.add_op(
                Operation::derive(
                    "expensive",
                    vec![("x".to_string(), Expr::col("amount").mul(Expr::lit_f(2.0)))],
                )
                .with_cost(0.1),
            );
            let mut prev = d;
            f.connect(e, d).unwrap();
            if with_cp {
                let cp = f.add_op(Operation::new(
                    "SAVE",
                    etl_model::OpKind::Checkpoint { tag: "sp1".into() },
                ));
                f.connect(prev, cp).unwrap();
                prev = cp;
            }
            let fragile = f.add_op(
                Operation::filter("fragile", Expr::col("amount").gt(Expr::lit_f(-1.0)))
                    .with_failure_rate(1.0),
            );
            let l = f.add_op(Operation::load("out"));
            f.connect(prev, fragile).unwrap();
            f.connect(fragile, l).unwrap();
            f
        };
        let without = simulate(&build(false), &cat).unwrap();
        let with = simulate(&build(true), &cat).unwrap();
        // the savepoint means the expensive derive is NOT re-run
        assert!(
            with.expected_redo_ms < without.expected_redo_ms / 2.0,
            "checkpoint should cut recovery cost: with={} without={}",
            with.expected_redo_ms,
            without.expected_redo_ms
        );
    }

    #[test]
    fn parallel_replicas_cut_cycle_time() {
        // Simulates what ParallelizeTask produces: partition -> 2 replicas -> merge.
        let schema = Schema::new(vec![
            Attribute::required("t_id", DataType::Int),
            Attribute::new("amount", DataType::Float),
        ]);
        let mut cat = Catalog::new();
        cat.add_generated(
            &datagen::TableSpec::new("t", schema.clone(), 5_000, "t_id"),
            &DirtProfile::clean(),
            1,
        );
        let derive_op = || {
            Operation::derive(
                "work",
                vec![("x".to_string(), Expr::col("amount").mul(Expr::lit_f(2.0)))],
            )
            .with_cost(0.05)
        };
        // serial
        let mut f1 = EtlFlow::new("serial");
        let e = f1.add_op(Operation::extract("t", schema.clone()));
        let d = f1.add_op(derive_op());
        let l = f1.add_op(Operation::load("out"));
        f1.connect(e, d).unwrap();
        f1.connect(d, l).unwrap();
        // parallel ×2
        let mut f2 = EtlFlow::new("parallel");
        let e = f2.add_op(Operation::extract("t", schema.clone()));
        let pt = f2.add_op(Operation::new("HP", etl_model::OpKind::Partition));
        let d1 = f2.add_op(derive_op());
        let d2 = f2.add_op(derive_op());
        let m = f2.add_op(Operation::new("M", etl_model::OpKind::Merge));
        let l = f2.add_op(Operation::load("out"));
        f2.connect(e, pt).unwrap();
        f2.connect(pt, d1).unwrap();
        f2.connect(pt, d2).unwrap();
        f2.connect(d1, m).unwrap();
        f2.connect(d2, m).unwrap();
        f2.connect(m, l).unwrap();

        let serial = simulate(&f1, &cat).unwrap();
        let parallel = simulate(&f2, &cat).unwrap();
        assert!(
            parallel.cycle_time_ms < serial.cycle_time_ms * 0.7,
            "2-way partition should cut cycle time: serial={} parallel={}",
            serial.cycle_time_ms,
            parallel.cycle_time_ms
        );
        assert_eq!(serial.rows_loaded(), parallel.rows_loaded());
    }

    #[test]
    fn dirty_data_affects_loads() {
        // With filthy sources and no cleaning, loaded rows contain nulls/dups.
        let schema = Schema::new(vec![
            Attribute::required("t_id", DataType::Int),
            Attribute::new("name", DataType::Str),
        ]);
        let mut cat = Catalog::new();
        cat.add_generated(
            &datagen::TableSpec::new("t", schema.clone(), 500, "t_id"),
            &DirtProfile::filthy(),
            2,
        );
        let mut f = EtlFlow::new("passthru");
        let e = f.add_op(Operation::extract("t", schema));
        let l = f.add_op(Operation::load("out"));
        f.connect(e, l).unwrap();
        let t = simulate(&f, &cat).unwrap();
        let nulls = t.loads[0]
            .rows
            .iter()
            .flat_map(|r| r.iter())
            .filter(|v| v.is_null())
            .count();
        assert!(nulls > 0);
        assert!(
            t.loads[0].rows.len() > 500,
            "duplicates should inflate row count"
        );
        let corrupt = t.loads[0]
            .rows
            .iter()
            .any(|r| matches!(&r[1], Value::Str(s) if s.ends_with(datagen::CORRUPT_MARKER)));
        assert!(corrupt);
    }
}
