//! The simulation engine: drives execution in topological order, advances
//! the virtual clock, injects failures and models savepoint recovery.
//!
//! Timing, latency and redo spans come from [`CostModel`], the cost model
//! the analytic estimator shares; the engine feeds it the rows that really
//! flowed, where the estimator feeds it expected row counts.

use crate::exec::{execute_op, ExecError};
use crate::trace::{LoadedData, OpTrace, Trace, TrialSummary};
use datagen::Catalog;
use etl_model::{propagate_schemas, CostModel, EtlFlow, FlowError, OpKind, SchemaError, Tuple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// RNG seed (failure sampling only; data is deterministic already).
    pub seed: u64,
    /// Whether per-operator failure rates are sampled.
    pub inject_failures: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xE71,
            inject_failures: false,
        }
    }
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The flow failed validation.
    Flow(String),
    /// Schema propagation failed.
    Schema(String),
    /// Operator execution failed.
    Exec(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Flow(e) => write!(f, "flow error: {e}"),
            SimError::Schema(e) => write!(f, "schema error: {e}"),
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
impl From<SchemaError> for SimError {
    fn from(e: SchemaError) -> Self {
        SimError::Schema(e.to_string())
    }
}
impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e.to_string())
    }
}

/// Runs one simulation of `flow` over `catalog`.
///
/// Determinism: identical `(flow, catalog, config)` triples produce
/// identical traces.
pub fn simulate(flow: &EtlFlow, catalog: &Catalog, config: &SimConfig) -> Result<Trace, SimError> {
    flow.validate()?;
    let schemas = propagate_schemas(flow)?;
    let order = flow.topo_order()?;
    let mut rng = SmallRng::seed_from_u64(config.seed);

    let model = CostModel::of(&flow.config);

    let nbound = flow.graph.node_bound();
    // Rows buffered per edge.
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
    let mut total_redo = 0.0;
    let mut expected_redo = 0.0;
    let mut failures = 0usize;

    for &n in &order {
        let op = flow.op(n).expect("live node");
        let in_edges: Vec<_> = flow.graph.in_edges(n).collect();
        let preds: Vec<_> = flow.graph.predecessors(n).collect();
        let inputs: Vec<Vec<Tuple>> = in_edges
            .iter()
            .map(|e| {
                edge_rows[e.index()]
                    .clone()
                    .expect("topological order fills predecessor edges")
            })
            .collect();
        let in_schemas: Vec<&etl_model::Schema> = preds
            .iter()
            .map(|p| schemas[p.index()].as_deref().expect("propagated"))
            .collect();
        let out_schema = schemas[n.index()].as_deref().expect("propagated");
        let out_edges: Vec<_> = flow.graph.out_edges(n).collect();

        let outputs = execute_op(
            op,
            &inputs,
            &in_schemas,
            out_schema,
            out_edges.len(),
            catalog,
        )?;
        let rows_in: usize = inputs.iter().map(|v| v.len()).sum();
        let rows_out: usize = outputs.iter().map(|v| v.len()).sum();

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

        let failed = config.inject_failures
            && op.cost.failure_rate > 0.0
            && rng.gen_bool(op.cost.failure_rate.clamp(0.0, 1.0));
        let redo = if failed { redo_span[n.index()] } else { 0.0 };
        if failed {
            failures += 1;
            total_redo += redo;
        }

        let start = ready;
        let end = ready + service + redo;
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
                rows: outputs.first().cloned().unwrap_or_default(),
            });
        }

        for (e, rows) in out_edges.iter().zip(outputs) {
            edge_rows[e.index()] = Some(rows);
        }

        ops.push(OpTrace {
            node: n,
            name: op.name.clone(),
            kind: op.kind.name().to_string(),
            rows_in,
            rows_out,
            start_ms: start,
            end_ms: end,
            failed,
            redo_ms: redo,
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
        total_redo_ms: total_redo,
        expected_redo_ms: expected_redo,
        failures,
        loads,
        request_time: catalog.request_time(),
        source_updates,
    })
}

/// Monte Carlo reliability: `trials` failure-injecting runs plus one clean
/// run, summarised. Data execution is repeated per trial (failures do not
/// change data, only time), so this is CPU-proportional to `trials`.
pub fn simulate_trials(
    flow: &EtlFlow,
    catalog: &Catalog,
    base: &SimConfig,
    trials: usize,
) -> Result<TrialSummary, SimError> {
    let clean = simulate(
        flow,
        catalog,
        &SimConfig {
            inject_failures: false,
            ..*base
        },
    )?;
    let deadline = clean.cycle_time_ms * 1.5;
    let mut sum_cycle = 0.0;
    let mut sum_redo = 0.0;
    let mut failed_runs = 0usize;
    let mut within = 0usize;
    for i in 0..trials {
        let t = simulate(
            flow,
            catalog,
            &SimConfig {
                seed: base.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
                inject_failures: true,
            },
        )?;
        sum_cycle += t.cycle_time_ms;
        sum_redo += t.total_redo_ms;
        if t.failures > 0 {
            failed_runs += 1;
        }
        if t.cycle_time_ms <= deadline {
            within += 1;
        }
    }
    let n = trials.max(1) as f64;
    Ok(TrialSummary {
        trials,
        mean_cycle_ms: sum_cycle / n,
        clean_cycle_ms: clean.cycle_time_ms,
        mean_redo_ms: sum_redo / n,
        failure_run_fraction: failed_runs as f64 / n,
        within_deadline_fraction: within as f64 / n,
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

    fn tiny_flow_and_catalog() -> (EtlFlow, Catalog) {
        let schema = Schema::new(vec![
            Attribute::required("t_id", DataType::Int),
            Attribute::new("amount", DataType::Float),
        ]);
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
        let t = simulate(&f, &cat, &SimConfig::default()).unwrap();
        assert_eq!(t.ops.len(), 3);
        assert!(t.cycle_time_ms > 0.0);
        assert!(t.avg_latency_ms > 0.0);
        assert_eq!(t.loads.len(), 1);
        assert_eq!(t.loads[0].rows.len(), 100); // all amounts positive by generator
        assert_eq!(t.failures, 0);
    }

    #[test]
    fn deterministic_traces() {
        let (f, cat) = tiny_flow_and_catalog();
        let a = simulate(&f, &cat, &SimConfig::default()).unwrap();
        let b = simulate(&f, &cat, &SimConfig::default()).unwrap();
        assert_eq!(a.cycle_time_ms, b.cycle_time_ms);
        assert_eq!(a.rows_loaded(), b.rows_loaded());
    }

    #[test]
    fn tpch_flow_runs_end_to_end() {
        let (f, _) = tpch_flow();
        let cat = tpch_catalog(400, &DirtProfile::demo(), 7);
        let t = simulate(&f, &cat, &SimConfig::default()).unwrap();
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
        let t = simulate(&f, &cat, &SimConfig::default()).unwrap();
        assert_eq!(t.loads.len(), 1);
        assert!(t.rows_loaded() > 0);
        assert_eq!(t.source_updates.len(), 2);
    }

    #[test]
    fn larger_resources_are_faster() {
        let (mut f, cat) = tiny_flow_and_catalog();
        let slow = simulate(&f, &cat, &SimConfig::default()).unwrap();
        f.config.resources = ResourceClass::Large;
        let fast = simulate(&f, &cat, &SimConfig::default()).unwrap();
        assert!(fast.cycle_time_ms < slow.cycle_time_ms);
    }

    #[test]
    fn encryption_costs_time() {
        let (mut f, cat) = tiny_flow_and_catalog();
        let plain = simulate(&f, &cat, &SimConfig::default()).unwrap();
        f.config.encrypted = true;
        let enc = simulate(&f, &cat, &SimConfig::default()).unwrap();
        assert!(enc.cycle_time_ms > plain.cycle_time_ms);
    }

    #[test]
    fn failures_add_redo_time() {
        let (mut f, cat) = tiny_flow_and_catalog();
        // make the filter fail certainly
        let fid = f.ops_of_kind("filter")[0];
        f.op_mut(fid).unwrap().cost.failure_rate = 1.0;
        let clean = simulate(
            &f,
            &cat,
            &SimConfig {
                inject_failures: false,
                seed: 1,
            },
        )
        .unwrap();
        let failed = simulate(
            &f,
            &cat,
            &SimConfig {
                inject_failures: true,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(failed.failures, 1);
        assert!(failed.total_redo_ms > 0.0);
        assert!(failed.cycle_time_ms > clean.cycle_time_ms);
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
        let cfg = SimConfig {
            seed: 5,
            inject_failures: true,
        };
        let without = simulate(&build(false), &cat, &cfg).unwrap();
        let with = simulate(&build(true), &cat, &cfg).unwrap();
        assert_eq!(without.failures, 1);
        assert_eq!(with.failures, 1);
        // the savepoint means the expensive derive is NOT re-run
        assert!(
            with.total_redo_ms < without.total_redo_ms / 2.0,
            "checkpoint should cut recovery cost: with={} without={}",
            with.total_redo_ms,
            without.total_redo_ms
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

        let cfg = SimConfig::default();
        let serial = simulate(&f1, &cat, &cfg).unwrap();
        let parallel = simulate(&f2, &cat, &cfg).unwrap();
        assert!(
            parallel.cycle_time_ms < serial.cycle_time_ms * 0.7,
            "2-way partition should cut cycle time: serial={} parallel={}",
            serial.cycle_time_ms,
            parallel.cycle_time_ms
        );
        assert_eq!(serial.rows_loaded(), parallel.rows_loaded());
    }

    #[test]
    fn trial_summary_statistics() {
        let (mut f, cat) = tiny_flow_and_catalog();
        let fid = f.ops_of_kind("filter")[0];
        f.op_mut(fid).unwrap().cost.failure_rate = 0.5;
        let s = simulate_trials(&f, &cat, &SimConfig::default(), 40).unwrap();
        assert_eq!(s.trials, 40);
        assert!(s.mean_cycle_ms >= s.clean_cycle_ms);
        assert!(s.failure_run_fraction > 0.1 && s.failure_run_fraction < 0.9);
        assert!(s.within_deadline_fraction > 0.0);
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
        let t = simulate(&f, &cat, &SimConfig::default()).unwrap();
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
