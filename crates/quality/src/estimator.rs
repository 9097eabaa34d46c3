//! The analytic estimator: predicts runtime measures from the model alone.
//!
//! The paper's Planner "estimates defined measures for various quality
//! attributes" for *thousands* of alternative flows — executing each one
//! would defeat the interactive loop. The estimator propagates expected row
//! counts through the flow via per-operator selectivities, times them with
//! the cost model it shares with the simulator ([`etl_model::CostModel`]),
//! and derives data-quality expectations from per-source dirtiness
//! statistics. The ablation bench (`fig3_pipeline`) checks that estimator
//! rankings agree with simulation.

use crate::measure::{MeasureId, MeasureVector};
use crate::runtime::{freshness_score, recoverability, RowQuality};
use crate::static_measures::{evaluate_static, static_measures};
use datagen::Catalog;
use etl_model::{CostModel, EtlFlow, OpKind};
use std::cell::RefCell;
use std::collections::HashMap;

/// Per-source statistics the estimator propagates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceStats {
    /// Row count.
    pub rows: f64,
    /// Fraction of null cells.
    pub null_rate: f64,
    /// Fraction of duplicated rows.
    pub dup_rate: f64,
    /// Fraction of corrupted string cells.
    pub corrupt_rate: f64,
    /// Source staleness in seconds.
    pub staleness_s: f64,
}

impl SourceStats {
    /// Neutral stats for an unknown source.
    pub fn unknown(default_rows: f64) -> Self {
        SourceStats {
            rows: default_rows,
            null_rate: 0.0,
            dup_rate: 0.0,
            corrupt_rate: 0.0,
            staleness_s: 0.0,
        }
    }

    /// Derives stats by scanning a catalog table (cheap one-off pass; the
    /// planner does this once per session, not per alternative).
    pub fn from_table(table: &datagen::Table, request_time: i64) -> Self {
        let mut q = RowQuality::default();
        q.add(&table.rows);
        if q.rows == 0 {
            return SourceStats::unknown(0.0);
        }
        SourceStats {
            rows: q.rows as f64,
            null_rate: q.nulls as f64 / q.cells.max(1) as f64,
            dup_rate: 1.0 - q.distinct as f64 / q.rows as f64,
            corrupt_rate: q.corrupt as f64 / q.strs.max(1) as f64,
            staleness_s: (request_time - table.last_update).max(0) as f64,
        }
    }
}

/// Builds the estimator's source-statistics table from a catalog.
pub fn source_stats(catalog: &Catalog) -> HashMap<String, SourceStats> {
    catalog
        .tables()
        .map(|(name, t)| {
            (
                name.clone(),
                SourceStats::from_table(t, catalog.request_time()),
            )
        })
        .collect()
}

#[derive(Clone, Copy)]
struct NodeEst {
    rows: f64,
    null_rate: f64,
    dup_rate: f64,
    corrupt_rate: f64,
    staleness_s: f64,
    done_ms: f64,
    latency_ms: f64,
    redo_span_ms: f64,
    /// Edges on the longest path from a source to this node.
    depth: usize,
}

impl Default for NodeEst {
    fn default() -> Self {
        NodeEst {
            rows: 0.0,
            null_rate: 0.0,
            dup_rate: 0.0,
            corrupt_rate: 0.0,
            staleness_s: 0.0,
            done_ms: 0.0,
            latency_ms: 0.0,
            redo_span_ms: 0.0,
            depth: 0,
        }
    }
}

/// How strongly each cleaning pattern is expected to reduce its defect
/// class (residual fraction). Calibrated against simulation in tests.
const NULLFILTER_RESIDUAL: f64 = 0.05;
const DEDUP_RESIDUAL: f64 = 0.02;
const CROSSCHECK_RESIDUAL: f64 = 0.10;

/// One node's estimate and its expected-redo contribution, computed from its
/// operation and its predecessors' already-filled entries in `est`. The
/// single definition of per-node estimator semantics; [`estimate`] calls it
/// once per node in topological order.
fn compute_node_est(
    flow: &EtlFlow,
    n: etl_model::NodeId,
    est: &[NodeEst],
    stats: &HashMap<String, SourceStats>,
    model: &CostModel,
) -> (NodeEst, f64) {
    let op = flow.op(n).expect("live node");
    // Every reduction walks the predecessors in the graph's order, so the
    // float sums come out the same on every call.
    let preds = || flow.graph.predecessors(n);
    let is_source = flow.graph.in_degree(n) == 0;

    let in_rows: f64 = preds().map(|p| branch_rows(est, flow, p)).sum();
    let agg = |f: fn(&NodeEst) -> f64| -> f64 {
        if is_source {
            0.0
        } else {
            // row-weighted mean over inputs
            let total: f64 = preds()
                .map(|p| f(&est[p.index()]) * est[p.index()].rows.max(1.0))
                .sum();
            let w: f64 = preds().map(|p| est[p.index()].rows.max(1.0)).sum();
            total / w
        }
    };

    let mut e = NodeEst {
        null_rate: agg(|x| x.null_rate),
        dup_rate: agg(|x| x.dup_rate),
        corrupt_rate: agg(|x| x.corrupt_rate),
        staleness_s: preds()
            .map(|p| est[p.index()].staleness_s)
            .fold(0.0f64, f64::max),
        depth: preds().map(|p| est[p.index()].depth + 1).max().unwrap_or(0),
        ..NodeEst::default()
    };

    // rows and DQ effects per kind
    e.rows = match &op.kind {
        OpKind::Extract { source, .. } => {
            let s = stats
                .get(source)
                .copied()
                .unwrap_or_else(|| SourceStats::unknown(1_000.0));
            e.null_rate = s.null_rate;
            e.dup_rate = s.dup_rate;
            e.corrupt_rate = s.corrupt_rate;
            e.staleness_s = s.staleness_s;
            s.rows
        }
        OpKind::FilterNulls { .. } => {
            let out = in_rows * op.selectivity();
            e.null_rate *= NULLFILTER_RESIDUAL;
            out
        }
        OpKind::Dedup { .. } => {
            let out = in_rows * (1.0 - e.dup_rate).max(0.1);
            e.dup_rate *= DEDUP_RESIDUAL;
            out
        }
        OpKind::Crosscheck { .. } => {
            e.null_rate *= CROSSCHECK_RESIDUAL;
            e.corrupt_rate *= CROSSCHECK_RESIDUAL;
            in_rows
        }
        OpKind::Join { .. } => {
            // equi-join on surrogate-ish keys: bounded by the larger input
            let m = preds()
                .map(|p| branch_rows(est, flow, p))
                .fold(0.0f64, f64::max);
            m * op.selectivity()
        }
        _ => in_rows * op.selectivity(),
    };

    // timing — the simulator's cost model over the expected rows
    let service = model.service_ms(op, in_rows, e.rows);
    let ready = preds()
        .map(|p| est[p.index()].done_ms)
        .fold(0.0f64, f64::max);
    e.done_ms = ready + service;
    e.latency_ms = preds()
        .map(|p| est[p.index()].latency_ms)
        .fold(0.0f64, f64::max)
        + model.latency_step_ms(op);
    // Partition rows are split across successors; handled in branch_rows
    // via out-degree division, so `e.rows` stores the total.
    e.redo_span_ms = CostModel::redo_span_ms(
        service,
        preds().map(|p| (flow.op(p).expect("live node"), est[p.index()].redo_span_ms)),
    );
    (e, CostModel::expected_redo_ms(op, e.redo_span_ms))
}

/// Estimates the full measure vector of a flow without executing it.
///
/// `stats` maps source names to their statistics (see [`source_stats`]);
/// unknown sources get [`SourceStats::unknown`] with 1 000 rows.
///
/// One topological walk computes every node's estimate and, with it, the
/// longest path that [`evaluate_static`] would derive from a second sort.
/// The per-node vectors are per-thread buffers reused across calls.
pub fn estimate(flow: &EtlFlow, stats: &HashMap<String, SourceStats>) -> MeasureVector {
    thread_local! {
        static BUFFERS: RefCell<(Vec<NodeEst>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    }
    let order = match flow.topo_order() {
        Ok(o) => o,
        Err(_) => return evaluate_static(flow),
    };
    let model = CostModel::of(&flow.config);
    let bound = flow.graph.node_bound();
    BUFFERS.with_borrow_mut(|(est, redo_contrib)| {
        est.clear();
        est.resize(bound, NodeEst::default());
        redo_contrib.clear();
        redo_contrib.resize(bound, 0.0);
        let mut longest_path = 0;
        for &n in &order {
            let (e, c) = compute_node_est(flow, n, est, stats, &model);
            longest_path = longest_path.max(e.depth);
            est[n.index()] = e;
            redo_contrib[n.index()] = c;
        }
        finalize(flow, est, redo_contrib, longest_path)
    })
}

/// Placeholder kept for perfbench's traced replay, its only user, which
/// still names this type. The next change to the benchmark deletes it.
pub struct EstimateBaseline;

/// Forward kept for perfbench's traced replay, its only caller: returns
/// [`EstimateBaseline`]. The next change to the benchmark deletes it.
pub fn estimate_baseline(
    _flow: &EtlFlow,
    _stats: &HashMap<String, SourceStats>,
) -> EstimateBaseline {
    EstimateBaseline
}

/// Forward kept for perfbench's traced replay, its only caller: returns
/// [`estimate`]`(fork, stats)`, the estimator the planner runs per fork.
/// The next change to the benchmark deletes it.
pub fn estimate_delta_with(
    fork: &EtlFlow,
    _base: &EtlFlow,
    _baseline: &EstimateBaseline,
    stats: &HashMap<String, SourceStats>,
    _delta: &flowgraph::CowDelta,
) -> MeasureVector {
    estimate(fork, stats)
}

/// Aggregates per-node estimates into the flow's measure vector. All
/// floating-point reductions run in canonical (ascending node-index) order.
fn finalize(
    flow: &EtlFlow,
    est: &[NodeEst],
    redo_contrib: &[f64],
    longest_path: usize,
) -> MeasureVector {
    let mut v = static_measures(flow, Some(longest_path));
    let expected_redo: f64 = redo_contrib.iter().sum();
    // One walk over the loads in node order; each sum accumulates in the
    // same order as a sum over the list of loads would.
    let mut loads = 0usize;
    let (mut cycle, mut latency_sum, mut rows_loaded, mut stale) = (0.0f64, 0.0, 0.0, 0.0f64);
    let (mut weight, mut nulls, mut dups, mut corrupt) = (0.0, 0.0, 0.0, 0.0);
    for (n, op) in flow.graph.nodes() {
        if !matches!(op.kind, OpKind::Load { .. }) {
            continue;
        }
        let e = &est[n.index()];
        let w = e.rows.max(1.0);
        loads += 1;
        cycle = cycle.max(e.done_ms);
        latency_sum += e.latency_ms;
        rows_loaded += e.rows;
        stale = stale.max(e.staleness_s);
        weight += w;
        nulls += e.null_rate * w;
        dups += e.dup_rate * w;
        corrupt += e.corrupt_rate * w;
    }

    v.set(MeasureId::CycleTimeMs, cycle);
    let latency = if loads == 0 {
        0.0
    } else {
        latency_sum / loads as f64
    };
    v.set(MeasureId::AvgLatencyMs, latency);
    if cycle > 0.0 {
        v.set(MeasureId::Throughput, rows_loaded / (cycle / 1_000.0));
    }

    // DQ at the loads (row-weighted means)
    if loads > 0 {
        let weight = weight.max(1.0);
        v.set(
            MeasureId::Completeness,
            (1.0 - nulls / weight).clamp(0.0, 1.0),
        );
        v.set(MeasureId::Uniqueness, (1.0 - dups / weight).clamp(0.0, 1.0));
        v.set(
            MeasureId::Accuracy,
            (1.0 - corrupt / weight).clamp(0.0, 1.0),
        );
        v.set(
            MeasureId::FreshnessAgeS,
            crate::runtime::effective_age_s(stale, flow.config.recurrence_minutes),
        );
        v.set(
            MeasureId::FreshnessScore,
            freshness_score(stale, flow.config.recurrence_minutes),
        );
    }

    v.set(MeasureId::ExpectedRedoMs, expected_redo);
    v.set(
        MeasureId::Recoverability,
        recoverability(cycle, expected_redo),
    );
    v.set(
        MeasureId::MonetaryCost,
        crate::runtime::monetary_cost(cycle, flow),
    );
    v
}

/// Rows a successor receives from predecessor `from`: partitioned parents split
/// their output across successors, everything else sends its full output.
fn branch_rows(est: &[NodeEst], flow: &EtlFlow, from: etl_model::NodeId) -> f64 {
    let op = flow.op(from).expect("live node");
    let out_deg = flow.graph.out_degree(from).max(1) as f64;
    let rows = est[from.index()].rows;
    match op.kind {
        OpKind::Partition => rows / out_deg,
        OpKind::Router { .. } => rows / 2.0,
        _ => rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::tpch::{tpch_catalog, tpch_flow};
    use datagen::DirtProfile;
    use simulator::{simulate, SimConfig};

    #[test]
    fn source_stats_from_dirty_table() {
        let cat = purchases_catalog(500, &DirtProfile::filthy(), 3);
        let stats =
            SourceStats::from_table(cat.table("s_purchases_3").unwrap(), cat.request_time());
        assert!(stats.rows > 500.0, "dups inflate row count");
        assert!(stats.null_rate > 0.05);
        assert!(stats.dup_rate > 0.02);
        assert!(stats.staleness_s > 0.0);
        let clean =
            SourceStats::from_table(cat.table("ref_s_purchases_3").unwrap(), cat.request_time());
        // Clean twins still carry *semantic* nulls (open-ended record_end_date)
        // but strictly fewer than the dirty table, and no duplicates.
        assert!(clean.null_rate < stats.null_rate);
        assert_eq!(clean.dup_rate, 0.0);
    }

    #[test]
    fn estimator_fills_all_runtime_measures() {
        let (f, _) = tpch_flow();
        let cat = tpch_catalog(400, &DirtProfile::demo(), 5);
        let v = estimate(&f, &source_stats(&cat));
        for id in [
            MeasureId::CycleTimeMs,
            MeasureId::AvgLatencyMs,
            MeasureId::Completeness,
            MeasureId::Uniqueness,
            MeasureId::Accuracy,
            MeasureId::FreshnessScore,
            MeasureId::Recoverability,
            MeasureId::MonetaryCost,
            MeasureId::LongestPath,
        ] {
            assert!(v.get(id).is_some(), "missing {id:?}");
        }
    }

    #[test]
    fn estimate_tracks_simulation_direction() {
        // The estimator must rank a parallelised flow as faster, a
        // checkpointed flow as more recoverable — same direction as sim.
        let (f, ids) = purchases_flow();
        let cat = purchases_catalog(400, &DirtProfile::demo(), 5);
        let stats = source_stats(&cat);
        let base_est = estimate(&f, &stats);
        let base_sim = crate::evaluate(&f, &simulate(&f, &cat, &SimConfig::default()).unwrap());

        // estimator and simulator agree on cycle time within 2x
        let est_ct = base_est.get(MeasureId::CycleTimeMs).unwrap();
        let sim_ct = base_sim.get(MeasureId::CycleTimeMs).unwrap();
        assert!(
            est_ct / sim_ct < 2.0 && sim_ct / est_ct < 2.0,
            "estimate {est_ct} vs simulated {sim_ct}"
        );

        // add a checkpoint → both paths report higher recoverability
        let router = f.ops_of_kind("router")[0];
        let mut fragile = f.fork("fragile");
        fragile.op_mut(router).unwrap().cost.failure_rate = 0.3;
        let frag_est = estimate(&fragile, &stats);
        let mut cp = fragile.fork("cp");
        let e = cp.graph.out_edges(ids.derive_values).next().unwrap();
        cp.graph
            .interpose_on_edge(
                e,
                etl_model::Operation::new("SAVE", OpKind::Checkpoint { tag: "s".into() }),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        let cp_est = estimate(&cp, &stats);
        assert!(
            cp_est.get(MeasureId::ExpectedRedoMs).unwrap()
                < frag_est.get(MeasureId::ExpectedRedoMs).unwrap()
        );
    }

    #[test]
    fn estimated_longest_path_follows_an_interposed_node() {
        // The estimator's one-walk longest path against the sorting
        // definition, on a fork whose interposed checkpoint sits on the
        // longest path and so lengthens it.
        let (f, ids) = purchases_flow();
        let stats = source_stats(&purchases_catalog(50, &DirtProfile::demo(), 5));
        let longest = |flow: &EtlFlow| {
            let estimated = estimate(flow, &stats).get(MeasureId::LongestPath);
            let sorted = flowgraph::longest_path_len(&flow.graph).map(|lp| lp as f64);
            assert_eq!(estimated, sorted, "{}", flow.name);
            estimated.unwrap()
        };
        let mut fork = f.fork("cp");
        let e = fork.graph.out_edges(ids.derive_values).next().unwrap();
        fork.graph
            .interpose_on_edge(
                e,
                etl_model::Operation::new("SAVE", OpKind::Checkpoint { tag: "s".into() }),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        assert_eq!(longest(&fork), longest(&f) + 1.0);
    }

    #[test]
    fn cleaning_ops_improve_estimated_dq() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(400, &DirtProfile::filthy(), 5);
        let stats = source_stats(&cat);
        let base = estimate(&f, &stats);

        // interpose FilterNulls + Dedup right after the merge of sources
        let mut g = f.fork("cleaned");
        let merge0 = g.ops_of_kind("merge")[0];
        let e = g.graph.out_edges(merge0).next().unwrap();
        let splice = g
            .graph
            .interpose_on_edge(
                e,
                etl_model::Operation::new("FN", OpKind::FilterNulls { columns: vec![] }),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        g.graph
            .interpose_on_edge(
                splice.out_edge,
                etl_model::Operation::new("DD", OpKind::Dedup { keys: vec![] }),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        let cleaned = estimate(&g, &stats);
        assert!(
            cleaned.get(MeasureId::Completeness).unwrap()
                > base.get(MeasureId::Completeness).unwrap()
        );
        assert!(
            cleaned.get(MeasureId::Uniqueness).unwrap() > base.get(MeasureId::Uniqueness).unwrap()
        );
        // Cleaning near the sources shrinks the rows reaching the expensive
        // derive, so cycle time may go either way — it must stay positive.
        assert!(cleaned.get(MeasureId::CycleTimeMs).unwrap() > 0.0);
    }

    #[test]
    fn unknown_sources_get_defaults() {
        let (f, _) = purchases_flow();
        let v = estimate(&f, &HashMap::new());
        assert!(v.get(MeasureId::CycleTimeMs).unwrap() > 0.0);
        assert_eq!(v.get(MeasureId::Completeness), Some(1.0));
    }
}
