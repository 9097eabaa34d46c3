//! The analytic estimator: predicts runtime measures from the model alone.
//!
//! The paper's Planner "estimates defined measures for various quality
//! attributes" for *thousands* of alternative flows — executing each one
//! would defeat the interactive loop. The estimator propagates expected row
//! counts through the flow via per-operator selectivities, replays the same
//! virtual-clock arithmetic the simulator uses, and derives data-quality
//! expectations from per-source dirtiness statistics. The ablation bench
//! (`fig3_pipeline`) checks that estimator rankings agree with simulation.

use crate::measure::{MeasureId, MeasureVector};
use crate::runtime::{freshness_score, recoverability};
use crate::static_measures::evaluate_static;
use datagen::{Catalog, CORRUPT_MARKER};
use etl_model::{EtlFlow, OpKind, Value};
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
        let rows = table.rows.len();
        if rows == 0 {
            return SourceStats::unknown(0.0);
        }
        let mut cells = 0usize;
        let mut nulls = 0usize;
        let mut strs = 0usize;
        let mut corrupt = 0usize;
        let mut seen = std::collections::HashSet::with_capacity(rows);
        let mut distinct = 0usize;
        for row in &table.rows {
            let key: String = row
                .iter()
                .map(Value::group_key)
                .collect::<Vec<_>>()
                .join("\u{1}");
            if seen.insert(key) {
                distinct += 1;
            }
            for v in row {
                cells += 1;
                match v {
                    Value::Null => nulls += 1,
                    Value::Str(s) => {
                        strs += 1;
                        if s.ends_with(CORRUPT_MARKER) {
                            corrupt += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        SourceStats {
            rows: rows as f64,
            null_rate: nulls as f64 / cells.max(1) as f64,
            dup_rate: 1.0 - distinct as f64 / rows as f64,
            corrupt_rate: corrupt as f64 / strs.max(1) as f64,
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
        }
    }
}

/// How strongly each cleaning pattern is expected to reduce its defect
/// class (residual fraction). Calibrated against simulation in tests.
const NULLFILTER_RESIDUAL: f64 = 0.05;
const DEDUP_RESIDUAL: f64 = 0.02;
const CROSSCHECK_RESIDUAL: f64 = 0.10;
const ENCRYPTION_OVERHEAD: f64 = 1.08;

/// Speed/tax multipliers implied by a flow's configuration. Graph-level
/// patterns (resources, encryption) change these globally, which is why the
/// delta estimator falls back to a full pass when the config differs.
fn speed_tax(flow: &EtlFlow) -> (f64, f64) {
    let speed = flow.config.resources.speed_factor();
    let tax = if flow.config.encrypted {
        ENCRYPTION_OVERHEAD
    } else {
        1.0
    };
    (speed, tax)
}

/// One node's estimate and its expected-redo contribution, computed from its
/// operation and its predecessors' already-filled entries in `est`. The
/// single definition of per-node estimator semantics — the full pass and the
/// delta pass both call exactly this, which is what makes their results
/// bit-identical.
fn compute_node_est(
    flow: &EtlFlow,
    n: etl_model::NodeId,
    est: &[NodeEst],
    stats: &HashMap<String, SourceStats>,
    speed: f64,
    tax: f64,
) -> (NodeEst, f64) {
    let op = flow.op(n).expect("live node");
    let preds: Vec<_> = flow.graph.predecessors(n).collect();

    let in_rows: f64 = preds.iter().map(|p| branch_rows(est, flow, *p, n)).sum();
    let agg = |f: fn(&NodeEst) -> f64| -> f64 {
        if preds.is_empty() {
            0.0
        } else {
            // row-weighted mean over inputs
            let total: f64 = preds
                .iter()
                .map(|p| f(&est[p.index()]) * est[p.index()].rows.max(1.0))
                .sum();
            let w: f64 = preds.iter().map(|p| est[p.index()].rows.max(1.0)).sum();
            total / w
        }
    };

    let mut e = NodeEst {
        null_rate: agg(|x| x.null_rate),
        dup_rate: agg(|x| x.dup_rate),
        corrupt_rate: agg(|x| x.corrupt_rate),
        staleness_s: preds
            .iter()
            .map(|p| est[p.index()].staleness_s)
            .fold(0.0f64, f64::max),
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
            let m = preds
                .iter()
                .map(|p| branch_rows(est, flow, *p, n))
                .fold(0.0f64, f64::max);
            m * op.selectivity()
        }
        _ => in_rows * op.selectivity(),
    };

    // timing — mirrors the simulator's clock arithmetic
    let par = op.parallelism.max(1) as f64;
    let work_rows = match op.kind {
        OpKind::Extract { .. } => e.rows,
        _ => in_rows,
    };
    let service = (op.cost.startup_ms + work_rows * op.cost.cost_per_tuple_ms / par) * tax / speed;
    let ready = preds
        .iter()
        .map(|p| est[p.index()].done_ms)
        .fold(0.0f64, f64::max);
    e.done_ms = ready + service;
    e.latency_ms = preds
        .iter()
        .map(|p| est[p.index()].latency_ms)
        .fold(0.0f64, f64::max)
        + op.cost.cost_per_tuple_ms * tax / (par * speed);

    let upstream_span = preds
        .iter()
        .map(|p| {
            let pop = flow.op(*p).expect("live node");
            if matches!(pop.kind, OpKind::Checkpoint { .. }) {
                pop.cost.startup_ms
            } else {
                est[p.index()].redo_span_ms
            }
        })
        .fold(0.0f64, f64::max);
    // Partition rows are split across successors; handled in branch_rows
    // via out-degree division, so `e.rows` stores the total.
    e.redo_span_ms = service + upstream_span;
    let redo_contrib = op.cost.failure_rate.clamp(0.0, 1.0) * e.redo_span_ms;
    (e, redo_contrib)
}

/// Estimates the full measure vector of a flow without executing it.
///
/// `stats` maps source names to their statistics (see [`source_stats`]);
/// unknown sources get [`SourceStats::unknown`] with 1 000 rows.
pub fn estimate(flow: &EtlFlow, stats: &HashMap<String, SourceStats>) -> MeasureVector {
    let order = match flow.topo_order() {
        Ok(o) => o,
        Err(_) => return evaluate_static(flow),
    };
    let (speed, tax) = speed_tax(flow);
    let bound = flow.graph.node_bound();
    let mut est: Vec<NodeEst> = vec![NodeEst::default(); bound];
    let mut redo_contrib: Vec<f64> = vec![0.0; bound];
    for &n in &order {
        let (e, c) = compute_node_est(flow, n, &est, stats, speed, tax);
        est[n.index()] = e;
        redo_contrib[n.index()] = c;
    }
    finalize(flow, &est, &redo_contrib)
}

/// Cached per-node estimates of a base flow, reusable across every
/// copy-on-write fork of that base within one exploration cycle.
/// Build once with [`estimate_baseline`], consume with [`estimate_delta_with`].
pub struct EstimateBaseline {
    est: Vec<NodeEst>,
    redo_contrib: Vec<f64>,
    speed: f64,
    tax: f64,
    /// Longest path *ending* at each node (edge count). Depends only on a
    /// node's ancestors, so forks reuse it outside the affected region.
    dist_end: Vec<usize>,
    /// Merge-operation count of the base flow.
    merge_count: usize,
    /// Encrypt-operation count of the base flow.
    encrypt_count: usize,
    /// False when the base flow was cyclic (no baseline to compose with).
    acyclic: bool,
}

/// Builds the per-node estimate cache for `flow` (the planner's base flow).
pub fn estimate_baseline(flow: &EtlFlow, stats: &HashMap<String, SourceStats>) -> EstimateBaseline {
    let (speed, tax) = speed_tax(flow);
    let bound = flow.graph.node_bound();
    let mut est: Vec<NodeEst> = vec![NodeEst::default(); bound];
    let mut redo_contrib: Vec<f64> = vec![0.0; bound];
    let mut dist_end: Vec<usize> = vec![0; bound];
    let acyclic = match flow.topo_order() {
        Ok(order) => {
            for &n in &order {
                let (e, c) = compute_node_est(flow, n, &est, stats, speed, tax);
                est[n.index()] = e;
                redo_contrib[n.index()] = c;
                dist_end[n.index()] = flow
                    .graph
                    .predecessors(n)
                    .map(|p| dist_end[p.index()] + 1)
                    .max()
                    .unwrap_or(0);
            }
            true
        }
        Err(_) => false,
    };
    EstimateBaseline {
        est,
        redo_contrib,
        speed,
        tax,
        dist_end,
        merge_count: flow.count_ops(|op| matches!(op.kind, OpKind::Merge)),
        encrypt_count: flow.count_ops(|op| matches!(op.kind, OpKind::Encrypt)),
        acyclic,
    }
}

/// Estimates a copy-on-write fork of `base` by re-propagating only over the
/// fork's touched nodes and their descendants, composing with `baseline`.
/// `delta` is `fork.delta_since(base)`; the planner computes it once per
/// combination and shares it between the post-screen and this estimate.
///
/// Returns a `MeasureVector` **bit-identical** to `estimate(fork, stats)`:
/// unaffected nodes' estimates are reused verbatim (their inputs are
/// provably unchanged — the affected region is successor-closed), affected
/// nodes run the exact same per-node computation as the full pass, and the
/// expected-redo total is summed in the same canonical node-index order.
///
/// Falls back to the full pass when the fork's `FlowConfig` differs from the
/// base's (graph-level patterns change global speed/tax multipliers, which
/// invalidates every cached timing) or when the base was cyclic.
pub fn estimate_delta_with(
    fork: &EtlFlow,
    base: &EtlFlow,
    baseline: &EstimateBaseline,
    stats: &HashMap<String, SourceStats>,
    delta: &flowgraph::CowDelta,
) -> MeasureVector {
    if !baseline.acyclic || fork.config != base.config {
        return estimate(fork, stats);
    }
    let Some(order) = flowgraph::affected_topo(&fork.graph, &delta.touched_nodes) else {
        // The patch introduced a cycle (any new cycle lies inside the
        // affected region) — mirror the full pass's cyclic behaviour.
        return evaluate_static(fork);
    };
    let bound = fork.graph.node_bound();
    let mut est = baseline.est.clone();
    est.resize(bound, NodeEst::default());
    let mut redo_contrib = baseline.redo_contrib.clone();
    redo_contrib.resize(bound, 0.0);
    for r in &delta.removed_nodes {
        redo_contrib[r.index()] = 0.0;
    }
    for &n in &order {
        let (e, c) = compute_node_est(fork, n, &est, stats, baseline.speed, baseline.tax);
        est[n.index()] = e;
        redo_contrib[n.index()] = c;
    }
    let statics = static_delta(fork, base, baseline, delta, &order);
    finalize_with(statics, fork, &est, &redo_contrib)
}

/// Static measures of a fork, composed from the baseline's cached
/// structural aggregates plus a patch-local adjustment. Bit-identical to
/// [`evaluate_static`]`(fork)` for acyclic forks: the longest path is an
/// integer recomputed only over the affected region (a path length *ending*
/// at a node depends only on its ancestors, and any node whose predecessor
/// set changed is in the region), merge/encrypt counts are adjusted by
/// exact integer diffs over the touched and removed slots, and coupling is
/// a closed-form function of the fork's node and edge counts.
fn static_delta(
    fork: &EtlFlow,
    base: &EtlFlow,
    baseline: &EstimateBaseline,
    delta: &flowgraph::CowDelta,
    order: &[etl_model::NodeId],
) -> MeasureVector {
    let bound = fork.graph.node_bound();
    let mut dist = baseline.dist_end.clone();
    dist.resize(bound, 0);
    for &n in order {
        dist[n.index()] = fork
            .graph
            .predecessors(n)
            .map(|p| dist[p.index()] + 1)
            .max()
            .unwrap_or(0);
    }
    let mut lp = 0usize;
    for n in fork.graph.node_ids() {
        lp = lp.max(dist[n.index()]);
    }
    let merge = |op: Option<&etl_model::Operation>| -> i64 {
        matches!(op.map(|o| &o.kind), Some(OpKind::Merge)) as i64
    };
    let encrypt = |op: Option<&etl_model::Operation>| -> i64 {
        matches!(op.map(|o| &o.kind), Some(OpKind::Encrypt)) as i64
    };
    let mut merges = baseline.merge_count as i64;
    let mut encrypts = baseline.encrypt_count as i64;
    // Touched slots cover in-place edits (old kind out, new kind in) and
    // index-reusing replacements alike; removed slots only exist in `base`.
    for &n in &delta.touched_nodes {
        merges += merge(fork.graph.node(n)) - merge(base.graph.node(n));
        encrypts += encrypt(fork.graph.node(n)) - encrypt(base.graph.node(n));
    }
    for &n in &delta.removed_nodes {
        merges -= merge(base.graph.node(n));
        encrypts -= encrypt(base.graph.node(n));
    }
    let mut v = MeasureVector::new();
    v.set(MeasureId::LongestPath, lp as f64);
    v.set(MeasureId::Coupling, flowgraph::coupling(&fork.graph));
    v.set(MeasureId::MergeCount, merges as f64);
    v.set(MeasureId::OpCount, fork.op_count() as f64);
    v.set(
        MeasureId::SecurityScore,
        crate::static_measures::security_score_with(fork, encrypts > 0),
    );
    v
}

/// Aggregates per-node estimates into the flow's measure vector. Shared by
/// the full and delta paths; all floating-point reductions run in canonical
/// (ascending node-index) order so both paths produce identical bits.
fn finalize(flow: &EtlFlow, est: &[NodeEst], redo_contrib: &[f64]) -> MeasureVector {
    finalize_with(evaluate_static(flow), flow, est, redo_contrib)
}

/// [`finalize`] with the static measures already computed — the delta path
/// supplies them via [`static_delta`] instead of a full structural scan.
fn finalize_with(
    mut v: MeasureVector,
    flow: &EtlFlow,
    est: &[NodeEst],
    redo_contrib: &[f64],
) -> MeasureVector {
    let expected_redo: f64 = redo_contrib.iter().sum();
    let loads = flow.ops_of_kind("load");
    let cycle = loads
        .iter()
        .map(|n| est[n.index()].done_ms)
        .fold(0.0f64, f64::max);
    let latency = if loads.is_empty() {
        0.0
    } else {
        loads.iter().map(|n| est[n.index()].latency_ms).sum::<f64>() / loads.len() as f64
    };
    let rows_loaded: f64 = loads.iter().map(|n| est[n.index()].rows).sum();

    v.set(MeasureId::CycleTimeMs, cycle);
    v.set(MeasureId::AvgLatencyMs, latency);
    if cycle > 0.0 {
        v.set(MeasureId::Throughput, rows_loaded / (cycle / 1_000.0));
    }

    // DQ at the loads (row-weighted means)
    let wmean = |f: fn(&NodeEst) -> f64| -> f64 {
        let w: f64 = loads.iter().map(|n| est[n.index()].rows.max(1.0)).sum();
        loads
            .iter()
            .map(|n| f(&est[n.index()]) * est[n.index()].rows.max(1.0))
            .sum::<f64>()
            / w.max(1.0)
    };
    if !loads.is_empty() {
        v.set(
            MeasureId::Completeness,
            (1.0 - wmean(|e| e.null_rate)).clamp(0.0, 1.0),
        );
        v.set(
            MeasureId::Uniqueness,
            (1.0 - wmean(|e| e.dup_rate)).clamp(0.0, 1.0),
        );
        v.set(
            MeasureId::Accuracy,
            (1.0 - wmean(|e| e.corrupt_rate)).clamp(0.0, 1.0),
        );
        let stale = loads
            .iter()
            .map(|n| est[n.index()].staleness_s)
            .fold(0.0f64, f64::max);
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

/// Rows arriving at `to` from predecessor `from`: partitioned parents split
/// their output across successors, everything else sends its full output.
fn branch_rows(
    est: &[NodeEst],
    flow: &EtlFlow,
    from: etl_model::NodeId,
    to: etl_model::NodeId,
) -> f64 {
    let op = flow.op(from).expect("live node");
    let out_deg = flow.graph.out_degree(from).max(1) as f64;
    let rows = est[from.index()].rows;
    match op.kind {
        OpKind::Partition => rows / out_deg,
        OpKind::Router { .. } => rows / 2.0,
        _ => {
            let _ = to;
            rows
        }
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
    fn delta_estimate_is_bit_identical_to_scratch() {
        let (f, ids) = purchases_flow();
        let cat = purchases_catalog(400, &DirtProfile::demo(), 5);
        let stats = source_stats(&cat);
        let baseline = estimate_baseline(&f, &stats);

        // Patch 1: interpose a checkpoint mid-flow.
        let mut cp = f.fork("cp");
        let e = cp.graph.out_edges(ids.derive_values).next().unwrap();
        cp.graph
            .interpose_on_edge(
                e,
                etl_model::Operation::new("SAVE", OpKind::Checkpoint { tag: "s".into() }),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        // Patch 2 (same fork): bump an operator's failure rate.
        let router = cp.ops_of_kind("router")[0];
        cp.op_mut(router).unwrap().cost.failure_rate = 0.3;

        let fast = estimate_delta_with(&cp, &f, &baseline, &stats, &cp.delta_since(&f));
        let slow = estimate(&cp, &stats);
        assert_eq!(fast, slow, "delta and scratch must agree to the bit");

        // Config change → falls back to full estimate, still identical.
        let mut enc = f.fork("enc");
        enc.config.encrypted = true;
        let fast = estimate_delta_with(&enc, &f, &baseline, &stats, &enc.delta_since(&f));
        assert_eq!(fast, estimate(&enc, &stats));

        // Untouched fork: composing with the baseline reproduces the base.
        let same = f.fork("same");
        assert_eq!(
            estimate_delta_with(&same, &f, &baseline, &stats, &same.delta_since(&f)),
            estimate(&f, &stats)
        );
    }

    #[test]
    fn unknown_sources_get_defaults() {
        let (f, _) = purchases_flow();
        let v = estimate(&f, &HashMap::new());
        assert!(v.get(MeasureId::CycleTimeMs).unwrap() > 0.0);
        assert_eq!(v.get(MeasureId::Completeness), Some(1.0));
    }
}
