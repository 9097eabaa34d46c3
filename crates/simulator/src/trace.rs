//! Trace structures: the "historical traces capturing the runtime behaviour
//! of ETL components" that runtime-derived quality measures are computed on.

use etl_model::{NodeId, Schema, Tuple};

/// Per-operator execution record.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Node id within the flow.
    pub node: NodeId,
    /// Operation name.
    pub name: String,
    /// Operator kind name (`filter`, `join`, …).
    pub kind: String,
    /// Input row count (across all input edges).
    pub rows_in: usize,
    /// Output row count: the rows the operator produced, counted once
    /// however many successors read them.
    pub rows_out: usize,
    /// Virtual start time (ms since flow start).
    pub start_ms: f64,
    /// Virtual end time (ms since flow start).
    pub end_ms: f64,
}

/// The rows that arrived at one load target.
#[derive(Debug, Clone)]
pub struct LoadedData {
    /// The load target's name.
    pub target: String,
    /// Schema of the loaded rows.
    pub schema: Schema,
    /// Actual loaded rows.
    pub rows: Vec<Tuple>,
}

/// A full execution trace of one flow run.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Flow name.
    pub flow_name: String,
    /// Per-operator records, in topological execution order.
    pub ops: Vec<OpTrace>,
    /// Process cycle time (ms): completion of the last load.
    pub cycle_time_ms: f64,
    /// Average per-tuple end-to-end latency (ms) over load targets.
    pub avg_latency_ms: f64,
    /// Expected recovery time per run: `Σ failure_rate × redo span` over
    /// the operators, summed in execution order (see
    /// [`etl_model::CostModel::redo_span_ms`]).
    pub expected_redo_ms: f64,
    /// Loaded data per load operator.
    pub loads: Vec<LoadedData>,
    /// The request time (fixed epoch) for freshness measures.
    pub request_time: i64,
    /// `(source, last_update)` for every extracted source.
    pub source_updates: Vec<(String, i64)>,
}

impl Trace {
    /// Total rows loaded across targets.
    pub fn rows_loaded(&self) -> usize {
        self.loads.iter().map(|l| l.rows.len()).sum()
    }

    /// Age (seconds) of the stalest source feeding this run.
    pub fn stalest_source_age(&self) -> Option<i64> {
        self.source_updates
            .iter()
            .map(|(_, lu)| self.request_time - lu)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etl_model::Value;

    #[test]
    fn trace_aggregations() {
        let trace = Trace {
            flow_name: "f".into(),
            ops: vec![],
            cycle_time_ms: 10.0,
            avg_latency_ms: 1.0,
            expected_redo_ms: 0.0,
            loads: vec![
                LoadedData {
                    target: "a".into(),
                    schema: Schema::empty(),
                    rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
                },
                LoadedData {
                    target: "b".into(),
                    schema: Schema::empty(),
                    rows: vec![vec![Value::Int(3)]],
                },
            ],
            request_time: 1_000,
            source_updates: vec![("s1".into(), 400), ("s2".into(), 900)],
        };
        assert_eq!(trace.rows_loaded(), 3);
        assert_eq!(trace.stalest_source_age(), Some(600));
    }
}
