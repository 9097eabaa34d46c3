//! The runtime cost model: how long an operation keeps the virtual clock
//! busy, how much per-tuple latency it adds, and what a failure at it costs
//! to recover.
//!
//! The analytic estimator (`quality::estimate`) and the simulator
//! (`simulator::simulate`) both time a flow with these functions, one over
//! expected row counts and one over the rows that really flowed, so a
//! design's estimated and simulated runtime measures share one statement.
//! Each function keeps its float expression in one fixed order, so a
//! caller that feeds it the same inputs gets the same bits.

use crate::flow::FlowConfig;
use crate::op::{OpKind, Operation};

/// Encryption slows every operator down by this factor when the flow-level
/// `encrypted` configuration is on (the security pattern's performance tax).
const ENCRYPTION_OVERHEAD: f64 = 1.08;

/// The graph-level factors of a flow's timing: the resource class's speed
/// and the encryption tax. Graph-level patterns (resources, encryption)
/// change these for every node at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Relative processing speed ([`crate::ResourceClass::speed_factor`]).
    speed: f64,
    /// Slow-down factor: [`ENCRYPTION_OVERHEAD`] when encrypted, else 1.
    tax: f64,
}

impl CostModel {
    /// The cost model a flow configuration implies.
    #[inline]
    pub fn of(config: &FlowConfig) -> Self {
        CostModel {
            speed: config.resources.speed_factor(),
            tax: if config.encrypted {
                ENCRYPTION_OVERHEAD
            } else {
                1.0
            },
        }
    }

    /// Service time (ms) of `op`: its startup plus its per-tuple cost over
    /// the rows it works on, split across its parallelism, then taxed and
    /// scaled by the speed. An extract works on the rows it outputs, every
    /// other operator on the rows it receives.
    #[inline]
    pub fn service_ms(&self, op: &Operation, rows_in: f64, rows_out: f64) -> f64 {
        let par = op.parallelism.max(1) as f64;
        let work_rows = match op.kind {
            OpKind::Extract { .. } => rows_out,
            _ => rows_in,
        };
        (op.cost.startup_ms + work_rows * op.cost.cost_per_tuple_ms / par) * self.tax / self.speed
    }

    /// Latency (ms) `op` adds to each tuple that passes through it.
    #[inline]
    pub fn latency_step_ms(&self, op: &Operation) -> f64 {
        let par = op.parallelism.max(1) as f64;
        op.cost.cost_per_tuple_ms * self.tax / (par * self.speed)
    }

    /// Redo span (ms) of a node: the time to recompute it from the nearest
    /// upstream savepoints after it fails. That is its own service time plus
    /// the longest of what its predecessors hand on, given as
    /// `(operation, redo span)` pairs. A checkpoint predecessor restarts
    /// from its savepoint and hands on only a re-read, approximated by its
    /// startup cost; any other predecessor hands on its own span, back to
    /// the extracts.
    #[inline]
    pub fn redo_span_ms<'a>(
        service_ms: f64,
        preds: impl Iterator<Item = (&'a Operation, f64)>,
    ) -> f64 {
        let upstream = preds
            .map(|(p, span)| match p.kind {
                OpKind::Checkpoint { .. } => p.cost.startup_ms,
                _ => span,
            })
            .fold(0.0f64, f64::max);
        service_ms + upstream
    }

    /// Expected recovery time (ms) per run that `op` adds: its failure rate,
    /// clamped to a probability, times its redo span.
    #[inline]
    pub fn expected_redo_ms(op: &Operation, redo_span_ms: f64) -> f64 {
        op.cost.failure_rate.clamp(0.0, 1.0) * redo_span_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceClass;

    #[test]
    fn extract_works_on_its_output_and_others_on_their_input() {
        let model = CostModel::of(&FlowConfig::default());
        let extract = Operation::extract("s", crate::Schema::empty()).with_cost(0.5);
        let load = Operation::load("t").with_cost(0.5);
        assert_eq!(model.service_ms(&extract, 0.0, 10.0), 1.0 + 5.0);
        assert_eq!(model.service_ms(&load, 10.0, 0.0), 1.0 + 5.0);
        assert_eq!(model.service_ms(&load, 0.0, 10.0), 1.0);
    }

    #[test]
    fn speed_tax_and_parallelism_scale_time() {
        let config = FlowConfig {
            encrypted: true,
            resources: ResourceClass::Medium,
            ..FlowConfig::default()
        };
        let model = CostModel::of(&config);
        assert_eq!(model.speed, 2.0);
        assert_eq!(model.tax, ENCRYPTION_OVERHEAD);
        let mut op = Operation::load("t").with_cost(0.5);
        op.parallelism = 4;
        assert_eq!(
            model.service_ms(&op, 8.0, 0.0),
            (1.0 + 8.0 * 0.5 / 4.0) * ENCRYPTION_OVERHEAD / 2.0
        );
        assert_eq!(
            model.latency_step_ms(&op),
            0.5 * ENCRYPTION_OVERHEAD / (4.0 * 2.0)
        );
    }

    #[test]
    fn a_checkpoint_hands_on_its_startup_and_others_their_span() {
        let plain = Operation::load("t");
        let mut cp = Operation::new("SAVE", OpKind::Checkpoint { tag: "s".into() });
        cp.cost.startup_ms = 0.25;
        assert_eq!(CostModel::redo_span_ms(2.0, std::iter::empty()), 2.0);
        assert_eq!(
            CostModel::redo_span_ms(2.0, [(&plain, 7.0), (&cp, 9.0)].into_iter()),
            9.0
        );
        assert_eq!(CostModel::redo_span_ms(2.0, [(&cp, 9.0)].into_iter()), 2.25);
        let fragile = Operation::load("t").with_failure_rate(3.0);
        assert_eq!(CostModel::expected_redo_ms(&fragile, 4.0), 4.0);
        assert_eq!(CostModel::expected_redo_ms(&plain, 4.0), 0.0);
    }
}
