//! Measures derived directly from the static structure of the process model
//! (first family in the paper's Fig. 1): manageability metrics and the
//! model-derived part of cost.

use crate::measure::{MeasureId, MeasureVector};
use etl_model::{EtlFlow, OpKind};
use flowgraph::{coupling, longest_path_len};

/// Evaluates every purely structural measure of a flow.
pub fn evaluate_static(flow: &EtlFlow) -> MeasureVector {
    let mut v = MeasureVector::new();
    if let Some(lp) = longest_path_len(&flow.graph) {
        v.set(MeasureId::LongestPath, lp as f64);
    }
    v.set(MeasureId::Coupling, coupling(&flow.graph));
    v.set(
        MeasureId::MergeCount,
        flow.count_ops(|op| matches!(op.kind, OpKind::Merge)) as f64,
    );
    v.set(MeasureId::OpCount, flow.op_count() as f64);
    v.set(MeasureId::SecurityScore, security_score(flow));
    v
}

/// Security posture from the graph-level configuration plus the presence of
/// in-flow encryption operations: a base 0.2 for default isolation, +0.5
/// for channel encryption, +0.3 for role-based access control.
pub fn security_score(flow: &EtlFlow) -> f64 {
    let has_encrypt_op = flow.count_ops(|op| matches!(op.kind, OpKind::Encrypt)) > 0;
    let mut s = 0.2;
    if flow.config.encrypted || has_encrypt_op {
        s += 0.5;
    }
    if flow.config.role_based_access {
        s += 0.3;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::purchases_flow;
    use datagen::tpch::tpch_flow;

    #[test]
    fn tpch_static_measures() {
        let (f, _) = tpch_flow();
        let v = evaluate_static(&f);
        assert_eq!(v.get(MeasureId::OpCount), Some(f.op_count() as f64));
        assert_eq!(v.get(MeasureId::MergeCount), Some(1.0));
        assert!(v.get(MeasureId::LongestPath).unwrap() >= 8.0);
        assert!(v.get(MeasureId::Coupling).unwrap() > 0.0);
    }

    #[test]
    fn purchases_has_two_merges() {
        let (f, _) = purchases_flow();
        let v = evaluate_static(&f);
        assert_eq!(v.get(MeasureId::MergeCount), Some(2.0));
    }

    #[test]
    fn adding_an_op_changes_measures() {
        let (f, ids) = purchases_flow();
        let base = evaluate_static(&f);
        let mut g = f.fork("bigger");
        // interpose a checkpoint after the expensive derive
        let e = g.graph.out_edges(ids.derive_values).next().unwrap();
        g.graph
            .interpose_on_edge(
                e,
                etl_model::Operation::new("SAVE", OpKind::Checkpoint { tag: "sp".into() }),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        let v = evaluate_static(&g);
        assert_eq!(
            v.get(MeasureId::OpCount).unwrap(),
            base.get(MeasureId::OpCount).unwrap() + 1.0
        );
        assert!(v.get(MeasureId::LongestPath).unwrap() > base.get(MeasureId::LongestPath).unwrap());
    }
}
