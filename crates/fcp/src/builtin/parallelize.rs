//! `ParallelizeTask` — the performance FCP of Fig. 6 and Fig. 2a: replaces a
//! computationally intensive operation with `HORIZONTAL PARTITION → k
//! replicas → MERGE`, so the replicas process disjoint row subsets in
//! parallel branches.

use crate::pattern::{AppliedPattern, Pattern, PatternContext, PatternError};
use crate::point::ApplicationPoint;
use crate::prereq::Prerequisite;
use etl_model::{Channel, EtlFlow, OpKind, Operation};
use flowgraph::DiGraph;
use quality::Characteristic;
use std::sync::Arc;

/// Operator kinds that can be replaced by row-partitioned replicas without
/// changing semantics (stateless per-tuple operators, plus dedup/sort whose
/// global guarantees the trailing merge intentionally relaxes are excluded).
const PARALLELIZABLE: &[&str] = &["derive", "filter", "convert", "filter_nulls", "crosscheck"];

/// The `ParallelizeTask` pattern. `ways` is the replica count (Fig. 2a shows
/// two-way partitioning).
#[derive(Debug, Clone)]
pub struct ParallelizeTask {
    ways: usize,
    min_cost_ms: f64,
}

impl Default for ParallelizeTask {
    fn default() -> Self {
        ParallelizeTask {
            ways: 2,
            min_cost_ms: 0.005,
        }
    }
}

impl ParallelizeTask {
    /// Replica count.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

const NAME: &str = "ParallelizeTask";

impl Pattern for ParallelizeTask {
    fn name(&self) -> &str {
        NAME
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }

    fn improves(&self) -> Characteristic {
        Characteristic::Performance
    }

    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![
            Prerequisite::IsNode,
            Prerequisite::NodeKindIn(PARALLELIZABLE.to_vec()),
            Prerequisite::NodeSingleInOut,
            Prerequisite::NodeCostAtLeast(self.min_cost_ms),
            Prerequisite::NotAdjacentToPattern("self".into()),
        ]
    }

    /// "Parallelise the most expensive task first": fitness is the node's
    /// per-tuple cost share of the flow's maximum.
    fn fitness(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> f64 {
        let ApplicationPoint::Node(n) = point else {
            return 0.0;
        };
        match ctx.flow.op(n) {
            Some(op) if ctx.max_cost_per_tuple() > 0.0 => {
                (op.cost.cost_per_tuple_ms / ctx.max_cost_per_tuple()).clamp(0.0, 1.0)
            }
            _ => 0.0,
        }
    }

    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        _schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        let ApplicationPoint::Node(n) = point else {
            return Err(PatternError::NotApplicable {
                pattern: self.name().to_string(),
                point: point.describe(flow),
            });
        };
        let original = flow.op(n).expect("applicable point is live").clone();

        // The pattern's internal representation is itself a small ETL flow:
        // partition → replicas → merge (Fig. 2a), whose operations share
        // one tag.
        let tag: Arc<str> = shared_name!(NAME);
        let mut donor: DiGraph<Operation, Channel> = DiGraph::new();
        let part = donor.add_node(
            Operation::new(shared_name!("HORIZONTAL PARTITION"), OpKind::Partition)
                .tag_pattern(tag.clone()),
        );
        let merge = donor.add_node(
            Operation::new(shared_name!("MERGE"), OpKind::Merge).tag_pattern(tag.clone()),
        );
        for i in 0..self.ways {
            let rep = original
                .clone()
                .renamed(format!("{} #{}", original.name(), i + 1))
                .tag_pattern(tag.clone());
            let r = donor.add_node(rep);
            donor
                .add_edge(part, r, Channel::default())
                .expect("donor wiring");
            donor
                .add_edge(r, merge, Channel::default())
                .expect("donor wiring");
        }

        let (splice, _removed) = flow
            .graph
            .replace_node_with_subgraph(n, &donor)
            .map_err(|e| PatternError::Graph(e.to_string()))?;
        let added = donor
            .node_ids()
            .filter_map(|d| splice.mapped(d))
            .collect::<Vec<_>>();
        Ok(AppliedPattern {
            pattern: self.name().to_string(),
            point,
            added_nodes: added,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use quality::MeasureId;
    use simulator::simulate;

    #[test]
    fn targets_only_expensive_single_in_out_nodes() {
        let (f, ids) = purchases_flow();
        let ctx = PatternContext::new(&f).unwrap();
        let p = ParallelizeTask::default();
        let pts = p.candidate_points(&ctx);
        assert!(pts.contains(&ApplicationPoint::Node(ids.derive_values)));
        // extracts, merges, router, load are not parallelizable targets
        for n in f.ops_of_kind("extract") {
            assert!(!pts.contains(&ApplicationPoint::Node(n)));
        }
        for n in f.ops_of_kind("merge") {
            assert!(!pts.contains(&ApplicationPoint::Node(n)));
        }
    }

    #[test]
    fn fitness_peaks_at_most_expensive_op() {
        let (f, ids) = purchases_flow();
        let ctx = PatternContext::new(&f).unwrap();
        let p = ParallelizeTask::default();
        let fit = p.fitness(&ctx, ApplicationPoint::Node(ids.derive_values));
        assert_eq!(fit, 1.0, "DERIVE VALUES is the costliest op");
    }

    #[test]
    fn apply_reproduces_fig2a_and_speeds_up() {
        let (f, ids) = purchases_flow();
        let cat = purchases_catalog(2_000, &DirtProfile::clean(), 3);
        let base = simulate(&f, &cat).unwrap();

        let mut g = f.fork("parallel");
        let p = ParallelizeTask::default();
        let applied = p
            .apply(&mut g, ApplicationPoint::Node(ids.derive_values))
            .unwrap();
        // partition + 2 replicas + merge
        assert_eq!(applied.added_nodes.len(), 4);
        g.validate().unwrap();
        assert_eq!(g.op_count(), f.op_count() + 3);

        let par = simulate(&g, &cat).unwrap();
        assert!(
            par.cycle_time_ms < base.cycle_time_ms,
            "parallelising the hot derive must cut cycle time ({} vs {})",
            par.cycle_time_ms,
            base.cycle_time_ms
        );
        // functionality preserved: same rows loaded
        assert_eq!(par.rows_loaded(), base.rows_loaded());

        // and manageability pays: more ops, longer path
        let vb = quality::evaluate_static(&f);
        let va = quality::evaluate_static(&g);
        assert!(va.get(MeasureId::OpCount).unwrap() > vb.get(MeasureId::OpCount).unwrap());
        assert!(va.get(MeasureId::MergeCount).unwrap() > vb.get(MeasureId::MergeCount).unwrap());
    }

    #[test]
    fn four_way_fanout() {
        let (f, ids) = purchases_flow();
        let mut g = f.fork("p4");
        let p = ParallelizeTask {
            ways: 4,
            ..Default::default()
        };
        let applied = p
            .apply(&mut g, ApplicationPoint::Node(ids.derive_values))
            .unwrap();
        assert_eq!(applied.added_nodes.len(), 6);
        g.validate().unwrap();
    }

    #[test]
    fn replicas_are_not_reparallelizable() {
        let (f, ids) = purchases_flow();
        let mut g = f.fork("p");
        let p = ParallelizeTask::default();
        p.apply(&mut g, ApplicationPoint::Node(ids.derive_values))
            .unwrap();
        let ctx = PatternContext::new(&g).unwrap();
        let pts = p.candidate_points(&ctx);
        // no replica may be picked again
        for pt in &pts {
            if let ApplicationPoint::Node(n) = pt {
                assert!(g.op(*n).unwrap().from_pattern().is_none());
            }
        }
    }

    #[test]
    fn apply_on_dead_node_fails_cleanly() {
        let (f, ids) = purchases_flow();
        let mut g = f.fork("p");
        let p = ParallelizeTask::default();
        p.apply(&mut g, ApplicationPoint::Node(ids.derive_values))
            .unwrap();
        // the original node is gone; a second apply at the same point errors
        let err = p
            .apply(&mut g, ApplicationPoint::Node(ids.derive_values))
            .unwrap_err();
        assert!(matches!(err, PatternError::NotApplicable { .. }));
    }
}
