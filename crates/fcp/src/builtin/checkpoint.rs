//! `AddCheckpoint` — the reliability FCP of Fig. 6 and Fig. 2b: persists
//! intermediary data as a savepoint so a downstream failure re-extracts from
//! the savepoint instead of re-running the whole upstream segment.

use crate::pattern::{interpose_unchecked, AppliedPattern, Pattern, PatternContext, PatternError};
use crate::point::ApplicationPoint;
use crate::prereq::Prerequisite;
use etl_model::{EtlFlow, OpKind, Operation};
use quality::Characteristic;

/// The `AddCheckpoint` pattern (edge application point).
#[derive(Debug, Default, Clone)]
pub struct AddCheckpoint;

const NAME: &str = "AddCheckpoint";

impl Pattern for AddCheckpoint {
    fn name(&self) -> &str {
        NAME
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }

    fn improves(&self) -> Characteristic {
        Characteristic::Reliability
    }

    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![
            Prerequisite::IsEdge,
            Prerequisite::SchemaNonEmpty,
            Prerequisite::NotAdjacentToPattern("self".into()),
        ]
    }

    /// §3's heuristic verbatim: "the addition of a checkpoint is encouraged
    /// after the execution of the most complex operations of the ETL flow,
    /// in order to avoid the repetition of process-intensive tasks in case
    /// of a recovery". Fitness is the cost share of the operation the edge
    /// leaves — a savepoint directly after the expensive task caps what any
    /// downstream failure has to re-run. (Cumulative upstream cost would be
    /// maximal just before the loads, which protects nothing.)
    fn fitness(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> f64 {
        let ApplicationPoint::Edge(e) = point else {
            return 0.0;
        };
        let Some((src, _)) = ctx.flow.graph.endpoints(e) else {
            return 0.0;
        };
        let Some(op) = ctx.flow.op(src) else {
            return 0.0;
        };
        if ctx.max_cost_per_tuple() <= 0.0 {
            return 0.0;
        }
        (op.cost.cost_per_tuple_ms / ctx.max_cost_per_tuple()).clamp(0.0, 1.0)
    }

    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        _schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        let tag = format!("sp_{}", flow.op_count());
        let op = Operation::new(
            shared_name!("PERSIST intermediary data"),
            OpKind::Checkpoint { tag },
        )
        .tag_pattern(shared_name!(NAME));
        interpose_unchecked(self, flow, point, op)
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
    fn fitness_prefers_post_expensive_edges() {
        let (f, ids) = purchases_flow();
        let ctx = PatternContext::new(&f).unwrap();
        let p = AddCheckpoint;
        // edge right after the expensive DERIVE VALUES
        let after_derive =
            ApplicationPoint::Edge(f.graph.out_edges(ids.derive_values).next().unwrap());
        // edge right after an extract
        let after_extract = ApplicationPoint::Edge(
            f.graph
                .out_edges(f.ops_of_kind("extract")[0])
                .next()
                .unwrap(),
        );
        assert!(p.fitness(&ctx, after_derive) > p.fitness(&ctx, after_extract));
    }

    #[test]
    fn apply_reproduces_fig2b_reliability_gain() {
        let (f, ids) = purchases_flow();
        // make the downstream group-derives fragile, as a failure scenario
        let mut fragile = f.fork("fragile");
        for n in fragile.ops_of_kind("derive") {
            if n != ids.derive_values {
                fragile.op_mut(n).unwrap().cost.failure_rate = 0.2;
            }
        }
        let cat = purchases_catalog(1_000, &DirtProfile::clean(), 3);
        let base_v = quality::evaluate(&fragile, &simulate(&fragile, &cat).unwrap());

        let p = AddCheckpoint;
        let mut g = fragile.fork("with_savepoint");
        // Fig. 2b places the savepoint right after the expensive DERIVE
        // VALUES, upstream of the fragile group-derives.
        let point = ApplicationPoint::Edge(g.graph.out_edges(ids.derive_values).next().unwrap());
        let ctx = PatternContext::new(&g).unwrap();
        assert!(p.applicable(&ctx, point));
        // and the heuristic agrees this is a high-fitness spot
        assert!(p.fitness(&ctx, point) > 0.8);
        drop(ctx);
        let applied = p.apply(&mut g, point).unwrap();
        assert_eq!(applied.added_nodes.len(), 1);
        g.validate().unwrap();

        let v = quality::evaluate(&g, &simulate(&g, &cat).unwrap());
        assert!(
            v.get(MeasureId::ExpectedRedoMs).unwrap()
                < base_v.get(MeasureId::ExpectedRedoMs).unwrap(),
            "savepoint must reduce expected recovery time"
        );
        assert!(
            v.get(MeasureId::Recoverability).unwrap()
                > base_v.get(MeasureId::Recoverability).unwrap()
        );
        // trade-off: the savepoint write costs cycle time
        assert!(
            v.get(MeasureId::CycleTimeMs).unwrap() > base_v.get(MeasureId::CycleTimeMs).unwrap()
        );
    }

    #[test]
    fn best_point_is_after_the_most_expensive_op() {
        let (f, ids) = purchases_flow();
        let p = AddCheckpoint;
        let ctx = PatternContext::new(&f).unwrap();
        let best = *p
            .candidate_points(&ctx)
            .iter()
            .max_by(|a, b| p.fitness(&ctx, **a).total_cmp(&p.fitness(&ctx, **b)))
            .unwrap();
        let ApplicationPoint::Edge(e) = best else {
            panic!("checkpoint points are edges")
        };
        let (src, _) = f.graph.endpoints(e).unwrap();
        // the best edge leaves the flow's most expensive operation — the
        // DERIVE VALUES node of Fig. 2
        assert_eq!(src, ids.derive_values);
        let _ = &ctx;
    }
}
