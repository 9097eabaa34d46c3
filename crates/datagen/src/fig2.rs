//! Reconstruction of the paper's Fig. 2 S_Purchases sub-flow: the running
//! example on which the two FCP generations are illustrated — horizontal
//! partitioning + parallel derive for performance (Fig. 2a) and savepoints
//! for reliability (Fig. 2b).

use crate::catalog::Catalog;
use crate::dirt::DirtProfile;
use crate::gen::TableSpec;
use etl_model::expr::Expr;
use etl_model::{Attribute, DataType, EtlFlow, NodeId, OpKind, Operation, Schema};

/// Schema shared by the two purchases sources (S_Purchases_3/S_Purchases_4).
pub fn purchases_schema() -> Schema {
    Schema::new(vec![
        Attribute::required("pu_id", DataType::Int),
        Attribute::new("purchase_line_item_id", DataType::Int),
        Attribute::new("item_id", DataType::Int),
        Attribute::new("item_record_end_date", DataType::Timestamp),
        Attribute::new("store_record_end_date", DataType::Timestamp),
        Attribute::new("amount", DataType::Float),
        Attribute::new("qty", DataType::Int),
    ])
}

/// Handles to the Fig. 2 flow's noteworthy operations.
#[derive(Debug, Clone, Copy)]
pub struct PurchasesFlowIds {
    /// The computationally intensive "DERIVE VALUES" node — the target the
    /// paper parallelises in Fig. 2a and guards with savepoints in Fig. 2b.
    pub derive_values: NodeId,
    /// The filter from the figure.
    pub filter: NodeId,
    /// The final merge of the Group_A/Group_B branches.
    pub merge_groups: NodeId,
}

/// Builds the Fig. 2 purchases sub-flow (11 operators).
///
/// `S_Purchases_3 ∪ S_Purchases_4 → FILTER (current records) → SPLIT
/// required attributes (projection) → DERIVE VALUES (expensive) →
/// route Group_A/Group_B → derive per group → MERGE → load`.
pub fn purchases_flow() -> (EtlFlow, PurchasesFlowIds) {
    let mut f = EtlFlow::new("s_purchases");
    let ext3 = f.add_op(Operation::extract("s_purchases_3", purchases_schema()));
    let ext4 = f.add_op(Operation::extract("s_purchases_4", purchases_schema()));
    let union = f.add_op(Operation::new("MERGE purchase sources", OpKind::Merge));
    let filter = f.add_op(
        Operation::filter(
            "FILTER current records",
            Expr::col("purchase_line_item_id")
                .eq(Expr::col("item_id"))
                .or(Expr::col("item_record_end_date")
                    .is_null()
                    .and(Expr::col("store_record_end_date").is_null())),
        )
        .with_selectivity(0.65),
    );
    let project = f.add_op(Operation::project(
        "SPLIT required attributes",
        vec![
            "pu_id".into(),
            "item_id".into(),
            "amount".into(),
            "qty".into(),
        ],
    ));
    let derive = f.add_op(
        Operation::derive(
            "DERIVE VALUES",
            vec![(
                "derived_value".to_string(),
                Expr::col("amount").mul(Expr::col("qty")),
            )],
        )
        // "computational-intensive task" per the paper
        .with_cost(0.080),
    );
    let router = f.add_op(Operation::new(
        "ROUTE purchase groups",
        OpKind::Router {
            predicate: Expr::col("qty").gt(Expr::lit_i(25)),
        },
    ));
    let d_a = f.add_op(Operation::derive(
        "DERIVE VALUES for Group_A",
        vec![(
            "group_value".to_string(),
            Expr::col("derived_value").mul(Expr::lit_f(1.1)),
        )],
    ));
    let d_b = f.add_op(Operation::derive(
        "DERIVE VALUES for Group_B",
        vec![(
            "group_value".to_string(),
            Expr::col("derived_value").mul(Expr::lit_f(0.9)),
        )],
    ));
    let merge = f.add_op(Operation::new("MERGE", OpKind::Merge));
    let load = f.add_op(Operation::load("dw_purchases"));

    f.connect(ext3, union).unwrap();
    f.connect(ext4, union).unwrap();
    f.connect(union, filter).unwrap();
    f.connect(filter, project).unwrap();
    f.connect(project, derive).unwrap();
    f.connect(derive, router).unwrap();
    f.connect_labelled(router, d_a, "Group_A").unwrap();
    f.connect_labelled(router, d_b, "Group_B").unwrap();
    f.connect(d_a, merge).unwrap();
    f.connect(d_b, merge).unwrap();
    f.connect(merge, load).unwrap();

    (
        f,
        PurchasesFlowIds {
            derive_values: derive,
            filter,
            merge_groups: merge,
        },
    )
}

/// Catalog for the purchases flow: both sources plus reference twins.
pub fn purchases_catalog(scale: usize, dirt: &DirtProfile, seed: u64) -> Catalog {
    let mut c = Catalog::new();
    c.add_generated(
        &TableSpec::new("s_purchases_3", purchases_schema(), scale, "pu_id"),
        dirt,
        seed,
    );
    c.add_generated(
        &TableSpec::new("s_purchases_4", purchases_schema(), scale, "pu_id"),
        dirt,
        seed.wrapping_add(1),
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_validates() {
        let (f, _) = purchases_flow();
        f.validate().unwrap();
    }

    #[test]
    fn has_the_figure_shape() {
        let (f, ids) = purchasesflow_shape();
        assert_eq!(f.op_count(), 11);
        assert_eq!(f.ops_of_kind("extract").len(), 2);
        assert_eq!(f.ops_of_kind("merge").len(), 2);
        assert_eq!(f.op(ids.derive_values).unwrap().name(), "DERIVE VALUES");
        // the derive is the most expensive op
        let max_cost = f
            .graph
            .nodes()
            .map(|(_, op)| op.cost.cost_per_tuple_ms)
            .fold(0.0f64, f64::max);
        assert_eq!(
            f.op(ids.derive_values).unwrap().cost.cost_per_tuple_ms,
            max_cost
        );
    }

    fn purchasesflow_shape() -> (EtlFlow, PurchasesFlowIds) {
        purchases_flow()
    }

    #[test]
    fn catalog_has_both_sources() {
        let c = purchases_catalog(100, &DirtProfile::demo(), 5);
        assert!(c.table("s_purchases_3").is_some());
        assert!(c.table("s_purchases_4").is_some());
        assert_eq!(c.len(), 4);
    }
}
