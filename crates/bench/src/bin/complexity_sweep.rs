//! COMPLEX — verifies the §2.2 claim: "the complexity of this analysis is
//! factorial to the size of the graph". Sweeps synthetic chain flows of
//! growing size and reports how candidates and the combination space grow.

use datagen::DirtProfile;
use etl_model::expr::Expr;
use etl_model::{Attribute, DataType, EtlFlow, Operation, Schema};
use fcp::{DeploymentPolicy, PatternRegistry};
use poiesis::explore::{theoretical_space, CombinationIter};
use poiesis::generate::generate_uncapped;

/// Builds a linear flow with `n` middle operations (filters/derives
/// alternating) between one extract and one load.
fn chain_flow(n: usize) -> (EtlFlow, datagen::Catalog) {
    let schema = Schema::new(vec![
        Attribute::required("id", DataType::Int),
        Attribute::new("v", DataType::Float),
        Attribute::new("w", DataType::Float),
    ]);
    let mut catalog = datagen::Catalog::new();
    catalog.add_generated(
        &datagen::TableSpec::new("src", schema.clone(), 100, "id"),
        &DirtProfile::demo(),
        1,
    );
    let mut f = EtlFlow::new(format!("chain_{n}"));
    let mut prev = f.add_op(Operation::extract("src", schema));
    for i in 0..n {
        let op = if i % 2 == 0 {
            Operation::filter(
                format!("filter_{i}"),
                Expr::col("v").gt(Expr::lit_f(i as f64)),
            )
        } else {
            Operation::derive(
                format!("derive_{i}"),
                vec![(format!("d{i}"), Expr::col("v").mul(Expr::lit_f(1.01)))],
            )
            .with_cost(0.02)
        };
        let id = f.add_op(op);
        f.connect(prev, id).unwrap();
        prev = id;
    }
    let l = f.add_op(Operation::load("dw"));
    f.connect(prev, l).unwrap();
    (f, catalog)
}

fn main() {
    println!("COMPLEX — growth of the alternative space with flow size\n");
    let mut rows = Vec::new();
    let mut prev_depth2 = 0usize;
    for n in [4usize, 8, 12, 16, 24, 32] {
        let (flow, catalog) = chain_flow(n);
        flow.validate().unwrap();
        let registry = PatternRegistry::standard_for_catalog(&catalog);
        let candidates = generate_uncapped(&flow, &registry).unwrap();
        let c = candidates.len();
        let policy2 = DeploymentPolicy::exhaustive(2);
        let combos2 = CombinationIter::new(&candidates, &policy2, usize::MAX).count();
        rows.push(vec![
            (n + 2).to_string(),
            c.to_string(),
            combos2.to_string(),
            format!("{:.2e}", theoretical_space(c, 3)),
            format!("{:.2e}", theoretical_space(c, c.min(20))),
        ]);
        assert!(
            combos2 > prev_depth2,
            "space must grow monotonically with flow size"
        );
        prev_depth2 = combos2;
    }
    print!(
        "{}",
        viz::render_table(
            &[
                "flow size (ops)",
                "valid candidates",
                "alternatives (depth ≤2)",
                "space (depth ≤3)",
                "space (depth ≤20)"
            ],
            &rows
        )
    );
    println!(
        "\nshape: candidates grow linearly with flow size; the combination\n\
         space grows super-polynomially in depth — the \"factorial\" blow-up\n\
         of §2.2 that makes manual exploration infeasible."
    );
}
