//! DEMO-SCALE — verifies the §4 claim: demo flows with "tens of operators,
//! extracting data from multiple sources", whose automatic FCP addition "in
//! different positions and combinations … will result in thousands of
//! alternative ETL flows".

use bench::{planner_for, tpcds_setup, tpch_setup};
use fcp::DeploymentPolicy;
use poiesis::PlannerConfig;

fn main() {
    println!("DEMO-SCALE — alternatives generated from the two demo flows\n");
    let mut rows = Vec::new();
    for (name, (flow, catalog)) in [("tpch", tpch_setup(300)), ("tpcds", tpcds_setup(300))] {
        let ops = flow.op_count();
        let sources = flow.ops_of_kind("extract").len();
        let planner = planner_for(
            flow,
            catalog,
            PlannerConfig {
                policy: DeploymentPolicy {
                    top_k_points_per_pattern: usize::MAX,
                    min_fitness: 0.0,
                    max_patterns_per_flow: 2,
                    max_per_pattern: 2,
                    ..DeploymentPolicy::balanced()
                },
                max_alternatives: 100_000,
                workers: 8,
                ..PlannerConfig::default()
            },
        );
        let out = planner.plan().expect("planning succeeds");
        rows.push(vec![
            name.to_string(),
            ops.to_string(),
            sources.to_string(),
            out.candidates.len().to_string(),
            format!("{:.0}", out.stats.theoretical),
            out.alternatives.len().to_string(),
            out.skyline.len().to_string(),
        ]);
        assert!(ops >= 20, "{name} must have tens of operators");
        assert!(sources >= 3, "{name} must extract from multiple sources");
        assert!(
            out.alternatives.len() >= 1_000,
            "{name} must yield thousands of alternatives (got {})",
            out.alternatives.len()
        );
    }
    print!(
        "{}",
        viz::render_table(
            &[
                "flow",
                "#ops",
                "#sources",
                "candidates",
                "theoretical space",
                "alternatives",
                "skyline",
            ],
            &rows
        )
    );
    println!("\n(\"thousands of alternative ETL flows\" — §4 claim reproduced)");
}
