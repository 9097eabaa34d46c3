//! FIG6 — regenerates the paper's Fig. 6: the palette of available FCPs with
//! their related quality attribute, extended with the measured effect of each
//! pattern's best placement on both demo flows.

use bench::{purchases_setup, tpcds_setup, tpch_setup};
use fcp::{PatternContext, PatternRegistry};
use quality::{Characteristic, MeasureId};
use simulator::simulate;

/// The headline measure a pattern is judged by: the specific metric its
/// defect class targets, falling back to its characteristic's flagship.
fn headline(pattern: &str, c: Characteristic) -> MeasureId {
    match pattern {
        "RemoveDuplicateEntries" => MeasureId::Uniqueness,
        "CrosscheckSources" => MeasureId::Accuracy,
        "FilterNullValues" => MeasureId::Completeness,
        "IncreaseRecurrence" => MeasureId::FreshnessScore,
        _ => match c {
            Characteristic::Performance => MeasureId::CycleTimeMs,
            Characteristic::DataQuality => MeasureId::Completeness,
            Characteristic::Reliability => MeasureId::Recoverability,
            Characteristic::Manageability => MeasureId::LongestPath,
            Characteristic::Cost => MeasureId::MonetaryCost,
            Characteristic::Security => MeasureId::SecurityScore,
        },
    }
}

fn main() {
    println!("FIG6 — available FCPs and their related quality attribute\n");
    let mut rows = Vec::new();
    for (workload, (mut flow, catalog)) in [
        ("tpch", tpch_setup(3_000)),
        ("tpcds", tpcds_setup(3_000)),
        ("purchases", purchases_setup(3_000)),
    ] {
        // give reliability something to protect
        for n in flow.ops_of_kind("derive") {
            flow.op_mut(n).unwrap().cost.failure_rate = 0.05;
        }
        let registry = PatternRegistry::standard_for_catalog(&catalog);
        let base_trace = simulate(&flow, &catalog).unwrap();
        let base = quality::evaluate(&flow, &base_trace);

        for pattern in registry.iter() {
            let ctx = PatternContext::new(&flow).unwrap();
            let points = pattern.candidate_points(&ctx);
            let best = points
                .iter()
                .max_by(|a, b| {
                    pattern
                        .fitness(&ctx, **a)
                        .total_cmp(&pattern.fitness(&ctx, **b))
                })
                .copied();
            drop(ctx);
            let (applied, delta) = match best {
                None => ("no valid point".to_string(), "-".to_string()),
                Some(p) => {
                    let mut g = flow.fork("probe");
                    match pattern.apply(&mut g, p) {
                        Err(e) => (format!("apply failed: {e}"), "-".to_string()),
                        Ok(_) => {
                            let v = quality::evaluate(&g, &simulate(&g, &catalog).unwrap());
                            let m = headline(pattern.name(), pattern.improves());
                            let d = match (base.get(m), v.get(m)) {
                                (Some(b), Some(x)) => {
                                    let pct = if m.higher_is_better() {
                                        (x - b) / b.abs().max(1e-9) * 100.0
                                    } else {
                                        (b - x) / b.abs().max(1e-9) * 100.0
                                    };
                                    format!("{pct:+.1}% {}", m.name())
                                }
                                _ => "-".to_string(),
                            };
                            (format!("{} pts", points.len()), d)
                        }
                    }
                }
            };
            rows.push(vec![
                workload.to_string(),
                pattern.name().to_string(),
                pattern.improves().name().to_string(),
                applied,
                delta,
            ]);
        }
    }
    print!(
        "{}",
        viz::render_table(
            &[
                "workload",
                "FCP",
                "related quality attribute",
                "valid points",
                "best-placement effect"
            ],
            &rows
        )
    );

    // the paper's five palette rows must all be applicable on both workloads
    for name in [
        "RemoveDuplicateEntries",
        "FilterNullValues",
        "CrosscheckSources",
        "ParallelizeTask",
        "AddCheckpoint",
    ] {
        for workload in ["tpch", "tpcds", "purchases"] {
            let row = rows
                .iter()
                .find(|r| r[0] == workload && r[1] == name)
                .unwrap();
            assert!(
                row[3].ends_with("pts"),
                "{name} found no valid point on {workload}: {row:?}"
            );
        }
    }
}
