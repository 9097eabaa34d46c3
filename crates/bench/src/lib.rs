//! `bench` — the experiment harness.
//!
//! One binary per paper artefact, plus the scenario sweep, the CLI and the
//! HTTP load generator. Every figure binary prints the rows/series the
//! paper reports, regenerated from this reproduction, and asserts the
//! claim it reproduces. Planning throughput is measured by the separate
//! `perfbench` crate, the benchmark of record.
//!
//! | binary | artefact |
//! |---|---|
//! | `fig1_measures` | Fig. 1 example quality measures table |
//! | `fig2_fcp` | Fig. 2 performance/reliability FCP generation |
//! | `fig3_pipeline` | Fig. 3 pipeline + estimator-vs-simulator ablation |
//! | `fig4_scatter` | Fig. 4 skyline scatter-plot |
//! | `fig5_relative` | Fig. 5 relative-change bars with drill-down |
//! | `fig6_palette` | Fig. 6 palette applicability/effect table |
//! | `demo_scale` | §4 "thousands of alternative flows" claim |
//! | `complexity_sweep` | §2.2 factorial-complexity claim |
//! | `concurrency_sweep` | §3 concurrent background evaluation claim |
//! | `baseline_manual` | §1 manual-redesign comparison |
//! | `server_load` | HTTP service throughput + latency percentiles (`docs/API.md`) |
//! | `bench_scenarios` | scenario corpus × strategy sweep with golden-frontier gate (`docs/SCENARIOS.md`) |

#![forbid(unsafe_code)]

use datagen::{Catalog, DirtProfile};
use etl_model::EtlFlow;
use fcp::PatternRegistry;
use poiesis::{Planner, PlannerConfig};

/// Default deterministic seed shared by all experiments.
pub const SEED: u64 = 0x9E37;

/// The TPC-H demo workload at a given scale (base lineitem rows).
pub fn tpch_setup(scale: usize) -> (EtlFlow, Catalog) {
    let (flow, _) = datagen::tpch::tpch_flow();
    let catalog = datagen::tpch::tpch_catalog(scale, &DirtProfile::demo(), SEED);
    (flow, catalog)
}

/// The TPC-DS demo workload at a given scale (store_sales rows).
pub fn tpcds_setup(scale: usize) -> (EtlFlow, Catalog) {
    let (flow, _) = datagen::tpcds::tpcds_flow();
    let catalog = datagen::tpcds::tpcds_catalog(scale, &DirtProfile::demo(), SEED);
    (flow, catalog)
}

/// The Fig. 2 purchases sub-flow workload.
pub fn purchases_setup(scale: usize) -> (EtlFlow, Catalog) {
    let (flow, _) = datagen::fig2::purchases_flow();
    let catalog = datagen::fig2::purchases_catalog(scale, &DirtProfile::demo(), SEED);
    (flow, catalog)
}

/// Builds a planner with the standard palette over a workload.
pub fn planner_for(flow: EtlFlow, catalog: Catalog, config: PlannerConfig) -> Planner {
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    Planner::new(flow, catalog, registry, config)
}

/// Formats a float with sensible precision for table cells.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1_000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_produce_valid_workloads() {
        let (f, c) = tpch_setup(100);
        f.validate().unwrap();
        assert!(!c.is_empty());
        let (f, c) = tpcds_setup(100);
        f.validate().unwrap();
        assert!(!c.is_empty());
        let (f, _) = purchases_setup(100);
        f.validate().unwrap();
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(3.25159), "3.25");
        assert_eq!(fmt(0.12345), "0.1235");
    }
}
