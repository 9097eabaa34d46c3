//! FIG1 — regenerates the paper's Fig. 1: "Example quality measures for ETL
//! processes", with the measured values for the TPC-H demo flow filled in.

use bench::{fmt, tpch_setup};
use quality::{Characteristic, MeasureVector};
use simulator::simulate;

fn main() {
    let (flow, catalog) = tpch_setup(2_000);
    let trace = simulate(&flow, &catalog).expect("demo flow simulates");
    let v: MeasureVector = quality::evaluate(&flow, &trace);

    println!("FIG1 — example quality measures (TPC-H demo flow, scale 2000)\n");
    let rows: Vec<Vec<String>> = quality::MeasureId::ALL
        .iter()
        .filter_map(|&id| {
            let val = v.get(id)?;
            Some(vec![
                id.characteristic().name().to_string(),
                id.name().to_string(),
                fmt(val),
                if id.higher_is_better() { "↑" } else { "↓" }.to_string(),
            ])
        })
        .collect();
    print!(
        "{}",
        viz::render_table(&["characteristic", "measure", "value", "better"], &rows)
    );

    // the two paper-exact rows, called out explicitly
    println!("\nPaper Fig. 1 rows:");
    println!(
        "  performance: process cycle time             = {} ms",
        fmt(v.get(quality::MeasureId::CycleTimeMs).unwrap())
    );
    println!(
        "  performance: average latency per tuple      = {} ms",
        fmt(v.get(quality::MeasureId::AvgLatencyMs).unwrap())
    );
    println!(
        "  data quality: request time - last update    = {} s",
        fmt(v.get(quality::MeasureId::FreshnessAgeS).unwrap())
    );
    println!(
        "  data quality: 1/(1 - age * update frequency) = {}",
        fmt(v.get(quality::MeasureId::FreshnessScore).unwrap())
    );
    println!(
        "  manageability: longest path / coupling / #merge = {} / {} / {}",
        fmt(v.get(quality::MeasureId::LongestPath).unwrap()),
        fmt(v.get(quality::MeasureId::Coupling).unwrap()),
        fmt(v.get(quality::MeasureId::MergeCount).unwrap()),
    );

    // sanity: every characteristic is represented
    for c in Characteristic::ALL {
        assert!(
            v.of_characteristic(c).count() > 0,
            "characteristic {c} has no measures"
        );
    }
}
