//! Simulator invariants under random workload parameters: timing
//! monotonicity, row conservation, estimator/simulator directional
//! agreement, and failure rates that move only the expected redo.

use datagen::fig2::{purchases_catalog, purchases_flow};
use datagen::DirtProfile;
use proptest::prelude::*;
use simulator::simulate;

fn dirt(null_rate: f64, dup_rate: f64, stale: f64) -> DirtProfile {
    DirtProfile {
        null_rate,
        dup_rate,
        corrupt_rate: 0.0,
        staleness_hours: stale,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// More input rows never make the flow faster.
    #[test]
    fn cycle_time_monotone_in_scale(base in 50usize..150) {
        let (flow, _) = purchases_flow();
        let small = purchases_catalog(base, &DirtProfile::clean(), 3);
        let large = purchases_catalog(base * 4, &DirtProfile::clean(), 3);
        let t_small = simulate(&flow, &small).unwrap();
        let t_large = simulate(&flow, &large).unwrap();
        prop_assert!(t_large.cycle_time_ms > t_small.cycle_time_ms);
        prop_assert!(t_large.rows_loaded() >= t_small.rows_loaded());
    }

    /// Loads can never exceed what the sources provided (the purchases flow
    /// contains no row-multiplying operator).
    #[test]
    fn loads_bounded_by_extracts(scale in 50usize..200, nr in 0.0f64..0.3, dr in 0.0f64..0.3) {
        let (flow, _) = purchases_flow();
        let catalog = purchases_catalog(scale, &dirt(nr, dr, 1.0), 7);
        let trace = simulate(&flow, &catalog).unwrap();
        let extracted: usize = trace
            .ops
            .iter()
            .filter(|o| o.kind == "extract")
            .map(|o| o.rows_out)
            .sum();
        prop_assert!(trace.rows_loaded() <= extracted);
        // and each op's trace is time-consistent
        for op in &trace.ops {
            prop_assert!(op.end_ms >= op.start_ms, "{} ends before it starts", op.name);
        }
    }

    /// Dirtier sources never yield *better* estimated data quality.
    #[test]
    fn estimator_dq_monotone_in_dirt(nr in 0.05f64..0.3) {
        let (flow, _) = purchases_flow();
        let clean_cat = purchases_catalog(120, &DirtProfile::clean(), 5);
        let dirty_cat = purchases_catalog(120, &dirt(nr, 0.1, 1.0), 5);
        let clean = quality::estimate(&flow, &quality::source_stats(&clean_cat));
        let dirty = quality::estimate(&flow, &quality::source_stats(&dirty_cat));
        let m = quality::MeasureId::Completeness;
        prop_assert!(dirty.get(m).unwrap() <= clean.get(m).unwrap() + 1e-9);
        let u = quality::MeasureId::Uniqueness;
        prop_assert!(dirty.get(u).unwrap() <= clean.get(u).unwrap() + 1e-9);
    }

    /// A failure rate only adds expected redo: the loaded rows and the
    /// cycle time stay bit-equal to the run without one. Rates above 1
    /// clamp to a certain failure.
    #[test]
    fn failure_rates_add_expected_redo_not_rows(rate in 0.0f64..2.0) {
        let (mut flow, ids) = purchases_flow();
        let catalog = purchases_catalog(100, &DirtProfile::clean(), 2);
        let steady = simulate(&flow, &catalog).unwrap();
        flow.op_mut(ids.derive_values).unwrap().cost.failure_rate = rate;
        let fragile = simulate(&flow, &catalog).unwrap();
        prop_assert_eq!(fragile.cycle_time_ms.to_bits(), steady.cycle_time_ms.to_bits());
        prop_assert_eq!(fragile.loads.len(), steady.loads.len());
        // `{:?}` writes every float exactly, so equal text is equal bits.
        for (f, s) in fragile.loads.iter().zip(&steady.loads) {
            prop_assert_eq!(format!("{:?}", f.rows), format!("{:?}", s.rows));
        }
        prop_assert!(fragile.expected_redo_ms >= steady.expected_redo_ms);
    }
}
