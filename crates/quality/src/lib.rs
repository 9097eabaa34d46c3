//! `quality` — ETL process quality characteristics and measures.
//!
//! Implements the measure framework of the paper's Fig. 1 (drawn from the
//! authors' DaWaK 2014 catalogue "Quality Measures for ETL Processes"):
//! measures either **derive directly from the static structure of the
//! process model** ([`static_measures`]) or are **obtained from analysis of
//! runtime traces** ([`runtime`]). A third path, the [`estimator`], predicts
//! the runtime measures analytically from the model alone — this is what
//! lets POIESIS score thousands of alternative designs without executing
//! each one. The estimator and the simulator share one cost model
//! ([`etl_model::CostModel`]): the same service-time, latency and redo-span
//! rules, over expected row counts in one and real rows in the other. The
//! data-quality measures of a trace's loads and the statistics of a source
//! table come from one row scan.
//!
//! Measures roll up into **characteristics** (performance, data quality,
//! reliability, manageability, cost). The drill-down the paper demonstrates
//! (clicking a bar expands the composite into its detailed metrics, Fig. 5)
//! maps to [`report::QualityReport`].
//!
//! # Example
//!
//! Simulate a flow, evaluate the full measure vector, and roll a measure
//! up into its characteristic:
//!
//! ```
//! use datagen::fig2::{purchases_catalog, purchases_flow};
//! use datagen::DirtProfile;
//! use quality::{Characteristic, MeasureId};
//!
//! let (flow, _) = purchases_flow();
//! let catalog = purchases_catalog(60, &DirtProfile::demo(), 1);
//! let trace = simulator::simulate(&flow, &catalog).unwrap();
//!
//! let v = quality::evaluate(&flow, &trace);
//! assert!(v.get(MeasureId::CycleTimeMs).unwrap() > 0.0);
//! assert_eq!(
//!     MeasureId::CycleTimeMs.characteristic(),
//!     Characteristic::Performance,
//! );
//! // stable snake_case keys are the wire/CLI vocabulary
//! assert_eq!(MeasureId::from_key("cycle_time_ms"), Some(MeasureId::CycleTimeMs));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bound;
pub mod estimator;
mod measure;
pub mod report;
pub mod runtime;
pub mod static_measures;

pub use bound::GainProfile;
pub use estimator::{
    estimate, estimate_baseline, estimate_delta_with, source_stats, EstimateBaseline, SourceStats,
};
pub use measure::{Characteristic, MeasureId, MeasureVector, RATIO_CLAMP_MAX, RATIO_CLAMP_MIN};
pub use report::{relative_change, QualityReport, RelativeChange};
pub use runtime::evaluate_trace;
pub use static_measures::evaluate_static;

use etl_model::EtlFlow;
use simulator::Trace;

/// Full evaluation: static + runtime measures in one vector.
///
/// This is the measure set the planner attaches to a simulated alternative;
/// for estimate-only scoring see [`estimate`].
pub fn evaluate(flow: &EtlFlow, trace: &Trace) -> MeasureVector {
    let mut v = evaluate_static(flow);
    runtime::fill_from_trace(&mut v, flow, trace);
    v
}
