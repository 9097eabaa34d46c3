//! `simulator` — a deterministic runtime for ETL flows.
//!
//! POIESIS estimates quality measures of two kinds (Fig. 1 of the paper):
//! ones derived from the static structure of the process model, and ones
//! "obtained from analysis of historical traces capturing the runtime
//! behaviour of ETL components". The authors had a tool execution backend;
//! we substitute a simulator that
//!
//! * **really executes** every operator's data semantics (filters evaluate
//!   predicates, joins hash-match, dedup removes duplicates, crosscheck
//!   repairs values against the clean reference twin, …) over the synthetic
//!   [`datagen::Catalog`], so data-quality measures are computed from actual
//!   loaded tuples, not guessed;
//! * advances a **virtual clock** per operator (startup + per-tuple cost,
//!   scaled by intra-operator parallelism, resource class and encryption
//!   overhead) with pipeline-parallel branches, yielding process cycle time
//!   and per-tuple latency;
//! * sums the **expected recovery time** `Σ failure_rate × redo span`: a
//!   failed operator re-runs the segment back to the nearest upstream
//!   savepoint ([`etl_model::OpKind::Checkpoint`]) or, absent one, back to
//!   the extracts — exactly the behaviour the `AddCheckpoint` FCP (Fig. 2b)
//!   improves. No failure is sampled: one run is one deterministic trace.
//!
//! The clock, latency and redo-span rules are [`etl_model::CostModel`],
//! which the analytic estimator in `quality` shares: the simulator times
//! the rows that really flowed, the estimator the rows it expects.
//!
//! The output is a [`Trace`]: per-operator timing/row records plus the rows
//! that reached every load target, which the `quality` crate turns into the
//! paper's measures.
//!
//! # Example
//!
//! ```
//! use datagen::fig2::{purchases_catalog, purchases_flow};
//! use datagen::DirtProfile;
//! use simulator::simulate;
//!
//! let (flow, _) = purchases_flow();
//! let catalog = purchases_catalog(60, &DirtProfile::demo(), 1);
//! let trace = simulate(&flow, &catalog).unwrap();
//! assert!(trace.rows_loaded() > 0);      // tuples really flowed
//! assert!(trace.cycle_time_ms > 0.0);    // and the virtual clock advanced
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod exec;
mod trace;

pub use engine::{simulate, SimError};
pub use trace::{LoadedData, OpTrace, Trace};
