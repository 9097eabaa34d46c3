//! `datagen` — workload generation for the POIESIS reproduction.
//!
//! The paper's demo (§4) loads two initial ETL processes "based on the TPC-DS
//! and TPC-H benchmarks … contain\[ing\] tens of operators, extracting data
//! from multiple sources". We do not have the authors' xLM exports, so this
//! crate rebuilds equivalent workloads:
//!
//! * **source catalogs** ([`Catalog`]) with TPC-H- and TPC-DS-shaped tables,
//!   generated synthetically with a seeded RNG and a configurable
//!   [`DirtProfile`] (null rate, duplicate rate, corruption rate, staleness)
//!   so the data-quality FCPs have measurable work to do;
//! * the **demo ETL flows**: [`tpch::tpch_flow`] (~21 operators) and
//!   [`tpcds::tpcds_flow`] (~30 operators), plus [`fig2::purchases_flow`],
//!   a faithful reconstruction of the S_Purchases sub-flow in the paper's
//!   Fig. 2 (FILTER → SPLIT required attributes → DERIVE VALUES →
//!   Group_A/Group_B branches → MERGE);
//! * clean **reference tables** (`ref_<table>`) that the `CrosscheckSources`
//!   pattern consults to repair corrupted or missing values.
//!
//! Every generator is deterministic in its seed, so experiments are
//! reproducible run-to-run.

#![forbid(unsafe_code)]

mod catalog;
mod dirt;
pub mod fig2;
mod gen;
pub mod tpcds;
pub mod tpch;

pub use catalog::{synthesize_catalog, Catalog, Table};
pub use dirt::DirtProfile;
pub use gen::{generate_table, TableSpec, REQUEST_TIME};

/// Marker appended to string values by the corruption injector and detected
/// by the accuracy measure. `CrosscheckSources` repairs values carrying it.
pub const CORRUPT_MARKER: &str = "~ERR";
