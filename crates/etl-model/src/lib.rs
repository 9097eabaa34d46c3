//! `etl-model` — the ETL process model underneath POIESIS.
//!
//! The paper (§2.2, §3) models an ETL process as a directed acyclic graph
//! whose nodes are *ETL flow operations* and whose edges are transitions
//! between consecutive operations. This crate provides:
//!
//! * a typed **operator taxonomy** ([`OpKind`]) covering the operations the
//!   paper's figures use (EXTRACT, FILTER, SPLIT, DERIVE VALUES, HORIZONTAL
//!   PARTITION, MERGE, PERSIST/savepoint, …) plus the usual ETL staples
//!   (join, aggregate, sort, dedup, crosscheck) following the taxonomy of
//!   Vassiliadis et al. the paper builds on;
//! * **schemata** ([`Schema`], [`Attribute`], [`DataType`]) with per-operator
//!   propagation rules, so applying a Flow Component Pattern can *ensure the
//!   consistency between data schemata* (§3) of the reconfigured flow;
//! * a small **expression language** ([`expr::Expr`]) used by predicates and
//!   derived columns — the simulator evaluates these against real tuples;
//! * the runtime **cost model** ([`CostModel`]): service time, per-tuple
//!   latency and redo span of each operation, which the analytic estimator
//!   and the simulator both time flows with;
//! * the [`EtlFlow`] type: a validated flow graph with process-wide
//!   configuration (the *entire graph* application point of §2.2), and a
//!   builder API for constructing flows programmatically.
//!
//! # Example
//!
//! ```
//! use etl_model::{EtlFlow, Operation, Schema, Attribute, DataType};
//! use etl_model::expr::Expr;
//!
//! let schema = Schema::new(vec![
//!     Attribute::new("id", DataType::Int),
//!     Attribute::new("amount", DataType::Float),
//! ]);
//! let mut flow = EtlFlow::new("quickstart");
//! let ext = flow.add_op(Operation::extract("src_orders", schema));
//! let fil = flow.add_op(Operation::filter(
//!     "only_positive",
//!     Expr::col("amount").gt(Expr::lit_f(0.0)),
//! ));
//! let load = flow.add_op(Operation::load("dw_orders"));
//! flow.connect(ext, fil).unwrap();
//! flow.connect(fil, load).unwrap();
//! flow.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost;
pub mod expr;
mod flow;
mod op;
mod propagate;
mod types;
mod value;

pub use cost::CostModel;
pub use flow::{Channel, DegreeViolation, EtlFlow, FlowConfig, FlowError, ResourceClass};
pub use op::{AggFunc, CostParams, OpKind, Operation};
pub use propagate::{
    column_sources, propagate_schemas, repair_table, ColumnRef, ColumnSource, SchemaError,
    SchemaTable,
};
pub use types::{Attribute, DataType, Schema};
pub use value::{row_key, Tuple, Value};

/// Convenient re-exports of the graph handles used throughout the stack.
pub use flowgraph::{refresh_slots, CowDelta, EdgeId, NodeId};
