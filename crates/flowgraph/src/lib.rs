//! `flowgraph` — a small, dependency-light directed graph library purpose-built
//! for modelling ETL process flows and splicing *Flow Component Patterns*
//! (FCPs) into them, as required by the POIESIS planner (EDBT 2015).
//!
//! The paper models an ETL process as a graph `G = (V, E)` where each node is
//! an ETL flow operation and each directed edge a transition between
//! operations. Pattern application needs three structural edits that generic
//! graph crates do not expose directly:
//!
//! * **interpose on an edge** — insert a node between two consecutive
//!   operations (e.g. `FilterNullValues` on an edge);
//! * **replace a node with a sub-graph** — e.g. `ParallelizeTask` replaces an
//!   operation with `partition → k replicas → merge`;
//! * **disjoint merge** — embed one graph into another with stable id
//!   remapping, used when a pattern's internal representation (itself an ETL
//!   flow) is deployed onto the host flow.
//!
//! Nodes and edges live in slab arenas with stable ids: removing an element
//! never invalidates the ids of the remaining ones, which the planner relies
//! on when it enumerates application points once and then applies many
//! alternative combinations against the same base flow.
//!
//! # Example
//!
//! ```
//! use flowgraph::DiGraph;
//!
//! let mut g: DiGraph<&str, ()> = DiGraph::new();
//! let a = g.add_node("extract");
//! let b = g.add_node("load");
//! let e = g.add_edge(a, b, ()).unwrap();
//! // Interpose a cleaning step on the edge.
//! let splice = g.interpose_on_edge(e, "filter", (), ()).unwrap();
//! assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![splice.node]);
//! assert_eq!(g.successors(splice.node).collect::<Vec<_>>(), vec![b]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algo;
mod dot;
mod graph;
mod metrics;
mod splice;

pub use algo::{
    has_cycle, is_dag, longest_path_len, region_is_acyclic, topo_sort, topo_sort_into,
    weakly_connected_components, TopoError,
};
pub use dot::to_dot;
pub use graph::{refresh_slots, CowDelta, DiGraph, EdgeId, EdgeRef, GraphError, NodeId};
pub use metrics::coupling;
pub use splice::{InterposeSplice, SubgraphSplice};
