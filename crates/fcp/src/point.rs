//! Application points: where an FCP can be deployed.

use etl_model::{EdgeId, EtlFlow, NodeId};
use std::fmt;

/// A place where a Flow Component Pattern can be applied (§2.2: "either a
/// node (i.e., an ETL flow operation), or an edge or the entire ETL flow
/// graph").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ApplicationPoint {
    /// A node point: the pattern replaces/augments one operation.
    Node(NodeId),
    /// An edge point: the pattern is interposed between two consecutive
    /// operations.
    Edge(EdgeId),
    /// The entire graph: process-wide configuration.
    Graph,
}

impl ApplicationPoint {
    /// True when the point still exists in the flow (combination
    /// application can invalidate node points).
    pub fn is_live(&self, flow: &EtlFlow) -> bool {
        match self {
            ApplicationPoint::Node(n) => flow.graph.contains_node(*n),
            ApplicationPoint::Edge(e) => flow.graph.contains_edge(*e),
            ApplicationPoint::Graph => true,
        }
    }

    /// Human-readable description against a flow.
    pub fn describe(&self, flow: &EtlFlow) -> String {
        match self {
            ApplicationPoint::Node(n) => match flow.op(*n) {
                Some(op) => format!("node {n} ({})", op.name()),
                None => format!("node {n} (removed)"),
            },
            ApplicationPoint::Edge(e) => match flow.graph.endpoints(*e) {
                Some((s, d)) => {
                    let sn = flow.op(s).map(|o| o.name()).unwrap_or("?");
                    let dn = flow.op(d).map(|o| o.name()).unwrap_or("?");
                    format!("edge {e} ({sn} → {dn})")
                }
                None => format!("edge {e} (removed)"),
            },
            ApplicationPoint::Graph => "entire graph".to_string(),
        }
    }
}

impl fmt::Display for ApplicationPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplicationPoint::Node(n) => write!(f, "@{n}"),
            ApplicationPoint::Edge(e) => write!(f, "@{e}"),
            ApplicationPoint::Graph => write!(f, "@graph"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etl_model::expr::Expr;
    use etl_model::{Attribute, DataType, Operation, Schema};

    fn flow() -> (EtlFlow, NodeId, EdgeId) {
        let mut f = EtlFlow::new("t");
        let schema = Schema::new(vec![Attribute::required("id", DataType::Int)]);
        let a = f.add_op(Operation::extract("s", schema));
        let b = f.add_op(Operation::filter("f", Expr::col("id").gt(Expr::lit_i(0))));
        let c = f.add_op(Operation::load("t"));
        let e = f.connect(a, b).unwrap();
        f.connect(b, c).unwrap();
        (f, b, e)
    }

    #[test]
    fn liveness() {
        let (mut f, n, e) = flow();
        assert!(ApplicationPoint::Node(n).is_live(&f));
        assert!(ApplicationPoint::Edge(e).is_live(&f));
        assert!(ApplicationPoint::Graph.is_live(&f));
        f.graph.remove_node(n);
        assert!(!ApplicationPoint::Node(n).is_live(&f));
        assert!(!ApplicationPoint::Edge(e).is_live(&f));
    }

    #[test]
    fn descriptions() {
        let (f, n, e) = flow();
        assert!(ApplicationPoint::Node(n).describe(&f).contains("f"));
        let d = ApplicationPoint::Edge(e).describe(&f);
        assert!(d.contains("EXTRACT s") && d.contains('→'));
        assert_eq!(ApplicationPoint::Graph.describe(&f), "entire graph");
    }
}
