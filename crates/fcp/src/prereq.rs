//! Applicability prerequisites — the conjunctive conditions that determine
//! valid application points (§3: "each FCP is related to a particular set of
//! prerequisites that have to be satisfied conjunctively").

use crate::pattern::PatternContext;
use crate::point::ApplicationPoint;

/// One applicability condition. A pattern's prerequisites must *all* hold.
#[derive(Debug, Clone, PartialEq)]
pub enum Prerequisite {
    /// Point must be an edge.
    IsEdge,
    /// Point must be a node.
    IsNode,
    /// Point must be the entire graph.
    IsGraph,
    /// The schema at the point must contain at least one attribute.
    SchemaNonEmpty,
    /// The schema at the point must contain a nullable attribute
    /// (a null-filter has work to do).
    SchemaHasNullable,
    /// The schema at the point must contain a numeric attribute — the
    /// paper's worked example ("numeric fields in the output schema of the
    /// preceding operator").
    SchemaHasNumeric,
    /// The schema must contain a non-nullable attribute usable as a match
    /// key (dedup/crosscheck).
    SchemaHasKeyCandidate,
    /// The schema must contain the named attribute.
    SchemaHasAttr(String),
    /// Node point: the operation's kind must be one of these.
    NodeKindIn(Vec<&'static str>),
    /// Node point: the operation must have exactly one input and output
    /// (replaceable by a partition/replica/merge block).
    NodeSingleInOut,
    /// Node point: per-tuple cost at least this many ms (parallelising a
    /// trivial op is pointless).
    NodeCostAtLeast(f64),
    /// Neither endpoint of the edge (nor the node itself) was inserted by
    /// the named pattern — prevents mindless stacking of the same FCP at
    /// the same spot. The string `"self"` resolves to the probing pattern.
    NotAdjacentToPattern(String),
    /// Graph point: channel encryption not already enabled.
    NotEncrypted,
    /// Graph point: role-based access control not already enabled.
    NoAccessControl,
    /// Graph point: resource class can still be upgraded.
    ResourcesUpgradable,
}

impl Prerequisite {
    /// Evaluates the condition at a point. `pattern_name` resolves the
    /// `"self"` placeholder of [`Prerequisite::NotAdjacentToPattern`].
    pub fn satisfied(
        &self,
        ctx: &PatternContext<'_>,
        point: ApplicationPoint,
        pattern_name: &str,
    ) -> bool {
        use ApplicationPoint as P;
        match self {
            Prerequisite::IsEdge => matches!(point, P::Edge(_)),
            Prerequisite::IsNode => matches!(point, P::Node(_)),
            Prerequisite::IsGraph => matches!(point, P::Graph),
            Prerequisite::SchemaNonEmpty => ctx.point_schema(point).is_some_and(|s| !s.is_empty()),
            Prerequisite::SchemaHasNullable => {
                ctx.point_schema(point).is_some_and(|s| s.has_nullable())
            }
            Prerequisite::SchemaHasNumeric => {
                ctx.point_schema(point).is_some_and(|s| s.has_numeric())
            }
            Prerequisite::SchemaHasKeyCandidate => ctx
                .point_schema(point)
                .is_some_and(|s| s.attrs().iter().any(|a| !a.nullable)),
            Prerequisite::SchemaHasAttr(name) => {
                ctx.point_schema(point).is_some_and(|s| s.contains(name))
            }
            Prerequisite::NodeKindIn(kinds) => match point {
                P::Node(n) => ctx
                    .flow
                    .op(n)
                    .is_some_and(|op| kinds.contains(&op.kind.name())),
                _ => false,
            },
            Prerequisite::NodeSingleInOut => match point {
                P::Node(n) => {
                    ctx.flow.graph.contains_node(n)
                        && ctx.flow.graph.in_degree(n) == 1
                        && ctx.flow.graph.out_degree(n) == 1
                }
                _ => false,
            },
            Prerequisite::NodeCostAtLeast(ms) => match point {
                P::Node(n) => ctx
                    .flow
                    .op(n)
                    .is_some_and(|op| op.cost.cost_per_tuple_ms >= *ms),
                _ => false,
            },
            Prerequisite::NotAdjacentToPattern(name) => {
                let target = if name == "self" { pattern_name } else { name };
                let from = |n: etl_model::NodeId| {
                    ctx.flow
                        .op(n)
                        .and_then(|op| op.from_pattern())
                        .is_some_and(|p| p == target)
                };
                match point {
                    P::Edge(e) => match ctx.flow.graph.endpoints(e) {
                        Some((s, d)) => !from(s) && !from(d),
                        None => false,
                    },
                    P::Node(n) => !from(n),
                    P::Graph => true,
                }
            }
            Prerequisite::NotEncrypted => matches!(point, P::Graph) && !ctx.flow.config.encrypted,
            Prerequisite::NoAccessControl => {
                matches!(point, P::Graph) && !ctx.flow.config.role_based_access
            }
            Prerequisite::ResourcesUpgradable => {
                matches!(point, P::Graph)
                    && ctx.flow.config.resources != etl_model::ResourceClass::Large
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etl_model::expr::Expr;
    use etl_model::{Attribute, DataType, EtlFlow, Operation, Schema};

    fn flow() -> (EtlFlow, etl_model::NodeId, etl_model::EdgeId) {
        let mut f = EtlFlow::new("t");
        let schema = Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("name", DataType::Str),
        ]);
        let a = f.add_op(Operation::extract("s", schema));
        let b = f.add_op(Operation::filter("f", Expr::col("id").gt(Expr::lit_i(0))));
        let c = f.add_op(Operation::load("t"));
        let e = f.connect(a, b).unwrap();
        f.connect(b, c).unwrap();
        (f, b, e)
    }

    #[test]
    fn point_type_prereqs() {
        let (f, n, e) = flow();
        let ctx = PatternContext::new(&f).unwrap();
        assert!(Prerequisite::IsEdge.satisfied(&ctx, ApplicationPoint::Edge(e), "p"));
        assert!(!Prerequisite::IsEdge.satisfied(&ctx, ApplicationPoint::Node(n), "p"));
        assert!(Prerequisite::IsNode.satisfied(&ctx, ApplicationPoint::Node(n), "p"));
        assert!(Prerequisite::IsGraph.satisfied(&ctx, ApplicationPoint::Graph, "p"));
    }

    #[test]
    fn schema_prereqs() {
        let (f, _, e) = flow();
        let ctx = PatternContext::new(&f).unwrap();
        let p = ApplicationPoint::Edge(e);
        assert!(Prerequisite::SchemaNonEmpty.satisfied(&ctx, p, "x"));
        assert!(Prerequisite::SchemaHasNullable.satisfied(&ctx, p, "x"));
        assert!(Prerequisite::SchemaHasNumeric.satisfied(&ctx, p, "x"));
        assert!(Prerequisite::SchemaHasKeyCandidate.satisfied(&ctx, p, "x"));
        assert!(Prerequisite::SchemaHasAttr("name".into()).satisfied(&ctx, p, "x"));
        assert!(!Prerequisite::SchemaHasAttr("ghost".into()).satisfied(&ctx, p, "x"));
        // graph point has no schema
        assert!(!Prerequisite::SchemaNonEmpty.satisfied(&ctx, ApplicationPoint::Graph, "x"));
    }

    #[test]
    fn node_prereqs() {
        let (f, n, _) = flow();
        let ctx = PatternContext::new(&f).unwrap();
        let p = ApplicationPoint::Node(n);
        assert!(Prerequisite::NodeKindIn(vec!["filter"]).satisfied(&ctx, p, "x"));
        assert!(!Prerequisite::NodeKindIn(vec!["derive"]).satisfied(&ctx, p, "x"));
        assert!(Prerequisite::NodeSingleInOut.satisfied(&ctx, p, "x"));
        assert!(Prerequisite::NodeCostAtLeast(0.0005).satisfied(&ctx, p, "x"));
        assert!(!Prerequisite::NodeCostAtLeast(10.0).satisfied(&ctx, p, "x"));
    }

    #[test]
    fn pattern_adjacency_prereq() {
        let (mut f, _, e) = flow();
        let ctx = PatternContext::new(&f).unwrap();
        let p = ApplicationPoint::Edge(e);
        assert!(Prerequisite::NotAdjacentToPattern("self".into()).satisfied(&ctx, p, "Clean"));
        drop(ctx);
        // interpose a node tagged as produced by "Clean"
        f.graph
            .interpose_on_edge(
                e,
                Operation::new("dd", etl_model::OpKind::Dedup { keys: vec![] })
                    .tag_pattern("Clean"),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        let ctx = PatternContext::new(&f).unwrap();
        // e now ends at the pattern-inserted node
        assert!(!Prerequisite::NotAdjacentToPattern("self".into()).satisfied(&ctx, p, "Clean"));
        // a different pattern is unaffected
        assert!(Prerequisite::NotAdjacentToPattern("self".into()).satisfied(&ctx, p, "Other"));
    }

    #[test]
    fn graph_config_prereqs() {
        let (mut f, _, _) = flow();
        {
            let ctx = PatternContext::new(&f).unwrap();
            assert!(Prerequisite::NotEncrypted.satisfied(&ctx, ApplicationPoint::Graph, "x"));
            assert!(Prerequisite::ResourcesUpgradable.satisfied(
                &ctx,
                ApplicationPoint::Graph,
                "x"
            ));
        }
        f.config.encrypted = true;
        f.config.resources = etl_model::ResourceClass::Large;
        let ctx = PatternContext::new(&f).unwrap();
        assert!(!Prerequisite::NotEncrypted.satisfied(&ctx, ApplicationPoint::Graph, "x"));
        assert!(!Prerequisite::ResourcesUpgradable.satisfied(&ctx, ApplicationPoint::Graph, "x"));
    }
}
