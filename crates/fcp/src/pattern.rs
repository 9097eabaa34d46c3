//! The [`Pattern`] trait and its evaluation context.

use crate::point::ApplicationPoint;
use crate::prereq::Prerequisite;
use etl_model::{propagate_schemas, EtlFlow, NodeId, Schema, SchemaTable};
use quality::{Characteristic, GainProfile};
use std::fmt;

/// Errors during pattern application.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternError {
    /// The point does not satisfy the pattern's prerequisites (any more).
    NotApplicable {
        /// Pattern name.
        pattern: String,
        /// Point description.
        point: String,
    },
    /// The structural edit failed.
    Graph(String),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::NotApplicable { pattern, point } => {
                write!(f, "pattern `{pattern}` not applicable at {point}")
            }
            PatternError::Graph(e) => write!(f, "graph edit failed: {e}"),
        }
    }
}

impl std::error::Error for PatternError {}

/// Record of one successful pattern application.
#[derive(Debug, Clone)]
pub struct AppliedPattern {
    /// Pattern name.
    pub pattern: String,
    /// Where it was applied.
    pub point: ApplicationPoint,
    /// Nodes the application added to the flow.
    pub added_nodes: Vec<NodeId>,
}

/// Cost/topology landmarks used only by fitness heuristics — computed
/// lazily because the planner's incremental apply path checks applicability
/// (schemas + prerequisites) without ever ranking placements.
struct Landmarks {
    /// Distance (edges) from the nearest extract, per node index.
    distances: Vec<usize>,
    /// The maximum per-tuple cost over all operations (for normalising
    /// cost-based fitness).
    max_cost_per_tuple: f64,
    /// Cumulative upstream cost per node: the per-tuple cost of the most
    /// expensive source→node chain (the "how much work would a failure here
    /// lose" landmark behind checkpoint placement).
    upstream_cost: Vec<f64>,
}

/// Pre-computed per-flow context shared by applicability checks and fitness
/// heuristics: output schemas, source distances and cost landmarks. Built
/// once per flow, reused across every (pattern, point) probe.
pub struct PatternContext<'a> {
    /// The flow under analysis.
    pub flow: &'a EtlFlow,
    /// Output schema per node (dense by node index), `None` for dead ids.
    /// `Arc`-shared: passthrough operators alias their input's allocation.
    pub schemas: SchemaTable,
    landmarks: std::sync::OnceLock<Landmarks>,
}

impl<'a> PatternContext<'a> {
    /// Builds the context; the flow must be schema-consistent.
    pub fn new(flow: &'a EtlFlow) -> Result<Self, PatternError> {
        let schemas = propagate_schemas(flow).map_err(|e| PatternError::Graph(e.to_string()))?;
        Ok(Self::with_schemas(flow, schemas))
    }

    /// Builds the context around an already-computed schema table — the
    /// cheap constructor behind incremental combination application: the
    /// caller carries the table across successive pattern applications,
    /// repairing it with `repair_table` and re-propagating the whole flow
    /// only when a repair reports `false`. Cost landmarks are computed lazily, only if a fitness
    /// heuristic asks for them. `schemas` must be `flow`'s own table, dense
    /// by node index.
    pub fn with_schemas(flow: &'a EtlFlow, schemas: SchemaTable) -> Self {
        PatternContext {
            flow,
            schemas,
            landmarks: std::sync::OnceLock::new(),
        }
    }

    fn landmarks(&self) -> &Landmarks {
        self.landmarks.get_or_init(|| {
            let flow = self.flow;
            let distances = flow.distance_from_sources();
            let max_cost_per_tuple = flow
                .graph
                .nodes()
                .map(|(_, op)| op.cost.cost_per_tuple_ms)
                .fold(0.0f64, f64::max);
            let mut upstream_cost = vec![0.0f64; flow.graph.node_bound()];
            if let Ok(order) = flow.topo_order() {
                for n in order {
                    let op = flow.op(n).expect("live node");
                    let up = flow
                        .graph
                        .predecessors(n)
                        .map(|p| upstream_cost[p.index()])
                        .fold(0.0f64, f64::max);
                    upstream_cost[n.index()] = up + op.cost.cost_per_tuple_ms;
                }
            }
            Landmarks {
                distances,
                max_cost_per_tuple,
                upstream_cost,
            }
        })
    }

    /// Distance (edges) from the nearest extract, per node index.
    pub fn distances(&self) -> &[usize] {
        &self.landmarks().distances
    }

    /// The maximum per-tuple cost over all operations (for normalising
    /// cost-based fitness).
    pub fn max_cost_per_tuple(&self) -> f64 {
        self.landmarks().max_cost_per_tuple
    }

    /// Cumulative upstream cost per node: the per-tuple cost of the most
    /// expensive source→node chain.
    pub fn upstream_cost(&self) -> &[f64] {
        &self.landmarks().upstream_cost
    }

    /// Consumes the context, returning its schema table.
    pub fn into_schemas(self) -> SchemaTable {
        self.schemas
    }

    /// Schema at a point: edge schema (its source node's output), node
    /// *input* schema (first predecessor's output), or `None` for graph
    /// points.
    pub fn point_schema(&self, p: ApplicationPoint) -> Option<&Schema> {
        point_schema_in(self.flow, &self.schemas, p)
    }

    /// Distance of a point from the sources (edge: its source node's
    /// distance; node: the node's own; graph: 0).
    pub fn point_distance(&self, p: ApplicationPoint) -> usize {
        match p {
            ApplicationPoint::Edge(e) => self
                .flow
                .graph
                .endpoints(e)
                .map(|(s, _)| self.distances()[s.index()])
                .unwrap_or(usize::MAX),
            ApplicationPoint::Node(n) => self
                .distances()
                .get(n.index())
                .copied()
                .unwrap_or(usize::MAX),
            ApplicationPoint::Graph => 0,
        }
    }
}

/// A Flow Component Pattern.
///
/// Implementations must keep their edit, [`Pattern::apply_unchecked`],
/// *functionality-preserving*: the loaded data may only improve (cleaning)
/// or stay equivalent (parallelism, savepoints, configuration) — never
/// change semantics. The integration tests assert this per built-in.
pub trait Pattern: Send + Sync {
    /// Unique pattern name (the palette key).
    fn name(&self) -> &str;

    /// The quality characteristic this pattern is intended to improve
    /// (Fig. 6's "related quality attribute" column).
    fn improves(&self) -> Characteristic;

    /// A sound optimistic cap on how much one application can improve each
    /// characteristic score — the static metadata behind the planner's
    /// bound-based dominance pruning. The default is
    /// [`GainProfile::unbounded`]: sound for any pattern, useless for
    /// pruning. Built-ins tighten the axes they provably never improve
    /// (e.g. `EncryptChannels` caps everything but security at `1.0`).
    /// Implementations must stay *optimistic*: claiming `1.0` on an axis a
    /// pattern can actually improve would make pruning unsound.
    fn gain_profile(&self) -> GainProfile {
        GainProfile::unbounded()
    }

    /// The conjunctive applicability prerequisites.
    fn prerequisites(&self) -> Vec<Prerequisite>;

    /// True when every prerequisite holds at `point`.
    fn applicable(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> bool {
        point.is_live(ctx.flow)
            && self
                .prerequisites()
                .iter()
                .all(|p| p.satisfied(ctx, point, self.name()))
    }

    /// Enumerates every valid application point on the flow. The paper's
    /// §3 guarantee — "all of the potential application points on the ETL
    /// flow are checked for each FCP" — is this default implementation.
    fn candidate_points(&self, ctx: &PatternContext<'_>) -> Vec<ApplicationPoint> {
        let mut out = Vec::new();
        if self.applicable(ctx, ApplicationPoint::Graph) {
            out.push(ApplicationPoint::Graph);
        }
        for n in ctx.flow.graph.node_ids() {
            let p = ApplicationPoint::Node(n);
            if self.applicable(ctx, p) {
                out.push(p);
            }
        }
        for e in ctx.flow.graph.edge_ids() {
            let p = ApplicationPoint::Edge(e);
            if self.applicable(ctx, p) {
                out.push(p);
            }
        }
        out
    }

    /// Placement fitness in `[0, 1]` (higher = heuristically better spot).
    /// Defaults to indifference.
    fn fitness(&self, _ctx: &PatternContext<'_>, _point: ApplicationPoint) -> f64 {
        0.5
    }

    /// Applies the pattern at `point`, mutating `flow`: the checked entry
    /// point. Re-checks [`applicable`](Self::applicable) against the flow as
    /// it is now (it may have changed since enumeration), then performs the
    /// edit with [`apply_unchecked`](Self::apply_unchecked) from the schema
    /// table that check built. Implementations do not override it.
    fn apply(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
    ) -> Result<AppliedPattern, PatternError> {
        let ctx = PatternContext::new(flow)?;
        if !self.applicable(&ctx, point) {
            return Err(PatternError::NotApplicable {
                pattern: self.name().to_string(),
                point: point.describe(flow),
            });
        }
        let schemas = ctx.into_schemas();
        self.apply_unchecked(flow, point, &schemas)
    }

    /// Applies the pattern at `point` *without* re-validating
    /// applicability — the one statement of the pattern's edit. The caller
    /// must have just checked [`applicable`](Self::applicable) against this
    /// exact flow state; `schemas` is that check's schema table (dense by
    /// node index), so the inserted operations are configured from the
    /// schema at the exact application point (§3: "configured according to
    /// the properties … of the initial ETL flow as well as the exact
    /// application point") without re-propagating the flow. This is the
    /// hot path of the planner's incremental evaluation.
    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        schemas: &SchemaTable,
    ) -> Result<AppliedPattern, PatternError>;

    /// True when this pattern's structural edit is confined to the nodes it
    /// reports in [`AppliedPattern::added_nodes`] (plus adjacency rewiring
    /// and graph-level configuration) — i.e. it never edits an existing
    /// operation's definition in place. Incremental appliers then repair
    /// their carried schema table from just those nodes instead of
    /// re-deriving the fork's full copy-on-write delta. The conservative
    /// default is `false`; every built-in opts in.
    fn patch_confined_to_added_nodes(&self) -> bool {
        false
    }
}

/// Schema at a point against an externally-carried schema table — what
/// [`PatternContext::point_schema`] reads, and what
/// [`Pattern::apply_unchecked`] implementations configure their edit from.
pub fn point_schema_in<'s>(
    flow: &EtlFlow,
    schemas: &'s SchemaTable,
    p: ApplicationPoint,
) -> Option<&'s Schema> {
    match p {
        ApplicationPoint::Edge(e) => {
            let (src, _) = flow.graph.endpoints(e)?;
            schemas.get(src.index())?.as_deref()
        }
        ApplicationPoint::Node(n) => {
            let pred = flow.graph.predecessors(n).next()?;
            schemas.get(pred.index())?.as_deref()
        }
        ApplicationPoint::Graph => None,
    }
}

/// Helper shared by edge-interposing patterns: splices `op` onto the edge
/// and returns the application record. Callers must have verified
/// applicability on this exact flow state.
pub(crate) fn interpose_unchecked(
    pattern: &dyn Pattern,
    flow: &mut EtlFlow,
    point: ApplicationPoint,
    op: etl_model::Operation,
) -> Result<AppliedPattern, PatternError> {
    let ApplicationPoint::Edge(e) = point else {
        return Err(PatternError::NotApplicable {
            pattern: pattern.name().to_string(),
            point: point.describe(flow),
        });
    };
    let splice = flow
        .graph
        .interpose_on_edge(e, op, Default::default(), Default::default())
        .map_err(|err| PatternError::Graph(err.to_string()))?;
    Ok(AppliedPattern {
        pattern: pattern.name().to_string(),
        point,
        added_nodes: vec![splice.node],
    })
}
