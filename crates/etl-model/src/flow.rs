//! The [`EtlFlow`] type: a validated ETL process graph plus process-wide
//! configuration (the *entire graph* application point of the paper).

use crate::op::{OpKind, Operation};
use crate::propagate::{propagate_schemas, SchemaError};
use flowgraph::{is_dag, DiGraph, EdgeId, GraphError, NodeId};
use std::fmt;

/// Hardware/software resource class of the execution environment — the
/// graph-level knob the paper lists under "management of the quality of
/// Hw/Sw resources". Scales simulated processing speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceClass {
    /// 1× baseline throughput.
    Small,
    /// 2× baseline throughput.
    Medium,
    /// 4× baseline throughput.
    Large,
}

impl ResourceClass {
    /// Relative speed factor vs. `Small`.
    pub fn speed_factor(self) -> f64 {
        match self {
            ResourceClass::Small => 1.0,
            ResourceClass::Medium => 2.0,
            ResourceClass::Large => 4.0,
        }
    }

    /// Relative cost factor vs. `Small` (renting bigger boxes costs more).
    pub fn cost_factor(self) -> f64 {
        match self {
            ResourceClass::Small => 1.0,
            ResourceClass::Medium => 2.2,
            ResourceClass::Large => 5.0,
        }
    }
}

/// Process-wide configuration: the target of graph-level FCPs (§2.2 —
/// security configurations, resource quality, recurrence frequency).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// All channels encrypted (security pattern).
    pub encrypted: bool,
    /// Role-based access control enabled (security pattern).
    pub role_based_access: bool,
    /// Execution resource class.
    pub resources: ResourceClass,
    /// Process recurrence period in minutes (drives the freshness measure
    /// `1 / (1 - age * frequency_of_updates)` from Fig. 1).
    pub recurrence_minutes: f64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            encrypted: false,
            role_based_access: false,
            resources: ResourceClass::Small,
            recurrence_minutes: 24.0 * 60.0,
        }
    }
}

/// Edge weight: the transition/channel between two consecutive operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Channel {
    /// Optional label (e.g. the Router's "yes"/"no" branches).
    pub label: String,
}

impl Channel {
    /// Labelled channel.
    pub fn labelled(label: impl Into<String>) -> Self {
        Channel {
            label: label.into(),
        }
    }
}

/// Errors from flow construction or validation.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Underlying graph edit failed.
    Graph(GraphError),
    /// The flow graph has a cycle.
    Cyclic,
    /// The flow has no operations.
    Empty,
    /// An operation violates its input arity. `(name, actual, min, max)`.
    InputArity(String, usize, usize, usize),
    /// An operation violates its output arity. `(name, actual, min, max)`.
    OutputArity(String, usize, usize, usize),
    /// A source node (in-degree 0) is not an Extract.
    NonExtractSource(String),
    /// A sink node (out-degree 0) is not a Load.
    NonLoadSink(String),
    /// Schema propagation failed.
    Schema(SchemaError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Graph(e) => write!(f, "graph error: {e}"),
            FlowError::Cyclic => write!(f, "ETL flow must be acyclic"),
            FlowError::Empty => write!(f, "ETL flow has no operations"),
            FlowError::InputArity(n, a, lo, hi) => {
                write!(f, "operation `{n}` has {a} inputs, expected {lo}..={hi}")
            }
            FlowError::OutputArity(n, a, lo, hi) => {
                write!(f, "operation `{n}` has {a} outputs, expected {lo}..={hi}")
            }
            FlowError::NonExtractSource(n) => {
                write!(f, "source operation `{n}` must be an extract")
            }
            FlowError::NonLoadSink(n) => write!(f, "sink operation `{n}` must be a load"),
            FlowError::Schema(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// One side of an operation's degree rule that the operation breaks, as
/// [`EtlFlow::degree_violations`] reports it: the [`FlowError`] without the
/// operation's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeViolation {
    /// No inputs, but not an extract.
    NonExtractSource,
    /// No outputs, but not a load.
    NonLoadSink,
    /// Input count outside the kind's arity. `(actual, min, max)`.
    InputArity(usize, usize, usize),
    /// Output count outside the kind's arity. `(actual, min, max)`.
    OutputArity(usize, usize, usize),
}

impl DegreeViolation {
    /// The error this violation is for the operation named `name`.
    pub fn into_error(self, name: &str) -> FlowError {
        let name = name.to_string();
        match self {
            DegreeViolation::NonExtractSource => FlowError::NonExtractSource(name),
            DegreeViolation::NonLoadSink => FlowError::NonLoadSink(name),
            DegreeViolation::InputArity(a, lo, hi) => FlowError::InputArity(name, a, lo, hi),
            DegreeViolation::OutputArity(a, lo, hi) => FlowError::OutputArity(name, a, lo, hi),
        }
    }
}

impl From<GraphError> for FlowError {
    fn from(e: GraphError) -> Self {
        FlowError::Graph(e)
    }
}

impl From<SchemaError> for FlowError {
    fn from(e: SchemaError) -> Self {
        FlowError::Schema(e)
    }
}

/// An ETL process flow: named operation graph + process-wide config.
#[derive(Debug)]
pub struct EtlFlow {
    /// Flow name (shown in reports and serialised models).
    pub name: String,
    /// The operation graph.
    pub graph: DiGraph<Operation, Channel>,
    /// Graph-level configuration.
    pub config: FlowConfig,
}

impl Clone for EtlFlow {
    fn clone(&self) -> Self {
        EtlFlow {
            name: self.name.clone(),
            graph: self.graph.clone(),
            config: self.config.clone(),
        }
    }

    /// Refreshes `self` into a clone of `source` in place, keeping its
    /// allocations; the graph replaces only the slots that differ (see
    /// [`DiGraph`]'s `clone_from`). `self` is destructured, so a field
    /// added later fails to compile here instead of being left stale.
    fn clone_from(&mut self, source: &Self) {
        let EtlFlow {
            name,
            graph,
            config,
        } = self;
        name.clone_from(&source.name);
        graph.clone_from(&source.graph);
        config.clone_from(&source.config);
    }
}

impl EtlFlow {
    /// New empty flow.
    pub fn new(name: impl Into<String>) -> Self {
        EtlFlow {
            name: name.into(),
            graph: DiGraph::new(),
            config: FlowConfig::default(),
        }
    }

    /// Adds an operation node.
    pub fn add_op(&mut self, op: Operation) -> NodeId {
        self.graph.add_node(op)
    }

    /// Connects two operations with an unlabelled channel.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> Result<EdgeId, FlowError> {
        Ok(self.graph.add_edge(from, to, Channel::default())?)
    }

    /// Connects two operations with a labelled channel.
    pub fn connect_labelled(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: impl Into<String>,
    ) -> Result<EdgeId, FlowError> {
        Ok(self.graph.add_edge(from, to, Channel::labelled(label))?)
    }

    /// Borrow an operation.
    pub fn op(&self, n: NodeId) -> Option<&Operation> {
        self.graph.node(n)
    }

    /// Mutably borrow an operation.
    pub fn op_mut(&mut self, n: NodeId) -> Option<&mut Operation> {
        self.graph.node_mut(n)
    }

    /// Number of operations.
    pub fn op_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of transitions.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Ids of operations of a given kind name.
    pub fn ops_of_kind(&self, kind_name: &str) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|(_, op)| op.kind.name() == kind_name)
            .map(|(id, _)| id)
            .collect()
    }

    /// Counts operations matching a predicate (e.g. merge elements for the
    /// manageability measure).
    pub fn count_ops(&self, pred: impl Fn(&Operation) -> bool) -> usize {
        self.graph.nodes().filter(|(_, op)| pred(op)).count()
    }

    /// Full structural validation: non-empty, acyclic, arity-correct,
    /// extract-sources / load-sinks, and schema-consistent.
    pub fn validate(&self) -> Result<(), FlowError> {
        self.validate_structure()?;
        propagate_schemas(self)?;
        Ok(())
    }

    /// The graph-shape half of [`validate`](Self::validate) — everything
    /// except schema propagation. Callers that already carry a valid
    /// [`propagate_schemas`] table (the planner's incremental path) use this
    /// to avoid re-deriving it.
    pub fn validate_structure(&self) -> Result<(), FlowError> {
        if self.graph.node_count() == 0 {
            return Err(FlowError::Empty);
        }
        if !is_dag(&self.graph) {
            return Err(FlowError::Cyclic);
        }
        self.graph
            .node_ids()
            .try_for_each(|id| self.validate_degree(id))
    }

    /// The per-operation rules of [`validate_structure`](Self::validate_structure),
    /// as the first of [`degree_violations`](Self::degree_violations).
    pub fn validate_degree(&self, id: NodeId) -> Result<(), FlowError> {
        let [input, output] = self.degree_violations(id);
        match (input.or(output), self.op(id)) {
            (Some(v), Some(op)) => Err(v.into_error(op.name())),
            _ => Ok(()),
        }
    }

    /// The degree rules of one operation, `[input side, output side]`:
    /// only extracts may lack inputs, only loads may lack outputs, and the
    /// input and output counts must lie within the kind's arity. A side
    /// whose degree is 0 against its role reports the role violation, not
    /// the arity one. A removed id breaks none. Allocation-free, so
    /// screens can run it for every touched node.
    pub fn degree_violations(&self, id: NodeId) -> [Option<DegreeViolation>; 2] {
        let Some(op) = self.op(id) else {
            return [None, None];
        };
        let (ins, outs) = (self.graph.in_degree(id), self.graph.out_degree(id));
        let (ilo, ihi) = op.kind.input_arity();
        let (olo, ohi) = op.kind.output_arity();
        let input = if ins == 0 && !matches!(op.kind, OpKind::Extract { .. }) {
            Some(DegreeViolation::NonExtractSource)
        } else if !(ilo..=ihi).contains(&ins) {
            Some(DegreeViolation::InputArity(ins, ilo, ihi))
        } else {
            None
        };
        let output = if outs == 0 && !matches!(op.kind, OpKind::Load { .. }) {
            Some(DegreeViolation::NonLoadSink)
        } else if !(olo..=ohi).contains(&outs) {
            Some(DegreeViolation::OutputArity(outs, olo, ohi))
        } else {
            None
        };
        [input, output]
    }

    /// Operations in topological order; requires an acyclic flow.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, FlowError> {
        flowgraph::topo_sort(&self.graph).map_err(|_| FlowError::Cyclic)
    }

    /// Copy-on-write clone under a new name — the planner materialises
    /// alternative designs this way. `O(n)` refcount bumps: every operator and
    /// channel slot is shared with `self` until the fork mutates it, and
    /// mutations copy only the touched slots (the base never observes them).
    pub fn fork(&self, name: impl Into<String>) -> EtlFlow {
        let mut f = self.clone();
        f.name = name.into();
        f
    }

    /// Which nodes this flow (a fork) has diverged on since `base`, recovered
    /// from copy-on-write slot sharing. See [`flowgraph::DiGraph::cow_delta`].
    pub fn delta_since(&self, base: &EtlFlow) -> flowgraph::CowDelta {
        self.graph.cow_delta(&base.graph)
    }

    /// Distance (in edges) from the nearest extract, per node; used by the
    /// "cleaning close to the sources" heuristic. `usize::MAX` = unreachable
    /// (cannot happen in validated flows).
    pub fn distance_from_sources(&self) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.graph.node_bound()];
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => return dist,
        };
        for n in &order {
            if self.graph.in_degree(*n) == 0 {
                dist[n.index()] = 0;
            }
        }
        for n in order {
            let d = dist[n.index()];
            if d == usize::MAX {
                continue;
            }
            for s in self.graph.successors(n) {
                if dist[s.index()] > d + 1 {
                    dist[s.index()] = d + 1;
                }
            }
        }
        dist
    }

    /// Graphviz DOT rendering of the flow.
    pub fn to_dot(&self) -> String {
        flowgraph::to_dot(
            &self.graph,
            &self.name,
            |op| op.name().to_string(),
            |ch| ch.label.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::types::{Attribute, DataType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("v", DataType::Float),
        ])
    }

    fn linear_flow() -> (EtlFlow, [NodeId; 3]) {
        let mut f = EtlFlow::new("t");
        let e = f.add_op(Operation::extract("s", schema()));
        let fi = f.add_op(Operation::filter("f", Expr::col("v").gt(Expr::lit_f(0.0))));
        let l = f.add_op(Operation::load("t"));
        f.connect(e, fi).unwrap();
        f.connect(fi, l).unwrap();
        (f, [e, fi, l])
    }

    #[test]
    fn valid_linear_flow() {
        let (f, _) = linear_flow();
        f.validate().unwrap();
        assert_eq!(f.op_count(), 3);
    }

    #[test]
    fn empty_flow_rejected() {
        assert_eq!(EtlFlow::new("e").validate(), Err(FlowError::Empty));
    }

    #[test]
    fn cyclic_flow_rejected() {
        let (mut f, ids) = linear_flow();
        // force a cycle filter -> extract is prevented by arity anyway; use graph directly
        f.graph
            .add_edge(ids[2], ids[0], Channel::default())
            .unwrap();
        assert_eq!(f.validate(), Err(FlowError::Cyclic));
    }

    #[test]
    fn arity_violations_detected() {
        let mut f = EtlFlow::new("bad");
        let e = f.add_op(Operation::extract("s", schema()));
        let j = f.add_op(Operation::new(
            "j",
            OpKind::Join {
                left_key: "id".into(),
                right_key: "id".into(),
            },
        ));
        let l = f.add_op(Operation::load("t"));
        f.connect(e, j).unwrap();
        f.connect(j, l).unwrap();
        match f.validate() {
            Err(FlowError::InputArity(name, 1, 2, 2)) => assert_eq!(name, "j"),
            other => panic!("expected join arity error, got {other:?}"),
        }
    }

    #[test]
    fn source_must_be_extract() {
        let mut f = EtlFlow::new("bad");
        let fi = f.add_op(Operation::filter("f", Expr::lit_b(true)));
        let l = f.add_op(Operation::load("t"));
        f.connect(fi, l).unwrap();
        assert!(matches!(f.validate(), Err(FlowError::NonExtractSource(_))));
    }

    #[test]
    fn sink_must_be_load() {
        let mut f = EtlFlow::new("bad");
        let e = f.add_op(Operation::extract("s", schema()));
        let fi = f.add_op(Operation::filter("f", Expr::col("id").gt(Expr::lit_i(0))));
        f.connect(e, fi).unwrap();
        assert!(matches!(f.validate(), Err(FlowError::NonLoadSink(_))));
    }

    #[test]
    fn ops_of_kind_and_count() {
        let (f, _) = linear_flow();
        assert_eq!(f.ops_of_kind("filter").len(), 1);
        assert_eq!(f.ops_of_kind("merge").len(), 0);
        assert_eq!(f.count_ops(|op| op.kind.name() == "extract"), 1);
    }

    #[test]
    fn distance_from_sources_layers() {
        let (f, ids) = linear_flow();
        let d = f.distance_from_sources();
        assert_eq!(d[ids[0].index()], 0);
        assert_eq!(d[ids[1].index()], 1);
        assert_eq!(d[ids[2].index()], 2);
    }

    #[test]
    fn fork_is_independent() {
        let (f, ids) = linear_flow();
        let mut g = f.fork("copy");
        let op = g.op_mut(ids[1]).unwrap();
        *op = op.clone().renamed("renamed");
        assert_eq!(f.op(ids[1]).unwrap().name(), "f");
        assert_eq!(g.name, "copy");
    }

    #[test]
    fn resource_class_factors_are_monotonic() {
        assert!(ResourceClass::Small.speed_factor() < ResourceClass::Medium.speed_factor());
        assert!(ResourceClass::Medium.speed_factor() < ResourceClass::Large.speed_factor());
        assert!(ResourceClass::Small.cost_factor() < ResourceClass::Large.cost_factor());
    }

    #[test]
    fn dot_contains_op_names() {
        let (f, _) = linear_flow();
        let dot = f.to_dot();
        assert!(dot.contains("EXTRACT s"));
        assert!(dot.contains("LOAD t"));
    }
}
