//! `poiesis-analysis` — static flow analysis for POIESIS.
//!
//! POIESIS evaluates thousands of pattern-modified ETL flow alternatives per
//! exploration cycle; an ill-formed flow (cycle, dangling edge, unresolved
//! column, type-broken predicate) that is only discovered *during* evaluation
//! wastes a full clone + simulate and surfaces as an opaque failure count.
//! This crate checks those properties by cheap static traversal *before*
//! evaluation, the same shape as a compile-time check in a training stack.
//!
//! The analyzer is a set of composable passes over [`etl_model::EtlFlow`],
//! each emitting structured [`Diagnostic`]s with stable `PA0xx` codes
//! (catalogued in [`codes`] and `docs/ANALYSIS.md`):
//!
//! * [`well_formedness`] — graph shape: emptiness, cycles, weakly-disconnected
//!   components, source/sink degree rules, operator arity, dangling channels;
//! * field-level dataflow on top of [`etl_model::propagate_schemas`] and
//!   the flow's [`Lineage`]: unresolved columns, duplicate attributes, merge
//!   shape mismatches, expression type problems, and dead fields no
//!   operation ever reads;
//! * [`check_application`] — pattern preconditions: validates an
//!   [`fcp::ApplicationPoint`] against a pattern's prerequisites before the
//!   planner clones the flow and applies the combination.
//!
//! [`analyze`] runs the flow passes and returns every finding;
//! [`screen`] is the cheap error-only gate the planner hot path uses;
//! [`render`] formats diagnostics rustc-style for the `poiesis_lint` CLI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use etl_model::expr::{BinOp, Expr};
use etl_model::{
    propagate_schemas, DataType, EdgeId, EtlFlow, FlowError, NodeId, OpKind, Schema, SchemaError,
};
use fcp::{ApplicationPoint, Pattern, PatternContext};
use flowgraph::{has_cycle, topo_sort, weakly_connected_components};
use std::collections::BTreeSet;
use std::fmt;

pub mod lineage;

pub use lineage::{Lineage, SourceColumn};

/// Stable diagnostic codes. Codes are append-only: a published `PAxxx` never
/// changes meaning (wire compatibility for lint consumers and CI greps).
pub mod codes {
    /// Flow has no operations at all.
    pub const EMPTY_FLOW: &str = "PA001";
    /// Flow graph contains a directed cycle.
    pub const CYCLE: &str = "PA002";
    /// Flow splits into weakly-disconnected subgraphs.
    pub const DISCONNECTED: &str = "PA003";
    /// A non-extract operation has no inputs.
    pub const NON_EXTRACT_SOURCE: &str = "PA004";
    /// A non-load operation has no outputs.
    pub const NON_LOAD_SINK: &str = "PA005";
    /// Operation input count outside its kind's arity.
    pub const INPUT_ARITY: &str = "PA006";
    /// Operation output count outside its kind's arity.
    pub const OUTPUT_ARITY: &str = "PA007";
    /// Channel with a missing endpoint (internal corruption guard).
    pub const DANGLING_CHANNEL: &str = "PA008";
    /// Expression or projection references a column absent from its input.
    pub const UNRESOLVED_COLUMN: &str = "PA010";
    /// An operation would introduce a duplicate attribute name.
    pub const DUPLICATE_ATTRIBUTE: &str = "PA011";
    /// Merge inputs disagree on schema shape.
    pub const MERGE_MISMATCH: &str = "PA012";
    /// Expression type problem (non-boolean predicate, non-numeric arithmetic).
    pub const EXPR_TYPE: &str = "PA013";
    /// Field produced but never consumed by any downstream operation.
    pub const DEAD_FIELD: &str = "PA014";
    /// Pattern application point no longer exists in the flow.
    pub const DEAD_POINT: &str = "PA020";
    /// Pattern prerequisite unsatisfied at the application point.
    pub const PREREQUISITE: &str = "PA021";
    /// Sensitive source column reaches a load over unencrypted channels.
    pub const SENSITIVE_LEAK: &str = "PA030";
    /// Sensitive source column reaches a load, protected by encryption.
    pub const SENSITIVE_EXPOSURE: &str = "PA031";
    /// In-flow encryption under a flow-wide encrypted configuration.
    pub const REDUNDANT_ENCRYPTION: &str = "PA040";
    /// Flow-wide encryption with no sensitive source column to protect.
    pub const UNUSED_ENCRYPTION: &str = "PA041";
}

/// How bad a finding is. Ordered: `Error > Warn > Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never gates anything.
    Info,
    /// Suspicious but evaluable (dead fields, disconnected fragments).
    Warn,
    /// The flow cannot be evaluated or would produce wrong results.
    Error,
}

impl Severity {
    /// Lowercase name used in rendering and on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parse a name produced by [`Severity::name`].
    pub fn parse(s: &str) -> Option<Severity> {
        Some(match s {
            "info" => Severity::Info,
            "warn" => Severity::Warn,
            "error" => Severity::Error,
            _ => return None,
        })
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the flow a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// The whole flow (emptiness, disconnection, graph-level patterns).
    Graph,
    /// One operation.
    Node(NodeId),
    /// One channel.
    Edge(EdgeId),
}

impl Location {
    /// Human-readable description against a flow (resolves operation names).
    pub fn describe(&self, flow: &EtlFlow) -> String {
        match self {
            Location::Graph => format!("flow `{}`", flow.name),
            Location::Node(n) => match flow.op(*n) {
                Some(op) => format!("node {n} (`{}`)", op.name()),
                None => format!("node {n} (removed)"),
            },
            Location::Edge(e) => match flow.graph.endpoints(*e) {
                Some((s, d)) => {
                    let sn = flow.op(s).map(|o| o.name()).unwrap_or("?");
                    let dn = flow.op(d).map(|o| o.name()).unwrap_or("?");
                    format!("edge {e} (`{sn}` → `{dn}`)")
                }
                None => format!("edge {e} (removed)"),
            },
        }
    }
}

/// One finding from a static analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code from [`codes`] (`PA0xx`).
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the analyzer can tell.
    pub suggestion: Option<String>,
    /// Supporting evidence lines (lineage traces, provenance), rendered as
    /// rustc-style `= note:` lines. Usually empty.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Error-severity diagnostic.
    pub fn error(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location,
            message: message.into(),
            suggestion: None,
            notes: Vec::new(),
        }
    }

    /// Warn-severity diagnostic.
    pub fn warn(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warn,
            ..Diagnostic::error(code, location, message)
        }
    }

    /// Info-severity diagnostic.
    pub fn info(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, location, message)
        }
    }

    /// Attaches a fix suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Appends one supporting note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// True when any diagnostic is [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Runs every flow pass — [`well_formedness`], field-level dataflow and the
/// sensitive-data [`lineage::taint`] pass — and returns all findings, errors
/// first within the original pass order. A schema error (PA010–PA012)
/// stops the later passes; otherwise [`Lineage`] is built once for both.
pub fn analyze(flow: &EtlFlow) -> Vec<Diagnostic> {
    let mut out = well_formedness(flow);
    if flow.graph.node_count() > 0 && !has_cycle(&flow.graph) {
        match propagate_schemas(flow) {
            Ok(table) => {
                if let Some(lineage) = Lineage::build(flow, &table) {
                    out.extend(dataflow(flow, &table, &lineage));
                    out.extend(lineage::taint_with(flow, &lineage));
                }
            }
            Err(e) => out.push(from_flow_error(flow, &FlowError::Schema(e))),
        }
    }
    // Stable sort: errors surface first, ties keep pass order.
    out.sort_by_key(|d| std::cmp::Reverse(d.severity));
    out
}

/// The cheap error-only gate used on the planner hot path: returns the first
/// blocking problem, or `None` when the flow is evaluable. Delegates to
/// [`EtlFlow::validate`] (graph shape + schema propagation) and maps the
/// failure onto a diagnostic, so it costs one validation, not a full
/// multi-pass analysis.
pub fn screen(flow: &EtlFlow) -> Option<Diagnostic> {
    flow.validate().err().map(|e| from_flow_error(flow, &e))
}

/// Incremental structural screen for a copy-on-write fork of an
/// already-screened base flow: emptiness, patch-created cycles, and
/// degree/arity rules at the patch's touched nodes, in `O(affected region)`
/// instead of `O(flow)`. Callers re-validate schemas over the patch by
/// repairing the fork's schema table ([`etl_model::repair_table`]); when the
/// repair reports `false`, a full [`etl_model::propagate_schemas`] gives
/// the schema verdict.
///
/// **Precondition:** `screen(base)` returned `None`. Under it, degree and
/// kind can change only at touched nodes (any adjacency edit unshares the
/// slot), and a patch-created cycle always lies inside the
/// touched-descendants region.
pub fn screen_delta_structural(fork: &EtlFlow, delta: &flowgraph::CowDelta) -> Option<Diagnostic> {
    let verdict = if fork.graph.node_count() == 0 {
        Err(FlowError::Empty)
    } else if !flowgraph::region_is_acyclic(&fork.graph, &delta.touched_nodes) {
        Err(FlowError::Cyclic)
    } else {
        delta
            .touched_nodes
            .iter()
            .try_for_each(|&n| fork.validate_degree(n))
    };
    verdict.err().map(|e| from_flow_error(fork, &e))
}

// ---------------------------------------------------------------------------
// Pass 1: graph well-formedness.

/// Graph-shape pass: emptiness (PA001), cycles (PA002), weak disconnection
/// (PA003), source/sink rules (PA004/PA005), operator arity (PA006/PA007)
/// and dangling channels (PA008).
pub fn well_formedness(flow: &EtlFlow) -> Vec<Diagnostic> {
    let g = &flow.graph;
    let mut out = Vec::new();
    if g.node_count() == 0 {
        out.push(
            Diagnostic::error(codes::EMPTY_FLOW, Location::Graph, "flow has no operations")
                .with_suggestion("add at least an extract and a load operation"),
        );
        return out;
    }
    if let Err(e) = topo_sort(g) {
        out.push(
            Diagnostic::error(
                codes::CYCLE,
                Location::Node(e.witness),
                "flow graph contains a directed cycle",
            )
            .with_suggestion("remove the back edge so data flows extract → load only"),
        );
    }
    let components = weakly_connected_components(g);
    if components.len() > 1 {
        out.push(
            Diagnostic::warn(
                codes::DISCONNECTED,
                Location::Graph,
                format!(
                    "flow splits into {} disconnected subgraphs",
                    components.len()
                ),
            )
            .with_suggestion("connect the fragments or split them into separate flows"),
        );
    }
    for (n, op) in g.nodes() {
        for violation in flow.degree_violations(n).into_iter().flatten() {
            let err = violation.into_error(op.name());
            out.push(diagnostic_for(&err, |_| Location::Node(n)));
        }
    }
    // Dangling channels cannot be built through the public API (node removal
    // cascades), so this is a guard against corruption, not a common lint.
    for e in g.edge_ids() {
        let live = g
            .endpoints(e)
            .is_some_and(|(s, d)| g.contains_node(s) && g.contains_node(d));
        if !live {
            out.push(Diagnostic::error(
                codes::DANGLING_CHANNEL,
                Location::Edge(e),
                format!("channel {e} references a removed operation"),
            ));
        }
    }
    out
}

fn arity_text((lo, hi): (usize, usize)) -> String {
    if hi == usize::MAX {
        format!("at least {lo}")
    } else if lo == hi {
        format!("exactly {lo}")
    } else {
        format!("{lo}..={hi}")
    }
}

// ---------------------------------------------------------------------------
// Pass 2: field-level dataflow.

/// Field-level dataflow pass over a propagated schema table and its
/// lineage: expression type problems (PA013) and dead fields (PA014).
fn dataflow(
    flow: &EtlFlow,
    schemas: &etl_model::SchemaTable,
    lineage: &Lineage,
) -> Vec<Diagnostic> {
    let g = &flow.graph;
    let mut out = Vec::new();
    for (n, op) in g.nodes() {
        let input = g
            .predecessors(n)
            .next()
            .and_then(|p| schemas[p.index()].as_deref());
        match &op.kind {
            OpKind::Filter { predicate } | OpKind::Router { predicate } => {
                if let Some(schema) = input {
                    check_predicate(predicate, schema, n, op.name(), &mut out);
                }
            }
            OpKind::Derive { outputs } => {
                if let Some(schema) = input {
                    for (_, expr) in outputs {
                        check_arithmetic(expr, schema, n, op.name(), &mut out);
                    }
                }
            }
            _ => {}
        }
    }
    dead_fields(flow, lineage, &mut out);
    out
}

/// A predicate must be boolean; its arithmetic subterms must be numeric.
fn check_predicate(
    predicate: &Expr,
    schema: &Schema,
    n: NodeId,
    name: &str,
    out: &mut Vec<Diagnostic>,
) {
    if let Ok(t) = predicate.result_type(schema) {
        if t != DataType::Bool {
            out.push(
                Diagnostic::error(
                    codes::EXPR_TYPE,
                    Location::Node(n),
                    format!("predicate of `{name}` has type {}, expected bool", t.name()),
                )
                .with_suggestion("compare the expression against a value, e.g. `expr > 0`"),
            );
        }
    }
    check_arithmetic(predicate, schema, n, name, out);
}

/// Walks an expression flagging arithmetic over non-numeric operands.
/// [`Expr::result_type`] itself never type-errors (it coerces), so this is
/// the analyzer's own stricter walk; findings are warnings because runtime
/// evaluation degrades to null rather than crashing.
fn check_arithmetic(
    expr: &Expr,
    schema: &Schema,
    n: NodeId,
    name: &str,
    out: &mut Vec<Diagnostic>,
) {
    match expr {
        Expr::Bin(op, a, b) => {
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) {
                for side in [a, b] {
                    if let Ok(t) = side.result_type(schema) {
                        if !t.is_numeric() {
                            out.push(
                                Diagnostic::warn(
                                    codes::EXPR_TYPE,
                                    Location::Node(n),
                                    format!(
                                        "arithmetic in `{name}` over non-numeric operand \
                                         `{side}` of type {}",
                                        t.name()
                                    ),
                                )
                                .with_suggestion("convert the attribute to int or float first"),
                            );
                        }
                    }
                }
            }
            check_arithmetic(a, schema, n, name, out);
            check_arithmetic(b, schema, n, name, out);
        }
        Expr::Not(a) | Expr::IsNull(a) => check_arithmetic(a, schema, n, name, out),
        Expr::Coalesce(xs) => {
            for x in xs {
                check_arithmetic(x, schema, n, name, out);
            }
        }
        Expr::Col(_) | Expr::Lit(_) => {}
    }
}

/// Flags fields introduced by an extract or derive that no operation ever
/// reads (PA014, warn). A field is read when some operation reads a column
/// whose [`Lineage`] origins contain it; a load reads everything it writes
/// out. Lineage follows a field through join renames, and a same-named
/// column from another source does not keep it alive.
fn dead_fields(flow: &EtlFlow, lineage: &Lineage, out: &mut Vec<Diagnostic>) {
    let g = &flow.graph;
    let mut read: BTreeSet<&SourceColumn> = BTreeSet::new();
    for (n, op) in g.nodes() {
        let preds: Vec<NodeId> = g.predecessors(n).collect();
        let whole_input = match &op.kind {
            OpKind::Load { .. } => true,
            // FilterNulls with no column list guards every attribute.
            OpKind::FilterNulls { columns } => columns.is_empty(),
            _ => false,
        };
        if whole_input {
            if let Some(&p) = preds.first() {
                read.extend(lineage.columns(p).flat_map(|(_, origins)| origins));
            }
        }
        for (input, column) in consumed_columns(&op.kind) {
            if let Some(&p) = preds.get(input) {
                read.extend(lineage.origins(p, column));
            }
        }
    }
    for (n, op) in g.nodes() {
        let introduced: Vec<&str> = match &op.kind {
            OpKind::Extract { schema, .. } => schema.attrs().iter().map(|a| a.name()).collect(),
            OpKind::Derive { outputs } => outputs.iter().map(|(c, _)| c.as_str()).collect(),
            _ => continue,
        };
        for field in introduced {
            let root = SourceColumn {
                node: n,
                column: field.to_string(),
            };
            if !read.contains(&root) {
                out.push(
                    Diagnostic::warn(
                        codes::DEAD_FIELD,
                        Location::Node(n),
                        format!(
                            "field `{field}` introduced by `{}` is never consumed",
                            op.name()
                        ),
                    )
                    .with_suggestion(format!(
                        "project `{field}` away at the source or use it downstream"
                    )),
                );
            }
        }
    }
}

/// Attribute names an operation reads, by kind, as `(input index, name)`.
fn consumed_columns(kind: &OpKind) -> Vec<(usize, &str)> {
    fn first<S: AsRef<str>>(names: &[S]) -> Vec<(usize, &str)> {
        names.iter().map(|c| (0, c.as_ref())).collect()
    }
    match kind {
        OpKind::Filter { predicate } | OpKind::Router { predicate } => {
            predicate.columns().into_iter().map(|c| (0, c)).collect()
        }
        OpKind::Project { keep } => first(keep),
        OpKind::Derive { outputs } => outputs
            .iter()
            .flat_map(|(_, e)| e.columns().into_iter().map(|c| (0, c)))
            .collect(),
        OpKind::Convert { column, .. } => vec![(0, column.as_str())],
        OpKind::Join {
            left_key,
            right_key,
        } => vec![(0, left_key.as_str()), (1, right_key.as_str())],
        OpKind::Aggregate { group_by, aggs } => group_by
            .iter()
            .map(|g| (0, g.as_str()))
            .chain(aggs.iter().map(|(_, _, input)| (0, input.as_str())))
            .collect(),
        OpKind::Sort { by } => first(by),
        OpKind::Dedup { keys } => first(keys),
        OpKind::FilterNulls { columns } => first(columns),
        OpKind::Crosscheck { key, .. } => vec![(0, key.as_str())],
        OpKind::Extract { .. }
        | OpKind::Load { .. }
        | OpKind::Split
        | OpKind::Partition
        | OpKind::Merge
        | OpKind::Checkpoint { .. }
        | OpKind::Encrypt => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Pass 3: pattern preconditions.

/// Validates one pattern application point: the point must still exist
/// (PA020) and every prerequisite of the pattern must hold there (PA021).
/// Returns all violations. These are the checks the default
/// [`Pattern::applicable`] makes, itemised for a tool that reports them.
pub fn check_application(
    ctx: &PatternContext<'_>,
    pattern: &dyn Pattern,
    point: ApplicationPoint,
) -> Vec<Diagnostic> {
    let location = match point {
        ApplicationPoint::Graph => Location::Graph,
        ApplicationPoint::Node(n) => Location::Node(n),
        ApplicationPoint::Edge(e) => Location::Edge(e),
    };
    if !point.is_live(ctx.flow) {
        return vec![Diagnostic::error(
            codes::DEAD_POINT,
            location,
            format!(
                "pattern `{}` targets {} which no longer exists",
                pattern.name(),
                point.describe(ctx.flow)
            ),
        )];
    }
    pattern
        .prerequisites()
        .iter()
        .filter(|p| !p.satisfied(ctx, point, pattern.name()))
        .map(|p| {
            Diagnostic::error(
                codes::PREREQUISITE,
                location,
                format!(
                    "pattern `{}` prerequisite {p:?} unsatisfied at {}",
                    pattern.name(),
                    point.describe(ctx.flow)
                ),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Error mapping.

/// Maps a [`FlowError`] from [`EtlFlow::validate`] onto the diagnostic that
/// the full analyzer would emit for the same defect, resolving operation
/// names back to node locations where possible.
pub fn from_flow_error(flow: &EtlFlow, err: &FlowError) -> Diagnostic {
    diagnostic_for(err, |name| node_by_name(flow, name))
}

/// [`from_flow_error`] without a flow to resolve locations against —
/// everything points at [`Location::Graph`]. This is what error conversions
/// in layers that no longer hold the flow use.
pub fn flow_error_diagnostic(err: &FlowError) -> Diagnostic {
    diagnostic_for(err, |_| Location::Graph)
}

/// The diagnostic for `err`, located by `locate` from the operation name
/// the error carries.
fn diagnostic_for(err: &FlowError, locate: impl Fn(&str) -> Location) -> Diagnostic {
    match err {
        FlowError::Empty => {
            Diagnostic::error(codes::EMPTY_FLOW, Location::Graph, "flow has no operations")
        }
        FlowError::Cyclic | FlowError::Schema(SchemaError::NotADag) => Diagnostic::error(
            codes::CYCLE,
            Location::Graph,
            "flow graph contains a directed cycle",
        ),
        FlowError::NonExtractSource(name) => Diagnostic::error(
            codes::NON_EXTRACT_SOURCE,
            locate(name),
            format!("`{name}` has no inputs but is not an extract"),
        )
        .with_suggestion("connect an upstream operation or make it an EXTRACT"),
        FlowError::NonLoadSink(name) => Diagnostic::error(
            codes::NON_LOAD_SINK,
            locate(name),
            format!("`{name}` has no outputs but is not a load"),
        )
        .with_suggestion("connect a downstream operation or make it a LOAD"),
        FlowError::InputArity(name, actual, lo, hi) => Diagnostic::error(
            codes::INPUT_ARITY,
            locate(name),
            format!(
                "`{name}` has {actual} inputs, expected {}",
                arity_text((*lo, *hi))
            ),
        ),
        FlowError::OutputArity(name, actual, lo, hi) => Diagnostic::error(
            codes::OUTPUT_ARITY,
            locate(name),
            format!(
                "`{name}` has {actual} outputs, expected {}",
                arity_text((*lo, *hi))
            ),
        ),
        FlowError::Graph(e) => Diagnostic::error(
            codes::DANGLING_CHANNEL,
            Location::Graph,
            format!("graph operation failed: {e}"),
        ),
        FlowError::Schema(
            SchemaError::Bind { op, column } | SchemaError::MissingAttr { op, column },
        ) => Diagnostic::error(
            codes::UNRESOLVED_COLUMN,
            locate(op),
            format!("`{op}` references column `{column}` absent from its input schema"),
        )
        .with_suggestion(format!(
            "produce `{column}` upstream or correct the reference"
        )),
        FlowError::Schema(SchemaError::DuplicateAttr { op, column }) => Diagnostic::error(
            codes::DUPLICATE_ATTRIBUTE,
            locate(op),
            format!("`{op}` would introduce duplicate attribute `{column}`"),
        )
        .with_suggestion(format!(
            "rename the derived or aggregated attribute `{column}`, or keep it once"
        )),
        FlowError::Schema(SchemaError::MergeMismatch { op }) => Diagnostic::error(
            codes::MERGE_MISMATCH,
            locate(op),
            format!("inputs of merge `{op}` have mismatching schemas"),
        )
        .with_suggestion("align attribute names and types on every merge input"),
    }
}

fn node_by_name(flow: &EtlFlow, name: &str) -> Location {
    flow.graph
        .nodes()
        .find(|(_, op)| op.name() == name)
        .map(|(n, _)| Location::Node(n))
        .unwrap_or(Location::Graph)
}

// ---------------------------------------------------------------------------
// Rendering.

/// Formats diagnostics rustc-style against the flow they were produced from:
///
/// ```text
/// error[PA010]: `FILTER q` references column `qty` absent from its input schema
///   --> node 3 (`FILTER q`) in flow `purchases`
///   = help: produce `qty` upstream or correct the reference
/// ```
pub fn render(flow: &EtlFlow, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{d}\n"));
        out.push_str(&format!(
            "  --> {} in flow `{}`\n",
            d.location.describe(flow),
            flow.name
        ));
        for note in &d.notes {
            out.push_str(&format!("  = note: {note}\n"));
        }
        if let Some(s) = &d.suggestion {
            out.push_str(&format!("  = help: {s}\n"));
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warns = diags
        .iter()
        .filter(|d| d.severity == Severity::Warn)
        .count();
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str(&format!(
        "{}: {errors} error(s), {warns} warning(s) in flow `{}`\n",
        if errors > 0 { "FAIL" } else { "ok" },
        flow.name
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etl_model::{Attribute, Channel, Operation};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("name", DataType::Str),
            Attribute::new("price", DataType::Float),
        ])
    }

    /// extract → filter(id > 0) → load, all three attrs loaded.
    fn valid_flow() -> EtlFlow {
        let mut f = EtlFlow::new("t");
        let a = f.add_op(Operation::extract("src", schema()));
        let b = f.add_op(Operation::filter("F", Expr::col("id").gt(Expr::lit_i(0))));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, b).unwrap();
        f.connect(b, c).unwrap();
        f
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn a_valid_flow_is_clean() {
        let diags = analyze(&valid_flow());
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert!(screen(&valid_flow()).is_none());
    }

    #[test]
    fn screen_delta_agrees_with_full_screen() {
        let base = valid_flow();
        let base_schemas = propagate_schemas(&base).unwrap();

        // Clean patch: interpose a valid filter on the first edge.
        let mut good = base.fork("good");
        let e = good.graph.edge_ids().next().unwrap();
        good.graph
            .interpose_on_edge(
                e,
                Operation::filter("F2", Expr::col("price").gt(Expr::lit_i(0))),
                Channel::default(),
                Channel::default(),
            )
            .unwrap();
        let delta = good.delta_since(&base);
        assert!(screen(&good).is_none());
        assert!(screen_delta_structural(&good, &delta).is_none());
        let mut table = base_schemas.clone();
        assert!(etl_model::repair_table(
            &good,
            &mut table,
            &delta.touched_nodes
        ));

        // Schema-breaking patch: filter over a ghost column. It is
        // structurally sound, so the schema half of the delta screen
        // rejects it: the repair of the carried table reports `false`, and
        // the full propagation it falls back to names the error.
        let mut bad = base.fork("bad");
        let e = bad.graph.edge_ids().next().unwrap();
        bad.graph
            .interpose_on_edge(
                e,
                Operation::filter("G", Expr::col("ghost").gt(Expr::lit_i(0))),
                Channel::default(),
                Channel::default(),
            )
            .unwrap();
        let delta = bad.delta_since(&base);
        assert!(screen_delta_structural(&bad, &delta).is_none());
        let mut table = base_schemas.clone();
        assert!(!etl_model::repair_table(
            &bad,
            &mut table,
            &delta.touched_nodes
        ));
        let propagated = propagate_schemas(&bad).expect_err("must reject");
        let propagated = from_flow_error(&bad, &FlowError::Schema(propagated));
        let slow = screen(&bad).expect("must reject");
        assert_eq!(propagated.code, slow.code);
        assert_eq!(propagated.code, codes::UNRESOLVED_COLUMN);

        // Structure-breaking patch: removing the load leaves a non-load sink.
        let mut cut = base.fork("cut");
        let load = cut
            .graph
            .nodes()
            .find(|(_, op)| matches!(op.kind, OpKind::Load { .. }))
            .map(|(n, _)| n)
            .unwrap();
        cut.graph.remove_node(load);
        let delta = cut.delta_since(&base);
        let fast = screen_delta_structural(&cut, &delta).expect("must reject");
        let slow = screen(&cut).expect("must reject");
        assert_eq!(fast.code, slow.code);

        // Cycle-creating patch.
        let mut cyc = base.fork("cyc");
        let filter = cyc
            .graph
            .nodes()
            .find(|(_, op)| op.name() == "F")
            .map(|(n, _)| n)
            .unwrap();
        let extract = cyc.graph.predecessors(filter).next().unwrap();
        cyc.graph
            .add_edge(filter, extract, Channel::default())
            .unwrap();
        let delta = cyc.delta_since(&base);
        let fast = screen_delta_structural(&cyc, &delta).expect("must reject");
        assert_eq!(fast.code, codes::CYCLE);
        assert_eq!(screen(&cyc).unwrap().code, codes::CYCLE);

        // Untouched fork sails through.
        let same = base.fork("same");
        let delta = same.delta_since(&base);
        assert!(delta.is_empty());
        assert!(screen_delta_structural(&same, &delta).is_none());
    }

    #[test]
    fn empty_flow_is_pa001() {
        let diags = analyze(&EtlFlow::new("e"));
        assert_eq!(codes_of(&diags), vec![codes::EMPTY_FLOW]);
        assert_eq!(screen(&EtlFlow::new("e")).unwrap().code, codes::EMPTY_FLOW);
    }

    #[test]
    fn cycles_are_pa002_and_suppress_dataflow() {
        let mut f = valid_flow();
        let filter = f
            .graph
            .nodes()
            .find(|(_, op)| op.name() == "F")
            .map(|(n, _)| n)
            .unwrap();
        let extract = f.graph.predecessors(filter).next().unwrap();
        f.graph
            .add_edge(filter, extract, Channel::default())
            .unwrap();
        let diags = analyze(&f);
        assert!(diags.iter().any(|d| d.code == codes::CYCLE));
        assert!(!diags.iter().any(|d| d.code == codes::UNRESOLVED_COLUMN));
        assert!(!diags.iter().any(|d| d.code.starts_with("PA01")));
    }

    #[test]
    fn disconnected_fragments_warn_pa003() {
        let mut f = valid_flow();
        let x = f.add_op(Operation::extract("lonely", schema()));
        let l = f.add_op(Operation::load("lonely_dw"));
        f.connect(x, l).unwrap();
        let diags = analyze(&f);
        let d = diags
            .iter()
            .find(|d| d.code == codes::DISCONNECTED)
            .unwrap();
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("2 disconnected"));
    }

    #[test]
    fn source_sink_and_arity_rules() {
        // filter with no input, extract with no output
        let mut f = EtlFlow::new("t");
        let a = f.add_op(Operation::extract("src", schema()));
        let b = f.add_op(Operation::filter("F", Expr::col("id").gt(Expr::lit_i(0))));
        let c = f.add_op(Operation::load("dw"));
        f.connect(b, c).unwrap();
        let diags = well_formedness(&f);
        assert!(diags.iter().any(|d| d.code == codes::NON_EXTRACT_SOURCE
            && matches!(d.location, Location::Node(n) if n == b)));
        assert!(diags
            .iter()
            .any(|d| d.code == codes::NON_LOAD_SINK
                && matches!(d.location, Location::Node(n) if n == a)));

        // a join with a single input is an arity error, not a source error
        let mut f = EtlFlow::new("j");
        let a = f.add_op(Operation::extract("src", schema()));
        let j = f.add_op(Operation::new(
            "J",
            OpKind::Join {
                left_key: "id".into(),
                right_key: "id".into(),
            },
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, j).unwrap();
        f.connect(j, l).unwrap();
        let diags = well_formedness(&f);
        let d = diags.iter().find(|d| d.code == codes::INPUT_ARITY).unwrap();
        assert!(d.message.contains("has 1 inputs, expected exactly 2"));

        // a router with one output is an output-arity error
        let mut f = EtlFlow::new("r");
        let a = f.add_op(Operation::extract("src", schema()));
        let r = f.add_op(Operation::new(
            "R",
            OpKind::Router {
                predicate: Expr::col("id").gt(Expr::lit_i(0)),
            },
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, r).unwrap();
        f.connect(r, l).unwrap();
        let diags = well_formedness(&f);
        assert!(diags.iter().any(|d| d.code == codes::OUTPUT_ARITY));
    }

    #[test]
    fn a_node_breaking_both_sides_reports_both() {
        // a join fed by one extract and feeding nothing: input arity on one
        // side, a non-load sink on the other
        let mut f = EtlFlow::new("both");
        let a = f.add_op(Operation::extract("src", schema()));
        let j = f.add_op(Operation::new(
            "J",
            OpKind::Join {
                left_key: "id".into(),
                right_key: "id".into(),
            },
        ));
        f.connect(a, j).unwrap();
        let at_join: Vec<&str> = well_formedness(&f)
            .iter()
            .filter(|d| d.location == Location::Node(j))
            .map(|d| d.code)
            .collect();
        assert_eq!(at_join, vec![codes::INPUT_ARITY, codes::NON_LOAD_SINK]);
        // the first of them is what the flow-level check reports
        assert_eq!(
            f.validate_degree(j),
            Err(FlowError::InputArity("J".into(), 1, 2, 2))
        );
    }

    #[test]
    fn unresolved_columns_are_pa010() {
        let mut f = EtlFlow::new("t");
        let a = f.add_op(Operation::extract("src", schema()));
        let b = f.add_op(Operation::filter(
            "F",
            Expr::col("ghost").gt(Expr::lit_i(0)),
        ));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, b).unwrap();
        f.connect(b, c).unwrap();
        let diags = analyze(&f);
        let d = diags
            .iter()
            .find(|d| d.code == codes::UNRESOLVED_COLUMN)
            .unwrap();
        assert!(d.message.contains("ghost"));
        assert!(matches!(d.location, Location::Node(n) if n == b));
        assert_eq!(screen(&f).unwrap().code, codes::UNRESOLVED_COLUMN);
    }

    #[test]
    fn duplicate_and_merge_schema_errors_map_to_codes() {
        // derive introducing an existing name
        let mut f = EtlFlow::new("d");
        let a = f.add_op(Operation::extract("src", schema()));
        let d = f.add_op(Operation::derive(
            "D",
            vec![("id".to_string(), Expr::lit_i(1))],
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, d).unwrap();
        f.connect(d, l).unwrap();
        assert_eq!(codes_of(&analyze(&f)), vec![codes::DUPLICATE_ATTRIBUTE]);

        // projection keeping a column twice (reachable from a model file)
        let mut f = EtlFlow::new("p");
        let a = f.add_op(Operation::extract("src", schema()));
        let p = f.add_op(Operation::project("P", vec!["id".into(), "id".into()]));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, p).unwrap();
        f.connect(p, l).unwrap();
        let diags = analyze(&f);
        assert_eq!(codes_of(&diags), vec![codes::DUPLICATE_ATTRIBUTE]);
        assert!(matches!(diags[0].location, Location::Node(n) if n == p));
        assert!(diags[0].message.contains("`id`"), "{}", diags[0].message);

        // merge of two different shapes
        let mut f = EtlFlow::new("m");
        let a = f.add_op(Operation::extract("one", schema()));
        let b = f.add_op(Operation::extract(
            "two",
            Schema::new(vec![Attribute::required("other", DataType::Str)]),
        ));
        let m = f.add_op(Operation::new("M", OpKind::Merge));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, m).unwrap();
        f.connect(b, m).unwrap();
        f.connect(m, l).unwrap();
        assert_eq!(codes_of(&analyze(&f)), vec![codes::MERGE_MISMATCH]);
    }

    #[test]
    fn non_boolean_predicates_are_pa013_errors() {
        let mut f = EtlFlow::new("t");
        let a = f.add_op(Operation::extract("src", schema()));
        let b = f.add_op(Operation::filter("F", Expr::col("price")));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, b).unwrap();
        f.connect(b, c).unwrap();
        let diags = analyze(&f);
        let d = diags.iter().find(|d| d.code == codes::EXPR_TYPE).unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("expected bool"));
        assert!(has_errors(&diags));
    }

    #[test]
    fn non_numeric_arithmetic_warns_pa013() {
        let mut f = EtlFlow::new("t");
        let a = f.add_op(Operation::extract("src", schema()));
        let d = f.add_op(Operation::derive(
            "D",
            vec![("twice".to_string(), Expr::col("name").add(Expr::lit_i(1)))],
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, d).unwrap();
        f.connect(d, l).unwrap();
        let diags = analyze(&f);
        let warn = diags
            .iter()
            .find(|d| d.code == codes::EXPR_TYPE && d.severity == Severity::Warn)
            .unwrap();
        assert!(warn.message.contains("non-numeric"));
        // a warning alone does not make the flow erroneous
        assert!(!has_errors(&diags));
    }

    #[test]
    fn projected_away_fields_warn_pa014() {
        let mut f = EtlFlow::new("t");
        let a = f.add_op(Operation::extract("src", schema()));
        let p = f.add_op(Operation::project(
            "P",
            vec!["id".to_string(), "name".to_string()],
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, p).unwrap();
        f.connect(p, l).unwrap();
        let diags = analyze(&f);
        let d = diags.iter().find(|d| d.code == codes::DEAD_FIELD).unwrap();
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("`price`"));
        // id and name survive into the load, so only price is dead
        assert_eq!(
            diags.iter().filter(|d| d.code == codes::DEAD_FIELD).count(),
            1
        );
    }

    #[test]
    fn fields_consumed_through_join_renames_stay_live() {
        // both sides carry `id`; the right one becomes `r_id` downstream
        let mut f = EtlFlow::new("j");
        let a = f.add_op(Operation::extract(
            "left",
            Schema::new(vec![Attribute::required("id", DataType::Int)]),
        ));
        let b = f.add_op(Operation::extract(
            "right",
            Schema::new(vec![Attribute::required("id", DataType::Int)]),
        ));
        let j = f.add_op(Operation::new(
            "J",
            OpKind::Join {
                left_key: "id".into(),
                right_key: "id".into(),
            },
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, j).unwrap();
        f.connect(b, j).unwrap();
        f.connect(j, l).unwrap();
        let diags = analyze(&f);
        assert!(
            !diags.iter().any(|d| d.code == codes::DEAD_FIELD),
            "join-renamed field wrongly flagged dead: {diags:?}"
        );
    }

    #[test]
    fn a_right_side_field_renamed_by_a_join_then_projected_away_is_dead() {
        // b.id becomes `r_id` at the join and the project keeps only a's
        // `id`: the same name must not keep b's field alive.
        let mut f = EtlFlow::new("j");
        let a = f.add_op(Operation::extract(
            "a",
            Schema::new(vec![
                Attribute::required("id", DataType::Int),
                Attribute::required("k", DataType::Int),
            ]),
        ));
        let b = f.add_op(Operation::extract(
            "b",
            Schema::new(vec![
                Attribute::required("id", DataType::Int),
                Attribute::required("k2", DataType::Int),
            ]),
        ));
        let j = f.add_op(Operation::new(
            "J",
            OpKind::Join {
                left_key: "k".into(),
                right_key: "k2".into(),
            },
        ));
        let p = f.add_op(Operation::project(
            "P",
            vec!["id".to_string(), "k".to_string()],
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, j).unwrap();
        f.connect(b, j).unwrap();
        f.connect(j, p).unwrap();
        f.connect(p, l).unwrap();
        let dead: Vec<_> = analyze(&f)
            .into_iter()
            .filter(|d| d.code == codes::DEAD_FIELD)
            .collect();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert_eq!(dead[0].location, Location::Node(b));
        assert!(dead[0].message.contains("`id`"), "{}", dead[0].message);
        assert!(
            dead[0].message.contains("`EXTRACT b`"),
            "{}",
            dead[0].message
        );
    }

    #[test]
    fn pattern_precondition_checks() {
        use fcp::Prerequisite;

        struct Demo;
        impl Pattern for Demo {
            fn name(&self) -> &str {
                "Demo"
            }
            fn improves(&self) -> quality::Characteristic {
                quality::Characteristic::Performance
            }
            fn prerequisites(&self) -> Vec<Prerequisite> {
                vec![
                    Prerequisite::IsNode,
                    Prerequisite::NodeKindIn(vec!["filter"]),
                ]
            }
            fn apply_unchecked(
                &self,
                _flow: &mut EtlFlow,
                _point: ApplicationPoint,
                _schemas: &etl_model::SchemaTable,
            ) -> Result<fcp::AppliedPattern, fcp::PatternError> {
                unreachable!("never applied in this test")
            }
        }

        let f = valid_flow();
        let ctx = PatternContext::new(&f).unwrap();
        let filter = f
            .graph
            .nodes()
            .find(|(_, op)| op.name() == "F")
            .map(|(n, _)| n)
            .unwrap();
        let load = f
            .graph
            .nodes()
            .find(|(_, op)| op.kind.name() == "load")
            .map(|(n, _)| n)
            .unwrap();

        assert!(check_application(&ctx, &Demo, ApplicationPoint::Node(filter)).is_empty());
        let diags = check_application(&ctx, &Demo, ApplicationPoint::Node(load));
        assert_eq!(codes_of(&diags), vec![codes::PREREQUISITE]);
        let diags = check_application(&ctx, &Demo, ApplicationPoint::Graph);
        assert_eq!(diags.len(), 2, "both prerequisites fail at graph point");

        // a point naming a node the flow never had is a dead point
        let ghost = ApplicationPoint::Node(etl_model::NodeId::from_raw(99));
        let diags = check_application(&ctx, &Demo, ghost);
        assert_eq!(codes_of(&diags), vec![codes::DEAD_POINT]);
    }

    #[test]
    fn flow_error_mapping_is_total_and_stable() {
        let f = valid_flow();
        let cases: Vec<(FlowError, &str)> = vec![
            (FlowError::Empty, codes::EMPTY_FLOW),
            (FlowError::Cyclic, codes::CYCLE),
            (
                FlowError::NonExtractSource("F".into()),
                codes::NON_EXTRACT_SOURCE,
            ),
            (FlowError::NonLoadSink("F".into()), codes::NON_LOAD_SINK),
            (
                FlowError::InputArity("F".into(), 0, 1, 1),
                codes::INPUT_ARITY,
            ),
            (
                FlowError::OutputArity("F".into(), 0, 1, 1),
                codes::OUTPUT_ARITY,
            ),
            (
                FlowError::Schema(SchemaError::Bind {
                    op: "F".into(),
                    column: "x".into(),
                }),
                codes::UNRESOLVED_COLUMN,
            ),
            (FlowError::Schema(SchemaError::NotADag), codes::CYCLE),
        ];
        for (err, code) in cases {
            let d = from_flow_error(&f, &err);
            assert_eq!(d.code, code, "for {err:?}");
            assert_eq!(d.severity, Severity::Error);
        }
        // named locations resolve to the actual node
        let d = from_flow_error(&f, &FlowError::NonLoadSink("F".into()));
        assert!(matches!(d.location, Location::Node(_)));
        let d = from_flow_error(&f, &FlowError::NonLoadSink("no such op".into()));
        assert_eq!(d.location, Location::Graph);
    }

    #[test]
    fn rendering_is_rustc_shaped() {
        let mut f = EtlFlow::new("demo");
        let a = f.add_op(Operation::extract("src", schema()));
        let b = f.add_op(Operation::filter(
            "F",
            Expr::col("ghost").gt(Expr::lit_i(0)),
        ));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, b).unwrap();
        f.connect(b, c).unwrap();
        let diags = analyze(&f);
        let text = render(&f, &diags);
        assert!(text.contains("error[PA010]"), "{text}");
        assert!(text.contains("--> node"), "{text}");
        assert!(text.contains("= help:"), "{text}");
        assert!(text.contains("FAIL: 1 error(s)"), "{text}");

        let clean = render(&valid_flow(), &[]);
        assert!(clean.starts_with("ok: 0 error(s)"), "{clean}");
    }

    #[test]
    fn analyze_orders_errors_before_warnings() {
        let mut f = EtlFlow::new("t");
        let a = f.add_op(Operation::extract("src", schema()));
        // dead `price` field (warn) + non-boolean predicate (error)
        let b = f.add_op(Operation::filter("F", Expr::col("id")));
        let p = f.add_op(Operation::project(
            "P",
            vec!["id".to_string(), "name".to_string()],
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(a, b).unwrap();
        f.connect(b, p).unwrap();
        f.connect(p, l).unwrap();
        let diags = analyze(&f);
        assert!(diags.len() >= 2);
        assert_eq!(diags[0].severity, Severity::Error);
        let first_warn = diags.iter().position(|d| d.severity == Severity::Warn);
        let last_error = diags.iter().rposition(|d| d.severity == Severity::Error);
        if let (Some(w), Some(e)) = (first_warn, last_error) {
            assert!(e < w, "errors must sort before warnings: {diags:?}");
        }
    }

    #[test]
    fn severity_parses_and_orders() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        for s in [Severity::Info, Severity::Warn, Severity::Error] {
            assert_eq!(Severity::parse(s.name()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }
}
