//! Schema propagation: computes the output schema of every operation and
//! checks the consistency FCP deployment must preserve (§3 of the paper:
//! "ensuring the consistency between data schemata").

use crate::expr::BindError;
use crate::flow::EtlFlow;
use crate::op::OpKind;
use crate::types::{Attribute, Schema};
use flowgraph::NodeId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Schema-propagation failures, attributed to the offending operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// An expression referenced a missing attribute.
    Bind {
        /// Operation name.
        op: String,
        /// Missing attribute.
        column: String,
    },
    /// A projection/aggregation referenced a missing attribute.
    MissingAttr {
        /// Operation name.
        op: String,
        /// Missing attribute.
        column: String,
    },
    /// An output schema would hold an attribute name twice: a derive
    /// output clashing with an input, a projection keeping a column twice,
    /// or an aggregate repeating an output name.
    DuplicateAttr {
        /// Operation name.
        op: String,
        /// Clashing attribute.
        column: String,
    },
    /// Merge inputs disagree on their schemas.
    MergeMismatch {
        /// Operation name.
        op: String,
    },
    /// The flow was structurally broken (cycle) before schemas could run.
    NotADag,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Bind { op, column } => {
                write!(f, "`{op}`: expression references unknown column `{column}`")
            }
            SchemaError::MissingAttr { op, column } => {
                write!(f, "`{op}`: attribute `{column}` not found in input schema")
            }
            SchemaError::DuplicateAttr { op, column } => {
                write!(f, "`{op}`: attribute `{column}` already exists")
            }
            SchemaError::MergeMismatch { op } => {
                write!(f, "`{op}`: merge inputs have mismatching schemas")
            }
            SchemaError::NotADag => write!(f, "flow graph has a cycle"),
        }
    }
}

impl std::error::Error for SchemaError {}

fn duplicate(op: &str, column: String) -> SchemaError {
    SchemaError::DuplicateAttr {
        op: op.to_string(),
        column,
    }
}

fn bind_err(op: &str, e: BindError) -> SchemaError {
    match e {
        BindError::UnknownColumn(c) => SchemaError::Bind {
            op: op.to_string(),
            column: c,
        },
    }
}

/// Dense schema table indexed by [`flowgraph::NodeId::index`]: the output
/// schema of every live operation, `None` for removed ids. Schemas are
/// `Arc`-shared — passthrough operators (filter, sort, checkpoint, …) reuse
/// their input's allocation. A table carried across pattern applications
/// is brought up to date by [`repair_table`], which keeps the entries of
/// nodes a patch leaves unaffected; when the repair reports `false`, the
/// carried table is replaced by a fresh [`propagate_schemas`].
pub type SchemaTable = Vec<Option<Arc<Schema>>>;

/// Computes the output schema of every operation, in a dense table indexed
/// by [`flowgraph::NodeId::index`]. Operations whose ids were removed hold `None`.
pub fn propagate_schemas(flow: &EtlFlow) -> Result<SchemaTable, SchemaError> {
    let order = flow.topo_order().map_err(|_| SchemaError::NotADag)?;
    let mut out: SchemaTable = vec![None; flow.graph.node_bound()];
    for n in order {
        out[n.index()] = Some(propagate_node(flow, n, &out)?);
    }
    Ok(out)
}

/// Repairs a schema table **in place** after a structural patch, seeded
/// from the nodes the patch touched — the `O(patch)` alternative to
/// [`propagate_schemas`] when the caller applies patterns one at a time and
/// carries the table across steps.
///
/// Computes the seeds' entries, then ripples through successors only while
/// recomputed schemas actually differ from the carried entries; a
/// schema-passthrough patch (checkpoint, dedup, parallelise, …) converges
/// after the added nodes plus one confirming recompute per boundary
/// successor. Entries of removed ids are cleared, matching what a fresh
/// propagation would produce.
///
/// Returns `true` when the table is exact — equal to `propagate_schemas`
/// on `flow`. Returns `false` when the walk gave up (work cap hit — e.g. a
/// patch-created cycle, or seeds that don't cover every added node) or hit
/// a schema error; the table is then unspecified and the caller must run
/// [`propagate_schemas`], whose verdict is the authoritative one. An error
/// is never reported from here because the worklist may transiently
/// combine settled and unsettled inputs at a confluence.
///
/// The worklist is a per-thread buffer reused across calls, and a
/// recomputed schema is built once (see `propagate_one`), so a repair that
/// confirms unchanged schemas allocates only for the schemas it rebuilds.
pub fn repair_table(flow: &EtlFlow, table: &mut SchemaTable, seeds: &[NodeId]) -> bool {
    thread_local! {
        static QUEUE: RefCell<VecDeque<NodeId>> = const { RefCell::new(VecDeque::new()) };
    }
    QUEUE.with_borrow_mut(|queue| {
        queue.clear();
        repair_with(flow, table, seeds, queue)
    })
}

/// [`repair_table`] on an empty worklist buffer.
fn repair_with(
    flow: &EtlFlow,
    table: &mut SchemaTable,
    seeds: &[NodeId],
    queue: &mut VecDeque<NodeId>,
) -> bool {
    let bound = flow.graph.node_bound();
    if table.len() < bound {
        table.resize(bound, None);
    }
    for (i, slot) in table.iter_mut().enumerate() {
        if !flow.graph.contains_node(NodeId::from_raw(i as u32)) {
            *slot = None;
        }
    }
    queue.extend(
        seeds
            .iter()
            .copied()
            .filter(|&n| flow.graph.contains_node(n)),
    );
    // In a DAG each node settles after its predecessors do, so total work is
    // bounded by the patched region's edges; the cap catches patch-created
    // cycles and incomplete seed sets without looping.
    let mut budget = 2 * flow.graph.edge_count() + flow.graph.node_count() + 8;
    while let Some(n) = queue.pop_front() {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        if flow
            .graph
            .predecessors(n)
            .any(|p| table[p.index()].is_none())
        {
            // an added predecessor not yet computed — retry after it
            queue.push_back(n);
            continue;
        }
        let Ok(fresh) = propagate_node(flow, n, table) else {
            return false;
        };
        let same = table[n.index()]
            .as_ref()
            .is_some_and(|old| Arc::ptr_eq(old, &fresh) || **old == *fresh);
        if !same {
            table[n.index()] = Some(fresh);
            queue.extend(flow.graph.successors(n));
        }
    }
    true
}

/// One node's output schema against a partially-filled table (predecessor
/// entries must be present). Shares the input `Arc` for passthrough kinds.
/// Up to [`INLINE_INPUTS`] inputs are gathered on the stack; only a wider
/// merge collects them into a `Vec`.
fn propagate_node(
    flow: &EtlFlow,
    n: NodeId,
    table: &[Option<Arc<Schema>>],
) -> Result<Arc<Schema>, SchemaError> {
    static NO_INPUT: Schema = Schema::empty();
    let op = flow.op(n).expect("live node");
    let input = |p: NodeId| -> &Arc<Schema> {
        table[p.index()]
            .as_ref()
            .expect("topological order guarantees predecessor schemas")
    };
    let preds = flow.graph.predecessors(n);
    let arity = flow.graph.in_degree(n);
    let propagated = if arity <= INLINE_INPUTS {
        let mut inputs = [&NO_INPUT; INLINE_INPUTS];
        for (slot, p) in inputs.iter_mut().zip(preds) {
            *slot = input(p);
        }
        propagate_one(op.name(), &op.kind, &inputs[..arity])?
    } else {
        let inputs: Vec<&Schema> = preds.map(|p| input(p).as_ref()).collect();
        propagate_one(op.name(), &op.kind, &inputs)?
    };
    Ok(match propagated {
        Propagated::Share(i) => {
            let p = flow.graph.predecessors(n).nth(i).expect("shared input");
            Arc::clone(input(p))
        }
        Propagated::Fresh(s) => Arc::new(s),
    })
}

/// Inputs [`propagate_node`] gathers without allocating: every operation
/// but a merge of more than this many branches.
const INLINE_INPUTS: usize = 4;

/// How an operation's output schema relates to its inputs: shared verbatim
/// (passthrough operators) or freshly constructed.
enum Propagated {
    /// Output equals input `i` — callers can share its allocation.
    Share(usize),
    /// A newly constructed schema.
    Fresh(Schema),
}

/// Validates an operation against its input schemas and classifies its
/// output schema. The single place operation → schema semantics live.
fn propagate_one(name: &str, kind: &OpKind, inputs: &[&Schema]) -> Result<Propagated, SchemaError> {
    use Propagated::{Fresh, Share};
    let first = |op: &str| -> Result<&Schema, SchemaError> {
        inputs
            .first()
            .copied()
            .ok_or_else(|| SchemaError::MissingAttr {
                op: op.to_string(),
                column: "<input>".to_string(),
            })
    };
    Ok(match kind {
        OpKind::Extract { schema, .. } => Fresh(schema.clone()),
        OpKind::Load { .. } => {
            first(name)?;
            Share(0)
        }
        OpKind::Filter { predicate } => {
            let s = first(name)?;
            predicate.check_columns(s).map_err(|e| bind_err(name, e))?;
            Share(0)
        }
        OpKind::Project { keep } => {
            let s = first(name)?;
            // `project` names a missing column, or else a repeated one
            Fresh(s.project(keep).map_err(|column| {
                let op = name.to_string();
                if s.contains(&column) {
                    SchemaError::DuplicateAttr { op, column }
                } else {
                    SchemaError::MissingAttr { op, column }
                }
            })?)
        }
        OpKind::Derive { outputs } => {
            let mut s = first(name)?.clone_with_room(outputs.len());
            for (new_name, expr) in outputs {
                let dtype = expr.result_type(&s).map_err(|e| bind_err(name, e))?;
                expr.check_columns(&s).map_err(|e| bind_err(name, e))?;
                s.push(Attribute::new(new_name.as_str(), dtype))
                    .map_err(|column| duplicate(name, column))?;
            }
            Fresh(s)
        }
        OpKind::Convert { column, to } => {
            let s = first(name)?;
            if !s.contains(column) {
                return Err(SchemaError::MissingAttr {
                    op: name.to_string(),
                    column: column.clone(),
                });
            }
            Fresh(Schema::new(
                s.attrs()
                    .iter()
                    .map(|a| {
                        let mut a = a.clone();
                        if a.name() == column {
                            a.dtype = *to;
                        }
                        a
                    })
                    .collect(),
            ))
        }
        OpKind::Join {
            left_key,
            right_key,
        } => {
            if inputs.len() < 2 {
                return Err(SchemaError::MissingAttr {
                    op: name.to_string(),
                    column: "<second input>".to_string(),
                });
            }
            let (l, r) = (inputs[0], inputs[1]);
            if !l.contains(left_key) {
                return Err(SchemaError::MissingAttr {
                    op: name.to_string(),
                    column: left_key.clone(),
                });
            }
            if !r.contains(right_key) {
                return Err(SchemaError::MissingAttr {
                    op: name.to_string(),
                    column: right_key.clone(),
                });
            }
            Fresh(l.join_concat(r))
        }
        OpKind::Aggregate { group_by, aggs } => {
            let s = first(name)?;
            let mut attrs = Vec::new();
            for g in group_by {
                attrs.push(
                    s.attr(g)
                        .ok_or_else(|| SchemaError::MissingAttr {
                            op: name.to_string(),
                            column: g.clone(),
                        })?
                        .clone(),
                );
            }
            for (out_name, func, input_attr) in aggs {
                let input = s.attr(input_attr).ok_or_else(|| SchemaError::MissingAttr {
                    op: name.to_string(),
                    column: input_attr.clone(),
                })?;
                attrs.push(Attribute::new(
                    out_name.as_str(),
                    func.result_type(input.dtype),
                ));
            }
            Fresh(Schema::try_new(attrs).map_err(|column| duplicate(name, column))?)
        }
        OpKind::Sort { by } => {
            let s = first(name)?;
            for b in by {
                if !s.contains(b) {
                    return Err(SchemaError::MissingAttr {
                        op: name.to_string(),
                        column: b.clone(),
                    });
                }
            }
            Share(0)
        }
        OpKind::Router { predicate } => {
            let s = first(name)?;
            predicate.check_columns(s).map_err(|e| bind_err(name, e))?;
            Share(0)
        }
        OpKind::Merge => {
            let s = first(name)?;
            for other in &inputs[1..] {
                if !same_shape(s, other) {
                    return Err(SchemaError::MergeMismatch {
                        op: name.to_string(),
                    });
                }
            }
            Share(0)
        }
        OpKind::Dedup { keys } => {
            let s = first(name)?;
            for k in keys {
                if !s.contains(k) {
                    return Err(SchemaError::MissingAttr {
                        op: name.to_string(),
                        column: k.clone(),
                    });
                }
            }
            Share(0)
        }
        OpKind::FilterNulls { columns } => {
            let s = first(name)?;
            for c in columns {
                if !s.contains(c) {
                    return Err(SchemaError::MissingAttr {
                        op: name.to_string(),
                        column: c.to_string(),
                    });
                }
            }
            // Downstream, the filtered columns (all when none are listed)
            // are guaranteed non-null.
            Fresh(s.with_non_nullable(columns))
        }
        OpKind::Crosscheck { key, .. } => {
            let s = first(name)?;
            if !s.contains(key) {
                return Err(SchemaError::MissingAttr {
                    op: name.to_string(),
                    column: key.clone(),
                });
            }
            Share(0)
        }
        OpKind::Split | OpKind::Partition | OpKind::Checkpoint { .. } | OpKind::Encrypt => {
            first(name)?;
            Share(0)
        }
    })
}

/// One input column of an operation: attribute position `attr` in the
/// output schema of the operation's `input`-th predecessor (predecessor
/// order, as [`propagate_schemas`] reads the inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnRef {
    /// Predecessor index.
    pub input: usize,
    /// Attribute position in that predecessor's output schema.
    pub attr: usize,
}

/// Where one output column of an operation comes from. See
/// [`column_sources`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnSource {
    /// An extract attribute: the value enters the flow here.
    Root,
    /// The value passes through unchanged. A join may rename it; a merge
    /// unions the same position of every input.
    Copy(Vec<ColumnRef>),
    /// A value computed row by row from the referenced columns: a derive
    /// output, or a converted column.
    Derived(Vec<ColumnRef>),
    /// An aggregate over the referenced column.
    Aggregated(Vec<ColumnRef>),
}

impl ColumnSource {
    /// The input columns this column is computed from (none for a root).
    pub fn inputs(&self) -> &[ColumnRef] {
        match self {
            ColumnSource::Root => &[],
            ColumnSource::Copy(refs)
            | ColumnSource::Derived(refs)
            | ColumnSource::Aggregated(refs) => refs,
        }
    }
}

/// Where each output column of an operation comes from, one entry per
/// attribute of the output schema [`propagate_schemas`] computes for it, in
/// the same order. This is the column-level half of `propagate_one`: the
/// one statement of what each operator does to each column, which lineage,
/// taint and dead-field analysis read instead of restating it.
///
/// `inputs` are the operation's input schemas in predecessor order, ones
/// it propagates over without error. A join's right-hand columns are the
/// positions past the left input's; their (possibly renamed) names are
/// decided by [`Schema::join_concat`] alone. A derive output that reads an
/// earlier output of the same derive refers to that output's own inputs.
pub fn column_sources(kind: &OpKind, inputs: &[&Schema]) -> Vec<ColumnSource> {
    use ColumnSource::{Aggregated, Copy, Derived, Root};
    let width = |input: usize| inputs.get(input).map_or(0, |s| s.len());
    let copy_all = |input: usize| -> Vec<ColumnSource> {
        (0..width(input))
            .map(|attr| Copy(vec![ColumnRef { input, attr }]))
            .collect()
    };
    // The named attribute of the first input; absent only when the
    // operation does not propagate over `inputs`.
    let named = |name: &str| -> Vec<ColumnRef> {
        inputs
            .first()
            .and_then(|s| s.index_of(name))
            .map(|attr| ColumnRef { input: 0, attr })
            .into_iter()
            .collect()
    };
    match kind {
        OpKind::Extract { schema, .. } => vec![Root; schema.len()],
        OpKind::Load { .. }
        | OpKind::Filter { .. }
        | OpKind::Router { .. }
        | OpKind::Sort { .. }
        | OpKind::Dedup { .. }
        | OpKind::FilterNulls { .. }
        | OpKind::Crosscheck { .. }
        | OpKind::Split
        | OpKind::Partition
        | OpKind::Checkpoint { .. }
        | OpKind::Encrypt => copy_all(0),
        OpKind::Convert { column, .. } => {
            let mut out = copy_all(0);
            if let Some(r) = named(column).pop() {
                out[r.attr] = Derived(vec![r]);
            }
            out
        }
        OpKind::Project { keep } => keep.iter().map(|k| Copy(named(k))).collect(),
        OpKind::Derive { outputs } => {
            let mut out = copy_all(0);
            let base = out.len();
            for (i, (_, expr)) in outputs.iter().enumerate() {
                let mut refs = Vec::new();
                for c in expr.columns() {
                    match outputs[..i].iter().position(|(name, _)| name == c) {
                        Some(j) => refs.extend_from_slice(out[base + j].inputs()),
                        None => refs.extend(named(c)),
                    }
                }
                out.push(Derived(refs));
            }
            out
        }
        OpKind::Join { .. } => copy_all(0).into_iter().chain(copy_all(1)).collect(),
        OpKind::Aggregate { group_by, aggs } => group_by
            .iter()
            .map(|g| Copy(named(g)))
            .chain(aggs.iter().map(|(_, _, input)| Aggregated(named(input))))
            .collect(),
        OpKind::Merge => (0..width(0))
            .map(|attr| {
                Copy(
                    (0..inputs.len())
                        .map(|input| ColumnRef { input, attr })
                        .collect(),
                )
            })
            .collect(),
    }
}

/// Merge compatibility: same attribute names and types, position-wise
/// (nullability may differ — a cleaned branch unions with an uncleaned one).
fn same_shape(a: &Schema, b: &Schema) -> bool {
    a.len() == b.len()
        && a.attrs()
            .iter()
            .zip(b.attrs())
            .all(|(x, y)| x.name() == y.name() && x.dtype == y.dtype)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::op::{AggFunc, Operation};
    use crate::types::{Attribute, DataType};

    fn base_schema() -> Schema {
        Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("qty", DataType::Int),
            Attribute::new("price", DataType::Float),
        ])
    }

    fn flow_one(op: Operation) -> EtlFlow {
        let mut f = EtlFlow::new("t");
        let e = f.add_op(Operation::extract("s", base_schema()));
        let m = f.add_op(op);
        let l = f.add_op(Operation::load("dw"));
        f.connect(e, m).unwrap();
        f.connect(m, l).unwrap();
        f
    }

    fn schema_of(f: &EtlFlow, idx: usize) -> Schema {
        let schemas = propagate_schemas(f).unwrap();
        schemas[idx].as_deref().unwrap().clone()
    }

    #[test]
    fn extract_passes_source_schema() {
        let f = flow_one(Operation::filter("f", Expr::col("qty").gt(Expr::lit_i(0))));
        assert_eq!(schema_of(&f, 0), base_schema());
        assert_eq!(schema_of(&f, 2), base_schema()); // load passthrough
    }

    #[test]
    fn derive_extends_schema() {
        let f = flow_one(Operation::derive(
            "d",
            vec![("total".into(), Expr::col("qty").mul(Expr::col("price")))],
        ));
        let s = schema_of(&f, 1);
        assert_eq!(s.len(), 4);
        assert_eq!(s.attr("total").unwrap().dtype, DataType::Float);
    }

    #[test]
    fn derive_duplicate_rejected() {
        let f = flow_one(Operation::derive("d", vec![("qty".into(), Expr::lit_i(0))]));
        assert!(matches!(
            propagate_schemas(&f),
            Err(SchemaError::DuplicateAttr { .. })
        ));
    }

    #[test]
    fn filter_binds_predicate() {
        let f = flow_one(Operation::filter(
            "f",
            Expr::col("ghost").gt(Expr::lit_i(0)),
        ));
        match propagate_schemas(&f) {
            Err(SchemaError::Bind { op, column }) => {
                assert_eq!(op, "f");
                assert_eq!(column, "ghost");
            }
            other => panic!("expected bind error, got {other:?}"),
        }
    }

    #[test]
    fn project_subsets() {
        let f = flow_one(Operation::project("p", vec!["id".into()]));
        assert_eq!(schema_of(&f, 1).len(), 1);
    }

    #[test]
    fn project_missing_attr() {
        let f = flow_one(Operation::project("p", vec!["nope".into()]));
        assert!(matches!(
            propagate_schemas(&f),
            Err(SchemaError::MissingAttr { .. })
        ));
    }

    #[test]
    fn project_keeping_a_column_twice_is_a_duplicate_not_a_panic() {
        let f = flow_one(Operation::project(
            "p",
            vec!["id".into(), "qty".into(), "id".into()],
        ));
        assert_eq!(
            propagate_schemas(&f),
            Err(SchemaError::DuplicateAttr {
                op: "p".into(),
                column: "id".into()
            })
        );
    }

    #[test]
    fn aggregate_repeating_an_output_name_is_a_duplicate_not_a_panic() {
        for (group_by, aggs) in [
            (
                vec!["id".to_string()],
                vec![
                    ("n".to_string(), AggFunc::Count, "qty".to_string()),
                    ("n".to_string(), AggFunc::Sum, "price".to_string()),
                ],
            ),
            (
                vec!["id".to_string()],
                vec![("id".to_string(), AggFunc::Count, "qty".to_string())],
            ),
        ] {
            let agg = OpKind::Aggregate { group_by, aggs };
            let f = flow_one(Operation::new("agg", agg));
            assert!(
                matches!(
                    propagate_schemas(&f),
                    Err(SchemaError::DuplicateAttr { ref op, .. }) if op == "agg"
                ),
                "{:?}",
                propagate_schemas(&f)
            );
        }
    }

    #[test]
    fn aggregate_schema() {
        let f = flow_one(Operation::new(
            "agg",
            OpKind::Aggregate {
                group_by: vec!["id".into()],
                aggs: vec![
                    ("n".into(), AggFunc::Count, "qty".into()),
                    ("total".into(), AggFunc::Sum, "price".into()),
                ],
            },
        ));
        let s = schema_of(&f, 1);
        assert_eq!(s.len(), 3);
        assert_eq!(s.attr("n").unwrap().dtype, DataType::Int);
        assert_eq!(s.attr("total").unwrap().dtype, DataType::Float);
    }

    #[test]
    fn join_concatenates() {
        let mut f = EtlFlow::new("j");
        let e1 = f.add_op(Operation::extract("a", base_schema()));
        let e2 = f.add_op(Operation::extract(
            "b",
            Schema::new(vec![
                Attribute::required("id", DataType::Int),
                Attribute::new("city", DataType::Str),
            ]),
        ));
        let j = f.add_op(Operation::new(
            "join",
            OpKind::Join {
                left_key: "id".into(),
                right_key: "id".into(),
            },
        ));
        let l = f.add_op(Operation::load("dw"));
        f.connect(e1, j).unwrap();
        f.connect(e2, j).unwrap();
        f.connect(j, l).unwrap();
        let s = schema_of(&f, j.index());
        assert_eq!(s.len(), 5);
        assert!(s.contains("r_id"));
        assert!(s.contains("city"));
    }

    #[test]
    fn merge_requires_same_shape() {
        let mut f = EtlFlow::new("m");
        let e1 = f.add_op(Operation::extract("a", base_schema()));
        let e2 = f.add_op(Operation::extract(
            "b",
            Schema::new(vec![Attribute::new("other", DataType::Str)]),
        ));
        let m = f.add_op(Operation::new("merge", OpKind::Merge));
        let l = f.add_op(Operation::load("dw"));
        f.connect(e1, m).unwrap();
        f.connect(e2, m).unwrap();
        f.connect(m, l).unwrap();
        assert!(matches!(
            propagate_schemas(&f),
            Err(SchemaError::MergeMismatch { .. })
        ));
    }

    #[test]
    fn merge_tolerates_nullability_difference() {
        let mut f = EtlFlow::new("m");
        let relaxed = Schema::new(vec![Attribute::new("id", DataType::Int)]);
        let strict = Schema::new(vec![Attribute::required("id", DataType::Int)]);
        let e1 = f.add_op(Operation::extract("a", relaxed));
        let e2 = f.add_op(Operation::extract("b", strict));
        let m = f.add_op(Operation::new("merge", OpKind::Merge));
        let l = f.add_op(Operation::load("dw"));
        f.connect(e1, m).unwrap();
        f.connect(e2, m).unwrap();
        f.connect(m, l).unwrap();
        assert!(propagate_schemas(&f).is_ok());
    }

    #[test]
    fn filter_nulls_tightens_nullability() {
        let f = flow_one(Operation::new(
            "fn",
            OpKind::FilterNulls {
                columns: vec!["qty".into()],
            },
        ));
        let s = schema_of(&f, 1);
        assert!(!s.attr("qty").unwrap().nullable);
        assert!(s.attr("price").unwrap().nullable);
    }

    #[test]
    fn filter_nulls_empty_means_all() {
        let f = flow_one(Operation::new(
            "fn",
            OpKind::FilterNulls { columns: vec![] },
        ));
        let s = schema_of(&f, 1);
        assert!(s.attrs().iter().all(|a| !a.nullable));
    }

    #[test]
    fn passthrough_shares_schema_allocation() {
        let f = flow_one(Operation::filter("f", Expr::col("qty").gt(Expr::lit_i(0))));
        let schemas = propagate_schemas(&f).unwrap();
        let (e, fi, l) = (&schemas[0], &schemas[1], &schemas[2]);
        // extract → filter → load: both passthroughs reuse the extract's Arc.
        assert!(Arc::ptr_eq(e.as_ref().unwrap(), fi.as_ref().unwrap()));
        assert!(Arc::ptr_eq(e.as_ref().unwrap(), l.as_ref().unwrap()));
    }

    /// Forks `base` and interposes `op` on the edge out of its filter,
    /// returning the fork and the nodes the patch touched.
    fn interpose_after_filter(base: &EtlFlow, op: Operation) -> (EtlFlow, Vec<NodeId>) {
        let mut fork = base.fork("alt");
        let filter = fork.ops_of_kind("filter")[0];
        let edge = fork.graph.out_edges(filter).next().unwrap();
        fork.graph
            .interpose_on_edge(
                edge,
                op,
                crate::flow::Channel::default(),
                crate::flow::Channel::default(),
            )
            .unwrap();
        let touched = fork.delta_since(base).touched_nodes;
        assert!(!touched.is_empty());
        (fork, touched)
    }

    #[test]
    fn delta_propagation_equals_full_recompute() {
        let base = flow_one(Operation::filter("f", Expr::col("qty").gt(Expr::lit_i(0))));
        let base_table = propagate_schemas(&base).unwrap();
        // A passthrough checkpoint and a schema-extending derive.
        for op in [
            Operation::new("cp", OpKind::Checkpoint { tag: "cp".into() }),
            Operation::derive(
                "d",
                vec![("total".into(), Expr::col("qty").mul(Expr::col("price")))],
            ),
        ] {
            let (fork, touched) = interpose_after_filter(&base, op);
            let mut table = base_table.clone();
            assert!(repair_table(&fork, &mut table, &touched));
            let full = propagate_schemas(&fork).unwrap();
            assert_eq!(table.len(), full.len());
            for (a, b) in table.iter().zip(full.iter()) {
                assert_eq!(a.as_deref(), b.as_deref());
            }
            // The untouched prefix keeps the base table's allocation.
            let extract = fork.ops_of_kind("extract")[0];
            assert!(Arc::ptr_eq(
                table[extract.index()].as_ref().unwrap(),
                base_table[extract.index()].as_ref().unwrap()
            ));
        }
    }

    #[test]
    fn repair_reports_a_ghost_column_as_inexact() {
        let base = flow_one(Operation::filter("f", Expr::col("qty").gt(Expr::lit_i(0))));
        let mut table = propagate_schemas(&base).unwrap();
        let ghost = Operation::filter("g", Expr::col("ghost").gt(Expr::lit_i(0)));
        let (fork, touched) = interpose_after_filter(&base, ghost);
        assert!(!repair_table(&fork, &mut table, &touched));
        assert!(matches!(
            propagate_schemas(&fork),
            Err(SchemaError::Bind { .. })
        ));
    }

    #[test]
    fn repair_gives_up_on_a_patch_created_cycle() {
        let base = flow_one(Operation::filter("f", Expr::col("qty").gt(Expr::lit_i(0))));
        let mut table = propagate_schemas(&base).unwrap();
        let cp = Operation::new("cp", OpKind::Checkpoint { tag: "cp".into() });
        let (mut fork, _) = interpose_after_filter(&base, cp);
        // Close a loop through a new node: neither end of it ever settles.
        let cp = fork.ops_of_kind("checkpoint")[0];
        let back = fork.add_op(Operation::new(
            "back",
            OpKind::Checkpoint { tag: "back".into() },
        ));
        fork.connect(cp, back).unwrap();
        fork.connect(back, cp).unwrap();
        let touched = fork.delta_since(&base).touched_nodes;
        assert!(!repair_table(&fork, &mut table, &touched));
        assert_eq!(propagate_schemas(&fork), Err(SchemaError::NotADag));
    }

    #[test]
    fn column_sources_follow_join_positions_and_derive_chains() {
        let left = base_schema();
        let right = Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("city", DataType::Str),
        ]);
        let join = OpKind::Join {
            left_key: "id".into(),
            right_key: "id".into(),
        };
        let sources = column_sources(&join, &[&left, &right]);
        // (id, qty, price, r_id, city): right-hand columns sit past the left's.
        assert_eq!(sources.len(), 5);
        assert_eq!(
            sources[3],
            ColumnSource::Copy(vec![ColumnRef { input: 1, attr: 0 }])
        );

        // `twice` reads the earlier output `total`, so it refers to
        // `total`'s own inputs (qty, price).
        let derive = OpKind::Derive {
            outputs: vec![
                ("total".into(), Expr::col("qty").mul(Expr::col("price"))),
                ("twice".into(), Expr::col("total").mul(Expr::lit_i(2))),
            ],
        };
        let sources = column_sources(&derive, &[&left]);
        let qty_price = vec![
            ColumnRef { input: 0, attr: 2 },
            ColumnRef { input: 0, attr: 1 },
        ];
        assert_eq!(sources[3], ColumnSource::Derived(qty_price.clone()));
        assert_eq!(sources[4], ColumnSource::Derived(qty_price));
    }

    #[test]
    fn convert_changes_type() {
        let f = flow_one(Operation::new(
            "cv",
            OpKind::Convert {
                column: "qty".into(),
                to: DataType::Float,
            },
        ));
        assert_eq!(schema_of(&f, 1).attr("qty").unwrap().dtype, DataType::Float);
    }
}
