//! Attribute-level lineage and the sensitive-data taint pass.
//!
//! Lineage answers "where does this column come from?". It does not restate
//! what operators do to columns: [`Lineage::build`] walks the flow once and
//! reads each operation's [`etl_model::column_sources`], the statement that
//! sits beside schema propagation, so a new operator kind or a change to
//! join renaming is made in one place. Every output column of every
//! operation keeps its [`ColumnSource`] and the set of lineage roots it
//! originates from: extract attributes, and derived columns (derive
//! outputs, converted columns), which also carry their inputs' origins.
//!
//! Two analyses read the result instead of walking the flow again. The
//! taint pass follows columns marked [`etl_model::Attribute::sensitive`]
//! toward the loads and emits `PA03x`/`PA04x` diagnostics when tainted data
//! reaches a load without crossing an encryption boundary, each carrying a
//! rustc-style lineage trace in its notes. Dead-field analysis (PA014) asks
//! whether any operation reads a column whose origins contain a field.

use crate::{codes, Diagnostic, Location};
use etl_model::{
    column_sources, ColumnRef, ColumnSource, EtlFlow, NodeId, OpKind, Schema, SchemaTable,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One lineage root: an attribute of an extract's schema, or a column a
/// derive or convert computes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceColumn {
    /// The operation that introduces the column.
    pub node: NodeId,
    /// The attribute name there.
    pub column: String,
}

/// One output column of one operation.
#[derive(Debug, Clone)]
struct Column {
    name: String,
    source: ColumnSource,
    origins: Arc<BTreeSet<SourceColumn>>,
}

/// The columns of one operation, by output position.
#[derive(Debug, Clone)]
struct NodeColumns {
    /// Predecessors, in the order [`etl_model::ColumnRef::input`] indexes.
    preds: Vec<NodeId>,
    columns: Vec<Column>,
}

/// The attribute-level lineage of a flow: for every operation, every output
/// column with its source and the lineage roots it originates from.
/// Aggregations keep provenance (a `SUM(amount)` originates from `amount`);
/// the taint pass — not lineage — is where aggregation sanitizes.
#[derive(Debug)]
pub struct Lineage {
    /// The topological order the table was built in.
    order: Vec<NodeId>,
    per_node: Vec<Option<NodeColumns>>,
}

impl Lineage {
    /// Builds the lineage table over an already-propagated schema table,
    /// which names the columns [`column_sources`] places. Returns `None`
    /// when the flow is cyclic — schemas cannot have propagated either, and
    /// well-formedness owns that finding.
    pub fn build(flow: &EtlFlow, schemas: &SchemaTable) -> Option<Lineage> {
        let schema = |n: NodeId| -> Option<&Schema> { schemas.get(n.index())?.as_deref() };
        let order = flow.topo_order().ok()?;
        let mut per_node: Vec<Option<NodeColumns>> = vec![None; flow.graph.node_bound()];
        for &n in &order {
            let op = flow.op(n)?;
            let preds: Vec<NodeId> = flow.graph.predecessors(n).collect();
            // `None` when the schema table does not cover the flow.
            let inputs = preds
                .iter()
                .map(|&p| schema(p))
                .collect::<Option<Vec<_>>>()?;
            let columns = column_sources(&op.kind, &inputs)
                .into_iter()
                .zip(schema(n)?.attrs())
                .map(|(source, attr)| {
                    let input = |r: &ColumnRef| {
                        let p = per_node[preds.get(r.input)?.index()].as_ref()?;
                        p.columns.get(r.attr)
                    };
                    let origins = match (&source, source.inputs()) {
                        // Most columns are plain copies: share the input's set.
                        (ColumnSource::Copy(_), [r]) => {
                            input(r).map(|c| Arc::clone(&c.origins)).unwrap_or_default()
                        }
                        _ => {
                            let mut origins = BTreeSet::new();
                            if matches!(source, ColumnSource::Root | ColumnSource::Derived(_)) {
                                origins.insert(SourceColumn {
                                    node: n,
                                    column: attr.name().to_string(),
                                });
                            }
                            for c in source.inputs().iter().filter_map(input) {
                                origins.extend(c.origins.iter().cloned());
                            }
                            Arc::new(origins)
                        }
                    };
                    Column {
                        name: attr.name().to_string(),
                        source,
                        origins,
                    }
                })
                .collect();
            per_node[n.index()] = Some(NodeColumns { preds, columns });
        }
        Some(Lineage { order, per_node })
    }

    fn node(&self, node: NodeId) -> Option<&NodeColumns> {
        self.per_node.get(node.index())?.as_ref()
    }

    /// The lineage roots one output column of `node` originates from.
    /// Empty when the node or column is unknown.
    pub fn origins(&self, node: NodeId, column: &str) -> impl Iterator<Item = &SourceColumn> {
        self.node(node)
            .and_then(|n| n.columns.iter().find(|c| c.name == column))
            .into_iter()
            .flat_map(|c| c.origins.iter())
    }

    /// Every output column of `node`, in schema order, with its origins.
    pub fn columns(&self, node: NodeId) -> impl Iterator<Item = (&str, &BTreeSet<SourceColumn>)> {
        self.node(node)
            .into_iter()
            .flat_map(|n| n.columns.iter().map(|c| (c.name.as_str(), &*c.origins)))
    }
}

/// Taint state of one (column, origin) pair at one node.
#[derive(Debug, Clone)]
struct TaintEntry {
    /// Crossed an in-flow `ENCRYPT` operation on the way here.
    protected: bool,
    /// The `(node, column)` this taint arrived from — `None` at the source.
    parent: Option<(NodeId, String)>,
}

/// column → origin → state, per node.
type NodeTaint = BTreeMap<String, BTreeMap<SourceColumn, TaintEntry>>;

/// The sensitive-data taint pass (PA030/PA031/PA040/PA041).
///
/// Columns marked [`etl_model::Attribute::sensitive`] on extract schemata
/// are tracked through the flow's [`Lineage`]. Aggregation sanitizes (a sum
/// over a sensitive column is not itself sensitive); an in-flow `ENCRYPT`
/// operation or the graph-wide `encrypted` configuration protects. A
/// sensitive column reaching a load unprotected is PA030 (warn, with the
/// full lineage trace in notes); reaching it protected is PA031 (info).
/// Redundant in-flow encryption under an encrypted graph is PA040;
/// encryption configured with nothing sensitive to protect is PA041.
pub fn taint(flow: &EtlFlow, schemas: &SchemaTable) -> Vec<Diagnostic> {
    Lineage::build(flow, schemas).map_or_else(Vec::new, |lineage| taint_with(flow, &lineage))
}

/// [`taint`] over an already-built lineage table.
pub(crate) fn taint_with(flow: &EtlFlow, lineage: &Lineage) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut per_node: Vec<Option<NodeTaint>> = vec![None; flow.graph.node_bound()];
    let mut sensitive_sources = 0usize;
    for &n in &lineage.order {
        let (Some(op), Some(node)) = (flow.op(n), lineage.node(n)) else {
            continue;
        };
        let mut taints: NodeTaint = BTreeMap::new();
        for (i, col) in node.columns.iter().enumerate() {
            let refs = match &col.source {
                ColumnSource::Root => {
                    let sensitive = matches!(&op.kind, OpKind::Extract { schema, .. }
                        if schema.attrs().get(i).is_some_and(|a| a.sensitive));
                    if sensitive {
                        sensitive_sources += 1;
                        let origin = SourceColumn {
                            node: n,
                            column: col.name.clone(),
                        };
                        let source = TaintEntry {
                            protected: false,
                            parent: None,
                        };
                        taints
                            .entry(col.name.clone())
                            .or_default()
                            .insert(origin, source);
                    }
                    continue;
                }
                ColumnSource::Aggregated(_) => continue, // aggregation sanitizes
                ColumnSource::Copy(refs) | ColumnSource::Derived(refs) => refs,
            };
            for r in refs {
                // The referenced input column and the taint it carries.
                let Some((pred, in_col, incoming)) = node.preds.get(r.input).and_then(|&p| {
                    let name = &lineage.node(p)?.columns.get(r.attr)?.name;
                    Some((p, name, per_node[p.index()].as_ref()?.get(name)?))
                }) else {
                    continue;
                };
                let entry = taints.entry(col.name.clone()).or_default();
                for (origin, state) in incoming {
                    let protected = state.protected || matches!(op.kind, OpKind::Encrypt);
                    let parent = Some((pred, in_col.clone()));
                    let e = entry.entry(origin.clone()).or_insert(TaintEntry {
                        protected,
                        parent: parent.clone(),
                    });
                    // An unprotected path dominates a protected one.
                    if !protected {
                        e.protected = false;
                        e.parent = parent;
                    }
                }
            }
        }
        if matches!(op.kind, OpKind::Load { .. }) {
            for (col, origins) in &taints {
                for (origin, state) in origins {
                    out.push(leak_diagnostic(flow, &per_node, n, col, origin, state));
                }
            }
        }
        per_node[n.index()] = Some(taints);
    }
    // Flow-level encryption hygiene.
    if flow.config.encrypted {
        for (n, op) in flow.graph.nodes() {
            if matches!(op.kind, OpKind::Encrypt) {
                out.push(
                    Diagnostic::warn(
                        codes::REDUNDANT_ENCRYPTION,
                        Location::Node(n),
                        format!(
                            "in-flow encryption `{}` is redundant: every channel is \
                             already encrypted by the flow configuration",
                            op.name()
                        ),
                    )
                    .with_suggestion(
                        "remove the ENCRYPT operation or drop the flow-wide encryption",
                    ),
                );
            }
        }
        if sensitive_sources == 0 {
            out.push(
                Diagnostic::info(
                    codes::UNUSED_ENCRYPTION,
                    Location::Graph,
                    "flow channels are encrypted but no source column is marked sensitive",
                )
                .with_suggestion(
                    "mark the attributes that need protection as sensitive, or reconsider \
                     the encryption performance tax",
                ),
            );
        }
    }
    out
}

/// Builds the PA030/PA031 diagnostic for one tainted column arriving at a
/// load, with the origin note and full hop-by-hop lineage trace.
fn leak_diagnostic(
    flow: &EtlFlow,
    per_node: &[Option<NodeTaint>],
    load: NodeId,
    column: &str,
    origin: &SourceColumn,
    state: &TaintEntry,
) -> Diagnostic {
    let name_of = |n: NodeId| {
        flow.op(n)
            .map(|o| o.name().to_string())
            .unwrap_or_else(|| n.to_string())
    };
    let load_name = name_of(load);
    let source_name = name_of(origin.node);
    // Walk parent pointers back to the origin, then reverse into a trace.
    let mut hops: Vec<(NodeId, String)> = vec![(load, column.to_string())];
    let mut cursor = state.parent.clone();
    while let Some((n, col)) = cursor {
        hops.push((n, col.clone()));
        cursor = per_node
            .get(n.index())
            .and_then(|t| t.as_ref())
            .and_then(|t| t.get(&col))
            .and_then(|origins| origins.get(origin))
            .and_then(|e| e.parent.clone());
    }
    hops.reverse();
    let trace = hops
        .iter()
        .enumerate()
        .map(|(i, (n, col))| {
            let prev = i.checked_sub(1).map(|j| &hops[j].1);
            if i == 0 || i + 1 == hops.len() || prev != Some(col) {
                format!("`{}`.`{col}`", name_of(*n))
            } else {
                format!("`{}`", name_of(*n))
            }
        })
        .collect::<Vec<_>>()
        .join(" → ");
    let protected = state.protected || flow.config.encrypted;
    let d = if protected {
        let how = if state.protected {
            "in-flow encryption"
        } else {
            "the encrypted-channels configuration"
        };
        Diagnostic::info(
            codes::SENSITIVE_EXPOSURE,
            Location::Node(load),
            format!(
                "sensitive column `{}` from `{source_name}` reaches load \
                 `{load_name}` as `{column}`, protected by {how}",
                origin.column
            ),
        )
    } else {
        Diagnostic::warn(
            codes::SENSITIVE_LEAK,
            Location::Node(load),
            format!(
                "sensitive column `{}` from `{source_name}` reaches load \
                 `{load_name}` as `{column}` over unencrypted channels",
                origin.column
            ),
        )
        .with_suggestion(
            "apply the EncryptChannels pattern, insert an ENCRYPT before the load, \
             or aggregate the column away",
        )
    };
    d.with_note(format!(
        "`{}` is marked sensitive at `{source_name}`",
        origin.column
    ))
    .with_note(format!("lineage: {trace}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codes, has_errors, Severity};
    use etl_model::expr::Expr;
    use etl_model::{propagate_schemas, AggFunc, Attribute, DataType, Operation};

    fn sensitive_schema() -> Schema {
        Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::required("card", DataType::Str).mark_sensitive(),
            Attribute::new("amount", DataType::Float),
        ])
    }

    /// extract(card sensitive) → filter → load, nothing encrypted.
    fn leaking_flow() -> EtlFlow {
        let mut f = EtlFlow::new("leaky");
        let a = f.add_op(Operation::extract("purchases", sensitive_schema()));
        let b = f.add_op(Operation::filter("F", Expr::col("id").gt(Expr::lit_i(0))));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, b).unwrap();
        f.connect(b, c).unwrap();
        f
    }

    fn taint_of(flow: &EtlFlow) -> Vec<Diagnostic> {
        let schemas = propagate_schemas(flow).unwrap();
        taint(flow, &schemas)
    }

    #[test]
    fn lineage_follows_copies_and_join_renames() {
        let mut f = EtlFlow::new("j");
        let l = f.add_op(Operation::extract("orders", sensitive_schema()));
        let r = f.add_op(Operation::extract(
            "refs",
            Schema::new(vec![
                Attribute::required("id", DataType::Int),
                Attribute::new("rate", DataType::Float),
            ]),
        ));
        let j = f.add_op(Operation::new(
            "JOIN on id",
            OpKind::Join {
                left_key: "id".into(),
                right_key: "id".into(),
            },
        ));
        let load = f.add_op(Operation::load("dw"));
        f.connect(l, j).unwrap();
        f.connect(r, j).unwrap();
        f.connect(j, load).unwrap();
        let schemas = propagate_schemas(&f).unwrap();
        let lin = Lineage::build(&f, &schemas).unwrap();
        // `card` at the load traces to the left extract.
        let origins: Vec<_> = lin.origins(load, "card").collect();
        assert_eq!(
            origins,
            vec![&SourceColumn {
                node: l,
                column: "card".into()
            }]
        );
        // the clashing right `id` was renamed `r_id` and traces right.
        let origins: Vec<_> = lin.origins(load, "r_id").collect();
        assert_eq!(
            origins,
            vec![&SourceColumn {
                node: r,
                column: "id".into()
            }]
        );
    }

    #[test]
    fn unprotected_sensitive_column_leaks_pa030_with_trace() {
        let f = leaking_flow();
        let diags = taint_of(&f);
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(d.code, codes::SENSITIVE_LEAK);
        assert_eq!(d.severity, Severity::Warn, "leaks must not gate sessions");
        assert!(d.message.contains("`card`"));
        assert_eq!(d.notes.len(), 2);
        assert!(d.notes[0].contains("marked sensitive at `EXTRACT purchases`"));
        assert_eq!(
            d.notes[1],
            "lineage: `EXTRACT purchases`.`card` → `F` → `LOAD dw`.`card`"
        );
        assert!(d.suggestion.as_deref().unwrap().contains("EncryptChannels"));
        // a full analyze carries the finding and stays sessionable
        let all = crate::analyze(&f);
        assert!(all.iter().any(|d| d.code == codes::SENSITIVE_LEAK));
        assert!(!has_errors(&all));
    }

    #[test]
    fn encrypted_config_downgrades_to_pa031() {
        let mut f = leaking_flow();
        f.config.encrypted = true;
        let diags = taint_of(&f);
        let codes_seen: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::SENSITIVE_EXPOSURE));
        assert!(!codes_seen.contains(&codes::SENSITIVE_LEAK));
        assert!(!codes_seen.contains(&codes::UNUSED_ENCRYPTION));
    }

    #[test]
    fn in_flow_encrypt_protects_downstream() {
        let mut f = EtlFlow::new("enc");
        let a = f.add_op(Operation::extract("purchases", sensitive_schema()));
        let e = f.add_op(Operation::new("ENCRYPT pii", OpKind::Encrypt));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, e).unwrap();
        f.connect(e, c).unwrap();
        let diags = taint_of(&f);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::SENSITIVE_EXPOSURE);
        assert_eq!(diags[0].severity, Severity::Info);
    }

    #[test]
    fn aggregation_sanitizes_but_group_by_does_not() {
        let mut f = EtlFlow::new("agg");
        let a = f.add_op(Operation::extract("purchases", sensitive_schema()));
        let g = f.add_op(Operation::new(
            "GROUP BY id",
            OpKind::Aggregate {
                group_by: vec!["id".into()],
                aggs: vec![("spent".into(), AggFunc::Sum, "amount".into())],
            },
        ));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, g).unwrap();
        f.connect(g, c).unwrap();
        // `card` is aggregated away entirely; nothing sensitive survives.
        assert!(taint_of(&f).is_empty());

        // but grouping BY the sensitive column carries it through
        let mut f2 = EtlFlow::new("agg2");
        let a2 = f2.add_op(Operation::extract("purchases", sensitive_schema()));
        let g2 = f2.add_op(Operation::new(
            "GROUP BY card",
            OpKind::Aggregate {
                group_by: vec!["card".into()],
                aggs: vec![("spent".into(), AggFunc::Sum, "amount".into())],
            },
        ));
        let c2 = f2.add_op(Operation::load("dw"));
        f2.connect(a2, g2).unwrap();
        f2.connect(g2, c2).unwrap();
        let diags = taint_of(&f2);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::SENSITIVE_LEAK);
    }

    #[test]
    fn projecting_the_column_away_clears_the_taint() {
        let mut f = EtlFlow::new("proj");
        let a = f.add_op(Operation::extract("purchases", sensitive_schema()));
        let p = f.add_op(Operation::project(
            "keep ids",
            vec!["id".into(), "amount".into()],
        ));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, p).unwrap();
        f.connect(p, c).unwrap();
        assert!(taint_of(&f).is_empty());
    }

    #[test]
    fn encryption_hygiene_pa040_pa041() {
        // encrypted config + in-flow ENCRYPT = redundant (PA040)
        let mut f = EtlFlow::new("redundant");
        let a = f.add_op(Operation::extract("purchases", sensitive_schema()));
        let e = f.add_op(Operation::new("ENCRYPT pii", OpKind::Encrypt));
        let c = f.add_op(Operation::load("dw"));
        f.connect(a, e).unwrap();
        f.connect(e, c).unwrap();
        f.config.encrypted = true;
        let diags = taint_of(&f);
        assert!(diags.iter().any(|d| d.code == codes::REDUNDANT_ENCRYPTION));
        assert!(!diags.iter().any(|d| d.code == codes::UNUSED_ENCRYPTION));

        // encrypted config + nothing sensitive = unused (PA041)
        let mut g = EtlFlow::new("unused");
        let a = g.add_op(Operation::extract(
            "plain",
            Schema::new(vec![Attribute::required("id", DataType::Int)]),
        ));
        let c = g.add_op(Operation::load("dw"));
        g.connect(a, c).unwrap();
        g.config.encrypted = true;
        let diags = taint_of(&g);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::UNUSED_ENCRYPTION);
        assert_eq!(diags[0].severity, Severity::Info);
    }

    #[test]
    fn rendered_leak_shows_note_lines() {
        let f = leaking_flow();
        let diags = crate::analyze(&f);
        let text = crate::render(&f, &diags);
        assert!(text.contains("warn[PA030]"), "{text}");
        assert!(text.contains("  = note: lineage: "), "{text}");
        assert!(text.contains("  = help: "), "{text}");
    }
}
