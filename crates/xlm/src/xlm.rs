//! xLM-style serialisation of [`EtlFlow`]: every operator kind, schema,
//! expression, cost annotation and graph-level configuration round-trips.

use crate::expr_text::parse_expr;
use crate::xml::{parse, XmlNode};
use etl_model::{
    AggFunc, Attribute, Channel, DataType, EtlFlow, NodeId, OpKind, Operation, ResourceClass,
    Schema,
};
use std::collections::HashMap;
use std::fmt;

/// xLM read errors.
#[derive(Debug, Clone, PartialEq)]
pub enum XlmError {
    /// Underlying XML was malformed.
    Xml(String),
    /// The document structure did not match the xLM schema.
    Format(String),
}

impl fmt::Display for XlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XlmError::Xml(e) => write!(f, "xml: {e}"),
            XlmError::Format(e) => write!(f, "xlm format: {e}"),
        }
    }
}

impl std::error::Error for XlmError {}

fn format_err(msg: impl Into<String>) -> XlmError {
    XlmError::Format(msg.into())
}

// ---------------------------------------------------------------- writing

fn schema_node(schema: &Schema) -> XmlNode {
    let mut n = XmlNode::new("schema");
    for a in schema.attrs() {
        let mut attr = XmlNode::new("attr")
            .attr("name", a.name())
            .attr("type", a.dtype.name())
            .attr("nullable", a.nullable);
        // emitted only when set, so pre-existing documents round-trip
        // byte-identically
        if a.sensitive {
            attr = attr.attr("sensitive", true);
        }
        n.children.push(attr);
    }
    n
}

fn kind_node(kind: &OpKind) -> XmlNode {
    let mut n = XmlNode::new("kind").attr("type", kind.name());
    match kind {
        OpKind::Extract { source, schema } => {
            n = n.attr("source", source).child(schema_node(schema));
        }
        OpKind::Load { target } => n = n.attr("target", target),
        OpKind::Filter { predicate } | OpKind::Router { predicate } => {
            n = n.attr("predicate", predicate);
        }
        OpKind::Project { keep } => {
            for k in keep {
                n.children.push(XmlNode::new("keep").attr("name", k));
            }
        }
        OpKind::Derive { outputs } => {
            for (name, expr) in outputs {
                n.children
                    .push(XmlNode::new("output").attr("name", name).attr("expr", expr));
            }
        }
        OpKind::Convert { column, to } => {
            n = n.attr("column", column).attr("to", to.name());
        }
        OpKind::Join {
            left_key,
            right_key,
        } => {
            n = n.attr("left_key", left_key).attr("right_key", right_key);
        }
        OpKind::Aggregate { group_by, aggs } => {
            for g in group_by {
                n.children.push(XmlNode::new("group").attr("name", g));
            }
            for (out, func, input) in aggs {
                n.children.push(
                    XmlNode::new("agg")
                        .attr("name", out)
                        .attr("func", func.name())
                        .attr("input", input),
                );
            }
        }
        OpKind::Sort { by } => {
            for b in by {
                n.children.push(XmlNode::new("by").attr("name", b));
            }
        }
        OpKind::Dedup { keys } => {
            for k in keys {
                n.children.push(XmlNode::new("key").attr("name", k));
            }
        }
        OpKind::FilterNulls { columns } => {
            for c in columns {
                n.children.push(XmlNode::new("column").attr("name", c));
            }
        }
        OpKind::Crosscheck { alt_source, key } => {
            n = n.attr("alt_source", alt_source).attr("key", key);
        }
        OpKind::Checkpoint { tag } => n = n.attr("tag", tag),
        OpKind::Split | OpKind::Partition | OpKind::Merge | OpKind::Encrypt => {}
    }
    n
}

/// Serialises a flow to an xLM document string.
pub fn write_flow(flow: &EtlFlow) -> String {
    let mut design = XmlNode::new("design").attr("name", &flow.name);
    design.children.push(
        XmlNode::new("properties")
            .attr("encrypted", flow.config.encrypted)
            .attr("rbac", flow.config.role_based_access)
            .attr(
                "resources",
                match flow.config.resources {
                    ResourceClass::Small => "small",
                    ResourceClass::Medium => "medium",
                    ResourceClass::Large => "large",
                },
            )
            .attr("recurrence_min", flow.config.recurrence_minutes),
    );
    let mut nodes = XmlNode::new("nodes");
    for (id, op) in flow.graph.nodes() {
        let mut n = XmlNode::new("node")
            .attr("id", format!("n{}", id.index()))
            .attr("name", op.name())
            .attr("parallelism", op.parallelism);
        if let Some(p) = op.from_pattern() {
            n = n.attr("from_pattern", p);
        }
        n.children.push(kind_node(&op.kind));
        n.children.push(
            XmlNode::new("cost")
                .attr("per_tuple_ms", op.cost.cost_per_tuple_ms)
                .attr("startup_ms", op.cost.startup_ms)
                .attr("failure_rate", op.cost.failure_rate)
                .attr(
                    "selectivity",
                    op.cost
                        .selectivity
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "auto".to_string()),
                ),
        );
        nodes.children.push(n);
    }
    design.children.push(nodes);
    let mut edges = XmlNode::new("edges");
    for e in flow.graph.edges() {
        let mut en = XmlNode::new("edge")
            .attr("from", format!("n{}", e.src.index()))
            .attr("to", format!("n{}", e.dst.index()));
        if !e.weight.label.is_empty() {
            en = en.attr("label", &e.weight.label);
        }
        edges.children.push(en);
    }
    design.children.push(edges);
    XmlNode::new("xlm")
        .attr("version", "1.0")
        .child(design)
        .to_xml()
}

// ---------------------------------------------------------------- reading

fn read_schema(node: &XmlNode) -> Result<Schema, XlmError> {
    let mut attrs = Vec::new();
    for a in node.find_all("attr") {
        let name = a
            .get_attr("name")
            .ok_or_else(|| format_err("attr without name"))?;
        let dtype = a
            .get_attr("type")
            .and_then(DataType::parse)
            .ok_or_else(|| format_err(format!("bad type on attr `{name}`")))?;
        let nullable = a.get_attr("nullable").is_none_or(|v| v == "true");
        let sensitive = a.get_attr("sensitive") == Some("true");
        let mut attr = Attribute::new(name, dtype);
        attr.nullable = nullable;
        attr.sensitive = sensitive;
        attrs.push(attr);
    }
    Schema::try_new(attrs).map_err(|name| format_err(format!("duplicate attr `{name}`")))
}

fn req_attr<'a>(node: &'a XmlNode, key: &str, ctx: &str) -> Result<&'a str, XlmError> {
    node.get_attr(key)
        .ok_or_else(|| format_err(format!("{ctx}: missing `{key}`")))
}

fn names_of<T: for<'a> From<&'a str>>(node: &XmlNode, tag: &str) -> Result<Vec<T>, XlmError> {
    node.find_all(tag)
        .map(|c| req_attr(c, "name", tag).map(T::from))
        .collect()
}

fn read_kind(node: &XmlNode) -> Result<OpKind, XlmError> {
    let t = req_attr(node, "type", "kind")?;
    Ok(match t {
        "extract" => OpKind::Extract {
            source: req_attr(node, "source", "extract")?.to_string(),
            schema: read_schema(
                node.find("schema")
                    .ok_or_else(|| format_err("extract without schema"))?,
            )?,
        },
        "load" => OpKind::Load {
            target: req_attr(node, "target", "load")?.to_string(),
        },
        "filter" => OpKind::Filter {
            predicate: parse_expr(req_attr(node, "predicate", "filter")?)
                .map_err(|e| format_err(e.to_string()))?,
        },
        "router" => OpKind::Router {
            predicate: parse_expr(req_attr(node, "predicate", "router")?)
                .map_err(|e| format_err(e.to_string()))?,
        },
        "project" => OpKind::Project {
            keep: names_of(node, "keep")?,
        },
        "derive" => {
            let mut outputs = Vec::new();
            for o in node.find_all("output") {
                let name = req_attr(o, "name", "output")?.to_string();
                let expr = parse_expr(req_attr(o, "expr", "output")?)
                    .map_err(|e| format_err(e.to_string()))?;
                outputs.push((name, expr));
            }
            OpKind::Derive { outputs }
        }
        "convert" => OpKind::Convert {
            column: req_attr(node, "column", "convert")?.to_string(),
            to: DataType::parse(req_attr(node, "to", "convert")?)
                .ok_or_else(|| format_err("bad convert target type"))?,
        },
        "join" => OpKind::Join {
            left_key: req_attr(node, "left_key", "join")?.to_string(),
            right_key: req_attr(node, "right_key", "join")?.to_string(),
        },
        "aggregate" => {
            let group_by = names_of(node, "group")?;
            let mut aggs = Vec::new();
            for a in node.find_all("agg") {
                aggs.push((
                    req_attr(a, "name", "agg")?.to_string(),
                    AggFunc::parse(req_attr(a, "func", "agg")?)
                        .ok_or_else(|| format_err("bad agg func"))?,
                    req_attr(a, "input", "agg")?.to_string(),
                ));
            }
            OpKind::Aggregate { group_by, aggs }
        }
        "sort" => OpKind::Sort {
            by: names_of(node, "by")?,
        },
        "split" => OpKind::Split,
        "partition" => OpKind::Partition,
        "merge" => OpKind::Merge,
        "dedup" => OpKind::Dedup {
            keys: names_of(node, "key")?,
        },
        "filter_nulls" => OpKind::FilterNulls {
            columns: names_of(node, "column")?,
        },
        "crosscheck" => OpKind::Crosscheck {
            alt_source: req_attr(node, "alt_source", "crosscheck")?.to_string(),
            key: req_attr(node, "key", "crosscheck")?.to_string(),
        },
        "checkpoint" => OpKind::Checkpoint {
            tag: req_attr(node, "tag", "checkpoint")?.to_string(),
        },
        "encrypt" => OpKind::Encrypt,
        other => return Err(format_err(format!("unknown operator kind `{other}`"))),
    })
}

/// Parses an xLM document into a flow.
pub fn read_flow(input: &str) -> Result<EtlFlow, XlmError> {
    let root = parse(input).map_err(|e| XlmError::Xml(e.to_string()))?;
    if root.name != "xlm" {
        return Err(format_err("root element must be <xlm>"));
    }
    let design = root
        .find("design")
        .ok_or_else(|| format_err("missing <design>"))?;
    let mut flow = EtlFlow::new(req_attr(design, "name", "design")?);

    if let Some(p) = design.find("properties") {
        flow.config.encrypted = p.get_attr("encrypted") == Some("true");
        flow.config.role_based_access = p.get_attr("rbac") == Some("true");
        flow.config.resources = match p.get_attr("resources") {
            Some("medium") => ResourceClass::Medium,
            Some("large") => ResourceClass::Large,
            _ => ResourceClass::Small,
        };
        if let Some(r) = p.get_attr("recurrence_min").and_then(|v| v.parse().ok()) {
            flow.config.recurrence_minutes = r;
        }
    }

    let nodes = design
        .find("nodes")
        .ok_or_else(|| format_err("missing <nodes>"))?;
    let mut id_map: HashMap<String, NodeId> = HashMap::new();
    for n in nodes.find_all("node") {
        let xml_id = req_attr(n, "id", "node")?.to_string();
        let name = req_attr(n, "name", "node")?.to_string();
        let kind = read_kind(
            n.find("kind")
                .ok_or_else(|| format_err(format!("node `{name}` missing <kind>")))?,
        )?;
        let mut op = Operation::new(name, kind);
        if let Some(c) = n.find("cost") {
            if let Some(v) = c.get_attr("per_tuple_ms").and_then(|v| v.parse().ok()) {
                op.cost.cost_per_tuple_ms = v;
            }
            if let Some(v) = c.get_attr("startup_ms").and_then(|v| v.parse().ok()) {
                op.cost.startup_ms = v;
            }
            if let Some(v) = c.get_attr("failure_rate").and_then(|v| v.parse().ok()) {
                op.cost.failure_rate = v;
            }
            match c.get_attr("selectivity") {
                Some("auto") | None => {}
                Some(v) => op.cost.selectivity = v.parse().ok(),
            }
        }
        if let Some(p) = n.get_attr("parallelism").and_then(|v| v.parse().ok()) {
            op.parallelism = p;
        }
        if let Some(p) = n.get_attr("from_pattern") {
            op = op.tag_pattern(p);
        }
        let id = flow.add_op(op);
        if id_map.insert(xml_id.clone(), id).is_some() {
            return Err(format_err(format!("duplicate node id `{xml_id}`")));
        }
    }

    let edges = design
        .find("edges")
        .ok_or_else(|| format_err("missing <edges>"))?;
    for e in edges.find_all("edge") {
        let from = req_attr(e, "from", "edge")?;
        let to = req_attr(e, "to", "edge")?;
        let src = *id_map
            .get(from)
            .ok_or_else(|| format_err(format!("edge references unknown node `{from}`")))?;
        let dst = *id_map
            .get(to)
            .ok_or_else(|| format_err(format!("edge references unknown node `{to}`")))?;
        let label = e.get_attr("label").unwrap_or("").to_string();
        flow.graph
            .add_edge(src, dst, Channel { label })
            .map_err(|err| format_err(err.to_string()))?;
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::purchases_flow;
    use datagen::tpcds::tpcds_flow;
    use datagen::tpch::tpch_flow;
    use etl_model::expr::Expr;

    fn assert_flow_roundtrip(flow: &EtlFlow) {
        let xml = write_flow(flow);
        let back = read_flow(&xml).unwrap();
        assert_eq!(back.name, flow.name);
        assert_eq!(back.op_count(), flow.op_count());
        assert_eq!(back.edge_count(), flow.edge_count());
        assert_eq!(back.config, flow.config);
        back.validate().unwrap();
        // node-by-node comparison (ids are assigned in iteration order, so
        // positions line up for freshly-built flows)
        let a: Vec<&Operation> = flow.graph.nodes().map(|(_, op)| op).collect();
        let b: Vec<&Operation> = back.graph.nodes().map(|(_, op)| op).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.kind, y.kind, "kind mismatch on {}", x.name());
            assert_eq!(x.cost, y.cost, "cost mismatch on {}", x.name());
            assert_eq!(x.parallelism, y.parallelism);
            assert_eq!(x.from_pattern(), y.from_pattern());
        }
        // and identical serialisation fixpoint
        assert_eq!(xml, write_flow(&back));
    }

    #[test]
    fn tpch_roundtrips() {
        let (f, _) = tpch_flow();
        assert_flow_roundtrip(&f);
    }

    #[test]
    fn tpcds_roundtrips() {
        let (f, _) = tpcds_flow();
        assert_flow_roundtrip(&f);
    }

    #[test]
    fn purchases_roundtrips_with_config_changes() {
        let (mut f, _) = purchases_flow();
        f.config.encrypted = true;
        f.config.resources = ResourceClass::Large;
        f.config.recurrence_minutes = 90.0;
        assert_flow_roundtrip(&f);
    }

    #[test]
    fn pattern_enriched_flow_roundtrips() {
        // flows after FCP application (checkpoints, dedups, crosschecks,
        // partitions) must serialise too
        let (mut f, ids) = purchases_flow();
        let e = f.graph.out_edges(ids.derive_values).next().unwrap();
        f.graph
            .interpose_on_edge(
                e,
                Operation::new("SAVE", OpKind::Checkpoint { tag: "sp1".into() })
                    .tag_pattern("AddCheckpoint"),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        assert_flow_roundtrip(&f);
    }

    #[test]
    fn non_ascii_column_names_roundtrip() {
        let mut f = EtlFlow::new("lieferungen");
        let extract = f.add_op(Operation::extract(
            "lieferungen",
            Schema::new(vec![
                Attribute::required("größe", DataType::Float),
                Attribute::new("straße", DataType::Str),
            ]),
        ));
        let filter = f.add_op(Operation::filter(
            "FILTER große",
            Expr::col("größe").gt(Expr::lit_f(1.5)),
        ));
        let derive = f.add_op(Operation::derive(
            "DERIVE maß",
            vec![("maß".into(), Expr::col("größe").mul(Expr::lit_i(2)))],
        ));
        let load = f.add_op(Operation::load("dw.lieferungen"));
        f.connect(extract, filter).unwrap();
        f.connect(filter, derive).unwrap();
        f.connect(derive, load).unwrap();
        f.validate().unwrap();
        assert_flow_roundtrip(&f);
    }

    #[test]
    fn sensitive_attributes_roundtrip() {
        let (mut f, _) = purchases_flow();
        let extract = f
            .graph
            .nodes()
            .find(|(_, op)| matches!(op.kind, OpKind::Extract { .. }))
            .map(|(id, _)| id)
            .unwrap();
        if let OpKind::Extract { schema, .. } = &mut f.graph.node_mut(extract).unwrap().kind {
            let attrs: Vec<_> = schema
                .attrs()
                .iter()
                .cloned()
                .map(|a| {
                    if a.name() == "pu_id" {
                        a.mark_sensitive()
                    } else {
                        a
                    }
                })
                .collect();
            *schema = Schema::new(attrs);
        }
        let xml = write_flow(&f);
        assert!(xml.contains("sensitive=\"true\""));
        assert_flow_roundtrip(&f);
        // the flag survives the trip; unflagged attributes stay clear
        let back = read_flow(&xml).unwrap();
        if let OpKind::Extract { schema, .. } = &back.graph.node(extract).unwrap().kind {
            assert!(schema.attr("pu_id").unwrap().sensitive);
            assert!(!schema.attr("amount").unwrap().sensitive);
        } else {
            panic!("extract vanished on roundtrip");
        }
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(matches!(read_flow("<nope/>"), Err(XlmError::Format(_))));
        assert!(matches!(read_flow("not xml"), Err(XlmError::Xml(_))));
        let no_nodes = r#"<xlm><design name="x"><edges/></design></xlm>"#;
        assert!(matches!(read_flow(no_nodes), Err(XlmError::Format(_))));
        let twice = r#"<xlm><design name="x"><nodes>
            <node id="n0" name="e"><kind type="extract" source="s"><schema>
                <attr name="id" type="int"/><attr name="id" type="str"/>
            </schema></kind></node>
        </nodes><edges/></design></xlm>"#;
        assert!(matches!(read_flow(twice), Err(XlmError::Format(m)) if m.contains("`id`")));
    }

    #[test]
    fn unknown_kind_rejected() {
        let doc = r#"<xlm><design name="x"><nodes>
            <node id="n0" name="weird"><kind type="teleport"/></node>
        </nodes><edges/></design></xlm>"#;
        let err = read_flow(doc).unwrap_err();
        assert!(matches!(err, XlmError::Format(m) if m.contains("teleport")));
    }

    #[test]
    fn edge_to_unknown_node_rejected() {
        let doc = r#"<xlm><design name="x"><nodes>
            <node id="n0" name="e"><kind type="merge"/></node>
        </nodes><edges><edge from="n0" to="n9"/></edges></design></xlm>"#;
        assert!(matches!(read_flow(doc), Err(XlmError::Format(m)) if m.contains("n9")));
    }
}
