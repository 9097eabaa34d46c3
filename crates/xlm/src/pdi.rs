//! PDI (Pentaho Data Integration / Kettle) `.ktr` subset importer.
//!
//! The paper lists PDI as the second supported input format. A `.ktr` file
//! is a `<transformation>` document with `<step>` elements and an
//! `<order>/<hop>` wiring section. This importer maps the common step types
//! onto the operator taxonomy:
//!
//! | PDI step `<type>` | operator |
//! |---|---|
//! | `TableInput` | Extract (fields from `<fields>`) |
//! | `FilterRows` | Filter (condition from `<condition>` text, expression grammar) |
//! | `Calculator` | Derive |
//! | `SelectValues` | Project |
//! | `Unique` | Dedup |
//! | `SortRows` | Sort |
//! | `MergeJoin` | Join |
//! | `Append`/`SortedMerge` | Merge |
//! | `SwitchCase` | Router |
//! | `TableOutput` | Load |
//!
//! Unknown step types are rejected with a clear error rather than silently
//! skipped — an imported flow must mean what the source meant.

use crate::expr_text::parse_expr;
use crate::xlm::XlmError;
use crate::xml::{parse, XmlNode};
use etl_model::{AggFunc, Channel, DataType, EtlFlow, NodeId, OpKind, Operation, Schema};
use std::collections::HashMap;

fn format_err(msg: impl Into<String>) -> XlmError {
    XlmError::Format(msg.into())
}

fn step_fields(step: &XmlNode) -> Result<Schema, XlmError> {
    let mut attrs = Vec::new();
    if let Some(fields) = step.find("fields") {
        for f in fields.find_all("field") {
            let name = f
                .find("name")
                .map(|n| n.text.clone())
                .filter(|t| !t.is_empty())
                .ok_or_else(|| format_err("field without <name>"))?;
            let dtype = f
                .find("type")
                .and_then(|t| DataType::parse(&t.text.to_lowercase()))
                .unwrap_or(DataType::Str);
            let nullable = f.find("nullable").is_none_or(|n| n.text != "N");
            let mut attr = etl_model::Attribute::new(name, dtype);
            attr.nullable = nullable;
            attrs.push(attr);
        }
    }
    Schema::try_new(attrs).map_err(|name| format_err(format!("duplicate field `{name}`")))
}

fn text_of(step: &XmlNode, tag: &str) -> Option<String> {
    step.find(tag)
        .map(|n| n.text.clone())
        .filter(|t| !t.is_empty())
}

fn convert_step(step: &XmlNode) -> Result<Operation, XlmError> {
    let name = text_of(step, "name").ok_or_else(|| format_err("step without <name>"))?;
    let ty = text_of(step, "type").ok_or_else(|| format_err("step without <type>"))?;
    let kind = match ty.as_str() {
        "TableInput" => OpKind::Extract {
            source: text_of(step, "table").unwrap_or_else(|| name.clone()),
            schema: step_fields(step)?,
        },
        "TableOutput" => OpKind::Load {
            target: text_of(step, "table").unwrap_or_else(|| name.clone()),
        },
        "FilterRows" => OpKind::Filter {
            predicate: parse_expr(
                &text_of(step, "condition")
                    .ok_or_else(|| format_err("FilterRows without <condition>"))?,
            )
            .map_err(|e| format_err(e.to_string()))?,
        },
        "Calculator" => {
            let mut outputs = Vec::new();
            for c in step.find_all("calculation") {
                let field = text_of(c, "field_name")
                    .ok_or_else(|| format_err("calculation without <field_name>"))?;
                let expr = parse_expr(
                    &text_of(c, "formula")
                        .ok_or_else(|| format_err("calculation without <formula>"))?,
                )
                .map_err(|e| format_err(e.to_string()))?;
                outputs.push((field, expr));
            }
            OpKind::Derive { outputs }
        }
        "SelectValues" => {
            let keep = step
                .find("fields")
                .map(|fs| {
                    fs.find_all("field")
                        .filter_map(|f| text_of(f, "name"))
                        .collect()
                })
                .unwrap_or_default();
            OpKind::Project { keep }
        }
        "Unique" => OpKind::Dedup {
            keys: step
                .find("fields")
                .map(|fs| {
                    fs.find_all("field")
                        .filter_map(|f| text_of(f, "name"))
                        .collect()
                })
                .unwrap_or_default(),
        },
        "SortRows" => OpKind::Sort {
            by: step
                .find("fields")
                .map(|fs| {
                    fs.find_all("field")
                        .filter_map(|f| text_of(f, "name"))
                        .collect()
                })
                .unwrap_or_default(),
        },
        "MergeJoin" => OpKind::Join {
            left_key: text_of(step, "key_1")
                .ok_or_else(|| format_err("MergeJoin without key_1"))?,
            right_key: text_of(step, "key_2")
                .ok_or_else(|| format_err("MergeJoin without key_2"))?,
        },
        "Append" | "SortedMerge" => OpKind::Merge,
        "SwitchCase" => OpKind::Router {
            predicate: parse_expr(
                &text_of(step, "condition")
                    .ok_or_else(|| format_err("SwitchCase without <condition>"))?,
            )
            .map_err(|e| format_err(e.to_string()))?,
        },
        "GroupBy" => {
            let group_by = step
                .find("group")
                .map(|g| {
                    g.find_all("field")
                        .filter_map(|f| text_of(f, "name"))
                        .collect()
                })
                .unwrap_or_default();
            let mut aggs = Vec::new();
            if let Some(fields) = step.find("fields") {
                for f in fields.find_all("field") {
                    let out = text_of(f, "name").ok_or_else(|| format_err("agg without name"))?;
                    let func = text_of(f, "aggregate")
                        .and_then(|a| AggFunc::parse(&a.to_lowercase()))
                        .ok_or_else(|| format_err("bad aggregate function"))?;
                    let input =
                        text_of(f, "subject").ok_or_else(|| format_err("agg without subject"))?;
                    aggs.push((out, func, input));
                }
            }
            OpKind::Aggregate { group_by, aggs }
        }
        other => {
            return Err(format_err(format!(
                "unsupported PDI step type `{other}` (step `{name}`)"
            )))
        }
    };
    Ok(Operation::new(name, kind))
}

/// Imports a PDI `.ktr` transformation document into an [`EtlFlow`].
pub fn import_ktr(input: &str) -> Result<EtlFlow, XlmError> {
    let root = parse(input).map_err(|e| XlmError::Xml(e.to_string()))?;
    if root.name != "transformation" {
        return Err(format_err("root element must be <transformation>"));
    }
    let name = root
        .find("info")
        .and_then(|i| i.find("name"))
        .map(|n| n.text.clone())
        .filter(|t| !t.is_empty())
        .unwrap_or_else(|| "pdi_import".to_string());
    let mut flow = EtlFlow::new(name);
    let mut by_name: HashMap<String, NodeId> = HashMap::new();
    for step in root.find_all("step") {
        let op = convert_step(step)?;
        let step_name = op.name().to_string();
        let id = flow.add_op(op);
        if by_name.insert(step_name.clone(), id).is_some() {
            return Err(format_err(format!("duplicate step name `{step_name}`")));
        }
    }
    let order = root
        .find("order")
        .ok_or_else(|| format_err("missing <order>"))?;
    for hop in order.find_all("hop") {
        let from = text_of(hop, "from").ok_or_else(|| format_err("hop without <from>"))?;
        let to = text_of(hop, "to").ok_or_else(|| format_err("hop without <to>"))?;
        let src = *by_name
            .get(&from)
            .ok_or_else(|| format_err(format!("hop references unknown step `{from}`")))?;
        let dst = *by_name
            .get(&to)
            .ok_or_else(|| format_err(format!("hop references unknown step `{to}`")))?;
        flow.graph
            .add_edge(src, dst, Channel::default())
            .map_err(|e| format_err(e.to_string()))?;
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_KTR: &str = r#"<?xml version="1.0"?>
<transformation>
  <info><name>orders_etl</name></info>
  <step>
    <name>read orders</name>
    <type>TableInput</type>
    <table>orders</table>
    <fields>
      <field><name>o_id</name><type>int</type><nullable>N</nullable></field>
      <field><name>o_total</name><type>float</type></field>
      <field><name>o_status</name><type>str</type></field>
    </fields>
  </step>
  <step>
    <name>only paid</name>
    <type>FilterRows</type>
    <condition>o_status = 'OK' AND o_total &gt; 0</condition>
  </step>
  <step>
    <name>net calc</name>
    <type>Calculator</type>
    <calculation><field_name>net</field_name><formula>o_total * 0.9</formula></calculation>
  </step>
  <step>
    <name>dedupe</name>
    <type>Unique</type>
    <fields><field><name>o_id</name></field></fields>
  </step>
  <step>
    <name>write dw</name>
    <type>TableOutput</type>
    <table>dw_orders</table>
  </step>
  <order>
    <hop><from>read orders</from><to>only paid</to></hop>
    <hop><from>only paid</from><to>net calc</to></hop>
    <hop><from>net calc</from><to>dedupe</to></hop>
    <hop><from>dedupe</from><to>write dw</to></hop>
  </order>
</transformation>"#;

    #[test]
    fn imports_sample_transformation() {
        let flow = import_ktr(SAMPLE_KTR).unwrap();
        assert_eq!(flow.name, "orders_etl");
        assert_eq!(flow.op_count(), 5);
        assert_eq!(flow.edge_count(), 4);
        flow.validate().unwrap();
        assert_eq!(flow.ops_of_kind("extract").len(), 1);
        assert_eq!(flow.ops_of_kind("dedup").len(), 1);
        // the condition parsed into a real predicate
        let filt = flow.ops_of_kind("filter")[0];
        let op = flow.op(filt).unwrap();
        assert!(matches!(&op.kind, OpKind::Filter { predicate }
            if predicate.to_string().contains("o_status")));
    }

    #[test]
    fn imported_flow_is_plannable() {
        // the imported flow can go straight into the xLM writer
        let flow = import_ktr(SAMPLE_KTR).unwrap();
        let xml = crate::write_flow(&flow);
        let back = crate::read_flow(&xml).unwrap();
        assert_eq!(back.op_count(), 5);
    }

    #[test]
    fn unsupported_step_type_reported() {
        let doc = r#"<transformation><info><name>x</name></info>
          <step><name>s</name><type>RowNormaliser</type></step>
          <order/></transformation>"#;
        let err = import_ktr(doc).unwrap_err();
        assert!(matches!(err, XlmError::Format(m) if m.contains("RowNormaliser")));
    }

    #[test]
    fn duplicate_input_field_reported() {
        let doc = r#"<transformation><info><name>x</name></info>
          <step><name>read</name><type>TableInput</type><fields>
            <field><name>o_id</name></field><field><name>o_id</name></field>
          </fields></step>
          <order/></transformation>"#;
        let err = import_ktr(doc).unwrap_err();
        assert!(matches!(err, XlmError::Format(m) if m.contains("`o_id`")));
    }

    #[test]
    fn unknown_hop_target_reported() {
        let doc = r#"<transformation><info><name>x</name></info>
          <step><name>a</name><type>Append</type></step>
          <order><hop><from>a</from><to>ghost</to></hop></order></transformation>"#;
        let err = import_ktr(doc).unwrap_err();
        assert!(matches!(err, XlmError::Format(m) if m.contains("ghost")));
    }

    #[test]
    fn switchcase_and_groupby_mapped() {
        let doc = r#"<transformation><info><name>x</name></info>
          <step><name>route</name><type>SwitchCase</type><condition>x &gt; 5</condition></step>
          <step><name>agg</name><type>GroupBy</type>
            <group><field><name>g</name></field></group>
            <fields><field><name>total</name><aggregate>SUM</aggregate><subject>v</subject></field></fields>
          </step>
          <order/></transformation>"#;
        let flow = import_ktr(doc).unwrap();
        assert_eq!(flow.ops_of_kind("router").len(), 1);
        let agg = flow.ops_of_kind("aggregate")[0];
        assert!(matches!(&flow.op(agg).unwrap().kind,
            OpKind::Aggregate { group_by, aggs }
            if group_by == &vec!["g".to_string()] && aggs.len() == 1));
    }
}
