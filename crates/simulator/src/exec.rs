//! Per-operator data semantics: how each [`OpKind`] transforms tuples.
//!
//! An operator owns the batches it is given: filters, dedup and sort work
//! in place, row edits (derive, convert, crosscheck) change the rows where
//! they are, and pass-through operators hand their input on untouched.
//! Values are copied only where an operator assembles new rows: an extract
//! from its catalog table, project, join and aggregate from their input.
//! Routers and partitioners produce one batch per outgoing edge; every
//! other operator produces one batch, which the engine hands to its
//! successors. Column names resolve against the node's input and output
//! schemas as schema propagation computed them, so the executor restates
//! no schema rule; how long an operator takes is the engine's business
//! ([`etl_model::CostModel`]).

use datagen::{Catalog, CORRUPT_MARKER};
use etl_model::expr::BoundExpr;
use etl_model::{row_key, AggFunc, DataType, OpKind, Operation, Schema, Tuple, Value};
use std::collections::HashMap;
use std::fmt;

/// Execution failures (distinct from the modelled *reliability* failures of
/// `failure_rate`: these are genuine modelling errors, e.g. an Extract
/// naming an unknown source).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Extract/crosscheck referenced a source missing from the catalog.
    UnknownSource(String),
    /// An expression failed to bind (validated flows never hit this).
    Bind(String),
    /// An operator was wired with the wrong number of inputs/outputs.
    Arity {
        /// Operation name.
        op: String,
        /// Diagnostic.
        detail: &'static str,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownSource(s) => write!(f, "unknown source `{s}`"),
            ExecError::Bind(m) => write!(f, "bind error: {m}"),
            ExecError::Arity { op, detail } => write!(f, "`{op}`: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

fn bind(expr: &etl_model::expr::Expr, schema: &Schema) -> Result<BoundExpr, ExecError> {
    expr.bind(schema)
        .map_err(|e| ExecError::Bind(e.to_string()))
}

/// Resolves a column name to its index in `schema`: the one name lookup
/// every operator's binding goes through.
fn column(schema: &Schema, name: &str) -> Result<usize, ExecError> {
    schema
        .index_of(name)
        .ok_or_else(|| ExecError::Bind(format!("unknown column `{name}`")))
}

/// [`column`] over several names, in order.
fn columns<S: AsRef<str>>(schema: &Schema, names: &[S]) -> Result<Vec<usize>, ExecError> {
    names
        .iter()
        .map(|name| column(schema, name.as_ref()))
        .collect()
}

/// Executes one operator on the batches it owns.
///
/// * `inputs` — one row batch per incoming edge, in predecessor order
///   (matching schema propagation), moved in: the operator filters,
///   sorts, edits or hands on these rows where they are.
/// * `in_schemas` — schema per input.
/// * `out_schema` — the node's output schema, as propagated.
/// * `n_outputs` — number of outgoing edges.
///
/// Returns one batch per outgoing edge for a router or a partitioner, and
/// one batch for every other operator: the rows a load receives, or the
/// rows the engine hands to each successor.
pub(crate) fn execute_op(
    op: &Operation,
    inputs: Vec<Vec<Tuple>>,
    in_schemas: &[&Schema],
    out_schema: &Schema,
    n_outputs: usize,
    catalog: &Catalog,
) -> Result<Vec<Vec<Tuple>>, ExecError> {
    let arity = |detail| ExecError::Arity {
        op: op.name().to_string(),
        detail,
    };
    let first_schema = || {
        in_schemas
            .first()
            .copied()
            .ok_or_else(|| arity("expected an input schema"))
    };
    let mut inputs = inputs.into_iter();
    let mut first_input = || {
        inputs
            .next()
            .ok_or_else(|| arity("expected at least one input"))
    };

    let rows = match &op.kind {
        OpKind::Extract { source, .. } => {
            let table = catalog
                .table(source)
                .ok_or_else(|| ExecError::UnknownSource(source.clone()))?;
            table.rows.clone()
        }
        OpKind::Load { .. } | OpKind::Split | OpKind::Checkpoint { .. } | OpKind::Encrypt => {
            first_input()?
        }
        OpKind::Filter { predicate } => {
            let bound = bind(predicate, first_schema()?)?;
            let mut rows = first_input()?;
            rows.retain(|t| bound.eval_predicate(t));
            rows
        }
        OpKind::Project { keep } => {
            let idx = columns(first_schema()?, keep)?;
            first_input()?
                .into_iter()
                .map(|t| idx.iter().map(|&i| t[i].clone()).collect())
                .collect()
        }
        OpKind::Derive { outputs } => {
            // The output schema is the input's columns, then the derived
            // ones in order, each name once: every expression binds to the
            // index its columns take in the row as it grows.
            let bounds = outputs
                .iter()
                .map(|(_, expr)| bind(expr, out_schema))
                .collect::<Result<Vec<_>, _>>()?;
            let mut rows = first_input()?;
            for row in &mut rows {
                for b in &bounds {
                    let v = b.eval(row);
                    row.push(v);
                }
            }
            rows
        }
        OpKind::Convert { column: name, to } => {
            let idx = column(first_schema()?, name)?;
            let mut rows = first_input()?;
            for row in &mut rows {
                row[idx] = convert_value(&row[idx], *to);
            }
            rows
        }
        OpKind::Join {
            left_key,
            right_key,
        } => {
            let (Some(left), Some(right)) = (inputs.next(), inputs.next()) else {
                return Err(arity("join needs two inputs"));
            };
            let li = column(in_schemas[0], left_key)?;
            let ri = column(in_schemas[1], right_key)?;
            let mut table: HashMap<String, Vec<&Tuple>> = HashMap::new();
            for r in &right {
                if !r[ri].is_null() {
                    table.entry(r[ri].group_key()).or_default().push(r);
                }
            }
            let mut out = Vec::new();
            for l in &left {
                if l[li].is_null() {
                    continue;
                }
                if let Some(matches) = table.get(&l[li].group_key()) {
                    for r in matches {
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        out.push(row);
                    }
                }
            }
            out
        }
        OpKind::Aggregate { group_by, aggs } => {
            let schema = first_schema()?;
            let gidx = columns(schema, group_by)?;
            let aidx: Vec<(AggFunc, usize)> = aggs
                .iter()
                .map(|(_, f, c)| Ok((*f, column(schema, c)?)))
                .collect::<Result<_, ExecError>>()?;
            let mut groups: HashMap<String, (Tuple, Vec<Accum>)> = HashMap::new();
            let mut order: Vec<String> = Vec::new();
            for t in &first_input()? {
                let key = row_key(gidx.iter().map(|&i| &t[i]));
                let entry = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (
                        gidx.iter().map(|&i| t[i].clone()).collect(),
                        aidx.iter().map(|_| Accum::default()).collect(),
                    )
                });
                for ((func, ci), acc) in aidx.iter().zip(entry.1.iter_mut()) {
                    acc.update(*func, &t[*ci]);
                }
            }
            let mut out = Vec::with_capacity(groups.len());
            for key in order {
                let (mut row, accs) = groups.remove(&key).expect("group recorded");
                for ((func, _), acc) in aidx.iter().zip(accs) {
                    row.push(acc.finish(*func));
                }
                out.push(row);
            }
            out
        }
        OpKind::Sort { by } => {
            let idx = columns(first_schema()?, by)?;
            let mut rows = first_input()?;
            rows.sort_by(|a, b| {
                for &i in &idx {
                    let ord = match (a[i].is_null(), b[i].is_null()) {
                        (true, true) => std::cmp::Ordering::Equal,
                        (true, false) => std::cmp::Ordering::Greater, // nulls last
                        (false, true) => std::cmp::Ordering::Less,
                        (false, false) => a[i].sql_cmp(&b[i]).unwrap_or(std::cmp::Ordering::Equal),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows
        }
        OpKind::Router { predicate } => {
            if n_outputs != 2 {
                return Err(arity("router needs exactly two outputs"));
            }
            let bound = bind(predicate, first_schema()?)?;
            let (yes, no) = first_input()?
                .into_iter()
                .partition(|t| bound.eval_predicate(t));
            return Ok(vec![yes, no]);
        }
        OpKind::Partition => {
            let k = n_outputs.max(1);
            let mut parts: Vec<Vec<Tuple>> = (0..k).map(|_| Vec::new()).collect();
            for (i, t) in first_input()?.into_iter().enumerate() {
                parts[i % k].push(t);
            }
            return Ok(parts);
        }
        OpKind::Merge => inputs.flatten().collect(),
        OpKind::Dedup { keys } => {
            let schema = first_schema()?;
            let idx: Vec<usize> = if keys.is_empty() {
                (0..schema.len()).collect()
            } else {
                columns(schema, keys)?
            };
            let mut seen = std::collections::HashSet::new();
            let mut rows = first_input()?;
            rows.retain(|t| seen.insert(row_key(idx.iter().map(|&i| &t[i]))));
            rows
        }
        OpKind::FilterNulls { columns: names } => {
            let schema = first_schema()?;
            let idx: Vec<usize> = if names.is_empty() {
                (0..schema.len()).collect()
            } else {
                columns(schema, names)?
            };
            let mut rows = first_input()?;
            rows.retain(|t| idx.iter().all(|&i| !t[i].is_null()));
            rows
        }
        OpKind::Crosscheck { alt_source, key } => {
            let schema = first_schema()?;
            let table = catalog
                .table(alt_source)
                .ok_or_else(|| ExecError::UnknownSource(alt_source.clone()))?;
            let ki = column(schema, key)?;
            let rki = column(&table.schema, &table.key)?;
            // Map current-schema columns onto reference columns by name.
            let col_map: Vec<Option<usize>> = schema
                .attrs()
                .iter()
                .map(|a| table.schema.index_of(a.name()))
                .collect();
            let mut reference: HashMap<String, &Tuple> = HashMap::new();
            for r in &table.rows {
                reference.entry(r[rki].group_key()).or_insert(r);
            }
            let mut rows = first_input()?;
            for row in &mut rows {
                let Some(refrow) = reference.get(&row[ki].group_key()) else {
                    continue;
                };
                for (i, m) in col_map.iter().enumerate() {
                    let Some(ri) = m else { continue };
                    let broken = row[i].is_null()
                        || matches!(&row[i], Value::Str(s) if s.ends_with(CORRUPT_MARKER));
                    if broken {
                        row[i] = refrow[*ri].clone();
                    }
                }
            }
            rows
        }
    };
    Ok(vec![rows])
}

fn convert_value(v: &Value, to: DataType) -> Value {
    match (v, to) {
        (Value::Null, _) => Value::Null,
        (Value::Int(x), DataType::Float) => Value::Float(*x as f64),
        (Value::Float(x), DataType::Int) => Value::Int(*x as i64),
        (Value::Int(x), DataType::Str) => Value::Str(x.to_string()),
        (Value::Float(x), DataType::Str) => Value::Str(x.to_string()),
        (Value::Str(s), DataType::Int) => s.parse().map(Value::Int).unwrap_or(Value::Null),
        (Value::Str(s), DataType::Float) => s.parse().map(Value::Float).unwrap_or(Value::Null),
        (v, t) if v.dtype() == Some(t) => v.clone(),
        _ => Value::Null,
    }
}

#[derive(Default)]
struct Accum {
    count: i64,
    sum: f64,
    sum_is_int: bool,
    isum: i64,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accum {
    fn update(&mut self, func: AggFunc, v: &Value) {
        match func {
            AggFunc::Count => self.count += 1,
            _ => {
                if v.is_null() {
                    return;
                }
                self.count += 1;
                if let Some(x) = v.as_f64() {
                    self.sum += x;
                }
                if let Value::Int(i) = v {
                    self.sum_is_int = true;
                    self.isum += i;
                }
                if self
                    .min
                    .as_ref()
                    .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Less))
                {
                    self.min = Some(v.clone());
                }
                if self
                    .max
                    .as_ref()
                    .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
                {
                    self.max = Some(v.clone());
                }
            }
        }
    }

    fn finish(self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.isum)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.unwrap_or(Value::Null),
            AggFunc::Max => self.max.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etl_model::expr::Expr;
    use etl_model::Attribute;

    fn cat() -> Catalog {
        Catalog::new()
    }

    fn schema2() -> Schema {
        Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("v", DataType::Float),
        ])
    }

    fn rows2() -> Vec<Tuple> {
        vec![
            vec![Value::Int(1), Value::Float(10.0)],
            vec![Value::Int(2), Value::Float(-3.0)],
            vec![Value::Int(3), Value::Null],
        ]
    }

    /// Runs a single-input operator whose output schema is its input's
    /// (every operator these tests run through it but derive, whose
    /// output schema only derive binds against).
    fn run(op: Operation, rows: Vec<Tuple>, schema: &Schema, outs: usize) -> Vec<Vec<Tuple>> {
        execute_op(&op, vec![rows], &[schema], schema, outs, &cat()).unwrap()
    }

    #[test]
    fn filter_drops_nonmatching_and_null() {
        let op = Operation::filter("f", Expr::col("v").gt(Expr::lit_f(0.0)));
        let out = run(op, rows2(), &schema2(), 1);
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0][0][0], Value::Int(1));
    }

    #[test]
    fn project_reorders() {
        let op = Operation::project("p", vec!["v".into(), "id".into()]);
        let out = run(op, rows2(), &schema2(), 1);
        assert_eq!(out[0][0], vec![Value::Float(10.0), Value::Int(1)]);
    }

    #[test]
    fn derive_appends_and_chains() {
        let op = Operation::derive(
            "d",
            vec![
                ("double".to_string(), Expr::col("v").mul(Expr::lit_f(2.0))),
                (
                    "quad".to_string(),
                    Expr::col("double").mul(Expr::lit_f(2.0)),
                ),
            ],
        );
        let mut out_schema = schema2();
        out_schema
            .push(Attribute::new("double", DataType::Float))
            .unwrap();
        out_schema
            .push(Attribute::new("quad", DataType::Float))
            .unwrap();
        let out = execute_op(&op, vec![rows2()], &[&schema2()], &out_schema, 1, &cat()).unwrap();
        assert_eq!(out[0][0][2], Value::Float(20.0));
        assert_eq!(out[0][0][3], Value::Float(40.0));
        // null propagates
        assert_eq!(out[0][2][2], Value::Null);
    }

    #[test]
    fn convert_int_float_roundtrip() {
        assert_eq!(
            convert_value(&Value::Int(3), DataType::Float),
            Value::Float(3.0)
        );
        assert_eq!(
            convert_value(&Value::Float(3.7), DataType::Int),
            Value::Int(3)
        );
        assert_eq!(
            convert_value(&Value::Str("12".into()), DataType::Int),
            Value::Int(12)
        );
        assert_eq!(
            convert_value(&Value::Str("xx".into()), DataType::Int),
            Value::Null
        );
        assert_eq!(convert_value(&Value::Null, DataType::Int), Value::Null);
    }

    #[test]
    fn join_hash_matches() {
        let left_schema = schema2();
        let right_schema = Schema::new(vec![
            Attribute::required("rid", DataType::Int),
            Attribute::new("name", DataType::Str),
        ]);
        let left = rows2();
        let right = vec![
            vec![Value::Int(1), Value::Str("a".into())],
            vec![Value::Int(1), Value::Str("b".into())],
            vec![Value::Int(9), Value::Str("c".into())],
        ];
        let op = Operation::new(
            "j",
            OpKind::Join {
                left_key: "id".into(),
                right_key: "rid".into(),
            },
        );
        let out = execute_op(
            &op,
            vec![left, right],
            &[&left_schema, &right_schema],
            &left_schema.join_concat(&right_schema),
            1,
            &cat(),
        )
        .unwrap();
        // id=1 matches twice, others none
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[0][0].len(), 4);
    }

    #[test]
    fn join_skips_null_keys() {
        let s = schema2();
        let left = vec![vec![Value::Null, Value::Float(1.0)]];
        let right = vec![vec![Value::Null, Value::Float(2.0)]];
        let op = Operation::new(
            "j",
            OpKind::Join {
                left_key: "id".into(),
                right_key: "id".into(),
            },
        );
        let out = execute_op(
            &op,
            vec![left, right],
            &[&s, &s],
            &s.join_concat(&s),
            1,
            &cat(),
        )
        .unwrap();
        assert!(out[0].is_empty());
    }

    #[test]
    fn aggregate_groups_and_skips_nulls() {
        let op = Operation::new(
            "agg",
            OpKind::Aggregate {
                group_by: vec![],
                aggs: vec![
                    ("n".into(), AggFunc::Count, "v".into()),
                    ("s".into(), AggFunc::Sum, "v".into()),
                    ("a".into(), AggFunc::Avg, "v".into()),
                    ("lo".into(), AggFunc::Min, "v".into()),
                    ("hi".into(), AggFunc::Max, "v".into()),
                ],
            },
        );
        let out = run(op, rows2(), &schema2(), 1);
        assert_eq!(out[0].len(), 1);
        let row = &out[0][0];
        assert_eq!(row[0], Value::Int(3)); // count counts all rows
        assert_eq!(row[1], Value::Float(7.0)); // sum skips null
        assert_eq!(row[2], Value::Float(3.5)); // avg over non-null
        assert_eq!(row[3], Value::Float(-3.0));
        assert_eq!(row[4], Value::Float(10.0));
    }

    #[test]
    fn aggregate_by_key_groups() {
        let schema = Schema::new(vec![
            Attribute::new("g", DataType::Str),
            Attribute::new("x", DataType::Int),
        ]);
        let rows = vec![
            vec![Value::Str("a".into()), Value::Int(1)],
            vec![Value::Str("b".into()), Value::Int(2)],
            vec![Value::Str("a".into()), Value::Int(3)],
        ];
        let op = Operation::new(
            "agg",
            OpKind::Aggregate {
                group_by: vec!["g".into()],
                aggs: vec![("total".into(), AggFunc::Sum, "x".into())],
            },
        );
        let out = run(op, rows, &schema, 1);
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[0][0], vec![Value::Str("a".into()), Value::Int(4)]);
        assert_eq!(out[0][1], vec![Value::Str("b".into()), Value::Int(2)]);
    }

    #[test]
    fn sort_nulls_last() {
        let op = Operation::new(
            "s",
            OpKind::Sort {
                by: vec!["v".into()],
            },
        );
        let out = run(op, rows2(), &schema2(), 1);
        assert_eq!(out[0][0][1], Value::Float(-3.0));
        assert_eq!(out[0][1][1], Value::Float(10.0));
        assert_eq!(out[0][2][1], Value::Null);
    }

    #[test]
    fn router_partitions_by_predicate() {
        let op = Operation::new(
            "r",
            OpKind::Router {
                predicate: Expr::col("v").gt(Expr::lit_f(0.0)),
            },
        );
        let out = run(op, rows2(), &schema2(), 2);
        // v=10 | v=-3 and null (unknown routes to 'no'), each row moved once
        assert_eq!(out, vec![rows2()[..1].to_vec(), rows2()[1..].to_vec()]);
    }

    #[test]
    fn partition_round_robins() {
        let op = Operation::new("pt", OpKind::Partition);
        let out = run(op, rows2(), &schema2(), 2);
        let rows = rows2();
        assert_eq!(
            out,
            vec![
                vec![rows[0].clone(), rows[2].clone()],
                vec![rows[1].clone()]
            ]
        );
    }

    #[test]
    fn merge_concatenates() {
        let op = Operation::new("m", OpKind::Merge);
        let s = schema2();
        let out = execute_op(&op, vec![rows2(), rows2()], &[&s, &s], &s, 1, &cat()).unwrap();
        assert_eq!(out[0].len(), 6);
        assert_eq!(out[0][..3], rows2()[..]);
        assert_eq!(out[0][3..], rows2()[..]);
    }

    #[test]
    fn dedup_whole_tuple_and_by_key() {
        let mut rows = rows2();
        rows.push(rows2()[0].clone());
        let op = Operation::new("dd", OpKind::Dedup { keys: vec![] });
        let out = run(op, rows.clone(), &schema2(), 1);
        assert_eq!(out[0].len(), 3);

        let op = Operation::new(
            "dd",
            OpKind::Dedup {
                keys: vec!["id".into()],
            },
        );
        let out = run(op, rows, &schema2(), 1);
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn filter_nulls_all_columns() {
        let op = Operation::new("fnull", OpKind::FilterNulls { columns: vec![] });
        let out = run(op, rows2(), &schema2(), 1);
        assert_eq!(out[0].len(), 2);
    }

    /// A catalog holding `ref_t`, the clean reference twin of `schema3()`
    /// rows keyed by `id`.
    fn reference_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_table(
            "ref_t",
            datagen::Table {
                schema: schema3(),
                rows: vec![vec![
                    Value::Int(1),
                    Value::Str("good".into()),
                    Value::Float(5.0),
                ]],
                key: "id".into(),
                last_update: 0,
            },
        );
        catalog
    }

    fn schema3() -> Schema {
        Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("name", DataType::Str),
            Attribute::new("v", DataType::Float),
        ])
    }

    /// Runs `op` on `rows2()` and asserts its one batch is the input's own
    /// allocation: the operator worked on the rows it was handed.
    fn assert_keeps_its_input_buffer(op: Operation, out_schema: &Schema, catalog: &Catalog) {
        let rows = rows2();
        let buffer = rows.as_ptr();
        let out = execute_op(&op, vec![rows], &[&schema2()], out_schema, 1, catalog).unwrap();
        assert_eq!(out.len(), 1, "{}", op.name());
        assert_eq!(out[0].as_ptr(), buffer, "{} copied its input", op.name());
    }

    #[test]
    fn filters_drop_rows_from_their_input_buffer() {
        for op in [
            Operation::filter("f", Expr::col("v").gt(Expr::lit_f(0.0))),
            Operation::new("dd", OpKind::Dedup { keys: vec![] }),
            Operation::new("fn", OpKind::FilterNulls { columns: vec![] }),
        ] {
            assert_keeps_its_input_buffer(op, &schema2(), &cat());
        }
    }

    #[test]
    fn row_edits_change_rows_where_they_are() {
        let mut derived = schema2();
        derived
            .push(Attribute::new("double", DataType::Float))
            .unwrap();
        let derive = Operation::derive(
            "d",
            vec![("double".to_string(), Expr::col("v").mul(Expr::lit_f(2.0)))],
        );
        assert_keeps_its_input_buffer(derive, &derived, &cat());
        let convert = Operation::new(
            "c",
            OpKind::Convert {
                column: "v".into(),
                to: DataType::Str,
            },
        );
        assert_keeps_its_input_buffer(convert, &schema2(), &cat());
        let crosscheck = Operation::new(
            "cc",
            OpKind::Crosscheck {
                alt_source: "ref_t".into(),
                key: "id".into(),
            },
        );
        assert_keeps_its_input_buffer(crosscheck, &schema2(), &reference_catalog());
    }

    #[test]
    fn sort_and_pass_through_operators_hand_on_their_input_buffer() {
        for kind in [
            OpKind::Sort {
                by: vec!["v".into()],
            },
            OpKind::Split,
            OpKind::Checkpoint { tag: "sp".into() },
            OpKind::Encrypt,
            OpKind::Load {
                target: "out".into(),
            },
        ] {
            assert_keeps_its_input_buffer(Operation::new("op", kind), &schema2(), &cat());
        }
    }

    #[test]
    fn crosscheck_repairs_from_reference() {
        let schema = schema3();
        let catalog = reference_catalog();
        let dirty = vec![
            vec![
                Value::Int(1),
                Value::Str(format!("bad{CORRUPT_MARKER}")),
                Value::Null,
            ],
            vec![Value::Int(2), Value::Str("keep".into()), Value::Float(1.0)],
        ];
        let op = Operation::new(
            "cc",
            OpKind::Crosscheck {
                alt_source: "ref_t".into(),
                key: "id".into(),
            },
        );
        let out = execute_op(&op, vec![dirty], &[&schema], &schema, 1, &catalog).unwrap();
        assert_eq!(out[0][0][1], Value::Str("good".into()));
        assert_eq!(out[0][0][2], Value::Float(5.0));
        // unmatched row untouched
        assert_eq!(out[0][1][1], Value::Str("keep".into()));
    }

    #[test]
    fn unknown_source_errors() {
        let op = Operation::extract("ghost", schema2());
        let err = execute_op(&op, vec![], &[], &schema2(), 1, &cat()).unwrap_err();
        assert_eq!(err, ExecError::UnknownSource("ghost".into()));
    }
}
