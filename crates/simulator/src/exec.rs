//! Per-operator data semantics: how each [`OpKind`] transforms tuples.
//!
//! Multi-output operators (split, router, partition) produce one row vector
//! per outgoing edge; single-output operators produce one vector that the
//! engine clones onto each outgoing edge. Column names resolve against the
//! node's input and output schemas as schema propagation computed them, so
//! the executor restates no schema rule; how long an operator takes is the
//! engine's business ([`etl_model::CostModel`]).

use datagen::{Catalog, CORRUPT_MARKER};
use etl_model::expr::BoundExpr;
use etl_model::{row_key, AggFunc, DataType, OpKind, Operation, Schema, Tuple, Value};
use std::collections::HashMap;
use std::fmt;

/// Execution failures (distinct from injected *reliability* failures: these
/// are genuine modelling errors, e.g. an Extract naming an unknown source).
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
fn columns(schema: &Schema, names: &[String]) -> Result<Vec<usize>, ExecError> {
    names.iter().map(|name| column(schema, name)).collect()
}

/// Executes one operator.
///
/// * `inputs` — one row vector per incoming edge, in predecessor order
///   (matching schema propagation).
/// * `in_schemas` — schema per input.
/// * `out_schema` — the node's output schema, as propagated.
/// * `n_outputs` — number of outgoing edges.
///
/// Returns one row vector per outgoing edge. For load operators (zero
/// outputs) returns a single vector holding the loaded rows.
pub fn execute_op(
    op: &Operation,
    inputs: &[Vec<Tuple>],
    in_schemas: &[&Schema],
    out_schema: &Schema,
    n_outputs: usize,
    catalog: &Catalog,
) -> Result<Vec<Vec<Tuple>>, ExecError> {
    let single = |rows: Vec<Tuple>| -> Vec<Vec<Tuple>> {
        if n_outputs <= 1 {
            vec![rows]
        } else {
            // broadcast: every successor sees the same rows
            (0..n_outputs).map(|_| rows.clone()).collect()
        }
    };
    let first_input = || -> Result<&Vec<Tuple>, ExecError> {
        inputs.first().ok_or(ExecError::Arity {
            op: op.name.clone(),
            detail: "expected at least one input",
        })
    };
    let first_schema = || -> Result<&Schema, ExecError> {
        in_schemas.first().copied().ok_or(ExecError::Arity {
            op: op.name.clone(),
            detail: "expected an input schema",
        })
    };

    Ok(match &op.kind {
        OpKind::Extract { source, .. } => {
            let table = catalog
                .table(source)
                .ok_or_else(|| ExecError::UnknownSource(source.clone()))?;
            single(table.rows.clone())
        }
        OpKind::Load { .. } => vec![first_input()?.clone()],
        OpKind::Filter { predicate } => {
            let bound = bind(predicate, first_schema()?)?;
            single(
                first_input()?
                    .iter()
                    .filter(|t| bound.eval_predicate(t))
                    .cloned()
                    .collect(),
            )
        }
        OpKind::Project { keep } => {
            let idx = columns(first_schema()?, keep)?;
            single(
                first_input()?
                    .iter()
                    .map(|t| idx.iter().map(|&i| t[i].clone()).collect())
                    .collect(),
            )
        }
        OpKind::Derive { outputs } => {
            // The output schema is the input's columns, then the derived
            // ones in order, each name once: every expression binds to the
            // index its columns take in the row as it grows.
            let bounds = outputs
                .iter()
                .map(|(_, expr)| bind(expr, out_schema))
                .collect::<Result<Vec<_>, _>>()?;
            single(
                first_input()?
                    .iter()
                    .map(|t| {
                        let mut row = t.clone();
                        for b in &bounds {
                            let v = b.eval(&row);
                            row.push(v);
                        }
                        row
                    })
                    .collect(),
            )
        }
        OpKind::Convert { column: name, to } => {
            let idx = column(first_schema()?, name)?;
            single(
                first_input()?
                    .iter()
                    .map(|t| {
                        let mut row = t.clone();
                        row[idx] = convert_value(&row[idx], *to);
                        row
                    })
                    .collect(),
            )
        }
        OpKind::Join {
            left_key,
            right_key,
        } => {
            if inputs.len() < 2 {
                return Err(ExecError::Arity {
                    op: op.name.clone(),
                    detail: "join needs two inputs",
                });
            }
            let li = column(in_schemas[0], left_key)?;
            let ri = column(in_schemas[1], right_key)?;
            let mut table: HashMap<String, Vec<&Tuple>> = HashMap::new();
            for r in &inputs[1] {
                if !r[ri].is_null() {
                    table.entry(r[ri].group_key()).or_default().push(r);
                }
            }
            let mut out = Vec::new();
            for l in &inputs[0] {
                if l[li].is_null() {
                    continue;
                }
                if let Some(matches) = table.get(&l[li].group_key()) {
                    for r in matches {
                        let mut row = l.clone();
                        row.extend((*r).clone());
                        out.push(row);
                    }
                }
            }
            single(out)
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
            for t in first_input()? {
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
            single(out)
        }
        OpKind::Sort { by } => {
            let idx = columns(first_schema()?, by)?;
            let mut rows = first_input()?.clone();
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
            single(rows)
        }
        OpKind::Split => single(first_input()?.clone()),
        OpKind::Router { predicate } => {
            if n_outputs != 2 {
                return Err(ExecError::Arity {
                    op: op.name.clone(),
                    detail: "router needs exactly two outputs",
                });
            }
            let bound = bind(predicate, first_schema()?)?;
            let mut yes = Vec::new();
            let mut no = Vec::new();
            for t in first_input()? {
                if bound.eval_predicate(t) {
                    yes.push(t.clone());
                } else {
                    no.push(t.clone());
                }
            }
            vec![yes, no]
        }
        OpKind::Partition => {
            let k = n_outputs.max(1);
            let mut parts: Vec<Vec<Tuple>> = (0..k).map(|_| Vec::new()).collect();
            for (i, t) in first_input()?.iter().enumerate() {
                parts[i % k].push(t.clone());
            }
            parts
        }
        OpKind::Merge => {
            let mut out = Vec::new();
            for part in inputs {
                out.extend(part.iter().cloned());
            }
            single(out)
        }
        OpKind::Dedup { keys } => {
            let schema = first_schema()?;
            let idx: Vec<usize> = if keys.is_empty() {
                (0..schema.len()).collect()
            } else {
                columns(schema, keys)?
            };
            let mut seen = std::collections::HashSet::new();
            single(
                first_input()?
                    .iter()
                    .filter(|t| seen.insert(row_key(idx.iter().map(|&i| &t[i]))))
                    .cloned()
                    .collect(),
            )
        }
        OpKind::FilterNulls { columns: names } => {
            let schema = first_schema()?;
            let idx: Vec<usize> = if names.is_empty() {
                (0..schema.len()).collect()
            } else {
                columns(schema, names)?
            };
            single(
                first_input()?
                    .iter()
                    .filter(|t| idx.iter().all(|&i| !t[i].is_null()))
                    .cloned()
                    .collect(),
            )
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
                .map(|a| table.schema.index_of(&a.name))
                .collect();
            let mut reference: HashMap<String, &Tuple> = HashMap::new();
            for r in &table.rows {
                reference.entry(r[rki].group_key()).or_insert(r);
            }
            single(
                first_input()?
                    .iter()
                    .map(|t| {
                        let mut row = t.clone();
                        if let Some(refrow) = reference.get(&row[ki].group_key()) {
                            for (i, m) in col_map.iter().enumerate() {
                                let Some(ri) = m else { continue };
                                let broken = row[i].is_null()
                                    || matches!(&row[i], Value::Str(s) if s.ends_with(CORRUPT_MARKER));
                                if broken {
                                    row[i] = refrow[*ri].clone();
                                }
                            }
                        }
                        row
                    })
                    .collect(),
            )
        }
        OpKind::Checkpoint { .. } | OpKind::Encrypt => single(first_input()?.clone()),
    })
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
        execute_op(&op, &[rows], &[schema], schema, outs, &cat()).unwrap()
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
        let out = execute_op(&op, &[rows2()], &[&schema2()], &out_schema, 1, &cat()).unwrap();
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
            &[left, right],
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
            &[left, right],
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
        assert_eq!(out[0].len(), 1); // v=10
        assert_eq!(out[1].len(), 2); // v=-3 and null (unknown routes to 'no')
    }

    #[test]
    fn split_broadcasts() {
        let op = Operation::new("sp", OpKind::Split);
        let out = run(op, rows2(), &schema2(), 3);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| o.len() == 3));
    }

    #[test]
    fn partition_round_robins() {
        let op = Operation::new("pt", OpKind::Partition);
        let out = run(op, rows2(), &schema2(), 2);
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[1].len(), 1);
    }

    #[test]
    fn merge_concatenates() {
        let op = Operation::new("m", OpKind::Merge);
        let s = schema2();
        let out = execute_op(&op, &[rows2(), rows2()], &[&s, &s], &s, 1, &cat()).unwrap();
        assert_eq!(out[0].len(), 6);
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

    #[test]
    fn crosscheck_repairs_from_reference() {
        use datagen::Table;
        let schema = Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("name", DataType::Str),
            Attribute::new("v", DataType::Float),
        ]);
        let mut catalog = Catalog::new();
        catalog.add_table(
            "ref_t",
            Table {
                schema: schema.clone(),
                rows: vec![vec![
                    Value::Int(1),
                    Value::Str("good".into()),
                    Value::Float(5.0),
                ]],
                key: "id".into(),
                last_update: 0,
            },
        );
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
        let out = execute_op(&op, &[dirty], &[&schema], &schema, 1, &catalog).unwrap();
        assert_eq!(out[0][0][1], Value::Str("good".into()));
        assert_eq!(out[0][0][2], Value::Float(5.0));
        // unmatched row untouched
        assert_eq!(out[0][1][1], Value::Str("keep".into()));
    }

    #[test]
    fn unknown_source_errors() {
        let op = Operation::extract("ghost", schema2());
        let err = execute_op(&op, &[], &[], &schema2(), 1, &cat()).unwrap_err();
        assert_eq!(err, ExecError::UnknownSource("ghost".into()));
    }
}
