//! Column-aware synthetic tuple generation.

use crate::dirt::DirtProfile;
use crate::CORRUPT_MARKER;
use etl_model::{DataType, Schema, Tuple, Value};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Specification of one synthetic table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name (the `source` an Extract names).
    pub name: String,
    /// Schema; the first attribute named `key` (below) is the match key.
    pub schema: Schema,
    /// Number of clean base rows.
    pub rows: usize,
    /// Name of the key attribute, protected from dirt.
    pub key: String,
}

impl TableSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        rows: usize,
        key: impl Into<String>,
    ) -> Self {
        TableSpec {
            name: name.into(),
            schema,
            rows,
            key: key.into(),
        }
    }
}

/// Reference epoch used for generated dates/timestamps (2026-01-01 UTC,
/// fixed so runs are comparable).
pub const REQUEST_TIME: i64 = 1_767_225_600;

const WORDS: &[&str] = &[
    "alpha", "bravo", "carmine", "delta", "ember", "falcon", "garnet", "harbor", "indigo",
    "juniper", "krypton", "lumen", "meridian", "nocturne", "opal", "prairie", "quartz", "rustic",
    "sable", "timber", "umber", "verdant", "willow", "xenon", "yonder", "zephyr",
];

/// Generates one column value for row `row` based on the attribute's name
/// and type, vaguely imitating TPC value distributions.
fn gen_value(attr_name: &str, dtype: DataType, row: usize, rng: &mut SmallRng) -> Value {
    let lower = attr_name.to_ascii_lowercase();
    match dtype {
        DataType::Int => {
            if lower.ends_with("_id") || lower.ends_with("key") || lower == "id" {
                Value::Int(row as i64 + 1)
            } else if lower.contains("qty") || lower.contains("quantity") || lower.contains("count")
            {
                Value::Int(rng.gen_range(1..=50))
            } else {
                Value::Int(rng.gen_range(0..=10_000))
            }
        }
        DataType::Float => {
            if lower.contains("price") || lower.contains("amount") || lower.contains("cost") {
                Value::Float((rng.gen_range(100..=100_000) as f64) / 100.0)
            } else if lower.contains("discount") || lower.contains("tax") || lower.contains("rate")
            {
                Value::Float((rng.gen_range(0..=30) as f64) / 100.0)
            } else {
                Value::Float(rng.gen_range(0.0..1_000.0))
            }
        }
        DataType::Str => {
            let w = WORDS.choose(rng).expect("WORDS is non-empty");
            if lower.contains("status") {
                Value::Str(
                    ["OK", "PENDING", "SHIPPED"]
                        .choose(rng)
                        .unwrap()
                        .to_string(),
                )
            } else if lower.contains("priority") {
                Value::Str(["HIGH", "MEDIUM", "LOW"].choose(rng).unwrap().to_string())
            } else {
                Value::Str(format!("{w}-{}", rng.gen_range(0..10_000)))
            }
        }
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        DataType::Date => {
            // within ~3 years before the request time
            let day = REQUEST_TIME / 86_400 - rng.gen_range(0..1_095);
            Value::Date(day)
        }
        DataType::Timestamp => {
            if lower.contains("end_date") {
                // Paper's Fig. 2 predicate checks `record_end_date = null` for
                // current records: most rows are current (null end date).
                if rng.gen_bool(0.8) {
                    Value::Null
                } else {
                    Value::Timestamp(REQUEST_TIME - rng.gen_range(0..86_400 * 365))
                }
            } else {
                Value::Timestamp(REQUEST_TIME - rng.gen_range(0..86_400 * 30))
            }
        }
    }
}

/// Generates `(clean_rows, dirty_rows)` for a table spec.
///
/// Dirty rows are the clean rows with nulls/corruption injected per the
/// profile plus duplicated rows appended; the key column is never touched.
pub fn generate_table(spec: &TableSpec, dirt: &DirtProfile, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    assert!(dirt.is_valid(), "invalid dirt profile");
    let mut rng = SmallRng::seed_from_u64(seed);
    let key_idx = spec.schema.index_of(&spec.key);
    let mut clean = Vec::with_capacity(spec.rows);
    for row in 0..spec.rows {
        let tuple: Tuple = spec
            .schema
            .attrs()
            .iter()
            .map(|a| gen_value(a.name(), a.dtype, row, &mut rng))
            .collect();
        clean.push(tuple);
    }
    let mut dirty = Vec::with_capacity(spec.rows);
    for t in &clean {
        let mut row = t.clone();
        for (i, v) in row.iter_mut().enumerate() {
            if Some(i) == key_idx {
                continue;
            }
            let attr = &spec.schema.attrs()[i];
            if attr.nullable && rng.gen_bool(dirt.null_rate) {
                *v = Value::Null;
                continue;
            }
            if attr.dtype == DataType::Str && rng.gen_bool(dirt.corrupt_rate) {
                if let Value::Str(s) = v {
                    s.push_str(CORRUPT_MARKER);
                }
            }
        }
        dirty.push(row.clone());
        if rng.gen_bool(dirt.dup_rate) {
            dirty.push(row);
        }
    }
    (clean, dirty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etl_model::Attribute;

    fn spec(rows: usize) -> TableSpec {
        TableSpec::new(
            "t",
            Schema::new(vec![
                Attribute::required("t_id", DataType::Int),
                Attribute::new("name", DataType::Str),
                Attribute::new("price", DataType::Float),
                Attribute::new("updated", DataType::Timestamp),
            ]),
            rows,
            "t_id",
        )
    }

    #[test]
    fn deterministic_in_seed() {
        let s = spec(50);
        let a = generate_table(&s, &DirtProfile::demo(), 7);
        let b = generate_table(&s, &DirtProfile::demo(), 7);
        assert_eq!(a, b);
        let c = generate_table(&s, &DirtProfile::demo(), 8);
        assert_ne!(a.1, c.1);
    }

    #[test]
    fn clean_profile_produces_identical_rows() {
        let s = spec(100);
        let (clean, dirty) = generate_table(&s, &DirtProfile::clean(), 1);
        assert_eq!(clean, dirty);
        assert_eq!(clean.len(), 100);
    }

    #[test]
    fn keys_are_sequential_and_protected() {
        let s = spec(200);
        let (_, dirty) = generate_table(&s, &DirtProfile::filthy(), 2);
        for row in &dirty {
            assert!(
                matches!(row[0], Value::Int(k) if k >= 1),
                "key must survive dirt"
            );
        }
    }

    #[test]
    fn filthy_profile_injects_nulls_dups_corruption() {
        let s = spec(500);
        let (clean, dirty) = generate_table(&s, &DirtProfile::filthy(), 3);
        assert!(dirty.len() > clean.len(), "expected duplicates");
        let nulls = dirty
            .iter()
            .flat_map(|r| r.iter())
            .filter(|v| v.is_null())
            .count();
        let clean_nulls = clean
            .iter()
            .flat_map(|r| r.iter())
            .filter(|v| v.is_null())
            .count();
        assert!(nulls > clean_nulls, "expected injected nulls");
        let corrupted = dirty
            .iter()
            .flat_map(|r| r.iter())
            .filter(|v| matches!(v, Value::Str(s) if s.ends_with(CORRUPT_MARKER)))
            .count();
        assert!(corrupted > 0, "expected corrupted strings");
    }

    #[test]
    fn value_shapes_follow_column_names() {
        let s = TableSpec::new(
            "shape",
            Schema::new(vec![
                Attribute::required("x_id", DataType::Int),
                Attribute::new("qty", DataType::Int),
                Attribute::new("discount", DataType::Float),
                Attribute::new("status", DataType::Str),
            ]),
            300,
            "x_id",
        );
        let (clean, _) = generate_table(&s, &DirtProfile::clean(), 4);
        for (i, row) in clean.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64 + 1));
            if let Value::Int(q) = row[1] {
                assert!((1..=50).contains(&q));
            } else {
                panic!("qty must be int");
            }
            if let Value::Float(d) = row[2] {
                assert!((0.0..=0.3).contains(&d));
            } else {
                panic!("discount must be float");
            }
            if let Value::Str(st) = &row[3] {
                assert!(["OK", "PENDING", "SHIPPED"].contains(&st.as_str()));
            } else {
                panic!("status must be str");
            }
        }
    }
}
