//! Runtime values and tuples. The simulator executes flows over real data so
//! the data-quality measures (completeness, uniqueness, freshness) are
//! computed from actual tuple contents rather than guessed.

use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A scalar runtime value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL-style null.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Days since epoch.
    Date(i64),
    /// Seconds since epoch.
    Timestamp(i64),
}

impl Value {
    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type, or `None` for null.
    pub fn dtype(&self) -> Option<DataType> {
        Some(match self {
            Value::Null => return None,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
            Value::Date(_) => DataType::Date,
            Value::Timestamp(_) => DataType::Timestamp,
        })
    }

    /// Numeric view (ints, floats, dates and timestamps coerce to f64).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Date(v) | Value::Timestamp(v) => Some(*v as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Boolean view; non-booleans are `None` (three-valued logic handled by
    /// the expression evaluator).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL-style comparison: null compares as unknown (`None`); numeric
    /// types compare by value; strings lexicographically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Stable key for grouping/dedup: nulls group together, floats by bit
    /// pattern.
    pub fn group_key(&self) -> String {
        let mut key = String::new();
        self.push_group_key(&mut key);
        key
    }

    /// Appends [`group_key`](Self::group_key) to `out`.
    fn push_group_key(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = match self {
            Value::Null => write!(out, "∅"),
            Value::Int(v) => write!(out, "i{v}"),
            Value::Float(v) => write!(out, "f{:x}", v.to_bits()),
            Value::Str(v) => write!(out, "s{v}"),
            Value::Bool(v) => write!(out, "b{v}"),
            Value::Date(v) => write!(out, "d{v}"),
            Value::Timestamp(v) => write!(out, "t{v}"),
        };
    }
}

/// Stable key of a row, or of some of its columns, for grouping, dedup and
/// distinct-row counts: the values' [`Value::group_key`]s joined by
/// `\u{1}`.
pub fn row_key<'a>(values: impl IntoIterator<Item = &'a Value>) -> String {
    let mut key = String::new();
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            key.push('\u{1}');
        }
        v.push_group_key(&mut key);
    }
    key
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "date({v})"),
            Value::Timestamp(v) => write!(f, "ts({v})"),
        }
    }
}

/// One row of data flowing through the pipeline.
pub type Tuple = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_detection_and_dtype() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.dtype(), None);
        assert_eq!(Value::Int(1).dtype(), Some(DataType::Int));
        assert_eq!(Value::Timestamp(0).dtype(), Some(DataType::Timestamp));
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Date(10).as_f64(), Some(10.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn sql_cmp_semantics() {
        use Ordering::*;
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Less));
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Equal));
        assert_eq!(
            Value::Str("a".into()).sql_cmp(&Value::Str("b".into())),
            Some(Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn group_keys_distinguish_types() {
        assert_ne!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
        assert_eq!(Value::Null.group_key(), Value::Null.group_key());
        assert_ne!(
            Value::Str("1".into()).group_key(),
            Value::Int(1).group_key()
        );
    }

    #[test]
    fn row_key_joins_the_group_keys() {
        let row = vec![Value::Int(1), Value::Null, Value::Float(0.5)];
        let joined = row
            .iter()
            .map(Value::group_key)
            .collect::<Vec<_>>()
            .join("\u{1}");
        assert_eq!(row_key(&row), joined);
        assert_eq!(row_key(&row[1..2]), "∅");
        assert_eq!(row_key(&row[..0]), "");
    }
}
