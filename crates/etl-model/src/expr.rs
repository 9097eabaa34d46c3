//! A small expression language for predicates and derived columns.
//!
//! Expressions are written against attribute *names* and bound against a
//! [`Schema`] before evaluation, yielding a [`BoundExpr`] whose column
//! references are positional — binding happens once per operator, evaluation
//! once per tuple.
//!
//! Null semantics follow SQL three-valued logic: comparisons with null yield
//! unknown, which [`BoundExpr::eval_predicate`] treats as *false* (a filter
//! drops the tuple), and arithmetic with null yields null.

use crate::types::{DataType, Schema};
use crate::value::{Tuple, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition (numeric).
    Add,
    /// Subtraction (numeric).
    Sub,
    /// Multiplication (numeric).
    Mul,
    /// Division (numeric; division by zero yields null).
    Div,
    /// Equality (SQL semantics: null = anything is unknown).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and (three-valued).
    And,
    /// Logical or (three-valued).
    Or,
}

/// An unbound expression over attribute names.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by attribute name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation (three-valued).
    Not(Box<Expr>),
    /// `IS NULL` test (never unknown).
    IsNull(Box<Expr>),
    /// First non-null argument.
    Coalesce(Vec<Expr>),
}

// The builder methods mirror SQL operator names (`add`, `mul`, `not`, …)
// on purpose: they construct AST nodes rather than compute values, and the
// consuming-`self` chaining style would not survive a move to the std ops
// traits (which the whole in-tree expression corpus is written against).
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Integer literal.
    pub fn lit_i(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// Float literal.
    pub fn lit_f(v: f64) -> Expr {
        Expr::Lit(Value::Float(v))
    }

    /// String literal.
    pub fn lit_s(v: impl Into<String>) -> Expr {
        Expr::Lit(Value::Str(v.into()))
    }

    /// Boolean literal.
    pub fn lit_b(v: bool) -> Expr {
        Expr::Lit(Value::Bool(v))
    }

    /// Null literal.
    pub fn null() -> Expr {
        Expr::Lit(Value::Null)
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(self), Box::new(rhs))
    }

    /// `self + rhs`
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
    /// `self - rhs`
    pub fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }
    /// `self * rhs`
    pub fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }
    /// `self / rhs`
    pub fn div(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Div, rhs)
    }
    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }
    /// `self <> rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }
    /// `self AND rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }
    /// `self OR rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }
    /// `NOT self`
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    /// `self IS NOT NULL`
    pub fn is_not_null(self) -> Expr {
        Expr::IsNull(Box::new(self)).not()
    }

    /// Attribute names referenced anywhere in the expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let _ = self.try_for_each_column(&mut |c| {
            out.push(c);
            Ok::<(), std::convert::Infallible>(())
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Checks that every referenced column exists in `schema`, without
    /// building anything: `Ok` exactly when [`bind`](Self::bind) succeeds,
    /// else the same first unknown column.
    pub fn check_columns(&self, schema: &Schema) -> Result<(), BindError> {
        self.try_for_each_column(&mut |c| {
            if schema.contains(c) {
                Ok(())
            } else {
                Err(BindError::UnknownColumn(c.to_string()))
            }
        })
    }

    /// Calls `f` on each column reference in the order [`bind`](Self::bind)
    /// resolves them (left operand first), stopping at the first error.
    fn try_for_each_column<'a, E>(
        &'a self,
        f: &mut impl FnMut(&'a str) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Expr::Col(c) => f(c),
            Expr::Lit(_) => Ok(()),
            Expr::Bin(_, a, b) => {
                a.try_for_each_column(f)?;
                b.try_for_each_column(f)
            }
            Expr::Not(a) | Expr::IsNull(a) => a.try_for_each_column(f),
            Expr::Coalesce(xs) => xs.iter().try_for_each(|x| x.try_for_each_column(f)),
        }
    }

    /// Binds attribute names to positions in `schema`.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr, BindError> {
        Ok(match self {
            Expr::Col(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| BindError::UnknownColumn(name.clone()))?;
                BoundExpr::Col(idx)
            }
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Bin(op, a, b) => {
                BoundExpr::Bin(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::Not(a) => BoundExpr::Not(Box::new(a.bind(schema)?)),
            Expr::IsNull(a) => BoundExpr::IsNull(Box::new(a.bind(schema)?)),
            Expr::Coalesce(xs) => BoundExpr::Coalesce(
                xs.iter()
                    .map(|x| x.bind(schema))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// Static result type against a schema, for schema propagation of
    /// derived columns. Comparisons and logic yield `Bool`; arithmetic
    /// yields `Float` unless both sides are `Int`.
    pub fn result_type(&self, schema: &Schema) -> Result<DataType, BindError> {
        Ok(match self {
            Expr::Col(name) => {
                schema
                    .attr(name)
                    .ok_or_else(|| BindError::UnknownColumn(name.clone()))?
                    .dtype
            }
            Expr::Lit(v) => v.dtype().unwrap_or(DataType::Str),
            Expr::Bin(op, a, b) => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    let ta = a.result_type(schema)?;
                    let tb = b.result_type(schema)?;
                    if ta == DataType::Int && tb == DataType::Int && *op != BinOp::Div {
                        DataType::Int
                    } else {
                        DataType::Float
                    }
                }
                _ => DataType::Bool,
            },
            Expr::Not(_) | Expr::IsNull(_) => DataType::Bool,
            Expr::Coalesce(xs) => xs
                .first()
                .map(|x| x.result_type(schema))
                .transpose()?
                .unwrap_or(DataType::Str),
        })
    }
}

/// The words the expression text reads as syntax wherever a column could
/// stand, matched case-sensitively.
const KEYWORDS: [&str; 11] = [
    "AND", "COALESCE", "DATE", "FALSE", "IS", "NAN", "NOT", "NULL", "OR", "TRUE", "TS",
];

/// Whether `Display` may write column `name` bare: it is an identifier (a
/// letter or `_`, then letters, digits and `_`) and no keyword, so the
/// text reads back as that column. Any other name is written
/// double-quoted, with `""` for a `"` inside it.
fn is_bare_column(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_alphabetic() || c == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_')
        && !KEYWORDS.contains(&name)
}

/// Writes the xLM expression grammar (`xlm::expr_text`), which parses
/// back to the same tree: binary operations, `NOT` and `IS NULL` are fully
/// parenthesised, strings single-quoted with `''` escaping, finite floats
/// always keep a decimal point or an exponent, and a column is written
/// bare only where that reads back as the column (see `is_bare_column`),
/// double-quoted elsewhere. A non-finite float is never written as a
/// name: ±∞ is `1e999` / `-1e999`, which overflows back to it, and a NaN
/// is `NAN(<its bit pattern as an i64>)`, so that every NaN reads back bit
/// for bit.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) if is_bare_column(c) => write!(f, "{c}"),
            Expr::Col(c) => write!(f, "\"{}\"", c.replace('"', "\"\"")),
            Expr::Lit(v) => match v {
                Value::Null => write!(f, "NULL"),
                Value::Bool(true) => write!(f, "TRUE"),
                Value::Bool(false) => write!(f, "FALSE"),
                Value::Int(i) => write!(f, "{i}"),
                Value::Float(x) if x.is_nan() => write!(f, "NAN({})", x.to_bits() as i64),
                Value::Float(x) if x.is_infinite() => {
                    write!(f, "{}1e999", if *x < 0.0 { "-" } else { "" })
                }
                Value::Float(x) => write!(f, "{x:?}"),
                Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
                Value::Date(d) => write!(f, "DATE({d})"),
                Value::Timestamp(t) => write!(f, "TS({t})"),
            },
            Expr::Bin(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Eq => "=",
                    BinOp::Ne => "<>",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                };
                write!(f, "({a} {sym} {b})")
            }
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::IsNull(a) => write!(f, "({a} IS NULL)"),
            Expr::Coalesce(xs) => {
                write!(f, "COALESCE(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Binding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// The expression references an attribute absent from the schema.
    UnknownColumn(String),
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
        }
    }
}

impl std::error::Error for BindError {}

/// An expression with positional column references, ready to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Column by tuple position.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<BoundExpr>, Box<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
    /// Null test.
    IsNull(Box<BoundExpr>),
    /// First non-null.
    Coalesce(Vec<BoundExpr>),
}

impl BoundExpr {
    /// Evaluates against one tuple. Tuples shorter than a referenced index
    /// yield null (defensive; validated flows never hit this).
    pub fn eval(&self, t: &Tuple) -> Value {
        match self {
            BoundExpr::Col(i) => t.get(*i).cloned().unwrap_or(Value::Null),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Bin(op, a, b) => eval_bin(*op, a.eval(t), b.eval(t)),
            BoundExpr::Not(a) => match a.eval(t) {
                Value::Bool(b) => Value::Bool(!b),
                _ => Value::Null,
            },
            BoundExpr::IsNull(a) => Value::Bool(a.eval(t).is_null()),
            BoundExpr::Coalesce(xs) => xs
                .iter()
                .map(|x| x.eval(t))
                .find(|v| !v.is_null())
                .unwrap_or(Value::Null),
        }
    }

    /// Predicate view: SQL `WHERE` semantics, unknown → false.
    pub fn eval_predicate(&self, t: &Tuple) -> bool {
        matches!(self.eval(t), Value::Bool(true))
    }
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    match op {
        And => match (a.as_bool(), b.as_bool()) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        Or => match (a.as_bool(), b.as_bool()) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        Eq | Ne | Lt | Le | Gt | Ge => match a.sql_cmp(&b) {
            None => Value::Null,
            Some(ord) => {
                let r = match op {
                    Eq => ord.is_eq(),
                    Ne => !ord.is_eq(),
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    Ge => ord.is_ge(),
                    _ => unreachable!(),
                };
                Value::Bool(r)
            }
        },
        Add | Sub | Mul | Div => {
            // Integer-preserving arithmetic when both sides are ints.
            if let (Value::Int(x), Value::Int(y)) = (&a, &b) {
                return match op {
                    Add => Value::Int(x.wrapping_add(*y)),
                    Sub => Value::Int(x.wrapping_sub(*y)),
                    Mul => Value::Int(x.wrapping_mul(*y)),
                    Div => {
                        if *y == 0 {
                            Value::Null
                        } else {
                            Value::Float(*x as f64 / *y as f64)
                        }
                    }
                    _ => unreachable!(),
                };
            }
            match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => match op {
                    Add => Value::Float(x + y),
                    Sub => Value::Float(x - y),
                    Mul => Value::Float(x * y),
                    Div => {
                        if y == 0.0 {
                            Value::Null
                        } else {
                            Value::Float(x / y)
                        }
                    }
                    _ => unreachable!(),
                },
                _ => Value::Null,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("a", DataType::Int),
            Attribute::new("b", DataType::Float),
            Attribute::new("s", DataType::Str),
        ])
    }

    fn tup(a: i64, b: f64, s: &str) -> Tuple {
        vec![Value::Int(a), Value::Float(b), Value::Str(s.into())]
    }

    #[test]
    fn bind_resolves_columns() {
        let e = Expr::col("a").add(Expr::col("b")).bind(&schema()).unwrap();
        assert_eq!(e.eval(&tup(2, 0.5, "x")), Value::Float(2.5));
    }

    #[test]
    fn bind_unknown_column_fails() {
        let err = Expr::col("zz").bind(&schema()).unwrap_err();
        assert_eq!(err, BindError::UnknownColumn("zz".into()));
    }

    #[test]
    fn int_arithmetic_stays_int() {
        let e = Expr::col("a").mul(Expr::lit_i(3)).bind(&schema()).unwrap();
        assert_eq!(e.eval(&tup(4, 0.0, "")), Value::Int(12));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::col("a").div(Expr::lit_i(0)).bind(&schema()).unwrap();
        assert_eq!(e.eval(&tup(4, 0.0, "")), Value::Null);
        let e = Expr::col("b")
            .div(Expr::lit_f(0.0))
            .bind(&schema())
            .unwrap();
        assert_eq!(e.eval(&tup(0, 4.0, "")), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        // null AND false = false; null AND true = null; null OR true = true
        let null = Expr::null();
        let and_false = null.clone().and(Expr::lit_b(false)).bind(&s).unwrap();
        assert_eq!(and_false.eval(&tup(0, 0.0, "")), Value::Bool(false));
        let and_true = null.clone().and(Expr::lit_b(true)).bind(&s).unwrap();
        assert_eq!(and_true.eval(&tup(0, 0.0, "")), Value::Null);
        let or_true = null.clone().or(Expr::lit_b(true)).bind(&s).unwrap();
        assert_eq!(or_true.eval(&tup(0, 0.0, "")), Value::Bool(true));
        let not_null = null.not().bind(&s).unwrap();
        assert_eq!(not_null.eval(&tup(0, 0.0, "")), Value::Null);
    }

    #[test]
    fn predicate_unknown_is_false() {
        let e = Expr::null().gt(Expr::lit_i(0)).bind(&schema()).unwrap();
        assert!(!e.eval_predicate(&tup(1, 1.0, "")));
    }

    #[test]
    fn null_tests() {
        let s = schema();
        let isn = Expr::col("a").is_null().bind(&s).unwrap();
        assert_eq!(
            isn.eval(&vec![Value::Null, Value::Null, Value::Null]),
            Value::Bool(true)
        );
        assert_eq!(isn.eval(&tup(1, 0.0, "")), Value::Bool(false));
        let notn = Expr::col("a").is_not_null().bind(&s).unwrap();
        assert!(notn.eval_predicate(&tup(1, 0.0, "")));
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let s = schema();
        let e = Expr::Coalesce(vec![Expr::col("a"), Expr::lit_i(-1)])
            .bind(&s)
            .unwrap();
        assert_eq!(
            e.eval(&vec![Value::Null, Value::Null, Value::Null]),
            Value::Int(-1)
        );
        assert_eq!(e.eval(&tup(7, 0.0, "")), Value::Int(7));
    }

    #[test]
    fn string_comparison() {
        let e = Expr::col("s")
            .eq(Expr::lit_s("hit"))
            .bind(&schema())
            .unwrap();
        assert!(e.eval_predicate(&tup(0, 0.0, "hit")));
        assert!(!e.eval_predicate(&tup(0, 0.0, "miss")));
    }

    #[test]
    fn columns_collects_unique_sorted() {
        let e = Expr::col("b").add(Expr::col("a")).mul(Expr::col("b"));
        assert_eq!(e.columns(), vec!["a", "b"]);
    }

    #[test]
    fn column_check_reports_what_bind_reports() {
        let s = schema();
        let cases = [
            Expr::col("a").gt(Expr::lit_i(0)),
            Expr::col("ghost"),
            // two unknown columns: the left operand's is reported
            Expr::col("x").add(Expr::col("y")),
            Expr::col("a").add(Expr::col("right")),
            Expr::col("a")
                .gt(Expr::lit_i(0))
                .and(Expr::col("negated").not()),
            Expr::col("b").add(Expr::col("tested").is_null().not()),
            Expr::col("a").lt(Expr::col("b")).or(Expr::col("first")
                .is_null()
                .not()
                .and(Expr::col("second").is_null())),
            Expr::Coalesce(vec![Expr::col("a"), Expr::col("c1"), Expr::col("c2")]),
            Expr::col("b")
                .mul(Expr::Coalesce(vec![Expr::lit_i(1), Expr::col("inner")]))
                .add(Expr::col("outer")),
            Expr::Coalesce(vec![]),
        ];
        for e in &cases {
            assert_eq!(e.check_columns(&s), e.bind(&s).map(|_| ()), "{e}");
        }
        assert_eq!(
            Expr::col("x").add(Expr::col("y")).check_columns(&s),
            Err(BindError::UnknownColumn("x".into()))
        );
    }

    #[test]
    fn result_types() {
        let s = schema();
        assert_eq!(
            Expr::col("a").add(Expr::lit_i(1)).result_type(&s).unwrap(),
            DataType::Int
        );
        assert_eq!(
            Expr::col("a").add(Expr::col("b")).result_type(&s).unwrap(),
            DataType::Float
        );
        assert_eq!(
            Expr::col("a").div(Expr::lit_i(2)).result_type(&s).unwrap(),
            DataType::Float
        );
        assert_eq!(
            Expr::col("a").gt(Expr::lit_i(0)).result_type(&s).unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::col("s").is_null().result_type(&s).unwrap(),
            DataType::Bool
        );
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = Expr::col("a")
            .gt(Expr::lit_i(0))
            .and(Expr::col("s").is_null());
        assert_eq!(e.to_string(), "((a > 0) AND (s IS NULL))");
    }
}
