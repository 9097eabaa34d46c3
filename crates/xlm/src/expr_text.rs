//! Total text serialisation for [`etl_model::expr::Expr`]: a
//! recursive-descent parser for the text that `Expr`'s `Display` writes, so
//! xLM documents can carry predicates and derive expressions as readable
//! strings.
//!
//! Grammar (priority low→high):
//!
//! ```text
//! expr    := or
//! or      := and ( "OR" and )*
//! and     := unary ( "AND" unary )*
//! unary   := "NOT" unary | cmp
//! cmp     := add ( ( "=" | "<>" | "<=" | ">=" | "<" | ">" ) add )?
//! add     := mul ( ( "+" | "-" ) mul )*
//! mul     := postfix ( ( "*" | "/" ) postfix )*
//! postfix := primary ( "IS" "NOT"? "NULL" )*
//! primary := "(" expr ")" | "COALESCE(" expr ("," expr)* ")"
//!          | "NULL" | "TRUE" | "FALSE"
//!          | "DATE(" int ")" | "TS(" int ")" | "NAN(" int ")"
//!          | number | 'string' | identifier | "column"
//! ```
//!
//! Strings are single-quoted with `''` escaping. A column is written as a
//! bare identifier when it is one and is no keyword of the grammar;
//! otherwise (`"NULL"`, `"order id"`) it is double-quoted, with `""`
//! escaping. `NAN(b)` is the NaN whose
//! bit pattern is `b` as an `i64`; `NAN` not followed by `(` is a column,
//! as is `NaN`. ±∞ needs no form of its own: `1e999` overflows to it.
//! `Display` fully
//! parenthesises binary operations, so `parse_expr(&e.to_string())` is the
//! identity on the AST (verified by property test).

use etl_model::expr::{BinOp, Expr};
use etl_model::Value;
use std::fmt;

/// Expression parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprParseError {
    /// Byte offset.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ExprParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expression error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ExprParseError {}

/// Parses an expression in the module grammar.
pub fn parse_expr(input: &str) -> Result<Expr, ExprParseError> {
    let mut p = P { s: input, pos: 0 };
    p.ws();
    let e = p.or_expr()?;
    p.ws();
    if p.pos != input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

struct P<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, msg: impl Into<String>) -> ExprParseError {
        ExprParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    /// Advances past the characters `keep` accepts, by their UTF-8 width.
    fn skip_while(&mut self, keep: impl Fn(char) -> bool) {
        while let Some(c) = self.peek().filter(|&c| keep(c)) {
            self.pos += c.len_utf8();
        }
    }

    fn ws(&mut self) {
        self.skip_while(char::is_whitespace);
    }

    fn eat(&mut self, pat: &str) -> bool {
        if self.s[self.pos..].starts_with(pat) {
            self.pos += pat.len();
            true
        } else {
            false
        }
    }

    /// Case-sensitive keyword followed by a non-identifier char.
    fn keyword(&mut self, kw: &str) -> bool {
        let rest = &self.s[self.pos..];
        if let Some(tail) = rest.strip_prefix(kw) {
            let after = tail.chars().next();
            if !matches!(after, Some(c) if c.is_alphanumeric() || c == '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn or_expr(&mut self) -> Result<Expr, ExprParseError> {
        let mut e = self.and_expr()?;
        loop {
            self.ws();
            if self.keyword("OR") {
                self.ws();
                let rhs = self.and_expr()?;
                e = e.or(rhs);
            } else {
                return Ok(e);
            }
        }
    }

    fn and_expr(&mut self) -> Result<Expr, ExprParseError> {
        let mut e = self.unary()?;
        loop {
            self.ws();
            if self.keyword("AND") {
                self.ws();
                let rhs = self.unary()?;
                e = e.and(rhs);
            } else {
                return Ok(e);
            }
        }
    }

    fn unary(&mut self) -> Result<Expr, ExprParseError> {
        self.ws();
        if self.keyword("NOT") {
            self.ws();
            return Ok(self.unary()?.not());
        }
        self.cmp()
    }

    fn cmp(&mut self) -> Result<Expr, ExprParseError> {
        let lhs = self.add()?;
        self.ws();
        for (sym, op) in [
            ("<>", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("=", BinOp::Eq),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat(sym) {
                self.ws();
                let rhs = self.add()?;
                return Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn add(&mut self) -> Result<Expr, ExprParseError> {
        let mut e = self.mul()?;
        loop {
            self.ws();
            if self.eat("+") {
                self.ws();
                e = e.add(self.mul()?);
            } else if self.eat("-") {
                self.ws();
                e = e.sub(self.mul()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn mul(&mut self) -> Result<Expr, ExprParseError> {
        let mut e = self.postfix()?;
        loop {
            self.ws();
            if self.eat("*") {
                self.ws();
                e = e.mul(self.postfix()?);
            } else if self.eat("/") {
                self.ws();
                e = e.div(self.postfix()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn postfix(&mut self) -> Result<Expr, ExprParseError> {
        let mut e = self.primary()?;
        loop {
            self.ws();
            let save = self.pos;
            if self.keyword("IS") {
                self.ws();
                if self.keyword("NOT") {
                    self.ws();
                    if self.keyword("NULL") {
                        e = e.is_not_null();
                        continue;
                    }
                } else if self.keyword("NULL") {
                    e = e.is_null();
                    continue;
                }
                self.pos = save;
            }
            return Ok(e);
        }
    }

    fn primary(&mut self) -> Result<Expr, ExprParseError> {
        self.ws();
        if self.eat("(") {
            let e = self.or_expr()?;
            self.ws();
            if !self.eat(")") {
                return Err(self.err("expected `)`"));
            }
            // allow the postfix IS NULL the writer puts inside parens
            return self.postfix_tail(e);
        }
        if self.keyword("COALESCE") {
            self.ws();
            if !self.eat("(") {
                return Err(self.err("expected `(` after COALESCE"));
            }
            let mut args = vec![self.or_expr()?];
            loop {
                self.ws();
                if self.eat(",") {
                    args.push(self.or_expr()?);
                } else if self.eat(")") {
                    return Ok(Expr::Coalesce(args));
                } else {
                    return Err(self.err("expected `,` or `)` in COALESCE"));
                }
            }
        }
        if self.keyword("NULL") {
            return Ok(Expr::null());
        }
        if self.keyword("TRUE") {
            return Ok(Expr::lit_b(true));
        }
        if self.keyword("FALSE") {
            return Ok(Expr::lit_b(false));
        }
        if self.keyword("DATE") {
            return self.int_call().map(|v| Expr::Lit(Value::Date(v)));
        }
        if self.keyword("TS") {
            return self.int_call().map(|v| Expr::Lit(Value::Timestamp(v)));
        }
        let save = self.pos;
        if self.keyword("NAN") {
            self.ws();
            if self.peek() == Some('(') {
                let x = f64::from_bits(self.int_call()? as u64);
                if !x.is_nan() {
                    return Err(self.err("expected the bit pattern of a NaN"));
                }
                return Ok(Expr::lit_f(x));
            }
            self.pos = save;
        }
        match self.peek() {
            Some('\'') => self.quoted("string literal").map(Expr::lit_s),
            Some('"') => self.quoted("quoted column").map(Expr::Col),
            Some(c) if c.is_ascii_digit() => self.number(false),
            // unary minus on a numeric literal
            Some('-') => {
                self.pos += 1;
                self.number(true)
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                let start = self.pos;
                self.skip_while(|c| c.is_alphanumeric() || c == '_');
                Ok(Expr::col(&self.s[start..self.pos]))
            }
            _ => Err(self.err("expected a primary expression")),
        }
    }

    /// Continuation of postfix handling after a parenthesised expression
    /// (the writer emits `(x IS NULL)` with IS NULL inside the parens, but
    /// users may write `(x) IS NULL`).
    fn postfix_tail(&mut self, mut e: Expr) -> Result<Expr, ExprParseError> {
        loop {
            self.ws();
            let save = self.pos;
            if self.keyword("IS") {
                self.ws();
                if self.keyword("NOT") {
                    self.ws();
                    if self.keyword("NULL") {
                        e = e.is_not_null();
                        continue;
                    }
                } else if self.keyword("NULL") {
                    e = e.is_null();
                    continue;
                }
                self.pos = save;
            }
            return Ok(e);
        }
    }

    fn int_call(&mut self) -> Result<i64, ExprParseError> {
        self.ws();
        if !self.eat("(") {
            return Err(self.err("expected `(`"));
        }
        self.ws();
        let neg = self.eat("-");
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let v = signed_int(&self.s[start..self.pos], neg)
            .ok_or_else(|| self.err("expected an integer"))?;
        self.ws();
        if !self.eat(")") {
            return Err(self.err("expected `)`"));
        }
        Ok(v)
    }

    fn number(&mut self, negative: bool) -> Result<Expr, ExprParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some('.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let raw = &self.s[start..self.pos];
        if raw.is_empty() {
            return Err(self.err("expected a number"));
        }
        let sign = if negative { -1.0 } else { 1.0 };
        if is_float {
            let v: f64 = raw.parse().map_err(|_| self.err("bad float"))?;
            Ok(Expr::lit_f(sign * v))
        } else {
            let v = signed_int(raw, negative).ok_or_else(|| self.err("bad integer"))?;
            Ok(Expr::lit_i(v))
        }
    }

    /// The text between the quote character at the cursor and its closing
    /// twin, a doubled quote standing for one; `what` names the form in
    /// the error for a missing close.
    fn quoted(&mut self, what: &str) -> Result<String, ExprParseError> {
        let quote = self.peek().expect("a quote at the cursor");
        self.pos += quote.len_utf8();
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(c) if c == quote => {
                    self.pos += c.len_utf8();
                    if self.peek() == Some(quote) {
                        out.push(quote);
                        self.pos += quote.len_utf8();
                    } else {
                        return Ok(out);
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err(format!("unterminated {what}"))),
            }
        }
    }
}

/// The `i64` that the ASCII `digits` spell, negated when `negative`, or
/// `None` when there are none or the value is out of range. The signed
/// value is accumulated directly, so `i64::MIN`, whose magnitude is no
/// `i64`, reads back.
fn signed_int(digits: &str, negative: bool) -> Option<i64> {
    if digits.is_empty() {
        return None;
    }
    digits.bytes().try_fold(0i64, |acc, d| {
        let d = i64::from(d - b'0');
        let acc = acc.checked_mul(10)?;
        if negative {
            acc.checked_sub(d)
        } else {
            acc.checked_add(d)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: &Expr) {
        let text = e.to_string();
        let parsed =
            parse_expr(&text).unwrap_or_else(|err| panic!("failed to parse `{text}`: {err}"));
        assert_eq!(&parsed, e, "text was `{text}`");
    }

    #[test]
    fn literals_roundtrip() {
        roundtrip(&Expr::lit_i(42));
        roundtrip(&Expr::lit_i(-7));
        roundtrip(&Expr::lit_f(2.5));
        roundtrip(&Expr::lit_f(1.0e-9));
        roundtrip(&Expr::lit_s("plain"));
        roundtrip(&Expr::lit_s("it's quoted"));
        roundtrip(&Expr::lit_b(true));
        roundtrip(&Expr::lit_b(false));
        roundtrip(&Expr::null());
        roundtrip(&Expr::Lit(Value::Date(19000)));
        roundtrip(&Expr::Lit(Value::Timestamp(-5)));
    }

    /// The exact xLM text of one expression holding every `Expr` variant,
    /// every operator and every `Value` literal, a quote inside a string
    /// included. Every flow's xLM document, and so every session file,
    /// carries expressions in this form.
    #[test]
    fn written_text_is_pinned() {
        let arith = Expr::col("a")
            .add(Expr::lit_i(-7))
            .sub(Expr::lit_f(2.5))
            .mul(Expr::lit_f(1.0e-9))
            .div(Expr::col("b"));
        let e = Expr::Coalesce(vec![
            arith.eq(Expr::Lit(Value::Date(19000))),
            Expr::col("c").ne(Expr::Lit(Value::Timestamp(-5))),
            Expr::col("d")
                .lt(Expr::lit_s("it's"))
                .and(Expr::col("e").le(Expr::null()))
                .or(Expr::col("f").gt(Expr::lit_b(true)).not()),
            Expr::Bin(
                BinOp::Ge,
                Box::new(Expr::col("g")),
                Box::new(Expr::lit_b(false)),
            ),
            Expr::col("h").is_not_null(),
        ]);
        let text = "COALESCE((((((a + -7) - 2.5) * 1e-9) / b) = DATE(19000)), \
                    (c <> TS(-5)), \
                    (((d < 'it''s') AND (e <= NULL)) OR (NOT (f > TRUE))), \
                    (g >= FALSE), \
                    (NOT (h IS NULL)))";
        assert_eq!(e.to_string(), text);
        roundtrip(&e);
    }

    #[test]
    fn extreme_integers_roundtrip() {
        for v in [i64::MIN, i64::MAX] {
            roundtrip(&Expr::lit_i(v));
            roundtrip(&Expr::Lit(Value::Date(v)));
            roundtrip(&Expr::Lit(Value::Timestamp(v)));
        }
        // one past `i64::MIN` is still a typed error in every form
        let below = "-9223372036854775809";
        assert_eq!(parse_expr(below).unwrap_err().message, "bad integer");
        for call in ["DATE", "TS"] {
            let err = parse_expr(&format!("{call}({below})")).unwrap_err();
            assert_eq!(err.message, "expected an integer");
        }
    }

    #[test]
    fn non_finite_floats_roundtrip_bit_for_bit() {
        let payload = f64::from_bits(0x7ff0_0000_0000_0001);
        let cases = [
            (f64::NAN, "NAN(9221120237041090560)"),
            (-f64::NAN, "NAN(-2251799813685248)"),
            (payload, "NAN(9218868437227405313)"),
            (f64::INFINITY, "1e999"),
            (f64::NEG_INFINITY, "-1e999"),
        ];
        for (x, text) in cases {
            let e = Expr::lit_f(x);
            assert_eq!(e.to_string(), text);
            match parse_expr(text) {
                Ok(Expr::Lit(Value::Float(y))) => assert_eq!(y.to_bits(), x.to_bits(), "{text}"),
                other => panic!("`{text}` read back as {other:?}"),
            }
            // inside an operation too
            let e = Expr::col("a").sub(Expr::lit_f(x));
            match parse_expr(&e.to_string()) {
                Ok(Expr::Bin(BinOp::Sub, a, b)) => {
                    assert_eq!(*a, Expr::col("a"));
                    assert!(matches!(*b, Expr::Lit(Value::Float(y)) if y.to_bits() == x.to_bits()));
                }
                other => panic!("`{e}` read back as {other:?}"),
            }
        }
        // the names stay columns, and the call takes only NaN bits
        for name in ["NaN", "NAN", "inf", "nan"] {
            assert_eq!(parse_expr(name), Ok(Expr::col(name)));
        }
        assert_eq!(
            parse_expr("NAN > 1"),
            Ok(Expr::col("NAN").gt(Expr::lit_i(1)))
        );
        let err = parse_expr("NAN(0)").unwrap_err();
        assert_eq!(err.message, "expected the bit pattern of a NaN");
    }

    #[test]
    fn operators_roundtrip() {
        // keyword-named columns and one that is no identifier at all are
        // quoted, and read back as columns wherever they stand
        for name in [
            "a", "NULL", "TRUE", "FALSE", "NOT", "AND", "OR", "IS", "DATE", "TS", "COALESCE",
            "NAN", "a \"b\"",
        ] {
            let e = Expr::col(name)
                .add(Expr::col("b").mul(Expr::lit_i(2)))
                .sub(Expr::lit_f(0.5))
                .gt(Expr::lit_i(0))
                .and(
                    Expr::col("s")
                        .eq(Expr::lit_s("HIGH"))
                        .or(Expr::col(name).is_null()),
                )
                .not();
            roundtrip(&e);
            roundtrip(&Expr::col(name));
            roundtrip(&Expr::Coalesce(vec![
                Expr::col(name),
                Expr::col(name).not(),
            ]));
        }
        assert_eq!(Expr::col("NULL").to_string(), r#""NULL""#);
        assert_eq!(Expr::col("a \"b\"").to_string(), r#""a ""b""""#);
    }

    #[test]
    fn fig2_predicate_roundtrip() {
        let e = Expr::col("purchase_line_item_id")
            .eq(Expr::col("item_id"))
            .and(Expr::col("item_record_end_date").is_null())
            .and(Expr::col("store_record_end_date").is_null());
        roundtrip(&e);
    }

    #[test]
    fn coalesce_and_is_not_null() {
        roundtrip(&Expr::Coalesce(vec![
            Expr::col("a"),
            Expr::col("b").add(Expr::lit_i(1)),
            Expr::lit_i(0),
        ]));
        roundtrip(&Expr::col("a").is_not_null());
    }

    #[test]
    fn parses_hand_written_forms() {
        // unparenthesised with precedence
        let e = parse_expr("a + b * 2 > 10 AND NOT (c IS NULL)").unwrap();
        let expected = Expr::col("a")
            .add(Expr::col("b").mul(Expr::lit_i(2)))
            .gt(Expr::lit_i(10))
            .and(Expr::col("c").is_null().not());
        assert_eq!(e, expected);
        // postfix IS NULL outside parens
        assert_eq!(parse_expr("(a) IS NULL").unwrap(), Expr::col("a").is_null());
    }

    #[test]
    fn errors_are_positioned() {
        assert!(parse_expr("a +").is_err());
        assert!(parse_expr("'unterminated").is_err());
        assert!(parse_expr("(a").is_err());
        assert!(parse_expr("a b").is_err());
        assert!(parse_expr("").is_err());
    }

    #[test]
    fn non_ascii_identifiers_and_whitespace_parse() {
        // The cursor steps over whole characters: a multi-byte letter in
        // a column name and a no-break space between tokens.
        assert_eq!(
            parse_expr("größe > 1"),
            Ok(Expr::col("größe").gt(Expr::lit_i(1)))
        );
        assert_eq!(
            parse_expr("a >\u{a0}1"),
            Ok(Expr::col("a").gt(Expr::lit_i(1)))
        );
        roundtrip(&Expr::col("straße").eq(Expr::lit_s("Müller")));
    }

    #[test]
    fn keywords_do_not_swallow_identifiers() {
        // ANDREW is a column, not AND + REW
        let e = parse_expr("ANDREW > 1").unwrap();
        assert_eq!(e, Expr::col("ANDREW").gt(Expr::lit_i(1)));
        let e = parse_expr("NULLABLE = 1").unwrap();
        assert_eq!(e, Expr::col("NULLABLE").eq(Expr::lit_i(1)));
    }
}
