//! Attribute schemata: the data-model side of the ETL flow graph.

use std::fmt;
use std::sync::Arc;

/// Scalar data types supported by the model.
///
/// The set deliberately mirrors what the TPC-H / TPC-DS derived demo flows
/// need; `Timestamp` carries seconds since epoch and backs the data-quality
/// freshness measures (request time − time of last update).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (also used for decimals).
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Date as days since epoch.
    Date,
    /// Timestamp as seconds since epoch.
    Timestamp,
}

impl DataType {
    /// True for `Int`, `Float`, `Date` and `Timestamp` — the types the
    /// paper's example prerequisite ("numeric fields in the output schema of
    /// the preceding operator") accepts.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            DataType::Int | DataType::Float | DataType::Date | DataType::Timestamp
        )
    }

    /// Canonical lowercase name, used by the xLM serialisation.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
            DataType::Date => "date",
            DataType::Timestamp => "timestamp",
        }
    }

    /// Parses a type name as produced by [`DataType::name`].
    pub fn parse(s: &str) -> Option<DataType> {
        Some(match s {
            "int" => DataType::Int,
            "float" => DataType::Float,
            "str" | "string" | "varchar" => DataType::Str,
            "bool" | "boolean" => DataType::Bool,
            "date" => DataType::Date,
            "timestamp" => DataType::Timestamp,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One named, typed attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name, unique within its schema. Shared, so a schema copy
    /// copies a pointer, not the name.
    name: Arc<str>,
    /// Scalar type.
    pub dtype: DataType,
    /// Whether null values are admissible. Cleaning patterns
    /// (`FilterNullValues`) tighten this to `false` downstream.
    pub nullable: bool,
    /// Whether the attribute carries sensitive data at its source.
    /// Only meaningful on extract schemata: the taint analysis follows
    /// lineage from there, so derived/propagated attributes never need
    /// the flag themselves.
    pub sensitive: bool,
}

impl Attribute {
    /// New nullable attribute.
    pub fn new(name: impl Into<Arc<str>>, dtype: DataType) -> Self {
        Attribute {
            name: name.into(),
            dtype,
            nullable: true,
            sensitive: false,
        }
    }

    /// New non-nullable attribute.
    pub fn required(name: impl Into<Arc<str>>, dtype: DataType) -> Self {
        Attribute {
            name: name.into(),
            dtype,
            nullable: false,
            sensitive: false,
        }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared name, for a column name that outlives the schema.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Marks the attribute as carrying sensitive data (builder-style).
    pub fn mark_sensitive(mut self) -> Self {
        self.sensitive = true;
        self
    }
}

/// An ordered list of attributes with unique names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema; panics on duplicate attribute names (programmer
    /// error in flow construction, caught early on purpose). Schemas built
    /// from user input go through [`try_new`](Self::try_new).
    pub fn new(attrs: Vec<Attribute>) -> Self {
        Schema::try_new(attrs)
            .unwrap_or_else(|name| panic!("duplicate attribute name `{name}` in schema"))
    }

    /// Builds a schema, failing with the first attribute name that repeats
    /// an earlier one.
    pub fn try_new(attrs: Vec<Attribute>) -> Result<Self, String> {
        // Pairwise over borrowed names: schemas are a few dozen attributes
        // wide, and this copies no name.
        let repeat = (1..attrs.len()).find(|&i| attrs[..i].iter().any(|a| a.name == attrs[i].name));
        match repeat {
            Some(i) => Err(attrs[i].name.to_string()),
            None => Ok(Schema { attrs }),
        }
    }

    /// The empty schema.
    pub const fn empty() -> Self {
        Schema { attrs: Vec::new() }
    }

    /// Attribute list in order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Index of the attribute named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name() == name)
    }

    /// Borrow the attribute named `name`.
    pub fn attr(&self, name: &str) -> Option<&Attribute> {
        self.attrs.iter().find(|a| a.name() == name)
    }

    /// True when an attribute of this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// True when at least one attribute has a numeric type — the example
    /// applicability prerequisite from the paper.
    pub fn has_numeric(&self) -> bool {
        self.attrs.iter().any(|a| a.dtype.is_numeric())
    }

    /// True when at least one attribute is nullable (a cleaning pattern has
    /// something to do).
    pub fn has_nullable(&self) -> bool {
        self.attrs.iter().any(|a| a.nullable)
    }

    /// Projection onto the named attributes, in the given order.
    /// Fails with the name of the first missing attribute, or else of the
    /// first one kept twice.
    pub fn project(&self, keep: &[String]) -> Result<Schema, String> {
        let mut out = Vec::with_capacity(keep.len());
        for k in keep {
            match self.attr(k) {
                Some(a) => out.push(a.clone()),
                None => return Err(k.clone()),
            }
        }
        Schema::try_new(out)
    }

    /// A copy with room for `additional` more attributes, so pushing
    /// them does not reallocate.
    pub(crate) fn clone_with_room(&self, additional: usize) -> Schema {
        let mut attrs = Vec::with_capacity(self.attrs.len() + additional);
        attrs.extend_from_slice(&self.attrs);
        Schema { attrs }
    }

    /// Appends an attribute in place, failing on a duplicate name (the
    /// schema is then unchanged).
    pub fn push(&mut self, attr: Attribute) -> Result<(), String> {
        if self.contains(&attr.name) {
            return Err(attr.name.to_string());
        }
        self.attrs.push(attr);
        Ok(())
    }

    /// Concatenation for joins: right-side attributes that clash with a left
    /// name get `r_` prepended. The one statement of join renaming.
    pub fn join_concat(&self, right: &Schema) -> Schema {
        let clashes = |attrs: &[Attribute], name: &str| attrs.iter().any(|x| x.name() == name);
        let mut attrs = Vec::with_capacity(self.len() + right.len());
        attrs.extend_from_slice(&self.attrs);
        for a in &right.attrs {
            let mut a = a.clone();
            if clashes(&attrs, &a.name) {
                let mut renamed = if self.contains(&a.name) {
                    format!("r_{}", a.name)
                } else {
                    a.name.to_string()
                };
                // A join of dirty sources can still clash after prefixing;
                // keep appending underscores until unique (bounded by attr
                // count).
                while clashes(&attrs, &renamed) {
                    renamed.push('_');
                }
                a.name = renamed.into();
            }
            attrs.push(a);
        }
        Schema { attrs }
    }

    /// Marks the named attributes non-nullable (the downstream effect of a
    /// `FilterNullValues` application); an empty list marks every
    /// attribute. Unknown names are ignored.
    pub fn with_non_nullable(&self, names: &[Arc<str>]) -> Schema {
        let mut out = self.clone();
        for a in &mut out.attrs {
            if names.is_empty() || names.contains(&a.name) {
                a.nullable = false;
            }
        }
        out
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}:{}{}",
                a.name,
                a.dtype,
                if a.nullable { "?" } else { "" }
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Schema {
        Schema::new(vec![
            Attribute::required("id", DataType::Int),
            Attribute::new("name", DataType::Str),
            Attribute::new("amount", DataType::Float),
        ])
    }

    #[test]
    fn lookup_and_contains() {
        let s = s();
        assert_eq!(s.index_of("name"), Some(1));
        assert!(s.contains("amount"));
        assert!(!s.contains("ghost"));
        assert_eq!(s.attr("id").unwrap().dtype, DataType::Int);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_names_panic() {
        Schema::new(vec![
            Attribute::new("x", DataType::Int),
            Attribute::new("x", DataType::Str),
        ]);
    }

    #[test]
    fn numeric_detection() {
        assert!(s().has_numeric());
        let text_only = Schema::new(vec![Attribute::new("t", DataType::Str)]);
        assert!(!text_only.has_numeric());
        assert!(DataType::Timestamp.is_numeric());
        assert!(!DataType::Bool.is_numeric());
    }

    #[test]
    fn project_keeps_order_and_reports_missing() {
        let s = s();
        let p = s.project(&["amount".into(), "id".into()]).unwrap();
        assert_eq!(p.attrs()[0].name(), "amount");
        assert_eq!(p.attrs()[1].name(), "id");
        assert_eq!(s.project(&["nope".into()]).unwrap_err(), "nope");
    }

    #[test]
    fn join_concat_prefixes_clashes() {
        let left = s();
        let right = Schema::new(vec![
            Attribute::new("id", DataType::Int),
            Attribute::new("city", DataType::Str),
        ]);
        let j = left.join_concat(&right);
        assert_eq!(j.len(), 5);
        assert!(j.contains("r_id"));
        assert!(j.contains("city"));
    }

    #[test]
    fn non_nullable_marking() {
        let s = s().with_non_nullable(&["name".into(), "ghost".into()]);
        assert!(!s.attr("name").unwrap().nullable);
        assert!(s.attr("amount").unwrap().nullable);
    }

    #[test]
    fn datatype_roundtrip() {
        for dt in [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
            DataType::Date,
            DataType::Timestamp,
        ] {
            assert_eq!(DataType::parse(dt.name()), Some(dt));
        }
        assert_eq!(DataType::parse("varchar"), Some(DataType::Str));
        assert_eq!(DataType::parse("blob"), None);
    }

    #[test]
    fn display_format() {
        let txt = s().to_string();
        assert_eq!(txt, "(id:int, name:str?, amount:float?)");
    }
}
