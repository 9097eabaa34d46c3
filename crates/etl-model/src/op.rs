//! The ETL operator taxonomy and per-operator cost parameters.

use crate::expr::Expr;
use crate::types::{DataType, Schema};
use std::fmt;
use std::sync::Arc;

/// Aggregate functions for [`OpKind::Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (counts all rows in the group).
    Count,
    /// Numeric sum (nulls skipped).
    Sum,
    /// Minimum (nulls skipped).
    Min,
    /// Maximum (nulls skipped).
    Max,
    /// Mean (nulls skipped).
    Avg,
}

impl AggFunc {
    /// Result type given the input attribute type.
    pub fn result_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Sum => {
                if input == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                }
            }
            AggFunc::Avg => DataType::Float,
            AggFunc::Min | AggFunc::Max => input,
        }
    }

    /// Canonical name for serialisation.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// Parse a name produced by [`AggFunc::name`].
    pub fn parse(s: &str) -> Option<AggFunc> {
        Some(match s {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// The kind (and kind-specific configuration) of an ETL flow operation.
///
/// Input/output arity constraints (enforced by flow validation):
///
/// | kind | inputs | outputs |
/// |------|--------|---------|
/// | `Extract` | 0 | ≥1 |
/// | `Load` | 1 | 0 |
/// | `Merge`, `Join` | ≥2 | ≥1 |
/// | `Split`, `Partition`, `Router` | 1 | ≥1 (Router: exactly 2) |
/// | everything else | 1 | ≥1 |
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Reads tuples from a named source; carries the source schema.
    Extract {
        /// Source identifier (table / file / stream name).
        source: String,
        /// Schema of the extracted tuples.
        schema: Schema,
    },
    /// Writes tuples to a named warehouse target.
    Load {
        /// Target identifier.
        target: String,
    },
    /// Keeps tuples satisfying the predicate.
    Filter {
        /// Boolean predicate over the input schema.
        predicate: Expr,
    },
    /// Keeps only the named attributes, in order. The paper's Fig. 2 "SPLIT
    /// required attributes" is a projection in this taxonomy.
    Project {
        /// Attribute names to keep.
        keep: Vec<String>,
    },
    /// Adds derived columns (the paper's "DERIVE VALUES").
    Derive {
        /// `(new_attribute, expression)` pairs evaluated per tuple.
        outputs: Vec<(String, Expr)>,
    },
    /// Converts an attribute to another type.
    Convert {
        /// Attribute to convert.
        column: String,
        /// Target type.
        to: DataType,
    },
    /// Inner equi-join of two inputs on `left_key = right_key`.
    Join {
        /// Key attribute on the first (left) input.
        left_key: String,
        /// Key attribute on the second (right) input.
        right_key: String,
    },
    /// Groups by `group_by` and computes aggregates.
    Aggregate {
        /// Grouping attributes.
        group_by: Vec<String>,
        /// `(output_name, function, input_attribute)` triples.
        aggs: Vec<(String, AggFunc, String)>,
    },
    /// Sorts by the named attributes ascending.
    Sort {
        /// Sort key attributes.
        by: Vec<String>,
    },
    /// Replicates the input to every successor (broadcast split).
    Split,
    /// Routes each tuple by predicate: true → first successor, false →
    /// second (the paper's Fig. 2 Group_A / Group_B split).
    Router {
        /// Routing predicate.
        predicate: Expr,
    },
    /// Horizontal partition: hash-distributes tuples over successors (the
    /// `ParallelizeTask` FCP inserts this).
    Partition,
    /// Merges (unions) same-schema inputs.
    Merge,
    /// Removes duplicate tuples by the named key attributes (the
    /// `RemoveDuplicateEntries` FCP; empty keys = whole tuple).
    Dedup {
        /// Key attributes (empty → all attributes).
        keys: Vec<String>,
    },
    /// Drops tuples with nulls in the named attributes (the
    /// `FilterNullValues` FCP; empty = all attributes).
    FilterNulls {
        /// Attributes that must be non-null (empty → all). Shared with the
        /// schema the pattern read them from.
        columns: Vec<Arc<str>>,
    },
    /// Crosschecks values against an alternative source, correcting
    /// mismatches (the `CrosscheckSources` FCP).
    Crosscheck {
        /// Alternative source identifier.
        alt_source: String,
        /// Key attribute used for matching.
        key: String,
    },
    /// Persists intermediary data as a recovery savepoint (the
    /// `AddCheckpoint` FCP; Fig. 2's "PERSIST intermediary data").
    Checkpoint {
        /// Savepoint tag.
        tag: String,
    },
    /// Encrypts the channel contents (graph-level security configuration).
    Encrypt,
}

impl OpKind {
    /// Short lowercase kind name used in serialisation and reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Extract { .. } => "extract",
            OpKind::Load { .. } => "load",
            OpKind::Filter { .. } => "filter",
            OpKind::Project { .. } => "project",
            OpKind::Derive { .. } => "derive",
            OpKind::Convert { .. } => "convert",
            OpKind::Join { .. } => "join",
            OpKind::Aggregate { .. } => "aggregate",
            OpKind::Sort { .. } => "sort",
            OpKind::Split => "split",
            OpKind::Router { .. } => "router",
            OpKind::Partition => "partition",
            OpKind::Merge => "merge",
            OpKind::Dedup { .. } => "dedup",
            OpKind::FilterNulls { .. } => "filter_nulls",
            OpKind::Crosscheck { .. } => "crosscheck",
            OpKind::Checkpoint { .. } => "checkpoint",
            OpKind::Encrypt => "encrypt",
        }
    }

    /// `(min_inputs, max_inputs)` arity; `usize::MAX` = unbounded.
    pub fn input_arity(&self) -> (usize, usize) {
        match self {
            OpKind::Extract { .. } => (0, 0),
            OpKind::Join { .. } => (2, 2),
            OpKind::Merge => (2, usize::MAX),
            _ => (1, 1),
        }
    }

    /// `(min_outputs, max_outputs)` arity; `usize::MAX` = unbounded.
    pub fn output_arity(&self) -> (usize, usize) {
        match self {
            OpKind::Load { .. } => (0, 0),
            OpKind::Router { .. } => (2, 2),
            OpKind::Split | OpKind::Partition => (1, usize::MAX),
            _ => (1, 1),
        }
    }

    /// Default selectivity estimate (output rows per input row) used by the
    /// analytic estimator when no override is configured.
    pub fn default_selectivity(&self) -> f64 {
        match self {
            OpKind::Filter { .. } => 0.5,
            OpKind::FilterNulls { .. } => 0.95,
            OpKind::Dedup { .. } => 0.9,
            OpKind::Aggregate { .. } => 0.1,
            OpKind::Join { .. } => 1.0,
            _ => 1.0,
        }
    }

    /// Default per-tuple processing cost in milliseconds, reflecting the
    /// relative expense of each operator class.
    pub fn default_cost_per_tuple(&self) -> f64 {
        match self {
            OpKind::Extract { .. } => 0.002,
            OpKind::Load { .. } => 0.004,
            OpKind::Filter { .. } | OpKind::FilterNulls { .. } => 0.001,
            OpKind::Project { .. } | OpKind::Convert { .. } => 0.001,
            OpKind::Derive { .. } => 0.010,
            OpKind::Join { .. } => 0.008,
            OpKind::Aggregate { .. } => 0.006,
            OpKind::Sort { .. } => 0.006,
            OpKind::Split | OpKind::Partition | OpKind::Router { .. } | OpKind::Merge => 0.0005,
            OpKind::Dedup { .. } => 0.003,
            OpKind::Crosscheck { .. } => 0.012,
            OpKind::Checkpoint { .. } => 0.005,
            OpKind::Encrypt => 0.002,
        }
    }
}

/// Cost/behaviour parameters attached to every operation. The
/// [`CostModel`](crate::CostModel) turns them into virtual-clock time for
/// both the estimator and the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Per-tuple processing cost in milliseconds.
    pub cost_per_tuple_ms: f64,
    /// Fixed startup cost in milliseconds.
    pub startup_ms: f64,
    /// Optional selectivity override (output rows / input rows).
    pub selectivity: Option<f64>,
    /// Probability the operation fails while processing one batch
    /// (exercised by the reliability simulation).
    pub failure_rate: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cost_per_tuple_ms: f64::NAN, // resolved from kind at attach time
            startup_ms: 1.0,
            selectivity: None,
            failure_rate: 0.0,
        }
    }
}

/// An ETL flow operation: a named node of the flow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Human-readable unique-ish name (e.g. `FILTER purchases`). Shared,
    /// so a copy of the operation copies a pointer, not the name.
    name: Arc<str>,
    /// Operator kind and configuration.
    pub kind: OpKind,
    /// Cost parameters.
    pub cost: CostParams,
    /// Degree of intra-operator parallelism (≥1); `ParallelizeTask`
    /// raises this on replicas.
    pub parallelism: u32,
    /// True when this operation was inserted by a Flow Component Pattern
    /// (used to avoid stacking the same pattern twice at one point).
    from_pattern: Option<Arc<str>>,
}

impl Operation {
    /// New operation with kind-derived default costs.
    pub fn new(name: impl Into<Arc<str>>, kind: OpKind) -> Self {
        let cost = CostParams {
            cost_per_tuple_ms: kind.default_cost_per_tuple(),
            ..CostParams::default()
        };
        Operation {
            name: name.into(),
            kind,
            cost,
            parallelism: 1,
            from_pattern: None,
        }
    }

    /// Extract operation from `source` with the given schema.
    pub fn extract(source: impl Into<String> + Clone, schema: Schema) -> Self {
        let s = source.clone().into();
        Operation::new(
            format!("EXTRACT {s}"),
            OpKind::Extract {
                source: source.into(),
                schema,
            },
        )
    }

    /// Load operation into `target`.
    pub fn load(target: impl Into<String>) -> Self {
        let t = target.into();
        Operation::new(format!("LOAD {t}"), OpKind::Load { target: t })
    }

    /// Filter with a named predicate.
    pub fn filter(name: impl Into<Arc<str>>, predicate: Expr) -> Self {
        Operation::new(name, OpKind::Filter { predicate })
    }

    /// Derive-values operation.
    pub fn derive(name: impl Into<Arc<str>>, outputs: Vec<(String, Expr)>) -> Self {
        Operation::new(name, OpKind::Derive { outputs })
    }

    /// Projection keeping the listed attributes.
    pub fn project(name: impl Into<Arc<str>>, keep: Vec<String>) -> Self {
        Operation::new(name, OpKind::Project { keep })
    }

    /// Builder-style cost override.
    pub fn with_cost(mut self, cost_per_tuple_ms: f64) -> Self {
        self.cost.cost_per_tuple_ms = cost_per_tuple_ms;
        self
    }

    /// Builder-style selectivity override.
    pub fn with_selectivity(mut self, s: f64) -> Self {
        self.cost.selectivity = Some(s);
        self
    }

    /// Builder-style failure-rate override.
    pub fn with_failure_rate(mut self, p: f64) -> Self {
        self.cost.failure_rate = p;
        self
    }

    /// Effective selectivity: the override if set, else the kind default.
    pub fn selectivity(&self) -> f64 {
        self.cost
            .selectivity
            .unwrap_or_else(|| self.kind.default_selectivity())
    }

    /// Marks the operation as pattern-inserted.
    pub fn tag_pattern(mut self, pattern: impl Into<Arc<str>>) -> Self {
        self.from_pattern = Some(pattern.into());
        self
    }

    /// Builder-style rename.
    pub fn renamed(mut self, name: impl Into<Arc<str>>) -> Self {
        self.name = name.into();
        self
    }

    /// The operation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pattern that inserted this operation, if one did.
    pub fn from_pattern(&self) -> Option<&str> {
        self.from_pattern.as_deref()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.kind.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Attribute;

    #[test]
    fn arity_tables() {
        let extract = OpKind::Extract {
            source: "s".into(),
            schema: Schema::empty(),
        };
        assert_eq!(extract.input_arity(), (0, 0));
        assert_eq!(OpKind::Merge.input_arity(), (2, usize::MAX));
        assert_eq!(
            OpKind::Join {
                left_key: "a".into(),
                right_key: "b".into()
            }
            .input_arity(),
            (2, 2)
        );
        assert_eq!(OpKind::Load { target: "t".into() }.output_arity(), (0, 0));
        assert_eq!(OpKind::Split.output_arity(), (1, usize::MAX));
        assert_eq!(
            OpKind::Router {
                predicate: Expr::lit_b(true)
            }
            .output_arity(),
            (2, 2)
        );
    }

    #[test]
    fn defaults_applied_on_new() {
        let op = Operation::new("d", OpKind::Derive { outputs: vec![] });
        assert_eq!(op.cost.cost_per_tuple_ms, 0.010);
        assert_eq!(op.parallelism, 1);
        assert!(op.from_pattern().is_none());
    }

    #[test]
    fn selectivity_override() {
        let op = Operation::filter("f", Expr::lit_b(true));
        assert_eq!(op.selectivity(), 0.5);
        let op = op.with_selectivity(0.8);
        assert_eq!(op.selectivity(), 0.8);
    }

    #[test]
    fn constructors_produce_expected_kinds() {
        let schema = Schema::new(vec![Attribute::new("x", DataType::Int)]);
        assert_eq!(Operation::extract("src", schema).kind.name(), "extract");
        assert_eq!(Operation::load("t").kind.name(), "load");
        assert_eq!(
            Operation::filter("f", Expr::lit_b(true)).kind.name(),
            "filter"
        );
        assert_eq!(Operation::project("p", vec![]).kind.name(), "project");
    }

    #[test]
    fn agg_result_types() {
        assert_eq!(AggFunc::Count.result_type(DataType::Str), DataType::Int);
        assert_eq!(AggFunc::Sum.result_type(DataType::Int), DataType::Int);
        assert_eq!(AggFunc::Sum.result_type(DataType::Float), DataType::Float);
        assert_eq!(AggFunc::Avg.result_type(DataType::Int), DataType::Float);
        assert_eq!(AggFunc::Min.result_type(DataType::Date), DataType::Date);
    }

    #[test]
    fn agg_parse_roundtrip() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            assert_eq!(AggFunc::parse(f.name()), Some(f));
        }
        assert_eq!(AggFunc::parse("median"), None);
    }
}
