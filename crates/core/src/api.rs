//! Serializable plan DTOs — the wire boundary of the facade.
//!
//! The HTTP service (`poiesis_server::PlanningService`) wraps the
//! [`SessionManager`](crate::SessionManager) and speaks these types: a [`PlanRequest`] carries everything a client
//! may configure (objective, strategy, budget, evaluation mode), a
//! [`PlanResponse`] carries everything worth showing (the Fig. 4 frontier
//! as [`AlternativeSummary`] rows plus cycle statistics). Both round-trip
//! losslessly through the vendored serde's JSON data model
//! ([`serde::json::Value`]) via [`ToJson`] / [`FromJson`] — a property
//! pinned down by proptests in `tests/facade.rs`.
//!
//! Characteristics and measures travel as their stable snake_case keys
//! ([`Characteristic::key`], [`MeasureId::key`]), never as display names,
//! so renaming a label cannot break a client.

use crate::builder::SessionBuilder;
use crate::error::PoiesisError;
use crate::eval::EvalMode;
use crate::objective::{Direction, Goal, Objective};
use crate::planner::{PlannerConfig, PlannerOutcome};
use crate::search::SearchStrategyKind;
use crate::session::IterationRecord;
use quality::{Characteristic, MeasureId, MeasureVector};
use serde::json::{JsonError, Value};
use serde::{FromJson, ToJson};

// ------------------------------------------------------------- objective

/// One goal of an [`ObjectiveSpec`]: a characteristic key, a ranking
/// weight and a direction (`"max"` / `"min"`).
#[derive(Debug, Clone, PartialEq)]
pub struct GoalSpec {
    /// Stable characteristic key (e.g. `"data_quality"`).
    pub characteristic: String,
    /// Ranking weight.
    pub weight: f64,
    /// `"max"` or `"min"`.
    pub direction: String,
}

/// One hard constraint of an [`ObjectiveSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintSpec {
    /// Stable measure key (e.g. `"cycle_time_ms"`).
    pub measure: String,
    /// Maximum (lower-is-better) or minimum (higher-is-better) allowed
    /// ratio versus the baseline.
    pub ratio_vs_baseline: f64,
}

/// The wire form of an [`Objective`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveSpec {
    /// Goal axes, in order.
    pub goals: Vec<GoalSpec>,
    /// Hard measure constraints.
    pub constraints: Vec<ConstraintSpec>,
}

impl ObjectiveSpec {
    /// Captures an in-memory objective.
    pub fn from_objective(objective: &Objective) -> Self {
        ObjectiveSpec {
            goals: objective
                .goals()
                .iter()
                .map(|g| GoalSpec {
                    characteristic: g.characteristic.key().to_string(),
                    weight: g.weight,
                    direction: match g.direction {
                        Direction::Maximize => "max".to_string(),
                        Direction::Minimize => "min".to_string(),
                    },
                })
                .collect(),
            constraints: objective
                .constraints()
                .iter()
                .map(|c| ConstraintSpec {
                    measure: c.measure.key().to_string(),
                    ratio_vs_baseline: c.ratio_vs_baseline,
                })
                .collect(),
        }
    }

    /// Resolves keys and rebuilds the validated [`Objective`].
    pub fn to_objective(&self) -> Result<Objective, PoiesisError> {
        let mut objective = Objective::new();
        for g in &self.goals {
            let characteristic = Characteristic::from_key(&g.characteristic).ok_or_else(|| {
                PoiesisError::Malformed(format!("unknown characteristic `{}`", g.characteristic))
            })?;
            let direction = match g.direction.as_str() {
                "max" => Direction::Maximize,
                "min" => Direction::Minimize,
                other => {
                    return Err(PoiesisError::Malformed(format!(
                        "direction must be `max` or `min`, got `{other}`"
                    )))
                }
            };
            objective = objective.goal(Goal {
                characteristic,
                weight: g.weight,
                direction,
            });
        }
        for c in &self.constraints {
            let measure = MeasureId::from_key(&c.measure).ok_or_else(|| {
                PoiesisError::Malformed(format!("unknown measure `{}`", c.measure))
            })?;
            objective = objective.constrain(measure, c.ratio_vs_baseline);
        }
        objective.validate()?;
        Ok(objective)
    }
}

impl ToJson for GoalSpec {
    fn to_json(&self) -> Value {
        Value::object([
            ("characteristic", self.characteristic.to_json()),
            ("weight", self.weight.to_json()),
            ("direction", self.direction.to_json()),
        ])
    }
}

impl FromJson for GoalSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(GoalSpec {
            characteristic: v.field("characteristic")?,
            weight: v.field("weight")?,
            direction: v.field("direction")?,
        })
    }
}

impl ToJson for ConstraintSpec {
    fn to_json(&self) -> Value {
        Value::object([
            ("measure", self.measure.to_json()),
            ("ratio_vs_baseline", self.ratio_vs_baseline.to_json()),
        ])
    }
}

impl FromJson for ConstraintSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(ConstraintSpec {
            measure: v.field("measure")?,
            ratio_vs_baseline: v.field("ratio_vs_baseline")?,
        })
    }
}

impl ToJson for ObjectiveSpec {
    fn to_json(&self) -> Value {
        Value::object([
            ("goals", self.goals.to_json()),
            ("constraints", self.constraints.to_json()),
        ])
    }
}

impl FromJson for ObjectiveSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(ObjectiveSpec {
            goals: v.field("goals")?,
            constraints: v.field("constraints")?,
        })
    }
}

// --------------------------------------------------------------- request

/// Everything a client may configure for a planning cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Search strategy in [`SearchStrategyKind`] display syntax
    /// (`"exhaustive"`, `"beam:8"`, `"greedy"`).
    pub strategy: String,
    /// Hard cap on enumerated alternatives.
    pub budget: usize,
    /// Score by full simulation instead of analytic estimation.
    pub simulate: bool,
    /// Worker threads for concurrent evaluation.
    pub workers: usize,
    /// Keep dominated alternatives (full scatter-plot) or only the
    /// frontier (O(frontier) memory).
    pub retain_dominated: bool,
    /// The quality objective.
    pub objective: ObjectiveSpec,
}

impl Default for PlanRequest {
    fn default() -> Self {
        let config = PlannerConfig::default();
        PlanRequest {
            strategy: config.strategy.to_string(),
            budget: config.max_alternatives,
            simulate: false,
            workers: config.workers,
            retain_dominated: config.retain_dominated,
            objective: ObjectiveSpec::from_objective(&config.objective),
        }
    }
}

impl PlanRequest {
    /// Captures a live [`PlannerConfig`] as the wire request that would
    /// reproduce it — the configuration half of a [`SessionSnapshot`].
    /// (The deployment policy is not wire-configurable and therefore not
    /// captured; sessions created through the service always run the
    /// default policy.)
    pub fn from_config(config: &PlannerConfig) -> Self {
        PlanRequest {
            strategy: config.strategy.to_string(),
            budget: config.max_alternatives,
            simulate: config.eval_mode == EvalMode::Simulate,
            workers: config.workers,
            retain_dominated: config.retain_dominated,
            objective: ObjectiveSpec::from_objective(&config.objective),
        }
    }

    /// Applies the request to a [`SessionBuilder`], resolving strategy and
    /// objective; malformed fields surface as
    /// [`PoiesisError::Malformed`] / [`PoiesisError::InvalidObjective`].
    pub fn apply(&self, builder: SessionBuilder) -> Result<SessionBuilder, PoiesisError> {
        let strategy: SearchStrategyKind =
            self.strategy.parse().map_err(PoiesisError::Malformed)?;
        Ok(builder
            .strategy(strategy)
            .budget(self.budget)
            .eval_mode(if self.simulate {
                EvalMode::Simulate
            } else {
                EvalMode::Estimate
            })
            .workers(self.workers)
            .retain_dominated(self.retain_dominated)
            .objective(self.objective.to_objective()?))
    }
}

impl ToJson for PlanRequest {
    fn to_json(&self) -> Value {
        Value::object([
            ("strategy", self.strategy.to_json()),
            ("budget", self.budget.to_json()),
            ("simulate", self.simulate.to_json()),
            ("workers", self.workers.to_json()),
            ("retain_dominated", self.retain_dominated.to_json()),
            ("objective", self.objective.to_json()),
        ])
    }
}

impl FromJson for PlanRequest {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(PlanRequest {
            strategy: v.field("strategy")?,
            budget: v.field("budget")?,
            simulate: v.field("simulate")?,
            workers: v.field("workers")?,
            retain_dominated: v.field("retain_dominated")?,
            objective: v.field("objective")?,
        })
    }
}

// -------------------------------------------------------------- response

/// One frontier design, summarised for presentation (the Fig. 4
/// scatter-plot point plus its drill-down handles).
#[derive(Debug, Clone, PartialEq)]
pub struct AlternativeSummary {
    /// Rank on the frontier (0 = best objective).
    pub rank: usize,
    /// Alternative name (base flow + pattern labels).
    pub name: String,
    /// Human-readable descriptions of the applied patterns.
    pub applied: Vec<String>,
    /// Characteristic scores, axis order = `PlanResponse::axes`.
    pub scores: Vec<f64>,
    /// The scalarized objective value (what the ranking sorts by).
    pub objective: f64,
}

impl ToJson for AlternativeSummary {
    fn to_json(&self) -> Value {
        Value::object([
            ("rank", self.rank.to_json()),
            ("name", self.name.to_json()),
            ("applied", self.applied.to_json()),
            ("scores", self.scores.to_json()),
            ("objective", self.objective.to_json()),
        ])
    }
}

impl FromJson for AlternativeSummary {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(AlternativeSummary {
            rank: v.field("rank")?,
            name: v.field("name")?,
            applied: v.field("applied")?,
            scores: v.field("scores")?,
            objective: v.field("objective")?,
        })
    }
}

/// Everything worth showing after one planning cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResponse {
    /// The owning session handle, when the cycle ran under a
    /// [`SessionManager`](crate::SessionManager).
    pub session: Option<u64>,
    /// The goal axes, as stable characteristic keys (score order).
    pub axes: Vec<String>,
    /// Baseline measures as `(measure key, value)` pairs.
    pub baseline: Vec<(String, f64)>,
    /// Candidate pattern applications considered.
    pub candidates: usize,
    /// Combinations submitted for evaluation.
    pub enumerated: usize,
    /// Alternatives retained after policy/objective admission.
    pub alternatives: usize,
    /// Alternatives rejected by policy or objective constraints.
    pub rejected_by_constraints: usize,
    /// Combinations that failed during application.
    pub failed_applications: usize,
    /// Alternatives whose evaluation errored.
    pub failed_evaluations: usize,
    /// Combinations whose applied flow failed the static screen, pruned
    /// before evaluation.
    pub statically_rejected: usize,
    /// The Pareto frontier, best objective first.
    pub skyline: Vec<AlternativeSummary>,
}

impl PlanResponse {
    /// Summarises a planner outcome under `objective`.
    pub fn from_outcome(
        outcome: &PlannerOutcome,
        objective: &Objective,
        session: Option<u64>,
    ) -> Self {
        PlanResponse {
            session,
            axes: objective
                .characteristics()
                .iter()
                .map(|c| c.key().to_string())
                .collect(),
            baseline: measure_pairs(&outcome.baseline),
            candidates: outcome.candidates.len(),
            enumerated: outcome.stats.enumerated,
            alternatives: outcome.alternatives.len(),
            rejected_by_constraints: outcome.rejected_by_constraints,
            failed_applications: outcome.failed_applications,
            failed_evaluations: outcome.failed_evaluations,
            statically_rejected: outcome.statically_rejected,
            skyline: outcome
                .skyline_alternatives()
                .enumerate()
                .map(|(rank, alt)| AlternativeSummary {
                    rank,
                    name: alt.name.clone(),
                    applied: alt.applied.clone(),
                    scores: alt.scores.clone(),
                    objective: objective.scalarize(&alt.scores),
                })
                .collect(),
        }
    }
}

/// A measure vector as `(stable key, value)` pairs, vector order.
fn measure_pairs(v: &MeasureVector) -> Vec<(String, f64)> {
    v.iter().map(|(id, x)| (id.key().to_string(), x)).collect()
}

impl ToJson for PlanResponse {
    fn to_json(&self) -> Value {
        Value::object([
            ("session", self.session.to_json()),
            ("axes", self.axes.to_json()),
            ("baseline", self.baseline.to_json()),
            ("candidates", self.candidates.to_json()),
            ("enumerated", self.enumerated.to_json()),
            ("alternatives", self.alternatives.to_json()),
            (
                "rejected_by_constraints",
                self.rejected_by_constraints.to_json(),
            ),
            ("failed_applications", self.failed_applications.to_json()),
            ("failed_evaluations", self.failed_evaluations.to_json()),
            ("statically_rejected", self.statically_rejected.to_json()),
            // Always 0: the planner no longer skips combinations on a
            // bound. Still written, and ignored when read, only because
            // perfbench's `serve_durable` explore digest hashes these
            // bytes; ROADMAP item 2 re-blesses that digest and drops it.
            ("bound_pruned", 0usize.to_json()),
            ("skyline", self.skyline.to_json()),
        ])
    }
}

impl FromJson for PlanResponse {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(PlanResponse {
            session: v.field("session")?,
            axes: v.field("axes")?,
            baseline: v.field("baseline")?,
            candidates: v.field("candidates")?,
            enumerated: v.field("enumerated")?,
            alternatives: v.field("alternatives")?,
            rejected_by_constraints: v.field("rejected_by_constraints")?,
            failed_applications: v.field("failed_applications")?,
            failed_evaluations: v.field("failed_evaluations")?,
            statically_rejected: v.field("statically_rejected")?,
            skyline: v.field("skyline")?,
        })
    }
}

// ------------------------------------------------------------------ lint

/// The wire form of one static-analysis [`Diagnostic`](analysis::Diagnostic):
/// the stable `PA0xx` code, severity, location (kind plus optional node or
/// edge index), message and optional suggestion. Identical in shape to the
/// `diagnostics` entries of an `analysis` error body, so clients need one
/// decoder for both.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosticSpec {
    /// Stable diagnostic code (`"PA001"`…).
    pub code: String,
    /// `"error"`, `"warn"` or `"info"`.
    pub severity: String,
    /// Location kind: `"graph"`, `"node"` or `"edge"`.
    pub location: String,
    /// Node index when `location == "node"`.
    pub node: Option<usize>,
    /// Edge index when `location == "edge"`.
    pub edge: Option<usize>,
    /// Human-readable finding.
    pub message: String,
    /// Suggested fix, when the analyzer has one.
    pub suggestion: Option<String>,
    /// Supporting evidence lines (lineage traces); omitted from the wire
    /// when empty.
    pub notes: Vec<String>,
}

impl DiagnosticSpec {
    /// Captures an in-memory diagnostic.
    pub fn from_diagnostic(d: &analysis::Diagnostic) -> Self {
        let (location, node, edge) = match d.location {
            analysis::Location::Graph => ("graph", None, None),
            analysis::Location::Node(n) => ("node", Some(n.index()), None),
            analysis::Location::Edge(e) => ("edge", None, Some(e.index())),
        };
        DiagnosticSpec {
            code: d.code.to_string(),
            severity: d.severity.name().to_string(),
            location: location.to_string(),
            node,
            edge,
            message: d.message.clone(),
            suggestion: d.suggestion.clone(),
            notes: d.notes.clone(),
        }
    }
}

impl ToJson for DiagnosticSpec {
    fn to_json(&self) -> Value {
        let members = [
            ("code", self.code.to_json()),
            ("severity", self.severity.to_json()),
            ("message", self.message.to_json()),
            ("location", self.location.to_json()),
            ("node", self.node.to_json()),
            ("edge", self.edge.to_json()),
            ("suggestion", self.suggestion.to_json()),
            (
                "notes",
                (!self.notes.is_empty()).then_some(&self.notes).to_json(),
            ),
        ];
        // absent detail is left out rather than sent as `null`
        Value::object(members.into_iter().filter(|(_, v)| *v != Value::Null))
    }
}

impl FromJson for DiagnosticSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(DiagnosticSpec {
            code: v.field("code")?,
            severity: v.field("severity")?,
            location: v.field("location")?,
            node: v.field("node")?,
            edge: v.field("edge")?,
            message: v.field("message")?,
            suggestion: v.field("suggestion")?,
            notes: v.field::<Option<_>>("notes")?.unwrap_or_default(),
        })
    }
}

/// The response of `POST /sessions/{id}/lint`: the full static-analysis
/// report over a session's current flow.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// The owning session handle, when linted through a manager.
    pub session: Option<u64>,
    /// The name of the flow that was analyzed.
    pub flow: String,
    /// Error-severity findings (these gate planning).
    pub errors: usize,
    /// Warn-severity findings (advisory).
    pub warnings: usize,
    /// Every finding, errors first.
    pub diagnostics: Vec<DiagnosticSpec>,
}

impl LintReport {
    /// Summarises an analyzer run over `flow`.
    pub fn from_diagnostics(
        session: Option<u64>,
        flow: &str,
        diags: &[analysis::Diagnostic],
    ) -> Self {
        LintReport {
            session,
            flow: flow.to_string(),
            errors: diags
                .iter()
                .filter(|d| d.severity == analysis::Severity::Error)
                .count(),
            warnings: diags
                .iter()
                .filter(|d| d.severity == analysis::Severity::Warn)
                .count(),
            diagnostics: diags.iter().map(DiagnosticSpec::from_diagnostic).collect(),
        }
    }

    /// Whether the flow is free of blocking findings.
    pub fn ok(&self) -> bool {
        self.errors == 0
    }
}

impl ToJson for LintReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("session", self.session.to_json()),
            ("flow", self.flow.to_json()),
            ("ok", self.ok().to_json()),
            ("errors", self.errors.to_json()),
            ("warnings", self.warnings.to_json()),
            ("diagnostics", self.diagnostics.to_json()),
        ])
    }
}

impl FromJson for LintReport {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(LintReport {
            session: v.field("session")?,
            flow: v.field("flow")?,
            errors: v.field("errors")?,
            warnings: v.field("warnings")?,
            diagnostics: v.field("diagnostics")?,
        })
    }
}

// --------------------------------------------------------------- history

impl ToJson for IterationRecord {
    fn to_json(&self) -> Value {
        Value::object([
            ("cycle", self.cycle.to_json()),
            ("selected", self.selected.to_json()),
            ("integrated", self.integrated.to_json()),
            ("scores", self.scores.to_json()),
        ])
    }
}

impl FromJson for IterationRecord {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(IterationRecord {
            cycle: v.field("cycle")?,
            selected: v.field("selected")?,
            integrated: v.field("integrated")?,
            scores: v.field("scores")?,
        })
    }
}

// ------------------------------------------------------------- snapshots

/// The durable form of one managed session: everything needed to rebuild
/// it against the same template after a process restart.
///
/// The flow travels as an xLM document (`flow_xlm`) because the operator
/// graph — including pattern-inserted operations and graph-level
/// configuration changes from earlier selections — is exactly what xLM
/// round-trips; the planner configuration travels as the [`PlanRequest`]
/// that reproduces it. What is *not* captured is the in-flight
/// exploration outcome (`last_outcome`): a restored session must run a
/// fresh `explore` before its next `select`, which the exploration's
/// determinism makes lossless (same flow + catalog + config ⇒ same
/// frontier).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The handle the session was registered under.
    pub id: u64,
    /// The original flow name captured at session start (fork names are
    /// `<base_name>__cycle<N>`).
    pub base_name: String,
    /// The session's current flow as an xLM document.
    pub flow_xlm: String,
    /// The wire request reproducing the session's planner configuration.
    pub request: PlanRequest,
    /// Completed iterations.
    pub history: Vec<IterationRecord>,
}

impl ToJson for SessionSnapshot {
    fn to_json(&self) -> Value {
        Value::object([
            ("id", self.id.to_json()),
            ("base_name", self.base_name.to_json()),
            ("flow_xlm", self.flow_xlm.to_json()),
            ("request", self.request.to_json()),
            ("history", self.history.to_json()),
        ])
    }
}

impl SessionSnapshot {
    /// Internal-consistency check: a snapshot can parse perfectly and
    /// still describe a session no manager could have produced — exactly
    /// the shape a torn or bit-rotted state file takes after the JSON
    /// happens to survive truncation. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_name.is_empty() {
            return Err(format!("session {}: empty base_name", self.id));
        }
        if self.flow_xlm.trim().is_empty() {
            return Err(format!("session {}: empty flow document", self.id));
        }
        // history cycles are issued contiguously from 1 by `Session`
        for (i, record) in self.history.iter().enumerate() {
            if record.cycle != i + 1 {
                return Err(format!(
                    "session {}: history[{}] has cycle {} (expected {})",
                    self.id,
                    i,
                    record.cycle,
                    i + 1
                ));
            }
            if record.selected.is_empty() {
                return Err(format!(
                    "session {}: history[{}] selected nothing",
                    self.id, i
                ));
            }
        }
        Ok(())
    }
}

impl FromJson for SessionSnapshot {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(SessionSnapshot {
            id: v.field("id")?,
            base_name: v.field("base_name")?,
            flow_xlm: v.field("flow_xlm")?,
            request: v.field("request")?,
            history: v.field("history")?,
        })
    }
}

/// Every live session of a [`SessionManager`](crate::SessionManager) plus
/// its handle counter, as [`SessionManager::snapshot`](crate::SessionManager::snapshot)
/// captures them. Durable state is kept one [`SessionSnapshot`] per file;
/// this whole-registry form has no codec of its own.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ManagerSnapshot {
    /// The next handle the manager would issue.
    pub next_id: u64,
    /// All live sessions, ascending by handle.
    pub sessions: Vec<SessionSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_record_round_trips_through_json_text() {
        let record = IterationRecord {
            cycle: 2,
            selected: "purchases + AddCheckpoint@edge3".into(),
            integrated: vec!["AddCheckpoint@edge3".into(), "FilterNullValues@e1".into()],
            scores: vec![104.5, 99.25, 112.0],
        };
        let back = IterationRecord::from_json_str(&record.to_json_string()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn default_request_matches_the_default_config() {
        let req = PlanRequest::default();
        assert_eq!(req.strategy, "exhaustive");
        assert_eq!(req.budget, PlannerConfig::default().max_alternatives);
        let objective = req.objective.to_objective().unwrap();
        assert_eq!(objective, Objective::balanced());
    }

    #[test]
    fn request_round_trips_through_json_text() {
        let mut req = PlanRequest {
            strategy: "beam:8".into(),
            simulate: true,
            ..PlanRequest::default()
        };
        req.objective.goals[0].weight = 2.5;
        req.objective.constraints.push(ConstraintSpec {
            measure: "cycle_time_ms".into(),
            ratio_vs_baseline: 1.0,
        });
        let text = req.to_json_string();
        let back = PlanRequest::from_json_str(&text).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn objective_spec_round_trips_through_the_real_objective() {
        let objective = Objective::balanced()
            .minimize(quality::Characteristic::Cost)
            .constrain(MeasureId::AvgLatencyMs, 1.0);
        let spec = ObjectiveSpec::from_objective(&objective);
        assert_eq!(spec.to_objective().unwrap(), objective);
    }

    #[test]
    fn session_snapshot_round_trips_through_json_text() {
        let snapshot = SessionSnapshot {
            id: 7,
            base_name: "s_purchases".into(),
            flow_xlm: "<xlm version=\"1.0\"><design name=\"x\"/></xlm>".into(),
            request: PlanRequest {
                strategy: "beam:4".into(),
                budget: 128,
                ..PlanRequest::default()
            },
            history: vec![IterationRecord {
                cycle: 1,
                selected: "s_purchases+AddCheckpoint@e1".into(),
                integrated: vec!["AddCheckpoint @e1".into()],
                scores: vec![120.0, 100.0],
            }],
        };
        let back = SessionSnapshot::from_json_str(&snapshot.to_json_string()).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn from_config_inverts_apply() {
        // a request captured from a config built by that same request must
        // be identical — the property snapshot/restore depends on
        let request = PlanRequest {
            strategy: "beam:6".into(),
            budget: 321,
            simulate: true,
            workers: 3,
            retain_dominated: false,
            ..PlanRequest::default()
        };
        let builder = request.apply(SessionBuilder::new()).unwrap();
        assert_eq!(PlanRequest::from_config(builder.config()), request);
    }

    #[test]
    fn lint_report_round_trips_through_json_text() {
        let diags = vec![
            analysis::Diagnostic::error(
                analysis::codes::UNRESOLVED_COLUMN,
                analysis::Location::Node(etl_model::NodeId::from_raw(3)),
                "`F` references column `ghost` absent from its input schema",
            )
            .with_suggestion("produce `ghost` upstream or correct the reference"),
            analysis::Diagnostic::warn(
                analysis::codes::DEAD_FIELD,
                analysis::Location::Edge(etl_model::EdgeId::from_raw(1)),
                "field `x` is never consumed",
            ),
        ];
        let report = LintReport::from_diagnostics(Some(4), "s_purchases", &diags);
        assert_eq!(report.errors, 1);
        assert_eq!(report.warnings, 1);
        assert!(!report.ok());
        let back = LintReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
        // a clean report is ok and round-trips too
        let clean = LintReport::from_diagnostics(None, "f", &[]);
        assert!(clean.ok());
        let back = LintReport::from_json_str(&clean.to_json_string()).unwrap();
        assert_eq!(back, clean);
    }

    #[test]
    fn diagnostic_spec_matches_the_error_body_wire_shape() {
        // `analysis` error bodies and lint responses must stay decodable
        // by the same client code
        let diags = vec![
            analysis::Diagnostic::error(
                analysis::codes::UNRESOLVED_COLUMN,
                analysis::Location::Node(etl_model::NodeId::from_raw(3)),
                "boom",
            )
            .with_suggestion("fix it")
            .with_note("lineage: a -> b")
            .with_note("second note"),
            analysis::Diagnostic::error(
                analysis::codes::UNRESOLVED_COLUMN,
                analysis::Location::Graph,
                "plain",
            ),
        ];
        let body = PoiesisError::Analysis(diags.clone()).to_json();
        let decoded: Vec<DiagnosticSpec> = body.field("diagnostics").unwrap();
        let expected: Vec<DiagnosticSpec> =
            diags.iter().map(DiagnosticSpec::from_diagnostic).collect();
        assert_eq!(decoded, expected);
        assert_eq!(decoded[0].notes.len(), 2);
        assert_eq!(decoded[0].suggestion.as_deref(), Some("fix it"));
    }

    #[test]
    fn malformed_specs_are_rejected_with_stable_errors() {
        let mut spec = ObjectiveSpec::from_objective(&Objective::balanced());
        spec.goals[0].characteristic = "speed".into();
        assert!(matches!(
            spec.to_objective(),
            Err(PoiesisError::Malformed(msg)) if msg.contains("speed")
        ));
        let mut spec = ObjectiveSpec::from_objective(&Objective::balanced());
        spec.goals[0].direction = "sideways".into();
        assert!(matches!(
            spec.to_objective(),
            Err(PoiesisError::Malformed(_))
        ));
        let req = PlanRequest {
            strategy: "dfs".into(),
            ..PlanRequest::default()
        };
        assert!(matches!(
            req.apply(SessionBuilder::new()),
            Err(PoiesisError::Malformed(_))
        ));
        assert!(PlanRequest::from_json_str("{\"strategy\":1}").is_err());
    }

    #[test]
    fn a_constraint_on_deadline_success_is_refused() {
        // No simulation or estimate measures a deadline, so a constraint on
        // one could never bind: the key is unknown like any other.
        let mut spec = ObjectiveSpec::from_objective(&Objective::balanced());
        spec.constraints.push(ConstraintSpec {
            measure: "deadline_success".into(),
            ratio_vs_baseline: 1.0,
        });
        assert!(matches!(
            spec.to_objective(),
            Err(PoiesisError::Malformed(msg)) if msg.contains("deadline_success")
        ));
    }

    fn plausible_session(id: u64, cycles: usize) -> SessionSnapshot {
        SessionSnapshot {
            id,
            base_name: "purchases".into(),
            flow_xlm: "<design/>".into(),
            request: PlanRequest::default(),
            history: (1..=cycles)
                .map(|cycle| IterationRecord {
                    cycle,
                    selected: format!("purchases__cycle{cycle}"),
                    integrated: vec![],
                    scores: vec![1.0],
                })
                .collect(),
        }
    }

    #[test]
    fn consistent_snapshots_validate() {
        assert_eq!(plausible_session(1, 2).validate(), Ok(()));
        assert_eq!(plausible_session(4, 0).validate(), Ok(()));
    }

    #[test]
    fn inconsistent_snapshots_fail_validation_with_the_violation_named() {
        // history with a gap (cycle 2 lost — the classic torn recovery)
        let mut bad = plausible_session(1, 3);
        bad.history.remove(1);
        assert!(bad.validate().unwrap_err().contains("cycle"));
        // a record that selected nothing
        let mut bad = plausible_session(1, 1);
        bad.history[0].selected.clear();
        assert!(bad.validate().unwrap_err().contains("selected nothing"));
        // an empty flow document can never rebuild a session
        let mut bad = plausible_session(1, 0);
        bad.flow_xlm = "  ".into();
        assert!(bad.validate().unwrap_err().contains("flow"));
    }
}
