//! The one error type of the public API.
//!
//! Planner, builder, manager and DTO failures all surface as
//! [`PoiesisError`]; the variants are stable so callers (and a future
//! network service) can match on them instead of scraping messages.

use crate::api::DiagnosticSpec;
use crate::manager::SessionId;
use analysis::Diagnostic;
use etl_model::{FlowError, SchemaError};
use serde::json::Value;
use serde::ToJson;
use std::fmt;

/// Everything that can go wrong behind the poiesis facade.
#[derive(Debug, Clone, PartialEq)]
pub enum PoiesisError {
    // --- planning-cycle failures
    /// The initial flow failed validation.
    InvalidFlow(String),
    /// Static analysis found blocking problems; carries every diagnostic
    /// (errors *and* warnings) so callers can render or serialize them.
    Analysis(Vec<Diagnostic>),
    /// Candidate generation failed.
    Pattern(String),
    /// Baseline evaluation failed.
    Eval(String),

    // --- builder failures
    /// [`SessionBuilder::build`](crate::SessionBuilder::build) was called
    /// without a flow.
    MissingFlow,
    /// The builder was given no catalog.
    MissingCatalog,
    /// The builder's catalog holds no tables, so nothing can be evaluated.
    EmptyCatalog,
    /// The objective is unusable (no goals, a non-positive or non-finite
    /// weight, a duplicate characteristic, a non-positive constraint).
    InvalidObjective(String),

    // --- manager failures
    /// No session is registered under this handle (never created, or
    /// already closed).
    UnknownSession(SessionId),
    /// A selection was requested before any exploration produced a
    /// frontier for the session.
    NothingExplored(SessionId),
    /// The requested skyline rank is outside the frontier.
    RankOutOfRange {
        /// The rank that was asked for.
        rank: usize,
        /// How many designs the frontier holds.
        frontier: usize,
    },

    // --- DTO failures
    /// A wire payload failed to decode.
    Malformed(String),

    // --- persistence failures
    /// A session snapshot could not be captured or restored (unparsable
    /// flow document, duplicate handle, corrupt snapshot file).
    Snapshot(String),
}

impl fmt::Display for PoiesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoiesisError::InvalidFlow(e) => write!(f, "invalid initial flow: {e}"),
            PoiesisError::Analysis(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == analysis::Severity::Error)
                    .count();
                write!(f, "static analysis found {errors} error(s)")?;
                if let Some(first) = diags.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            PoiesisError::Pattern(e) => write!(f, "pattern generation failed: {e}"),
            PoiesisError::Eval(e) => write!(f, "evaluation failed: {e}"),
            PoiesisError::MissingFlow => write!(f, "session builder: no flow was provided"),
            PoiesisError::MissingCatalog => write!(f, "session builder: no catalog was provided"),
            PoiesisError::EmptyCatalog => {
                write!(f, "session builder: the catalog holds no tables")
            }
            PoiesisError::InvalidObjective(e) => write!(f, "invalid objective: {e}"),
            PoiesisError::UnknownSession(id) => write!(f, "unknown session {id}"),
            PoiesisError::NothingExplored(id) => {
                write!(f, "session {id} has no explored frontier to select from")
            }
            PoiesisError::RankOutOfRange { rank, frontier } => write!(
                f,
                "skyline rank {rank} out of range (frontier holds {frontier} designs)"
            ),
            PoiesisError::Malformed(e) => write!(f, "malformed payload: {e}"),
            PoiesisError::Snapshot(e) => write!(f, "session snapshot failed: {e}"),
        }
    }
}

impl PoiesisError {
    /// The stable snake_case code of the variant — what a wire client
    /// should match on (HTTP bodies carry it in `error.code`). Codes are
    /// part of the wire contract (`docs/API.md`) and never change, unlike
    /// the human-readable [`Display`](fmt::Display) messages.
    pub fn code(&self) -> &'static str {
        match self {
            PoiesisError::InvalidFlow(_) => "invalid_flow",
            PoiesisError::Analysis(_) => "analysis",
            PoiesisError::Pattern(_) => "pattern",
            PoiesisError::Eval(_) => "eval",
            PoiesisError::MissingFlow => "missing_flow",
            PoiesisError::MissingCatalog => "missing_catalog",
            PoiesisError::EmptyCatalog => "empty_catalog",
            PoiesisError::InvalidObjective(_) => "invalid_objective",
            PoiesisError::UnknownSession(_) => "unknown_session",
            PoiesisError::NothingExplored(_) => "nothing_explored",
            PoiesisError::RankOutOfRange { .. } => "rank_out_of_range",
            PoiesisError::Malformed(_) => "malformed",
            PoiesisError::Snapshot(_) => "snapshot",
        }
    }
}

impl ToJson for PoiesisError {
    /// The wire form of the error: always `code` + `message`, plus the
    /// variant's structured detail (`session` for handle errors, `rank` /
    /// `frontier` for range errors) so clients never scrape messages.
    fn to_json(&self) -> Value {
        let mut members = vec![
            ("code", self.code().to_json()),
            ("message", self.to_string().to_json()),
        ];
        match self {
            PoiesisError::UnknownSession(id) | PoiesisError::NothingExplored(id) => {
                members.push(("session", id.raw().to_json()));
            }
            PoiesisError::RankOutOfRange { rank, frontier } => {
                members.push(("rank", rank.to_json()));
                members.push(("frontier", frontier.to_json()));
            }
            PoiesisError::Analysis(diags) => {
                let specs: Vec<_> = diags.iter().map(DiagnosticSpec::from_diagnostic).collect();
                members.push(("diagnostics", specs.to_json()));
            }
            _ => {}
        }
        Value::object(members)
    }
}

impl From<FlowError> for PoiesisError {
    /// Structural flow errors become `analysis` diagnostics with stable
    /// `PA0xx` codes instead of stringly planner-internal messages.
    fn from(e: FlowError) -> Self {
        PoiesisError::Analysis(vec![analysis::flow_error_diagnostic(&e)])
    }
}

impl From<SchemaError> for PoiesisError {
    /// Schema propagation errors become `analysis` diagnostics with stable
    /// `PA0xx` codes instead of stringly planner-internal messages.
    fn from(e: SchemaError) -> Self {
        PoiesisError::Analysis(vec![analysis::flow_error_diagnostic(&FlowError::Schema(e))])
    }
}

impl std::error::Error for PoiesisError {}

impl From<serde::json::JsonError> for PoiesisError {
    fn from(e: serde::json::JsonError) -> Self {
        PoiesisError::Malformed(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_stable() {
        assert_eq!(
            PoiesisError::InvalidFlow("x".into()).to_string(),
            "invalid initial flow: x"
        );
        assert_eq!(
            PoiesisError::RankOutOfRange {
                rank: 9,
                frontier: 3
            }
            .to_string(),
            "skyline rank 9 out of range (frontier holds 3 designs)"
        );
        assert!(PoiesisError::MissingFlow.to_string().contains("no flow"));
    }

    #[test]
    fn json_errors_convert_to_malformed() {
        let e: PoiesisError = serde::json::JsonError("bad".into()).into();
        assert_eq!(e, PoiesisError::Malformed("bad".into()));
    }

    #[test]
    fn every_variant_has_a_stable_code_and_json_form() {
        let id = SessionId::from_raw(7);
        let cases: Vec<(PoiesisError, &str)> = vec![
            (PoiesisError::InvalidFlow("x".into()), "invalid_flow"),
            (
                PoiesisError::Analysis(vec![analysis::Diagnostic::error(
                    analysis::codes::CYCLE,
                    analysis::Location::Graph,
                    "flow graph contains a directed cycle",
                )]),
                "analysis",
            ),
            (PoiesisError::Pattern("x".into()), "pattern"),
            (PoiesisError::Eval("x".into()), "eval"),
            (PoiesisError::MissingFlow, "missing_flow"),
            (PoiesisError::MissingCatalog, "missing_catalog"),
            (PoiesisError::EmptyCatalog, "empty_catalog"),
            (
                PoiesisError::InvalidObjective("x".into()),
                "invalid_objective",
            ),
            (PoiesisError::UnknownSession(id), "unknown_session"),
            (PoiesisError::NothingExplored(id), "nothing_explored"),
            (
                PoiesisError::RankOutOfRange {
                    rank: 9,
                    frontier: 3,
                },
                "rank_out_of_range",
            ),
            (PoiesisError::Malformed("x".into()), "malformed"),
            (PoiesisError::Snapshot("x".into()), "snapshot"),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code);
            let v = err.to_json();
            assert_eq!(v.field::<String>("code").unwrap(), code);
            assert_eq!(v.field::<String>("message").unwrap(), err.to_string());
        }
    }

    #[test]
    fn structured_detail_rides_along_in_json() {
        let v = PoiesisError::UnknownSession(SessionId::from_raw(3)).to_json();
        assert_eq!(v.field::<u64>("session").unwrap(), 3);
        let v = PoiesisError::RankOutOfRange {
            rank: 9,
            frontier: 3,
        }
        .to_json();
        assert_eq!(v.field::<usize>("rank").unwrap(), 9);
        assert_eq!(v.field::<usize>("frontier").unwrap(), 3);
    }

    #[test]
    fn analysis_errors_carry_diagnostics_in_json() {
        let diag = analysis::Diagnostic::error(
            analysis::codes::UNRESOLVED_COLUMN,
            analysis::Location::Node(etl_model::NodeId::from_raw(3)),
            "`F` references column `ghost` absent from its input schema",
        )
        .with_suggestion("produce `ghost` upstream or correct the reference");
        let err = PoiesisError::Analysis(vec![diag]);
        assert_eq!(err.code(), "analysis");
        assert!(err.to_string().contains("1 error(s)"));
        assert!(err.to_string().contains("PA010"));

        let diags: Vec<DiagnosticSpec> = err.to_json().field("diagnostics").unwrap();
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(
            (d.code.as_str(), d.severity.as_str(), d.location.as_str()),
            ("PA010", "error", "node")
        );
        assert_eq!(d.node, Some(3));
        assert!(d.suggestion.is_some());
    }

    #[test]
    fn flow_and_schema_errors_convert_to_analysis_diagnostics() {
        let e: PoiesisError = etl_model::FlowError::Cyclic.into();
        match &e {
            PoiesisError::Analysis(diags) => {
                assert_eq!(diags.len(), 1);
                assert_eq!(diags[0].code, analysis::codes::CYCLE);
            }
            other => panic!("expected Analysis, got {other:?}"),
        }
        assert_eq!(e.code(), "analysis");

        let e: PoiesisError = etl_model::SchemaError::Bind {
            op: "F".into(),
            column: "ghost".into(),
        }
        .into();
        match &e {
            PoiesisError::Analysis(diags) => {
                assert_eq!(diags[0].code, analysis::codes::UNRESOLVED_COLUMN);
                assert!(diags[0].message.contains("ghost"));
            }
            other => panic!("expected Analysis, got {other:?}"),
        }
    }
}
