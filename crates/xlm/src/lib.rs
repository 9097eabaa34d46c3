//! `xlm` — logical ETL model interchange.
//!
//! §3 of the paper: "The first step is to import an initial ETL model to the
//! system. This model can be a logical representation of the ETL process and
//! we currently support the loading of xLM and PDI." xLM is the XML-based
//! logical ETL model of Wilkinson et al. (ER 2010); PDI is Pentaho Data
//! Integration's `.ktr` format.
//!
//! No XML crate exists in the sanctioned offline dependency set, so this
//! crate ships its own spec-scoped parser ([`xml`]): elements, attributes,
//! text, comments, prolog, the five predefined entities. On top of it:
//!
//! * [`write_flow`] / [`read_flow`] — a faithful xLM-style serialisation of
//!   [`etl_model::EtlFlow`] that round-trips every operator kind, schema,
//!   expression, cost annotation and graph-level configuration;
//! * [`pdi::import_ktr`] — a PDI subset importer mapping common Kettle step
//!   types onto the operator taxonomy;
//! * [`read_model_file`] — the one loader of model files, choosing between
//!   the two by extension;
//! * [`expr_text`] — a recursive-descent parser for the expression
//!   language, reading back the text an `Expr` displays as (xLM stores
//!   predicates as text).

#![forbid(unsafe_code)]

pub mod expr_text;
pub mod pdi;
mod xlm;
pub mod xml;

pub use xlm::{read_flow, write_flow, XlmError};

/// Reads a model file: `.ktr` is imported as PDI, anything else is read as
/// xLM. The flow is returned as parsed, *not* validated: a planner calls
/// [`etl_model::EtlFlow::validate`] next, while a linter hands a broken
/// flow to the analyzer to explain what is wrong with it.
pub fn read_model_file(path: &str) -> Result<etl_model::EtlFlow, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if path.ends_with(".ktr") {
        pdi::import_ktr(&text)
    } else {
        read_flow(&text)
    }
    .map_err(|e| e.to_string())
}
