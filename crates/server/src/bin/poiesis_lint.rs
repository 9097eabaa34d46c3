//! `poiesis_lint` — lint ETL flow definitions without running them.
//!
//! ```text
//! poiesis_lint [--deny-warn] <spec>...
//! ```
//!
//! Each `<spec>` is either a builtin flow (`demo`, `tpch`, `tpcds`), a
//! scenario-corpus entry (`scenario:<name>`, see `docs/SCENARIOS.md`), or
//! a path to a flow file: `.ktr` is imported as PDI, anything else is
//! read as xLM. Every flow is run through the full static analyzer
//! (`analysis::analyze`) and the diagnostics are printed rustc-style with
//! their stable `PA0xx` codes. Warnings are reported but do not fail the
//! run unless `--deny-warn` promotes them; the exit code is
//!
//! * `0` — every flow is free of Error-severity diagnostics (and, with
//!   `--deny-warn`, of Warn-severity ones too),
//! * `1` — at least one flow has a failing diagnostic,
//! * `2` — a spec could not be loaded (bad path, malformed file).
//!
//! CI lints the shipped example catalog with this binary, so a pattern or
//! serialisation change that produces structurally invalid flows fails
//! the build before any benchmark or service ever evaluates them.

use analysis::Severity;
use etl_model::EtlFlow;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny_warn = false;
    let specs: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| {
            if arg == "--deny-warn" {
                deny_warn = true;
                false
            } else {
                true
            }
        })
        .collect();
    if specs.is_empty() {
        eprintln!(
            "usage: poiesis_lint [--deny-warn] <demo|tpch|tpcds|scenario:<name>|path/to/flow.{{xlm,ktr}}>..."
        );
        return ExitCode::from(2);
    }
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for spec in &specs {
        let flow = match load(spec) {
            Ok(flow) => flow,
            Err(e) => {
                eprintln!("error: cannot load `{spec}`: {e}");
                return ExitCode::from(2);
            }
        };
        let diags = analysis::analyze(&flow);
        let flow_errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let flow_warnings = diags
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count();
        if diags.is_empty() {
            println!(
                "{spec}: clean ({} nodes, {} edges)",
                flow.op_count(),
                flow.edge_count()
            );
        } else {
            print!("{}", analysis::render(&flow, &diags));
            println!(
                "{spec}: {flow_errors} error(s), {flow_warnings} warning(s), {} diagnostic(s)",
                diags.len()
            );
        }
        errors += flow_errors;
        warnings += flow_warnings;
    }
    if errors > 0 || (deny_warn && warnings > 0) {
        eprintln!(
            "lint failed: {errors} error(s), {warnings} warning(s) across {} flow(s)",
            specs.len()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Resolves a spec to a flow. Deliberately does *not* call
/// `flow.validate()`: the whole point is to hand structurally broken
/// flows to the analyzer and let it explain what is wrong.
fn load(spec: &str) -> Result<EtlFlow, String> {
    match spec {
        "demo" => return Ok(datagen::fig2::purchases_flow().0),
        "tpch" => return Ok(datagen::tpch::tpch_flow().0),
        "tpcds" => return Ok(datagen::tpcds::tpcds_flow().0),
        _ => {}
    }
    if let Some(name) = spec.strip_prefix("scenario:") {
        return scenarios::lookup(name).map(|s| s.flow());
    }
    xlm::read_model_file(spec)
}
