//! What `POST /sessions` plans against: the server-side flow + catalog.
//!
//! A planning session needs an initial [`EtlFlow`] and a source
//! [`Catalog`]; neither travels over the wire (catalogs hold generated
//! tuples, flows hold an operator graph). Instead the server is launched
//! *on* a [`SessionTemplate`] — the built-in Fig. 2 purchases demo, any
//! entry of the domain scenario corpus (`scenario:<name>`, see
//! `docs/SCENARIOS.md`), or any xLM/PDI model file with sources
//! synthesised from its extract schemata — and every created session
//! starts from a clone of it. Clients configure everything else
//! (objective, strategy, budget, …) per session through the
//! `PlanRequest` DTO.

use datagen::fig2::{purchases_catalog, purchases_flow};
use datagen::{Catalog, DirtProfile};
use etl_model::EtlFlow;
use poiesis::{Poiesis, SessionBuilder};

/// A reusable (flow, catalog) pair every new session is cloned from.
#[derive(Debug, Clone)]
pub struct SessionTemplate {
    flow: EtlFlow,
    catalog: Catalog,
    /// Where the template came from, for logs and `/healthz`.
    pub label: String,
}

impl SessionTemplate {
    /// The built-in demo: the paper's Fig. 2 purchases flow over a
    /// synthesised catalog of `rows` rows per source.
    pub fn demo(rows: usize) -> Self {
        let (flow, _) = purchases_flow();
        let catalog = purchases_catalog(rows, &DirtProfile::demo(), 5);
        SessionTemplate {
            flow,
            catalog,
            label: format!("demo:{rows}"),
        }
    }

    /// Loads an xLM (`.xlm`/`.xml`) or PDI (`.ktr`) model file and
    /// synthesises `rows` rows for every extract from its schema — the
    /// same headless substitute for a test database the CLI uses.
    pub fn from_model_file(path: &str, rows: usize) -> Result<Self, String> {
        let flow = xlm::read_model_file(path)?;
        flow.validate().map_err(|e| format!("invalid model: {e}"))?;
        let catalog = datagen::synthesize_catalog(&flow, rows)?;
        Ok(SessionTemplate {
            flow,
            catalog,
            label: format!("{path}:{rows}"),
        })
    }

    /// A scenario-corpus template: the named scenario's base flow over
    /// its seeded catalog at `rows` rows per base table.
    pub fn from_scenario(name: &str, rows: usize) -> Result<Self, String> {
        let s = scenarios::lookup(name)?;
        Ok(SessionTemplate {
            flow: s.flow(),
            catalog: s.catalog(rows),
            label: format!("scenario:{name}:{rows}"),
        })
    }

    /// Parses the `--catalog` flag syntax: `demo[:rows]`,
    /// `scenario:<name>[:rows]` or `<model-path>[:rows]` (default 200
    /// rows).
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let (name, rows) = match spec.rsplit_once(':') {
            Some((name, rows)) if rows.bytes().all(|b| b.is_ascii_digit()) && !rows.is_empty() => {
                let rows: usize = rows
                    .parse()
                    .map_err(|_| format!("bad row count in `{spec}`"))?;
                (name, rows)
            }
            _ => (spec, 200),
        };
        if rows == 0 {
            return Err(format!("`{spec}`: row count must be positive"));
        }
        if name == "demo" {
            Ok(SessionTemplate::demo(rows))
        } else if let Some(scenario) = name.strip_prefix("scenario:") {
            SessionTemplate::from_scenario(scenario, rows)
        } else if looks_like_model_path(name) {
            SessionTemplate::from_model_file(name, rows)
        } else {
            Err(format!(
                "unknown catalog spec `{spec}`: expected `demo[:rows]`, \
                 `scenario:<name>[:rows]` (known scenarios: {}), or a path to \
                 an .xlm/.xml/.ktr model file",
                scenarios::names().join(", ")
            ))
        }
    }

    /// A fresh builder seeded with clones of the template's flow and
    /// catalog — the base a `PlanRequest` is applied on top of.
    pub fn builder(&self) -> SessionBuilder {
        Poiesis::session()
            .flow(self.flow.clone())
            .catalog(self.catalog.clone())
    }
}

/// A bare name with no path separator or model extension is almost
/// certainly a mistyped builtin, not a file — route it to the
/// suggestion error instead of a useless "No such file".
fn looks_like_model_path(name: &str) -> bool {
    name.contains('/')
        || name.contains('\\')
        || name.ends_with(".xlm")
        || name.ends_with(".xml")
        || name.ends_with(".ktr")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_template_builds_working_sessions() {
        let template = SessionTemplate::demo(80);
        assert_eq!(template.label, "demo:80");
        // two sessions from one template are independent
        let a = template.builder().budget(50).build().unwrap();
        let b = template.builder().budget(50).build().unwrap();
        assert_eq!(a.current_flow().name, b.current_flow().name);
    }

    #[test]
    fn spec_syntax_parses_names_and_row_counts() {
        assert_eq!(
            SessionTemplate::from_spec("demo").unwrap().label,
            "demo:200"
        );
        assert_eq!(
            SessionTemplate::from_spec("demo:64").unwrap().label,
            "demo:64"
        );
        assert!(SessionTemplate::from_spec("demo:0").is_err());
        assert!(SessionTemplate::from_spec("/no/such/model.xlm").is_err());
    }

    #[test]
    fn scenario_specs_resolve_against_the_corpus() {
        let t = SessionTemplate::from_spec("scenario:finance_recon").unwrap();
        assert_eq!(t.label, "scenario:finance_recon:200");
        let t = SessionTemplate::from_spec("scenario:iot_dedup:48").unwrap();
        assert_eq!(t.label, "scenario:iot_dedup:48");
        // the template is live, not just labelled
        t.builder().budget(50).build().unwrap();
    }

    #[test]
    fn unknown_scenario_error_lists_the_catalog() {
        let err = SessionTemplate::from_spec("scenario:fniance_recon").unwrap_err();
        assert!(
            err.contains("unknown scenario `fniance_recon`"),
            "error should name the bad scenario: {err}"
        );
        for name in scenarios::names() {
            assert!(
                err.contains(name),
                "error should suggest known scenario `{name}`: {err}"
            );
        }
    }

    #[test]
    fn unknown_spec_error_suggests_the_known_catalogs() {
        let err = SessionTemplate::from_spec("dmeo:100").unwrap_err();
        assert!(err.contains("unknown catalog spec `dmeo:100`"), "{err}");
        assert!(err.contains("demo[:rows]"), "{err}");
        assert!(err.contains("scenario:<name>[:rows]"), "{err}");
        assert!(err.contains(".xlm/.xml/.ktr"), "{err}");
        for name in scenarios::names() {
            assert!(err.contains(name), "missing suggestion `{name}`: {err}");
        }
    }
}
