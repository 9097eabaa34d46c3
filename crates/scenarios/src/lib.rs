//! `scenarios` — the domain scenario corpus behind the deterministic
//! sweep harness.
//!
//! The paper validated QoX-driven planning on a fleet-scale sweep of
//! flows × objectives; this crate is the repo's equivalent of that
//! corpus. Each [`Scenario`] is one realistic ETL domain — finance
//! reconciliation, IoT dedup, CDC upserts, … — packaged as a
//! deterministic seeded flow template, a [`DirtProfile`] matching how
//! that domain's data actually misbehaves, and an [`Objective`] preset
//! encoding what that domain optimises for. One engine serves all of
//! them: the server exposes every entry as `--catalog scenario:<name>`,
//! `poiesis_lint` lints the base flows, and the `bench_scenarios` sweep
//! bin runs the full catalog × strategy grid with golden-frontier
//! regression tracking (see `docs/SCENARIOS.md`).
//!
//! Everything here is deterministic: flows are built the same way every
//! time, catalogs are generated from fixed per-scenario seeds, and the
//! sweep runner ([`sweep`]) pins worker count and planner configuration
//! so two runs of the same cell produce bit-identical frontiers — the
//! property the golden tests and the CI sweep gate both verify through
//! [`digest::frontier_digest`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
mod domains;
pub mod sweep;

use datagen::{Catalog, DirtProfile};
use etl_model::EtlFlow;
use poiesis::Objective;

/// One domain scenario: a seeded flow template, its dirt profile and the
/// objective preset the domain plans against.
#[derive(Clone)]
pub struct Scenario {
    /// Registry key, used in `scenario:<name>` specs.
    pub name: &'static str,
    /// One-line description of the domain.
    pub domain: &'static str,
    /// Short description of the flow topology (for the catalog table).
    pub flow_shape: &'static str,
    /// How this domain's source data misbehaves.
    pub dirt: DirtProfile,
    /// Fixed catalog-generation seed (deterministic per scenario).
    pub seed: u64,
    /// Combination depth the sweep explores this scenario at.
    pub depth: usize,
    flow_fn: fn() -> EtlFlow,
    catalog_fn: fn(usize, &DirtProfile, u64) -> Catalog,
    objective_fn: fn() -> Objective,
}

impl Scenario {
    /// Builds the scenario's base flow (identical on every call).
    pub fn flow(&self) -> EtlFlow {
        (self.flow_fn)()
    }

    /// Generates the scenario's source catalog at `rows` rows per base
    /// table, from the scenario's fixed dirt profile and seed.
    pub fn catalog(&self, rows: usize) -> Catalog {
        (self.catalog_fn)(rows, &self.dirt, self.seed)
    }

    /// The domain's objective preset.
    pub fn objective(&self) -> Objective {
        (self.objective_fn)()
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("domain", &self.domain)
            .field("seed", &self.seed)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

/// The full catalog, in registry order (stable: sweep output, golden
/// files and docs all list scenarios in this order).
pub fn all() -> Vec<Scenario> {
    vec![
        domains::finance::scenario(),
        domains::telemetry::scenario(),
        domains::cdc::scenario(),
        domains::ml::scenario(),
        domains::clickstream::scenario(),
        domains::inventory::scenario(),
        domains::healthcare::scenario(),
        domains::logs::scenario(),
    ]
}

/// Registry keys, in catalog order.
pub fn names() -> Vec<&'static str> {
    all().into_iter().map(|s| s.name).collect()
}

/// Looks a scenario up by registry key.
pub fn get(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// [`get`], with the error a user sees for a key the catalog lacks: it
/// names the key and lists the known ones.
pub fn lookup(name: &str) -> Result<Scenario, String> {
    get(name).ok_or_else(|| {
        let known = names().join(", ");
        format!("unknown scenario `{name}`; known scenarios: {known}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_at_least_eight_scenarios_with_unique_names() {
        let names = names();
        assert!(names.len() >= 8, "corpus shrank to {}", names.len());
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
    }

    #[test]
    fn every_flow_validates_and_every_catalog_covers_its_extracts() {
        for s in all() {
            let flow = s.flow();
            flow.validate()
                .unwrap_or_else(|e| panic!("{}: invalid base flow: {e}", s.name));
            let catalog = s.catalog(16);
            for n in flow.ops_of_kind("extract") {
                let etl_model::OpKind::Extract { source, .. } = &flow.op(n).unwrap().kind else {
                    unreachable!();
                };
                assert!(
                    catalog.table(source).is_some(),
                    "{}: extract `{source}` missing from catalog",
                    s.name
                );
            }
            assert!(s.dirt.is_valid(), "{}: invalid dirt profile", s.name);
            s.objective()
                .validate()
                .unwrap_or_else(|e| panic!("{}: invalid objective: {e}", s.name));
            assert!((2..=3).contains(&s.depth), "{}: odd depth", s.name);
        }
    }

    #[test]
    fn flows_are_deterministic_across_builds() {
        for s in all() {
            assert_eq!(
                format!("{:?}", s.flow().graph),
                format!("{:?}", s.flow().graph),
                "{}: flow template not deterministic",
                s.name
            );
        }
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for name in names() {
            assert_eq!(get(name).unwrap().name, name);
        }
        assert!(get("no_such_scenario").is_none());
    }
}
