//! The source catalog: named tables the simulator's Extract operations read.

use crate::dirt::DirtProfile;
use crate::gen::{generate_table, TableSpec, REQUEST_TIME};
use etl_model::{EtlFlow, OpKind, Schema, Tuple};
use std::collections::HashMap;

/// One materialised source table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Schema of the rows.
    pub schema: Schema,
    /// The (possibly dirty) rows an Extract reads.
    pub rows: Vec<Tuple>,
    /// Match-key attribute name (protected from dirt).
    pub key: String,
    /// Unix time of the source's last refresh; `REQUEST_TIME − last_update`
    /// is the paper's "request time − time of last update" measure.
    pub last_update: i64,
}

/// Named collection of source tables plus their clean reference twins.
///
/// For every table `t` registered with dirt, a clean `ref_t` twin is also
/// registered — that twin is what `CrosscheckSources` consults (the paper's
/// "crosschecking with alternative data sources").
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The moment "now" for freshness measures: fixed so experiments are
    /// reproducible.
    pub fn request_time(&self) -> i64 {
        REQUEST_TIME
    }

    /// Generates and registers a table (and its `ref_` twin) from a spec.
    pub fn add_generated(&mut self, spec: &TableSpec, dirt: &DirtProfile, seed: u64) {
        let (clean, dirty) = generate_table(spec, dirt, seed);
        let last_update = REQUEST_TIME - (dirt.staleness_hours * 3600.0) as i64;
        self.tables.insert(
            spec.name.clone(),
            Table {
                schema: spec.schema.clone(),
                rows: dirty,
                key: spec.key.clone(),
                last_update,
            },
        );
        self.tables.insert(
            format!("ref_{}", spec.name),
            Table {
                schema: spec.schema.clone(),
                rows: clean,
                key: spec.key.clone(),
                last_update: REQUEST_TIME,
            },
        );
    }

    /// Registers a pre-built table verbatim.
    pub fn add_table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Iterates over `(name, table)` pairs (unordered).
    pub fn tables(&self) -> impl Iterator<Item = (&String, &Table)> {
        self.tables.iter()
    }

    /// Number of registered tables (including `ref_` twins).
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// Synthesises a catalog for every extract in `flow` from its schema:
/// `rows` rows per distinct source, demo dirt profile, deterministic seeds
/// — the headless stand-in for a test database behind a loaded model.
/// Each table's key is its first non-nullable attribute (else its first).
pub fn synthesize_catalog(flow: &EtlFlow, rows: usize) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    let mut seed = 0xC11u64;
    for n in flow.ops_of_kind("extract") {
        let OpKind::Extract { source, schema } = &flow.op(n).expect("live").kind else {
            unreachable!("ops_of_kind returned a non-extract");
        };
        if catalog.table(source).is_some() {
            continue;
        }
        let key = schema
            .attrs()
            .iter()
            .find(|a| !a.nullable)
            .or_else(|| schema.attrs().first())
            .map(|a| a.name.clone())
            .ok_or_else(|| format!("extract `{source}` has an empty schema"))?;
        catalog.add_generated(
            &TableSpec::new(source.clone(), schema.clone(), rows, key),
            &DirtProfile::demo(),
            seed,
        );
        seed = seed.wrapping_add(1);
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etl_model::{Attribute, DataType};

    fn spec() -> TableSpec {
        TableSpec::new(
            "orders",
            Schema::new(vec![
                Attribute::required("o_id", DataType::Int),
                Attribute::new("o_status", DataType::Str),
            ]),
            100,
            "o_id",
        )
    }

    #[test]
    fn generated_table_registers_ref_twin() {
        let mut c = Catalog::new();
        c.add_generated(&spec(), &DirtProfile::filthy(), 1);
        assert!(c.table("orders").is_some());
        assert!(c.table("ref_orders").is_some());
        assert_eq!(c.len(), 2);
        // twin is clean: exactly the base row count, no marker
        let r = c.table("ref_orders").unwrap();
        assert_eq!(r.rows.len(), 100);
        assert_eq!(r.last_update, c.request_time());
    }

    #[test]
    fn staleness_reflected_in_last_update() {
        let mut c = Catalog::new();
        let dirt = DirtProfile {
            staleness_hours: 10.0,
            ..DirtProfile::clean()
        };
        c.add_generated(&spec(), &dirt, 1);
        let t = c.table("orders").unwrap();
        assert_eq!(c.request_time() - t.last_update, 36_000);
    }

    #[test]
    fn synthesized_catalog_covers_every_extract_once() {
        let (flow, _) = crate::fig2::purchases_flow();
        let sources: std::collections::BTreeSet<String> = flow
            .ops_of_kind("extract")
            .into_iter()
            .filter_map(|n| match &flow.op(n)?.kind {
                OpKind::Extract { source, .. } => Some(source.clone()),
                _ => None,
            })
            .collect();
        let c = synthesize_catalog(&flow, 40).unwrap();
        // one table plus its `ref_` twin per distinct source
        assert_eq!(c.len(), 2 * sources.len());
        for source in &sources {
            let t = c.table(source).unwrap();
            // the clean twin holds exactly the requested rows (the dirty
            // table may carry injected duplicates)
            assert_eq!(c.table(&format!("ref_{source}")).unwrap().rows.len(), 40);
            assert!(!t.schema.attr(&t.key).unwrap().nullable);
        }
        // deterministic: the same flow yields the same rows
        let again = synthesize_catalog(&flow, 40).unwrap();
        for source in &sources {
            assert_eq!(
                c.table(source).unwrap().rows,
                again.table(source).unwrap().rows
            );
        }
    }
}
