//! Data-quality patterns: `FilterNullValues`, `RemoveDuplicateEntries`,
//! `CrosscheckSources` (the three DQ rows of Fig. 6).
//!
//! All three apply on edges and share the "cleaning as close as possible to
//! the operations for inputting data sources" placement heuristic from §3,
//! "to prevent cumulative side-effects of reduced data quality".

use crate::pattern::{
    interpose_unchecked, point_schema_in, AppliedPattern, Pattern, PatternContext, PatternError,
};
use crate::point::ApplicationPoint;
use crate::prereq::Prerequisite;
use etl_model::{EtlFlow, OpKind, Operation};
use quality::Characteristic;
use std::sync::Arc;

/// Shared fitness: cleaning is encouraged near the sources.
fn source_proximity_fitness(ctx: &PatternContext<'_>, point: ApplicationPoint) -> f64 {
    let d = ctx.point_distance(point);
    if d == usize::MAX {
        return 0.0;
    }
    1.0 / (1.0 + d as f64)
}

/// `FilterNullValues` — "itself an ETL flow consisting of only one
/// operation: a filter that deletes entries with null values from its
/// input" (§3's worked example). Interposed on an edge, configured with the
/// nullable attributes of the schema at the exact application point.
///
/// Temporal attributes (`Date`/`Timestamp`) are excluded from the filter
/// configuration: in type-2 dimensions a null `record_end_date` *means*
/// "current record" (exactly the predicate in the paper's Fig. 2), so
/// dropping those rows would change flow semantics — which an FCP must
/// never do.
#[derive(Debug, Default, Clone)]
pub struct FilterNullValues;

impl FilterNullValues {
    /// The columns the interposed filter will guard at a given schema:
    /// nullable, non-temporal attributes, sharing the schema's names.
    pub fn target_columns(schema: &etl_model::Schema) -> Vec<Arc<str>> {
        schema
            .attrs()
            .iter()
            .filter(|a| {
                a.nullable
                    && !matches!(
                        a.dtype,
                        etl_model::DataType::Date | etl_model::DataType::Timestamp
                    )
            })
            .map(|a| Arc::clone(a.shared_name()))
            .collect()
    }
}

const FILTER_NULL_VALUES: &str = "FilterNullValues";
const REMOVE_DUPLICATE_ENTRIES: &str = "RemoveDuplicateEntries";
const CROSSCHECK_SOURCES: &str = "CrosscheckSources";

impl Pattern for FilterNullValues {
    fn name(&self) -> &str {
        FILTER_NULL_VALUES
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }

    fn improves(&self) -> Characteristic {
        Characteristic::DataQuality
    }

    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![
            Prerequisite::IsEdge,
            Prerequisite::SchemaNonEmpty,
            Prerequisite::SchemaHasNullable,
            Prerequisite::NotAdjacentToPattern("self".into()),
        ]
    }

    fn applicable(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> bool {
        point.is_live(ctx.flow)
            && self
                .prerequisites()
                .iter()
                .all(|p| p.satisfied(ctx, point, self.name()))
            // the filter must have at least one non-temporal nullable target
            && ctx
                .point_schema(point)
                .is_some_and(|s| !Self::target_columns(s).is_empty())
    }

    fn fitness(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> f64 {
        source_proximity_fitness(ctx, point)
    }

    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        let columns = point_schema_in(flow, schemas, point)
            .map(Self::target_columns)
            .unwrap_or_default();
        let op = Operation::new(
            shared_name!("FILTER null values"),
            OpKind::FilterNulls { columns },
        )
        .tag_pattern(shared_name!(FILTER_NULL_VALUES));
        interpose_unchecked(self, flow, point, op)
    }
}

/// `RemoveDuplicateEntries` — interposes a dedup keyed on the non-nullable
/// attributes of the schema at the application point (falling back to the
/// whole tuple when none exist).
#[derive(Debug, Default, Clone)]
pub struct RemoveDuplicateEntries;

impl Pattern for RemoveDuplicateEntries {
    fn name(&self) -> &str {
        REMOVE_DUPLICATE_ENTRIES
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }

    fn improves(&self) -> Characteristic {
        Characteristic::DataQuality
    }

    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![
            Prerequisite::IsEdge,
            Prerequisite::SchemaNonEmpty,
            Prerequisite::NotAdjacentToPattern("self".into()),
        ]
    }

    fn fitness(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> f64 {
        source_proximity_fitness(ctx, point)
    }

    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        _schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        let op = Operation::new(
            shared_name!("REMOVE duplicate entries"),
            OpKind::Dedup { keys: vec![] },
        )
        .tag_pattern(shared_name!(REMOVE_DUPLICATE_ENTRIES));
        interpose_unchecked(self, flow, point, op)
    }
}

/// `CrosscheckSources` — repairs null/corrupted values by consulting an
/// alternative (reference) source, matched on a key attribute. The pattern
/// is configured with the `(key attribute, alternative source)` pairs known
/// to the deployment — "the access points and data models of additional
/// data sources" that §3 says elaborate FCPs pre-define.
#[derive(Debug, Clone)]
pub struct CrosscheckSources {
    /// `(key attribute, alternative source table)` pairs.
    specs: Vec<(String, String)>,
}

impl CrosscheckSources {
    /// Pattern with explicit alternative-source specs.
    pub fn new(specs: Vec<(String, String)>) -> Self {
        CrosscheckSources { specs }
    }

    /// Builds the specs from a catalog: every table with a `ref_` twin can
    /// be crosschecked on its key attribute.
    pub fn from_catalog(catalog: &datagen::Catalog) -> Self {
        let mut specs = Vec::new();
        for (name, table) in catalog.tables() {
            if name.starts_with("ref_") {
                continue;
            }
            let twin = format!("ref_{name}");
            if catalog.table(&twin).is_some() {
                specs.push((table.key.clone(), twin));
            }
        }
        specs.sort();
        CrosscheckSources { specs }
    }

    fn spec_for(&self, schema: &etl_model::Schema) -> Option<&(String, String)> {
        self.specs.iter().find(|(key, _)| schema.contains(key))
    }
}

impl Pattern for CrosscheckSources {
    fn name(&self) -> &str {
        CROSSCHECK_SOURCES
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }

    fn improves(&self) -> Characteristic {
        Characteristic::DataQuality
    }

    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![
            Prerequisite::IsEdge,
            Prerequisite::SchemaNonEmpty,
            Prerequisite::NotAdjacentToPattern("self".into()),
        ]
    }

    fn applicable(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> bool {
        point.is_live(ctx.flow)
            && self
                .prerequisites()
                .iter()
                .all(|p| p.satisfied(ctx, point, self.name()))
            // extra conjunctive condition: a known key must be in scope
            && ctx
                .point_schema(point)
                .is_some_and(|s| self.spec_for(s).is_some())
    }

    fn fitness(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> f64 {
        source_proximity_fitness(ctx, point)
    }

    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        let spec = point_schema_in(flow, schemas, point)
            .and_then(|s| self.spec_for(s))
            .cloned()
            .ok_or_else(|| PatternError::NotApplicable {
                pattern: self.name().to_string(),
                point: point.describe(flow),
            })?;
        let (key, alt_source) = spec;
        let op = Operation::new(
            format!("CROSSCHECK against {alt_source}"),
            OpKind::Crosscheck { alt_source, key },
        )
        .tag_pattern(shared_name!(CROSSCHECK_SOURCES));
        interpose_unchecked(self, flow, point, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use simulator::simulate;

    #[test]
    fn filter_nulls_candidates_exclude_empty_nullable() {
        let (f, _) = purchases_flow();
        let ctx = PatternContext::new(&f).unwrap();
        let pts = FilterNullValues.candidate_points(&ctx);
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|p| matches!(p, ApplicationPoint::Edge(_))));
    }

    #[test]
    fn cleaning_fitness_prefers_source_proximity() {
        let (f, ids) = purchases_flow();
        let ctx = PatternContext::new(&f).unwrap();
        // edge out of an extract vs edge out of the late merge
        let early = ApplicationPoint::Edge(
            f.graph
                .out_edges(f.ops_of_kind("extract")[0])
                .next()
                .unwrap(),
        );
        let late = ApplicationPoint::Edge(f.graph.out_edges(ids.merge_groups).next().unwrap());
        let p = FilterNullValues;
        assert!(p.fitness(&ctx, early) > p.fitness(&ctx, late));
    }

    #[test]
    fn filter_nulls_apply_improves_loaded_completeness() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(300, &DirtProfile::filthy(), 8);
        let base = simulate(&f, &cat).unwrap();
        let base_v = quality::evaluate(&f, &base);

        let mut g = f.fork("cleaned");
        let ctx = PatternContext::new(&g).unwrap();
        let mut pts = FilterNullValues.candidate_points(&ctx);
        pts.sort_by(|a, b| {
            FilterNullValues
                .fitness(&ctx, *b)
                .total_cmp(&FilterNullValues.fitness(&ctx, *a))
        });
        let best = pts[0];
        drop(ctx);
        let applied = FilterNullValues.apply(&mut g, best).unwrap();
        assert_eq!(applied.added_nodes.len(), 1);
        g.validate().unwrap();
        let t = simulate(&g, &cat).unwrap();
        let v = quality::evaluate(&g, &t);
        assert!(
            v.get(quality::MeasureId::Completeness).unwrap()
                > base_v.get(quality::MeasureId::Completeness).unwrap()
        );
    }

    #[test]
    fn dedup_apply_improves_uniqueness() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(300, &DirtProfile::filthy(), 8);
        let base_v = quality::evaluate(&f, &simulate(&f, &cat).unwrap());
        let mut g = f.fork("dd");
        let ctx = PatternContext::new(&g).unwrap();
        let pts = RemoveDuplicateEntries.candidate_points(&ctx);
        // pick the most source-proximate point
        let best = *pts
            .iter()
            .max_by(|a, b| {
                RemoveDuplicateEntries
                    .fitness(&ctx, **a)
                    .total_cmp(&RemoveDuplicateEntries.fitness(&ctx, **b))
            })
            .unwrap();
        drop(ctx);
        RemoveDuplicateEntries.apply(&mut g, best).unwrap();
        g.validate().unwrap();
        let v = quality::evaluate(&g, &simulate(&g, &cat).unwrap());
        assert!(
            v.get(quality::MeasureId::Uniqueness).unwrap()
                >= base_v.get(quality::MeasureId::Uniqueness).unwrap()
        );
    }

    #[test]
    fn crosscheck_requires_key_in_scope() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(100, &DirtProfile::demo(), 1);
        let p = CrosscheckSources::from_catalog(&cat);
        assert_eq!(p.specs.len(), 2);
        let ctx = PatternContext::new(&f).unwrap();
        let pts = p.candidate_points(&ctx);
        // pu_id survives the projection, so points exist both early and late
        assert!(!pts.is_empty());
        // a spec-less pattern has no candidates
        let none = CrosscheckSources::new(vec![]);
        assert!(none.candidate_points(&ctx).is_empty());
    }

    #[test]
    fn crosscheck_apply_repairs_nulls() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(300, &DirtProfile::filthy(), 8);
        let base_v = quality::evaluate(&f, &simulate(&f, &cat).unwrap());
        let p = CrosscheckSources::from_catalog(&cat);
        let mut g = f.fork("cc");
        let ctx = PatternContext::new(&g).unwrap();
        let pts = p.candidate_points(&ctx);
        let best = *pts
            .iter()
            .max_by(|a, b| p.fitness(&ctx, **a).total_cmp(&p.fitness(&ctx, **b)))
            .unwrap();
        drop(ctx);
        p.apply(&mut g, best).unwrap();
        g.validate().unwrap();
        let v = quality::evaluate(&g, &simulate(&g, &cat).unwrap());
        assert!(
            v.get(quality::MeasureId::Completeness).unwrap()
                > base_v.get(quality::MeasureId::Completeness).unwrap()
        );
    }

    #[test]
    fn stacking_prevented_at_same_point() {
        let (f, _) = purchases_flow();
        let mut g = f.fork("x");
        let ctx = PatternContext::new(&g).unwrap();
        let pts = FilterNullValues.candidate_points(&ctx);
        let n_before = pts.len();
        let best = pts[0];
        drop(ctx);
        FilterNullValues.apply(&mut g, best).unwrap();
        // the same edge is no longer applicable (it now touches the pattern node)
        let ctx = PatternContext::new(&g).unwrap();
        assert!(!FilterNullValues.applicable(&ctx, best));
        // Downstream points also disappear: the filter marks its columns
        // non-nullable, so edges further down have nothing left to clean.
        assert!(FilterNullValues.candidate_points(&ctx).len() < n_before);
    }
}
