//! User-defined patterns: the P3 part of the demo walkthrough — "users will
//! be guided through defining their own Flow Component Patterns … by
//! extending and pre-configuring the existing ones", saved "to the palette
//! of available patterns for future execution".

use crate::pattern::{
    interpose_unchecked, point_schema_in, AppliedPattern, Pattern, PatternContext, PatternError,
};
use crate::point::ApplicationPoint;
use crate::prereq::Prerequisite;
use etl_model::{EtlFlow, Operation, Schema, SchemaTable};
use quality::Characteristic;

/// Heuristic presets a custom pattern can choose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitnessPreset {
    /// Prefer points near the sources (cleaning-style).
    NearSources,
    /// Prefer points after expensive segments (checkpoint-style).
    AfterExpensive,
    /// Indifferent.
    Uniform,
}

/// A user-defined, edge-applied pattern assembled from configuration: a
/// name, the characteristic it targets, a conjunctive prerequisite list, a
/// fitness preset and an operation template instantiated against the schema
/// at the exact application point.
pub struct CustomPattern {
    name: String,
    improves: Characteristic,
    prereqs: Vec<Prerequisite>,
    fitness: FitnessPreset,
    template: Box<dyn Fn(&Schema) -> Operation + Send + Sync>,
}

impl CustomPattern {
    /// Builds a custom pattern. The template receives the schema flowing
    /// over the chosen edge and returns the operation to interpose; the
    /// returned operation is automatically tagged with the pattern name.
    pub fn new(
        name: impl Into<String>,
        improves: Characteristic,
        mut prereqs: Vec<Prerequisite>,
        fitness: FitnessPreset,
        template: impl Fn(&Schema) -> Operation + Send + Sync + 'static,
    ) -> Self {
        // Edge application and self-stacking protection are implied.
        if !prereqs.contains(&Prerequisite::IsEdge) {
            prereqs.insert(0, Prerequisite::IsEdge);
        }
        let guard = Prerequisite::NotAdjacentToPattern("self".into());
        if !prereqs.contains(&guard) {
            prereqs.push(guard);
        }
        CustomPattern {
            name: name.into(),
            improves,
            prereqs,
            fitness,
            template: Box::new(template),
        }
    }
}

impl Pattern for CustomPattern {
    fn name(&self) -> &str {
        &self.name
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }

    fn improves(&self) -> Characteristic {
        self.improves
    }

    fn prerequisites(&self) -> Vec<Prerequisite> {
        self.prereqs.clone()
    }

    fn fitness(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> f64 {
        match self.fitness {
            FitnessPreset::Uniform => 0.5,
            FitnessPreset::NearSources => {
                let d = ctx.point_distance(point);
                if d == usize::MAX {
                    0.0
                } else {
                    1.0 / (1.0 + d as f64)
                }
            }
            FitnessPreset::AfterExpensive => {
                let ApplicationPoint::Edge(e) = point else {
                    return 0.0;
                };
                let Some((src, _)) = ctx.flow.graph.endpoints(e) else {
                    return 0.0;
                };
                let upstream = ctx.upstream_cost();
                let max = upstream.iter().fold(0.0f64, |a, &b| a.max(b));
                if max <= 0.0 {
                    0.0
                } else {
                    (upstream[src.index()] / max).clamp(0.0, 1.0)
                }
            }
        }
    }

    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        schemas: &SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        let schema =
            point_schema_in(flow, schemas, point).ok_or_else(|| PatternError::NotApplicable {
                pattern: self.name.clone(),
                point: point.describe(flow),
            })?;
        let op = (self.template)(schema).tag_pattern(self.name.clone());
        interpose_unchecked(self, flow, point, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::purchases_flow;
    use etl_model::OpKind;

    fn sort_early_pattern() -> CustomPattern {
        CustomPattern::new(
            "SortEarly",
            Characteristic::Manageability,
            vec![Prerequisite::SchemaHasKeyCandidate],
            FitnessPreset::NearSources,
            |schema| {
                let key = schema
                    .attrs()
                    .iter()
                    .find(|a| !a.nullable)
                    .map(|a| a.name().to_string())
                    .expect("prerequisite guarantees a key candidate");
                Operation::new("SORT early", OpKind::Sort { by: vec![key] })
            },
        )
    }

    #[test]
    fn custom_pattern_enumerates_and_applies() {
        let (f, _) = purchases_flow();
        let p = sort_early_pattern();
        let ctx = PatternContext::new(&f).unwrap();
        let pts = p.candidate_points(&ctx);
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|pt| matches!(pt, ApplicationPoint::Edge(_))));
        let best = *pts
            .iter()
            .max_by(|a, b| p.fitness(&ctx, **a).total_cmp(&p.fitness(&ctx, **b)))
            .unwrap();
        drop(ctx);
        let mut g = f.fork("custom");
        let applied = p.apply(&mut g, best).unwrap();
        assert_eq!(applied.pattern, "SortEarly");
        g.validate().unwrap();
        // inserted op is configured from the point schema
        let op = g.op(applied.added_nodes[0]).unwrap();
        assert!(matches!(&op.kind, OpKind::Sort { by } if by == &vec!["pu_id".to_string()]));
        assert_eq!(op.from_pattern(), Some("SortEarly"));
    }

    #[test]
    fn implied_prereqs_are_injected() {
        let p = CustomPattern::new(
            "X",
            Characteristic::Performance,
            vec![],
            FitnessPreset::Uniform,
            |_| Operation::new("noop", OpKind::Split),
        );
        let ps = p.prerequisites();
        assert!(ps.contains(&Prerequisite::IsEdge));
        assert!(ps.contains(&Prerequisite::NotAdjacentToPattern("self".into())));
    }

    #[test]
    fn self_stacking_prevented_for_custom_patterns() {
        let (f, _) = purchases_flow();
        let p = sort_early_pattern();
        let mut g = f.fork("c");
        let ctx = PatternContext::new(&g).unwrap();
        let best = p.candidate_points(&ctx)[0];
        drop(ctx);
        p.apply(&mut g, best).unwrap();
        let ctx = PatternContext::new(&g).unwrap();
        assert!(!p.applicable(&ctx, best));
    }
}
