//! Deployment policies: how aggressively patterns are deployed (demo part
//! P2 — "which policy will be followed for their deployment", configured
//! "according to the user-defined prioritization of goals, as well as the
//! set of constraints based on estimated measures").

use quality::{Characteristic, MeasureId, MeasureVector};

/// A constraint on an estimated measure that every presented alternative
/// must satisfy (e.g. "cycle time at most 2× the baseline").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureConstraint {
    /// The constrained measure.
    pub measure: MeasureId,
    /// Maximum allowed ratio versus the baseline value (for lower-is-better
    /// measures) or minimum allowed ratio (for higher-is-better measures).
    pub ratio_vs_baseline: f64,
}

impl MeasureConstraint {
    /// True when `alt` satisfies the constraint against `baseline`.
    pub fn satisfied(&self, baseline: &MeasureVector, alt: &MeasureVector) -> bool {
        let (Some(b), Some(v)) = (baseline.get(self.measure), alt.get(self.measure)) else {
            return true; // unmeasured ⇒ unconstrained
        };
        let eps = 1e-9;
        if self.measure.higher_is_better() {
            v + eps >= b * self.ratio_vs_baseline
        } else {
            v <= b * self.ratio_vs_baseline + eps
        }
    }
}

/// Deployment policy: which patterns are considered, how many of them per
/// alternative, placement-quality thresholds, and constraints on the
/// resulting measures.
#[derive(Debug, Clone)]
pub struct DeploymentPolicy {
    /// Human-readable policy name.
    pub name: String,
    /// Only patterns improving these characteristics are considered
    /// (empty = all).
    pub priorities: Vec<Characteristic>,
    /// Maximum number of pattern applications combined into one
    /// alternative flow (the combination depth of §2.2).
    pub max_patterns_per_flow: usize,
    /// Maximum applications of any single pattern within one alternative.
    pub max_per_pattern: usize,
    /// Candidates with fitness below this are discarded ("deployment of
    /// patterns based on custom policies based on different heuristics").
    pub min_fitness: f64,
    /// Per-pattern cap on candidate points kept after fitness ranking
    /// (bounds the factorial explosion; `usize::MAX` = keep all).
    pub top_k_points_per_pattern: usize,
    /// Constraints every surviving alternative must satisfy.
    pub constraints: Vec<MeasureConstraint>,
}

impl DeploymentPolicy {
    /// Balanced default: all characteristics, up to 2 combined patterns,
    /// heuristically sensible placements only.
    pub fn balanced() -> Self {
        DeploymentPolicy {
            name: "balanced".into(),
            priorities: vec![],
            max_patterns_per_flow: 2,
            max_per_pattern: 1,
            min_fitness: 0.15,
            top_k_points_per_pattern: 6,
            constraints: vec![],
        }
    }

    /// Performance-first: only performance patterns, allow doubling cost.
    pub fn performance_first() -> Self {
        DeploymentPolicy {
            name: "performance-first".into(),
            priorities: vec![Characteristic::Performance],
            max_patterns_per_flow: 3,
            max_per_pattern: 2,
            min_fitness: 0.3,
            top_k_points_per_pattern: 6,
            constraints: vec![MeasureConstraint {
                measure: MeasureId::MonetaryCost,
                ratio_vs_baseline: 3.0,
            }],
        }
    }

    /// Reliability-first: checkpoints everywhere sensible, but cycle time
    /// may not blow past 1.5× the baseline.
    pub fn reliability_first() -> Self {
        DeploymentPolicy {
            name: "reliability-first".into(),
            priorities: vec![Characteristic::Reliability],
            max_patterns_per_flow: 3,
            max_per_pattern: 3,
            min_fitness: 0.3,
            top_k_points_per_pattern: 8,
            constraints: vec![MeasureConstraint {
                measure: MeasureId::CycleTimeMs,
                ratio_vs_baseline: 1.5,
            }],
        }
    }

    /// Data-quality-first: cleaning near sources.
    pub fn data_quality_first() -> Self {
        DeploymentPolicy {
            name: "data-quality-first".into(),
            priorities: vec![Characteristic::DataQuality],
            max_patterns_per_flow: 3,
            max_per_pattern: 1,
            min_fitness: 0.3,
            top_k_points_per_pattern: 6,
            constraints: vec![MeasureConstraint {
                measure: MeasureId::CycleTimeMs,
                ratio_vs_baseline: 2.0,
            }],
        }
    }

    /// Exhaustive: everything, everywhere, all at once — for the
    /// complexity experiments. Use with small flows.
    pub fn exhaustive(depth: usize) -> Self {
        DeploymentPolicy {
            name: format!("exhaustive-{depth}"),
            priorities: vec![],
            max_patterns_per_flow: depth,
            max_per_pattern: depth,
            min_fitness: 0.0,
            top_k_points_per_pattern: usize::MAX,
            constraints: vec![],
        }
    }

    /// True when `alt` passes every constraint against `baseline`.
    pub fn admits(&self, baseline: &MeasureVector, alt: &MeasureVector) -> bool {
        self.constraints.iter().all(|c| c.satisfied(baseline, alt))
    }

    /// Effective combination depth over `n_candidates` candidates: the
    /// policy's per-flow pattern cap, clamped to the candidate count. Every
    /// walker of the combination space (lazy enumeration, beam, greedy)
    /// derives its depth from this single place.
    pub fn combination_depth(&self, n_candidates: usize) -> usize {
        self.max_patterns_per_flow.min(n_candidates)
    }
}

impl Default for DeploymentPolicy {
    fn default() -> Self {
        DeploymentPolicy::balanced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_lower_better() {
        let c = MeasureConstraint {
            measure: MeasureId::CycleTimeMs,
            ratio_vs_baseline: 1.5,
        };
        let mut base = MeasureVector::new();
        base.set(MeasureId::CycleTimeMs, 100.0);
        let mut ok = MeasureVector::new();
        ok.set(MeasureId::CycleTimeMs, 140.0);
        let mut bad = MeasureVector::new();
        bad.set(MeasureId::CycleTimeMs, 160.0);
        assert!(c.satisfied(&base, &ok));
        assert!(!c.satisfied(&base, &bad));
    }

    #[test]
    fn constraint_higher_better() {
        let c = MeasureConstraint {
            measure: MeasureId::Completeness,
            ratio_vs_baseline: 1.0, // must not regress
        };
        let mut base = MeasureVector::new();
        base.set(MeasureId::Completeness, 0.9);
        let mut ok = MeasureVector::new();
        ok.set(MeasureId::Completeness, 0.95);
        let mut bad = MeasureVector::new();
        bad.set(MeasureId::Completeness, 0.5);
        assert!(c.satisfied(&base, &ok));
        assert!(!c.satisfied(&base, &bad));
    }

    #[test]
    fn unmeasured_is_unconstrained() {
        let c = MeasureConstraint {
            measure: MeasureId::Recoverability,
            ratio_vs_baseline: 1.0,
        };
        assert!(c.satisfied(&MeasureVector::new(), &MeasureVector::new()));
    }

    #[test]
    fn presets_are_sane() {
        for p in [
            DeploymentPolicy::balanced(),
            DeploymentPolicy::performance_first(),
            DeploymentPolicy::reliability_first(),
            DeploymentPolicy::data_quality_first(),
            DeploymentPolicy::exhaustive(3),
        ] {
            assert!(p.max_patterns_per_flow >= 1);
            assert!(p.max_per_pattern >= 1);
            assert!((0.0..=1.0).contains(&p.min_fitness));
        }
    }

    #[test]
    fn combination_depth_clamps_to_candidates() {
        let p = DeploymentPolicy::exhaustive(4);
        assert_eq!(p.combination_depth(10), 4);
        assert_eq!(p.combination_depth(3), 3);
        assert_eq!(p.combination_depth(0), 0);
    }

    #[test]
    fn admits_uses_all_constraints() {
        let p = DeploymentPolicy::reliability_first();
        let mut base = MeasureVector::new();
        base.set(MeasureId::CycleTimeMs, 100.0);
        let mut slow = MeasureVector::new();
        slow.set(MeasureId::CycleTimeMs, 200.0);
        assert!(!p.admits(&base, &slow));
        let mut fine = MeasureVector::new();
        fine.set(MeasureId::CycleTimeMs, 120.0);
        assert!(p.admits(&base, &fine));
    }
}
