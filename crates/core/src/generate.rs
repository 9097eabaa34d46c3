//! Pattern generation (Fig. 3, first stage): enumerate every valid
//! `(pattern, application point)` instantiation on the current flow, ranked
//! by heuristic fitness and filtered by the deployment policy.

use etl_model::EtlFlow;
use fcp::{ApplicationPoint, DeploymentPolicy, Pattern, PatternContext, PatternRegistry};
use std::sync::Arc;

/// One candidate application: a pattern at a concrete valid point.
#[derive(Clone)]
pub struct Candidate {
    /// The pattern (shared with the registry).
    pub pattern: Arc<dyn Pattern>,
    /// Where it would be applied.
    pub point: ApplicationPoint,
    /// Heuristic fitness of this placement in `[0, 1]`.
    pub fitness: f64,
}

impl Candidate {
    /// `"PatternName@point"` label used in alternative names.
    pub fn label(&self) -> String {
        format!("{}{}", self.pattern.name(), self.point)
    }

    /// Human-readable description against a flow.
    pub fn describe(&self, flow: &EtlFlow) -> String {
        format!("{} at {}", self.pattern.name(), self.point.describe(flow))
    }
}

impl std::fmt::Debug for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate")
            .field("pattern", &self.pattern.name())
            .field("point", &self.point)
            .field("fitness", &self.fitness)
            .finish()
    }
}

/// Enumerates every valid candidate on `flow`, applying the policy's
/// priority filter, fitness threshold and per-pattern top-k cap.
///
/// The paper's §3 guarantee holds before capping: "as opposed to manual
/// deployment, our tool guarantees that all of the potential application
/// points on the ETL flow are checked for each FCP". Capping only limits
/// what is *kept*, and [`generate_uncapped`] exposes the full set.
pub fn generate_candidates(
    flow: &EtlFlow,
    registry: &PatternRegistry,
    policy: &DeploymentPolicy,
) -> Result<Vec<Candidate>, fcp::PatternError> {
    let all = generate_uncapped(flow, &registry.filtered(&policy.priorities))?;
    // Sized up front: the groups below arrive in hash order, and growing
    // by them would make the allocation count vary from run to run.
    let mut out = Vec::with_capacity(all.len());
    // group per pattern, apply threshold + top-k
    let mut by_pattern: std::collections::HashMap<String, Vec<Candidate>> = Default::default();
    for c in all {
        by_pattern
            .entry(c.pattern.name().to_string())
            .or_default()
            .push(c);
    }
    for (_, mut group) in by_pattern {
        group.retain(|c| c.fitness >= policy.min_fitness);
        group.sort_by(|a, b| b.fitness.total_cmp(&a.fitness).then(a.point.cmp(&b.point)));
        group.truncate(policy.top_k_points_per_pattern);
        out.extend(group);
    }
    // deterministic order: by pattern name then point
    out.sort_by(|a, b| {
        a.pattern
            .name()
            .cmp(b.pattern.name())
            .then(a.point.cmp(&b.point))
    });
    Ok(out)
}

/// All valid candidates with no policy filtering (used by the complexity
/// experiments and the manual-baseline comparison).
pub fn generate_uncapped(
    flow: &EtlFlow,
    registry: &PatternRegistry,
) -> Result<Vec<Candidate>, fcp::PatternError> {
    let ctx = PatternContext::new(flow)?;
    let mut out = Vec::new();
    for pattern in registry.iter() {
        for point in pattern.candidate_points(&ctx) {
            let fitness = pattern.fitness(&ctx, point);
            out.push(Candidate {
                pattern: Arc::clone(pattern),
                point,
                fitness,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use quality::Characteristic;

    fn setup() -> (EtlFlow, PatternRegistry) {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(100, &DirtProfile::demo(), 1);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        (f, reg)
    }

    #[test]
    fn uncapped_checks_every_point_for_every_pattern() {
        let (f, reg) = setup();
        let all = generate_uncapped(&f, &reg).unwrap();
        // every candidate is valid at its point
        let ctx = PatternContext::new(&f).unwrap();
        for c in &all {
            assert!(c.pattern.applicable(&ctx, c.point), "{}", c.describe(&f));
        }
        // edge patterns found many points: the flow has 11 edges
        let fnv = all
            .iter()
            .filter(|c| c.pattern.name() == "FilterNullValues")
            .count();
        assert!(fnv >= 4, "expected several null-filter points, got {fnv}");
        // graph patterns appear exactly once each
        for g in ["EncryptChannels", "UpgradeResources"] {
            assert_eq!(all.iter().filter(|c| c.pattern.name() == g).count(), 1);
        }
    }

    #[test]
    fn policy_filters_by_characteristic() {
        let (f, reg) = setup();
        let mut policy = fcp::DeploymentPolicy::balanced();
        policy.priorities = vec![Characteristic::Reliability];
        policy.min_fitness = 0.0;
        let cands = generate_candidates(&f, &reg, &policy).unwrap();
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.pattern.name() == "AddCheckpoint"));
    }

    #[test]
    fn policy_top_k_caps_per_pattern() {
        let (f, reg) = setup();
        let mut policy = fcp::DeploymentPolicy::exhaustive(2);
        policy.top_k_points_per_pattern = 2;
        let cands = generate_candidates(&f, &reg, &policy).unwrap();
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for c in &cands {
            *counts.entry(c.pattern.name()).or_default() += 1;
        }
        assert!(counts.values().all(|&n| n <= 2));
    }

    #[test]
    fn fitness_threshold_respected() {
        let (f, reg) = setup();
        let mut policy = fcp::DeploymentPolicy::exhaustive(2);
        policy.min_fitness = 0.5;
        let cands = generate_candidates(&f, &reg, &policy).unwrap();
        assert!(cands.iter().all(|c| c.fitness >= 0.5));
    }

    #[test]
    fn deterministic_ordering() {
        let (f, reg) = setup();
        let policy = fcp::DeploymentPolicy::balanced();
        let a = generate_candidates(&f, &reg, &policy).unwrap();
        let b = generate_candidates(&f, &reg, &policy).unwrap();
        let la: Vec<String> = a.iter().map(|c| c.label()).collect();
        let lb: Vec<String> = b.iter().map(|c| c.label()).collect();
        assert_eq!(la, lb);
    }
}
