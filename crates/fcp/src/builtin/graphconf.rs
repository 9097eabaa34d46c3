//! Graph-level configuration patterns — §2.2: "the entire ETL flow graph as
//! application point serves … process-wide configuration and management
//! operations": security configurations (encryption, role-based access),
//! management of the quality of Hw/Sw resources, and adjusting the frequency
//! of process recurrence.

use crate::pattern::{AppliedPattern, Pattern, PatternContext, PatternError};
use crate::point::ApplicationPoint;
use crate::prereq::Prerequisite;
use etl_model::{EtlFlow, ResourceClass};
use quality::{Characteristic, GainProfile, RATIO_CLAMP_MAX};

/// Helper shared by graph-level patterns: the caller has already verified
/// applicability on this exact flow state, so the configuration change runs
/// with no context rebuild and adds no nodes.
fn graph_apply_unchecked(
    pattern: &dyn Pattern,
    flow: &mut EtlFlow,
    point: ApplicationPoint,
    mutate: impl FnOnce(&mut EtlFlow),
) -> Result<AppliedPattern, PatternError> {
    mutate(flow);
    Ok(AppliedPattern {
        pattern: pattern.name().to_string(),
        point,
        added_nodes: vec![],
    })
}

/// Enables channel encryption process-wide (security ↑, performance tax).
#[derive(Debug, Default, Clone)]
pub struct EncryptChannels;

impl Pattern for EncryptChannels {
    fn name(&self) -> &str {
        "EncryptChannels"
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }
    fn improves(&self) -> Characteristic {
        Characteristic::Security
    }
    /// Encryption only flips `config.encrypted`: the security score rises,
    /// every other measure stays put or worsens (the performance tax).
    fn gain_profile(&self) -> GainProfile {
        GainProfile::neutral().with_cap(Characteristic::Security, RATIO_CLAMP_MAX)
    }
    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![Prerequisite::IsGraph, Prerequisite::NotEncrypted]
    }
    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        _schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        graph_apply_unchecked(self, flow, point, |f| f.config.encrypted = true)
    }
}

/// Enables role-based access control (security ↑, negligible runtime cost).
#[derive(Debug, Default, Clone)]
pub struct EnableAccessControl;

impl Pattern for EnableAccessControl {
    fn name(&self) -> &str {
        "EnableAccessControl"
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }
    fn improves(&self) -> Characteristic {
        Characteristic::Security
    }
    /// Access control only flips `config.role_based_access`: no measure
    /// outside the security score can move upward.
    fn gain_profile(&self) -> GainProfile {
        GainProfile::neutral().with_cap(Characteristic::Security, RATIO_CLAMP_MAX)
    }
    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![Prerequisite::IsGraph, Prerequisite::NoAccessControl]
    }
    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        _schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        graph_apply_unchecked(self, flow, point, |f| f.config.role_based_access = true)
    }
}

/// Upgrades the Hw/Sw resource class one step (performance ↑, cost ↑).
#[derive(Debug, Default, Clone)]
pub struct UpgradeResources;

impl Pattern for UpgradeResources {
    fn name(&self) -> &str {
        "UpgradeResources"
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }
    fn improves(&self) -> Characteristic {
        Characteristic::Performance
    }
    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![Prerequisite::IsGraph, Prerequisite::ResourcesUpgradable]
    }
    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        _schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        graph_apply_unchecked(self, flow, point, |f| {
            f.config.resources = match f.config.resources {
                ResourceClass::Small => ResourceClass::Medium,
                ResourceClass::Medium | ResourceClass::Large => ResourceClass::Large,
            }
        })
    }
}

/// Halves the recurrence period — the process runs twice as often, so data
/// at request time is fresher (data quality ↑, monetary cost ↑).
#[derive(Debug, Default, Clone)]
pub struct IncreaseRecurrence;

impl Pattern for IncreaseRecurrence {
    fn name(&self) -> &str {
        "IncreaseRecurrence"
    }
    fn patch_confined_to_added_nodes(&self) -> bool {
        true
    }
    fn improves(&self) -> Characteristic {
        Characteristic::DataQuality
    }
    /// Halving the recurrence period improves freshness (data quality) and
    /// doubles monetary cost; structure, performance, reliability and
    /// security are untouched.
    fn gain_profile(&self) -> GainProfile {
        GainProfile::neutral().with_cap(Characteristic::DataQuality, RATIO_CLAMP_MAX)
    }
    fn prerequisites(&self) -> Vec<Prerequisite> {
        vec![Prerequisite::IsGraph]
    }
    fn applicable(&self, ctx: &PatternContext<'_>, point: ApplicationPoint) -> bool {
        matches!(point, ApplicationPoint::Graph) && ctx.flow.config.recurrence_minutes > 30.0
    }
    fn apply_unchecked(
        &self,
        flow: &mut EtlFlow,
        point: ApplicationPoint,
        _schemas: &etl_model::SchemaTable,
    ) -> Result<AppliedPattern, PatternError> {
        graph_apply_unchecked(self, flow, point, |f| {
            f.config.recurrence_minutes = (f.config.recurrence_minutes / 2.0).max(30.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use quality::MeasureId;
    use simulator::simulate;

    #[test]
    fn graph_patterns_only_offer_graph_point() {
        let (f, _) = purchases_flow();
        let ctx = PatternContext::new(&f).unwrap();
        for p in [
            &EncryptChannels as &dyn Pattern,
            &EnableAccessControl,
            &UpgradeResources,
            &IncreaseRecurrence,
        ] {
            assert_eq!(p.candidate_points(&ctx), vec![ApplicationPoint::Graph]);
        }
    }

    #[test]
    fn encrypt_raises_security_and_costs_performance() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(300, &DirtProfile::clean(), 1);
        let base = quality::evaluate(&f, &simulate(&f, &cat).unwrap());
        let mut g = f.fork("enc");
        EncryptChannels
            .apply(&mut g, ApplicationPoint::Graph)
            .unwrap();
        let v = quality::evaluate(&g, &simulate(&g, &cat).unwrap());
        assert!(
            v.get(MeasureId::SecurityScore).unwrap() > base.get(MeasureId::SecurityScore).unwrap()
        );
        assert!(v.get(MeasureId::CycleTimeMs).unwrap() > base.get(MeasureId::CycleTimeMs).unwrap());
        // idempotence guard
        assert!(EncryptChannels
            .apply(&mut g, ApplicationPoint::Graph)
            .is_err());
    }

    #[test]
    fn upgrade_resources_trades_cost_for_speed() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(300, &DirtProfile::clean(), 1);
        let base = quality::evaluate(&f, &simulate(&f, &cat).unwrap());
        let mut g = f.fork("big");
        UpgradeResources
            .apply(&mut g, ApplicationPoint::Graph)
            .unwrap();
        let v = quality::evaluate(&g, &simulate(&g, &cat).unwrap());
        assert!(v.get(MeasureId::CycleTimeMs).unwrap() < base.get(MeasureId::CycleTimeMs).unwrap());
        assert!(
            v.get(MeasureId::MonetaryCost).unwrap() > base.get(MeasureId::MonetaryCost).unwrap()
        );
        // two upgrades hit Large, then stop
        UpgradeResources
            .apply(&mut g, ApplicationPoint::Graph)
            .unwrap();
        assert!(UpgradeResources
            .apply(&mut g, ApplicationPoint::Graph)
            .is_err());
    }

    #[test]
    fn recurrence_improves_freshness_but_costs_money() {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(
            300,
            &DirtProfile {
                staleness_hours: 24.0,
                ..DirtProfile::clean()
            },
            1,
        );
        let base = quality::evaluate(&f, &simulate(&f, &cat).unwrap());
        let mut g = f.fork("often");
        IncreaseRecurrence
            .apply(&mut g, ApplicationPoint::Graph)
            .unwrap();
        assert_eq!(
            g.config.recurrence_minutes,
            f.config.recurrence_minutes / 2.0
        );
        let v = quality::evaluate(&g, &simulate(&g, &cat).unwrap());
        // fresher content at request time…
        assert!(
            v.get(MeasureId::FreshnessScore).unwrap()
                > base.get(MeasureId::FreshnessScore).unwrap()
        );
        assert!(
            v.get(MeasureId::FreshnessAgeS).unwrap() < base.get(MeasureId::FreshnessAgeS).unwrap()
        );
        // …at double the daily cost
        assert!(
            (v.get(MeasureId::MonetaryCost).unwrap() / base.get(MeasureId::MonetaryCost).unwrap()
                - 2.0)
                .abs()
                < 0.2
        );
    }
}
