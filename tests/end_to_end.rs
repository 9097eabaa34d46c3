//! End-to-end integration: the full POIESIS loop on the demo workloads —
//! import, plan, select, integrate, re-plan, simulate, report.

use datagen::DirtProfile;
use fcp::PatternRegistry;
use poiesis::{Planner, PlannerConfig, Session};
use quality::{Characteristic, MeasureId};
use simulator::simulate;

#[test]
fn tpch_full_cycle() {
    let (flow, _) = datagen::tpch::tpch_flow();
    let catalog = datagen::tpch::tpch_catalog(300, &DirtProfile::demo(), 1);
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let planner = Planner::new(flow, catalog, registry, PlannerConfig::default());
    let outcome = planner.plan().unwrap();
    assert!(outcome.alternatives.len() > 50);
    assert!(!outcome.skyline.is_empty());

    // every skyline flow is valid and simulable
    for &i in &outcome.skyline {
        let alt = &outcome.alternatives[i];
        alt.flow.validate().unwrap();
        let trace = simulate(&alt.flow, planner.catalog()).unwrap();
        assert!(trace.rows_loaded() > 0, "{} loads nothing", alt.name);
    }
}

#[test]
fn xlm_imported_flow_plans_identically() {
    // write → read → plan must give the same alternative space as planning
    // on the original model
    let (flow, _) = datagen::fig2::purchases_flow();
    let catalog = datagen::fig2::purchases_catalog(150, &DirtProfile::demo(), 2);
    let registry = PatternRegistry::standard_for_catalog(&catalog);

    let reloaded = xlm::read_flow(&xlm::write_flow(&flow)).unwrap();
    let p1 = Planner::new(
        flow,
        catalog.clone(),
        registry.clone(),
        PlannerConfig::default(),
    );
    let p2 = Planner::new(reloaded, catalog, registry, PlannerConfig::default());
    let (o1, o2) = (p1.plan().unwrap(), p2.plan().unwrap());
    assert_eq!(o1.alternatives.len(), o2.alternatives.len());
    assert_eq!(o1.skyline.len(), o2.skyline.len());
    let names1: Vec<&str> = o1.alternatives.iter().map(|a| a.name.as_str()).collect();
    let names2: Vec<&str> = o2.alternatives.iter().map(|a| a.name.as_str()).collect();
    assert_eq!(names1, names2);
}

#[test]
fn iterative_session_improves_reliability_goal() {
    // a reliability-first session on a fragile flow should, over cycles,
    // raise recoverability vs the original design
    let (mut flow, ids) = datagen::fig2::purchases_flow();
    flow.op_mut(ids.derive_values).unwrap().cost.failure_rate = 0.15;
    let catalog = datagen::fig2::purchases_catalog(200, &DirtProfile::demo(), 3);
    let base_v = quality::evaluate(&flow, &simulate(&flow, &catalog).unwrap());
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let config = PlannerConfig {
        policy: fcp::DeploymentPolicy::reliability_first(),
        objective: poiesis::Objective::new()
            .maximize(Characteristic::Reliability)
            .maximize(Characteristic::Performance),
        ..PlannerConfig::default()
    };
    let mut session = Session::new(Planner::new(flow, catalog.clone(), registry, config));
    session.auto_run(2).unwrap();
    let final_flow = session.current_flow();
    let final_v = quality::evaluate(final_flow, &simulate(final_flow, &catalog).unwrap());
    assert!(
        final_v.get(MeasureId::Recoverability).unwrap()
            > base_v.get(MeasureId::Recoverability).unwrap(),
        "reliability-first session must raise recoverability: {:?} -> {:?}",
        base_v.get(MeasureId::Recoverability),
        final_v.get(MeasureId::Recoverability)
    );
    assert!(!final_flow.ops_of_kind("checkpoint").is_empty());
}

#[test]
fn planner_skyline_has_no_dominated_point() {
    let (flow, _) = datagen::tpcds::tpcds_flow();
    let catalog = datagen::tpcds::tpcds_catalog(200, &DirtProfile::demo(), 4);
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let planner = Planner::new(flow, catalog, registry, PlannerConfig::default());
    let out = planner.plan().unwrap();
    for &i in &out.skyline {
        for (j, other) in out.alternatives.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(
                !poiesis::skyline::dominates(&other.scores, &out.alternatives[i].scores),
                "skyline member {} dominated by {}",
                out.alternatives[i].name,
                other.name
            );
        }
    }
}

#[test]
fn report_drilldown_consistent_with_measures() {
    let (flow, _) = datagen::tpch::tpch_flow();
    let catalog = datagen::tpch::tpch_catalog(200, &DirtProfile::demo(), 5);
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let planner = Planner::new(flow, catalog, registry, PlannerConfig::default());
    let out = planner.plan().unwrap();
    let alt = out.skyline_alternatives().next().unwrap();
    let report = out.report(alt);
    // every detail row's value matches the alternative's measure vector
    for c in Characteristic::ALL {
        for d in report.expand(c) {
            assert_eq!(Some(d.value), alt.measures.get(d.id));
            assert_eq!(Some(d.baseline), out.baseline.get(d.id));
        }
    }
}
