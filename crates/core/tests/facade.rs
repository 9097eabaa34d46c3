//! Integration tests for the goal-driven facade: builder validation, the
//! handle-based session manager under real concurrency, facade/legacy
//! equivalence, objective-driven ranking, and lossless DTO round-trips.

use datagen::fig2::{purchases_catalog, purchases_flow};
use datagen::{Catalog, DirtProfile};
use fcp::PatternRegistry;
use poiesis::{
    AlternativeSummary, ConstraintSpec, FromJson, GoalSpec, Objective, ObjectiveSpec, PlanRequest,
    PlanResponse, Planner, PlannerConfig, Poiesis, PoiesisError, SessionBuilder, SessionManager,
    ToJson,
};
use proptest::prelude::*;
use quality::{Characteristic, MeasureId};
use std::sync::Arc;

fn flow_and_catalog(seed: u64) -> (etl_model::EtlFlow, Catalog) {
    let (f, _) = purchases_flow();
    let cat = purchases_catalog(120, &DirtProfile::demo(), seed);
    (f, cat)
}

fn builder(seed: u64) -> SessionBuilder {
    let (f, cat) = flow_and_catalog(seed);
    Poiesis::session().flow(f).catalog(cat).budget(400)
}

// ------------------------------------------------------------ equivalence

#[test]
fn facade_skyline_is_identical_to_the_legacy_planner_path() {
    // The acceptance bar: a same-objective run through the new facade and
    // through hand-assembled `Planner::new` + `plan()` must agree exactly.
    let (f, cat) = flow_and_catalog(5);
    let registry = PatternRegistry::standard_for_catalog(&cat);
    let legacy = Planner::new(f.clone(), cat.clone(), registry, PlannerConfig::default())
        .plan()
        .unwrap();

    let session = Poiesis::session().flow(f).catalog(cat).build().unwrap();
    let facade = session.explore().unwrap();

    assert_eq!(facade.skyline_names(), legacy.skyline_names());
    assert_eq!(facade.skyline, legacy.skyline);
    assert_eq!(facade.alternatives.len(), legacy.alternatives.len());
    for (a, b) in facade
        .skyline_alternatives()
        .zip(legacy.skyline_alternatives())
    {
        assert_eq!(a.name, b.name);
        assert_eq!(a.scores, b.scores);
    }
}

// ------------------------------------------------------------ concurrency

#[test]
fn manager_serves_eight_threads_on_distinct_handles() {
    let mgr = Arc::new(SessionManager::new());
    const THREADS: usize = 8;

    // distinct sessions, created up front so every thread works a
    // different handle; single-worker planners keep total thread count sane
    let ids: Vec<_> = (0..THREADS)
        .map(|i| mgr.create(builder(i as u64).workers(1)).unwrap())
        .collect();

    let handles: Vec<_> = ids
        .iter()
        .map(|&id| {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                // two full explore → select cycles per session
                for cycle in 1..=2usize {
                    let response = mgr.explore(id).unwrap();
                    assert_eq!(response.session, Some(id.raw()));
                    assert!(!response.skyline.is_empty());
                    let record = mgr.select(id, 0).unwrap();
                    assert_eq!(record.cycle, cycle);
                }
                mgr.history(id).unwrap()
            })
        })
        .collect();

    let histories: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(mgr.len(), THREADS);
    for history in &histories {
        assert_eq!(history.len(), 2);
    }
    // same seed ⇒ same deterministic history, regardless of interleaving
    assert_eq!(histories[0], mgr.history(ids[0]).unwrap());
    for id in ids {
        mgr.close(id).unwrap();
    }
    assert!(mgr.is_empty());
}

// ------------------------------------------------------- objective-driven

#[test]
fn objective_weights_reorder_the_frontier_ranking() {
    let (f, cat) = flow_and_catalog(5);
    let run = |objective: Objective| {
        let s = Poiesis::session()
            .flow(f.clone())
            .catalog(cat.clone())
            .objective(objective)
            .build()
            .unwrap();
        let out = s.explore().unwrap();
        let names: Vec<String> = out.skyline_alternatives().map(|a| a.name.clone()).collect();
        (out, names)
    };
    let (balanced_out, _) = run(Objective::balanced());
    // heavily favouring data quality must not change the frontier *set*
    // (weights steer ranking, never dominance) …
    let weighted_objective = Objective::new()
        .maximize(Characteristic::Performance)
        .weighted(Characteristic::DataQuality, 50.0)
        .maximize(Characteristic::Reliability);
    let (weighted_out, _) = run(weighted_objective.clone());
    assert_eq!(balanced_out.skyline_names(), weighted_out.skyline_names());
    // … but the best-first order is exactly descending weighted scalar
    let scalars: Vec<f64> = weighted_out
        .skyline_alternatives()
        .map(|a| weighted_objective.scalarize(&a.scores))
        .collect();
    assert!(
        scalars.windows(2).all(|w| w[0] >= w[1]),
        "ranking must follow the weighted objective: {scalars:?}"
    );
    // and rank 0 is the argmax of the weighted scalar over the frontier
    let best = scalars.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(
        weighted_objective.scalarize(&weighted_out.skyline_alternative(0).unwrap().scores),
        best
    );
}

#[test]
fn minimize_direction_inverts_an_axis_end_to_end() {
    // Characteristic scores are orientation-normalized (higher = better),
    // so a Minimize goal must flip both dominance and ranking on its axis:
    // the minimizing run's best design carries the *lowest* performance
    // score its frontier-mate set has to offer, the maximizing run's the
    // highest.
    let (f, cat) = flow_and_catalog(5);
    let run = |direction: poiesis::Direction| {
        let s = Poiesis::session()
            .flow(f.clone())
            .catalog(cat.clone())
            .objective(
                Objective::new()
                    .goal(poiesis::Goal {
                        characteristic: Characteristic::Performance,
                        weight: 1.0,
                        direction,
                    })
                    .maximize(Characteristic::DataQuality),
            )
            .build()
            .unwrap();
        s.explore().unwrap()
    };
    let maxed = run(poiesis::Direction::Maximize);
    let minned = run(poiesis::Direction::Minimize);
    let best_max_perf = maxed.skyline_alternative(0).unwrap().scores[0];
    let best_min_perf = minned.skyline_alternative(0).unwrap().scores[0];
    assert!(
        best_min_perf < best_max_perf,
        "minimizing performance must surface low-performance designs: \
         min-run best {best_min_perf} vs max-run best {best_max_perf}"
    );
    // every design on the minimizing frontier is undominated in the
    // flipped orientation: no other retained design is >= on data quality
    // AND <= on performance (with one strict)
    for &i in &minned.skyline {
        let s = &minned.alternatives[i].scores;
        for a in &minned.alternatives {
            let o = &a.scores;
            let dominates_flipped = o[0] <= s[0] && o[1] >= s[1] && (o[0] < s[0] || o[1] > s[1]);
            assert!(
                !dominates_flipped,
                "{} dominated in flipped orientation",
                minned.alternatives[i].name
            );
        }
    }
}

#[test]
fn objective_constraints_prune_alternatives_through_the_facade() {
    let (f, cat) = flow_and_catalog(5);
    let unconstrained = Poiesis::session()
        .flow(f.clone())
        .catalog(cat.clone())
        .build()
        .unwrap()
        .explore()
        .unwrap();
    // nothing may be slower than the baseline at all: checkpoints and most
    // cleaning patterns cost cycle time, so designs must be rejected
    let constrained = Poiesis::session()
        .flow(f)
        .catalog(cat)
        .objective(Objective::balanced().constrain(MeasureId::CycleTimeMs, 1.0))
        .build()
        .unwrap()
        .explore()
        .unwrap();
    assert!(constrained.rejected_by_constraints > unconstrained.rejected_by_constraints);
    assert!(constrained.alternatives.len() < unconstrained.alternatives.len());
}

// --------------------------------------------------------------- proptest

fn arb_goal() -> impl Strategy<Value = GoalSpec> {
    (0..6usize, 0.01..100.0f64, any::<bool>()).prop_map(|(c, weight, max)| GoalSpec {
        characteristic: Characteristic::ALL[c].key().to_string(),
        weight,
        direction: if max { "max" } else { "min" }.to_string(),
    })
}

fn arb_constraint() -> impl Strategy<Value = ConstraintSpec> {
    (0..MeasureId::ALL.len(), 0.05..20.0f64).prop_map(|(m, ratio)| ConstraintSpec {
        measure: MeasureId::ALL[m].key().to_string(),
        ratio_vs_baseline: ratio,
    })
}

fn arb_request() -> impl Strategy<Value = PlanRequest> {
    let strategy = prop_oneof![
        Just("exhaustive".to_string()),
        (1..64usize).prop_map(|w| format!("beam:{w}")),
        Just("greedy".to_string()),
    ];
    let objective = (
        proptest::collection::vec(arb_goal(), 1..5),
        proptest::collection::vec(arb_constraint(), 0..4),
    )
        .prop_map(|(goals, constraints)| ObjectiveSpec { goals, constraints });
    (
        strategy,
        1..100_000usize,
        (any::<bool>(), any::<bool>()),
        1..32usize,
        // full-range u64: seeds above 2^53 must survive (they travel as
        // decimal strings, not f64)
        any::<u64>(),
        objective,
    )
        .prop_map(
            |(strategy, budget, (simulate, retain), workers, seed, objective)| PlanRequest {
                strategy,
                budget,
                simulate,
                workers,
                retain_dominated: retain,
                seed,
                objective,
            },
        )
}

fn arb_summary() -> impl Strategy<Value = AlternativeSummary> {
    (
        0..64usize,
        "[a-z]{1,12}",
        proptest::collection::vec("[a-z_]{0,16}", 0..3),
        proptest::collection::vec(-1000.0..1000.0f64, 1..4),
        -1e6..1e6f64,
    )
        .prop_map(
            |(rank, name, applied, scores, objective)| AlternativeSummary {
                rank,
                name,
                applied,
                scores,
                objective,
            },
        )
}

fn arb_response() -> impl Strategy<Value = PlanResponse> {
    let session =
        (any::<bool>(), 0..1_000_000usize).prop_map(|(some, raw)| some.then_some(raw as u64));
    (
        session,
        proptest::collection::vec("[a-z_]{1,16}", 1..4),
        proptest::collection::vec(("[a-z_]{1,16}", 0.0..1e9f64), 0..6),
        (0..10_000usize, 0..10_000usize, 0..10_000usize),
        (
            0..100usize,
            0..100usize,
            0..100usize,
            0..100usize,
            0..100usize,
        ),
        proptest::collection::vec(arb_summary(), 0..5),
    )
        .prop_map(
            |(session, axes, baseline, (candidates, enumerated, alternatives), fails, skyline)| {
                PlanResponse {
                    session,
                    axes,
                    baseline,
                    candidates,
                    enumerated,
                    alternatives,
                    rejected_by_constraints: fails.0,
                    failed_applications: fails.1,
                    failed_evaluations: fails.2,
                    statically_rejected: fails.3,
                    bound_pruned: fails.4,
                    skyline,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_request_round_trips_losslessly(req in arb_request()) {
        let text = req.to_json_string();
        let back = PlanRequest::from_json_str(&text).unwrap();
        prop_assert_eq!(&back, &req);
        // a second trip is bit-identical (canonical printing)
        prop_assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn plan_response_round_trips_losslessly(resp in arb_response()) {
        let text = resp.to_json_string();
        let back = PlanResponse::from_json_str(&text).unwrap();
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn well_keyed_requests_build_real_objectives(req in arb_request()) {
        // any request whose goals avoid duplicate characteristics must
        // produce a validated Objective via the builder path
        let mut seen = std::collections::HashSet::new();
        prop_assume!(req.objective.goals.iter().all(|g| seen.insert(g.characteristic.clone())));
        let objective = req.objective.to_objective().unwrap();
        prop_assert_eq!(objective.dims(), req.objective.goals.len());
        // and re-encoding it reproduces the spec exactly
        prop_assert_eq!(ObjectiveSpec::from_objective(&objective), req.objective);
    }
}

// ------------------------------------------------------- builder rejects

#[test]
fn builder_rejects_every_invalid_combination_with_the_right_variant() {
    let (f, cat) = flow_and_catalog(5);
    // missing flow
    assert_eq!(
        Poiesis::session().catalog(cat.clone()).build().unwrap_err(),
        PoiesisError::MissingFlow
    );
    // missing catalog
    assert_eq!(
        Poiesis::session().flow(f.clone()).build().unwrap_err(),
        PoiesisError::MissingCatalog
    );
    // empty catalog
    assert_eq!(
        Poiesis::session()
            .flow(f.clone())
            .catalog(Catalog::new())
            .build()
            .unwrap_err(),
        PoiesisError::EmptyCatalog
    );
    // zero-weight objective
    let err = Poiesis::session()
        .flow(f.clone())
        .catalog(cat.clone())
        .objective(Objective::new().weighted(Characteristic::Performance, 0.0))
        .build()
        .unwrap_err();
    assert!(matches!(err, PoiesisError::InvalidObjective(_)), "{err}");
    // goal-less objective
    let err = Poiesis::session()
        .flow(f)
        .catalog(cat)
        .objective(Objective::new())
        .build()
        .unwrap_err();
    assert!(matches!(err, PoiesisError::InvalidObjective(_)), "{err}");
}
