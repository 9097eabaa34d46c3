//! Cross-crate property-based tests: skyline laws, xLM/expression
//! round-trips over generated inputs, and estimator sanity over random
//! flow perturbations.

use etl_model::expr::Expr;
use etl_model::Value;
use proptest::prelude::*;

// ------------------------------------------------------------- skyline laws

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..max, 2usize..4).prop_flat_map(|(n, dims)| {
        proptest::collection::vec(proptest::collection::vec(0.0f64..200.0, dims..=dims), n..=n)
    })
}

proptest! {
    #[test]
    fn skyline_members_are_mutually_incomparable(points in arb_points(120)) {
        let sky = poiesis::pareto_skyline_bnl(&points);
        for (a, &i) in sky.iter().enumerate() {
            for &j in sky.iter().skip(a + 1) {
                prop_assert!(!poiesis::skyline::dominates(&points[i], &points[j]));
                prop_assert!(!poiesis::skyline::dominates(&points[j], &points[i]));
            }
        }
    }

    #[test]
    fn every_non_skyline_point_is_dominated(points in arb_points(80)) {
        let sky = poiesis::pareto_skyline_bnl(&points);
        for i in 0..points.len() {
            if sky.contains(&i) {
                continue;
            }
            prop_assert!(
                points.iter().any(|p| poiesis::skyline::dominates(p, &points[i])),
                "point {i} excluded but not dominated"
            );
        }
    }

    #[test]
    fn skyline_algorithms_agree(
        points in arb_points(100),
        swaps in proptest::collection::vec(any::<prop::sample::Index>(), 100),
    ) {
        // the incremental set reaches the batch frontier for a random
        // insertion order (a Fisher–Yates shuffle driven by `swaps`)
        let mut order: Vec<usize> = (0..points.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, swaps[i].index(i + 1));
        }
        let mut set = poiesis::SkylineSet::new();
        for i in order {
            set.insert(i, points[i].clone());
        }
        prop_assert_eq!(set.ids(), poiesis::pareto_skyline_bnl(&points));
    }

    #[test]
    fn incremental_skyline_set_agrees_with_batch(points in arb_points(120)) {
        // dims 2–4 via arb_points; any insertion order must converge on the
        // batch frontier
        let mut set = poiesis::SkylineSet::new();
        for (i, p) in points.iter().enumerate() {
            set.insert(i, p.clone());
        }
        prop_assert_eq!(set.ids(), poiesis::pareto_skyline_bnl(&points));
        let mut reversed = poiesis::SkylineSet::new();
        for (i, p) in points.iter().enumerate().rev() {
            reversed.insert(i, p.clone());
        }
        prop_assert_eq!(reversed.ids(), set.ids());
    }
}

// ------------------------------------------- streaming engine equivalence

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn streaming_exhaustive_matches_batch_skyline(
        depth in 1usize..3,
        top_k in 3usize..7,
        budget in 50usize..400,
    ) {
        let planner = |retain_dominated: bool| {
            let (flow, _) = datagen::fig2::purchases_flow();
            let catalog = datagen::fig2::purchases_catalog(80, &datagen::DirtProfile::demo(), 3);
            let registry = fcp::PatternRegistry::standard_for_catalog(&catalog);
            let mut policy = fcp::DeploymentPolicy::exhaustive(depth);
            policy.top_k_points_per_pattern = top_k;
            let config = poiesis::PlannerConfig {
                policy,
                max_alternatives: budget,
                retain_dominated,
                ..poiesis::PlannerConfig::default()
            };
            poiesis::Planner::new(flow, catalog, registry, config)
        };
        let retaining = planner(true);
        let full = retaining.plan().unwrap();
        // with every admitted design retained, the incremental frontier is
        // the batch frontier of the retained set's oriented scores
        let points: Vec<Vec<f64>> = full
            .alternatives
            .iter()
            .map(|a| retaining.config().objective.oriented(&a.scores))
            .collect();
        prop_assert_eq!(&full.skyline, &poiesis::pareto_skyline_bnl(&points));
        // dropping dominated designs keeps the same frontier identity and
        // walks the same space, whatever the budget or policy
        let lean = planner(false).plan().unwrap();
        prop_assert_eq!(lean.skyline_names(), full.skyline_names());
        prop_assert_eq!(&lean.stats, &full.stats);
        prop_assert_eq!(lean.alternatives.len(), lean.skyline.len());
    }
}

// -------------------------------------------------- expression text roundtrip

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        "[a-z ']{0,12}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        (-40_000i64..40_000).prop_map(Value::Date),
        any::<i32>().prop_map(|t| Value::Timestamp(t as i64)),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        "[a-z][a-z0-9_]{0,8}".prop_map(Expr::Col),
        arb_value().prop_map(Expr::Lit),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.lt(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
            inner.clone().prop_map(|a| a.is_null()),
            proptest::collection::vec(inner, 1..4).prop_map(Expr::Coalesce),
        ]
    })
}

proptest! {
    #[test]
    fn expression_text_roundtrips(e in arb_expr()) {
        let text = e.to_string();
        let parsed = xlm::expr_text::parse_expr(&text)
            .map_err(|err| TestCaseError::fail(format!("parse `{text}`: {err}")))?;
        prop_assert_eq!(parsed, e);
    }
}

// ----------------------------------------------------- xLM flow perturbations

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn xlm_roundtrips_randomly_patterned_flows(picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..4)) {
        let (mut flow, _) = datagen::fig2::purchases_flow();
        let catalog = datagen::fig2::purchases_catalog(50, &datagen::DirtProfile::demo(), 9);
        let registry = fcp::PatternRegistry::standard_for_catalog(&catalog);
        // apply a random sequence of pattern applications
        for pick in picks {
            let ctx = fcp::PatternContext::new(&flow).unwrap();
            let mut cands = Vec::new();
            for p in registry.iter() {
                for pt in p.candidate_points(&ctx) {
                    cands.push((p.clone(), pt));
                }
            }
            drop(ctx);
            if cands.is_empty() {
                break;
            }
            let (p, pt) = &cands[pick.index(cands.len())];
            let _ = p.apply(&mut flow, *pt);
        }
        flow.validate().unwrap();
        let xml = xlm::write_flow(&flow);
        let back = xlm::read_flow(&xml).unwrap();
        prop_assert_eq!(back.op_count(), flow.op_count());
        prop_assert_eq!(back.edge_count(), flow.edge_count());
        // simulation equivalence: identical traces row-for-row
        let t1 = simulator::simulate(&flow, &catalog).unwrap();
        let t2 = simulator::simulate(&back, &catalog).unwrap();
        prop_assert_eq!(t1.rows_loaded(), t2.rows_loaded());
        prop_assert!((t1.cycle_time_ms - t2.cycle_time_ms).abs() < 1e-9);
    }
}
