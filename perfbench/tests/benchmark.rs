//! The benchmark's own checks: its statistics match Python's, the
//! traced replay reproduces the planner, a wrong expected digest fails
//! the run, and the metric names agree with `BENCHMARK.json`.

use perfbench::plan::{self, Chain};
use perfbench::replay::replay;
use perfbench::report::Expectations;
use perfbench::stats::{quartiles, relative_spread};
use perfbench::trace::Tracer;
use poiesis::{PlanRequest, SearchStrategyKind};
use serde::json::Value;

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // values from Python's `statistics.quantiles(data, n=4)`
    let cases: [(&[f64], (f64, f64)); 4] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], (2.75, 8.25)),
        (&[3.1, 1.2, 5.5, 4.0], (1.6749999999999998, 5.125)),
        (&[7.0, 2.5], (1.375, 8.125)),
        (&[10., 20., 30., 40., 50., 60., 70.], (20.0, 60.0)),
    ];
    for (data, want) in cases {
        assert_eq!(quartiles(data), Some(want), "{data:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
    let spread = relative_spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
    assert!((spread - 5.5 / 5.5).abs() < 1e-12);
}

fn log_compaction(strategy: SearchStrategyKind) -> Chain {
    let s = scenarios::get("log_compaction").expect("scenario");
    let catalog = s.catalog(scenarios::sweep::SweepScale::full().rows);
    let registry = fcp::PatternRegistry::standard_for_catalog(&catalog);
    let planner = poiesis::Planner::new(
        s.flow(),
        catalog,
        registry,
        plan::sweep_config(&s, strategy),
    );
    Chain::new(s.name.to_string(), planner, 1)
}

#[test]
fn replay_reproduces_the_planner_on_a_small_cell() {
    for strategy in [
        SearchStrategyKind::Exhaustive,
        SearchStrategyKind::Beam { width: 32 },
        SearchStrategyKind::GreedyHillClimb,
    ] {
        let chain = log_compaction(strategy);
        let outcome = chain.planner.plan().expect("plan");
        let mut tracer = Tracer::new();
        let replayed = replay(&chain.planner, &chain.stats, &mut tracer).expect("replay");
        replayed
            .matches(&outcome)
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert!(!replayed.lines.is_empty());
        let layers = tracer.self_times();
        for layer in [
            "cycle", "prepare", "generate", "search", "apply", "estimate", "skyline",
        ] {
            assert!(layers.contains_key(layer), "{strategy}: no `{layer}` span");
        }
    }
    // the service's request keeps dominated designs
    let planner = perfbench::serve::service_planner(
        &perfbench::serve::template(),
        &perfbench::serve::request(),
    )
    .expect("planner");
    let stats = quality::estimator::source_stats(planner.catalog());
    let outcome = planner.plan().expect("plan");
    replay(&planner, &stats, &mut Tracer::new())
        .expect("replay")
        .matches(&outcome)
        .expect("retaining replay");
}

#[test]
fn replay_refuses_a_multi_worker_planner() {
    let request = PlanRequest {
        workers: 2,
        ..PlanRequest::default()
    };
    let planner = perfbench::serve::service_planner(&perfbench::serve::template(), &request)
        .expect("planner");
    let stats = quality::estimator::source_stats(planner.catalog());
    assert!(replay(&planner, &stats, &mut Tracer::new()).is_err());
}

fn tiny_grid() -> Vec<Chain> {
    vec![log_compaction(SearchStrategyKind::Exhaustive)]
}

#[test]
fn a_wrong_expected_digest_fails_the_run() {
    let right = Expectations::from_pairs([("log_compaction", "be12a245dcb47253")]);
    let report = plan::run("test", tiny_grid, 7, 0.05, false, &right);
    assert!(report.correct(), "{:?}", report.notes);

    let wrong = Expectations::from_pairs([("log_compaction", "0000000000000000")]);
    let report = plan::run("test", tiny_grid, 7, 0.05, false, &wrong);
    assert!(!report.correct());
    assert_eq!(report.failed, report.attempted, "every cycle mismatches");
    assert!(report.json_line().starts_with("{\"correct\":false,"));
    assert!(
        report
            .notes
            .iter()
            .any(|n| n.contains("observed digest be12a245dcb47253")),
        "a mismatch names the observed digest: {:?}",
        report.notes
    );
}

fn benchmark_names(section: &str) -> Vec<String> {
    let path = perfbench::report::repo_root().join("BENCHMARK.json");
    let v = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let mut names: Vec<String> = v
        .get(section)
        .and_then(|s| s.as_array(section))
        .expect("section")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str("name"))
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn reported(report: &perfbench::report::RunReport) -> Vec<String> {
    let mut names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
    names.sort();
    names
}

#[test]
fn reported_metrics_are_the_ones_benchmark_json_lists() {
    let expect = Expectations::from_pairs([("log_compaction", "be12a245dcb47253")]);
    let plain = plan::run("test", tiny_grid, 1, 0.05, false, &expect);
    assert_eq!(reported(&plain), benchmark_names("end_to_end"));
    let traced = plan::run("test", tiny_grid, 1, 0.05, true, &expect);
    assert!(traced.correct(), "{:?}", traced.notes);
    assert_eq!(reported(&traced), benchmark_names("per_layer"));
    let names = benchmark_names("workloads");
    let mut known: Vec<String> = perfbench::WORKLOADS.iter().map(|w| w.to_string()).collect();
    known.sort();
    assert_eq!(names, known);
}

#[test]
fn committed_first_round_digests_agree_with_the_scenario_sweep() {
    let bench: Value = Value::parse(
        &std::fs::read_to_string(perfbench::report::repo_root().join("BENCH_scenarios.json"))
            .expect("BENCH_scenarios.json"),
    )
    .expect("json");
    let mut sweep = std::collections::BTreeMap::new();
    for e in bench
        .get("entries")
        .and_then(|e| e.as_array("entries"))
        .expect("entries")
    {
        let get = |k: &str| e.get(k).and_then(|x| x.as_str(k)).expect(k).to_string();
        sweep.insert(
            format!("{}/{}/0", get("scenario"), get("strategy")),
            get("digest"),
        );
    }
    let text = std::fs::read_to_string(perfbench::report::expected_path()).expect("digests");
    let mut checked = 0;
    for line in text.lines().filter(|l| l.starts_with("plan_iterate ")) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields[1].ends_with("/0") {
            assert_eq!(
                sweep.get(fields[1]).map(String::as_str),
                Some(fields[2]),
                "{line}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 16, "one first round per scenario and strategy");
}

#[test]
fn a_metric_without_a_finite_value_fails_the_run() {
    let mut report = perfbench::report::RunReport::default();
    report.record(Ok(()));
    report.metric("cycle_ms", 1.5, "ms");
    assert!(report.correct());
    report.metric("combos_per_s", f64::NAN, "1/s");
    assert!(!report.correct());
    assert_eq!((report.attempted, report.failed), (2, 1));
}
