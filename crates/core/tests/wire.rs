//! The wire bytes, pinned: every DTO and error body the facade emits is
//! compared byte for byte with a committed literal, and each literal is
//! decoded back into the value it came from. A codec change that moves a
//! key, reorders a member, changes a number's spelling or drops a `null`
//! fails here before it reaches a client or a session file on disk.

use poiesis::{
    AlternativeSummary, ConstraintSpec, FromJson, IterationRecord, LintReport, PlanRequest,
    PlanResponse, PoiesisError, SessionId, SessionSnapshot, ToJson,
};
use std::fmt::Debug;

/// `value` encodes to exactly `literal`, and `literal` decodes to `value`.
fn pin<T: ToJson + FromJson + PartialEq + Debug>(value: &T, literal: &str) {
    assert_eq!(value.to_json_string(), literal);
    assert_eq!(&T::from_json_str(literal).unwrap(), value);
}

const DEFAULT_REQUEST: &str = concat!(
    r#"{"budget":50000,"objective":{"constraints":[],"goals":["#,
    r#"{"characteristic":"performance","direction":"max","weight":1},"#,
    r#"{"characteristic":"data_quality","direction":"max","weight":1},"#,
    r#"{"characteristic":"reliability","direction":"max","weight":1}]},"#,
    r#""retain_dominated":true,"simulate":false,"strategy":"exhaustive","workers":4}"#
);

#[test]
fn the_default_request_is_pinned() {
    pin(&PlanRequest::default(), DEFAULT_REQUEST);
}

#[test]
fn a_decode_error_names_the_path_to_the_member_that_failed() {
    // the default request with `objective` swapped out; the old value
    // stays behind under a key the decoder ignores
    let with_objective = |objective: &str| {
        let text = DEFAULT_REQUEST.replacen(
            r#""objective":{"#,
            &format!(r#""objective":{objective},"unused":{{"#),
            1,
        );
        PlanRequest::from_json_str(&text).unwrap_err().0
    };
    assert_eq!(
        with_objective("5"),
        "objective: expected object, got number"
    );
    assert_eq!(
        with_objective(
            r#"{"goals":[{"characteristic":"cost","weight":"x","direction":"max"}],"constraints":[]}"#
        ),
        "objective: goals: weight: expected number, got string"
    );
    assert_eq!(
        with_objective(r#"{"goals":[{"characteristic":"cost","weight":1}],"constraints":[]}"#),
        "objective: goals: missing field `direction`"
    );
}

#[test]
fn a_request_or_session_file_still_carrying_the_dropped_seed_decodes_as_without_it() {
    // Requests and session files written before `seed` left the wire carry
    // it as a decimal string; the decoder skips it, whatever it holds, and
    // the re-encoded bytes no longer name it. A response's `bound_pruned`
    // is skipped the same way: a body holding any count there, or none,
    // decodes to the same response, which re-encodes it as the constant 0.
    let with_seed = |seed: &str| {
        DEFAULT_REQUEST.replacen(
            r#""simulate":"#,
            &format!(r#""seed":{seed},"simulate":"#),
            1,
        )
    };
    for seed in [r#""48879""#, r#""18446744073709551615""#, "48879", "null"] {
        let old = with_seed(seed);
        assert_ne!(old, DEFAULT_REQUEST);
        let request = PlanRequest::from_json_str(&old).unwrap();
        assert_eq!(request, PlanRequest::default(), "seed {seed}");
        assert_eq!(request.to_json_string(), DEFAULT_REQUEST);
    }
    let snapshot = SessionSnapshot {
        id: 2,
        base_name: "s_purchases".into(),
        flow_xlm: "<xlm/>".into(),
        request: PlanRequest::default(),
        history: vec![record()],
    };
    let old = format!(
        r#"{{"base_name":"s_purchases","flow_xlm":"<xlm/>","history":[{RECORD}],"id":2,"request":{}}}"#,
        with_seed(r#""48879""#)
    );
    let back = SessionSnapshot::from_json_str(&old).unwrap();
    assert_eq!(back, snapshot);
    assert_eq!(back.to_json_string(), old.replace(r#""seed":"48879","#, ""));
    let current = format!("{RESPONSE_HEAD}\"session\":3,{RESPONSE_TAIL}");
    for member in [r#""bound_pruned":4,"#, ""] {
        let old = current.replacen(r#""bound_pruned":0,"#, member, 1);
        assert_ne!(old, current);
        let back = PlanResponse::from_json_str(&old).unwrap();
        assert_eq!(back, response(Some(3)));
        assert_eq!(back.to_json_string(), current);
    }
}

#[test]
fn a_request_with_constraints_is_pinned() {
    let mut request = PlanRequest {
        strategy: "beam:8".into(),
        budget: 500,
        simulate: true,
        workers: 2,
        retain_dominated: false,
        ..PlanRequest::default()
    };
    request.objective.goals.truncate(2);
    request.objective.goals[0].weight = 2.5;
    request.objective.goals[1].direction = "min".into();
    request.objective.constraints = vec![
        ConstraintSpec {
            measure: "avg_latency_ms".into(),
            ratio_vs_baseline: 1.5,
        },
        ConstraintSpec {
            measure: "monetary_cost".into(),
            ratio_vs_baseline: 0.1,
        },
    ];
    pin(
        &request,
        concat!(
            r#"{"budget":500,"objective":{"constraints":["#,
            r#"{"measure":"avg_latency_ms","ratio_vs_baseline":1.5},"#,
            r#"{"measure":"monetary_cost","ratio_vs_baseline":0.1}],"goals":["#,
            r#"{"characteristic":"performance","direction":"max","weight":2.5},"#,
            r#"{"characteristic":"data_quality","direction":"min","weight":1}]},"#,
            r#""retain_dominated":false,"simulate":true,"#,
            r#""strategy":"beam:8","workers":2}"#
        ),
    );
}

fn response(session: Option<u64>) -> PlanResponse {
    PlanResponse {
        session,
        axes: vec!["performance".into(), "data_quality".into()],
        baseline: vec![
            ("cycle_time_ms".into(), 18.92),
            ("avg_latency_ms".into(), 0.0995),
        ],
        candidates: 24,
        enumerated: 87,
        alternatives: 80,
        rejected_by_constraints: 7,
        failed_applications: 1,
        failed_evaluations: 2,
        statically_rejected: 3,
        skyline: vec![
            AlternativeSummary {
                rank: 0,
                name: "s_purchases+ParallelizeTask@n5".into(),
                applied: vec!["ParallelizeTask @n5".into()],
                scores: vec![215.81, 100.0],
                objective: 531.62,
            },
            AlternativeSummary {
                rank: 1,
                name: "a \"quoted\" \\ name\n".into(),
                applied: vec![],
                scores: vec![1e-7, 2e20],
                objective: -0.5,
            },
        ],
    }
}

const RESPONSE_TAIL: &str = concat!(
    r#""skyline":[{"applied":["ParallelizeTask @n5"],"name":"s_purchases+ParallelizeTask@n5","#,
    r#""objective":531.62,"rank":0,"scores":[215.81,100]},"#,
    r#"{"applied":[],"name":"a \"quoted\" \\ name\n","objective":-0.5,"rank":1,"#,
    r#""scores":[1e-7,2e20]}],"statically_rejected":3}"#
);

const RESPONSE_HEAD: &str = concat!(
    r#"{"alternatives":80,"axes":["performance","data_quality"],"#,
    r#""baseline":[["cycle_time_ms",18.92],["avg_latency_ms",0.0995]],"#,
    r#""bound_pruned":0,"candidates":24,"enumerated":87,"failed_applications":1,"#,
    r#""failed_evaluations":2,"rejected_by_constraints":7,"#
);

#[test]
fn a_response_with_and_without_a_session_is_pinned() {
    pin(
        &response(Some(3)),
        &format!("{RESPONSE_HEAD}\"session\":3,{RESPONSE_TAIL}"),
    );
    pin(
        &response(None),
        &format!("{RESPONSE_HEAD}\"session\":null,{RESPONSE_TAIL}"),
    );
}

#[test]
fn a_non_finite_score_encodes_as_null_and_is_refused_on_the_way_back() {
    let mut nan = response(None);
    nan.skyline[0].scores[1] = f64::NAN;
    nan.skyline[1].objective = f64::INFINITY;
    let text = nan.to_json_string();
    assert_eq!(
        text,
        format!("{RESPONSE_HEAD}\"session\":null,{RESPONSE_TAIL}")
            .replace("[215.81,100]", "[215.81,null]")
            .replace("\"objective\":-0.5", "\"objective\":null")
    );
    assert!(PlanResponse::from_json_str(&text).is_err());
}

fn diagnostics() -> Vec<analysis::Diagnostic> {
    vec![
        analysis::Diagnostic::error(
            analysis::codes::UNRESOLVED_COLUMN,
            analysis::Location::Node(etl_model::NodeId::from_raw(3)),
            "`F` references column `ghost`",
        )
        .with_suggestion("produce `ghost` upstream"),
        analysis::Diagnostic::warn(
            analysis::codes::SENSITIVE_LEAK,
            analysis::Location::Edge(etl_model::EdgeId::from_raw(1)),
            "`card` reaches a load in the clear",
        )
        .with_note("lineage: a -> b")
        .with_note("second"),
        analysis::Diagnostic::info(
            analysis::codes::DEAD_POINT,
            analysis::Location::Graph,
            "nothing to do",
        ),
    ]
}

const DIAGNOSTICS: &str = concat!(
    r#"[{"code":"PA010","location":"node","message":"`F` references column `ghost`","#,
    r#""node":3,"severity":"error","suggestion":"produce `ghost` upstream"},"#,
    r#"{"code":"PA030","edge":1,"location":"edge","message":"`card` reaches a load in the clear","#,
    r#""notes":["lineage: a -> b","second"],"severity":"warn"},"#,
    r#"{"code":"PA020","location":"graph","message":"nothing to do","severity":"info"}]"#
);

#[test]
fn lint_reports_are_pinned() {
    pin(
        &LintReport::from_diagnostics(Some(4), "s_purchases", &diagnostics()),
        &format!(
            r#"{{"diagnostics":{DIAGNOSTICS},"errors":1,"flow":"s_purchases","ok":false,"session":4,"warnings":1}}"#
        ),
    );
    pin(
        &LintReport::from_diagnostics(None, "f", &[]),
        r#"{"diagnostics":[],"errors":0,"flow":"f","ok":true,"session":null,"warnings":0}"#,
    );
}

fn record() -> IterationRecord {
    IterationRecord {
        cycle: 1,
        selected: "s_purchases+ParallelizeTask@n5".into(),
        integrated: vec![
            "ParallelizeTask @n5".into(),
            "UpgradeResources @graph".into(),
        ],
        scores: vec![215.81, 100.0],
    }
}

const RECORD: &str = concat!(
    r#"{"cycle":1,"integrated":["ParallelizeTask @n5","UpgradeResources @graph"],"#,
    r#""scores":[215.81,100],"selected":"s_purchases+ParallelizeTask@n5"}"#
);

#[test]
fn iteration_records_and_session_snapshots_are_pinned() {
    pin(&record(), RECORD);
    let snapshot = SessionSnapshot {
        id: 9,
        base_name: "s_purchases".into(),
        flow_xlm: "<xlm version=\"1.0\">\n<design name=\"x\"/></xlm>".into(),
        request: PlanRequest::default(),
        history: vec![record()],
    };
    pin(
        &snapshot,
        &format!(
            r#"{{"base_name":"s_purchases","flow_xlm":"<xlm version=\"1.0\">\n<design name=\"x\"/></xlm>","history":[{RECORD}],"id":9,"request":{DEFAULT_REQUEST}}}"#
        ),
    );
}

#[test]
fn error_bodies_with_detail_are_pinned() {
    let id = SessionId::from_raw(7);
    let cases = [
        (
            PoiesisError::UnknownSession(id),
            r#"{"code":"unknown_session","message":"unknown session #7","session":7}"#.to_string(),
        ),
        (
            PoiesisError::NothingExplored(id),
            r#"{"code":"nothing_explored","message":"session #7 has no explored frontier to select from","session":7}"#.to_string(),
        ),
        (
            PoiesisError::RankOutOfRange {
                rank: 9,
                frontier: 3,
            },
            r#"{"code":"rank_out_of_range","frontier":3,"message":"skyline rank 9 out of range (frontier holds 3 designs)","rank":9}"#.to_string(),
        ),
        (
            PoiesisError::Analysis(diagnostics()),
            format!(
                r#"{{"code":"analysis","diagnostics":{DIAGNOSTICS},"message":"static analysis found 1 error(s); first: {}"}}"#,
                diagnostics()[0]
            ),
        ),
        (
            PoiesisError::Malformed("bad \"x\"".into()),
            r#"{"code":"malformed","message":"malformed payload: bad \"x\""}"#.to_string(),
        ),
    ];
    for (error, literal) in cases {
        assert_eq!(error.to_json_string(), literal);
    }
}

#[test]
fn the_examples_in_the_api_docs_decode() {
    use poiesis::SessionBuilder;
    use serde::json::Value;
    let doc = include_str!("../../../docs/API.md");
    let blocks: Vec<Value> = doc
        .split("```json\n")
        .skip(1)
        .map(|rest| Value::parse(rest.split("\n```").next().unwrap()).unwrap())
        .collect();
    let [health, request, created, explored, selected, lint, history, error] = &blocks[..] else {
        panic!("docs/API.md holds {} json blocks, not 8", blocks.len());
    };
    assert_eq!(health.field::<String>("status").unwrap(), "ok");
    health.field::<usize>("sessions").unwrap();
    health.field::<String>("catalog").unwrap();
    let request = PlanRequest::from_json(request).unwrap();
    request.apply(SessionBuilder::new()).unwrap();
    created.field::<u64>("session").unwrap();
    PlanResponse::from_json(explored).unwrap();
    selected.field::<u64>("session").unwrap();
    selected.field::<IterationRecord>("record").unwrap();
    LintReport::from_json(lint).unwrap();
    history.field::<Vec<IterationRecord>>("history").unwrap();
    let unknown = PoiesisError::UnknownSession(SessionId::from_raw(1));
    assert_eq!(error, &Value::object([("error", unknown.to_json())]));
}
