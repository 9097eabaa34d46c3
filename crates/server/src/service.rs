//! The routing layer: HTTP requests in, `SessionManager` calls out.
//!
//! [`PlanningService::handle`] is a pure function from a parsed
//! [`Request`] to a [`Response`] — no I/O, no threads — which is what the
//! unit tests and the connection loop both drive. Every failure path
//! produces the documented JSON error body
//! `{"error":{"code":…,"message":…}}` with the status-code mapping of
//! `docs/API.md`; planner errors reuse the stable
//! [`PoiesisError::code`] values verbatim.

use crate::http::{HttpError, Request, Response};
use crate::metrics::Metrics;
use crate::persist::StateStore;
use crate::route::Route;
use poiesis::{FromJson, PlanRequest, PoiesisError, SessionId, SessionManager, ToJson};
use serde::json::Value;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::template::SessionTemplate;

/// The HTTP status a [`PoiesisError`] is reported as.
///
/// * client-side payload problems → `400`
/// * unknown handles → `404`
/// * valid requests in the wrong session state → `409`
/// * planner-internal and persistence failures → `500`
pub fn status_for(error: &PoiesisError) -> u16 {
    match error {
        PoiesisError::Malformed(_)
        | PoiesisError::InvalidObjective(_)
        | PoiesisError::Analysis(_)
        | PoiesisError::MissingFlow
        | PoiesisError::MissingCatalog
        | PoiesisError::EmptyCatalog => 400,
        PoiesisError::UnknownSession(_) => 404,
        PoiesisError::NothingExplored(_) | PoiesisError::RankOutOfRange { .. } => 409,
        PoiesisError::InvalidFlow(_)
        | PoiesisError::Pattern(_)
        | PoiesisError::Eval(_)
        | PoiesisError::Snapshot(_) => 500,
    }
}

/// `{"error":{"code":…,"message":…}}` from any code/message pair.
pub fn error_body(code: &str, message: &str) -> String {
    let error = Value::object([("code", code.to_json()), ("message", message.to_json())]);
    body([("error", error)])
}

fn plan_error(error: &PoiesisError) -> Response {
    Response::json(status_for(error), body([("error", error.to_json())]))
}

/// A JSON body from its members.
fn body<'k>(members: impl IntoIterator<Item = (&'k str, Value)>) -> String {
    Value::object(members).to_string()
}

/// The `503` + `Retry-After` that tells a client to come back in
/// `retry_after_secs`: the server's shedder and the fault lab's injected
/// shed both send it.
pub fn overloaded(message: &str, retry_after_secs: u64) -> Response {
    Response::json(503, error_body("overloaded", message))
        .with_header("Retry-After", retry_after_secs.to_string())
}

/// The wire-visible form of an [`HttpError`] (except `Closed`, which the
/// connection loop handles by hanging up).
pub fn http_error_response(error: &HttpError) -> Response {
    let code = match error {
        HttpError::Closed | HttpError::BadRequest(_) | HttpError::Truncated(_) => "bad_request",
        HttpError::PayloadTooLarge { .. } => "payload_too_large",
        HttpError::HeadTooLarge => "head_too_large",
        HttpError::Timeout => "timeout",
    };
    Response::json(error.status(), error_body(code, &error.to_string()))
}

/// Stateless-per-request facade over one [`SessionManager`] and one
/// [`SessionTemplate`], with shared [`Metrics`] and optional durable
/// state (a [`StateStore`] that each mutation writes one session to).
pub struct PlanningService {
    manager: SessionManager,
    template: SessionTemplate,
    metrics: Arc<Metrics>,
    /// `Some` when `--state-dir` is set.
    ///
    /// A persist captures its session while holding this mutex, so each
    /// capture-then-write is one step: a persist that captures later also
    /// writes later, and a session closed before a capture is never
    /// written back. Lock order is store → slot; nothing takes them the
    /// other way round. The price: a persist of a session that another
    /// request is exploring waits for that cycle with the mutex held, and
    /// other sessions' persists queue behind it.
    store: Option<Mutex<StateStore>>,
    /// The cap on a created session's `workers`: each explore spawns up
    /// to that many threads per batch, so a remote client gets at most
    /// one per core.
    max_workers: usize,
}

impl PlanningService {
    /// A service over a fresh manager, in-memory only.
    pub fn new(template: SessionTemplate) -> Self {
        PlanningService {
            manager: SessionManager::new(),
            template,
            metrics: Arc::new(Metrics::new()),
            store: None,
            max_workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Makes the service durable: restores every session file in
    /// `store` (resuming each session mid-iteration) and, from now on,
    /// writes the mutated session's file after each state-changing
    /// request.
    ///
    /// A session file that fails its parse, its
    /// [`poiesis::SessionSnapshot::validate`] check, the handle checks
    /// (handle matches the file name, below the `next_id` high-water
    /// mark) or restoration is **quarantined** alone: moved to
    /// `sessions/<id>.json.corrupt`, counted in
    /// `poiesis_snapshot_quarantined_total` and logged to stderr, while
    /// every other session loads. A `sessions.json` from the earlier
    /// whole-registry format is not read; startup logs a warning naming
    /// it. Only an I/O failure on listing the directory or on a
    /// quarantine aborts startup.
    pub fn with_store(mut self, store: StateStore) -> Result<Self, String> {
        let quarantine_error = |e| format!("quarantining in {}: {e}", store.path().display());
        let recovered = store.load_or_quarantine().map_err(quarantine_error)?;
        if let Some(legacy) = &recovered.legacy {
            eprintln!(
                "poiesis_server: warning: ignoring {} from the earlier whole-registry \
                 format; sessions now live in {}",
                legacy.display(),
                store.path().display()
            );
        }
        for (to, reason) in &recovered.quarantined {
            eprintln!(
                "poiesis_server: rejected {reason}; quarantined to {}",
                to.display()
            );
            self.metrics.record_snapshot_quarantine();
        }
        let manager = SessionManager::with_next_handle(recovered.next_id);
        for session in &recovered.sessions {
            if let Err(e) = manager.restore(session, self.template.builder()) {
                let to = store
                    .quarantine_session(session.id)
                    .map_err(quarantine_error)?;
                eprintln!(
                    "poiesis_server: session {} failed to restore ({e}); quarantined to {}",
                    session.id,
                    to.display()
                );
                self.metrics.record_snapshot_quarantine();
            }
        }
        self.manager = manager;
        self.store = Some(Mutex::new(store));
        Ok(self)
    }

    /// The underlying manager (used by tests to compare against the
    /// in-process facade).
    pub fn manager(&self) -> &SessionManager {
        &self.manager
    }

    /// The metrics registry (shared with the connection loop, which
    /// counts requests and connections into it).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Number of sessions currently registered (what
    /// `poiesis_sessions_live` reports).
    pub fn live_sessions(&self) -> usize {
        self.manager.len()
    }

    /// Writes the just-mutated session's file, if persistence is on.
    /// A create (`created`) first makes sure the `next_id` high-water mark
    /// covers its handle, so the handle is never issued again even if the
    /// session is closed or lost. The capture locks only the session's slot; a session
    /// that vanished concurrently (racing close) is not written — the
    /// close's own persist covers it.
    fn persist_session(&self, id: SessionId, created: bool) {
        let Some(store) = &self.store else { return };
        let store = store.lock().expect("state store");
        let start = Instant::now();
        let mut result = Ok(());
        if created {
            result = store.reserve_handle(id.raw());
        }
        match self.manager.snapshot_session(id) {
            Ok(snapshot) if result.is_ok() => result = store.write_session(&snapshot),
            // closed meanwhile, and nothing was written: no write to count
            Err(_) if !created => return,
            _ => {}
        }
        self.record_write(&store, result, start.elapsed());
    }

    /// Deletes the closed session's file, if persistence is on.
    fn persist_close(&self, id: SessionId) {
        let Some(store) = &self.store else { return };
        let store = store.lock().expect("state store");
        let start = Instant::now();
        let result = store.remove_session(id.raw());
        self.record_write(&store, result, start.elapsed());
    }

    /// Counts and times one durable write. Failures are counted
    /// (`poiesis_snapshot_errors_total`) and logged, not propagated: the
    /// in-memory session already advanced and the client's response must
    /// reflect that.
    fn record_write(&self, store: &StateStore, result: std::io::Result<()>, took: Duration) {
        if let Err(e) = &result {
            eprintln!(
                "poiesis_server: state write in {} failed: {e}",
                store.path().display()
            );
        }
        self.metrics.record_snapshot_write(result.is_ok(), took);
    }

    /// Routes one request. Never panics on hostile input; unroutable
    /// paths and methods produce `404` / `405` JSON errors.
    pub fn handle(&self, request: &Request) -> Response {
        self.respond(Route::parse(&request.method, &request.path), request)
    }

    /// Serves `request` along its already-parsed `route` (the connection
    /// loop parses it once and also labels the request's metrics with
    /// it). The service has no shutdown, so `/shutdown` is a `404` here.
    pub fn respond(&self, route: Route<'_>, request: &Request) -> Response {
        match route {
            Route::Healthz => self.healthz(),
            Route::Metrics => self.scrape(),
            Route::SessionsList => self.list(),
            Route::SessionCreate => self.create(request),
            Route::Explore(id) => self.with_id(id, |id| self.explore(id)),
            Route::Select(id) => self.with_id(id, |id| self.select(id, request)),
            Route::Lint(id) => self.with_id(id, |id| self.lint(id)),
            Route::History(id) => self.with_id(id, |id| self.history(id)),
            Route::Close(id) => self.with_id(id, |id| self.close(id)),
            Route::NotAllowed => Response::json(
                405,
                error_body(
                    "method_not_allowed",
                    &format!("{} is not supported on {}", request.method, request.path),
                ),
            ),
            Route::Shutdown | Route::ShutdownNotAllowed | Route::NotFound => Response::json(
                404,
                error_body("not_found", &format!("no route for {}", request.path)),
            ),
        }
    }

    /// Parses the `{id}` path segment and hands it to `f`; non-numeric
    /// handles are a 400, handles the manager does not know map to 404
    /// inside `f`.
    fn with_id(&self, raw: &str, f: impl FnOnce(SessionId) -> Response) -> Response {
        match raw.parse::<u64>() {
            Ok(id) => f(SessionId::from_raw(id)),
            Err(_) => Response::json(
                400,
                error_body("bad_request", &format!("malformed session id `{raw}`")),
            ),
        }
    }

    fn healthz(&self) -> Response {
        let members = [
            ("status", "ok".to_json()),
            ("sessions", self.manager.len().to_json()),
            ("catalog", self.template.label.to_json()),
        ];
        Response::json(200, body(members))
    }

    fn scrape(&self) -> Response {
        Response::text(200, self.metrics.render(self.manager.len()))
    }

    fn list(&self) -> Response {
        let ids: Vec<u64> = self.manager.ids().iter().map(|id| id.raw()).collect();
        Response::json(200, body([("sessions", ids.to_json())]))
    }

    fn create(&self, request: &Request) -> Response {
        let mut plan_request = if request.body.is_empty() {
            PlanRequest::default()
        } else {
            let text = match request.body_str() {
                Ok(t) => t,
                Err(e) => return http_error_response(&e),
            };
            match PlanRequest::from_json_str(text) {
                Ok(r) => r,
                Err(e) => return plan_error(&PoiesisError::from(e)),
            }
        };
        plan_request.workers = plan_request.workers.min(self.max_workers);
        match self
            .manager
            .create_from_request(self.template.builder(), &plan_request)
        {
            Ok(id) => {
                self.persist_session(id, true);
                Response::json(201, body([("session", id.raw().to_json())]))
            }
            Err(e) => plan_error(&e),
        }
    }

    fn explore(&self, id: SessionId) -> Response {
        let start = Instant::now();
        match self.manager.explore(id) {
            Ok(response) => {
                self.metrics.observe_cycle(start.elapsed());
                self.metrics
                    .record_static_rejections(response.statically_rejected);
                Response::json(200, response.to_json_string())
            }
            Err(e) => plan_error(&e),
        }
    }

    fn lint(&self, id: SessionId) -> Response {
        match self.manager.lint(id) {
            Ok(report) => Response::json(200, report.to_json_string()),
            Err(e) => plan_error(&e),
        }
    }

    fn select(&self, id: SessionId, request: &Request) -> Response {
        let rank = match select_rank(request) {
            Ok(rank) => rank,
            Err(response) => return response,
        };
        match self.manager.select(id, rank) {
            Ok(record) => {
                self.persist_session(id, false);
                Response::json(
                    200,
                    body([
                        ("session", id.raw().to_json()),
                        ("record", record.to_json()),
                    ]),
                )
            }
            Err(e) => plan_error(&e),
        }
    }

    fn history(&self, id: SessionId) -> Response {
        match self.manager.history(id) {
            Ok(records) => Response::json(
                200,
                body([
                    ("session", id.raw().to_json()),
                    ("history", records.to_json()),
                ]),
            ),
            Err(e) => plan_error(&e),
        }
    }

    fn close(&self, id: SessionId) -> Response {
        match self.manager.close(id) {
            Ok(()) => {
                self.persist_close(id);
                Response::json(200, body([("closed", id.raw().to_json())]))
            }
            Err(e) => plan_error(&e),
        }
    }
}

/// Decodes the `{"rank":N}` selection body.
fn select_rank(request: &Request) -> Result<usize, Response> {
    let text = request.body_str().map_err(|e| http_error_response(&e))?;
    if text.trim().is_empty() {
        return Err(Response::json(
            400,
            error_body("malformed", "select expects a body like {\"rank\":0}"),
        ));
    }
    Value::parse(text)
        .and_then(|v| v.field("rank"))
        .map_err(|e| Response::json(400, error_body("malformed", &e.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use poiesis::{IterationRecord, PlanResponse};

    fn service() -> PlanningService {
        PlanningService::new(SessionTemplate::demo(80))
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn json(response: &Response) -> Value {
        Value::parse(&response.body).expect("body parses")
    }

    fn error_code(response: &Response) -> String {
        json(response).get("error").unwrap().field("code").unwrap()
    }

    #[test]
    fn lifecycle_routes_end_to_end() {
        let svc = service();
        let created = svc.handle(&request("POST", "/sessions", ""));
        assert_eq!(created.status, 201);
        let id = json(&created).field::<usize>("session").unwrap();

        let explored = svc.handle(&request("POST", &format!("/sessions/{id}/explore"), ""));
        assert_eq!(explored.status, 200);
        let plan = PlanResponse::from_json_str(&explored.body).unwrap();
        assert!(!plan.skyline.is_empty());
        assert_eq!(plan.session, Some(id as u64));

        let selected = svc.handle(&request(
            "POST",
            &format!("/sessions/{id}/select"),
            "{\"rank\":0}",
        ));
        assert_eq!(selected.status, 200, "{}", selected.body);
        let record: IterationRecord = json(&selected).field("record").unwrap();
        assert_eq!(record.cycle, 1);
        assert_eq!(record.selected, plan.skyline[0].name);

        let history = svc.handle(&request("GET", &format!("/sessions/{id}/history"), ""));
        assert_eq!(history.status, 200);
        let records: Vec<IterationRecord> = json(&history).field("history").unwrap();
        assert_eq!(records.len(), 1);

        let closed = svc.handle(&request("DELETE", &format!("/sessions/{id}"), ""));
        assert_eq!(closed.status, 200);
        let gone = svc.handle(&request("POST", &format!("/sessions/{id}/explore"), ""));
        assert_eq!(gone.status, 404);
        assert_eq!(error_code(&gone), "unknown_session");
    }

    #[test]
    fn response_bodies_are_pinned_byte_for_byte() {
        let svc = service();
        let call = |method: &str, path: &str, body: &str| {
            let r = svc.handle(&request(method, path, body));
            (r.status, r.body)
        };
        let pinned = |status: u16, body: &str| (status, body.to_string());
        assert_eq!(
            call("GET", "/healthz", ""),
            pinned(200, r#"{"catalog":"demo:80","sessions":0,"status":"ok"}"#)
        );
        assert_eq!(
            call("POST", "/sessions", ""),
            pinned(201, r#"{"session":0}"#)
        );
        assert_eq!(
            call("POST", "/sessions", ""),
            pinned(201, r#"{"session":1}"#)
        );
        assert_eq!(
            call("GET", "/sessions", ""),
            pinned(200, r#"{"sessions":[0,1]}"#)
        );

        call("POST", "/sessions/0/explore", "");
        let selected = call("POST", "/sessions/0/select", r#"{"rank":0}"#);
        // the record's own bytes are pinned in the core crate's wire test
        let record = svc.manager().history(SessionId::from_raw(0)).unwrap()[0].to_json_string();
        assert_eq!(
            selected,
            (200, format!(r#"{{"record":{record},"session":0}}"#))
        );
        assert_eq!(
            call("GET", "/sessions/0/history", ""),
            (200, format!(r#"{{"history":[{record}],"session":0}}"#))
        );
        assert_eq!(
            call("DELETE", "/sessions/1", ""),
            pinned(200, r#"{"closed":1}"#)
        );
        assert_eq!(
            call("POST", "/sessions/1/explore", ""),
            pinned(
                404,
                r#"{"error":{"code":"unknown_session","message":"unknown session #1","session":1}}"#
            )
        );

        let shed = overloaded("all workers are busy; retry shortly", 2);
        assert_eq!(
            (shed.status, shed.body.as_str(), shed.headers),
            (
                503,
                r#"{"error":{"code":"overloaded","message":"all workers are busy; retry shortly"}}"#,
                vec![("Retry-After", "2".to_string())]
            )
        );
    }

    #[test]
    fn healthz_reports_live_sessions_and_catalog() {
        let svc = service();
        svc.handle(&request("POST", "/sessions", ""));
        let health = svc.handle(&request("GET", "/healthz", ""));
        assert_eq!(health.status, 200);
        let v = json(&health);
        assert_eq!(v.field::<String>("status").unwrap(), "ok");
        assert_eq!(v.field::<usize>("sessions").unwrap(), 1);
        assert_eq!(v.field::<String>("catalog").unwrap(), "demo:80");
    }

    #[test]
    fn custom_plan_requests_are_honoured() {
        let svc = service();
        let plan = PlanRequest {
            strategy: "beam:4".to_string(),
            budget: 64,
            ..PlanRequest::default()
        };
        let created = svc.handle(&request("POST", "/sessions", &plan.to_json_string()));
        assert_eq!(created.status, 201, "{}", created.body);
        let id = json(&created).field::<usize>("session").unwrap();
        let explored = svc.handle(&request("POST", &format!("/sessions/{id}/explore"), ""));
        let response = PlanResponse::from_json_str(&explored.body).unwrap();
        assert!(response.enumerated <= 64);
    }

    #[test]
    fn malformed_payloads_map_to_the_documented_codes() {
        let svc = service();
        // body that is not JSON at all
        let r = svc.handle(&request("POST", "/sessions", "not json"));
        assert_eq!((r.status, error_code(&r)), (400, "malformed".into()));
        // JSON with a wrong field type
        let r = svc.handle(&request("POST", "/sessions", "{\"strategy\":1}"));
        assert_eq!((r.status, error_code(&r)), (400, "malformed".into()));
        // unknown strategy string
        let plan = PlanRequest {
            strategy: "dfs".to_string(),
            ..PlanRequest::default()
        };
        let r = svc.handle(&request("POST", "/sessions", &plan.to_json_string()));
        assert_eq!((r.status, error_code(&r)), (400, "malformed".into()));
        // unknown characteristic key in the objective
        let mut plan = PlanRequest::default();
        plan.objective.goals[0].characteristic = "speed".to_string();
        let r = svc.handle(&request("POST", "/sessions", &plan.to_json_string()));
        assert_eq!((r.status, error_code(&r)), (400, "malformed".into()));
        // a member of the wrong shape is named by its whole path
        for (objective, path) in [
            ("5", "objective: expected object, got number"),
            (
                r#"{"goals":[{"characteristic":"cost","weight":"x","direction":"max"}],"constraints":[]}"#,
                "objective: goals: weight: expected number, got string",
            ),
        ] {
            let mut body = PlanRequest::default().to_json();
            let Value::Object(members) = &mut body else {
                unreachable!("a request is an object")
            };
            members.insert("objective".into(), Value::parse(objective).unwrap());
            let r = svc.handle(&request("POST", "/sessions", &body.to_string()));
            let error = json(&r).get("error").unwrap().clone();
            assert_eq!((r.status, error_code(&r)), (400, "malformed".into()));
            assert_eq!(
                error.field::<String>("message").unwrap(),
                format!("malformed payload: {path}")
            );
        }
    }

    #[test]
    fn wrong_session_states_are_conflicts() {
        let svc = service();
        let created = svc.handle(&request("POST", "/sessions", ""));
        let id = json(&created).field::<usize>("session").unwrap();
        // select before any explore
        let r = svc.handle(&request(
            "POST",
            &format!("/sessions/{id}/select"),
            "{\"rank\":0}",
        ));
        assert_eq!((r.status, error_code(&r)), (409, "nothing_explored".into()));
        // select a rank past the frontier
        svc.handle(&request("POST", &format!("/sessions/{id}/explore"), ""));
        let r = svc.handle(&request(
            "POST",
            &format!("/sessions/{id}/select"),
            "{\"rank\":100000}",
        ));
        assert_eq!(
            (r.status, error_code(&r)),
            (409, "rank_out_of_range".into())
        );
        // a bad select body never consumes the outcome
        let r = svc.handle(&request(
            "POST",
            &format!("/sessions/{id}/select"),
            "{\"rank\":\"zero\"}",
        ));
        assert_eq!((r.status, error_code(&r)), (400, "malformed".into()));
        let r = svc.handle(&request(
            "POST",
            &format!("/sessions/{id}/select"),
            "{\"rank\":0}",
        ));
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn lint_route_reports_diagnostics_for_the_session() {
        use poiesis::LintReport;
        let svc = service();
        let created = svc.handle(&request("POST", "/sessions", ""));
        let id = json(&created).field::<usize>("session").unwrap();
        let linted = svc.handle(&request("POST", &format!("/sessions/{id}/lint"), ""));
        assert_eq!(linted.status, 200, "{}", linted.body);
        let report = LintReport::from_json_str(&linted.body).unwrap();
        assert_eq!(report.session, Some(id as u64));
        assert_eq!(report.errors, 0, "template flows are error-free");
        // wrong verb → 405, unknown handle → 404, like every route
        let r = svc.handle(&request("GET", &format!("/sessions/{id}/lint"), ""));
        assert_eq!(
            (r.status, error_code(&r)),
            (405, "method_not_allowed".into())
        );
        let r = svc.handle(&request("POST", "/sessions/99/lint", ""));
        assert_eq!((r.status, error_code(&r)), (404, "unknown_session".into()));
    }

    #[test]
    fn lint_route_carries_sensitive_lineage_notes_end_to_end() {
        use poiesis::LintReport;
        let template =
            SessionTemplate::from_model_file("../../examples/flows/sensitive_leak.xlm", 40)
                .unwrap();
        let svc = PlanningService::new(template);
        let created = svc.handle(&request("POST", "/sessions", ""));
        assert_eq!(created.status, 201, "{}", created.body);
        let id = json(&created).field::<usize>("session").unwrap();
        let linted = svc.handle(&request("POST", &format!("/sessions/{id}/lint"), ""));
        assert_eq!(linted.status, 200, "{}", linted.body);
        let report = LintReport::from_json_str(&linted.body).unwrap();
        assert_eq!(report.errors, 0, "a leak is a warning, not an error");
        assert_eq!(report.warnings, 1, "{}", linted.body);
        let leak = report
            .diagnostics
            .iter()
            .find(|d| d.code == "PA030")
            .expect("PA030 on the wire");
        assert!(
            leak.notes.iter().any(|n| n.starts_with("lineage:")),
            "lineage trace survives the DTO round-trip: {:?}",
            leak.notes
        );
        assert!(
            leak.notes.iter().any(|n| n.contains("EXTRACT purchases")),
            "trace names the tainted source: {:?}",
            leak.notes
        );
    }

    #[test]
    fn analysis_errors_map_to_400() {
        assert_eq!(status_for(&PoiesisError::Analysis(vec![])), 400);
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let svc = service();
        let created = svc.handle(&request("POST", "/sessions", ""));
        let id = json(&created).field::<usize>("session").unwrap();
        svc.handle(&request("POST", &format!("/sessions/{id}/explore"), ""));

        let scrape = svc.handle(&request("GET", "/metrics", ""));
        assert_eq!(scrape.status, 200);
        assert_eq!(scrape.content_type, "text/plain; version=0.0.4");
        assert!(
            scrape.body.contains("poiesis_sessions_live 1"),
            "{}",
            scrape.body
        );
        assert!(
            scrape
                .body
                .contains("poiesis_cycle_duration_seconds_count 1"),
            "{}",
            scrape.body
        );
        // wrong verb on a known path stays a 405, like every other route
        let r = svc.handle(&request("POST", "/metrics", ""));
        assert_eq!(
            (r.status, error_code(&r)),
            (405, "method_not_allowed".into())
        );
    }

    #[test]
    fn create_caps_planning_workers_at_the_core_count() {
        let svc = service();
        let body = PlanRequest {
            workers: 1_000_000,
            ..PlanRequest::default()
        }
        .to_json_string();
        let created = svc.handle(&request("POST", "/sessions", &body));
        assert_eq!(created.status, 201, "{}", created.body);
        let id = json(&created).field::<u64>("session").unwrap();
        let cores = std::thread::available_parallelism().unwrap().get();
        let snapshot = svc
            .manager()
            .snapshot_session(SessionId::from_raw(id))
            .unwrap();
        assert_eq!(snapshot.request.workers, cores);
    }

    fn created_id(svc: &PlanningService) -> u64 {
        let created = svc.handle(&request("POST", "/sessions", ""));
        assert_eq!(created.status, 201, "{}", created.body);
        json(&created).field::<u64>("session").unwrap()
    }

    fn durable(dir: &std::path::Path) -> PlanningService {
        PlanningService::new(SessionTemplate::demo(80))
            .with_store(StateStore::open(dir).unwrap())
            .unwrap()
    }

    /// The sessions on disk, as a restart would load them; asserts that
    /// every file passes the startup checks.
    fn on_disk(store: &StateStore) -> crate::persist::Recovered {
        let recovered = store.load_or_quarantine().unwrap();
        assert!(
            recovered.quarantined.is_empty(),
            "{:?}",
            recovered.quarantined
        );
        recovered
    }

    #[test]
    fn mutations_rewrite_the_durable_snapshot() {
        let dir = std::env::temp_dir().join(format!("poiesis-svc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let svc = durable(&dir);
        let first = created_id(&svc);
        let store = StateStore::open(&dir).unwrap();
        assert!(store.session_path(first).exists(), "create writes its file");
        assert_eq!(on_disk(&store).sessions.len(), 1);
        drop(svc);

        // a second service over the same store resumes the session, and a
        // mutation on another session leaves the restored one's file alone
        let resumed = durable(&dir);
        assert_eq!(resumed.live_sessions(), 1);
        let restored_bytes = std::fs::read(store.session_path(first)).unwrap();
        let second = created_id(&resumed);
        resumed.handle(&request("POST", &format!("/sessions/{second}/explore"), ""));
        let selected = resumed.handle(&request(
            "POST",
            &format!("/sessions/{second}/select"),
            "{\"rank\":0}",
        ));
        assert_eq!(selected.status, 200, "{}", selected.body);
        let state = on_disk(&store);
        assert_eq!(state.sessions.len(), 2);
        assert_eq!(state.sessions[1].history.len(), 1, "select rewrote it");
        assert_eq!(
            std::fs::read(store.session_path(first)).unwrap(),
            restored_bytes
        );

        // closing deletes the session's file…
        resumed.handle(&request("DELETE", &format!("/sessions/{first}"), ""));
        assert!(!store.session_path(first).exists());
        let state = on_disk(&store);
        assert_eq!(state.sessions.len(), 1);
        // …but the handle counter survives, so handles are never reused
        assert!(state.next_id > second);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn closing_the_highest_handle_never_lets_a_restart_reissue_it() {
        let dir = std::env::temp_dir().join(format!("poiesis-svc-hw-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let svc = durable(&dir);
        let low = created_id(&svc);
        let high = created_id(&svc);
        svc.handle(&request("DELETE", &format!("/sessions/{high}"), ""));
        drop(svc);

        let restarted = durable(&dir);
        assert_eq!(restarted.live_sessions(), 1);
        assert_eq!(restarted.manager().ids(), vec![SessionId::from_raw(low)]);
        assert!(created_id(&restarted) > high, "a closed handle came back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_cycles_and_closes_leave_the_snapshot_current() {
        use crate::persist::StateStore;
        let dir = std::env::temp_dir().join(format!("poiesis-svc-race-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let svc = PlanningService::new(SessionTemplate::demo(80))
            .with_store(StateStore::open(&dir).unwrap())
            .unwrap();
        let ids: Vec<usize> = (0..4)
            .map(|_| {
                let created = svc.handle(&request("POST", "/sessions", ""));
                json(&created).field::<usize>("session").unwrap()
            })
            .collect();
        // Three threads run explore/select cycles on every session while a
        // fourth runs one cycle on half of them and closes each, so its
        // closes race the others' selects. Any request may lose its race
        // (404, 409), but the file must end up matching the manager.
        let cycle = |id: usize| {
            svc.handle(&request("POST", &format!("/sessions/{id}/explore"), ""));
            let select = format!("/sessions/{id}/select");
            svc.handle(&request("POST", &select, "{\"rank\":0}"));
        };
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..2 {
                        ids.iter().for_each(|&id| cycle(id));
                    }
                });
            }
            scope.spawn(|| {
                start.wait();
                for &id in &ids[..2] {
                    cycle(id);
                    svc.handle(&request("DELETE", &format!("/sessions/{id}"), ""));
                }
            });
        });

        let state = on_disk(&StateStore::open(&dir).unwrap());
        let live = svc.manager().ids();
        assert_eq!(live.len(), 2);
        let disk_ids: Vec<u64> = state.sessions.iter().map(|s| s.id).collect();
        let live_ids: Vec<u64> = live.iter().map(|id| id.raw()).collect();
        assert_eq!(disk_ids, live_ids);
        for (snapshot, &id) in state.sessions.iter().zip(&live) {
            assert_eq!(snapshot.history, svc.manager().history(id).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn startup_quarantines_a_bad_session_file_and_serves_the_rest() {
        let dir = std::env::temp_dir().join(format!("poiesis-svc-q-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let svc = durable(&dir);
        let (torn, intact) = (created_id(&svc), created_id(&svc));
        drop(svc);
        // a torn write left half a JSON document in one session's file
        let store = StateStore::open(&dir).unwrap();
        std::fs::write(store.session_path(torn), "{\"id\":0,\"base_na").unwrap();

        let svc = durable(&dir);
        assert_eq!(
            svc.manager().ids(),
            vec![SessionId::from_raw(intact)],
            "only the torn session is lost"
        );
        assert!(store.quarantine_path(torn).exists(), "evidence preserved");
        assert!(!store.session_path(torn).exists(), "live path cleared");
        assert!(svc
            .metrics()
            .render(0)
            .contains("poiesis_snapshot_quarantined_total 1"));
        let gone = svc.handle(&request("GET", &format!("/sessions/{torn}/history"), ""));
        assert_eq!(gone.status, 404);

        // the service is immediately usable and durable again, and the
        // quarantined handle is not reissued
        let created = created_id(&svc);
        assert!(created > intact);
        assert_eq!(on_disk(&store).sessions.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unroutable_requests_are_404_and_405() {
        let svc = service();
        let r = svc.handle(&request("GET", "/nope", ""));
        assert_eq!((r.status, error_code(&r)), (404, "not_found".into()));
        let r = svc.handle(&request("PATCH", "/sessions", ""));
        assert_eq!(
            (r.status, error_code(&r)),
            (405, "method_not_allowed".into())
        );
        let r = svc.handle(&request("GET", "/sessions/abc/history", ""));
        assert_eq!((r.status, error_code(&r)), (400, "bad_request".into()));
        let r = svc.handle(&request("GET", "/sessions/99/history", ""));
        assert_eq!((r.status, error_code(&r)), (404, "unknown_session".into()));
    }
}
