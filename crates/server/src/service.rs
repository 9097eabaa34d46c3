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
use poiesis::{
    FromJson, IterationRecord, ManagerSnapshot, PlanRequest, PoiesisError, SessionId,
    SessionManager, SessionSnapshot, ToJson,
};
use serde::json::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
    Value::object([(
        "error".to_string(),
        Value::object([
            ("code".to_string(), Value::String(code.to_string())),
            ("message".to_string(), Value::String(message.to_string())),
        ]),
    )])
    .to_string()
}

fn plan_error(error: &PoiesisError) -> Response {
    let body = Value::object([("error".to_string(), error.to_json())]);
    Response::json(status_for(error), body.to_string())
}

/// The wire-visible form of an [`HttpError`] (except `Closed`, which the
/// connection loop handles by hanging up).
pub fn http_error_response(error: &HttpError) -> Response {
    let code = match error {
        HttpError::Closed | HttpError::BadRequest(_) => "bad_request",
        HttpError::PayloadTooLarge { .. } => "payload_too_large",
        HttpError::HeadTooLarge => "head_too_large",
        HttpError::Timeout => "timeout",
    };
    Response::json(error.status(), error_body(code, &error.to_string()))
}

/// The durable half of a persistent service: the store plus a cache of
/// every live session's latest snapshot, keyed by handle.
///
/// The cache is what makes persistence O(mutated session): after a
/// mutation only that session is re-captured (locking only its slot —
/// [`SessionManager::snapshot_session`]), then the whole file is
/// rewritten from the cache. Without it, every mutation would have to
/// lock *all* slots and would stall behind any in-flight planning cycle.
/// The capture happens while the surrounding mutex is held, so each
/// capture-then-save is one step: a persist that captures later also
/// saves later, and a session closed before a capture is never written
/// back. Lock order is persistence → slot; nothing takes them the other
/// way round. The price: a persist of a session that another request is
/// exploring waits for that cycle with the mutex held, and other
/// sessions' persists queue behind it.
struct Persistence {
    store: StateStore,
    sessions: BTreeMap<u64, SessionSnapshot>,
}

/// Stateless-per-request facade over one [`SessionManager`] and one
/// [`SessionTemplate`], with shared [`Metrics`] and optional durable
/// state (a [`StateStore`] rewritten after every mutation).
pub struct PlanningService {
    manager: SessionManager,
    template: SessionTemplate,
    metrics: Arc<Metrics>,
    /// `Some` when `--state-dir` is set.
    store: Option<Mutex<Persistence>>,
}

impl PlanningService {
    /// A service over a fresh manager, in-memory only.
    pub fn new(template: SessionTemplate) -> Self {
        PlanningService {
            manager: SessionManager::new(),
            template,
            metrics: Arc::new(Metrics::new()),
            store: None,
        }
    }

    /// Makes the service durable: reloads any snapshot in `store`
    /// (resuming every persisted session mid-iteration) and rewrites the
    /// snapshot after each state-changing request from now on.
    ///
    /// A snapshot that fails the parse gate, the
    /// [`poiesis::ManagerSnapshot::validate`] consistency gate, or
    /// session restoration is **quarantined** (moved to
    /// `sessions.json.corrupt`, counted in
    /// `poiesis_snapshot_quarantined_total`, logged to stderr) and the
    /// service starts empty — a partially-applied snapshot never loads,
    /// and the evidence is preserved instead of silently overwritten.
    /// Only an I/O failure on the quarantine itself aborts startup.
    pub fn with_store(mut self, store: StateStore) -> Result<Self, String> {
        use crate::persist::LoadedState;
        let mut sessions = BTreeMap::new();
        let loaded = store
            .load_or_quarantine()
            .map_err(|e| format!("quarantining {}: {e}", store.path().display()))?;
        match loaded {
            LoadedState::Absent => {}
            LoadedState::Quarantined {
                reason,
                quarantined_to,
            } => {
                eprintln!(
                    "poiesis_server: rejected snapshot ({reason}); \
                     quarantined to {} and starting empty",
                    quarantined_to.display()
                );
                self.metrics.record_snapshot_quarantine();
            }
            LoadedState::Snapshot(snapshot) => {
                let template = &self.template;
                match SessionManager::from_snapshot(&snapshot, || template.builder()) {
                    Ok(manager) => {
                        self.manager = manager;
                        sessions = snapshot.sessions.into_iter().map(|s| (s.id, s)).collect();
                    }
                    Err(e) => {
                        store
                            .quarantine()
                            .map_err(|e| format!("quarantining {}: {e}", store.path().display()))?;
                        eprintln!(
                            "poiesis_server: snapshot failed to restore ({e}); \
                             quarantined to {} and starting empty",
                            store.quarantine_path().display()
                        );
                        self.metrics.record_snapshot_quarantine();
                    }
                }
            }
        }
        self.store = Some(Mutex::new(Persistence { store, sessions }));
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

    /// Re-captures the just-mutated session (locking only its slot) into
    /// the snapshot cache and rewrites the durable file, if persistence
    /// is on. A session that vanished concurrently (racing close) is
    /// skipped — the close's own persist covers it.
    fn persist_session(&self, id: SessionId) {
        let Some(store) = &self.store else { return };
        let mut persistence = store.lock().expect("state store");
        let Ok(snapshot) = self.manager.snapshot_session(id) else {
            return;
        };
        persistence.sessions.insert(id.raw(), snapshot);
        self.save(&mut persistence);
    }

    /// Drops the closed session from the snapshot cache and rewrites the
    /// durable file, if persistence is on.
    fn persist_close(&self, id: SessionId) {
        let Some(store) = &self.store else { return };
        let mut persistence = store.lock().expect("state store");
        persistence.sessions.remove(&id.raw());
        self.save(&mut persistence);
    }

    /// Rewrites the snapshot file from the cache. Failures are counted
    /// (`poiesis_snapshot_errors_total`) and logged, not propagated: the
    /// in-memory session already advanced and the client's response must
    /// reflect that.
    fn save(&self, persistence: &mut Persistence) {
        let snapshot = ManagerSnapshot {
            next_id: self.manager.next_handle(),
            sessions: persistence.sessions.values().cloned().collect(),
        };
        let result = persistence.store.save(&snapshot);
        if let Err(e) = &result {
            eprintln!(
                "poiesis_server: snapshot write to {} failed: {e}",
                persistence.store.path().display()
            );
        }
        self.metrics.record_snapshot_write(result.is_ok());
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
        let body = Value::object([
            ("status".to_string(), Value::String("ok".to_string())),
            (
                "sessions".to_string(),
                Value::Number(self.manager.len() as f64),
            ),
            (
                "catalog".to_string(),
                Value::String(self.template.label.clone()),
            ),
        ]);
        Response::json(200, body.to_string())
    }

    fn scrape(&self) -> Response {
        Response::text(200, self.metrics.render(self.manager.len()))
    }

    fn list(&self) -> Response {
        let ids: Vec<Value> = self
            .manager
            .ids()
            .into_iter()
            .map(|id| Value::Number(id.raw() as f64))
            .collect();
        Response::json(
            200,
            Value::object([("sessions".to_string(), Value::Array(ids))]).to_string(),
        )
    }

    fn create(&self, request: &Request) -> Response {
        let plan_request = if request.body.is_empty() {
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
        match self
            .manager
            .create_from_request(self.template.builder(), &plan_request)
        {
            Ok(id) => {
                self.persist_session(id);
                Response::json(
                    201,
                    Value::object([("session".to_string(), Value::Number(id.raw() as f64))])
                        .to_string(),
                )
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
                self.metrics.record_bound_pruned(response.bound_pruned);
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
                self.persist_session(id);
                Response::json(200, selection_body(id, &record))
            }
            Err(e) => plan_error(&e),
        }
    }

    fn history(&self, id: SessionId) -> Response {
        match self.manager.history(id) {
            Ok(records) => {
                let body = Value::object([
                    ("session".to_string(), Value::Number(id.raw() as f64)),
                    (
                        "history".to_string(),
                        Value::Array(records.iter().map(|r| r.to_json()).collect()),
                    ),
                ]);
                Response::json(200, body.to_string())
            }
            Err(e) => plan_error(&e),
        }
    }

    fn close(&self, id: SessionId) -> Response {
        match self.manager.close(id) {
            Ok(()) => {
                self.persist_close(id);
                Response::json(
                    200,
                    Value::object([("closed".to_string(), Value::Number(id.raw() as f64))])
                        .to_string(),
                )
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
    let parsed = Value::parse(text)
        .and_then(|v| v.get("rank")?.as_usize("rank"))
        .map_err(|e| Response::json(400, error_body("malformed", &e.to_string())))?;
    Ok(parsed)
}

/// The `select` success body: the session plus the new iteration record.
fn selection_body(id: SessionId, record: &IterationRecord) -> String {
    Value::object([
        ("session".to_string(), Value::Number(id.raw() as f64)),
        ("record".to_string(), record.to_json()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use poiesis::PlanResponse;

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
        json(response)
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str("code")
            .unwrap()
            .to_string()
    }

    #[test]
    fn lifecycle_routes_end_to_end() {
        let svc = service();
        let created = svc.handle(&request("POST", "/sessions", ""));
        assert_eq!(created.status, 201);
        let id = json(&created)
            .get("session")
            .unwrap()
            .as_usize("session")
            .unwrap();

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
        let record = IterationRecord::from_json(json(&selected).get("record").unwrap()).unwrap();
        assert_eq!(record.cycle, 1);
        assert_eq!(record.selected, plan.skyline[0].name);

        let history = svc.handle(&request("GET", &format!("/sessions/{id}/history"), ""));
        assert_eq!(history.status, 200);
        assert_eq!(
            json(&history)
                .get("history")
                .unwrap()
                .as_array("history")
                .unwrap()
                .len(),
            1
        );

        let closed = svc.handle(&request("DELETE", &format!("/sessions/{id}"), ""));
        assert_eq!(closed.status, 200);
        let gone = svc.handle(&request("POST", &format!("/sessions/{id}/explore"), ""));
        assert_eq!(gone.status, 404);
        assert_eq!(error_code(&gone), "unknown_session");
    }

    #[test]
    fn healthz_reports_live_sessions_and_catalog() {
        let svc = service();
        svc.handle(&request("POST", "/sessions", ""));
        let health = svc.handle(&request("GET", "/healthz", ""));
        assert_eq!(health.status, 200);
        let v = json(&health);
        assert_eq!(v.get("status").unwrap().as_str("status").unwrap(), "ok");
        assert_eq!(v.get("sessions").unwrap().as_usize("sessions").unwrap(), 1);
        assert_eq!(
            v.get("catalog").unwrap().as_str("catalog").unwrap(),
            "demo:80"
        );
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
        let id = json(&created)
            .get("session")
            .unwrap()
            .as_usize("session")
            .unwrap();
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
    }

    #[test]
    fn wrong_session_states_are_conflicts() {
        let svc = service();
        let created = svc.handle(&request("POST", "/sessions", ""));
        let id = json(&created)
            .get("session")
            .unwrap()
            .as_usize("session")
            .unwrap();
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
        let id = json(&created)
            .get("session")
            .unwrap()
            .as_usize("session")
            .unwrap();
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
        let id = json(&created)
            .get("session")
            .unwrap()
            .as_usize("session")
            .unwrap();
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
        let id = json(&created)
            .get("session")
            .unwrap()
            .as_usize("session")
            .unwrap();
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
    fn mutations_rewrite_the_durable_snapshot() {
        use crate::persist::StateStore;
        let dir = std::env::temp_dir().join(format!("poiesis-svc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let svc = PlanningService::new(SessionTemplate::demo(80))
            .with_store(StateStore::open(&dir).unwrap())
            .unwrap();
        let created = svc.handle(&request("POST", "/sessions", ""));
        assert_eq!(created.status, 201);
        let on_disk = StateStore::open(&dir).unwrap().load().unwrap().unwrap();
        assert_eq!(on_disk.sessions.len(), 1);

        // a second service over the same store resumes the session, and a
        // mutation on it must not drop the restored session from the file
        // (the snapshot cache is seeded from the loaded snapshot)
        let resumed = PlanningService::new(SessionTemplate::demo(80))
            .with_store(StateStore::open(&dir).unwrap())
            .unwrap();
        assert_eq!(resumed.live_sessions(), 1);
        let second = resumed.handle(&request("POST", "/sessions", ""));
        assert_eq!(second.status, 201);
        let on_disk = StateStore::open(&dir).unwrap().load().unwrap().unwrap();
        assert_eq!(on_disk.sessions.len(), 2);

        // closing rewrites the snapshot down to zero sessions
        let id = json(&created)
            .get("session")
            .unwrap()
            .as_usize("session")
            .unwrap();
        svc.handle(&request("DELETE", &format!("/sessions/{id}"), ""));
        let on_disk = StateStore::open(&dir).unwrap().load().unwrap().unwrap();
        assert!(on_disk.sessions.is_empty());
        // …but the handle counter survives, so handles are never reused
        assert!(on_disk.next_id > id as u64);
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
                json(&created)
                    .get("session")
                    .unwrap()
                    .as_usize("session")
                    .unwrap()
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

        let on_disk = StateStore::open(&dir).unwrap().load().unwrap().unwrap();
        let live = svc.manager().ids();
        assert_eq!(live.len(), 2);
        let disk_ids: Vec<u64> = on_disk.sessions.iter().map(|s| s.id).collect();
        let live_ids: Vec<u64> = live.iter().map(|id| id.raw()).collect();
        assert_eq!(disk_ids, live_ids);
        for (snapshot, &id) in on_disk.sessions.iter().zip(&live) {
            assert_eq!(snapshot.history, svc.manager().history(id).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn startup_quarantines_bad_snapshots_and_serves_empty() {
        use crate::persist::StateStore;
        let dir = std::env::temp_dir().join(format!("poiesis-svc-q-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // a torn write left half a JSON document behind
        let store = StateStore::open(&dir).unwrap();
        std::fs::write(store.path(), "{\"next_id\":3,\"sess").unwrap();
        let svc = PlanningService::new(SessionTemplate::demo(80))
            .with_store(store)
            .expect("startup must survive a torn snapshot");
        assert_eq!(svc.live_sessions(), 0, "partial state never loads");
        let reopened = StateStore::open(&dir).unwrap();
        assert!(reopened.quarantine_path().exists(), "evidence preserved");
        assert!(!reopened.path().exists(), "live path cleared");
        assert!(svc
            .metrics()
            .render(0)
            .contains("poiesis_snapshot_quarantined_total 1"));

        // the quarantined service is immediately usable and durable again
        let created = svc.handle(&request("POST", "/sessions", ""));
        assert_eq!(created.status, 201, "{}", created.body);
        let on_disk = StateStore::open(&dir).unwrap().load().unwrap().unwrap();
        assert_eq!(on_disk.sessions.len(), 1);
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
