//! The route table: the one place that maps a request's method and path to
//! the endpoint it addresses.
//!
//! The connection loop parses each request's [`Route`] once; the server's
//! dispatch, the service's `404`/`405` split and the `/metrics` route
//! label all read that one value. Paths are matched on their non-empty
//! `/`-separated segments, so `/healthz/` and `//healthz` address
//! `/healthz`.

/// What one request addresses. Session routes carry the raw `{id}` path
/// segment; the service parses it (a non-numeric handle is a `400`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route<'a> {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /sessions`
    SessionsList,
    /// `POST /sessions`
    SessionCreate,
    /// `POST /sessions/{id}/explore`
    Explore(&'a str),
    /// `POST /sessions/{id}/select`
    Select(&'a str),
    /// `POST /sessions/{id}/lint`
    Lint(&'a str),
    /// `GET /sessions/{id}/history`
    History(&'a str),
    /// `DELETE /sessions/{id}`
    Close(&'a str),
    /// `POST /shutdown`: the [`Server`](crate::Server)'s own endpoint. A
    /// bare [`PlanningService`](crate::PlanningService) has no shutdown
    /// and answers `404`.
    Shutdown,
    /// `/shutdown` with any other method: `405` from the server, `404`
    /// from a bare service.
    ShutdownNotAllowed,
    /// A known path with a method it does not support: `405`.
    NotAllowed,
    /// Any other path: `404`.
    NotFound,
}

impl<'a> Route<'a> {
    /// Every `/metrics` route label, in exposition order. The last,
    /// `other`, collects unroutable requests and requests that failed
    /// HTTP parsing.
    pub const LABELS: [&'static str; 11] = [
        "healthz",
        "metrics",
        "sessions_list",
        "session_create",
        "explore",
        "select",
        "lint",
        "history",
        "close",
        "shutdown",
        "other",
    ];

    /// Resolves `method` on `path` (the path without its `?query`).
    /// Allocation-free: this runs once per request, including the
    /// `/healthz` fast path.
    pub fn parse(method: &str, path: &'a str) -> Self {
        let mut parts = path.split('/').filter(|s| !s.is_empty());
        let segments = (parts.next(), parts.next(), parts.next(), parts.next());
        match (method, segments) {
            ("GET", (Some("healthz"), None, _, _)) => Route::Healthz,
            ("GET", (Some("metrics"), None, _, _)) => Route::Metrics,
            ("GET", (Some("sessions"), None, _, _)) => Route::SessionsList,
            ("POST", (Some("sessions"), None, _, _)) => Route::SessionCreate,
            ("POST", (Some("sessions"), Some(id), Some("explore"), None)) => Route::Explore(id),
            ("POST", (Some("sessions"), Some(id), Some("select"), None)) => Route::Select(id),
            ("POST", (Some("sessions"), Some(id), Some("lint"), None)) => Route::Lint(id),
            ("GET", (Some("sessions"), Some(id), Some("history"), None)) => Route::History(id),
            ("DELETE", (Some("sessions"), Some(id), None, _)) => Route::Close(id),
            ("POST", (Some("shutdown"), None, _, _)) => Route::Shutdown,
            (_, (Some("shutdown"), None, _, _)) => Route::ShutdownNotAllowed,
            (_, (Some("healthz" | "metrics" | "sessions"), None, _, _))
            | (_, (Some("sessions"), Some(_), None, _))
            | (
                _,
                (Some("sessions"), Some(_), Some("explore" | "select" | "lint" | "history"), None),
            ) => Route::NotAllowed,
            _ => Route::NotFound,
        }
    }

    /// This route's index into [`LABELS`](Self::LABELS).
    pub fn label_index(&self) -> usize {
        match self {
            Route::Healthz => 0,
            Route::Metrics => 1,
            Route::SessionsList => 2,
            Route::SessionCreate => 3,
            Route::Explore(_) => 4,
            Route::Select(_) => 5,
            Route::Lint(_) => 6,
            Route::History(_) => 7,
            Route::Close(_) => 8,
            Route::Shutdown => 9,
            Route::ShutdownNotAllowed | Route::NotAllowed | Route::NotFound => 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_resolve_to_their_routes() {
        for (method, path, want) in [
            ("POST", "/sessions/12/explore", Route::Explore("12")),
            ("POST", "/sessions/x/select", Route::Select("x")),
            ("DELETE", "/sessions/12", Route::Close("12")),
            ("GET", "//sessions/7/history/", Route::History("7")),
            ("POST", "/shutdown", Route::Shutdown),
            ("GET", "/shutdown", Route::ShutdownNotAllowed),
            ("PATCH", "/sessions", Route::NotAllowed),
            ("GET", "/sessions/12", Route::NotAllowed),
            ("GET", "/sessions/12/lint", Route::NotAllowed),
            ("POST", "/sessions/12/explore/again", Route::NotFound),
            ("GET", "/shutdown/now", Route::NotFound),
            ("GET", "/", Route::NotFound),
            ("", "", Route::NotFound),
        ] {
            assert_eq!(Route::parse(method, path), want, "{method} {path}");
        }
    }
}
