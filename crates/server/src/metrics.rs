//! Lock-free service metrics, exposed as `GET /metrics` in Prometheus
//! text format.
//!
//! Every counter is a plain `AtomicU64` bumped on the request path — no
//! locks, no allocation — so observability costs nanoseconds per request.
//! Requests are counted per *route* (the endpoint shape, e.g. `explore`)
//! and *status* (the exact code served); planning-cycle wall times feed a
//! fixed-bucket histogram; the accept loop reports connections and load
//! shedding; the persistence layer reports state writes and their times. Gauges that
//! mirror live state (session count, uptime) are sampled at scrape time
//! rather than maintained incrementally.
//!
//! The full metric catalogue, with example scrape output, lives in
//! `docs/OPERATIONS.md`; the names and label sets there are a contract,
//! pinned by the integration tests.

use crate::http::STATUS_REASONS;
use crate::route::Route;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Status slots: one per code in [`STATUS_REASONS`], plus a final slot
/// that collects anything unexpected so a count is never silently dropped.
const STATUS_SLOTS: usize = STATUS_REASONS.len() + 1;

/// Upper bounds (seconds) of the planning-cycle and state-write latency
/// histograms; an implicit `+Inf` bucket follows. Spans sub-5 ms demo
/// cycles up to multi-second simulation-mode cycles.
const CYCLE_BUCKETS: [f64; 11] = [
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Maps a status code to its slot (index into [`STATUS_REASONS`], or the
/// final catch-all slot).
fn status_index(status: u16) -> usize {
    STATUS_REASONS
        .iter()
        .position(|&(code, _)| code == status)
        .unwrap_or(STATUS_SLOTS - 1)
}

/// A fixed-bucket latency histogram (Prometheus `histogram` semantics:
/// cumulative buckets plus `_sum` and `_count`).
#[derive(Default)]
struct Histogram {
    /// Per-bucket observation counts, *non*-cumulative in storage (made
    /// cumulative at render time); the last slot is `+Inf`.
    buckets: [AtomicU64; CYCLE_BUCKETS.len() + 1],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, duration: Duration) {
        let secs = duration.as_secs_f64();
        let slot = CYCLE_BUCKETS
            .iter()
            .position(|&le| secs <= le)
            .unwrap_or(CYCLE_BUCKETS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add(duration.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn render(&self, out: &mut String, name: &str, help: &str) {
        family(out, name, "histogram", help);
        let mut cumulative = 0u64;
        for (i, le) in CYCLE_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        cumulative += self.buckets[CYCLE_BUCKETS.len()].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        let sum = self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!(
            "{name}_count {}\n",
            self.count.load(Ordering::Relaxed)
        ));
    }
}

/// The atomic-counter metrics registry one server (and its
/// [`PlanningService`](crate::PlanningService)) shares.
///
/// ```
/// use poiesis_server::{Metrics, Route};
/// use std::time::Duration;
///
/// let metrics = Metrics::new();
/// metrics.record_request(Route::parse("GET", "/healthz"), 200);
/// metrics.record_request(Route::parse("POST", "/sessions/3/explore"), 200);
/// metrics.observe_cycle(Duration::from_millis(12));
///
/// let text = metrics.render(1);
/// assert!(text.contains("poiesis_http_requests_total{route=\"healthz\",status=\"200\"} 1"));
/// assert!(text.contains("poiesis_http_requests_total{route=\"explore\",status=\"200\"} 1"));
/// assert!(text.contains("poiesis_cycle_duration_seconds_count 1"));
/// assert!(text.contains("poiesis_sessions_live 1"));
/// ```
pub struct Metrics {
    started: Instant,
    requests: [[AtomicU64; STATUS_SLOTS]; Route::LABELS.len()],
    in_flight: AtomicU64,
    connections: AtomicU64,
    shed: AtomicU64,
    cycle: Histogram,
    snapshot_write: Histogram,
    snapshot_writes: AtomicU64,
    snapshot_errors: AtomicU64,
    snapshot_quarantines: AtomicU64,
    static_rejections: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            requests: Default::default(),
            in_flight: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cycle: Histogram::default(),
            snapshot_write: Histogram::default(),
            snapshot_writes: AtomicU64::new(0),
            snapshot_errors: AtomicU64::new(0),
            snapshot_quarantines: AtomicU64::new(0),
            static_rejections: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// A zeroed registry whose uptime clock starts now.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one served request under its route's label and its status.
    pub fn record_request(&self, route: Route<'_>, status: u16) {
        self.requests[route.label_index()][status_index(status)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection shed with `503` because workers and the
    /// accept queue were both full.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Feeds one planning-cycle wall time into the latency histogram.
    pub fn observe_cycle(&self, duration: Duration) {
        self.cycle.observe(duration);
    }

    /// Counts one mutation's durable state write (a create, select or
    /// close) and feeds its time into the write histogram; `ok = false`
    /// counts an error instead (the write failed and durable state is
    /// stale).
    pub fn record_snapshot_write(&self, ok: bool, took: Duration) {
        self.snapshot_write.observe(took);
        if ok {
            self.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.snapshot_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one session file rejected at startup (parse, consistency
    /// or restore failure) and moved aside as `<id>.json.corrupt`.
    pub fn record_snapshot_quarantine(&self) {
        self.snapshot_quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts combinations pruned by the planner's static screen during
    /// one explore cycle.
    pub fn record_static_rejections(&self, n: usize) {
        if n > 0 {
            self.static_rejections
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Marks a request in flight until the guard drops.
    pub fn in_flight_guard(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { metrics: self }
    }

    /// Renders the whole registry in Prometheus text exposition format.
    /// `live_sessions` is sampled by the caller at scrape time (the
    /// registry does not own the session manager).
    pub fn render(&self, live_sessions: usize) -> String {
        let mut out = String::with_capacity(2048);
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let name = "poiesis_http_requests_total";
        family(
            &mut out,
            name,
            "counter",
            "Requests served, by route and status.",
        );
        for (r, route) in Route::LABELS.iter().enumerate() {
            for s in 0..STATUS_SLOTS {
                let n = self.requests[r][s].load(Ordering::Relaxed);
                if n == 0 {
                    continue;
                }
                let status = STATUS_REASONS
                    .get(s)
                    .map_or("other".to_string(), |(code, _)| code.to_string());
                out.push_str(&format!(
                    "{name}{{route=\"{route}\",status=\"{status}\"}} {n}\n"
                ));
            }
        }
        scalar(
            &mut out,
            "poiesis_http_requests_in_flight",
            "Requests currently being handled.",
            load(&self.in_flight),
        );
        scalar(
            &mut out,
            "poiesis_http_connections_total",
            "Connections accepted.",
            load(&self.connections),
        );
        scalar(
            &mut out,
            "poiesis_http_shed_total",
            "Connections refused with 503 under saturation.",
            load(&self.shed),
        );
        self.cycle.render(
            &mut out,
            "poiesis_cycle_duration_seconds",
            "Planning-cycle (explore) wall time.",
        );
        scalar(
            &mut out,
            "poiesis_sessions_live",
            "Sessions currently registered.",
            live_sessions,
        );
        scalar(
            &mut out,
            "poiesis_snapshot_writes_total",
            "Durable state writes, one per create, select or close.",
            load(&self.snapshot_writes),
        );
        self.snapshot_write.render(
            &mut out,
            "poiesis_snapshot_write_seconds",
            "Durable state write time per create, select or close.",
        );
        scalar(
            &mut out,
            "poiesis_snapshot_errors_total",
            "Snapshot writes that failed.",
            load(&self.snapshot_errors),
        );
        scalar(
            &mut out,
            "poiesis_snapshot_quarantined_total",
            "Session files rejected at startup and moved to <id>.json.corrupt.",
            load(&self.snapshot_quarantines),
        );
        scalar(
            &mut out,
            "poiesis_static_rejections_total",
            "Combinations whose applied flow failed the static screen before evaluation.",
            load(&self.static_rejections),
        );
        scalar(
            &mut out,
            "poiesis_uptime_seconds",
            "Seconds since the server started.",
            self.started.elapsed().as_secs(),
        );
        out
    }
}

/// Writes the `# HELP` and `# TYPE` lines that open metric family `name`.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Writes a family with one unlabelled sample. Counters are the families
/// named `*_total` (the Prometheus convention, kept by every family
/// here); the rest are gauges.
fn scalar(out: &mut String, name: &str, help: &str, value: impl fmt::Display) {
    let kind = if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    };
    family(out, name, kind, help);
    out.push_str(&format!("{name} {value}\n"));
}

/// Decrements the in-flight gauge when dropped — panic-safe bracketing of
/// one request.
pub struct InFlightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_classify_every_documented_endpoint() {
        for (method, path, want) in [
            ("GET", "/healthz", "healthz"),
            ("GET", "/metrics", "metrics"),
            ("GET", "/sessions", "sessions_list"),
            ("POST", "/sessions", "session_create"),
            ("POST", "/sessions/12/explore", "explore"),
            ("POST", "/sessions/12/select", "select"),
            ("POST", "/sessions/12/lint", "lint"),
            ("GET", "/sessions/12/history", "history"),
            ("DELETE", "/sessions/12", "close"),
            ("POST", "/shutdown", "shutdown"),
            ("GET", "/nope", "other"),
            ("PATCH", "/sessions", "other"),
        ] {
            let route = Route::parse(method, path);
            assert_eq!(Route::LABELS[route.label_index()], want, "{method} {path}");
        }
    }

    #[test]
    fn unexpected_statuses_collect_under_other() {
        let m = Metrics::new();
        m.record_request(Route::Healthz, 418);
        assert!(m
            .render(0)
            .contains("poiesis_http_requests_total{route=\"healthz\",status=\"other\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_count_everything() {
        let m = Metrics::new();
        m.observe_cycle(Duration::from_millis(3)); // ≤ 0.005
        m.observe_cycle(Duration::from_millis(30)); // ≤ 0.05
        m.observe_cycle(Duration::from_secs(60)); // +Inf only
        let text = m.render(0);
        assert!(text.contains("poiesis_cycle_duration_seconds_bucket{le=\"0.005\"} 1"));
        assert!(text.contains("poiesis_cycle_duration_seconds_bucket{le=\"0.05\"} 2"));
        assert!(text.contains("poiesis_cycle_duration_seconds_bucket{le=\"10\"} 2"));
        assert!(text.contains("poiesis_cycle_duration_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("poiesis_cycle_duration_seconds_count 3"));
    }

    #[test]
    fn snapshot_writes_are_counted_and_timed() {
        let m = Metrics::new();
        m.record_snapshot_write(true, Duration::from_micros(500)); // ≤ 0.005
        m.record_snapshot_write(false, Duration::from_millis(20)); // ≤ 0.025
        let text = m.render(0);
        assert!(text.contains("poiesis_snapshot_writes_total 1"));
        assert!(text.contains("poiesis_snapshot_errors_total 1"));
        assert!(text.contains("poiesis_snapshot_write_seconds_bucket{le=\"0.005\"} 1"));
        assert!(text.contains("poiesis_snapshot_write_seconds_bucket{le=\"0.025\"} 2"));
        assert!(text.contains("poiesis_snapshot_write_seconds_count 2"));
        assert!(text.contains(
            "# HELP poiesis_snapshot_quarantined_total Session files rejected at startup \
             and moved to <id>.json.corrupt."
        ));
    }

    #[test]
    fn in_flight_guard_is_balanced_even_across_drops() {
        let m = Metrics::new();
        {
            let _a = m.in_flight_guard();
            let _b = m.in_flight_guard();
            assert!(m.render(0).contains("poiesis_http_requests_in_flight 2"));
        }
        assert!(m.render(0).contains("poiesis_http_requests_in_flight 0"));
    }

    #[test]
    fn every_metric_family_renders_from_a_fresh_registry() {
        // the OPERATIONS.md catalogue promises these families always exist
        let text = Metrics::new().render(0);
        for family in [
            "poiesis_http_requests_in_flight",
            "poiesis_http_connections_total",
            "poiesis_http_shed_total",
            "poiesis_cycle_duration_seconds_count",
            "poiesis_sessions_live",
            "poiesis_snapshot_writes_total",
            "poiesis_snapshot_write_seconds_count",
            "poiesis_snapshot_errors_total",
            "poiesis_snapshot_quarantined_total",
            "poiesis_static_rejections_total",
            "poiesis_uptime_seconds",
        ] {
            assert!(text.contains(family), "missing {family}");
        }
    }

    #[test]
    fn static_rejections_accumulate() {
        let m = Metrics::new();
        m.record_static_rejections(0);
        assert!(m.render(0).contains("poiesis_static_rejections_total 0"));
        m.record_static_rejections(3);
        m.record_static_rejections(2);
        assert!(m.render(0).contains("poiesis_static_rejections_total 5"));
    }

    /// The full scrape of a fixed registry state, byte for byte, up to the
    /// uptime sample (the one value a test cannot fix).
    #[test]
    fn scrape_text_is_pinned() {
        let m = Metrics::new();
        m.record_request(Route::Healthz, 200);
        m.record_request(Route::parse("POST", "/sessions/3/explore"), 200);
        m.record_request(Route::parse("POST", "/sessions/3/explore"), 200);
        m.record_request(Route::parse("POST", "/sessions"), 503);
        m.record_request(Route::NotFound, 418);
        m.record_connection();
        m.record_connection();
        m.record_shed();
        m.observe_cycle(Duration::from_millis(3));
        m.observe_cycle(Duration::from_millis(120));
        m.record_snapshot_write(true, Duration::from_micros(1500));
        m.record_snapshot_write(false, Duration::from_millis(30));
        m.record_snapshot_quarantine();
        m.record_static_rejections(4);
        let _in_flight = m.in_flight_guard();
        let text = m.render(5);
        let (pinned, uptime) = text
            .rsplit_once("poiesis_uptime_seconds ")
            .expect("uptime sample");
        assert_eq!(pinned, SCRAPE);
        assert!(uptime.trim_end().parse::<u64>().is_ok(), "{uptime:?}");
        assert!(
            uptime.ends_with('\n') && uptime.lines().count() == 1,
            "{uptime:?}"
        );
    }

    const SCRAPE: &str = r#"# HELP poiesis_http_requests_total Requests served, by route and status.
# TYPE poiesis_http_requests_total counter
poiesis_http_requests_total{route="healthz",status="200"} 1
poiesis_http_requests_total{route="session_create",status="503"} 1
poiesis_http_requests_total{route="explore",status="200"} 2
poiesis_http_requests_total{route="other",status="other"} 1
# HELP poiesis_http_requests_in_flight Requests currently being handled.
# TYPE poiesis_http_requests_in_flight gauge
poiesis_http_requests_in_flight 1
# HELP poiesis_http_connections_total Connections accepted.
# TYPE poiesis_http_connections_total counter
poiesis_http_connections_total 2
# HELP poiesis_http_shed_total Connections refused with 503 under saturation.
# TYPE poiesis_http_shed_total counter
poiesis_http_shed_total 1
# HELP poiesis_cycle_duration_seconds Planning-cycle (explore) wall time.
# TYPE poiesis_cycle_duration_seconds histogram
poiesis_cycle_duration_seconds_bucket{le="0.005"} 1
poiesis_cycle_duration_seconds_bucket{le="0.01"} 1
poiesis_cycle_duration_seconds_bucket{le="0.025"} 1
poiesis_cycle_duration_seconds_bucket{le="0.05"} 1
poiesis_cycle_duration_seconds_bucket{le="0.1"} 1
poiesis_cycle_duration_seconds_bucket{le="0.25"} 2
poiesis_cycle_duration_seconds_bucket{le="0.5"} 2
poiesis_cycle_duration_seconds_bucket{le="1"} 2
poiesis_cycle_duration_seconds_bucket{le="2.5"} 2
poiesis_cycle_duration_seconds_bucket{le="5"} 2
poiesis_cycle_duration_seconds_bucket{le="10"} 2
poiesis_cycle_duration_seconds_bucket{le="+Inf"} 2
poiesis_cycle_duration_seconds_sum 0.123
poiesis_cycle_duration_seconds_count 2
# HELP poiesis_sessions_live Sessions currently registered.
# TYPE poiesis_sessions_live gauge
poiesis_sessions_live 5
# HELP poiesis_snapshot_writes_total Durable state writes, one per create, select or close.
# TYPE poiesis_snapshot_writes_total counter
poiesis_snapshot_writes_total 1
# HELP poiesis_snapshot_write_seconds Durable state write time per create, select or close.
# TYPE poiesis_snapshot_write_seconds histogram
poiesis_snapshot_write_seconds_bucket{le="0.005"} 1
poiesis_snapshot_write_seconds_bucket{le="0.01"} 1
poiesis_snapshot_write_seconds_bucket{le="0.025"} 1
poiesis_snapshot_write_seconds_bucket{le="0.05"} 2
poiesis_snapshot_write_seconds_bucket{le="0.1"} 2
poiesis_snapshot_write_seconds_bucket{le="0.25"} 2
poiesis_snapshot_write_seconds_bucket{le="0.5"} 2
poiesis_snapshot_write_seconds_bucket{le="1"} 2
poiesis_snapshot_write_seconds_bucket{le="2.5"} 2
poiesis_snapshot_write_seconds_bucket{le="5"} 2
poiesis_snapshot_write_seconds_bucket{le="10"} 2
poiesis_snapshot_write_seconds_bucket{le="+Inf"} 2
poiesis_snapshot_write_seconds_sum 0.0315
poiesis_snapshot_write_seconds_count 2
# HELP poiesis_snapshot_errors_total Snapshot writes that failed.
# TYPE poiesis_snapshot_errors_total counter
poiesis_snapshot_errors_total 1
# HELP poiesis_snapshot_quarantined_total Session files rejected at startup and moved to <id>.json.corrupt.
# TYPE poiesis_snapshot_quarantined_total counter
poiesis_snapshot_quarantined_total 1
# HELP poiesis_static_rejections_total Combinations whose applied flow failed the static screen before evaluation.
# TYPE poiesis_static_rejections_total counter
poiesis_static_rejections_total 4
# HELP poiesis_uptime_seconds Seconds since the server started.
# TYPE poiesis_uptime_seconds gauge
"#;
}
