//! `poiesis-server` — POIESIS as a service: a dependency-free HTTP/1.1
//! JSON transport over the planning engine.
//!
//! The paper demonstrates quality-goal-driven ETL redesign as an
//! *interactive tool*; the ROADMAP's north star is the same capability
//! serving heavy traffic. The facade layer already did the hard part —
//! [`poiesis::SessionManager`] owns many concurrent sessions behind
//! opaque handles and speaks serializable `PlanRequest`/`PlanResponse`
//! DTOs — so this crate is deliberately *thin*: a hand-rolled, bounded
//! HTTP implementation ([`http`]), one route table ([`route`]), a pure
//! routing layer ([`service`]) mapping REST-ish endpoints onto
//! `create`/`explore`/`select`/`history`/`close`, a thread-pool accept
//! loop with a bounded queue, `503` load shedding and graceful shutdown
//! ([`server`]), an atomic-counter metrics registry behind `GET /metrics`
//! ([`metrics`]), durable session snapshots behind `--state-dir`
//! ([`persist`]), and a std-only client ([`client`]) that tests and tools
//! drive real sockets with. No external dependencies, consistent with the
//! workspace's vendored-deps policy. Operational behaviour — the metric
//! catalogue, shedding semantics, recovery guarantees, capacity planning —
//! is documented in `docs/OPERATIONS.md`.
//!
//! The wire contract — endpoints, JSON schemas, error codes and status
//! mapping — is documented in `docs/API.md` and pinned by the integration
//! tests in `tests/integration.rs`.
//!
//! # Endpoints
//!
//! | Method & path | Maps to |
//! |---|---|
//! | `GET /healthz` | liveness + live-session count |
//! | `GET /metrics` | Prometheus-text [`Metrics`] scrape |
//! | `GET /sessions` | `SessionManager::ids` |
//! | `POST /sessions` | `SessionManager::create_from_request` |
//! | `POST /sessions/{id}/explore` | `SessionManager::explore` |
//! | `POST /sessions/{id}/select` | `SessionManager::select` |
//! | `POST /sessions/{id}/lint` | `SessionManager::lint` |
//! | `GET /sessions/{id}/history` | `SessionManager::history` |
//! | `DELETE /sessions/{id}` | `SessionManager::close` |
//! | `POST /shutdown` | graceful stop of the whole server |
//!
//! # In-process quickstart
//!
//! ```
//! use poiesis_server::{Client, PlanningService, Server, ServerConfig, SessionTemplate};
//!
//! let service = PlanningService::new(SessionTemplate::demo(80));
//! let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
//! let (addr, handle, join) = server.spawn().unwrap();
//!
//! let mut client = Client::connect(addr).unwrap();
//! let id = client.create(None).unwrap();
//! let frontier = client.explore(id).unwrap();
//! assert!(!frontier.skyline.is_empty());
//! client.select(id, 0).unwrap();
//! client.close(id).unwrap();
//!
//! handle.shutdown();
//! join.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod clock;
pub mod http;
pub mod metrics;
pub mod persist;
pub mod route;
pub mod server;
pub mod service;
pub mod template;

pub use client::{Client, ClientError, HttpResponse, RetryPolicy};
pub use clock::{Clock, SystemClock};
pub use http::{HttpError, Limits, Request, Response};
pub use metrics::Metrics;
pub use persist::{LoadedState, StateStore, TornWrite, TornWriteHook};
pub use route::Route;
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use service::{status_for, PlanningService};
pub use template::SessionTemplate;
