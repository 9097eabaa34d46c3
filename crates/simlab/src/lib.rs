//! `simlab` — a deterministic, seed-driven fault-injection lab for the
//! POIESIS planning service.
//!
//! The lab runs the *unmodified* production stack — `poiesis-server`'s
//! HTTP server, client, and snapshot persistence over the real
//! `poiesis::SessionManager` — and injects failure at its boundaries:
//!
//! - **wire faults** (drop, virtual delay, truncate-mid-body, stall,
//!   synthetic `503` sheds) through a proxying transport
//!   ([`proxy::FaultProxy`]) between the client and the server;
//! - **process faults** (scripted kill/restart against the
//!   `--state-dir`, torn snapshot writes injected into the
//!   temp+rename path via the store's test-only
//!   [`TornWriteHook`](poiesis_server::TornWriteHook)).
//!
//! Everything injected is decided by expanding a `u64` seed through the
//! vendored `rand` ([`plan::FaultPlan`]), and every wait runs on virtual
//! time ([`clock::SimClock`]), so a run is **reproducible**: the same
//! seed yields a byte-identical fault schedule and an identical outcome
//! digest. A failure prints the seed, the decoded schedule, and the
//! replay command:
//!
//! ```text
//! cargo test -p simlab --test lab -- --seed 42
//! ```
//!
//! The invariants the runner ([`lab::run_seed`]) enforces, and how to
//! add a fault kind, are documented in `docs/TESTING.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod lab;
pub mod plan;
pub mod proxy;

pub use clock::SimClock;
pub use lab::{run_seed, LabConfig, LabFailure, LabReport};
pub use plan::{FaultPlan, ProcessFault, WireFault};
pub use proxy::FaultProxy;
