//! `poiesis` — **P**rocess **O**ptimization and **I**mprovement for **E**TL
//! **S**ystems and **I**ntegration **S**ervices.
//!
//! The paper's primary contribution: the *Planner* component of a
//! user-centred declarative ETL redesign architecture (Fig. 3). Given an
//! initial ETL flow and user-defined configurations, the Planner
//!
//! 1. **generates** Flow Component Patterns specific to the flow
//!    ([`generate`]): every FCP in the palette is checked against every
//!    potential application point — node, edge or whole graph;
//! 2. **applies** them in varying positions and combinations
//!    ([`explore`], [`apply`]), producing up to thousands of alternative
//!    ETL designs while keeping the data source schemata constant — the
//!    space is walked *lazily* by a pluggable [`search`] strategy
//!    (exhaustive, beam, greedy hill-climb), never materialised;
//! 3. **estimates measures** for various quality attributes for each
//!    alternative ([`eval`]) — analytically by default, by full simulation
//!    on demand — workers pull combinations from a shared cursor and
//!    evaluate them in place (the paper launches EC2 nodes; we use a
//!    thread pool);
//! 4. presents only the **Pareto frontier (skyline)** of the alternatives
//!    over the examined quality dimensions ([`skyline`]), maintained
//!    *incrementally during* evaluation by a [`SkylineSet`] so dominated
//!    designs can be dropped the moment they die, with per-flow
//!    relative-change reports against the initial flow (Fig. 5);
//! 5. runs **iteratively** ([`session`]): the user picks a point on the
//!    scatter-plot, the corresponding patterns are integrated into the
//!    process, and a new cycle commences.
//!
//! # Quickstart
//!
//! The documented entry point is the goal-driven facade:
//! [`Poiesis::session`] returns a validating [`SessionBuilder`], the
//! [`Objective`] states the user's quality goals, and the resulting
//! [`Session`] runs the iterative explore → select loop.
//!
//! ```
//! use poiesis::{Beam, Objective, Poiesis};
//! use datagen::{fig2, DirtProfile};
//! use quality::{Characteristic, MeasureId};
//!
//! let (flow, _) = fig2::purchases_flow();
//! let catalog = fig2::purchases_catalog(200, &DirtProfile::demo(), 42);
//! let mut session = Poiesis::session()
//!     .flow(flow)
//!     .catalog(catalog)
//!     .objective(
//!         Objective::balanced()
//!             .constrain(MeasureId::AvgLatencyMs, 1.5), // latency ≤ 1.5× baseline
//!     )
//!     .strategy(Beam { width: 8 })
//!     .build()
//!     .unwrap();
//! let outcome = session.explore().unwrap();
//! assert!(!outcome.skyline.is_empty());
//! for alt in outcome.skyline_alternatives().take(3) {
//!     println!("{}: {:?}", alt.name, alt.scores);
//! }
//! session.select(&outcome, 0).unwrap(); // integrate the best design
//! ```
//!
//! Many concurrent sessions live behind a thread-safe [`SessionManager`]
//! (opaque [`SessionId`] handles, serializable [`api`] DTOs) — the unit
//! the `poiesis-server` crate exposes over HTTP (see `docs/API.md` for
//! the wire contract). The legacy `Planner::new(flow, catalog, registry,
//! config)` constructor keeps working: it builds the planner directly,
//! without the builder's up-front validation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod apply;
pub mod baseline;
mod builder;
mod error;
pub mod eval;
pub mod explore;
pub mod generate;
pub mod manager;
pub mod objective;
mod planner;
pub mod search;
pub mod session;
pub mod skyline;

pub use api::{
    AlternativeSummary, ConstraintSpec, DiagnosticSpec, GoalSpec, LintReport, ManagerSnapshot,
    ObjectiveSpec, PlanRequest, PlanResponse, SessionSnapshot,
};
pub use builder::{Poiesis, SessionBuilder};
pub use error::PoiesisError;
pub use eval::{Alternative, EvalMode};
pub use explore::CombinationIter;
pub use generate::Candidate;
pub use manager::{SessionId, SessionManager};
pub use objective::{Direction, Goal, Objective};
pub use planner::{Planner, PlannerConfig, PlannerOutcome};
pub use search::{
    Beam, CombinationSink, Exhaustive, GreedyHillClimb, SearchReport, SearchSpace, SearchStrategy,
    SearchStrategyKind,
};
pub use serde::{FromJson, ToJson};
pub use session::{IterationRecord, Session};
pub use skyline::{pareto_skyline_bnl, Insertion, SkylineSet};
