//! `fcp` — Flow Component Patterns: the paper's §2.2 mechanism.
//!
//! An FCP is a "predefined construct that improves certain quality
//! characteristics, but does not alter [the flow's] main functionality". Its
//! internal representation is *itself an ETL flow* deployed at a valid
//! **application point** — a node, an edge, or the entire graph
//! (`P = P_E ∪ P_V ∪ P_G`). Whether a point is valid is decided by a
//! conjunctive set of **applicability prerequisites** (e.g. "numeric fields
//! in the output schema of the preceding operator"); among valid points,
//! **heuristics** rank fitness (e.g. "checkpoints after the most complex
//! operations", "cleaning as close as possible to the sources").
//!
//! The crate provides:
//!
//! * the [`Pattern`] trait and [`ApplicationPoint`] / [`PatternContext`]
//!   machinery;
//! * the paper's Fig. 6 palette as built-ins: [`builtin::RemoveDuplicateEntries`],
//!   [`builtin::FilterNullValues`], [`builtin::CrosscheckSources`]
//!   (data quality), [`builtin::ParallelizeTask`] (performance),
//!   [`builtin::AddCheckpoint`] (reliability);
//! * the graph-level configuration patterns §2.2 sketches:
//!   [`builtin::EncryptChannels`], [`builtin::EnableAccessControl`]
//!   (security), [`builtin::UpgradeResources`] (performance),
//!   [`builtin::IncreaseRecurrence`] (data freshness);
//! * [`CustomPattern`] — user-defined patterns assembled from prerequisites
//!   plus an operation template (the P3 part of the demo walkthrough);
//! * [`PatternRegistry`] — the palette, extendable at run time;
//! * [`DeploymentPolicy`] — which patterns are enabled and how aggressively
//!   they are deployed.
//!
//! # Writing a pattern
//!
//! Implement [`Pattern::apply_unchecked`]: it is the one statement of the
//! pattern's edit, configured from the schema at the application point
//! ([`point_schema_in`] reads it from the schema table it is given) and run
//! by the planner without re-checking applicability. Do not override
//! [`Pattern::apply`]; it is the checked wrapper — it builds a
//! [`PatternContext`], refuses with [`PatternError::NotApplicable`] where
//! [`Pattern::applicable`] fails, and otherwise calls `apply_unchecked` with
//! the context's schema table. Extra conjunctive conditions belong in
//! `applicable`, so both paths honour them.
//!
//! # Example
//!
//! ```
//! use datagen::fig2::{purchases_catalog, purchases_flow};
//! use datagen::DirtProfile;
//! use fcp::PatternRegistry;
//!
//! let catalog = purchases_catalog(60, &DirtProfile::demo(), 1);
//! let registry = PatternRegistry::standard_for_catalog(&catalog);
//! assert!(registry.len() >= 5); // the Fig. 6 palette and the graph patterns
//! for pattern in registry.iter() {
//!     println!("{} improves {:?}", pattern.name(), pattern.improves());
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builtin;
pub mod custom;
mod pattern;
mod point;
mod policy;
mod prereq;
mod registry;

pub use custom::CustomPattern;
pub use pattern::{point_schema_in, AppliedPattern, Pattern, PatternContext, PatternError};
pub use point::ApplicationPoint;
pub use policy::{DeploymentPolicy, MeasureConstraint};
pub use prereq::Prerequisite;
pub use registry::PatternRegistry;
