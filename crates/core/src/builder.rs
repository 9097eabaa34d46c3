//! The goal-driven facade entry point: [`Poiesis::session`] and the
//! validating [`SessionBuilder`].
//!
//! The paper's architecture (Fig. 3) hands the Planner an initial flow and
//! "user-defined configurations"; our public API used to demand callers
//! hand-assemble `Planner::new(flow, catalog, registry, config)` and then
//! wrap it in a `Session`. The builder collapses that dance into one
//! validated, discoverable chain:
//!
//! ```
//! use poiesis::{Beam, Objective, Poiesis};
//! use datagen::{fig2, DirtProfile};
//! use quality::Characteristic;
//!
//! let (flow, _) = fig2::purchases_flow();
//! let catalog = fig2::purchases_catalog(150, &DirtProfile::demo(), 42);
//! let mut session = Poiesis::session()
//!     .flow(flow)
//!     .catalog(catalog)
//!     .objective(
//!         Objective::new()
//!             .weighted(Characteristic::Performance, 2.0)
//!             .maximize(Characteristic::DataQuality)
//!             .maximize(Characteristic::Reliability),
//!     )
//!     .strategy(Beam { width: 8 })
//!     .build()
//!     .unwrap();
//! let outcome = session.explore().unwrap();
//! assert!(!outcome.skyline.is_empty());
//! ```
//!
//! `build` rejects unusable inputs up front ([`PoiesisError::MissingFlow`],
//! [`PoiesisError::MissingCatalog`], [`PoiesisError::EmptyCatalog`],
//! [`PoiesisError::InvalidObjective`], [`PoiesisError::InvalidFlow`])
//! instead of letting them surface mid-cycle. The pattern registry is
//! optional: when omitted, the standard palette for the catalog is used.

use crate::error::PoiesisError;
use crate::eval::EvalMode;
use crate::objective::Objective;
use crate::planner::{Planner, PlannerConfig};
use crate::search::SearchStrategyKind;
use crate::session::Session;
use datagen::Catalog;
use etl_model::EtlFlow;
use fcp::{DeploymentPolicy, PatternRegistry};

/// The facade namespace: `Poiesis::session()` starts a builder chain.
pub struct Poiesis;

impl Poiesis {
    /// Starts building an iterative redesign session — the documented
    /// entry point of the crate.
    pub fn session() -> SessionBuilder {
        SessionBuilder::new()
    }
}

/// Validating builder for [`Session`]s (and the [`Planner`]s inside them).
#[derive(Clone, Default)]
pub struct SessionBuilder {
    flow: Option<EtlFlow>,
    catalog: Option<Catalog>,
    registry: Option<PatternRegistry>,
    config: PlannerConfig,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // PatternRegistry holds trait objects; show what is set, not bodies
        f.debug_struct("SessionBuilder")
            .field("flow", &self.flow.as_ref().map(|fl| &fl.name))
            .field("catalog_tables", &self.catalog.as_ref().map(Catalog::len))
            .field("registry", &self.registry.is_some())
            .field("config", &self.config)
            .finish()
    }
}

impl SessionBuilder {
    /// An empty builder with the default configuration.
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// The initial ETL flow to redesign (required).
    pub fn flow(mut self, flow: EtlFlow) -> Self {
        self.flow = Some(flow);
        self
    }

    /// The source catalog the flow reads from (required, non-empty).
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// The pattern palette (optional; defaults to
    /// [`PatternRegistry::standard_for_catalog`]).
    pub fn registry(mut self, registry: PatternRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The quality objective: goal axes, ranking weights/directions and
    /// hard constraints.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.config.objective = objective;
        self
    }

    /// The deployment policy (pattern selection, combination depth, caps).
    pub fn policy(mut self, policy: DeploymentPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// How the combination space is walked. Accepts any built-in strategy
    /// value (`Exhaustive`, `Beam { width }`, `GreedyHillClimb`) or a
    /// [`SearchStrategyKind`] directly.
    pub fn strategy(mut self, strategy: impl Into<SearchStrategyKind>) -> Self {
        self.config.strategy = strategy.into();
        self
    }

    /// Estimation vs. full simulation.
    pub fn eval_mode(mut self, mode: EvalMode) -> Self {
        self.config.eval_mode = mode;
        self
    }

    /// Worker threads for concurrent evaluation.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Hard cap on enumerated alternatives per cycle.
    pub fn budget(mut self, max_alternatives: usize) -> Self {
        self.config.max_alternatives = max_alternatives;
        self
    }

    /// Whether dominated alternatives are retained (`false` = O(frontier)
    /// memory).
    pub fn retain_dominated(mut self, retain: bool) -> Self {
        self.config.retain_dominated = retain;
        self
    }

    /// The configuration accumulated so far (what
    /// [`build_planner`](Self::build_planner) will hand the planner).
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Validates the inputs and builds the planner behind the session.
    ///
    /// The base flow is gated by the full static analyzer: any
    /// error-severity diagnostic rejects the build with
    /// [`PoiesisError::Analysis`] carrying *every* finding (including
    /// warnings), so a client sees the whole lint report at once instead
    /// of fixing one problem per round trip.
    pub fn build_planner(self) -> Result<Planner, PoiesisError> {
        let flow = self.flow.ok_or(PoiesisError::MissingFlow)?;
        let diags = analysis::analyze(&flow);
        if analysis::has_errors(&diags) {
            return Err(PoiesisError::Analysis(diags));
        }
        let catalog = self.catalog.ok_or(PoiesisError::MissingCatalog)?;
        if catalog.is_empty() {
            return Err(PoiesisError::EmptyCatalog);
        }
        self.config.objective.validate()?;
        let registry = self
            .registry
            .unwrap_or_else(|| PatternRegistry::standard_for_catalog(&catalog));
        Ok(Planner::from_parts(flow, catalog, registry, self.config))
    }

    /// Validates the inputs and builds the session.
    pub fn build(self) -> Result<Session, PoiesisError> {
        Ok(Session::new(self.build_planner()?))
    }
}

impl From<crate::search::Exhaustive> for SearchStrategyKind {
    fn from(_: crate::search::Exhaustive) -> Self {
        SearchStrategyKind::Exhaustive
    }
}

impl From<crate::search::Beam> for SearchStrategyKind {
    fn from(b: crate::search::Beam) -> Self {
        SearchStrategyKind::Beam { width: b.width }
    }
}

impl From<crate::search::GreedyHillClimb> for SearchStrategyKind {
    fn from(_: crate::search::GreedyHillClimb) -> Self {
        SearchStrategyKind::GreedyHillClimb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use quality::Characteristic;

    fn flow_and_catalog() -> (EtlFlow, Catalog) {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(120, &DirtProfile::demo(), 5);
        (f, cat)
    }

    #[test]
    fn builder_constructs_a_working_session() {
        let (f, cat) = flow_and_catalog();
        let mut s = Poiesis::session()
            .flow(f)
            .catalog(cat)
            .strategy(crate::search::Beam { width: 8 })
            .budget(500)
            .build()
            .unwrap();
        let outcome = s.explore().unwrap();
        assert!(!outcome.skyline.is_empty());
        assert!(s.select(&outcome, 0).is_some());
    }

    #[test]
    fn missing_flow_is_rejected() {
        let (_, cat) = flow_and_catalog();
        let err = Poiesis::session().catalog(cat).build().unwrap_err();
        assert_eq!(err, PoiesisError::MissingFlow);
    }

    #[test]
    fn missing_and_empty_catalogs_are_rejected() {
        let (f, _) = flow_and_catalog();
        let err = Poiesis::session().flow(f.clone()).build().unwrap_err();
        assert_eq!(err, PoiesisError::MissingCatalog);
        let err = Poiesis::session()
            .flow(f)
            .catalog(Catalog::new())
            .build()
            .unwrap_err();
        assert_eq!(err, PoiesisError::EmptyCatalog);
    }

    #[test]
    fn invalid_objectives_are_rejected() {
        let (f, cat) = flow_and_catalog();
        let err = Poiesis::session()
            .flow(f)
            .catalog(cat)
            .objective(Objective::new().weighted(Characteristic::Performance, 0.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, PoiesisError::InvalidObjective(_)), "{err}");
    }

    #[test]
    fn invalid_flows_fail_at_build_time() {
        let (_, cat) = flow_and_catalog();
        // a flow with no operations is rejected by the static analyzer
        let err = Poiesis::session()
            .flow(EtlFlow::new("empty"))
            .catalog(cat)
            .build()
            .unwrap_err();
        match &err {
            PoiesisError::Analysis(diags) => {
                assert!(diags.iter().any(|d| d.code == analysis::codes::EMPTY_FLOW));
            }
            other => panic!("expected Analysis, got {other:?}"),
        }
        assert_eq!(err.code(), "analysis");
    }

    #[test]
    fn legacy_planner_new_still_works() {
        let (f, cat) = flow_and_catalog();
        let reg = PatternRegistry::standard_for_catalog(&cat);
        let p = Planner::new(f, cat, reg, PlannerConfig::default());
        assert!(p.plan().is_ok());
    }
}
