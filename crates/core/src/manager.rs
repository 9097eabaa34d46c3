//! Handle-based, thread-safe session management — the unit a future
//! network service will wrap.
//!
//! The ROADMAP's north star is a system "serving heavy traffic from
//! millions of users"; the paper's GUI holds exactly one iterative session.
//! A [`SessionManager`] bridges the two: it owns many concurrent
//! [`Session`]s behind opaque [`SessionId`] handles and exposes the whole
//! iterative loop (`create` → `explore` → `select` → `history` → `close`)
//! over serializable DTOs. Internally the registry is a read-write-locked
//! handle map of individually mutex-guarded slots, so sessions on
//! *distinct* handles explore and select fully in parallel — the registry
//! lock is only held for the microseconds of handle lookup, never across a
//! planning cycle.

use crate::api::{LintReport, ManagerSnapshot, PlanRequest, PlanResponse, SessionSnapshot};
use crate::builder::SessionBuilder;
use crate::error::PoiesisError;
use crate::planner::PlannerOutcome;
use crate::session::{IterationRecord, Session};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Opaque handle to a managed session. Serializable via
/// [`raw`](Self::raw) / [`from_raw`](Self::from_raw) for wire use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The wire representation of the handle.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from its wire representation. The handle is only
    /// meaningful to the manager that issued it; unknown handles surface
    /// as [`PoiesisError::UnknownSession`].
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One managed session plus the outcome of its latest exploration (kept so
/// a subsequent `select` can integrate a frontier design by rank).
struct Slot {
    session: Session,
    last_outcome: Option<PlannerOutcome>,
}

/// The durable form of one locked slot.
fn snapshot_slot(id: u64, slot: &Slot) -> SessionSnapshot {
    SessionSnapshot {
        id,
        base_name: slot.session.base_name().to_string(),
        flow_xlm: xlm::write_flow(slot.session.current_flow()),
        request: PlanRequest::from_config(slot.session.planner().config()),
        history: slot.session.history().to_vec(),
    }
}

/// Thread-safe owner of many concurrent redesign sessions.
///
/// ```
/// use poiesis::{Poiesis, SessionManager};
/// use datagen::fig2::{purchases_catalog, purchases_flow};
/// use datagen::DirtProfile;
///
/// let manager = SessionManager::new();
/// let (flow, _) = purchases_flow();
/// let catalog = purchases_catalog(80, &DirtProfile::demo(), 5);
/// let id = manager
///     .create(Poiesis::session().flow(flow).catalog(catalog).budget(200))
///     .unwrap();
///
/// let frontier = manager.explore(id).unwrap();   // one planning cycle
/// assert!(!frontier.skyline.is_empty());
/// let record = manager.select(id, 0).unwrap();   // integrate rank 0
/// assert_eq!(record.cycle, 1);
/// assert_eq!(manager.history(id).unwrap().len(), 1);
/// manager.close(id).unwrap();
/// ```
#[derive(Default)]
pub struct SessionManager {
    slots: RwLock<HashMap<u64, Arc<Mutex<Slot>>>>,
    next_id: AtomicU64,
}

impl SessionManager {
    /// An empty manager.
    pub fn new() -> Self {
        SessionManager::default()
    }

    /// An empty manager that issues handles from `next_id` on: how a
    /// restarted service resumes above every handle it issued before.
    pub fn with_next_handle(next_id: u64) -> Self {
        SessionManager {
            slots: RwLock::default(),
            next_id: AtomicU64::new(next_id),
        }
    }

    /// Validates `builder` and registers the resulting session, returning
    /// its handle.
    pub fn create(&self, builder: SessionBuilder) -> Result<SessionId, PoiesisError> {
        let session = builder.build()?;
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let slot = Arc::new(Mutex::new(Slot {
            session,
            last_outcome: None,
        }));
        self.slots
            .write()
            .expect("session registry")
            .insert(id.raw(), slot);
        Ok(id)
    }

    /// Convenience: applies a wire [`PlanRequest`] on top of `builder`
    /// (which supplies flow/catalog) and registers the session.
    pub fn create_from_request(
        &self,
        builder: SessionBuilder,
        request: &PlanRequest,
    ) -> Result<SessionId, PoiesisError> {
        self.create(request.apply(builder)?)
    }

    /// Handles of all live sessions, ascending.
    pub fn ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .slots
            .read()
            .expect("session registry")
            .keys()
            .map(|&k| SessionId(k))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.slots.read().expect("session registry").len()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs one planning cycle on the session, keeps the outcome for a
    /// later `select`, and returns the frontier as a wire DTO.
    pub fn explore(&self, id: SessionId) -> Result<PlanResponse, PoiesisError> {
        let slot = self.slot(id)?;
        let mut slot = slot.lock().expect("session slot");
        let outcome = slot.session.explore()?;
        let response =
            PlanResponse::from_outcome(&outcome, slot.session.objective(), Some(id.raw()));
        slot.last_outcome = Some(outcome);
        Ok(response)
    }

    /// Integrates the frontier design at `rank` (0 = best objective) of
    /// the session's latest exploration, ending the cycle.
    pub fn select(&self, id: SessionId, rank: usize) -> Result<IterationRecord, PoiesisError> {
        let slot = self.slot(id)?;
        let mut slot = slot.lock().expect("session slot");
        // take() — the outcome describes the pre-selection flow, so it is
        // consumed by the selection: a fresh explore must precede the next
        // select.
        let outcome = slot
            .last_outcome
            .take()
            .ok_or(PoiesisError::NothingExplored(id))?;
        let frontier = outcome.skyline_ranked().len();
        match slot.session.select(&outcome, rank) {
            Some(record) => Ok(record.clone()),
            None => {
                // rank out of range: the outcome is still valid, put it back
                let err = PoiesisError::RankOutOfRange { rank, frontier };
                slot.last_outcome = Some(outcome);
                Err(err)
            }
        }
    }

    /// Runs the static analyzer over the session's *current* flow without
    /// planning anything — the backing of `POST /sessions/{id}/lint`. A
    /// session always holds an error-free flow (creation and selection
    /// both gate on the analyzer), so in practice this reports the
    /// warnings: dead fields, disconnected fragments, suspicious
    /// expressions.
    pub fn lint(&self, id: SessionId) -> Result<LintReport, PoiesisError> {
        let slot = self.slot(id)?;
        let slot = slot.lock().expect("session slot");
        let flow = slot.session.current_flow();
        let diags = analysis::analyze(flow);
        Ok(LintReport::from_diagnostics(
            Some(id.raw()),
            &flow.name,
            &diags,
        ))
    }

    /// The session's completed iterations.
    pub fn history(&self, id: SessionId) -> Result<Vec<IterationRecord>, PoiesisError> {
        let slot = self.slot(id)?;
        let slot = slot.lock().expect("session slot");
        Ok(slot.session.history().to_vec())
    }

    /// Closes the session, dropping its state. Subsequent calls with the
    /// handle fail with [`PoiesisError::UnknownSession`].
    pub fn close(&self, id: SessionId) -> Result<(), PoiesisError> {
        self.slots
            .write()
            .expect("session registry")
            .remove(&id.raw())
            .map(|_| ())
            .ok_or(PoiesisError::UnknownSession(id))
    }

    // ------------------------------------------------------- persistence

    /// Captures every live session as a [`ManagerSnapshot`] of
    /// serializable [`SessionSnapshot`]s:
    /// the current flow as an xLM document, the planner configuration as
    /// the [`PlanRequest`] that reproduces it, the iteration history, and
    /// the handle counter (so restored managers never reuse handles).
    ///
    /// The in-flight exploration outcome is deliberately *not* captured —
    /// a restored session must run a fresh `explore` before its next
    /// `select`, and exploration's determinism makes that lossless.
    ///
    /// ```
    /// use poiesis::{FromJson, Poiesis, SessionManager, SessionSnapshot, ToJson};
    /// use datagen::fig2::{purchases_catalog, purchases_flow};
    /// use datagen::DirtProfile;
    ///
    /// let (flow, _) = purchases_flow();
    /// let catalog = purchases_catalog(80, &DirtProfile::demo(), 5);
    /// let base = || Poiesis::session().flow(flow.clone()).catalog(catalog.clone());
    ///
    /// let manager = SessionManager::new();
    /// let id = manager.create(base().budget(200)).unwrap();
    ///
    /// // snapshot → one JSON document per session → restore: the session
    /// // survives, handle intact
    /// let snapshot = manager.snapshot();
    /// let restored = SessionManager::with_next_handle(snapshot.next_id);
    /// for session in &snapshot.sessions {
    ///     let text = session.to_json_string();
    ///     let session = SessionSnapshot::from_json_str(&text).unwrap();
    ///     restored.restore(&session, base()).unwrap();
    /// }
    /// assert_eq!(restored.ids(), vec![id]);
    /// assert!(restored.explore(id).is_ok());
    /// ```
    pub fn snapshot(&self) -> ManagerSnapshot {
        let slots: Vec<(u64, Arc<Mutex<Slot>>)> = {
            let map = self.slots.read().expect("session registry");
            let mut v: Vec<_> = map.iter().map(|(&k, s)| (k, Arc::clone(s))).collect();
            v.sort_unstable_by_key(|(k, _)| *k);
            v
        };
        let sessions = slots
            .into_iter()
            .map(|(id, slot)| snapshot_slot(id, &slot.lock().expect("session slot")))
            .collect();
        ManagerSnapshot {
            next_id: self.next_handle(),
            sessions,
        }
    }

    /// Captures one session, locking only its slot — what an incremental
    /// persister calls after mutating that session, so a long planning
    /// cycle on an *unrelated* session never delays the capture (unlike
    /// [`snapshot`](Self::snapshot), which must wait on every slot).
    pub fn snapshot_session(&self, id: SessionId) -> Result<SessionSnapshot, PoiesisError> {
        let slot = self.slot(id)?;
        let slot = slot.lock().expect("session slot");
        Ok(snapshot_slot(id.raw(), &slot))
    }

    /// The next handle this manager would issue (what
    /// [`ManagerSnapshot::next_id`] records).
    pub fn next_handle(&self) -> u64 {
        self.next_id.load(Ordering::SeqCst)
    }

    /// Rebuilds one session from its snapshot and registers it under its
    /// original handle. `base` supplies what the snapshot does not carry —
    /// the catalog (and a flow, which the snapshot's evolved flow
    /// replaces) — exactly as a server-side session template does.
    ///
    /// Fails with [`PoiesisError::Snapshot`] on an unparsable flow
    /// document or an already-occupied handle, and with the usual builder
    /// errors when the snapshot's request no longer validates.
    pub fn restore(
        &self,
        snapshot: &SessionSnapshot,
        base: SessionBuilder,
    ) -> Result<SessionId, PoiesisError> {
        let flow = xlm::read_flow(&snapshot.flow_xlm).map_err(|e| {
            PoiesisError::Snapshot(format!("session {}: bad flow document: {e}", snapshot.id))
        })?;
        let planner = snapshot.request.apply(base)?.flow(flow).build_planner()?;
        let session = Session::restore(
            planner,
            snapshot.base_name.clone(),
            snapshot.history.clone(),
        );
        let slot = Arc::new(Mutex::new(Slot {
            session,
            last_outcome: None,
        }));
        {
            let mut slots = self.slots.write().expect("session registry");
            if slots.contains_key(&snapshot.id) {
                return Err(PoiesisError::Snapshot(format!(
                    "session {} is already registered",
                    snapshot.id
                )));
            }
            slots.insert(snapshot.id, slot);
        }
        self.next_id.fetch_max(snapshot.id + 1, Ordering::SeqCst);
        Ok(SessionId(snapshot.id))
    }

    /// Clones the slot handle out of the registry so the registry lock is
    /// released before any long-running work.
    fn slot(&self, id: SessionId) -> Result<Arc<Mutex<Slot>>, PoiesisError> {
        self.slots
            .read()
            .expect("session registry")
            .get(&id.raw())
            .cloned()
            .ok_or(PoiesisError::UnknownSession(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Poiesis;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;

    fn builder() -> SessionBuilder {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(120, &DirtProfile::demo(), 5);
        Poiesis::session().flow(f).catalog(cat).budget(400)
    }

    /// Restores `snapshot` the way a restarting service does: a manager
    /// issuing handles from the snapshot's counter, and each session
    /// rebuilt from its own JSON document.
    fn restore_all(snapshot: &ManagerSnapshot) -> SessionManager {
        use crate::{FromJson, ToJson};
        let manager = SessionManager::with_next_handle(snapshot.next_id);
        for session in &snapshot.sessions {
            let text = session.to_json_string();
            let session = SessionSnapshot::from_json_str(&text).unwrap();
            manager.restore(&session, builder()).unwrap();
        }
        manager
    }

    #[test]
    fn full_lifecycle_over_handles() {
        let mgr = SessionManager::new();
        let id = mgr.create(builder()).unwrap();
        assert_eq!(mgr.ids(), vec![id]);

        let response = mgr.explore(id).unwrap();
        assert_eq!(response.session, Some(id.raw()));
        assert!(!response.skyline.is_empty());

        let record = mgr.select(id, 0).unwrap();
        assert_eq!(record.cycle, 1);
        assert_eq!(record.selected, response.skyline[0].name);
        assert_eq!(mgr.history(id).unwrap().len(), 1);

        mgr.close(id).unwrap();
        assert!(mgr.is_empty());
        assert_eq!(mgr.explore(id), Err(PoiesisError::UnknownSession(id)));
    }

    #[test]
    fn select_requires_a_fresh_exploration() {
        let mgr = SessionManager::new();
        let id = mgr.create(builder()).unwrap();
        assert_eq!(mgr.select(id, 0), Err(PoiesisError::NothingExplored(id)));
        let response = mgr.explore(id).unwrap();
        let frontier = response.skyline.len();
        assert_eq!(
            mgr.select(id, 10_000),
            Err(PoiesisError::RankOutOfRange {
                rank: 10_000,
                frontier
            })
        );
        // an in-range rank still works: the outcome was put back
        mgr.select(id, 0).unwrap();
        // ... but is consumed by the successful selection
        assert_eq!(mgr.select(id, 0), Err(PoiesisError::NothingExplored(id)));
    }

    #[test]
    fn lint_reports_on_the_current_flow() {
        let mgr = SessionManager::new();
        let id = mgr.create(builder()).unwrap();
        let report = mgr.lint(id).unwrap();
        assert_eq!(report.session, Some(id.raw()));
        assert_eq!(report.flow, "s_purchases");
        assert_eq!(report.errors, 0, "sessions only hold error-free flows");
        // linting follows the evolving flow across selections
        mgr.explore(id).unwrap();
        mgr.select(id, 0).unwrap();
        let report = mgr.lint(id).unwrap();
        assert!(report.flow.contains("cycle"), "{}", report.flow);
        assert_eq!(report.errors, 0);
        mgr.close(id).unwrap();
        assert_eq!(mgr.lint(id), Err(PoiesisError::UnknownSession(id)));
    }

    #[test]
    fn handles_are_never_reused() {
        let mgr = SessionManager::new();
        let a = mgr.create(builder()).unwrap();
        mgr.close(a).unwrap();
        let b = mgr.create(builder()).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn snapshot_round_trip_preserves_the_skyline() {
        let mgr = SessionManager::new();
        let id = mgr.create(builder()).unwrap();
        // advance the session one full cycle so the snapshot carries an
        // evolved flow (pattern-inserted ops and/or config changes)
        mgr.explore(id).unwrap();
        mgr.select(id, 0).unwrap();
        let before = mgr.explore(id).unwrap();

        // snapshot → JSON text → restore (through the real wire form)
        let restored = restore_all(&mgr.snapshot());

        assert_eq!(restored.ids(), vec![id]);
        assert_eq!(restored.history(id).unwrap(), mgr.history(id).unwrap());
        // the restored session re-explores to an identical frontier
        let after = restored.explore(id).unwrap();
        assert_eq!(after.skyline, before.skyline);
        assert_eq!(after.baseline, before.baseline);
        // …and can select from it, continuing the iteration mid-stream
        let record = restored.select(id, 0).unwrap();
        assert_eq!(record.cycle, 2);
    }

    #[test]
    fn snapshot_session_matches_the_full_snapshot_entry() {
        let mgr = SessionManager::new();
        let a = mgr.create(builder()).unwrap();
        let b = mgr.create(builder()).unwrap();
        mgr.explore(b).unwrap();
        mgr.select(b, 0).unwrap();
        let full = mgr.snapshot();
        for id in [a, b] {
            let single = mgr.snapshot_session(id).unwrap();
            let entry = full.sessions.iter().find(|s| s.id == id.raw()).unwrap();
            assert_eq!(&single, entry);
        }
        mgr.close(a).unwrap();
        assert_eq!(
            mgr.snapshot_session(a),
            Err(PoiesisError::UnknownSession(a))
        );
    }

    #[test]
    fn snapshot_excludes_the_inflight_outcome() {
        let mgr = SessionManager::new();
        let id = mgr.create(builder()).unwrap();
        mgr.explore(id).unwrap();
        let restored = restore_all(&mgr.snapshot());
        // select before a fresh explore is the documented 409, not a replay
        assert_eq!(
            restored.select(id, 0),
            Err(PoiesisError::NothingExplored(id))
        );
    }

    #[test]
    fn restored_managers_never_reissue_snapshot_handles() {
        let mgr = SessionManager::new();
        let a = mgr.create(builder()).unwrap();
        let b = mgr.create(builder()).unwrap();
        mgr.close(a).unwrap();
        let restored = restore_all(&mgr.snapshot());
        let c = restored.create(builder()).unwrap();
        assert!(c > b, "fresh handle {c} must exceed restored {b}");
    }

    #[test]
    fn corrupt_snapshots_fail_loudly() {
        let mgr = SessionManager::new();
        let id = mgr.create(builder()).unwrap();
        let mut snapshot = mgr.snapshot();
        snapshot.sessions[0].flow_xlm = "<not-xlm/>".to_string();
        assert!(matches!(
            SessionManager::new().restore(&snapshot.sessions[0], builder()),
            Err(PoiesisError::Snapshot(_))
        ));
        // restoring onto an occupied handle is rejected, not overwritten
        let good = mgr.snapshot();
        assert!(matches!(
            mgr.restore(&good.sessions[0], builder()),
            Err(PoiesisError::Snapshot(ref m)) if m.contains(&id.raw().to_string())
        ));
    }
}
