//! Durable session state: one file per session under `--state-dir`.
//!
//! The layout is
//!
//! ```text
//! <state-dir>/sessions/<id>.json   one SessionSnapshot per live session
//! <state-dir>/sessions/next_id     the handle high-water mark, in decimal
//! ```
//!
//! After a state-changing request the service writes only what that
//! request changed: create raises `next_id` and writes the new session's
//! file, select rewrites the session's file, close deletes it. Each write
//! is atomic — a temp file in the same directory, `fsync`, rename over the
//! old file, `fsync` the directory — so a reader sees either the previous
//! complete file or the new one. A mutation's cost is therefore the size
//! of one session (flow as an xLM document, configuration as a
//! `PlanRequest`, history as records), not of the whole registry.
//! Exploration outcomes are *not* persisted: planning is deterministic,
//! so a restarted client simply explores again before its next select.
//!
//! `next_id` is raised before the new session's file is written, so every
//! file on disk names a handle below it, and closing or losing the highest
//! session never lets a later incarnation issue its handle again. It is
//! raised [`HANDLE_BLOCK`] handles ahead, so only one create in that many
//! pays for a second synced write; a restarted server resumes numbering
//! at the mark, skipping the unused rest of the block.
//!
//! # Startup and quarantine
//!
//! [`StateStore::load_or_quarantine`] reads every `<id>.json`, parses it,
//! checks it with [`SessionSnapshot::validate`], and checks that its
//! handle matches its file name and sits below `next_id`. A file failing
//! any check is **quarantined alone**: renamed to `<id>.json.corrupt`
//! (the evidence is kept, never silently deleted) and reported, while
//! every other session loads. A fault therefore costs the session it
//! touched, not the registry. A corrupt `next_id` is quarantined the same
//! way and rebuilt above the highest handle on disk. This is the one way
//! state is read back.
//!
//! A `sessions.json` left by the earlier whole-registry format is not
//! read; startup reports it so an operator can see why its sessions are
//! gone.
//!
//! # Fault hook
//!
//! [`StateStore::fault_hook`] exposes a shared [`TornWriteHook`] that the
//! deterministic fault lab (`crates/simlab`) arms to make exactly one
//! future session write misbehave — truncating the temp file and
//! "crashing" before the rename, or tearing bytes straight into the
//! session's final path the way a non-atomic filesystem can under power
//! loss. Production code never arms it; an unarmed hook costs one mutex
//! lock per write.

use poiesis::{FromJson, ManagerSnapshot, SessionSnapshot, ToJson};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How far past a new handle [`StateStore::reserve_handle`] raises the
/// `next_id` high-water mark.
pub const HANDLE_BLOCK: u64 = 64;

/// How an armed [`TornWriteHook`] sabotages the next session write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornWrite {
    /// Write only the first `keep_bytes` of the serialized session to
    /// the temp file and skip the rename — the crash-before-commit case
    /// the temp+rename protocol is designed to survive: the session's
    /// previous complete file stays in place.
    TempOnly {
        /// Bytes of the session that reach the temp file.
        keep_bytes: usize,
    },
    /// Write only the first `keep_bytes` straight into `<id>.json` — the
    /// torn-rename / power-loss-reordering case the startup quarantine
    /// exists for.
    Final {
        /// Bytes of the session that reach the final path.
        keep_bytes: usize,
    },
}

/// A shared, armable fault: `Some(fault)` makes exactly the next
/// [`StateStore::write_session`] misbehave, then disarms itself.
/// Cloneable so a test can keep one end while the store (inside the
/// service) holds the other.
#[derive(Debug, Clone, Default)]
pub struct TornWriteHook(Arc<Mutex<Option<TornWrite>>>);

impl TornWriteHook {
    /// Arms the hook: the next session write performs `fault` instead of
    /// the atomic protocol.
    pub fn arm(&self, fault: TornWrite) {
        *self.0.lock().expect("torn-write hook") = Some(fault);
    }

    /// Takes the armed fault, disarming the hook.
    fn take(&self) -> Option<TornWrite> {
        self.0.lock().expect("torn-write hook").take()
    }
}

/// What [`StateStore::load_or_quarantine`] recovered.
#[derive(Debug, Default, PartialEq)]
pub struct Recovered {
    /// The handle high-water mark: no restored or future session may
    /// be issued a handle below it again.
    pub next_id: u64,
    /// Every session file that passed the startup checks, ascending by
    /// handle.
    pub sessions: Vec<SessionSnapshot>,
    /// Files that failed them: where each one now lives, and why.
    pub quarantined: Vec<(PathBuf, String)>,
    /// A whole-registry `sessions.json` from the earlier format, if one
    /// is present. It is not read.
    pub legacy: Option<PathBuf>,
}

/// The per-session state files inside a state directory.
///
/// ```
/// use poiesis_server::StateStore;
/// use poiesis::{PlanRequest, SessionSnapshot};
///
/// let dir = std::env::temp_dir().join(format!("poiesis-doc-{}", std::process::id()));
/// let store = StateStore::open(&dir).unwrap();
/// let fresh = store.load_or_quarantine().unwrap();
/// assert!(fresh.sessions.is_empty()); // nothing persisted yet
///
/// let session = SessionSnapshot {
///     id: 0,
///     base_name: "purchases".into(),
///     flow_xlm: "<design/>".into(),
///     request: PlanRequest::default(),
///     history: Vec::new(),
/// };
/// store.reserve_handle(session.id).unwrap();
/// store.write_session(&session).unwrap();
/// let restored = store.load_or_quarantine().unwrap();
/// assert_eq!(restored.sessions, vec![session]);
/// assert!(restored.quarantined.is_empty());
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct StateStore {
    /// `<state-dir>/sessions`.
    dir: PathBuf,
    /// `<state-dir>/sessions.json`, the earlier format's file.
    legacy: PathBuf,
    /// The last high-water mark this store wrote (0 before the first).
    next_id_written: AtomicU64,
    hook: TornWriteHook,
}

/// The high-water file's name inside the sessions directory.
const NEXT_ID: &str = "next_id";

impl StateStore {
    /// Opens (creating if needed) the state directory and its `sessions/`
    /// subdirectory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<StateStore> {
        let dir = dir.as_ref();
        let sessions = dir.join("sessions");
        fs::create_dir_all(&sessions)?;
        Ok(StateStore {
            dir: sessions,
            legacy: dir.join("sessions.json"),
            next_id_written: AtomicU64::new(0),
            hook: TornWriteHook::default(),
        })
    }

    /// The `sessions/` directory every state file lives in.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Where session `id`'s file lives.
    pub fn session_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id}.json"))
    }

    /// Where session `id`'s file is moved when startup rejects it.
    pub fn quarantine_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id}.json.corrupt"))
    }

    /// The fault hook the deterministic fault lab arms (see module docs).
    /// Clone it out before handing the store to a service.
    pub fn fault_hook(&self) -> TornWriteHook {
        self.hook.clone()
    }

    /// Atomically writes one session's file: temp file, `fsync`, rename
    /// over the old file (same directory, so the rename cannot cross
    /// filesystems), `fsync` the directory. The file sync before the
    /// rename is what makes the guarantee hold across power loss, not just
    /// process death — without it the rename can commit before the data
    /// blocks. The directory sync persists the rename itself and is
    /// best-effort (not every platform lets a directory be opened).
    pub fn write_session(&self, session: &SessionSnapshot) -> io::Result<()> {
        let bytes = session.to_json_string().into_bytes();
        let path = self.session_path(session.id);
        let tmp = self.dir.join(format!("{}.json.tmp", session.id));
        match self.hook.take() {
            Some(TornWrite::TempOnly { keep_bytes }) => {
                // crash-before-rename: partial temp file, final untouched
                fs::write(&tmp, &bytes[..keep_bytes.min(bytes.len())])
            }
            Some(TornWrite::Final { keep_bytes }) => {
                fs::write(&path, &bytes[..keep_bytes.min(bytes.len())])
            }
            None => self.replace(&tmp, &path, &bytes),
        }
    }

    /// Atomically records the handle high-water mark. Callers write it
    /// before the file of any session at or above the old mark.
    pub fn write_next_id(&self, next_id: u64) -> io::Result<()> {
        let path = self.dir.join(NEXT_ID);
        let tmp = self.dir.join(format!("{NEXT_ID}.tmp"));
        self.replace(&tmp, &path, format!("{next_id}\n").as_bytes())?;
        self.next_id_written.store(next_id, Ordering::SeqCst);
        Ok(())
    }

    /// Makes sure the high-water mark this store last wrote is above the
    /// new handle `id`, raising it to `id + HANDLE_BLOCK` when it is not.
    /// Call it before writing session `id`'s file.
    pub fn reserve_handle(&self, id: u64) -> io::Result<()> {
        if id < self.next_id_written.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.write_next_id(id + HANDLE_BLOCK)
    }

    /// Deletes a closed session's file and syncs the directory, so the
    /// session cannot come back after a crash.
    pub fn remove_session(&self, id: u64) -> io::Result<()> {
        match fs::remove_file(self.session_path(id)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        self.sync_dir();
        Ok(())
    }

    /// Moves session `id`'s file aside as `<id>.json.corrupt`
    /// (overwriting any earlier quarantine of that handle — the newest
    /// evidence wins) and returns where it went.
    pub fn quarantine_session(&self, id: u64) -> io::Result<PathBuf> {
        let to = self.quarantine_path(id);
        fs::rename(self.session_path(id), &to)?;
        Ok(to)
    }

    /// Replaces the whole durable state with `snapshot`: the high-water
    /// mark, then every session's file, then the removal of files for
    /// sessions `snapshot` does not hold.
    pub fn save(&self, snapshot: &ManagerSnapshot) -> io::Result<()> {
        self.write_next_id(snapshot.next_id)?;
        for session in &snapshot.sessions {
            self.write_session(session)?;
        }
        let kept: BTreeSet<u64> = snapshot.sessions.iter().map(|s| s.id).collect();
        for id in self.session_ids()? {
            if !kept.contains(&id) {
                self.remove_session(id)?;
            }
        }
        Ok(())
    }

    /// The startup gate: loads every session file that passes its checks
    /// and quarantines each one that does not (see module docs). Only an
    /// I/O failure on listing the directory or on a quarantine rename is
    /// an error.
    pub fn load_or_quarantine(&self) -> io::Result<Recovered> {
        let ids = self.session_ids()?;
        let mut recovered = Recovered {
            legacy: self.legacy.exists().then(|| self.legacy.clone()),
            ..Recovered::default()
        };
        recovered.next_id = match self.read_next_id() {
            Ok(next_id) => next_id.unwrap_or(0),
            Err(reason) => {
                // Rebuild the mark above every handle on disk; the files
                // are still checked against it below.
                let to = self.dir.join(format!("{NEXT_ID}.corrupt"));
                fs::rename(self.dir.join(NEXT_ID), &to)?;
                recovered.quarantined.push((to, reason));
                let next_id = ids.last().map_or(0, |&id| id + 1);
                self.write_next_id(next_id)?;
                next_id
            }
        };
        for id in ids {
            match self.read_session(id, recovered.next_id) {
                Ok(session) => recovered.sessions.push(session),
                Err(reason) => {
                    let to = self.quarantine_session(id)?;
                    recovered.quarantined.push((to, reason));
                }
            }
        }
        Ok(recovered)
    }

    /// Handles of every `<id>.json` in the directory, ascending. Temp
    /// files, quarantined files, `next_id`, and names that are not the
    /// canonical form of a handle (`07.json`) are not session files.
    fn session_ids(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            match stem.parse::<u64>() {
                Ok(id) if id.to_string() == stem => ids.push(id),
                _ => {}
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// The high-water mark, or `None` when it was never written.
    fn read_next_id(&self) -> Result<Option<u64>, String> {
        let path = self.dir.join(NEXT_ID);
        match fs::read_to_string(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
            Ok(text) => text
                .trim()
                .parse()
                .map(Some)
                .map_err(|e| format!("corrupt {}: {e}", path.display())),
        }
    }

    /// Reads and checks session `id`'s file: it parses, passes
    /// [`SessionSnapshot::validate`], names handle `id`, and sits below
    /// `next_id`.
    fn read_session(&self, id: u64, next_id: u64) -> Result<SessionSnapshot, String> {
        let path = self.session_path(id);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let session = SessionSnapshot::from_json_str(&text)
            .map_err(|e| format!("corrupt {}: {e}", path.display()))?;
        session
            .validate()
            .map_err(|e| format!("inconsistent {}: {e}", path.display()))?;
        if session.id != id {
            return Err(format!(
                "inconsistent {}: it holds session {}",
                path.display(),
                session.id
            ));
        }
        if id >= next_id {
            return Err(format!(
                "inconsistent {}: handle {id} >= next_id {next_id} — it would be reused",
                path.display()
            ));
        }
        Ok(session)
    }

    /// Writes `bytes` to `tmp`, syncs it, renames it over `path` and
    /// syncs the directory.
    fn replace(&self, tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
        {
            let mut file = fs::File::create(tmp)?;
            io::Write::write_all(&mut file, bytes)?;
            file.sync_all()?;
        }
        fs::rename(tmp, path)?;
        self.sync_dir();
        Ok(())
    }

    fn sync_dir(&self) {
        if let Ok(dir) = fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poiesis::{IterationRecord, PlanRequest};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("poiesis-store-{}-{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn session(id: u64, cycles: usize) -> SessionSnapshot {
        SessionSnapshot {
            id,
            base_name: "purchases".into(),
            flow_xlm: "<design/>".into(),
            request: PlanRequest::default(),
            history: (1..=cycles)
                .map(|cycle| IterationRecord {
                    cycle,
                    selected: format!("alt{cycle}"),
                    integrated: vec!["p".into()],
                    scores: vec![0.5],
                })
                .collect(),
        }
    }

    /// What [`StateStore::load_or_quarantine`] recovers from a store
    /// whose files all pass their checks; asserts that none was
    /// quarantined.
    fn clean_load(store: &StateStore) -> ManagerSnapshot {
        let recovered = store.load_or_quarantine().unwrap();
        assert!(
            recovered.quarantined.is_empty(),
            "{:?}",
            recovered.quarantined
        );
        ManagerSnapshot {
            next_id: recovered.next_id,
            sessions: recovered.sessions,
        }
    }

    #[test]
    fn load_of_a_fresh_store_is_none_and_save_round_trips() {
        let dir = scratch("fresh");
        let store = StateStore::open(&dir).unwrap();
        assert_eq!(store.load_or_quarantine().unwrap(), Recovered::default());
        let snapshot = ManagerSnapshot {
            next_id: 3,
            sessions: vec![session(0, 1), session(2, 0)],
        };
        store.save(&snapshot).unwrap();
        assert_eq!(clean_load(&store), snapshot);
        // one file per session, and the temp files never linger
        assert!(store.session_path(0).exists() && store.session_path(2).exists());
        assert!(!store.path().join("0.json.tmp").exists());
        // a save replaces the state: sessions it does not hold are gone
        let smaller = ManagerSnapshot {
            next_id: 3,
            sessions: vec![session(2, 1)],
        };
        store.save(&smaller).unwrap();
        assert_eq!(clean_load(&store), smaller);
        assert!(!store.session_path(0).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_moves_the_bad_snapshot_aside_and_reports_why() {
        let dir = scratch("quarantine");
        let store = StateStore::open(&dir).unwrap();
        assert_eq!(store.load_or_quarantine().unwrap(), Recovered::default());

        store
            .save(&ManagerSnapshot {
                next_id: 2,
                sessions: vec![session(0, 1), session(1, 2)],
            })
            .unwrap();
        fs::write(store.session_path(0), "{torn mid-wri").unwrap();
        let recovered = store.load_or_quarantine().unwrap();
        // A alone is quarantined; B restores
        assert_eq!(recovered.next_id, 2);
        assert_eq!(recovered.sessions, vec![session(1, 2)]);
        assert_eq!(recovered.quarantined.len(), 1);
        let (to, reason) = &recovered.quarantined[0];
        assert!(reason.contains("corrupt"), "{reason}");
        assert_eq!(*to, store.quarantine_path(0));
        // the evidence moved, the live path is clear, startup is clean
        assert!(store.quarantine_path(0).exists());
        assert!(!store.session_path(0).exists());
        let again = store.load_or_quarantine().unwrap();
        assert!(again.quarantined.is_empty());
        assert_eq!(again.sessions, vec![session(1, 2)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parsing_but_inconsistent_snapshots_are_quarantined_too() {
        let dir = scratch("inconsistent");
        let store = StateStore::open(&dir).unwrap();
        store.write_next_id(5).unwrap();
        // parses fine, but sits at or above next_id and would be reused
        store.write_session(&session(5, 0)).unwrap();
        // parses fine, but holds a different handle than its file name
        fs::write(store.session_path(3), session(4, 0).to_json_string()).unwrap();
        // parses fine, but its history has a gap
        let mut gapped = session(1, 2);
        gapped.history.remove(0);
        store.write_session(&gapped).unwrap();
        store.write_session(&session(2, 1)).unwrap();

        let recovered = store.load_or_quarantine().unwrap();
        assert_eq!(recovered.sessions, vec![session(2, 1)]);
        let reasons: Vec<&str> = recovered
            .quarantined
            .iter()
            .map(|(_, r)| r.as_str())
            .collect();
        assert_eq!(reasons.len(), 3, "{reasons:?}");
        assert!(reasons[0].contains("history[0]"), "{}", reasons[0]);
        assert!(reasons[1].contains("holds session 4"), "{}", reasons[1]);
        assert!(reasons[2].contains("reused"), "{}", reasons[2]);
        for id in [1, 3, 5] {
            assert!(store.quarantine_path(id).exists());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn armed_torn_writes_fire_once_then_the_store_recovers() {
        let dir = scratch("torn");
        let store = StateStore::open(&dir).unwrap();
        store.write_next_id(2).unwrap();
        let (a, b) = (session(0, 1), session(1, 1));
        store.write_session(&a).unwrap();
        store.write_session(&b).unwrap();

        // TempOnly: the crash-before-rename case — the previous file wins
        let hook = store.fault_hook();
        hook.arm(TornWrite::TempOnly { keep_bytes: 4 });
        store.write_session(&session(0, 2)).unwrap();
        assert_eq!(clean_load(&store).sessions, vec![a.clone(), b.clone()]);
        // the hook disarmed after that one write, so the next one lands
        let a2 = session(0, 2);
        store.write_session(&a2).unwrap();
        assert_eq!(clean_load(&store).sessions, vec![a2, b.clone()]);

        // Final: torn bytes land in 0.json — only that session is
        // quarantined on load, the other restores
        hook.arm(TornWrite::Final { keep_bytes: 9 });
        store.write_session(&session(0, 2)).unwrap();
        let recovered = store.load_or_quarantine().unwrap();
        assert_eq!(recovered.sessions, vec![b.clone()]);
        assert_eq!(recovered.quarantined.len(), 1);

        // the next honest write re-establishes durability
        store.write_session(&a).unwrap();
        assert_eq!(clean_load(&store).sessions, vec![a, b]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn close_removes_the_session_file() {
        let dir = scratch("close");
        let store = StateStore::open(&dir).unwrap();
        store.write_next_id(1).unwrap();
        store.write_session(&session(0, 0)).unwrap();
        store.remove_session(0).unwrap();
        assert!(!store.session_path(0).exists());
        // removing twice is not an error: a racing close already did it
        store.remove_session(0).unwrap();
        let state = clean_load(&store);
        assert!(state.sessions.is_empty());
        assert_eq!(state.next_id, 1, "the high-water mark outlives the file");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handles_are_reserved_a_block_at_a_time() {
        let dir = scratch("reserve");
        let store = StateStore::open(&dir).unwrap();
        let mark = || clean_load(&store).next_id;
        store.reserve_handle(0).unwrap();
        assert_eq!(mark(), HANDLE_BLOCK);
        // covered handles write nothing
        fs::write(store.path().join(NEXT_ID), "1").unwrap();
        store.reserve_handle(HANDLE_BLOCK - 1).unwrap();
        assert_eq!(mark(), 1);
        // the first uncovered handle raises the mark a block past itself
        store.reserve_handle(HANDLE_BLOCK).unwrap();
        assert_eq!(mark(), 2 * HANDLE_BLOCK);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_high_water_mark_is_rebuilt_above_every_handle() {
        let dir = scratch("next-id");
        let store = StateStore::open(&dir).unwrap();
        store.write_next_id(4).unwrap();
        store.write_session(&session(3, 1)).unwrap();
        fs::write(store.path().join(NEXT_ID), "4x").unwrap();
        let recovered = store.load_or_quarantine().unwrap();
        assert_eq!(recovered.next_id, 4);
        assert_eq!(recovered.sessions, vec![session(3, 1)]);
        assert_eq!(recovered.quarantined.len(), 1);
        assert!(store.path().join("next_id.corrupt").exists());
        assert_eq!(clean_load(&store).next_id, 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_legacy_registry_file_and_foreign_names_are_not_read() {
        let dir = scratch("legacy");
        fs::create_dir_all(&dir).unwrap();
        let old = format!(
            "{{\"next_id\":1,\"sessions\":[{}]}}",
            session(0, 1).to_json_string()
        );
        fs::write(dir.join("sessions.json"), old).unwrap();
        let store = StateStore::open(&dir).unwrap();
        // nor is a file whose name is not a handle's canonical form
        fs::write(store.path().join("00.json"), "{}").unwrap();
        let recovered = store.load_or_quarantine().unwrap();
        assert_eq!(recovered.legacy, Some(dir.join("sessions.json")));
        assert!(recovered.sessions.is_empty());
        assert!(recovered.quarantined.is_empty());
        assert_eq!(recovered.next_id, 0);
        fs::remove_dir_all(&dir).ok();
    }
}
