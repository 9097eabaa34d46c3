//! The scenario runner.
//!
//! [`run_seed`] executes one full lab run: expand the seed into a
//! [`FaultPlan`], record an undisturbed **control run** of the same
//! workload, then replay the workload through the fault proxy against a
//! real server that gets killed, restarted and torn mid-run — checking
//! the system invariants after every operation:
//!
//! 1. **Recovery is bit-identical**: a restarted server's recovered
//!    history and re-explored frontier match the control run at the
//!    recovered cycle count (a torn temp-file write may legally roll
//!    back *one* cycle — to the previous durable state — never to an
//!    in-between one).
//! 2. **No handle reuse**: session handles stay unique and monotonic
//!    across every restart, quarantines included.
//! 3. **No partial session ever loads, and a fault costs one session**:
//!    a torn final write must quarantine the torn session's file alone
//!    (`sessions/<id>.json.corrupt`), counted in
//!    `poiesis_snapshot_quarantined_total`; that session is gone (`404`)
//!    and every other session still serves.
//! 4. **Untouched sessions recover bit-identical**: a bystander session,
//!    created and selected once before the first fault and never touched
//!    again, keeps its file byte-for-byte and its history after every
//!    restart, a quarantine included.
//! 5. **Failures are typed**: every client-visible failure is an I/O
//!    error or a documented wire-error body — never a hang past the
//!    read timeout, never an undecodable success body.
//! 6. **Waits are virtual**: every `Retry-After` second the client
//!    honoured is on the [`SimClock`], none on the wall clock.
//!
//! A failing run returns a [`LabFailure`] that prints the seed, the
//! decoded schedule, the faults actually applied, and the exact replay
//! command.

use crate::clock::SimClock;
use crate::plan::{FaultPlan, ProcessFault};
use crate::proxy::FaultProxy;
use poiesis::{FromJson, IterationRecord, PlanResponse, SessionSnapshot, ToJson};
use poiesis_server::{
    Client, ClientError, Clock, PlanningService, RetryPolicy, Server, ServerConfig,
    SessionTemplate, ShutdownHandle, StateStore, SystemClock, TornWrite, TornWriteHook,
};
use scenarios::digest::digest_lines;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Tunables of one lab run. The defaults are what the pinned CI seeds
/// use; tests shrink `cycles`/`rows` for speed, never the invariants.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Session-template spec the lab's server plans against — any
    /// rowless `SessionTemplate::from_spec` name (`demo`,
    /// `scenario:<name>`); `rows` is appended by the lab.
    pub template: String,
    /// Rows per synthesised source in the session template.
    pub rows: usize,
    /// Explore/select cycles the workload completes.
    pub cycles: usize,
    /// Wire-fault slots expanded from the seed.
    pub wire_slots: usize,
    /// Workload client read timeout — the hang bound: a server that
    /// sends nothing for this long is a failed exchange, not a wait.
    pub client_timeout: Duration,
    /// How long a `Stall` fault holds the connection (must exceed
    /// `client_timeout`).
    pub stall_hold: Duration,
    /// Attempts per logical op before the runner declares it stuck.
    pub op_attempts: usize,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            template: "demo".to_string(),
            rows: 32,
            cycles: 3,
            wire_slots: 24,
            client_timeout: Duration::from_millis(400),
            stall_hold: Duration::from_millis(700),
            op_attempts: 12,
        }
    }
}

/// What a successful run proved, plus the digests the determinism test
/// compares across invocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabReport {
    /// The seed that was run.
    pub seed: u64,
    /// Cycles the workload completed (== `LabConfig::cycles`).
    pub cycles: usize,
    /// Exchanges the proxy saw, including client-internal retries.
    pub wire_exchanges: usize,
    /// `503`-triggered retries the workload client performed.
    pub client_retries: u64,
    /// Virtual time spent honouring `Retry-After` — wall time spent: none.
    pub virtual_wait: Duration,
    /// Snapshot quarantines observed (torn final writes).
    pub quarantines: usize,
    /// Server kill/restart events executed.
    pub restarts: usize,
    /// FNV-1a digest over the run's observable outcome (final history,
    /// schedule, exchange/retry/restart counts) — byte-identical across
    /// runs of the same seed.
    pub outcome_digest: String,
    /// The decoded fault schedule.
    pub schedule: String,
}

/// A broken invariant, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct LabFailure {
    /// The seed that exposed it.
    pub seed: u64,
    /// Which phase of the run broke.
    pub stage: String,
    /// What went wrong.
    pub message: String,
    /// The decoded fault schedule.
    pub schedule: String,
    /// Faults actually applied before the failure, in order.
    pub applied: Vec<String>,
}

impl fmt::Display for LabFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fault lab failure (seed {})", self.seed)?;
        writeln!(f, "  stage:    {}", self.stage)?;
        writeln!(f, "  problem:  {}", self.message)?;
        writeln!(f, "  schedule: {}", self.schedule)?;
        writeln!(f, "  applied:  [{}]", self.applied.join("; "))?;
        write!(
            f,
            "  replay:   cargo test -p simlab --test lab -- --seed {}",
            self.seed
        )
    }
}

impl std::error::Error for LabFailure {}

/// The frontier, canonicalised for cross-run comparison: the session
/// handle is erased (control and faulted runs allocate different
/// handles once faults orphan a create), everything else — axes,
/// baseline, counts, the full skyline — must match byte-for-byte.
fn frontier_digest(response: &PlanResponse) -> String {
    let mut canonical = response.clone();
    canonical.session = None;
    digest_lines(&[canonical.to_json_string()])
}

fn lab_dir(seed: u64, role: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simlab-{}-{seed}-{role}", std::process::id()))
}

fn reset_dir(dir: &Path) -> io::Result<()> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir)
}

fn lab_server_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        queue: 16,
        retry_after: Duration::from_secs(1),
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// One server incarnation, killable from the runner.
struct Incarnation {
    addr: std::net::SocketAddr,
    handle: ShutdownHandle,
    join: thread::JoinHandle<io::Result<usize>>,
    hook: TornWriteHook,
}

impl Incarnation {
    fn start(dir: &Path, cfg: &LabConfig) -> Result<Incarnation, String> {
        let store = StateStore::open(dir).map_err(|e| format!("opening state store: {e}"))?;
        let hook = store.fault_hook();
        let template = SessionTemplate::from_spec(&format!("{}:{}", cfg.template, cfg.rows))
            .map_err(|e| format!("resolving lab template: {e}"))?;
        let service = PlanningService::new(template)
            .with_store(store)
            .map_err(|e| format!("starting service: {e}"))?;
        let server = Server::bind("127.0.0.1:0", service, lab_server_config())
            .map_err(|e| format!("binding server: {e}"))?;
        let (addr, handle, join) = server
            .spawn()
            .map_err(|e| format!("spawning server: {e}"))?;
        Ok(Incarnation {
            addr,
            handle,
            join,
            hook,
        })
    }

    /// Stops the incarnation. Persistence happens per mutation, never at
    /// shutdown, so by the time the runner calls this between ops the
    /// disk state is exactly what a `kill -9` at the same point would
    /// have left.
    fn kill(self) {
        self.handle.shutdown();
        let _ = self.join.join();
    }
}

/// The control run: the same workload, no proxy, no faults. Records the
/// per-cycle frontier digests and iteration records the faulted run must
/// reproduce.
struct Control {
    frontier_digests: Vec<String>,
    records: Vec<IterationRecord>,
}

fn control_run(cfg: &LabConfig, seed: u64) -> Result<Control, String> {
    let dir = lab_dir(seed, "control");
    reset_dir(&dir).map_err(|e| format!("control dir: {e}"))?;
    let incarnation = Incarnation::start(&dir, cfg)?;
    let mut client = Client::connect_with(
        incarnation.addr,
        Duration::from_secs(10),
        Arc::new(SystemClock::new()),
        RetryPolicy::none(),
    )
    .map_err(|e| format!("control connect: {e}"))?;
    let sid = client
        .create(None)
        .map_err(|e| format!("control create: {e}"))?;
    let mut frontier_digests = Vec::with_capacity(cfg.cycles);
    let mut records = Vec::with_capacity(cfg.cycles);
    for cycle in 1..=cfg.cycles {
        let frontier = client
            .explore(sid)
            .map_err(|e| format!("control explore #{cycle}: {e}"))?;
        if frontier.skyline.is_empty() {
            return Err(format!("control frontier is empty at cycle {cycle}"));
        }
        frontier_digests.push(frontier_digest(&frontier));
        let record = client
            .select(sid, 0)
            .map_err(|e| format!("control select #{cycle}: {e}"))?;
        records.push(record);
    }
    let history = client
        .history(sid)
        .map_err(|e| format!("control history: {e}"))?;
    if history != records {
        return Err("control history disagrees with its own selects".to_string());
    }
    incarnation.kill();
    let _ = fs::remove_dir_all(&dir);
    Ok(Control {
        frontier_digests,
        records,
    })
}

/// The injected recovery bug for the mutation canary: with
/// `SIMLAB_MUTATE` set, every restart first tampers with the workload
/// session's file (bumping the last recorded score) in a way that still
/// passes the startup checks — only the control-run comparison can catch
/// it. CI asserts the lab *fails* under this mutation.
fn mutation_enabled() -> bool {
    std::env::var_os("SIMLAB_MUTATE").is_some_and(|v| !v.is_empty())
}

fn mutate_snapshot(path: &Path) {
    let Ok(text) = fs::read_to_string(path) else {
        return;
    };
    let Ok(mut session) = SessionSnapshot::from_json_str(&text) else {
        return;
    };
    if let Some(last) = session.history.last_mut() {
        match last.scores.first_mut() {
            Some(score) => *score += 1.0,
            None => last.selected.push('~'),
        }
        let _ = fs::write(path, session.to_json_string());
    }
}

/// The session the workload never touches after setting it up: its
/// handle, its history, and its file's bytes as of its one select.
struct Bystander {
    id: u64,
    history: Vec<IterationRecord>,
    file: Vec<u8>,
}

/// What a failed client op tells the runner to do next.
enum Next {
    /// Transient (socket error or exhausted `503`): reconnect and retry.
    Retry,
    /// `409 nothing_explored`: the select's exploration was lost to a
    /// restart or consumed by a select whose response we never saw —
    /// explore again, then retry.
    ReExplore,
    /// An invariant violation: undecodable body or an undocumented error.
    Fatal(String),
}

fn classify(error: &ClientError) -> Next {
    match error {
        ClientError::Io(_) => Next::Retry,
        ClientError::Api { status: 503, .. } => Next::Retry,
        ClientError::Api { code, .. } if code == "nothing_explored" => Next::ReExplore,
        ClientError::Decode(message) => Next::Fatal(format!("garbage response body: {message}")),
        ClientError::Api {
            status,
            code,
            message,
        } => Next::Fatal(format!("unexpected api error {status} ({code}): {message}")),
    }
}

struct Lab<'a> {
    cfg: &'a LabConfig,
    plan: &'a FaultPlan,
    control: &'a Control,
    dir: PathBuf,
    /// The state directory's layout (paths only; the server owns the
    /// store it writes through).
    layout: StateStore,
    proxy: FaultProxy,
    workload: Client,
    incarnation: Option<Incarnation>,
    bystander: Option<Bystander>,
    sid: u64,
    seen_handles: BTreeSet<u64>,
    completed: usize,
    fault_cursor: usize,
    quarantines: usize,
    restarts: usize,
}

impl Lab<'_> {
    fn fail(&self, stage: &str, message: impl Into<String>) -> LabFailure {
        LabFailure {
            seed: self.plan.seed,
            stage: stage.to_string(),
            message: message.into(),
            schedule: self.plan.describe(),
            applied: self.proxy.log(),
        }
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.incarnation.as_ref().expect("live incarnation").addr
    }

    /// A fresh fault-free connection straight to the current server
    /// incarnation — the runner's omniscient observer for invariant
    /// checks, deliberately outside the fault path.
    fn oracle(&self) -> Result<Client, LabFailure> {
        Client::connect_with(
            self.addr(),
            Duration::from_secs(10),
            Arc::new(SystemClock::new()),
            RetryPolicy::none(),
        )
        .map_err(|e| self.fail("oracle", format!("connecting oracle client: {e}")))
    }

    fn note_new_handle(&mut self, stage: &str, id: u64) -> Result<(), LabFailure> {
        if self.seen_handles.contains(&id) {
            return Err(self.fail(stage, format!("session handle {id} was reused")));
        }
        if let Some(&max) = self.seen_handles.iter().next_back() {
            if id <= max {
                return Err(self.fail(
                    stage,
                    format!("session handle {id} is not monotonic (saw {max} earlier)"),
                ));
            }
        }
        self.seen_handles.insert(id);
        Ok(())
    }

    /// Runs `op` with reconnect-and-retry on transient failures; every
    /// failure must classify as a documented one or the run fails.
    fn attempt<T>(
        &mut self,
        stage: &str,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
        mut on_transient: impl FnMut(&mut Self) -> Result<Option<T>, LabFailure>,
        mut on_reexplore: impl FnMut(&mut Self) -> Result<(), LabFailure>,
    ) -> Result<T, LabFailure> {
        for _ in 0..self.cfg.op_attempts {
            match op(&mut self.workload) {
                Ok(value) => return Ok(value),
                Err(error) => match classify(&error) {
                    Next::Retry => {
                        let _ = self.workload.reconnect();
                        if let Some(value) = on_transient(self)? {
                            return Ok(value);
                        }
                    }
                    Next::ReExplore => {
                        let _ = self.workload.reconnect();
                        on_reexplore(self)?;
                    }
                    Next::Fatal(message) => return Err(self.fail(stage, message)),
                },
            }
        }
        Err(self.fail(
            stage,
            format!(
                "op did not complete within {} attempts (possible hang or starvation)",
                self.cfg.op_attempts
            ),
        ))
    }

    /// Creates, explores and selects the bystander through the oracle,
    /// then records what it must recover to.
    fn set_up_bystander(&mut self) -> Result<(), LabFailure> {
        let stage = "bystander";
        let mut oracle = self.oracle()?;
        let id = oracle
            .create(None)
            .map_err(|e| self.fail(stage, format!("create: {e}")))?;
        self.note_new_handle(stage, id)?;
        oracle
            .explore(id)
            .map_err(|e| self.fail(stage, format!("explore: {e}")))?;
        let record = oracle
            .select(id, 0)
            .map_err(|e| self.fail(stage, format!("select: {e}")))?;
        let file = fs::read(self.layout.session_path(id))
            .map_err(|e| self.fail(stage, format!("reading its file: {e}")))?;
        self.bystander = Some(Bystander {
            id,
            history: vec![record],
            file,
        });
        Ok(())
    }

    /// Invariant 4: the bystander's file and history are unchanged.
    fn check_bystander(&self, oracle: &mut Client) -> Result<(), LabFailure> {
        let stage = "bystander";
        let bystander = self.bystander.as_ref().expect("bystander set up");
        let file = fs::read(self.layout.session_path(bystander.id)).map_err(|e| {
            self.fail(
                stage,
                format!("untouched session {} lost its file: {e}", bystander.id),
            )
        })?;
        if file != bystander.file {
            return Err(self.fail(
                stage,
                format!("untouched session {}'s file changed on disk", bystander.id),
            ));
        }
        let history = oracle.history(bystander.id).map_err(|e| {
            self.fail(
                stage,
                format!(
                    "untouched session {} lost across restart: {e}",
                    bystander.id
                ),
            )
        })?;
        if history != bystander.history {
            return Err(self.fail(
                stage,
                format!(
                    "untouched session {} recovered a different history",
                    bystander.id
                ),
            ));
        }
        Ok(())
    }

    /// Quarantined files in the state directory.
    fn corrupt_files(&self) -> Vec<PathBuf> {
        fs::read_dir(self.layout.path())
            .into_iter()
            .flatten()
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|x| x == "corrupt"))
            .collect()
    }

    fn op_create(&mut self, stage: &str) -> Result<(), LabFailure> {
        let id = self.attempt(
            stage,
            |c| c.create(None),
            |_| Ok(None),
            |lab| Err(lab.fail("create", "nothing_explored on a create")),
        )?;
        self.note_new_handle(stage, id)?;
        self.sid = id;
        Ok(())
    }

    fn op_explore(&mut self) -> Result<(), LabFailure> {
        let sid = self.sid;
        let frontier = self.attempt(
            "explore",
            move |c| c.explore(sid),
            |_| Ok(None),
            |lab| Err(lab.fail("explore", "nothing_explored on an explore")),
        )?;
        let digest = frontier_digest(&frontier);
        let expected = &self.control.frontier_digests[self.completed];
        if digest != *expected {
            return Err(self.fail(
                "explore",
                format!(
                    "frontier diverges from control at cycle {} (got {digest}, control {expected})",
                    self.completed + 1
                ),
            ));
        }
        Ok(())
    }

    /// After a failed select we cannot know whether it landed — ask the
    /// server directly and fast-forward if it did.
    fn resync_completed(&mut self) -> Result<bool, LabFailure> {
        let mut oracle = self.oracle()?;
        let sid = self.sid;
        let history = oracle
            .history(sid)
            .map_err(|e| self.fail("resync", format!("oracle history: {e}")))?;
        if history != self.control.records[..history.len().min(self.control.records.len())]
            || history.len() > self.control.records.len()
        {
            return Err(self.fail(
                "resync",
                format!(
                    "server history diverges from control after {} records",
                    history.len()
                ),
            ));
        }
        if history.len() > self.completed {
            self.completed = history.len();
            return Ok(true);
        }
        Ok(false)
    }

    fn op_select(&mut self) -> Result<(), LabFailure> {
        let sid = self.sid;
        let before = self.completed;
        let outcome = self.attempt(
            "select",
            move |c| c.select(sid, 0).map(Some),
            |lab| {
                if lab.resync_completed()? {
                    Ok(Some(None)) // the select landed; response was lost
                } else {
                    Ok(None)
                }
            },
            |lab| {
                // Exploration lost (restart) or consumed (select landed but
                // the resync already accounted for it): explore again.
                lab.op_explore()
            },
        )?;
        if let Some(record) = outcome {
            let expected = &self.control.records[before];
            if record != *expected {
                return Err(self.fail(
                    "select",
                    format!(
                        "iteration record diverges from control at cycle {}: got {}, control {}",
                        before + 1,
                        record.to_json_string(),
                        expected.to_json_string()
                    ),
                ));
            }
            self.completed = before + 1;
        }
        Ok(())
    }

    fn op_final_history(&mut self) -> Result<Vec<IterationRecord>, LabFailure> {
        let sid = self.sid;
        let history = self.attempt(
            "history",
            move |c| c.history(sid),
            |_| Ok(None),
            |lab| Err(lab.fail("history", "nothing_explored on a history read")),
        )?;
        if history != self.control.records {
            return Err(self.fail(
                "history",
                format!(
                    "final history diverges from control ({} vs {} records)",
                    history.len(),
                    self.control.records.len()
                ),
            ));
        }
        Ok(history)
    }

    /// Arms the torn-write hook when the upcoming op is the target of a
    /// torn-write fault — the tear must corrupt *that op's* snapshot save.
    fn arm_before_op(&mut self, op_index: usize) {
        let Some((fault_op, fault)) = self.plan.process.get(self.fault_cursor) else {
            return;
        };
        if *fault_op != op_index {
            return;
        }
        let hook = &self.incarnation.as_ref().expect("live incarnation").hook;
        match fault {
            ProcessFault::TornTempThenKill { keep_bytes } => hook.arm(TornWrite::TempOnly {
                keep_bytes: *keep_bytes,
            }),
            ProcessFault::TornFinalThenKill { keep_bytes } => hook.arm(TornWrite::Final {
                keep_bytes: *keep_bytes,
            }),
            ProcessFault::KillRestart => {}
        }
    }

    /// Fires the process fault scheduled after `op_index`, if any.
    fn fault_after_op(&mut self, op_index: usize) -> Result<(), LabFailure> {
        let Some((fault_op, fault)) = self.plan.process.get(self.fault_cursor) else {
            return Ok(());
        };
        if *fault_op != op_index {
            return Ok(());
        }
        let fault = fault.clone();
        self.fault_cursor += 1;
        match fault {
            ProcessFault::KillRestart => self.restart(false, false),
            ProcessFault::TornTempThenKill { .. } => self.restart(false, true),
            ProcessFault::TornFinalThenKill { .. } => self.restart(true, false),
        }
    }

    fn restart(
        &mut self,
        expect_quarantine: bool,
        rollback_allowed: bool,
    ) -> Result<(), LabFailure> {
        let incarnation = self.incarnation.take().expect("live incarnation");
        incarnation.kill();
        self.restarts += 1;
        if mutation_enabled() {
            mutate_snapshot(&self.layout.session_path(self.sid));
        }
        let incarnation =
            Incarnation::start(&self.dir, self.cfg).map_err(|e| self.fail("restart", e))?;
        self.proxy.set_backend(incarnation.addr);
        self.incarnation = Some(incarnation);
        let mut oracle = self.oracle()?;
        self.check_bystander(&mut oracle)?;
        let corrupt = self.corrupt_files();
        if expect_quarantine {
            let torn = self.layout.quarantine_path(self.sid);
            if corrupt != [torn.clone()] {
                return Err(self.fail(
                    "restart",
                    format!(
                        "a torn final write must quarantine {} alone, found {corrupt:?}",
                        torn.display()
                    ),
                ));
            }
            match oracle.history(self.sid) {
                Err(ClientError::Api { status: 404, .. }) => {}
                other => {
                    return Err(self.fail(
                        "restart",
                        format!(
                            "session {} was restored from a mangled file: {other:?}",
                            self.sid
                        ),
                    ))
                }
            }
            let counted = oracle
                .metric_value("poiesis_snapshot_quarantined_total")
                .map_err(|e| self.fail("restart", format!("quarantine metric: {e}")))?;
            if counted != 1.0 {
                return Err(self.fail(
                    "restart",
                    format!("one file was quarantined but poiesis_snapshot_quarantined_total is {counted}"),
                ));
            }
            let _ = fs::remove_file(&torn);
            self.quarantines += 1;
            // Only the torn session is gone; handles stay unique, so the
            // replacement must still be issued a fresh one.
            self.completed = 0;
            self.op_create("create (post-quarantine)")?;
            return Ok(());
        }
        if !corrupt.is_empty() {
            return Err(self.fail(
                "restart",
                format!("a cleanly written session file was quarantined: {corrupt:?}"),
            ));
        }
        let history = match oracle.history(self.sid) {
            Ok(history) => history,
            Err(e) => {
                return Err(self.fail(
                    "restart",
                    format!("session {} lost across restart: {e}", self.sid),
                ))
            }
        };
        let floor = if rollback_allowed {
            self.completed.saturating_sub(1)
        } else {
            self.completed
        };
        if history.len() > self.completed || history.len() < floor {
            return Err(self.fail(
                "restart",
                format!(
                    "recovered {} cycle(s); the workload had {} durable (rollback allowed: {})",
                    history.len(),
                    self.completed,
                    rollback_allowed
                ),
            ));
        }
        if history != self.control.records[..history.len()] {
            return Err(self.fail("restart", "recovered history diverges from the control run"));
        }
        self.completed = history.len();
        // Handle-uniqueness probe: a fresh create must never reuse a
        // handle issued before the restart.
        let probe = oracle
            .create(None)
            .map_err(|e| self.fail("restart", format!("probe create: {e}")))?;
        self.note_new_handle("restart", probe)?;
        oracle
            .close(probe)
            .map_err(|e| self.fail("restart", format!("probe close: {e}")))?;
        Ok(())
    }
}

/// Runs one seed end to end. See the module docs for the invariants.
pub fn run_seed(seed: u64, cfg: &LabConfig) -> Result<LabReport, LabFailure> {
    let plan = FaultPlan::from_seed(seed, cfg.cycles, cfg.wire_slots);
    let bare_failure = |stage: &str, message: String| LabFailure {
        seed,
        stage: stage.to_string(),
        message,
        schedule: plan.describe(),
        applied: Vec::new(),
    };
    let control = control_run(cfg, seed).map_err(|e| bare_failure("control", e))?;

    let dir = lab_dir(seed, "faulted");
    reset_dir(&dir).map_err(|e| bare_failure("setup", format!("lab dir: {e}")))?;
    let clock = Arc::new(SimClock::new());
    let incarnation = Incarnation::start(&dir, cfg).map_err(|e| bare_failure("setup", e))?;
    let proxy = FaultProxy::spawn(
        plan.wire.clone(),
        incarnation.addr,
        Arc::clone(&clock),
        cfg.stall_hold,
    )
    .map_err(|e| bare_failure("setup", format!("proxy: {e}")))?;
    let workload = Client::connect_with(
        proxy.addr(),
        cfg.client_timeout,
        Arc::clone(&clock) as Arc<dyn Clock>,
        RetryPolicy::default(),
    )
    .map_err(|e| bare_failure("setup", format!("workload client: {e}")))?;

    let layout = StateStore::open(&dir).map_err(|e| bare_failure("setup", format!("{e}")))?;
    let mut lab = Lab {
        cfg,
        plan: &plan,
        control: &control,
        dir: dir.clone(),
        layout,
        proxy,
        workload,
        incarnation: Some(incarnation),
        bystander: None,
        sid: 0,
        seen_handles: BTreeSet::new(),
        completed: 0,
        fault_cursor: 0,
        quarantines: 0,
        restarts: 0,
    };

    // ---- the bystander, then the nominal workload: create, then
    // explore/select until the workload has cfg.cycles durable cycles,
    // then read history back.
    lab.set_up_bystander()?;
    lab.arm_before_op(0);
    lab.op_create("create")?;
    lab.fault_after_op(0)?;
    let mut op_index = 1;
    let op_budget = 10 * (2 * cfg.cycles + 2);
    while lab.completed < cfg.cycles {
        if op_index > op_budget {
            return Err(lab.fail("workload", "runner did not converge within its op budget"));
        }
        lab.arm_before_op(op_index);
        lab.op_explore()?;
        lab.fault_after_op(op_index)?;
        op_index += 1;

        lab.arm_before_op(op_index);
        lab.op_select()?;
        lab.fault_after_op(op_index)?;
        op_index += 1;
    }
    let history = lab.op_final_history()?;

    // ---- the virtual-wait invariant: every Retry-After second the
    // client honoured (1 s per retry here) is on the sim clock.
    let retries = lab.workload.retries();
    if clock.total_slept() != Duration::from_secs(retries) {
        return Err(lab.fail(
            "clock",
            format!(
                "client waited {:?} virtually for {retries} retries (expected {retries} s)",
                clock.total_slept()
            ),
        ));
    }

    // ---- teardown + report
    let exchanges = lab.proxy.exchanges();
    if let Some(incarnation) = lab.incarnation.take() {
        incarnation.kill();
    }
    lab.proxy.stop();
    let _ = fs::remove_dir_all(&dir);

    let outcome = format!(
        "schedule={} exchanges={exchanges} retries={retries} quarantines={} restarts={} history={}",
        plan.describe(),
        lab.quarantines,
        lab.restarts,
        history
            .iter()
            .map(|r| r.to_json_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    Ok(LabReport {
        seed,
        cycles: cfg.cycles,
        wire_exchanges: exchanges,
        client_retries: retries,
        virtual_wait: clock.total_slept(),
        quarantines: lab.quarantines,
        restarts: lab.restarts,
        outcome_digest: digest_lines(&[outcome]),
        schedule: plan.describe(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_tamper_keeps_the_snapshot_loadable_but_divergent() {
        let dir = std::env::temp_dir().join(format!("simlab-mutate-{}", std::process::id()));
        reset_dir(&dir).unwrap();
        let record = IterationRecord {
            cycle: 1,
            selected: "alt".to_string(),
            integrated: vec!["p".to_string()],
            scores: vec![0.5],
        };
        let session = SessionSnapshot {
            id: 1,
            base_name: "flow".to_string(),
            flow_xlm: "<xlm/>".to_string(),
            request: poiesis::PlanRequest::default(),
            history: vec![record.clone()],
        };
        let store = StateStore::open(&dir).unwrap();
        store.write_next_id(2).unwrap();
        store.write_session(&session).unwrap();
        mutate_snapshot(&store.session_path(1));
        // the startup load runs every check: the tamper passes them
        let tampered = store.load_or_quarantine().unwrap();
        assert!(
            tampered.quarantined.is_empty(),
            "tamper must stay loadable: {:?}",
            tampered.quarantined
        );
        assert_ne!(
            tampered.sessions[0].history[0], record,
            "tamper must diverge from the original"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
