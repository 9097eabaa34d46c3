//! Pattern application (Fig. 3, second stage): materialise an alternative
//! flow by applying a combination of candidates to a fork of the base flow.

use crate::generate::Candidate;
use etl_model::{EtlFlow, NodeId, SchemaTable};
use fcp::{ApplicationPoint, AppliedPattern, PatternContext, PatternError};

/// Applies a combination of candidates to a fork of `base`, named `name`.
///
/// Structural (node/edge) applications run before graph-level ones so that
/// graph patterns see the final topology. Within the structural group,
/// applications run in candidate order — stable ids make this safe: an
/// interposition keeps the original edge id alive and a node replacement
/// preserves boundary edges, so later candidates' points stay valid unless
/// genuinely conflicting, in which case the pattern itself reports
/// [`PatternError::NotApplicable`] and the whole combination is discarded.
pub fn apply_combination(
    base: &EtlFlow,
    combo: &[&Candidate],
    name: impl Into<String>,
) -> Result<(EtlFlow, Vec<AppliedPattern>), PatternError> {
    let mut flow = base.fork(name);
    let mut applied = Vec::with_capacity(combo.len());
    let (structural, graph_level): (Vec<&Candidate>, Vec<&Candidate>) = combo
        .iter()
        .copied()
        .partition(|c| c.point != ApplicationPoint::Graph);
    for c in structural.into_iter().chain(graph_level) {
        applied.push(c.pattern.apply(&mut flow, c.point)?);
    }
    // Each `apply` checks its pattern's preconditions on the flow it edits.
    // Validity of the result is checked by the planner's static post-screen
    // (`PlannerConfig::prescreen`), not asserted here: a pattern that breaks
    // the flow must surface as a counted rejection, never a panic.
    Ok((flow, applied))
}

/// How [`apply_combination_incremental`]'s carried schema table ended up
/// after the last application.
pub enum CarriedTable {
    /// The table is exact for the returned flow — structurally equal to
    /// `propagate_schemas(&flow)`. Callers can skip schema re-validation.
    Exact {
        /// The fork's copy-on-write delta against the base, as of the last
        /// application — shared so callers don't recompute it.
        cow: etl_model::CowDelta,
    },
    /// The combination broke schema propagation; a full screen of the
    /// returned flow would report this error (or a structural one).
    Broken(etl_model::SchemaError),
}

/// The incremental counterpart of [`apply_combination`]: identical result,
/// O(patch) instead of O(flow) per application.
///
/// `base_schemas` is `base`'s schema table, computed once per planning
/// cycle. The fork starts with an `Arc`-shared clone of that table, and
/// each candidate, in [`apply_combination`]'s order, runs one step (see
/// `apply_step`): the candidate's full
/// [`Pattern::applicable`](fcp::Pattern::applicable) check against the
/// carried table (built-ins add conjunctive schema conditions beyond their
/// declared prerequisites), the structural edit through
/// [`Pattern::apply_unchecked`](fcp::Pattern::apply_unchecked) without
/// rebuilding an O(flow) context, and an in-place repair of the table via
/// [`etl_model::repair_table`] — O(patch) for schema-passthrough patterns,
/// O(downstream of the patch) only when schemas genuinely changed. The
/// repair is seeded from the nodes that application added when its pattern
/// declares [`patch_confined_to_added_nodes`](fcp::Pattern::patch_confined_to_added_nodes),
/// else from every node the fork has touched since `base`. When the repair
/// reports `false` (it gave up, or met a schema error it cannot vouch for),
/// the table is re-propagated from scratch and that verdict counts.
/// Application order and failure behaviour match [`apply_combination`]
/// exactly — the planner's equivalence tests assert bit-identical
/// alternatives and rejection counts. The returned [`CarriedTable`] reports
/// whether the final table is exact, letting the post-screen skip schema
/// propagation entirely.
///
/// The planner runs the same step through a `PrefixStack`, which reuses
/// the applied prefix a combination shares with the one before it.
pub fn apply_combination_incremental(
    base: &EtlFlow,
    combo: &[&Candidate],
    name: impl Into<String>,
    base_schemas: &SchemaTable,
) -> Result<(EtlFlow, Vec<AppliedPattern>, CarriedTable), PatternError> {
    let mut flow = base.fork(name);
    let mut applied = Vec::with_capacity(combo.len());
    let mut repaired: Result<SchemaTable, etl_model::SchemaError> = Ok(base_schemas.clone());
    for c in application_order(combo, |c| c.point == ApplicationPoint::Graph) {
        // a step whose repair erred leaves no table for the next one
        let table = repaired.map_err(|e| PatternError::Graph(e.to_string()))?;
        let (a, r) = apply_step(base, &mut flow, table, c)?;
        applied.push(a);
        repaired = r;
    }
    let (carried, _) = carried(base, &flow, repaired);
    Ok((flow, applied, carried))
}

/// The [`CarriedTable`] verdict on `flow` from its last step's repair, and
/// the repaired table when there is one.
fn carried(
    base: &EtlFlow,
    flow: &EtlFlow,
    repaired: Result<SchemaTable, etl_model::SchemaError>,
) -> (CarriedTable, Option<SchemaTable>) {
    match repaired {
        Ok(table) => {
            let cow = flow.delta_since(base);
            (CarriedTable::Exact { cow }, Some(table))
        }
        Err(e) => (CarriedTable::Broken(e), None),
    }
}

/// The order a combination's candidates are applied in: structural
/// (node/edge) ones in combination order, then graph-level ones, so that
/// graph patterns see the final topology.
fn application_order<'a, T: Copy>(
    combo: &'a [T],
    graph_level: impl Fn(T) -> bool + Copy + 'a,
) -> impl Iterator<Item = T> + 'a {
    let structural = combo.iter().copied().filter(move |&t| !graph_level(t));
    structural.chain(combo.iter().copied().filter(move |&t| graph_level(t)))
}

/// One step of the incremental apply: checks `c` against `flow`'s exact
/// schema `table`, edits `flow`, and makes the table exact for the edited
/// flow — or returns the schema error a full propagation of it reports.
fn apply_step(
    base: &EtlFlow,
    flow: &mut EtlFlow,
    table: SchemaTable,
    c: &Candidate,
) -> Result<(AppliedPattern, Result<SchemaTable, etl_model::SchemaError>), PatternError> {
    let ctx = PatternContext::with_schemas(flow, table);
    if !c.pattern.applicable(&ctx, c.point) {
        return Err(PatternError::NotApplicable {
            pattern: c.pattern.name().to_string(),
            point: c.point.describe(flow),
        });
    }
    let mut table = ctx.into_schemas();
    let a = c.pattern.apply_unchecked(flow, c.point, &table)?;
    // An edit confined to the added nodes needs no delta derivation; any
    // other edit (e.g. one that rewrites an operation in place) unshares
    // what it touched, so the fork's delta covers it.
    let repaired = if c.pattern.patch_confined_to_added_nodes() {
        repair_or_propagate(flow, &mut table, &a.added_nodes)
    } else {
        repair_or_propagate(flow, &mut table, &flow.delta_since(base).touched_nodes)
    };
    Ok((a, repaired.map(|()| table)))
}

/// Makes `table` exact for `flow` after one application: repairs it from
/// `seeds`, else re-propagates the whole flow, whose error is the verdict.
fn repair_or_propagate(
    flow: &EtlFlow,
    table: &mut SchemaTable,
    seeds: &[NodeId],
) -> Result<(), etl_model::SchemaError> {
    if !etl_model::repair_table(flow, table, seeds) {
        *table = etl_model::propagate_schemas(flow)?;
    }
    Ok(())
}

/// A worker's cache of applied prefixes: [`apply_combination_incremental`]
/// for combinations given as candidate indices, reusing every step the
/// combination's application order shares with the previous one.
///
/// Every search strategy builds a combination by extending a parent —
/// consecutive k-subsets of the exhaustive cursor share their first k−1
/// candidates, beam and greedy extend their survivors — so a stack of the
/// last combination's applied prefixes turns ≈k steps per combination into
/// ≈1. Level `i` holds the state after applying the first `i + 1`
/// candidates of that order, or the marker that a step up to it failed.
/// The stack never holds a combination's last step: its fork is the
/// result, moved to the caller. Each level is a copy-on-write fork of the
/// level below it, so a step never mutates the state it extends and every
/// fork's [`delta_since`](EtlFlow::delta_since) the base is the one a
/// single fork of the base would report.
///
/// Forks are recycled. Every fork is a spare flow and a spare schema
/// table refreshed in place from the state it extends (`clone_from` and
/// [`etl_model::refresh_slots`]), and a fresh fork is the refresh of an
/// empty spare. A refresh replaces only the slots where the spare differs
/// from its source — typically the few the spare's last patch unshared.
/// Popped levels, failed steps, the last step's table and the forks the
/// caller hands back through [`recycle`](Self::recycle) become spares
/// instead of being dropped.
///
/// A stack serves one base flow and one base schema table; build a new one
/// when either changes.
#[derive(Default)]
pub(crate) struct PrefixStack {
    /// `(candidate index, state)` per level; `None` marks a failed step,
    /// and only the top level can be one.
    levels: Vec<(usize, Option<Level>)>,
    /// Application order of the current combination (reused buffer).
    order: Vec<usize>,
    /// Flows and tables out of use, the next forks' storage.
    spares: Spares,
    /// Steps run so far — how many applications the reuse left to do.
    #[cfg(test)]
    steps: usize,
}

/// A [`PrefixStack`]'s spare flows and schema tables. Each pool keeps at
/// most one more than the current combination's length, which is all one
/// combination can have in use: its prefix levels and its result.
#[derive(Default)]
struct Spares {
    flows: Vec<EtlFlow>,
    tables: Vec<SchemaTable>,
}

impl Spares {
    /// An unnamed fork of `flow` with a copy of its exact `table`, refreshed
    /// into spares.
    fn fork(&mut self, flow: &EtlFlow, table: &SchemaTable) -> (EtlFlow, SchemaTable) {
        let mut fork = self
            .flows
            .pop()
            .unwrap_or_else(|| EtlFlow::new(String::new()));
        fork.clone_from(flow);
        fork.name.clear();
        let mut fork_table = self.tables.pop().unwrap_or_default();
        etl_model::refresh_slots(&mut fork_table, table);
        (fork, fork_table)
    }

    /// Keeps the flows and tables of popped `levels`.
    fn reclaim(&mut self, levels: impl Iterator<Item = (usize, Option<Level>)>, depth: usize) {
        for level in levels.filter_map(|(_, l)| l) {
            keep(&mut self.flows, level.flow, depth);
            keep(&mut self.tables, level.table, depth);
        }
    }
}

/// Adds `spare` to `pool` while it holds fewer than `depth + 1`.
fn keep<T>(pool: &mut Vec<T>, spare: T, depth: usize) {
    if pool.len() <= depth {
        pool.push(spare);
    }
}

/// An applied prefix: the fork after its last step, that step's record and
/// the fork's exact schema table.
struct Level {
    flow: EtlFlow,
    applied: AppliedPattern,
    table: SchemaTable,
}

impl PrefixStack {
    /// Applies `combo` (indices into `candidates`) to an unnamed fork of
    /// `base`, with the outcome of [`apply_combination_incremental`]:
    /// `None` where that returns an error, else the alternative, the last
    /// step's applied pattern (`None` for an empty combination) and the
    /// carried table's verdict.
    ///
    /// The records of the steps before the last stay on the stack, where
    /// [`prefix_records`](Self::prefix_records) reads them until the next
    /// call: they are not cloned for every combination, since most
    /// combinations are dominated and never need them. The caller names
    /// the fork for the same reason.
    pub(crate) fn apply(
        &mut self,
        base: &EtlFlow,
        base_schemas: &SchemaTable,
        candidates: &[Candidate],
        combo: &[usize],
    ) -> Option<(EtlFlow, Option<AppliedPattern>, CarriedTable)> {
        self.order.clear();
        self.order.extend(application_order(combo, |i| {
            candidates[i].point == ApplicationPoint::Graph
        }));
        let depth = self.order.len();
        let Some((&last, prefix)) = self.order.split_last() else {
            self.spares.reclaim(self.levels.drain(..), depth);
            let (flow, table) = self.spares.fork(base, base_schemas);
            keep(&mut self.spares.tables, table, depth);
            let cow = flow.delta_since(base);
            return Some((flow, None, CarriedTable::Exact { cow }));
        };
        let shared = self
            .levels
            .iter()
            .zip(prefix)
            .take_while(|((i, _), j)| i == *j)
            .count();
        self.spares.reclaim(self.levels.drain(shared..), depth);
        for &i in &prefix[shared..] {
            let (top, top_table) = top(&self.levels, base, base_schemas)?;
            let (mut flow, table) = self.spares.fork(top, top_table);
            #[cfg(test)]
            {
                self.steps += 1;
            }
            let level = match apply_step(base, &mut flow, table, &candidates[i]) {
                Ok((applied, Ok(table))) => Some(Level {
                    flow,
                    applied,
                    table,
                }),
                // a failed step, or a repair error the next step would meet
                _ => {
                    keep(&mut self.spares.flows, flow, depth);
                    None
                }
            };
            self.levels.push((i, level));
        }
        let (top, top_table) = top(&self.levels, base, base_schemas)?;
        let (mut flow, table) = self.spares.fork(top, top_table);
        #[cfg(test)]
        {
            self.steps += 1;
        }
        let Ok((a, repaired)) = apply_step(base, &mut flow, table, &candidates[last]) else {
            keep(&mut self.spares.flows, flow, depth);
            return None;
        };
        let (carried, table) = carried(base, &flow, repaired);
        if let Some(table) = table {
            keep(&mut self.spares.tables, table, depth);
        }
        Some((flow, Some(a), carried))
    }

    /// Takes back a fork [`apply`](Self::apply) returned that the caller
    /// no longer needs, as storage for a later fork.
    pub(crate) fn recycle(&mut self, flow: EtlFlow) {
        keep(&mut self.spares.flows, flow, self.order.len());
    }

    /// The applied patterns of every step before the last of the
    /// combination the latest successful [`apply`](Self::apply) returned,
    /// in application order.
    pub(crate) fn prefix_records(&self) -> impl Iterator<Item = &AppliedPattern> {
        self.levels.iter().flat_map(|(_, l)| l).map(|l| &l.applied)
    }
}

/// The state the next step extends: the top level's fork and exact schema
/// table — the base's when the stack is empty — or `None` when that level
/// failed.
fn top<'a>(
    levels: &'a [(usize, Option<Level>)],
    base: &'a EtlFlow,
    base_schemas: &'a SchemaTable,
) -> Option<(&'a EtlFlow, &'a SchemaTable)> {
    match levels.last() {
        None => Some((base, base_schemas)),
        Some((_, level)) => level.as_ref().map(|l| (&l.flow, &l.table)),
    }
}

/// Derives a deterministic alternative name from the combination.
///
/// Convenience wrapper that re-derives every label on each call; hot paths
/// (the planner walks up to hundreds of thousands of combinations per
/// cycle) build a [`LabelTable`] once and use [`LabelTable::name`].
pub fn combination_name(base: &EtlFlow, combo: &[&Candidate]) -> String {
    let mut parts: Vec<String> = combo.iter().map(|c| c.label()).collect();
    parts.sort();
    format!("{}+{}", base.name, parts.join("+"))
}

/// Per-cycle candidate label table: every candidate's
/// `"Pattern@point"` label plus its rank in the global label sort order,
/// computed once so that naming a combination needs only an integer sort
/// and one string allocation — no label re-derivation, no string
/// comparisons per combination.
pub struct LabelTable {
    labels: Vec<String>,
    rank: Vec<usize>,
}

impl LabelTable {
    /// Derives and ranks the labels of `candidates` (indices align).
    pub fn new(candidates: &[Candidate]) -> Self {
        let labels: Vec<String> = candidates.iter().map(|c| c.label()).collect();
        let mut order: Vec<usize> = (0..labels.len()).collect();
        order.sort_by(|&a, &b| labels[a].cmp(&labels[b]));
        let mut rank = vec![0usize; labels.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        LabelTable { labels, rank }
    }

    /// The alternative name for a combination given as candidate indices.
    /// Produces exactly the string [`combination_name`] would: ranks are
    /// assigned by a stable label sort, so ordering indices by rank orders
    /// their labels; equal labels join identically in either order.
    pub fn name(&self, base: &EtlFlow, combo: &[usize]) -> String {
        let mut idx: Vec<usize> = combo.to_vec();
        idx.sort_unstable_by_key(|&i| self.rank[i]);
        let mut s = String::with_capacity(
            base.name.len() + idx.iter().map(|&i| self.labels[i].len() + 1).sum::<usize>(),
        );
        s.push_str(&base.name);
        for &i in &idx {
            s.push('+');
            s.push_str(&self.labels[i]);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_uncapped;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use fcp::{DeploymentPolicy, PatternRegistry};

    fn setup() -> (EtlFlow, Vec<Candidate>) {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(100, &DirtProfile::demo(), 1);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        let cands = generate_uncapped(&f, &reg).unwrap();
        (f, cands)
    }

    #[test]
    fn single_candidate_application() {
        let (f, cands) = setup();
        let c = cands
            .iter()
            .find(|c| c.pattern.name() == "AddCheckpoint")
            .unwrap();
        let (alt, applied) = apply_combination(&f, &[c], "alt_1").unwrap();
        assert_eq!(alt.name, "alt_1");
        assert_eq!(applied.len(), 1);
        assert_eq!(alt.op_count(), f.op_count() + 1);
        alt.validate().unwrap();
        // base untouched
        assert_eq!(f.name, "s_purchases");
    }

    #[test]
    fn multi_pattern_combination() {
        let (f, cands) = setup();
        let cp = cands
            .iter()
            .find(|c| c.pattern.name() == "AddCheckpoint")
            .unwrap();
        let par = cands
            .iter()
            .find(|c| c.pattern.name() == "ParallelizeTask")
            .unwrap();
        let enc = cands
            .iter()
            .find(|c| c.pattern.name() == "EncryptChannels")
            .unwrap();
        let (alt, applied) = apply_combination(&f, &[cp, par, enc], "combo").unwrap();
        assert_eq!(applied.len(), 3);
        // +1 checkpoint, +3 parallelize (partition+2 replicas+merge−original)
        assert_eq!(alt.op_count(), f.op_count() + 4);
        assert!(alt.config.encrypted);
        alt.validate().unwrap();
    }

    #[test]
    fn checkpoint_on_edge_into_parallelized_node_still_works() {
        // Apply a checkpoint on the edge feeding DERIVE VALUES, then
        // parallelize DERIVE VALUES: the retargeted boundary edge must keep
        // the checkpoint upstream and the combination stays valid.
        let (f, cands) = setup();
        let (flow0, ids) = purchases_flow();
        drop(flow0);
        let into_derive = f.graph.in_edges(ids.derive_values).next().unwrap();
        let cp = cands
            .iter()
            .find(|c| {
                c.pattern.name() == "AddCheckpoint"
                    && c.point == fcp::ApplicationPoint::Edge(into_derive)
            })
            .expect("checkpoint candidate on the derive's in-edge");
        let par = cands
            .iter()
            .find(|c| {
                c.pattern.name() == "ParallelizeTask"
                    && c.point == fcp::ApplicationPoint::Node(ids.derive_values)
            })
            .unwrap();
        let (alt, _) = apply_combination(&f, &[cp, par], "cp_then_par").unwrap();
        alt.validate().unwrap();
        assert_eq!(alt.ops_of_kind("checkpoint").len(), 1);
        assert_eq!(alt.ops_of_kind("partition").len(), 1);
    }

    #[test]
    fn conflicting_combination_reports_not_applicable() {
        let (f, cands) = setup();
        // two ParallelizeTask on the same node = same point; the explorer
        // filters these, but apply must also fail safe.
        let par: Vec<&Candidate> = cands
            .iter()
            .filter(|c| c.pattern.name() == "ParallelizeTask")
            .collect();
        assert!(!par.is_empty());
        let c = par[0];
        let err = apply_combination(&f, &[c, c], "dup").unwrap_err();
        assert!(matches!(err, PatternError::NotApplicable { .. }));
    }

    #[test]
    fn names_are_deterministic_and_order_insensitive() {
        let (f, cands) = setup();
        let a = &cands[0];
        let b = cands
            .iter()
            .find(|c| c.pattern.name() != a.pattern.name())
            .unwrap();
        assert_eq!(combination_name(&f, &[a, b]), combination_name(&f, &[b, a]));
    }

    /// An outcome in comparable form: the flow's debug print (its
    /// structure and operations), its applied patterns, the carried
    /// table's verdict and the flow's delta since the base.
    type Outcome = (String, Vec<String>, String, String);

    fn comparable(
        base: &EtlFlow,
        flow: &EtlFlow,
        applied: &[AppliedPattern],
        carried: &CarriedTable,
    ) -> Outcome {
        let verdict = match carried {
            CarriedTable::Exact { cow } => format!("exact {cow:?}"),
            CarriedTable::Broken(e) => format!("broken {e}"),
        };
        let applied = applied.iter().map(|a| format!("{a:?}")).collect();
        let delta = format!("{:?}", flow.delta_since(base));
        (format!("{flow:?}"), applied, verdict, delta)
    }

    /// Applies `combo` on `stack` and asserts the outcome equals the
    /// one-shot incremental apply's; returns it. The stacked outcome is
    /// assembled as the planner assembles a kept design: the fork named
    /// afterwards, its records read from the stack's prefix plus the last
    /// step's. The fork then goes back to the stack, as the planner hands
    /// back a dropped design, so every later fork is a recycled one. Every
    /// stacked level's schema table must be the exact table of its flow,
    /// and a fork of the base or of any level refreshed from the current
    /// spares must share every slot with its source.
    fn stack_apply(
        stack: &mut PrefixStack,
        base: &EtlFlow,
        candidates: &[Candidate],
        combo: &[usize],
    ) -> Option<Outcome> {
        let schemas = etl_model::propagate_schemas(base).unwrap();
        let name = format!("combo{combo:?}");
        let refs: Vec<&Candidate> = combo.iter().map(|&i| &candidates[i]).collect();
        let one_shot = apply_combination_incremental(base, &refs, name.clone(), &schemas)
            .ok()
            .map(|(flow, applied, carried)| comparable(base, &flow, &applied, &carried));
        let stacked =
            stack
                .apply(base, &schemas, candidates, combo)
                .map(|(mut flow, last, carried)| {
                    flow.name = name;
                    let applied: Vec<_> = stack.prefix_records().chain(&last).cloned().collect();
                    let outcome = comparable(base, &flow, &applied, &carried);
                    stack.recycle(flow);
                    outcome
                });
        assert_eq!(stacked, one_shot, "stack diverged on {combo:?}");
        let levels = stack.levels.iter().flat_map(|(_, l)| l);
        for level in levels.clone() {
            let exact = etl_model::propagate_schemas(&level.flow).unwrap();
            assert_eq!(level.table, exact, "a level's table on {combo:?}");
        }
        let sources = std::iter::once((base, &schemas)).chain(levels.map(|l| (&l.flow, &l.table)));
        let forks: Vec<_> = sources
            .map(|(flow, table)| {
                let (fork, fork_table) = stack.spares.fork(flow, table);
                assert_eq!(fork.graph.shared_node_slots(&flow.graph), flow.op_count());
                assert!(fork.delta_since(flow).is_empty());
                assert_eq!(format!("{:?}", fork.graph), format!("{:?}", flow.graph));
                assert_eq!(fork.config, flow.config);
                let shared = |(a, b): (&Option<_>, &Option<_>)| match (a, b) {
                    (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
                    (a, b) => a.is_none() && b.is_none(),
                };
                assert_eq!(fork_table.len(), table.len());
                assert!(
                    fork_table.iter().zip(table).all(shared),
                    "a stale table slot"
                );
                (fork, fork_table)
            })
            .collect();
        for (fork, table) in forks {
            keep(&mut stack.spares.flows, fork, combo.len());
            keep(&mut stack.spares.tables, table, combo.len());
        }
        stacked
    }

    #[test]
    fn prefix_stack_keys_levels_by_application_order() {
        let (f, cands) = setup();
        let graph = |i: &usize| cands[*i].point == ApplicationPoint::Graph;
        let g = (0..cands.len())
            .find(graph)
            .expect("a graph-level candidate");
        let structural: Vec<usize> = (0..cands.len()).filter(|i| !graph(i)).collect();
        let (a, c, d) = (structural[0], structural[1], structural[2]);
        let mut stack = PrefixStack::default();
        // applied as [a, c, G], then [a, d, G]: only `a` is shared
        assert!(stack_apply(&mut stack, &f, &cands, &[a, g, c]).is_some());
        assert_eq!(stack.steps, 3);
        assert!(stack_apply(&mut stack, &f, &cands, &[a, g, d]).is_some());
        assert_eq!(stack.steps, 5);
        // [a, d, G, c] extends nothing stacked past `a, d`
        stack_apply(&mut stack, &f, &cands, &[a, d, c, g]);
        assert_eq!(stack.steps, 7);
    }

    #[test]
    fn prefix_stack_matches_the_one_shot_apply_on_an_exhaustive_walk() {
        // Every combination of up to three candidates, a step that always
        // fails and a schema-breaking graph-level step among them; each
        // returned fork is recycled.
        let (f, mut cands) = setup();
        let filter = f.ops_of_kind("filter")[0];
        cands.push(faulty(false, ApplicationPoint::Node(filter)));
        cands.push(faulty(true, ApplicationPoint::Graph));
        let policy = DeploymentPolicy::exhaustive(3);
        let mut stack = PrefixStack::default();
        let (mut applied, mut combos) = (0, 0);
        for combo in crate::explore::CombinationIter::new(&cands, &policy, usize::MAX) {
            applied += usize::from(stack_apply(&mut stack, &f, &cands, &combo).is_some());
            combos += 1;
        }
        assert!(
            applied > 500,
            "only {applied} of {combos} combinations applied"
        );
        assert!(applied < combos, "the failing step fails combinations");
        assert!(!stack.spares.flows.is_empty() && !stack.spares.tables.is_empty());
    }

    /// A test pattern at a fixed point whose edit either fails outright or
    /// leaves a filter reading a column no schema has.
    struct Faulty {
        breaks_schema: bool,
    }

    impl fcp::Pattern for Faulty {
        fn name(&self) -> &str {
            if self.breaks_schema {
                "GhostFilter"
            } else {
                "Refused"
            }
        }

        fn improves(&self) -> quality::Characteristic {
            quality::Characteristic::DataQuality
        }

        fn prerequisites(&self) -> Vec<fcp::Prerequisite> {
            Vec::new()
        }

        fn apply_unchecked(
            &self,
            flow: &mut EtlFlow,
            point: ApplicationPoint,
            _schemas: &SchemaTable,
        ) -> Result<AppliedPattern, PatternError> {
            if !self.breaks_schema {
                return Err(PatternError::Graph("refused".into()));
            }
            let n = flow.ops_of_kind("filter")[0];
            if let etl_model::OpKind::Filter { predicate } = &mut flow.op_mut(n).unwrap().kind {
                *predicate = etl_model::expr::Expr::col("__ghost__");
            }
            Ok(AppliedPattern {
                pattern: self.name().to_string(),
                point,
                added_nodes: Vec::new(),
            })
        }
    }

    /// A [`Faulty`] candidate at `point`.
    fn faulty(breaks_schema: bool, point: ApplicationPoint) -> Candidate {
        Candidate {
            pattern: std::sync::Arc::new(Faulty { breaks_schema }),
            point,
            fitness: 0.0,
        }
    }

    #[test]
    fn prefix_stack_fails_on_failed_or_broken_prefixes_and_breaks_on_the_last() {
        let (f, mut cands) = setup();
        let filter = f.ops_of_kind("filter")[0];
        let n = cands.len();
        cands.push(faulty(false, ApplicationPoint::Node(filter)));
        cands.push(faulty(true, ApplicationPoint::Node(filter)));
        cands.push(faulty(true, ApplicationPoint::Graph));
        let (refused, ghost, ghost_g) = (n, n + 1, n + 2);
        let graph = |i: &usize| cands[*i].point == ApplicationPoint::Graph;
        let g = (0..n).find(graph).expect("a graph-level candidate");
        let s = (0..n).find(|i| !graph(i)).expect("a structural candidate");
        let mut stack = PrefixStack::default();

        // a failed step fails every combination that extends it, and the
        // failure is stacked: the sibling runs no step
        assert_eq!(stack_apply(&mut stack, &f, &cands, &[refused, s]), None);
        let steps = stack.steps;
        assert_eq!(stack_apply(&mut stack, &f, &cands, &[refused, g]), None);
        assert_eq!(stack.steps, steps);

        // a broken prefix fails too, structural or graph-level
        assert_eq!(stack_apply(&mut stack, &f, &cands, &[ghost, s]), None);
        assert_eq!(stack_apply(&mut stack, &f, &cands, &[s, ghost_g, g]), None);

        // a broken last step reports the schema error
        for combo in [vec![s, ghost], vec![ghost_g], vec![s, g, ghost_g]] {
            let (_, applied, verdict, _) = stack_apply(&mut stack, &f, &cands, &combo).unwrap();
            assert_eq!(applied.len(), combo.len());
            assert!(verdict.starts_with("broken"), "{combo:?}: {verdict}");
        }
    }

    #[test]
    fn prefix_stack_runs_about_one_step_per_combination() {
        let (f, _) = setup();
        let cat = purchases_catalog(100, &DirtProfile::demo(), 1);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        let policy = DeploymentPolicy::exhaustive(3);
        let cands = crate::generate::generate_candidates(&f, &reg, &policy).unwrap();
        let schemas = etl_model::propagate_schemas(&f).unwrap();
        let mut stack = PrefixStack::default();
        let mut combos = 0;
        for combo in crate::explore::CombinationIter::new(&cands, &policy, usize::MAX) {
            stack.apply(&f, &schemas, &cands, &combo);
            combos += 1;
        }
        let per_combo = stack.steps as f64 / combos as f64;
        assert!(combos > 1000, "a depth-3 cycle of {combos} combinations");
        assert!(per_combo <= 1.3, "{per_combo:.2} steps per combination");
    }

    #[test]
    fn label_table_names_match_combination_name() {
        let (f, cands) = setup();
        let table = LabelTable::new(&cands);
        // singletons, pairs and a triple, in both orders
        let b = cands
            .iter()
            .position(|c| c.pattern.name() != cands[0].pattern.name())
            .unwrap();
        let combos: Vec<Vec<usize>> = vec![
            vec![0],
            vec![b],
            vec![0, b],
            vec![b, 0],
            vec![0, b, cands.len() - 1],
        ];
        for combo in combos {
            let refs: Vec<&Candidate> = combo.iter().map(|&i| &cands[i]).collect();
            assert_eq!(table.name(&f, &combo), combination_name(&f, &refs));
        }
    }
}
