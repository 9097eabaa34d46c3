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
    // Validity of the result is checked by the planner's static pre-screen
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
/// cycle. The fork starts with an `Arc`-shared clone of that table; after
/// each application the table is repaired in place via
/// [`etl_model::repair_table`] — O(patch) for schema-passthrough patterns,
/// O(downstream of the patch) only when schemas genuinely changed. The
/// repair is seeded from the nodes that application added when its pattern
/// declares [`patch_confined_to_added_nodes`](fcp::Pattern::patch_confined_to_added_nodes),
/// else from every node the fork has touched since `base`. When the repair
/// reports `false` (it gave up, or met a schema error it cannot vouch for),
/// the table is re-propagated from scratch and that verdict counts. Each
/// candidate's full [`Pattern::applicable`](fcp::Pattern::applicable) check
/// runs against the carried table (built-ins add conjunctive schema
/// conditions beyond their declared prerequisites), then
/// [`Pattern::apply_unchecked`](fcp::Pattern::apply_unchecked) performs the
/// structural edit without rebuilding an O(flow) context. Application
/// order and failure behaviour match [`apply_combination`] exactly — the
/// planner's equivalence tests assert bit-identical alternatives and
/// rejection counts. The returned [`CarriedTable`] reports whether the
/// final table is exact, letting the post-screen skip schema propagation
/// entirely.
pub fn apply_combination_incremental(
    base: &EtlFlow,
    combo: &[&Candidate],
    name: impl Into<String>,
    base_schemas: &SchemaTable,
) -> Result<(EtlFlow, Vec<AppliedPattern>, CarriedTable), PatternError> {
    let mut flow = base.fork(name);
    let mut applied = Vec::with_capacity(combo.len());
    let (structural, graph_level): (Vec<&Candidate>, Vec<&Candidate>) = combo
        .iter()
        .copied()
        .partition(|c| c.point != ApplicationPoint::Graph);
    let mut table = base_schemas.clone();
    // Seeds for repairing the table after the last application.
    let mut pending: Option<Vec<NodeId>> = None;
    for c in structural.into_iter().chain(graph_level) {
        if let Some(seeds) = pending.take() {
            repair_or_propagate(&flow, &mut table, &seeds)
                .map_err(|e| PatternError::Graph(e.to_string()))?;
        }
        let ctx = PatternContext::with_schemas(&flow, table);
        if !c.pattern.applicable(&ctx, c.point) {
            return Err(PatternError::NotApplicable {
                pattern: c.pattern.name().to_string(),
                point: c.point.describe(&flow),
            });
        }
        table = ctx.into_schemas();
        let a = c.pattern.apply_unchecked(&mut flow, c.point, &table)?;
        // An edit confined to the added nodes needs no delta derivation;
        // any other edit (e.g. one that rewrites an operation in place)
        // unshares what it touched, so the fork's delta covers it.
        pending = Some(if c.pattern.patch_confined_to_added_nodes() {
            a.added_nodes.clone()
        } else {
            flow.delta_since(base).touched_nodes
        });
        applied.push(a);
    }
    let carried = match pending.map_or(Ok(()), |s| repair_or_propagate(&flow, &mut table, &s)) {
        Ok(()) => CarriedTable::Exact {
            cow: flow.delta_since(base),
        },
        Err(e) => CarriedTable::Broken(e),
    };
    Ok((flow, applied, carried))
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
    use fcp::PatternRegistry;

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
