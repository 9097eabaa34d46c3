//! Measures estimation (Fig. 3, third stage): score every alternative flow
//! concurrently.
//!
//! The paper: "the processing and analysis of the alternative process
//! designs is a process intensive task, mainly due to the large number of
//! alternative flows that have to be concurrently evaluated. Therefore, we
//! employ Amazon Cloud elastic infrastructures, by launching processing
//! nodes that run in the background". The laptop-scale substitution is a
//! `std::thread::scope` worker pool ([`PlannerConfig::workers`] wide); the
//! `concurrency_sweep` binary times a planning cycle at several widths.
//!
//! [`PlannerConfig::workers`]: crate::PlannerConfig::workers

use datagen::Catalog;
use etl_model::EtlFlow;
use quality::{Characteristic, MeasureVector, SourceStats};
use simulator::simulate;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// How each alternative is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Analytic estimation (fast; the planner default, matching the
    /// paper's "estimated measures").
    Estimate,
    /// Full simulation over the catalog (slow, exact; used for final
    /// verification of a selected design).
    Simulate,
}

/// One evaluated alternative design.
#[derive(Debug, Clone)]
pub struct Alternative {
    /// Alternative name (base name + pattern labels).
    pub name: String,
    /// The materialised flow.
    pub flow: EtlFlow,
    /// Human-readable descriptions of the applied patterns.
    pub applied: Vec<String>,
    /// Indices into the planner's candidate list.
    pub combo: Vec<usize>,
    /// The measure vector.
    pub measures: MeasureVector,
    /// Characteristic scores versus the baseline (same order as the
    /// planner's `dimensions`); the scatter-plot coordinates.
    pub scores: Vec<f64>,
}

/// Evaluates one flow in the requested mode. Both modes are
/// deterministic; `_seed` selects nothing.
pub fn evaluate_flow(
    flow: &EtlFlow,
    catalog: &Catalog,
    stats: &HashMap<String, SourceStats>,
    mode: EvalMode,
    _seed: u64,
) -> Result<MeasureVector, simulator::SimError> {
    match mode {
        EvalMode::Estimate => Ok(quality::estimate(flow, stats)),
        EvalMode::Simulate => {
            let trace = simulate(flow, catalog)?;
            Ok(quality::evaluate(flow, &trace))
        }
    }
}

/// Order-preserving parallel map over `0..n` on a scoped worker pool, with
/// one `state()` per worker that `f` gets `&mut` access to. Workers pull
/// contiguous chunks of indices from a shared atomic cursor — neighbouring
/// indices, which the planner's strategies fill with sibling combinations,
/// share a worker's state — and own their results outright until the
/// channel is drained after the scope: no per-slot locking. Several chunks
/// per worker keep the load balanced. `workers <= 1` (or `n <= 1`)
/// degenerates to a sequential loop over one state. The planner's
/// streaming engine evaluates each submitted batch of combinations through
/// it, each worker applying on its own [`PrefixStack`](crate::apply::PrefixStack).
pub(crate) fn par_map_indexed<S, T: Send>(
    n: usize,
    workers: usize,
    state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        let mut s = state();
        return (0..n).map(|i| f(&mut s, i)).collect();
    }
    let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<T>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, state, f) = (&next, &state, &f);
            scope.spawn(move || {
                let mut s = state();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let out = (start..n.min(start + chunk))
                        .map(|i| f(&mut s, i))
                        .collect();
                    tx.send((start, out)).expect("receiver outlives the scope");
                }
            });
        }
    });
    drop(tx);
    let mut chunks: Vec<(usize, Vec<T>)> = rx.into_iter().collect();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    chunks.into_iter().flat_map(|(_, out)| out).collect()
}

/// How many chunks [`par_map_indexed`] cuts per worker: enough that the
/// last chunk's tail stays short when per-index cost varies (simulation),
/// few enough that re-applying a chunk's first prefix stays negligible.
const CHUNKS_PER_WORKER: usize = 32;

/// Computes characteristic scores for the scatter-plot axes.
pub fn characteristic_scores(
    measures: &MeasureVector,
    baseline: &MeasureVector,
    dimensions: &[Characteristic],
) -> Vec<f64> {
    dimensions
        .iter()
        .map(|&c| measures.characteristic_score(baseline, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use quality::{source_stats, MeasureId};

    fn setup() -> (EtlFlow, Catalog, HashMap<String, SourceStats>) {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(200, &DirtProfile::demo(), 1);
        let stats = source_stats(&cat);
        (f, cat, stats)
    }

    #[test]
    fn estimate_and_simulate_modes_fill_measures() {
        let (f, cat, stats) = setup();
        for mode in [EvalMode::Estimate, EvalMode::Simulate] {
            let v = evaluate_flow(&f, &cat, &stats, mode, 7).unwrap();
            assert!(v.get(MeasureId::CycleTimeMs).unwrap() > 0.0, "{mode:?}");
            assert!(v.get(MeasureId::Completeness).is_some(), "{mode:?}");
        }
    }

    #[test]
    fn pool_preserves_order_and_matches_sequential() {
        let (f, cat, stats) = setup();
        let flows: Vec<EtlFlow> = (0..20)
            .map(|i| {
                let mut g = f.fork(format!("v{i}"));
                // vary the flows so results differ by index
                if i % 2 == 0 {
                    g.config.encrypted = true;
                }
                g
            })
            .collect();
        let cycle_time = |i: usize| {
            let v = evaluate_flow(&flows[i], &cat, &stats, EvalMode::Estimate, 3).unwrap();
            (i, v.get(MeasureId::CycleTimeMs).unwrap())
        };
        let seq = par_map_indexed(flows.len(), 1, || (), |_, i| cycle_time(i));
        let par = par_map_indexed(flows.len(), 4, || (), |_, i| cycle_time(i));
        assert_eq!(seq, par);
        // results land in index order, whichever worker produced them
        assert!(par.iter().enumerate().all(|(i, &(j, _))| i == j));
        // encrypted (even) variants are slower than their plain neighbours
        assert!(par[0].1 > par[1].1);
        // more workers than items, and the empty and single-item maps
        assert_eq!(par_map_indexed(3, 8, || (), |_, i| i * 10), vec![0, 10, 20]);
        assert_eq!(par_map_indexed(0, 4, || (), |_, i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, || (), |_, i| i + 7), vec![7]);
    }

    #[test]
    fn pool_hands_workers_contiguous_chunks_of_their_own_state() {
        // Each worker's state remembers the last index it mapped; an index
        // whose predecessor went elsewhere starts a chunk. Neighbours must
        // mostly share a state, or a prefix cache per worker never hits.
        let starts = par_map_indexed(
            512,
            4,
            || None,
            |last: &mut Option<usize>, i| {
                let starts_chunk = *last != i.checked_sub(1);
                *last = Some(i);
                starts_chunk
            },
        );
        let chunks = starts.iter().filter(|&&s| s).count();
        assert!(chunks <= 4 * CHUNKS_PER_WORKER, "{chunks} chunks");
    }

    #[test]
    fn scores_against_self_are_100() {
        let (f, cat, stats) = setup();
        let v = evaluate_flow(&f, &cat, &stats, EvalMode::Estimate, 7).unwrap();
        let dims = [
            Characteristic::Performance,
            Characteristic::DataQuality,
            Characteristic::Reliability,
        ];
        let s = characteristic_scores(&v, &v, &dims);
        for x in s {
            assert!((x - 100.0).abs() < 1e-9);
        }
    }
}
