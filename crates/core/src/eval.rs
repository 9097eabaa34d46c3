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
use simulator::{simulate, SimConfig};
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

/// Evaluates one flow in the requested mode.
pub fn evaluate_flow(
    flow: &EtlFlow,
    catalog: &Catalog,
    stats: &HashMap<String, SourceStats>,
    mode: EvalMode,
    seed: u64,
) -> Result<MeasureVector, simulator::SimError> {
    match mode {
        EvalMode::Estimate => Ok(quality::estimate(flow, stats)),
        EvalMode::Simulate => {
            let trace = simulate(
                flow,
                catalog,
                &SimConfig {
                    seed,
                    inject_failures: false,
                },
            )?;
            Ok(quality::evaluate(flow, &trace))
        }
    }
}

/// Order-preserving parallel map over `0..n` on a scoped worker pool:
/// workers pull indices from a shared atomic cursor and own their results
/// outright until the channel is drained after the scope — no per-slot
/// locking. `workers <= 1` (or `n <= 1`) degenerates to a sequential loop.
/// The planner's streaming engine evaluates each submitted batch of
/// combinations through it.
pub(crate) fn par_map_indexed<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                tx.send((i, f(i))).expect("receiver outlives the scope");
            });
        }
    });
    drop(tx);
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(n, || None);
    for (i, r) in rx {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index mapped"))
        .collect()
}

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
        let seq = par_map_indexed(flows.len(), 1, cycle_time);
        let par = par_map_indexed(flows.len(), 4, cycle_time);
        assert_eq!(seq, par);
        // results land in index order, whichever worker produced them
        assert!(par.iter().enumerate().all(|(i, &(j, _))| i == j));
        // encrypted (even) variants are slower than their plain neighbours
        assert!(par[0].1 > par[1].1);
        // more workers than items, and the empty and single-item maps
        assert_eq!(par_map_indexed(3, 8, |i| i * 10), vec![0, 10, 20]);
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i + 7), vec![7]);
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
