//! The planner workloads: `plan_grid` and `plan_iterate`.
//!
//! Both run planning cycles single-threaded and in-process, in a closed
//! loop of passes over their cells. The seed only shuffles the order of
//! the cells within each pass; every cell's inputs are fixed. A cell's
//! time is taken from the fast end of its own samples (its minimum):
//! on a shared VM the host switches between speeds for seconds at a
//! time, and a cell's fastest cycle is the figure that least depends on
//! which phase the run landed in.

use crate::layers::LayerSums;
use crate::replay::replay;
use crate::report::{Expectations, RunReport, SeedRng};
use crate::stats::geomean;
use crate::trace::Tracer;
use fcp::DeploymentPolicy;
use poiesis::{PlanResponse, Planner, PlannerConfig, SearchStrategyKind, Session, ToJson};
use quality::SourceStats;
use scenarios::sweep::{SweepScale, PLANNER_SEED};
use scenarios::Scenario;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Explore → select rounds per `plan_iterate` session.
pub const ITERATIONS: usize = 4;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Spans kept in memory before the traced run stops adding passes.
const SPAN_CAP: usize = 400_000;

/// One planning session of a workload: a base planner plus how many
/// explore → select rounds it runs per pass.
pub struct Chain {
    /// Cell key prefix (`<scenario>` or `<scenario>/<strategy>`).
    pub key: String,
    /// The planner over the base flow.
    pub planner: Planner,
    /// Explore rounds per pass (1 = no selection).
    pub steps: usize,
    /// Source statistics of the planner's catalog (for the replay).
    pub stats: HashMap<String, SourceStats>,
}

impl Chain {
    /// A session over `planner` running `steps` rounds per pass.
    pub fn new(key: String, planner: Planner, steps: usize) -> Self {
        let stats = quality::estimator::source_stats(planner.catalog());
        Chain {
            key,
            planner,
            steps,
            stats,
        }
    }

    /// A fresh session on the base flow.
    fn session(&self) -> Session {
        let p = &self.planner;
        Session::new(Planner::new(
            p.flow().clone(),
            p.catalog().clone(),
            p.registry().clone(),
            p.config().clone(),
        ))
    }

    /// Key of the cell for round `step`.
    pub fn cell_key(&self, step: usize) -> String {
        if self.steps == 1 {
            self.key.clone()
        } else {
            format!("{}/{step}", self.key)
        }
    }
}

/// The `scenarios::sweep::run_cell` planner configuration at full scale
/// (the one `BENCH_scenarios.json` was produced with), for `strategy`.
pub fn sweep_config(s: &Scenario, strategy: SearchStrategyKind) -> PlannerConfig {
    let scale = SweepScale::full();
    PlannerConfig {
        policy: DeploymentPolicy {
            top_k_points_per_pattern: usize::MAX,
            min_fitness: 0.0,
            ..DeploymentPolicy::exhaustive(s.depth)
        },
        strategy,
        workers: 1,
        max_alternatives: scale.budget,
        retain_dominated: false,
        objective: s.objective(),
        seed: PLANNER_SEED,
        ..PlannerConfig::default()
    }
}

fn sweep_planner(s: &Scenario, strategy: SearchStrategyKind) -> Planner {
    let catalog = s.catalog(SweepScale::full().rows);
    let registry = fcp::PatternRegistry::standard_for_catalog(&catalog);
    Planner::new(s.flow(), catalog, registry, sweep_config(s, strategy))
}

/// `plan_grid`'s sessions: every scenario, exhaustive, one cycle each.
pub fn grid_chains() -> Vec<Chain> {
    scenarios::all()
        .iter()
        .map(|s| {
            Chain::new(
                s.name.to_string(),
                sweep_planner(s, SearchStrategyKind::Exhaustive),
                1,
            )
        })
        .collect()
}

/// `plan_iterate`'s sessions: every scenario under `beam:32` and under
/// `greedy`, [`ITERATIONS`] explore → select rounds each.
pub fn iterate_chains() -> Vec<Chain> {
    let mut chains = Vec::new();
    for s in scenarios::all() {
        for strategy in [
            SearchStrategyKind::Beam { width: 32 },
            SearchStrategyKind::GreedyHillClimb,
        ] {
            chains.push(Chain::new(
                format!("{}/{strategy}", s.name),
                sweep_planner(&s, strategy),
                ITERATIONS,
            ));
        }
    }
    chains
}

/// Per-cell samples.
#[derive(Default)]
struct CellTimes {
    /// Fastest untraced cycle.
    best: Option<Duration>,
    /// Fastest traced (replayed) cycle.
    best_traced: Option<Duration>,
    /// Combinations the cell's cycle evaluates (deterministic).
    combos: usize,
}

fn keep_min(slot: &mut Option<Duration>, d: Duration) {
    *slot = Some(slot.map_or(d, |b| b.min(d)));
}

/// One lane's share of a run: its own sessions, samples and tally.
#[derive(Default)]
struct Lane {
    chains: Vec<Chain>,
    report: RunReport,
    times: HashMap<String, CellTimes>,
    passes: usize,
}

impl Lane {
    /// Runs every chain once: explore, check the digest, select rank 0.
    /// With a tracer, each explore is followed by a traced replay of the
    /// same cycle, which must match it exactly.
    fn pass(
        &mut self,
        order: &[usize],
        expect: &Expectations,
        mut traced: Option<(&mut Tracer, &mut LayerSums)>,
    ) {
        let report = &mut self.report;
        for &c in order {
            let chain = &self.chains[c];
            let mut session = chain.session();
            for step in 0..chain.steps {
                let key = chain.cell_key(step);
                let t = Instant::now();
                let outcome = session.explore();
                let elapsed = t.elapsed();
                let outcome = match outcome {
                    Ok(o) => o,
                    Err(e) => {
                        report.record(Err(format!("{key}: planner error: {e}")));
                        break;
                    }
                };
                let digest = scenarios::digest::frontier_digest(&outcome);
                report.record(expect.check(&key, &digest));
                let cell = self.times.entry(key.clone()).or_default();
                keep_min(&mut cell.best, elapsed);
                cell.combos = outcome.stats.enumerated;

                if let Some((tracer, sums)) = traced.as_mut() {
                    let replayed = replay(session.planner(), &chain.stats, tracer);
                    let checked = replayed.and_then(|r| {
                        r.matches(&outcome)
                            .map_err(|e| format!("{key}: replay: {e}"))?;
                        Ok(r)
                    });
                    report.attempted += 1;
                    match checked {
                        Ok(r) => {
                            keep_min(&mut cell.best_traced, Duration::from_nanos(r.cycle_ns));
                            sums.add_cycle(&r);
                        }
                        Err(e) => report.fail(e),
                    }
                    tracer.span("encode", || {
                        PlanResponse::from_outcome(&outcome, session.objective(), None)
                            .to_json_string()
                    });
                }

                if step + 1 < chain.steps && session.select(&outcome, 0).is_none() {
                    // an empty frontier ends the session early; the
                    // expected digests pin where that happens
                    break;
                }
            }
        }
        self.passes += 1;
    }
}

/// Lanes of an untraced run: one per available core, at most two. Each
/// lane runs every cell on its own thread and a cell's time is its
/// fastest cycle on any lane, so one core slowed by a neighbour for a
/// whole run does not decide the figure.
fn lane_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Runs a planner workload for `seconds` and reports its metrics.
pub fn run(
    workload: &str,
    build: fn() -> Vec<Chain>,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect: &Expectations,
) -> RunReport {
    let lanes = if trace { 1 } else { lane_count() };

    // Set-up: catalogs, registries, planners and one warm-up pass (whose
    // digests are checked like any other) on every lane, repeated SETUPS
    // times.
    let mut setup_secs = Vec::new();
    let mut lane_set: Vec<Lane> = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        lane_set = on_lanes(lanes, |_| {
            let mut lane = Lane {
                chains: build(),
                ..Lane::default()
            };
            let order: Vec<usize> = (0..lane.chains.len()).collect();
            lane.pass(&order, expect, None);
            lane
        });
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut report = RunReport::default();
    for lane in &mut lane_set {
        absorb(&mut report, std::mem::take(&mut lane.report));
        lane.passes = 0;
    }

    let mut tracer = Tracer::new();
    let mut sums = LayerSums::default();
    let started = Instant::now();
    let lane_set = if trace {
        let mut lane = lane_set.pop().expect("one lane");
        let mut rng = SeedRng::new(seed);
        loop {
            let mut order: Vec<usize> = (0..lane.chains.len()).collect();
            rng.shuffle(&mut order);
            lane.pass(&order, expect, Some((&mut tracer, &mut sums)));
            let out_of_time = started.elapsed().as_secs_f64() >= seconds;
            if out_of_time || tracer.spans().len() >= SPAN_CAP {
                break;
            }
        }
        vec![lane]
    } else {
        let moved: Vec<Mutex<Option<Lane>>> =
            lane_set.into_iter().map(|l| Mutex::new(Some(l))).collect();
        on_lanes(lanes, |i| {
            let mut lane = moved[i].lock().expect("lane").take().expect("lane set up");
            let mut rng = SeedRng::new(seed.wrapping_add(i as u64 * 0x9E37_79B9));
            loop {
                let mut order: Vec<usize> = (0..lane.chains.len()).collect();
                rng.shuffle(&mut order);
                lane.pass(&order, expect, None);
                if started.elapsed().as_secs_f64() >= seconds {
                    break lane;
                }
            }
        })
    };
    let wall = started.elapsed().as_secs_f64();

    let mut times: HashMap<String, CellTimes> = HashMap::new();
    let mut passes = Vec::new();
    for lane in lane_set {
        passes.push(lane.passes.to_string());
        absorb(&mut report, lane.report);
        for (key, t) in lane.times {
            let cell = times.entry(key).or_default();
            cell.combos = t.combos;
            for (slot, d) in [
                (&mut cell.best, t.best),
                (&mut cell.best_traced, t.best_traced),
            ] {
                if let Some(d) = d {
                    keep_min(slot, d);
                }
            }
        }
    }
    report.notes.push(format!(
        "{} passes over {} cells on {lanes} lane(s) in {wall:.1} s",
        passes.join(" + "),
        times.len(),
    ));

    let best: Vec<f64> = times
        .values()
        .filter_map(|c| c.best.map(|d| d.as_secs_f64()))
        .collect();
    let combos: usize = times.values().map(|c| c.combos).sum();
    if trace {
        let ratios: Vec<f64> = times
            .values()
            .filter_map(|c| Some(c.best_traced?.as_secs_f64() / c.best?.as_secs_f64()))
            .collect();
        sums.overhead_ratio = geomean(&ratios).unwrap_or(f64::NAN);
        sums.emit(&tracer, &mut report);
        crate::layers::write_spans(&tracer, workload, &mut report);
    } else {
        report.metric(
            "combos_per_s",
            combos as f64 / best.iter().sum::<f64>(),
            "1/s",
        );
        report.metric("cycle_ms", geomean(&best).unwrap_or(f64::NAN) * 1e3, "ms");
        crate::layers::emit_common(&mut report, &setup_secs, crate::report::peak_rss_mb());
    }
    report
}

/// Runs `f(lane)` for every lane on its own scoped thread.
fn on_lanes<T: Send>(lanes: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|i| {
                scope.spawn({
                    let f = &f;
                    move || f(i)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread"))
            .collect()
    })
}

fn absorb(into: &mut RunReport, lane: RunReport) {
    into.attempted += lane.attempted;
    into.failed += lane.failed;
    into.notes.extend(lane.notes);
}
