//! Measures obtained from analysis of runtime traces (second family in the
//! paper's Fig. 1): performance, data quality and reliability.

use crate::measure::{MeasureId, MeasureVector};
use datagen::CORRUPT_MARKER;
use etl_model::{row_key, EtlFlow, Tuple, Value};
use simulator::Trace;

/// Evaluates all trace-derived measures.
pub fn evaluate_trace(flow: &EtlFlow, trace: &Trace) -> MeasureVector {
    let mut v = MeasureVector::new();
    fill_from_trace(&mut v, flow, trace);
    v
}

/// Fills `v` with the trace-derived measures (shared with [`crate::evaluate`]).
pub fn fill_from_trace(v: &mut MeasureVector, flow: &EtlFlow, trace: &Trace) {
    // --- performance ------------------------------------------------------
    v.set(MeasureId::CycleTimeMs, trace.cycle_time_ms);
    v.set(MeasureId::AvgLatencyMs, trace.avg_latency_ms);
    if trace.cycle_time_ms > 0.0 {
        v.set(
            MeasureId::Throughput,
            trace.rows_loaded() as f64 / (trace.cycle_time_ms / 1_000.0),
        );
    }

    // --- data quality -----------------------------------------------------
    let mut q = RowQuality::default();
    for load in &trace.loads {
        q.add(&load.rows);
    }
    if q.cells > 0 {
        v.set(
            MeasureId::Completeness,
            1.0 - q.nulls as f64 / q.cells as f64,
        );
    }
    if q.rows > 0 {
        v.set(MeasureId::Uniqueness, q.distinct as f64 / q.rows as f64);
    }
    if q.strs > 0 {
        v.set(MeasureId::Accuracy, 1.0 - q.corrupt as f64 / q.strs as f64);
    } else if q.cells > 0 {
        v.set(MeasureId::Accuracy, 1.0);
    }
    if let Some(age_s) = trace.stalest_source_age() {
        v.set(
            MeasureId::FreshnessAgeS,
            effective_age_s(age_s as f64, flow.config.recurrence_minutes),
        );
        v.set(
            MeasureId::FreshnessScore,
            freshness_score(age_s as f64, flow.config.recurrence_minutes),
        );
    }

    // --- reliability --------------------------------------------------------
    v.set(MeasureId::ExpectedRedoMs, trace.expected_redo_ms);
    v.set(
        MeasureId::Recoverability,
        recoverability(trace.cycle_time_ms, trace.expected_redo_ms),
    );

    // --- cost ---------------------------------------------------------------
    v.set(
        MeasureId::MonetaryCost,
        monetary_cost(trace.cycle_time_ms, flow),
    );
}

/// Relative monetary cost per *day*: per-run compute cost (cycle time ×
/// resource-class price) times the number of runs the recurrence schedule
/// demands. Running twice as often for fresher data costs twice as much —
/// the trade-off behind the `AdjustRecurrence` graph-level pattern.
pub fn monetary_cost(cycle_time_ms: f64, flow: &EtlFlow) -> f64 {
    let runs_per_day = if flow.config.recurrence_minutes > 0.0 {
        (24.0 * 60.0) / flow.config.recurrence_minutes
    } else {
        1.0
    };
    cycle_time_ms * flow.config.resources.cost_factor() * runs_per_day / 1_000.0
}

/// Nominal source update frequency (updates/hour) in the freshness score —
/// the "Frequency of updates" of Fig. 1, fixed since synthetic sources don't
/// model their own update cadence.
const SOURCE_UPDATES_PER_HOUR: f64 = 1.0;

/// Expected age (seconds) of warehouse content at a uniformly random request
/// time: source staleness at the last run plus half the recurrence period
/// (on average the last run happened `recurrence/2` ago). This is the
/// "request time − time of last update" measure of Fig. 1, made
/// recurrence-aware so the `IncreaseRecurrence` pattern has its intended
/// effect.
pub fn effective_age_s(source_age_s: f64, recurrence_minutes: f64) -> f64 {
    source_age_s + recurrence_minutes.max(0.0) * 30.0
}

/// The paper's Fig. 1 freshness formula `1 / (1 - age * frequency of
/// updates)`.
///
/// The formula as printed diverges as `age·freq → 1` and flips sign beyond
/// it; we use the guarded form `1 / (1 + age · freq)` over the *effective*
/// age (see [`effective_age_s`]) so the score is a proper `(0, 1]` quantity
/// that decreases with staleness and increases with recurrence. The
/// deviation from the printed formula is documented in DESIGN.md.
pub fn freshness_score(source_age_s: f64, recurrence_minutes: f64) -> f64 {
    let age_hours = effective_age_s(source_age_s, recurrence_minutes) / 3_600.0;
    (1.0 / (1.0 + age_hours * SOURCE_UPDATES_PER_HOUR)).clamp(0.0, 1.0)
}

/// Recoverability in `[0, 1]`: the fraction of a run's expected wall time
/// that is useful (non-recovery) work.
pub fn recoverability(clean_cycle_ms: f64, expected_redo_ms: f64) -> f64 {
    if clean_cycle_ms <= 0.0 {
        return 1.0;
    }
    clean_cycle_ms / (clean_cycle_ms + expected_redo_ms.max(0.0))
}

/// Cell and row counts of batches of rows: the one scan behind the
/// data-quality measures, of a trace's loads and of a source table's
/// statistics alike.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowQuality {
    /// Rows scanned.
    pub(crate) rows: usize,
    /// Rows distinct within their batch.
    pub(crate) distinct: usize,
    /// Cells scanned.
    pub(crate) cells: usize,
    /// Null cells.
    pub(crate) nulls: usize,
    /// String cells.
    pub(crate) strs: usize,
    /// String cells carrying the corruption marker.
    pub(crate) corrupt: usize,
}

impl RowQuality {
    /// Adds one batch; a row counts as distinct if no earlier row of the
    /// same batch equals it.
    pub(crate) fn add(&mut self, rows: &[Tuple]) {
        self.rows += rows.len();
        let mut seen = std::collections::HashSet::with_capacity(rows.len());
        for row in rows {
            if seen.insert(row_key(row)) {
                self.distinct += 1;
            }
            for val in row {
                self.cells += 1;
                match val {
                    Value::Null => self.nulls += 1,
                    Value::Str(s) => {
                        self.strs += 1;
                        if s.ends_with(CORRUPT_MARKER) {
                            self.corrupt += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use etl_model::OpKind;
    use simulator::simulate;

    fn run(dirt: DirtProfile) -> (etl_model::EtlFlow, Trace) {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(300, &dirt, 11);
        let t = simulate(&f, &cat).unwrap();
        (f, t)
    }

    #[test]
    fn performance_measures_present() {
        let (f, t) = run(DirtProfile::demo());
        let v = evaluate_trace(&f, &t);
        assert!(v.get(MeasureId::CycleTimeMs).unwrap() > 0.0);
        assert!(v.get(MeasureId::AvgLatencyMs).unwrap() > 0.0);
        assert!(v.get(MeasureId::Throughput).unwrap() > 0.0);
    }

    #[test]
    fn dirty_data_lowers_dq_measures() {
        let (fc, tc) = run(DirtProfile::clean());
        let (fd, td) = run(DirtProfile::filthy());
        let clean = evaluate_trace(&fc, &tc);
        let dirty = evaluate_trace(&fd, &td);
        assert!(clean.get(MeasureId::Completeness).unwrap() > 0.999);
        assert!(
            dirty.get(MeasureId::Completeness).unwrap()
                < clean.get(MeasureId::Completeness).unwrap()
        );
        assert!(
            dirty.get(MeasureId::Uniqueness).unwrap() < 1.0,
            "duplicates must be visible"
        );
        // The purchases flow projects all string attributes away before the
        // load, so accuracy is measured on a string-bearing passthrough flow.
        let schema = etl_model::Schema::new(vec![
            etl_model::Attribute::required("t_id", etl_model::DataType::Int),
            etl_model::Attribute::new("name", etl_model::DataType::Str),
        ]);
        let mut cat = datagen::Catalog::new();
        cat.add_generated(
            &datagen::TableSpec::new("t", schema.clone(), 500, "t_id"),
            &DirtProfile::filthy(),
            4,
        );
        let mut f = etl_model::EtlFlow::new("passthru");
        let e = f.add_op(etl_model::Operation::extract("t", schema));
        let l = f.add_op(etl_model::Operation::load("out"));
        f.connect(e, l).unwrap();
        let t = simulate(&f, &cat).unwrap();
        let v = evaluate_trace(&f, &t);
        assert!(v.get(MeasureId::Accuracy).unwrap() < 1.0);
    }

    #[test]
    fn freshness_from_staleness() {
        let (f, t) = run(DirtProfile {
            staleness_hours: 24.0,
            ..DirtProfile::clean()
        });
        let v = evaluate_trace(&f, &t);
        // effective age = source age + recurrence/2 (daily default = +12h)
        let expected = 24.0 * 3600.0 + f.config.recurrence_minutes * 30.0;
        assert_eq!(v.get(MeasureId::FreshnessAgeS), Some(expected));
        let score = v.get(MeasureId::FreshnessScore).unwrap();
        assert!(score > 0.0 && score < 1.0);
    }

    #[test]
    fn freshness_score_monotone_in_age_and_recurrence() {
        let daily = 24.0 * 60.0;
        let fresh = freshness_score(0.0, daily);
        let old = freshness_score(86_400.0, daily);
        let ancient = freshness_score(10.0 * 86_400.0, daily);
        assert!(old < fresh && ancient < old);
        // running more often (hourly) means fresher content at request time
        assert!(freshness_score(86_400.0, 60.0) > freshness_score(86_400.0, daily));
        assert_eq!(freshness_score(0.0, 0.0), 1.0);
    }

    #[test]
    fn recoverability_bounds() {
        assert_eq!(recoverability(0.0, 5.0), 1.0);
        assert_eq!(recoverability(10.0, 0.0), 1.0);
        assert!((recoverability(10.0, 10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failure_rates_raise_expected_redo() {
        let (mut f, _) = purchases_flow();
        let cat = purchases_catalog(300, &DirtProfile::clean(), 11);
        let t0 = simulate(&f, &cat).unwrap();
        let base = evaluate_trace(&f, &t0);
        // make the expensive derive fragile
        let derive = f.ops_of_kind("derive")[0];
        f.op_mut(derive).unwrap().cost.failure_rate = 0.2;
        let t1 = simulate(&f, &cat).unwrap();
        let fragile = evaluate_trace(&f, &t1);
        assert_eq!(base.get(MeasureId::ExpectedRedoMs), Some(0.0));
        assert!(fragile.get(MeasureId::ExpectedRedoMs).unwrap() > 0.0);
        assert!(
            fragile.get(MeasureId::Recoverability).unwrap()
                < base.get(MeasureId::Recoverability).unwrap()
        );
    }

    #[test]
    fn checkpoint_improves_recoverability_measure() {
        let (mut f, ids) = purchases_flow();
        // fragile router downstream of the expensive derive
        let router = f.ops_of_kind("router")[0];
        f.op_mut(router).unwrap().cost.failure_rate = 0.3;
        let cat = purchases_catalog(300, &DirtProfile::clean(), 11);
        let t = simulate(&f, &cat).unwrap();
        let before = evaluate_trace(&f, &t);

        // add a savepoint right after the derive
        let mut g = f.fork("with_cp");
        let e = g.graph.out_edges(ids.derive_values).next().unwrap();
        g.graph
            .interpose_on_edge(
                e,
                etl_model::Operation::new("SAVE", OpKind::Checkpoint { tag: "sp".into() }),
                Default::default(),
                Default::default(),
            )
            .unwrap();
        let t2 = simulate(&g, &cat).unwrap();
        let after = evaluate_trace(&g, &t2);
        assert!(
            after.get(MeasureId::ExpectedRedoMs).unwrap()
                < before.get(MeasureId::ExpectedRedoMs).unwrap()
        );
        assert!(
            after.get(MeasureId::Recoverability).unwrap()
                > before.get(MeasureId::Recoverability).unwrap()
        );
    }
}
