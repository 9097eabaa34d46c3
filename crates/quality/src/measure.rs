//! Measure identifiers, directions and the dense measure vector.

use std::fmt;

/// Lower clamp applied to per-measure improvement ratios: one degenerate
/// measure can shrink a composite by at most this factor.
pub const RATIO_CLAMP_MIN: f64 = 0.05;

/// Upper clamp applied to per-measure improvement ratios: one degenerate
/// measure can inflate a composite by at most this factor. This is also the
/// ceiling of any sound static gain bound — no pattern application can move
/// a characteristic score past `100 × RATIO_CLAMP_MAX`.
pub const RATIO_CLAMP_MAX: f64 = 20.0;

/// The quality characteristics the tool reasons about (paper Fig. 1 shows
/// performance, data quality and manageability; reliability appears in
/// Fig. 2/Fig. 4 and cost in §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Characteristic {
    /// Speed: cycle time, latency, throughput.
    Performance,
    /// Fitness of the delivered data: completeness, uniqueness, accuracy,
    /// freshness.
    DataQuality,
    /// Robustness to failures: recoverability and expected redo cost.
    Reliability,
    /// Ease of understanding/modifying the flow: size, paths, coupling.
    Manageability,
    /// Monetary cost of running the process.
    Cost,
    /// Security posture of the process (encryption, access control) — the
    /// graph-level configuration patterns of §2.2.
    Security,
}

impl Characteristic {
    /// All characteristics in display order.
    pub const ALL: [Characteristic; 6] = [
        Characteristic::Performance,
        Characteristic::DataQuality,
        Characteristic::Reliability,
        Characteristic::Manageability,
        Characteristic::Cost,
        Characteristic::Security,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Characteristic::Performance => "performance",
            Characteristic::DataQuality => "data quality",
            Characteristic::Reliability => "reliability",
            Characteristic::Manageability => "manageability",
            Characteristic::Cost => "cost",
            Characteristic::Security => "security",
        }
    }

    /// Stable machine key (snake_case, no spaces) for wire formats and CLI
    /// flags. Round-trips through [`from_key`](Self::from_key).
    pub fn key(self) -> &'static str {
        match self {
            Characteristic::Performance => "performance",
            Characteristic::DataQuality => "data_quality",
            Characteristic::Reliability => "reliability",
            Characteristic::Manageability => "manageability",
            Characteristic::Cost => "cost",
            Characteristic::Security => "security",
        }
    }

    /// Looks a characteristic up by its [`key`](Self::key).
    pub fn from_key(key: &str) -> Option<Characteristic> {
        Characteristic::ALL.into_iter().find(|c| c.key() == key)
    }
}

impl fmt::Display for Characteristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every concrete measure the tool computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MeasureId {
    // --- performance (paper Fig. 1: process cycle time, avg latency/tuple)
    /// Process cycle time in ms (lower is better).
    CycleTimeMs,
    /// Average per-tuple latency in ms (lower is better).
    AvgLatencyMs,
    /// Loaded rows per second (higher is better).
    Throughput,
    // --- data quality (Fig. 1: request−last update, 1/(1−age·freq))
    /// Fraction of non-null cells in loaded data (higher).
    Completeness,
    /// Fraction of distinct loaded rows (higher).
    Uniqueness,
    /// Fraction of uncorrupted loaded values (higher).
    Accuracy,
    /// Staleness of the oldest source in seconds (lower).
    FreshnessAgeS,
    /// The paper's `1/(1 − age · update frequency)` score, guarded (higher).
    FreshnessScore,
    // --- reliability
    /// Clean-cycle / (clean-cycle + expected redo) in `[0,1]` (higher).
    Recoverability,
    /// Expected failure-recovery time per run in ms (lower).
    ExpectedRedoMs,
    // --- manageability (Fig. 1: longest path, coupling, merge elements)
    /// Length of the workflow's longest path in edges (lower).
    LongestPath,
    /// Workflow coupling (lower).
    Coupling,
    /// Number of merge elements in the process model (lower).
    MergeCount,
    /// Total operation count (lower).
    OpCount,
    // --- cost
    /// Relative monetary cost per day (lower).
    MonetaryCost,
    // --- security
    /// Security posture score in `[0,1]`: encryption + access control (higher).
    SecurityScore,
}

impl MeasureId {
    /// All measures, in vector order.
    pub const ALL: [MeasureId; 16] = [
        MeasureId::CycleTimeMs,
        MeasureId::AvgLatencyMs,
        MeasureId::Throughput,
        MeasureId::Completeness,
        MeasureId::Uniqueness,
        MeasureId::Accuracy,
        MeasureId::FreshnessAgeS,
        MeasureId::FreshnessScore,
        MeasureId::Recoverability,
        MeasureId::ExpectedRedoMs,
        MeasureId::LongestPath,
        MeasureId::Coupling,
        MeasureId::MergeCount,
        MeasureId::OpCount,
        MeasureId::MonetaryCost,
        MeasureId::SecurityScore,
    ];

    /// The characteristic this measure belongs to.
    pub fn characteristic(self) -> Characteristic {
        use MeasureId::*;
        match self {
            CycleTimeMs | AvgLatencyMs | Throughput => Characteristic::Performance,
            Completeness | Uniqueness | Accuracy | FreshnessAgeS | FreshnessScore => {
                Characteristic::DataQuality
            }
            Recoverability | ExpectedRedoMs => Characteristic::Reliability,
            LongestPath | Coupling | MergeCount | OpCount => Characteristic::Manageability,
            MonetaryCost => Characteristic::Cost,
            SecurityScore => Characteristic::Security,
        }
    }

    /// Whether larger values are preferable.
    pub fn higher_is_better(self) -> bool {
        use MeasureId::*;
        matches!(
            self,
            Throughput
                | Completeness
                | Uniqueness
                | Accuracy
                | FreshnessScore
                | Recoverability
                | SecurityScore
        )
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        use MeasureId::*;
        match self {
            CycleTimeMs => "process cycle time (ms)",
            AvgLatencyMs => "avg latency per tuple (ms)",
            Throughput => "throughput (rows/s)",
            Completeness => "completeness",
            Uniqueness => "uniqueness",
            Accuracy => "accuracy",
            FreshnessAgeS => "request time - last update (s)",
            FreshnessScore => "freshness score 1/(1-age*freq)",
            Recoverability => "recoverability",
            ExpectedRedoMs => "expected recovery time (ms)",
            LongestPath => "longest path length",
            Coupling => "workflow coupling",
            MergeCount => "# merge elements",
            OpCount => "# operations",
            MonetaryCost => "monetary cost per day (relative)",
            SecurityScore => "security score",
        }
    }

    /// Stable machine key (snake_case, no units) for wire formats and CLI
    /// flags. Round-trips through [`from_key`](Self::from_key).
    pub fn key(self) -> &'static str {
        use MeasureId::*;
        match self {
            CycleTimeMs => "cycle_time_ms",
            AvgLatencyMs => "avg_latency_ms",
            Throughput => "throughput",
            Completeness => "completeness",
            Uniqueness => "uniqueness",
            Accuracy => "accuracy",
            FreshnessAgeS => "freshness_age_s",
            FreshnessScore => "freshness_score",
            Recoverability => "recoverability",
            ExpectedRedoMs => "expected_redo_ms",
            LongestPath => "longest_path",
            Coupling => "coupling",
            MergeCount => "merge_count",
            OpCount => "op_count",
            MonetaryCost => "monetary_cost",
            SecurityScore => "security_score",
        }
    }

    /// Looks a measure up by its [`key`](Self::key).
    pub fn from_key(key: &str) -> Option<MeasureId> {
        MeasureId::ALL.into_iter().find(|m| m.key() == key)
    }

    fn idx(self) -> usize {
        Self::ALL
            .iter()
            .position(|m| *m == self)
            .expect("measure listed in ALL")
    }
}

impl fmt::Display for MeasureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Dense vector of measure values; unset entries are `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasureVector {
    values: [Option<f64>; MeasureId::ALL.len()],
}

impl MeasureVector {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a measure.
    pub fn set(&mut self, id: MeasureId, value: f64) {
        self.values[id.idx()] = Some(value);
    }

    /// Reads a measure.
    pub fn get(&self, id: MeasureId) -> Option<f64> {
        self.values[id.idx()]
    }

    /// Iterates over set measures.
    pub fn iter(&self) -> impl Iterator<Item = (MeasureId, f64)> + '_ {
        MeasureId::ALL
            .iter()
            .filter_map(move |&id| self.get(id).map(|v| (id, v)))
    }

    /// Set measures restricted to one characteristic.
    pub fn of_characteristic(
        &self,
        c: Characteristic,
    ) -> impl Iterator<Item = (MeasureId, f64)> + '_ {
        self.iter().filter(move |(id, _)| id.characteristic() == c)
    }

    /// Normalised improvement ratio of `self` against `baseline` for one
    /// measure: `> 1` means better, `< 1` worse, `None` when either side is
    /// missing. Ratios are clamped to `[0.05, 20]` so one degenerate
    /// measure cannot dominate a composite.
    pub fn improvement_ratio(&self, baseline: &MeasureVector, id: MeasureId) -> Option<f64> {
        let mine = self.get(id)?;
        let base = baseline.get(id)?;
        let eps = 1e-9;
        let ratio = if id.higher_is_better() {
            (mine + eps) / (base + eps)
        } else {
            (base + eps) / (mine + eps)
        };
        Some(ratio.clamp(RATIO_CLAMP_MIN, RATIO_CLAMP_MAX))
    }

    /// Composite score of one characteristic against a baseline, scaled so
    /// the baseline itself scores 100. The arithmetic mean of per-measure
    /// improvement ratios × 100 — these are the scatter-plot axes of the
    /// paper's Fig. 4. The ratios are summed left to right in measure
    /// order, as they are listed.
    pub fn characteristic_score(&self, baseline: &MeasureVector, c: Characteristic) -> f64 {
        let (sum, count) = MeasureId::ALL
            .iter()
            .filter(|id| id.characteristic() == c)
            .filter_map(|&id| self.improvement_ratio(baseline, id))
            .fold((-0.0, 0usize), |(sum, count), r| (sum + r, count + 1));
        if count == 0 {
            return 100.0;
        }
        100.0 * sum / count as f64
    }
}

impl fmt::Display for MeasureVector {
    /// Compact `key=value` listing of the set measures, in vector order —
    /// the one place score/measure rendering lives, so CLI and DTO output
    /// never hand-format arrays.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (id, v) in self.iter() {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            write!(f, "{}={v:.3}", id.key())?;
        }
        if first {
            f.write_str("(no measures)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_measures_have_unique_indices() {
        let mut seen = std::collections::HashSet::new();
        for m in MeasureId::ALL {
            assert!(seen.insert(m.idx()));
        }
        assert_eq!(seen.len(), MeasureId::ALL.len());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = MeasureVector::new();
        assert_eq!(v.get(MeasureId::CycleTimeMs), None);
        v.set(MeasureId::CycleTimeMs, 12.5);
        assert_eq!(v.get(MeasureId::CycleTimeMs), Some(12.5));
    }

    #[test]
    fn characteristic_assignment_consistent() {
        for m in MeasureId::ALL {
            // every measure's characteristic is one of the five
            assert!(Characteristic::ALL.contains(&m.characteristic()));
        }
        assert_eq!(
            MeasureId::CycleTimeMs.characteristic(),
            Characteristic::Performance
        );
        assert_eq!(
            MeasureId::MergeCount.characteristic(),
            Characteristic::Manageability
        );
    }

    #[test]
    fn improvement_ratio_directions() {
        let mut base = MeasureVector::new();
        let mut alt = MeasureVector::new();
        base.set(MeasureId::CycleTimeMs, 100.0);
        alt.set(MeasureId::CycleTimeMs, 50.0); // faster = better
        assert!(
            alt.improvement_ratio(&base, MeasureId::CycleTimeMs)
                .unwrap()
                > 1.9
        );
        base.set(MeasureId::Completeness, 0.5);
        alt.set(MeasureId::Completeness, 1.0); // higher = better
        assert!(
            alt.improvement_ratio(&base, MeasureId::Completeness)
                .unwrap()
                > 1.9
        );
        assert_eq!(alt.improvement_ratio(&base, MeasureId::Coupling), None);
    }

    #[test]
    fn ratio_clamped() {
        let mut base = MeasureVector::new();
        let mut alt = MeasureVector::new();
        base.set(MeasureId::CycleTimeMs, 1e12);
        alt.set(MeasureId::CycleTimeMs, 1e-12);
        assert_eq!(
            alt.improvement_ratio(&base, MeasureId::CycleTimeMs)
                .unwrap(),
            20.0
        );
    }

    #[test]
    fn characteristic_score_baseline_is_100() {
        let mut v = MeasureVector::new();
        v.set(MeasureId::CycleTimeMs, 10.0);
        v.set(MeasureId::Throughput, 100.0);
        let score = v.characteristic_score(&v.clone(), Characteristic::Performance);
        assert!((score - 100.0).abs() < 1e-9);
        // characteristic with no shared measures: neutral 100
        assert_eq!(
            v.characteristic_score(&v.clone(), Characteristic::Cost),
            100.0
        );
    }

    #[test]
    fn keys_round_trip_and_are_machine_safe() {
        for m in MeasureId::ALL {
            let key = m.key();
            assert!(
                key.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{key}"
            );
            assert_eq!(MeasureId::from_key(key), Some(m));
        }
        for c in Characteristic::ALL {
            assert_eq!(Characteristic::from_key(c.key()), Some(c));
        }
        assert_eq!(MeasureId::from_key("bogus"), None);
        // No run measures a deadline, so no request may name one.
        assert_eq!(MeasureId::from_key("deadline_success"), None);
        assert_eq!(Characteristic::from_key("data quality"), None);
    }

    #[test]
    fn measure_vector_display_lists_set_measures() {
        let mut v = MeasureVector::new();
        assert_eq!(v.to_string(), "(no measures)");
        v.set(MeasureId::CycleTimeMs, 12.5);
        v.set(MeasureId::Completeness, 0.875);
        assert_eq!(v.to_string(), "cycle_time_ms=12.500 completeness=0.875");
    }

    #[test]
    fn characteristic_score_improves() {
        let mut base = MeasureVector::new();
        base.set(MeasureId::CycleTimeMs, 100.0);
        let mut alt = MeasureVector::new();
        alt.set(MeasureId::CycleTimeMs, 50.0);
        assert!(alt.characteristic_score(&base, Characteristic::Performance) > 150.0);
    }
}
