//! Static gain bounds. The planner no longer prunes on them: this module is
//! kept only for perfbench's replay, and ROADMAP item 3 deletes it.
//!
//! A [`GainProfile`] is a sound *optimistic* cap on how much one pattern
//! application can improve each quality characteristic, expressed as a
//! multiplier on the characteristic score (baseline = 100). The clamp in
//! [`MeasureVector::improvement_ratio`](crate::MeasureVector::improvement_ratio)
//! guarantees no score exceeds `100 × RATIO_CLAMP_MAX`, so an all-
//! [`RATIO_CLAMP_MAX`] profile is always sound — that's the default every
//! pattern returns.

use crate::measure::{Characteristic, RATIO_CLAMP_MAX};

/// Per-characteristic optimistic improvement caps, indexed in
/// [`Characteristic::ALL`] order. Each cap is a multiplier on the
/// characteristic score: `1.0` = the pattern cannot improve this axis,
/// [`RATIO_CLAMP_MAX`] = unbounded (anything the clamp admits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainProfile {
    caps: [f64; Characteristic::ALL.len()],
}

impl GainProfile {
    /// The sound default: every characteristic may improve up to the ratio
    /// clamp. Never enables pruning on its own.
    pub fn unbounded() -> Self {
        GainProfile {
            caps: [RATIO_CLAMP_MAX; Characteristic::ALL.len()],
        }
    }

    /// A profile that cannot improve anything — the identity of
    /// [`combine`](Self::combine).
    pub fn neutral() -> Self {
        GainProfile {
            caps: [1.0; Characteristic::ALL.len()],
        }
    }

    /// Sets the cap for one characteristic (builder-style). Caps below `1.0`
    /// are raised to `1.0`: a gain bound never claims a pattern *worsens* an
    /// axis, only that it cannot improve it.
    pub fn with_cap(mut self, c: Characteristic, cap: f64) -> Self {
        self.caps[Self::idx(c)] = cap.max(1.0);
        self
    }

    /// The optimistic improvement cap for one characteristic.
    pub fn cap(&self, c: Characteristic) -> f64 {
        self.caps[Self::idx(c)]
    }

    /// Combines two profiles into the bound for applying both patterns:
    /// caps multiply per axis (each application can at best stack its own
    /// gain on the other's), clamped to [`RATIO_CLAMP_MAX`] because the
    /// improvement-ratio clamp caps the realised score regardless of how
    /// many patterns stack.
    pub fn combine(&self, other: &GainProfile) -> GainProfile {
        let mut caps = self.caps;
        for (c, o) in caps.iter_mut().zip(other.caps.iter()) {
            *c = (*c * o).min(RATIO_CLAMP_MAX);
        }
        GainProfile { caps }
    }

    fn idx(c: Characteristic) -> usize {
        Characteristic::ALL
            .iter()
            .position(|x| *x == c)
            .expect("characteristic listed in ALL")
    }
}

impl Default for GainProfile {
    /// Defaults to [`unbounded`](Self::unbounded) — the sound choice when a
    /// pattern declares nothing about its gains.
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::RATIO_CLAMP_MIN;

    #[test]
    fn unbounded_caps_everything_at_clamp() {
        let p = GainProfile::unbounded();
        for c in Characteristic::ALL {
            assert_eq!(p.cap(c), RATIO_CLAMP_MAX);
        }
    }

    #[test]
    fn neutral_is_combine_identity() {
        let p = GainProfile::neutral()
            .with_cap(Characteristic::Security, 7.0)
            .with_cap(Characteristic::Cost, 2.5);
        let combined = p.combine(&GainProfile::neutral());
        for c in Characteristic::ALL {
            assert_eq!(combined.cap(c), p.cap(c));
        }
    }

    #[test]
    fn with_cap_floors_at_one() {
        let p = GainProfile::neutral().with_cap(Characteristic::Performance, 0.2);
        assert_eq!(p.cap(Characteristic::Performance), 1.0);
    }

    #[test]
    fn combine_multiplies_and_clamps() {
        let a = GainProfile::neutral().with_cap(Characteristic::Security, 6.0);
        let b = GainProfile::neutral()
            .with_cap(Characteristic::Security, 5.0)
            .with_cap(Characteristic::Cost, 3.0);
        let c = a.combine(&b);
        // 6 × 5 = 30 clamps to RATIO_CLAMP_MAX
        assert_eq!(c.cap(Characteristic::Security), RATIO_CLAMP_MAX);
        assert_eq!(c.cap(Characteristic::Cost), 3.0);
        assert_eq!(c.cap(Characteristic::Performance), 1.0);
    }

    #[test]
    fn clamp_constants_match_the_documented_interval() {
        assert_eq!(RATIO_CLAMP_MIN, 0.05);
        assert_eq!(RATIO_CLAMP_MAX, 20.0);
    }

    #[test]
    fn default_is_unbounded() {
        assert_eq!(GainProfile::default(), GainProfile::unbounded());
    }
}
