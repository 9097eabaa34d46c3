//! Pareto frontier (skyline) computation over quality dimensions.
//!
//! §3: "The scatter-plot points presented to the user are only the Pareto
//! frontier (skyline) of the complete set of alternative designs … where
//! larger values are preferred to smaller ones. For one design ETL1, if
//! there exists at least one alternative design ETL2 offering the same or
//! better performance and data quality, and at the same time better
//! reliability, then ETL1 will not be presented to the user."
//!
//! The planner maintains the frontier incrementally with [`SkylineSet`];
//! the block-nested-loop [`pareto_skyline_bnl`] is the textbook batch
//! reference it is held to.

/// `a` dominates `b`: at least as good everywhere, strictly better
/// somewhere (larger is better on every axis).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strictly = true;
        }
    }
    strictly
}

/// Block-nested-loop skyline: compare every point against every other.
/// Returns the indices of non-dominated points, ascending.
pub fn pareto_skyline_bnl(points: &[Vec<f64>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(other, &points[i]))
        })
        .collect()
}

/// Result of one [`SkylineSet::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Insertion {
    /// The point joined the frontier; `evicted` lists the ids of members it
    /// newly dominates (removed from the set, ascending).
    Accepted {
        /// Ids of the members the new point evicted, ascending.
        evicted: Vec<usize>,
    },
    /// The point is dominated by an existing member and was rejected.
    Dominated,
}

/// An incrementally maintained Pareto frontier: points stream in one at a
/// time, dominated arrivals are rejected on the spot and newly-dominated
/// members are evicted, so the frontier is correct *during* evaluation —
/// the planner never has to materialise the full point set.
///
/// Equal points follow the batch semantics of [`pareto_skyline_bnl`]: they
/// do not dominate each other, so duplicates coexist on the frontier. For
/// any insertion order, the final id set equals the batch skyline of the
/// same points (the frontier of a set is unique) —
/// `skyline_set_agrees_with_batch` below and the cross-crate proptests
/// hold both algorithms to that.
#[derive(Debug, Clone, Default)]
pub struct SkylineSet {
    members: Vec<(usize, Vec<f64>)>,
}

impl SkylineSet {
    /// An empty frontier.
    pub fn new() -> Self {
        SkylineSet::default()
    }

    /// Offers `(id, point)` to the frontier.
    pub fn insert(&mut self, id: usize, point: Vec<f64>) -> Insertion {
        if self.members.iter().any(|(_, p)| dominates(p, &point)) {
            return Insertion::Dominated;
        }
        let mut evicted = Vec::new();
        self.members.retain(|(mid, p)| {
            if dominates(&point, p) {
                evicted.push(*mid);
                false
            } else {
                true
            }
        });
        evicted.sort_unstable();
        self.members.push((id, point));
        Insertion::Accepted { evicted }
    }

    /// Ids of the current frontier members, ascending.
    pub fn ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.members.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids
    }

    /// Current frontier size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no point has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `(id, point)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f64])> {
        self.members.iter().map(|(id, p)| (*id, p.as_slice()))
    }

    /// True when some current member strictly dominates `point`. The
    /// planner's bound pruner asks this about a combination's *optimistic*
    /// score bound: a dominated bound proves the real (never better) point
    /// would be rejected too, so the combination can be skipped unevaluated.
    pub fn dominates_point(&self, point: &[f64]) -> bool {
        self.members.iter().any(|(_, p)| dominates(p, point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_relation() {
        assert!(dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[2.0, 1.0], &[1.0, 2.0]));
        assert!(
            !dominates(&[1.0, 1.0], &[1.0, 1.0]),
            "equal points don't dominate"
        );
        assert!(dominates(&[1.0, 1.0, 1.1], &[1.0, 1.0, 1.0]));
    }

    #[test]
    fn paper_example_semantics() {
        // ETL2 same-or-better perf & DQ, strictly better reliability ⇒ ETL1 hidden
        let etl1 = vec![100.0, 100.0, 100.0];
        let etl2 = vec![100.0, 110.0, 120.0];
        let sky = pareto_skyline_bnl(&[etl1, etl2]);
        assert_eq!(sky, vec![1]);
    }

    #[test]
    fn incomparable_points_all_survive() {
        let pts = vec![vec![3.0, 1.0], vec![2.0, 2.0], vec![1.0, 3.0]];
        assert_eq!(pareto_skyline_bnl(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn both_algorithms_agree_on_random_input() {
        // the batch reference and the incremental set, fed in a shuffled
        // order, reach the same frontier
        use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for dims in [2, 3, 4] {
            let pts: Vec<Vec<f64>> = (0..300)
                .map(|_| (0..dims).map(|_| rng.gen_range(0.0..100.0)).collect())
                .collect();
            let bnl = pareto_skyline_bnl(&pts);
            let mut order: Vec<usize> = (0..pts.len()).collect();
            order.shuffle(&mut rng);
            let mut set = SkylineSet::new();
            for i in order {
                set.insert(i, pts[i].clone());
            }
            assert_eq!(set.ids(), bnl, "dims={dims}");
            // skyline is a small fraction of random points
            assert!(bnl.len() < pts.len());
            assert!(!bnl.is_empty());
        }
    }

    #[test]
    fn duplicates_all_kept() {
        // equal points don't dominate each other, so all stay
        let pts = vec![vec![1.0, 1.0]; 4];
        assert_eq!(pareto_skyline_bnl(&pts).len(), 4);
    }

    #[test]
    fn empty_and_single() {
        assert!(pareto_skyline_bnl(&[]).is_empty());
        assert_eq!(pareto_skyline_bnl(&[vec![1.0]]), vec![0]);
    }

    #[test]
    fn skyline_set_rejects_dominated_and_evicts() {
        let mut s = SkylineSet::new();
        assert_eq!(
            s.insert(0, vec![1.0, 1.0]),
            Insertion::Accepted { evicted: vec![] }
        );
        // dominated arrival rejected on the spot
        assert_eq!(s.insert(1, vec![0.5, 0.5]), Insertion::Dominated);
        assert_eq!(s.len(), 1);
        // incomparable arrival coexists
        assert_eq!(
            s.insert(2, vec![2.0, 0.5]),
            Insertion::Accepted { evicted: vec![] }
        );
        // a dominating arrival evicts both
        assert_eq!(
            s.insert(3, vec![2.0, 1.0]),
            Insertion::Accepted {
                evicted: vec![0, 2]
            }
        );
        assert_eq!(s.ids(), vec![3]);
    }

    #[test]
    fn skyline_set_keeps_duplicates_like_batch() {
        let mut s = SkylineSet::new();
        for i in 0..4 {
            assert_eq!(
                s.insert(i, vec![1.0, 1.0]),
                Insertion::Accepted { evicted: vec![] }
            );
        }
        assert_eq!(s.ids(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn skyline_set_agrees_with_batch() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1234);
        for dims in [2usize, 3, 4] {
            let pts: Vec<Vec<f64>> = (0..400)
                .map(|_| (0..dims).map(|_| rng.gen_range(0.0..100.0)).collect())
                .collect();
            let mut set = SkylineSet::new();
            for (i, p) in pts.iter().enumerate() {
                set.insert(i, p.clone());
            }
            assert_eq!(set.ids(), pareto_skyline_bnl(&pts), "dims={dims}");
            // reversed insertion order reaches the same frontier
            let mut rev = SkylineSet::new();
            for (i, p) in pts.iter().enumerate().rev() {
                rev.insert(i, p.clone());
            }
            assert_eq!(rev.ids(), set.ids(), "order-independent dims={dims}");
        }
    }
}
