//! Combination exploration: the alternative-design space.
//!
//! §2.2: patterns are added "in varying positions and combinations", and
//! "the complexity of this analysis is factorial to the size of the graph".
//! This module enumerates k-subsets of the candidate list under the policy
//! caps, with an overall budget so the space stays tractable.

use crate::generate::Candidate;
use fcp::{ApplicationPoint, DeploymentPolicy};

/// Statistics of the (possibly truncated) exploration space.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceStats {
    /// Number of single candidates.
    pub candidates: usize,
    /// Theoretical number of alternatives up to the policy depth (before
    /// conflict filtering and budget truncation).
    pub theoretical: f64,
    /// Combinations actually enumerated.
    pub enumerated: usize,
    /// Combinations discarded due to point/pattern conflicts.
    pub conflicts: usize,
    /// True when the budget cut enumeration short.
    pub truncated: bool,
}

/// A combination (indices into `candidates`) is invalid when two
/// applications collide on the same point, or a single pattern exceeds its
/// per-alternative cap. Compares pairs without allocating: O(k²) in the
/// combination's size k, which the policy depth keeps small.
pub fn combination_valid(
    candidates: &[Candidate],
    combo: &[usize],
    policy: &DeploymentPolicy,
) -> bool {
    combo.iter().enumerate().all(|(i, &ci)| {
        let c = &candidates[ci];
        let earlier = || combo[..i].iter().map(|&j| &candidates[j]);
        // graph-level patterns may coexist (they touch different config
        // knobs) but the same point must not host two structural edits
        let point_free =
            c.point == ApplicationPoint::Graph || earlier().all(|e| e.point != c.point);
        let same_pattern = earlier()
            .filter(|e| e.pattern.name() == c.pattern.name())
            .count();
        point_free && same_pattern < policy.max_per_pattern
    })
}

/// Lazy k-subset cursor over the combination space: yields valid
/// combinations (ascending candidate-index vectors) on demand, for
/// `k = 1..=policy.combination_depth(n)`, in lexicographic order within
/// each size, stopping after `budget` valid combinations.
///
/// Nothing is materialised: memory is O(depth) regardless of how large the
/// space is, which is what lets the streaming planner walk budgets of 100k+
/// without holding the combination list (let alone the flows) in memory.
/// [`stats`](CombinationIter::stats) reports what the cursor has seen so
/// far; it is complete once the iterator returns `None`.
pub struct CombinationIter<'a> {
    candidates: &'a [Candidate],
    policy: &'a DeploymentPolicy,
    budget: usize,
    depth: usize,
    /// Current subset size; 0 = exhausted.
    k: usize,
    /// Next index vector to examine (len == k when active).
    idx: Vec<usize>,
    yielded: usize,
    conflicts: usize,
    truncated: bool,
}

impl<'a> CombinationIter<'a> {
    /// Creates a cursor over `candidates` under `policy`, capped at
    /// `budget` valid combinations.
    pub fn new(candidates: &'a [Candidate], policy: &'a DeploymentPolicy, budget: usize) -> Self {
        let n = candidates.len();
        let depth = policy.combination_depth(n);
        let k = if depth == 0 { 0 } else { 1 };
        CombinationIter {
            candidates,
            policy,
            budget,
            depth,
            k,
            idx: if k == 0 { Vec::new() } else { vec![0] },
            yielded: 0,
            conflicts: 0,
            truncated: false,
        }
    }

    /// Exploration-space statistics for everything the cursor has examined
    /// so far (complete after exhaustion).
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            candidates: self.candidates.len(),
            theoretical: theoretical_space(self.candidates.len(), self.depth),
            enumerated: self.yielded,
            conflicts: self.conflicts,
            truncated: self.truncated,
        }
    }

    /// Advances `idx` to the next k-combination in lexicographic order,
    /// rolling over to size k+1; returns false when the space is exhausted.
    fn advance(&mut self) -> bool {
        let n = self.candidates.len();
        let k = self.k;
        let mut pos = k;
        while pos > 0 && self.idx[pos - 1] == pos - 1 + n - k {
            pos -= 1;
        }
        if pos == 0 {
            // all k-combinations exhausted; move to size k+1
            if k >= self.depth {
                self.k = 0;
                return false;
            }
            self.k = k + 1;
            self.idx = (0..self.k).collect();
            return true;
        }
        self.idx[pos - 1] += 1;
        for j in pos..k {
            self.idx[j] = self.idx[j - 1] + 1;
        }
        true
    }
}

impl Iterator for CombinationIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        while self.k != 0 {
            let valid = combination_valid(self.candidates, &self.idx, self.policy);
            if valid && self.yielded >= self.budget {
                // budget full and one more valid combo exists ⇒ the
                // enumeration was truncated
                self.truncated = true;
                self.k = 0;
                return None;
            }
            let item = if valid {
                self.yielded += 1;
                Some(self.idx.clone())
            } else {
                self.conflicts += 1;
                None
            };
            if !self.advance() && item.is_none() {
                return None;
            }
            if item.is_some() {
                return item;
            }
        }
        None
    }
}

/// `Σ_{k=1..depth} C(n, k)` — the raw size of the combination space.
pub fn theoretical_space(n: usize, depth: usize) -> f64 {
    let mut total = 0.0;
    for k in 1..=depth.min(n) {
        let mut c = 1.0;
        for i in 0..k {
            c *= (n - i) as f64 / (i + 1) as f64;
        }
        total += c;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_uncapped;
    use datagen::fig2::{purchases_catalog, purchases_flow};
    use datagen::DirtProfile;
    use fcp::PatternRegistry;

    fn candidates() -> Vec<Candidate> {
        let (f, _) = purchases_flow();
        let cat = purchases_catalog(100, &DirtProfile::demo(), 1);
        let reg = PatternRegistry::standard_for_catalog(&cat);
        generate_uncapped(&f, &reg).unwrap()
    }

    /// Drains a cursor: its combinations and its final stats.
    fn walk(
        cands: &[Candidate],
        policy: &DeploymentPolicy,
        budget: usize,
    ) -> (Vec<Vec<usize>>, SpaceStats) {
        let mut iter = CombinationIter::new(cands, policy, budget);
        let combos = iter.by_ref().collect();
        (combos, iter.stats())
    }

    /// Every k-subset of `0..n` for `k = 1..=depth`, ascending by size and
    /// lexicographic within a size, built by recursion rather than by the
    /// cursor's `advance`.
    fn all_subsets(n: usize, depth: usize) -> Vec<Vec<usize>> {
        fn extend(
            start: usize,
            n: usize,
            k: usize,
            prefix: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if prefix.len() == k {
                out.push(prefix.clone());
                return;
            }
            for i in start..n {
                prefix.push(i);
                extend(i + 1, n, k, prefix, out);
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        for k in 1..=depth {
            extend(0, n, k, &mut Vec::new(), &mut out);
        }
        out
    }

    #[test]
    fn binomial_space() {
        assert_eq!(theoretical_space(5, 1), 5.0);
        assert_eq!(theoretical_space(5, 2), 15.0);
        assert_eq!(theoretical_space(4, 4), 15.0);
        assert_eq!(theoretical_space(0, 3), 0.0);
    }

    #[test]
    fn depth_one_enumerates_each_candidate_once() {
        let cands = candidates();
        let mut policy = fcp::DeploymentPolicy::exhaustive(1);
        policy.max_patterns_per_flow = 1;
        let (combos, stats) = walk(&cands, &policy, usize::MAX);
        assert_eq!(combos.len(), cands.len());
        assert!(!stats.truncated);
        assert_eq!(stats.conflicts, 0);
    }

    #[test]
    fn depth_two_grows_quadratically() {
        let cands = candidates();
        let policy = fcp::DeploymentPolicy::exhaustive(2);
        let (combos, stats) = walk(&cands, &policy, usize::MAX);
        let n = cands.len();
        // upper bound: n + C(n,2); conflicts remove some
        assert!(combos.len() <= n + n * (n - 1) / 2);
        assert!(combos.len() > n, "pairs must exist");
        assert_eq!(stats.enumerated, combos.len());
        assert_eq!(stats.candidates, n);
    }

    #[test]
    fn conflicting_same_point_pairs_rejected() {
        let cands = candidates();
        // find two candidates sharing a point
        let mut shared = None;
        'outer: for (i, a) in cands.iter().enumerate() {
            for (j, b) in cands.iter().enumerate().skip(i + 1) {
                if a.point == b.point && a.point != fcp::ApplicationPoint::Graph {
                    shared = Some((i, j));
                    break 'outer;
                }
            }
        }
        let (i, j) = shared.expect("palette patterns share edge points");
        let policy = fcp::DeploymentPolicy::exhaustive(2);
        assert!(!combination_valid(&cands, &[i, j], &policy));
    }

    #[test]
    fn per_pattern_cap_enforced() {
        let cands = candidates();
        let mut policy = fcp::DeploymentPolicy::exhaustive(3);
        policy.max_per_pattern = 1;
        let two_same: Vec<usize> = (0..cands.len())
            .filter(|&i| cands[i].pattern.name() == "FilterNullValues")
            .take(2)
            .collect();
        assert_eq!(two_same.len(), 2);
        assert!(!combination_valid(&cands, &two_same, &policy));
        policy.max_per_pattern = 2;
        assert!(combination_valid(&cands, &two_same, &policy));
    }

    #[test]
    fn budget_truncates() {
        let cands = candidates();
        let policy = fcp::DeploymentPolicy::exhaustive(3);
        let (combos, stats) = walk(&cands, &policy, 50);
        assert_eq!(combos.len(), 50);
        assert!(stats.truncated);
    }

    #[test]
    fn empty_candidates_yield_empty_space() {
        let policy = fcp::DeploymentPolicy::balanced();
        let (combos, stats) = walk(&[], &policy, 100);
        assert!(combos.is_empty());
        assert_eq!(stats.theoretical, 0.0);
    }

    #[test]
    fn lazy_iterator_matches_eager_enumeration() {
        // Brute force: filter every k-subset through `combination_valid`,
        // keep the first `budget` valid ones, and count the conflicts seen
        // before the budget filled.
        let cands = candidates();
        let n = cands.len();
        for depth in 1..=3 {
            for budget in [10usize, 500, usize::MAX] {
                let policy = fcp::DeploymentPolicy::exhaustive(depth);
                let mut expected = Vec::new();
                let mut conflicts = 0;
                let mut truncated = false;
                for subset in all_subsets(n, policy.combination_depth(n)) {
                    if !combination_valid(&cands, &subset, &policy) {
                        conflicts += 1;
                    } else if expected.len() == budget {
                        truncated = true;
                        break;
                    } else {
                        expected.push(subset);
                    }
                }
                let (lazy, stats) = walk(&cands, &policy, budget);
                assert_eq!(lazy, expected, "depth={depth} budget={budget}");
                assert_eq!(
                    stats,
                    SpaceStats {
                        candidates: n,
                        theoretical: theoretical_space(n, policy.combination_depth(n)),
                        enumerated: expected.len(),
                        conflicts,
                        truncated,
                    },
                    "depth={depth} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn iterator_is_lazy_and_stats_track_progress() {
        let cands = candidates();
        let policy = fcp::DeploymentPolicy::exhaustive(2);
        let mut iter = CombinationIter::new(&cands, &policy, usize::MAX);
        let first: Vec<Vec<usize>> = iter.by_ref().take(7).collect();
        assert_eq!(first.len(), 7);
        let mid = iter.stats();
        assert_eq!(mid.enumerated, 7);
        assert!(!mid.truncated);
        // resuming continues exactly where the cursor stopped
        let rest: Vec<Vec<usize>> = iter.by_ref().collect();
        let (all, _) = walk(&cands, &policy, usize::MAX);
        let resumed: Vec<Vec<usize>> = first.into_iter().chain(rest).collect();
        assert_eq!(all, resumed);
    }

    #[test]
    fn iterator_budget_truncation_matches_eager_flag() {
        let cands = candidates();
        let policy = fcp::DeploymentPolicy::exhaustive(3);
        let mut iter = CombinationIter::new(&cands, &policy, 50);
        let combos: Vec<Vec<usize>> = iter.by_ref().collect();
        assert_eq!(combos.len(), 50);
        assert!(iter.stats().truncated);
        // exact-size budget: everything fits, not truncated
        let (all, full_stats) = walk(&cands, &policy, usize::MAX);
        let mut exact = CombinationIter::new(&cands, &policy, all.len());
        assert_eq!(exact.by_ref().count(), all.len());
        assert!(!exact.stats().truncated);
        assert_eq!(exact.stats().conflicts, full_stats.conflicts);
    }
}
