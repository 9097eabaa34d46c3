//! Seed → fault schedule.
//!
//! Everything a lab run injects is decided *up front* by expanding a
//! `u64` seed through the vendored `rand` (`SmallRng`, a fixed
//! xoshiro-family generator, so the expansion is stable across
//! platforms and releases). The resulting [`FaultPlan`] is pure data:
//! printing it shows exactly what a run will do, and the same seed
//! always produces a byte-identical schedule — the property the
//! determinism test in `tests/lab.rs` pins.
//!
//! # Op indexing
//!
//! Process faults are keyed to *logical operation indices* of the
//! scenario runner's nominal workload: op `0` is the session create, op
//! `2k-1` is the explore of cycle `k`, op `2k` is the select of cycle
//! `k`. The parity invariant (odd = explore, even ≥ 2 = select) holds
//! even when recovery repeats cycles, so a torn-write fault aimed at an
//! even index always lands on a select — a mutation whose snapshot save
//! it can corrupt.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::fmt;

/// What the proxy does to one client↔server exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFault {
    /// Pass the exchange through untouched.
    Forward,
    /// Advance virtual time by `millis`, then forward untouched — models
    /// network latency without costing wall-clock time.
    Delay {
        /// Virtual latency in milliseconds.
        millis: u64,
    },
    /// Read the request, then close the connection without responding.
    Drop,
    /// Forward, but cut the response body short: keep `keep_pct`% of the
    /// body bytes (always at least one byte short of complete), then
    /// close.
    TruncateBody {
        /// Percentage of the response body to deliver.
        keep_pct: u8,
    },
    /// Read the request and go silent until the client's read timeout
    /// fires, then close — the "hung server" case.
    Stall,
    /// Answer `503` + `Retry-After: 1` ourselves without consulting the
    /// server — deterministically exercises the client's shed-retry
    /// path.
    Reject503,
}

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireFault::Forward => write!(f, "forward"),
            WireFault::Delay { millis } => write!(f, "delay({millis}ms)"),
            WireFault::Drop => write!(f, "drop"),
            WireFault::TruncateBody { keep_pct } => write!(f, "truncate({keep_pct}%)"),
            WireFault::Stall => write!(f, "stall"),
            WireFault::Reject503 => write!(f, "reject503"),
        }
    }
}

/// A process-level fault, fired at a logical op boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessFault {
    /// Stop the server after the op completes and restart it from its
    /// `--state-dir`. Recovery must land on a state bit-identical to the
    /// control run at the recovered cycle count.
    KillRestart,
    /// Arm a torn write for the op's session-file write — the crash
    /// happens *before* the temp file is renamed, so the session's
    /// previous file survives intact — then kill and restart. Recovery
    /// rolls back to the previous consistent state.
    TornTempThenKill {
        /// Bytes of the new session file that reach the temp file.
        keep_bytes: usize,
    },
    /// Arm a torn write that lands partial bytes in the session's *final*
    /// file (a non-atomic rename, a lying disk), then kill and restart.
    /// Startup must quarantine that file alone rather than load half a
    /// session, and serve every other session.
    TornFinalThenKill {
        /// Bytes of the session file that reach `sessions/<id>.json`.
        keep_bytes: usize,
    },
}

impl fmt::Display for ProcessFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessFault::KillRestart => write!(f, "kill+restart"),
            ProcessFault::TornTempThenKill { keep_bytes } => {
                write!(f, "torn-temp({keep_bytes}B)+kill+restart")
            }
            ProcessFault::TornFinalThenKill { keep_bytes } => {
                write!(f, "torn-final({keep_bytes}B)+kill+restart")
            }
        }
    }
}

/// The full, deterministic schedule for one lab run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was expanded from.
    pub seed: u64,
    /// Wire faults, applied to exchange `i` as `wire[i % wire.len()]`.
    pub wire: Vec<WireFault>,
    /// Process faults as `(op index, fault)`, ascending and unique by
    /// op index.
    pub process: Vec<(usize, ProcessFault)>,
}

impl FaultPlan {
    /// Expands `seed` into a schedule for a workload of `cycles`
    /// explore/select cycles, with `wire_slots` wire-fault slots.
    ///
    /// The distribution keeps runs terminating: forwards dominate, and a
    /// post-pass forces every fourth consecutive non-forward slot back to
    /// `Forward` so no op can starve behind an endless fault run.
    pub fn from_seed(seed: u64, cycles: usize, wire_slots: usize) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut wire = Vec::with_capacity(wire_slots);
        for _ in 0..wire_slots {
            let roll = rng.gen_range(0..100u32);
            wire.push(match roll {
                0..=54 => WireFault::Forward,
                55..=66 => WireFault::Delay {
                    millis: rng.gen_range(20..2000),
                },
                67..=76 => WireFault::Reject503,
                77..=84 => WireFault::Drop,
                85..=94 => WireFault::TruncateBody {
                    keep_pct: rng.gen_range(5..95),
                },
                _ => WireFault::Stall,
            });
        }
        // Guarantee forward progress: cap consecutive faults at three.
        let mut consecutive = 0usize;
        for slot in &mut wire {
            if *slot == WireFault::Forward || matches!(slot, WireFault::Delay { .. }) {
                consecutive = 0;
            } else if consecutive == 2 {
                *slot = WireFault::Forward;
                consecutive = 0;
            } else {
                consecutive += 1;
            }
        }

        // Process faults: up to two, at distinct op indices. Torn writes
        // only make sense on a mutating op's save, so they are pinned to
        // select indices (even, ≥ 2); kills can land anywhere.
        let last_op = 2 * cycles;
        let mut process: Vec<(usize, ProcessFault)> = Vec::new();
        let events = rng.gen_range(0..=2usize);
        for _ in 0..events {
            let (op, fault) = if cycles > 0 && rng.gen_bool(0.45) {
                let select = 2 * rng.gen_range(1..=cycles);
                let keep_bytes = rng.gen_range(1..=64usize);
                let fault = if rng.gen_bool(0.5) {
                    ProcessFault::TornTempThenKill { keep_bytes }
                } else {
                    ProcessFault::TornFinalThenKill { keep_bytes }
                };
                (select, fault)
            } else {
                (rng.gen_range(0..=last_op), ProcessFault::KillRestart)
            };
            if !process.iter().any(|(existing, _)| *existing == op) {
                process.push((op, fault));
            }
        }
        process.sort_by_key(|(op, _)| *op);
        FaultPlan {
            seed,
            wire,
            process,
        }
    }

    /// The decoded schedule, one line — what a failing run prints so the
    /// fault sequence can be read without re-expanding the seed.
    pub fn describe(&self) -> String {
        let wire = self
            .wire
            .iter()
            .enumerate()
            .map(|(i, f)| format!("{i}:{f}"))
            .collect::<Vec<_>>()
            .join(" ");
        let process = if self.process.is_empty() {
            "none".to_string()
        } else {
            self.process
                .iter()
                .map(|(op, f)| format!("after-op-{op}:{f}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!("seed={} wire=[{wire}] process=[{process}]", self.seed)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_expands_to_a_byte_identical_schedule() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = FaultPlan::from_seed(seed, 3, 24);
            let b = FaultPlan::from_seed(seed, 3, 24);
            assert_eq!(a, b);
            assert_eq!(a.describe(), b.describe());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let plans: Vec<_> = (0..16u64)
            .map(|s| FaultPlan::from_seed(s, 3, 24).describe())
            .collect();
        let distinct: std::collections::BTreeSet<_> = plans.iter().collect();
        assert!(distinct.len() > 8, "seeds barely vary the schedule");
    }

    #[test]
    fn no_schedule_starves_an_op_behind_endless_faults() {
        for seed in 0..200u64 {
            let plan = FaultPlan::from_seed(seed, 3, 24);
            let mut consecutive = 0;
            for slot in &plan.wire {
                let progresses = matches!(slot, WireFault::Forward | WireFault::Delay { .. });
                consecutive = if progresses { 0 } else { consecutive + 1 };
                assert!(consecutive <= 3, "seed {seed}: {}", plan.describe());
            }
        }
    }

    #[test]
    fn torn_faults_only_target_select_ops() {
        for seed in 0..200u64 {
            let plan = FaultPlan::from_seed(seed, 3, 24);
            for (op, fault) in &plan.process {
                assert!(*op <= 6);
                if !matches!(fault, ProcessFault::KillRestart) {
                    assert!(*op >= 2 && op % 2 == 0, "torn fault at op {op}");
                }
            }
        }
    }
}
