//! Measure-bit snapshot of the runtime model: the bit pattern of every
//! measure that `quality::estimate` and `quality::evaluate` over a
//! simulation trace give on a fixed set of flows, pinned in
//! `tests/measure_bits.txt`.
//!
//! The flows are the Fig. 2 purchases flow, the TPC-H and TPC-DS flows,
//! every scenario's base flow, and a "fragile" Fig. 2 variant (failure
//! rate 0.2 on every operation) with an `AddCheckpoint` fork of it — the
//! only flows here whose expected redo is not zero, so the only ones that
//! pin the redo-span rule.
//!
//! Estimate lines must match to the bit. Simulate lines must too, except
//! `expected_redo_ms` and `recoverability`, which may move by at most
//! [`SIM_REDO_TOLERANCE`] relative: their redo spans are summed from the
//! engine's service times, which the trace's `end - start - redo` used to
//! reconstruct with a rounding of its own. Regenerate with
//!
//! ```text
//! SCENARIOS_BLESS=1 cargo test -p scenarios --test measure_bits
//! ```

use datagen::{fig2, tpcds, tpch, Catalog, DirtProfile};
use etl_model::EtlFlow;
use fcp::builtin::AddCheckpoint;
use fcp::{Pattern, PatternContext};
use poiesis::eval::evaluate_flow;
use poiesis::EvalMode;
use quality::MeasureVector;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Rows per base table of every catalog.
const ROWS: usize = 40;
/// Catalog seed of the Fig. 2, TPC-H and TPC-DS flows.
const SEED: u64 = 7;
/// Relative tolerance of the two simulated recovery measures.
const SIM_REDO_TOLERANCE: f64 = 1e-12;
/// The simulated measures [`SIM_REDO_TOLERANCE`] applies to.
const SIM_REDO_KEYS: [&str; 2] = ["expected_redo_ms", "recoverability"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/measure_bits.txt")
}

/// Every pinned flow with its catalog, labelled.
fn corpus() -> Vec<(String, EtlFlow, Catalog)> {
    let dirt = DirtProfile::demo();
    let fig2_catalog = || fig2::purchases_catalog(ROWS, &dirt, SEED);
    let mut out = vec![
        ("fig2".to_string(), fig2::purchases_flow().0, fig2_catalog()),
        (
            "tpch".to_string(),
            tpch::tpch_flow().0,
            tpch::tpch_catalog(ROWS, &dirt, SEED),
        ),
        (
            "tpcds".to_string(),
            tpcds::tpcds_flow().0,
            tpcds::tpcds_catalog(ROWS, &dirt, SEED),
        ),
    ];
    for s in scenarios::all() {
        out.push((s.name.to_string(), s.flow(), s.catalog(ROWS)));
    }

    let mut fragile = fig2::purchases_flow().0.fork("fig2_fragile");
    let nodes: Vec<_> = fragile.graph.node_ids().collect();
    for n in nodes {
        fragile.op_mut(n).expect("live node").cost.failure_rate = 0.2;
    }
    let mut checkpointed = fragile.fork("fig2_fragile_checkpoint");
    let cp = AddCheckpoint;
    let point = {
        let ctx = PatternContext::new(&checkpointed).expect("valid flow");
        *cp.candidate_points(&ctx)
            .iter()
            .max_by(|x, y| cp.fitness(&ctx, **x).total_cmp(&cp.fitness(&ctx, **y)))
            .expect("an edge point exists")
    };
    cp.apply(&mut checkpointed, point)
        .expect("checkpoint applies");
    out.push(("fig2_fragile".to_string(), fragile, fig2_catalog()));
    out.push((
        "fig2_fragile_checkpoint".to_string(),
        checkpointed,
        fig2_catalog(),
    ));
    out
}

/// One `label<TAB>mode<TAB>measure<TAB>bits` line per measure.
fn render(label: &str, mode: &str, v: &MeasureVector, out: &mut String) {
    for (id, x) in v.iter() {
        let _ = writeln!(out, "{label}\t{mode}\t{}\t{:016x}", id.key(), x.to_bits());
    }
}

fn current() -> String {
    let mut out = String::from(
        "# Measure bits: flow <TAB> estimate|simulate <TAB> measure <TAB> f64 bits.\n\
         # Regenerate: SCENARIOS_BLESS=1 cargo test -p scenarios --test measure_bits\n",
    );
    for (label, flow, catalog) in corpus() {
        let stats = quality::source_stats(&catalog);
        render(
            &label,
            "estimate",
            &quality::estimate(&flow, &stats),
            &mut out,
        );
        let simulated = evaluate_flow(&flow, &catalog, &stats, EvalMode::Simulate, 0)
            .unwrap_or_else(|e| panic!("{label}: simulation failed: {e}"));
        render(&label, "simulate", &simulated, &mut out);
    }
    out
}

/// Whether two lines agree: equal, or a simulated recovery measure whose
/// values differ by at most [`SIM_REDO_TOLERANCE`] relative.
fn agree(expected: &str, actual: &str) -> bool {
    if expected == actual {
        return true;
    }
    let e: Vec<&str> = expected.split('\t').collect();
    let a: Vec<&str> = actual.split('\t').collect();
    if e.len() != 4 || e[..3] != a[..3] || e[1] != "simulate" || !SIM_REDO_KEYS.contains(&e[2]) {
        return false;
    }
    let value = |bits: &str| f64::from_bits(u64::from_str_radix(bits, 16).expect("hex bits"));
    let (x, y) = (value(e[3]), value(a[3]));
    (x - y).abs() <= SIM_REDO_TOLERANCE * x.abs().max(y.abs())
}

#[test]
fn every_measure_matches_its_pinned_bits() {
    let actual = current();
    if std::env::var("SCENARIOS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(golden_path(), &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(golden_path()).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e}\nseed it with SCENARIOS_BLESS=1 cargo test -p scenarios --test measure_bits",
            golden_path().display()
        )
    });
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    assert_eq!(exp.len(), act.len(), "measure line count changed");
    let moved: Vec<String> = exp
        .iter()
        .zip(&act)
        .filter(|(e, a)| !agree(e, a))
        .map(|(e, a)| format!("- {e}\n+ {a}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} measure lines moved:\n{}\nrebless (if intended): SCENARIOS_BLESS=1 cargo test -p scenarios --test measure_bits",
        moved.len(),
        moved.join("\n")
    );
    // the fragile flows are what pins the redo rule: it must be live there
    assert!(
        act.iter().any(
            |l| l.starts_with("fig2_fragile\tsimulate\texpected_redo_ms\t")
                && !l.ends_with("\t0000000000000000")
        ),
        "the fragile flow's simulated expected redo is zero"
    );
}

#[test]
fn tolerance_covers_only_the_simulated_recovery_measures() {
    let line = |mode: &str, key: &str, x: f64| format!("f\t{mode}\t{key}\t{:016x}", x.to_bits());
    let near = 1.0 + 1e-14;
    assert!(agree(
        &line("simulate", "expected_redo_ms", 1.0),
        &line("simulate", "expected_redo_ms", near)
    ));
    assert!(agree(
        &line("simulate", "recoverability", 1.0),
        &line("simulate", "recoverability", near)
    ));
    assert!(!agree(
        &line("simulate", "expected_redo_ms", 1.0),
        &line("simulate", "expected_redo_ms", 1.0 + 1e-9)
    ));
    assert!(!agree(
        &line("estimate", "expected_redo_ms", 1.0),
        &line("estimate", "expected_redo_ms", near)
    ));
    assert!(!agree(
        &line("simulate", "cycle_time_ms", 1.0),
        &line("simulate", "cycle_time_ms", near)
    ));
}
