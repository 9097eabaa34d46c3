//! FIG2 — regenerates the paper's Fig. 2: different quality goals generate
//! different FCPs on the S_Purchases flow. (a) a performance goal produces
//! horizontal partitioning + parallel derive; (b) a reliability goal
//! produces savepoints around the expensive task.

use bench::{fmt, purchases_setup};
use fcp::builtin::{AddCheckpoint, ParallelizeTask};
use fcp::{ApplicationPoint, Pattern, PatternContext};
use simulator::simulate;

fn main() {
    let (flow, catalog) = purchases_setup(3_000);
    // make the downstream group-derives somewhat fragile so reliability is
    // a live concern, as the paper's recovery scenario implies
    let mut flow = flow;
    for n in flow.ops_of_kind("derive") {
        if flow.op(n).unwrap().name().contains("Group") {
            flow.op_mut(n).unwrap().cost.failure_rate = 0.10;
        }
    }
    let base_trace = simulate(&flow, &catalog).unwrap();
    let base = quality::evaluate(&flow, &base_trace);

    // ---- Fig. 2a: goal = time performance → ParallelizeTask on DERIVE VALUES
    let par = ParallelizeTask::default();
    let mut fig2a = flow.fork("fig2a_performance");
    let target = {
        let ctx = PatternContext::new(&fig2a).unwrap();
        *par.candidate_points(&ctx)
            .iter()
            .max_by(|a, b| par.fitness(&ctx, **a).total_cmp(&par.fitness(&ctx, **b)))
            .expect("a parallelizable op exists")
    };
    par.apply(&mut fig2a, target).unwrap();
    let a_trace = simulate(&fig2a, &catalog).unwrap();
    let a = quality::evaluate(&fig2a, &a_trace);

    // ---- Fig. 2b: goal = reliability → AddCheckpoint after DERIVE VALUES
    let cp = AddCheckpoint;
    let mut fig2b = flow.fork("fig2b_reliability");
    let target = {
        let ctx = PatternContext::new(&fig2b).unwrap();
        *cp.candidate_points(&ctx)
            .iter()
            .max_by(|x, y| cp.fitness(&ctx, **x).total_cmp(&cp.fitness(&ctx, **y)))
            .expect("an edge point exists")
    };
    let desc = match target {
        ApplicationPoint::Edge(e) => target_desc(&fig2b, e),
        _ => unreachable!(),
    };
    cp.apply(&mut fig2b, target).unwrap();
    let b_trace = simulate(&fig2b, &catalog).unwrap();
    let b = quality::evaluate(&fig2b, &b_trace);

    use quality::MeasureId::*;
    println!("FIG2 — FCP generation on the S_Purchases flow (scale 3000)\n");
    let rows = vec![
        vec![
            "initial flow".into(),
            fmt(base.get(CycleTimeMs).unwrap()),
            fmt(base.get(ExpectedRedoMs).unwrap()),
            fmt(base.get(Recoverability).unwrap()),
            flow.op_count().to_string(),
        ],
        vec![
            "(a) + ParallelizeTask (performance)".into(),
            fmt(a.get(CycleTimeMs).unwrap()),
            fmt(a.get(ExpectedRedoMs).unwrap()),
            fmt(a.get(Recoverability).unwrap()),
            fig2a.op_count().to_string(),
        ],
        vec![
            format!("(b) + AddCheckpoint (reliability, {desc})"),
            fmt(b.get(CycleTimeMs).unwrap()),
            fmt(b.get(ExpectedRedoMs).unwrap()),
            fmt(b.get(Recoverability).unwrap()),
            fig2b.op_count().to_string(),
        ],
    ];
    print!(
        "{}",
        viz::render_table(
            &[
                "design",
                "cycle (ms)",
                "E[redo] (ms)",
                "recoverability",
                "#ops"
            ],
            &rows
        )
    );

    // Expected shapes from the paper
    let speedup = base.get(CycleTimeMs).unwrap() / a.get(CycleTimeMs).unwrap();
    let redo_cut = base.get(ExpectedRedoMs).unwrap() / b.get(ExpectedRedoMs).unwrap().max(1e-9);
    println!("\nshape checks:");
    println!(
        "  (a) cycle-time speedup      : {:.2}x (expect > 1)",
        speedup
    );
    println!(
        "  (b) expected-redo reduction : {:.2}x (expect > 1)",
        redo_cut
    );
    assert!(speedup > 1.0, "parallelisation must speed the flow up");
    assert!(redo_cut > 1.0, "savepoint must cut expected redo");
    assert_eq!(fig2a.ops_of_kind("partition").len(), 1);
    assert_eq!(fig2b.ops_of_kind("checkpoint").len(), 1);
}

fn target_desc(flow: &etl_model::EtlFlow, e: etl_model::EdgeId) -> String {
    let (s, _) = flow.graph.endpoints(e).unwrap();
    format!("after `{}`", flow.op(s).unwrap().name())
}
