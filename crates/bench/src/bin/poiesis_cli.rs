//! `poiesis_cli` — the headless counterpart of the paper's GUI tool.
//!
//! ```text
//! poiesis_cli show      <model.(xlm|ktr)>          print the flow as DOT
//! poiesis_cli convert   <in.ktr> <out.xlm>         PDI → xLM conversion
//! poiesis_cli measures  <model.(xlm|ktr)>          simulate + Fig.1 table
//! poiesis_cli plan      <model.(xlm|ktr)> [opts]   one planning cycle
//!     --policy <balanced|performance|reliability|data-quality>
//!     --strategy <exhaustive|beam[:W]|greedy>  space walk (default exhaustive)
//!     --weights <c=w,..>      objective weights by characteristic key,
//!                             e.g. performance=2,data_quality=1
//!     --require <m:r,..>      hard constraints by measure key: the measure
//!                             must not regress past ratio r vs baseline,
//!                             e.g. cycle_time_ms:1.0,accuracy:0.95
//!     --drop-dominated        keep only the frontier in memory (O(frontier))
//!     --alternatives <N>      cap on enumerated alternatives (default 2000)
//!     --simulate              score by full simulation instead of estimation
//!     --rows <N>              synthetic rows per source (default 500)
//!     --svg <path>            write the Fig. 4 scatter-plot as SVG
//!     --top <N>               frontier designs to report (default 5)
//!     --json                  emit the PlanResponse DTO as JSON instead of
//!                             the human tables
//! ```
//!
//! Sources named by the model's extracts are synthesised from their schemas
//! (demo dirt profile) — the headless equivalent of pointing the tool at a
//! test database. Planning goes through the goal-driven facade
//! (`Poiesis::session()` + `Objective`), the same path a network service
//! will use.

use datagen::synthesize_catalog;
use etl_model::EtlFlow;
use fcp::DeploymentPolicy;
use poiesis::{EvalMode, Objective, PlanResponse, Poiesis, SearchStrategyKind, ToJson};
use quality::{Characteristic, MeasureId};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with no arguments for usage");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: poiesis_cli <show|convert|measures|plan> <model.(xlm|ktr)> [options]".to_string()
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or_else(usage)?;
    match cmd.as_str() {
        "show" => {
            let flow = load_model(args.get(1).ok_or_else(usage)?)?;
            print!("{}", flow.to_dot());
            Ok(())
        }
        "convert" => {
            let input = args.get(1).ok_or_else(usage)?;
            let output = args.get(2).ok_or_else(usage)?;
            if !input.ends_with(".ktr") {
                return Err("convert expects a .ktr input".into());
            }
            let flow = load_model(input)?;
            std::fs::write(output, xlm::write_flow(&flow))
                .map_err(|e| format!("writing {output}: {e}"))?;
            println!("wrote {output}");
            Ok(())
        }
        "measures" => {
            let flow = load_model(args.get(1).ok_or_else(usage)?)?;
            let catalog = synthesize_catalog(&flow, 500)?;
            let trace = simulator::simulate(&flow, &catalog).map_err(|e| e.to_string())?;
            let v = quality::evaluate(&flow, &trace);
            let rows: Vec<Vec<String>> = quality::MeasureId::ALL
                .iter()
                .filter_map(|&id| {
                    let val = v.get(id)?;
                    Some(vec![
                        id.characteristic().name().to_string(),
                        id.name().to_string(),
                        format!("{val:.4}"),
                    ])
                })
                .collect();
            print!(
                "{}",
                viz::render_table(&["characteristic", "measure", "value"], &rows)
            );
            Ok(())
        }
        "plan" => plan_cmd(args),
        other => Err(format!("unknown command `{other}`; {}", usage())),
    }
}

fn opt_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn opt_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses `--weights performance=2,data_quality=1` into an objective,
/// layering `--require cycle_time_ms:1.0` constraints on top. No
/// `--weights` keeps the balanced default axes.
fn parse_objective(args: &[String]) -> Result<Objective, String> {
    let mut objective = match opt_value(args, "--weights") {
        None => Objective::balanced(),
        Some(spec) => {
            let mut o = Objective::new();
            for part in spec.split(',').filter(|p| !p.is_empty()) {
                let (key, weight) = part
                    .split_once('=')
                    .ok_or_else(|| format!("--weights expects key=weight, got `{part}`"))?;
                let c = Characteristic::from_key(key)
                    .ok_or_else(|| format!("unknown characteristic `{key}`"))?;
                let w: f64 = weight
                    .parse()
                    .map_err(|_| format!("bad weight `{weight}` for `{key}`"))?;
                o = o.weighted(c, w);
            }
            o
        }
    };
    if let Some(spec) = opt_value(args, "--require") {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, ratio) = part
                .split_once(':')
                .ok_or_else(|| format!("--require expects measure:ratio, got `{part}`"))?;
            let m = MeasureId::from_key(key).ok_or_else(|| format!("unknown measure `{key}`"))?;
            let r: f64 = ratio
                .parse()
                .map_err(|_| format!("bad ratio `{ratio}` for `{key}`"))?;
            objective = objective.constrain(m, r);
        }
    }
    Ok(objective)
}

fn plan_cmd(args: &[String]) -> Result<(), String> {
    let flow = load_model(args.get(1).ok_or_else(usage)?)?;
    let rows: usize = opt_value(args, "--rows")
        .map(|v| v.parse().map_err(|_| "--rows expects a number"))
        .transpose()?
        .unwrap_or(500);
    let max_alternatives: usize = opt_value(args, "--alternatives")
        .map(|v| v.parse().map_err(|_| "--alternatives expects a number"))
        .transpose()?
        .unwrap_or(2_000);
    let top: usize = opt_value(args, "--top")
        .map(|v| v.parse().map_err(|_| "--top expects a number"))
        .transpose()?
        .unwrap_or(5);
    let policy = match opt_value(args, "--policy").unwrap_or("balanced") {
        "balanced" => DeploymentPolicy::balanced(),
        "performance" => DeploymentPolicy::performance_first(),
        "reliability" => DeploymentPolicy::reliability_first(),
        "data-quality" => DeploymentPolicy::data_quality_first(),
        other => return Err(format!("unknown policy `{other}`")),
    };
    let eval_mode = if opt_flag(args, "--simulate") {
        EvalMode::Simulate
    } else {
        EvalMode::Estimate
    };
    let strategy: SearchStrategyKind = opt_value(args, "--strategy")
        .unwrap_or("exhaustive")
        .parse()?;
    let objective = parse_objective(args)?;

    let catalog = synthesize_catalog(&flow, rows)?;
    let session = Poiesis::session()
        .flow(flow)
        .catalog(catalog)
        .policy(policy)
        .objective(objective)
        .strategy(strategy)
        .eval_mode(eval_mode)
        .budget(max_alternatives)
        .retain_dominated(!opt_flag(args, "--drop-dominated"))
        .build()
        .map_err(|e| e.to_string())?;
    let outcome = session.explore().map_err(|e| e.to_string())?;
    let axes = session.objective().characteristics();

    // --svg composes with both output modes, so it runs first
    if let Some(path) = opt_value(args, "--svg") {
        // the plot's x/y(/z) are the objective's first axes — a 1-goal
        // objective degenerates to a strip chart rather than panicking
        if axes.is_empty() {
            return Err("--svg needs an objective with at least one goal".into());
        }
        let points: Vec<viz::ScatterPoint> = outcome
            .alternatives
            .iter()
            .enumerate()
            .map(|(i, a)| viz::ScatterPoint {
                label: a.name.clone(),
                x: a.scores[0],
                y: a.scores.get(1).copied().unwrap_or(100.0),
                z: a.scores.get(2).copied(),
                on_skyline: outcome.skyline.contains(&i),
            })
            .collect();
        let x_label = axes[0].key();
        let y_label = axes.get(1).map_or("(no second goal)", |c| c.key());
        std::fs::write(path, viz::scatter_svg(&points, 640, 480, x_label, y_label))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("scatter-plot written to {path}");
    }

    if opt_flag(args, "--json") {
        let response = PlanResponse::from_outcome(&outcome, session.objective(), None);
        println!("{}", response.to_json_string());
        return Ok(());
    }

    println!(
        "strategy {strategy} | candidates {} | alternatives {} | frontier {} | rejected-by-constraint {} | failed-evals {}",
        outcome.candidates.len(),
        outcome.alternatives.len(),
        outcome.skyline.len(),
        outcome.rejected_by_constraints,
        outcome.failed_evaluations
    );
    println!("baseline: {}", outcome.baseline);
    for (i, alt) in outcome.skyline_alternatives().take(top).enumerate() {
        let scores = axes
            .iter()
            .zip(&alt.scores)
            .map(|(c, s)| format!("{} {s:6.1}", c.key()))
            .collect::<Vec<_>>()
            .join("  ");
        println!("\n#{i} {scores} — {}", alt.applied.join(" + "));
        print!("{}", viz::render_bars(&outcome.report(alt), false));
    }
    Ok(())
}

/// Loads an xLM (`.xlm`/`.xml`) or PDI (`.ktr`) model file and validates it.
fn load_model(path: &str) -> Result<EtlFlow, String> {
    let flow = xlm::read_model_file(path)?;
    flow.validate().map_err(|e| format!("invalid model: {e}"))?;
    Ok(flow)
}
