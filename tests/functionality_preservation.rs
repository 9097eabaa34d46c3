//! The defining FCP property (§2.2): patterns "improve certain quality
//! characteristics, but do not alter [the flow's] main functionality".
//!
//! For structure/config patterns (ParallelizeTask, AddCheckpoint, the graph
//! patterns) the loaded data must be *identical* up to row order. For
//! cleaning patterns the loaded data may only shrink (rows dropped) or be
//! repaired towards the clean reference — never invent rows.

use datagen::DirtProfile;
use etl_model::{EtlFlow, Tuple, Value};
use fcp::{PatternContext, PatternRegistry};
use simulator::{simulate, Trace};

fn sorted_load_keys(trace: &Trace) -> Vec<String> {
    let mut keys: Vec<String> = trace
        .loads
        .iter()
        .flat_map(|l| l.rows.iter().map(row_key))
        .collect();
    keys.sort();
    keys
}

fn row_key(row: &Tuple) -> String {
    row.iter()
        .map(Value::group_key)
        .collect::<Vec<_>>()
        .join("|")
}

fn for_each_application(
    flow: &EtlFlow,
    catalog: &datagen::Catalog,
    mut check: impl FnMut(&str, &EtlFlow, &Trace, &Trace),
) {
    let registry = PatternRegistry::standard_for_catalog(catalog);
    let base_trace = simulate(flow, catalog).unwrap();
    let ctx = PatternContext::new(flow).unwrap();
    let candidates: Vec<(String, fcp::ApplicationPoint)> = registry
        .iter()
        .flat_map(|p| {
            p.candidate_points(&ctx)
                .into_iter()
                .map(move |pt| (p.name().to_string(), pt))
        })
        .collect();
    drop(ctx);
    for (name, pt) in candidates {
        let pattern = registry.by_name(&name).unwrap();
        let mut g = flow.fork("probe");
        if pattern.apply(&mut g, pt).is_err() {
            continue;
        }
        let t = simulate(&g, catalog).unwrap();
        check(&name, &g, &base_trace, &t);
    }
}

#[test]
fn structural_patterns_preserve_loaded_data_exactly() {
    let (flow, _) = datagen::fig2::purchases_flow();
    let catalog = datagen::fig2::purchases_catalog(200, &DirtProfile::demo(), 6);
    let preserving = [
        "ParallelizeTask",
        "AddCheckpoint",
        "EncryptChannels",
        "EnableAccessControl",
        "UpgradeResources",
        "IncreaseRecurrence",
    ];
    let mut checked = 0;
    for_each_application(&flow, &catalog, |name, _alt, base, t| {
        if preserving.contains(&name) {
            assert_eq!(
                sorted_load_keys(base),
                sorted_load_keys(t),
                "{name} altered the loaded data"
            );
            checked += 1;
        }
    });
    assert!(
        checked >= 6,
        "expected several preserving applications, got {checked}"
    );
}

#[test]
fn cleaning_patterns_never_invent_rows() {
    let (flow, _) = datagen::fig2::purchases_flow();
    let catalog = datagen::fig2::purchases_catalog(200, &DirtProfile::filthy(), 6);
    let mut checked = 0;
    for_each_application(&flow, &catalog, |name, _alt, base, t| {
        match name {
            "FilterNullValues" | "RemoveDuplicateEntries" => {
                // cleaned loads are a (multiset) subset of the base loads
                assert!(
                    t.rows_loaded() <= base.rows_loaded(),
                    "{name} grew the load from {} to {}",
                    base.rows_loaded(),
                    t.rows_loaded()
                );
                let base_keys = sorted_load_keys(base);
                for k in sorted_load_keys(t) {
                    assert!(
                        base_keys.binary_search(&k).is_ok(),
                        "{name} invented row {k}"
                    );
                }
                checked += 1;
            }
            "CrosscheckSources" => {
                // Repair changes values, not row identity. Cardinality can
                // still move when the repair happens *upstream* of a filter:
                // rows whose keys/dates were broken now pass the quality
                // gate (more rows is the expected direction — repaired data
                // qualifies where broken data did not).
                assert!(
                    t.rows_loaded() >= base.rows_loaded(),
                    "{name} lost rows: {} -> {}",
                    base.rows_loaded(),
                    t.rows_loaded()
                );
                assert!(
                    t.rows_loaded() <= base.rows_loaded() * 13 / 10,
                    "{name} inflated rows implausibly: {} -> {}",
                    base.rows_loaded(),
                    t.rows_loaded()
                );
                checked += 1;
            }
            _ => {}
        }
    });
    assert!(
        checked >= 10,
        "expected many cleaning applications, got {checked}"
    );
}

#[test]
fn combined_patterns_still_preserve_semantics() {
    // a parallelize + checkpoint + encrypt combination must keep loads
    // byte-identical to the base flow
    use poiesis::apply::apply_combination;
    use poiesis::generate::generate_uncapped;

    let (flow, ids) = datagen::fig2::purchases_flow();
    let catalog = datagen::fig2::purchases_catalog(200, &DirtProfile::demo(), 6);
    let registry = PatternRegistry::standard_for_catalog(&catalog);
    let cands = generate_uncapped(&flow, &registry).unwrap();
    let par = cands
        .iter()
        .find(|c| {
            c.pattern.name() == "ParallelizeTask"
                && c.point == fcp::ApplicationPoint::Node(ids.derive_values)
        })
        .unwrap();
    let cp = cands
        .iter()
        .find(|c| c.pattern.name() == "AddCheckpoint")
        .unwrap();
    let enc = cands
        .iter()
        .find(|c| c.pattern.name() == "EncryptChannels")
        .unwrap();
    let (alt, applied) = apply_combination(&flow, &[par, cp, enc], "combo").unwrap();
    assert_eq!(applied.len(), 3);

    let base = simulate(&flow, &catalog).unwrap();
    let t = simulate(&alt, &catalog).unwrap();
    assert_eq!(sorted_load_keys(&base), sorted_load_keys(&t));
    // and the combination kept its quality promises directionally
    let vb = quality::evaluate(&flow, &base);
    let va = quality::evaluate(&alt, &t);
    assert!(
        va.get(quality::MeasureId::SecurityScore).unwrap()
            > vb.get(quality::MeasureId::SecurityScore).unwrap()
    );
}
