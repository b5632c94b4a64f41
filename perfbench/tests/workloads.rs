//! Every workload at a tiny size: it passes its correctness gates and
//! emits exactly the metrics `BENCHMARK.json` names, untraced and traced.

use perfbench::{run, Config, Scale, Workload};

/// The `name` of every entry in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("the list is declared");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the list is closed")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| entry.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> perfbench::Outcome {
    let config = Config {
        workload,
        seed: 0xA5A9_2022,
        seconds: 0.4,
        trace,
        scale: Scale::TINY,
    };
    let outcome = run(&config).expect("the workload sets up");
    assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.notes);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    for m in &outcome.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    outcome
}

fn names(outcome: &perfbench::Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|m| m.name).collect()
}

fn check(workload: Workload) {
    let untraced = tiny(workload, false);
    assert_eq!(names(&untraced), declared("end_to_end"));
    for m in &untraced.metrics {
        assert!(
            m.value > 0.0,
            "{}: {} must never be 0",
            workload.name(),
            m.name
        );
    }
    let traced = tiny(workload, true);
    assert_eq!(names(&traced), declared("per_layer"));
    let last = traced.to_json();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
}

#[test]
fn corpus_pox_passes_its_gates_and_reports_every_metric() {
    check(Workload::CorpusPox);
}

#[test]
fn fleet_steady_passes_its_gates_and_reports_every_metric() {
    check(Workload::FleetSteady);
}

#[test]
fn fleet_churn_passes_its_gates_and_reports_every_metric() {
    check(Workload::FleetChurn);
}

#[test]
fn the_declared_workloads_are_the_implemented_ones() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared("workloads"), workloads);
}
