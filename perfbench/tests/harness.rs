//! The benchmark's own tests. They run the workloads on small universes;
//! `cargo test --release` keeps them quick.

use perfbench::workload::{
    self, run_passes, Checked, Plan, Workload, END_TO_END, MIN_PASSES, PER_LAYER,
};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn small(workload: Workload) -> Plan {
    Plan {
        workload,
        repos: 30,
        seed: 11,
    }
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name `{name}`");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
            "bad unit `{unit}` of `{name}`"
        );
    }
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let names = |table: &[(&str, &str)]| -> Vec<String> {
        table.iter().map(|(n, _)| n.to_string()).collect()
    };
    assert_eq!(declared_names(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(declared_names(&json, "per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared_names(&json, "workloads"), workloads);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let result = workload::measure(&small(w), 0.0);
        assert!(result.correct, "{} failed its checks", w.name());
        assert_eq!(result.attempted, MIN_PASSES);
        let emitted: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, declared, "{}", w.name());
        for m in &result.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        let json = result.to_json();
        assert!(json.starts_with(&format!(
            "{{\"correct\": true, \"attempted\": {MIN_PASSES}, \"failed\": 0, \"metrics\": {{"
        )));
    }
}

/// Per-layer metrics that may legitimately read zero on a small run.
const MAY_BE_ZERO: [&str; 4] = [
    "gh_sim.fetch.rate_limit_retries",
    "copyright.violations",
    "trace.overhead_ms",
    "trace.freev_drift",
];

/// Counters that do not depend on timing or on FreeV's sampling.
const REPEATABLE: [&str; 22] = [
    "gh_sim.universe.files",
    "gh_sim.fetch.batches",
    "curation.license.in",
    "curation.license.kept",
    "curation.dedup.in",
    "curation.dedup.kept",
    "curation.syntax.in",
    "curation.syntax.kept",
    "curation.lint.in",
    "curation.lint.kept",
    "curation.copyright.in",
    "curation.copyright.kept",
    "curation.session.batches",
    "curation.dedup.exact_hits",
    "curation.dedup.kept_hashes",
    "curation.dedup.pushed_hashes",
    "textsim.shingles",
    "textsim.signatures",
    "hwlm.train_tokens",
    "hwlm.contexts",
    "verilogeval.candidates",
    "copyright.prompts",
];

#[test]
fn traced_runs_report_every_layer_and_repeat_their_counters() {
    let plan = small(Workload::PaperE2e);
    let first = workload::trace(&plan, 0.0);
    let second = workload::trace(&plan, 0.0);
    for run in [&first, &second] {
        assert!(
            run.correct,
            "traced run differs from the untraced entry points"
        );
        let emitted: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, declared);
        for m in &run.metrics {
            assert!(
                m.value.is_finite() && (m.value > 0.0 || MAY_BE_ZERO.contains(&m.name)),
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
    let value = |run: &workload::RunResult, name: &str| {
        run.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    };
    for name in REPEATABLE {
        assert_eq!(
            value(&first, name),
            value(&second, name),
            "{name} differs between traced runs"
        );
    }
}

#[test]
fn a_failing_pass_is_counted_and_the_run_goes_on() {
    let log = run_passes(
        0.0,
        |i| {
            if i == 2 {
                panic!("deliberate failure in pass {i}");
            }
            i
        },
        |i, _| {
            if i == 4 {
                Err("deliberate check failure".to_string())
            } else {
                Ok(Checked {
                    drifted: 0,
                    items: 1.0,
                })
            }
        },
    );
    assert_eq!(log.attempted, MIN_PASSES);
    assert_eq!(log.failed, 2);
    assert_eq!(log.walls.len(), MIN_PASSES - 2);
    assert_eq!(log.last, Some(MIN_PASSES - 1));
}
