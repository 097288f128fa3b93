//! Self-test of the benchmark: a small-scale run of every workload, plain
//! and traced, must answer everything correctly and report every metric
//! `BENCHMARK.json` names.

use fdb_e2ebench::{run, Config, Scale, WORKLOADS};

/// The metric names listed in one section of `BENCHMARK.json`.
fn listed_metrics(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let config = Config {
        workload: workload.into(),
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Smoke,
    };
    let report = run(&config).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(report.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(report.failed, 0, "{workload}: failed_ratio must be 0");
    assert!(report.correct());
    let section = if trace { "per_layer" } else { "end_to_end" };
    let printed: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let listed = listed_metrics(section);
    assert!(!listed.is_empty());
    assert_eq!(printed, listed, "{workload}: {section} metrics");
    let json = report.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    if !trace {
        for m in &report.metrics {
            assert!(m.value > 0.0, "{workload}: {} must never be 0", m.name);
        }
    } else if workload == "serve-mix" {
        assert!(value("snapshot.swap_ms_p50") > 0.0, "the writer swapped");
        assert!(
            value("serve.cache_invalidations") > 0.0,
            "swaps drop cached plans"
        );
    }
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    for workload in WORKLOADS {
        smoke(workload, false);
        smoke(workload, true);
    }
}

#[test]
fn the_host_record_names_cpu_cores_threads_and_features() {
    let host = fdb_e2ebench::host_json();
    for key in ["\"cpu\"", "\"cores\"", "\"fdb_threads\"", "\"features\""] {
        assert!(host.contains(key), "{host}");
    }
}
