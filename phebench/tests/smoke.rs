//! `phe_bench --smoke --trace` end to end: every workload runs untraced
//! and traced in its own child process, every answer check passes, and
//! the metrics emitted are exactly the ones `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use phebench::report::{declared, parse_summary};

#[test]
fn smoke_run_emits_exactly_the_declared_metrics() {
    let out: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "smoke-summary.json"]
        .iter()
        .collect();
    let status = Command::new(env!("CARGO_BIN_EXE_phe_bench"))
        .args(["--smoke", "--trace", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("phe_bench runs");
    assert!(status.success(), "a smoke workload failed its checks");

    let summary = parse_summary(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let declared = declared();
    let e2e: BTreeSet<&str> = declared
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    let layer: BTreeSet<&str> = declared.per_layer.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        summary.keys().map(String::as_str).collect::<Vec<_>>(),
        {
            let mut w: Vec<&str> = declared.workloads.iter().map(String::as_str).collect();
            w.sort_unstable();
            w
        },
        "the run covers exactly the declared workloads"
    );
    for (workload, metrics) in &summary {
        let emitted: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
        let expected: BTreeSet<&str> = e2e.union(&layer).copied().collect();
        assert_eq!(emitted, expected, "{workload}: emitted vs declared metrics");
        for name in &e2e {
            let v = metrics[*name][0];
            assert!(
                v > 0.0,
                "{workload}: end-to-end {name} must never be 0, got {v}"
            );
        }
    }
    // A declared per-layer metric that no workload exercises is dead.
    for name in &layer {
        assert!(
            summary.values().any(|m| m[*name][0] != 0.0),
            "per-layer {name} is 0 in every workload"
        );
    }

    // Comparing a run with itself changes nothing.
    let compared = Command::new(env!("CARGO_BIN_EXE_phe_bench"))
        .arg("--compare")
        .args([&out, &out])
        .output()
        .unwrap();
    assert!(compared.status.success());
    let table = String::from_utf8(compared.stdout).unwrap();
    for workload in summary.keys() {
        assert!(table.contains(workload.as_str()), "{table}");
    }
    assert!(
        !table.contains("regressed") && !table.contains("improved"),
        "{table}"
    );
}

#[test]
fn unknown_arguments_are_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_phe_bench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
