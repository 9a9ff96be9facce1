//! Golden-file test: running the checker over the seeded fixture
//! workspace must reproduce `tests/golden.json` exactly — every finding,
//! every pass summary, and the composite exit code.

use std::path::{Path, PathBuf};

use serde::Value;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn run_fixture() -> phe_lint::report::Report {
    phe_lint::run_check(&fixture_root(), &[]).expect("fixture check runs")
}

#[test]
fn fixture_exit_code_sets_every_pass_bit() {
    let report = run_fixture();
    assert_eq!(report.exit_code(), 1 | 2 | 4 | 8 | 16);
}

#[test]
fn json_report_matches_golden_file() {
    let report = run_fixture();
    let actual: Value =
        serde_json::from_str(&report.render_json()).expect("render_json emits valid JSON");
    let golden_text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden.json"))
            .expect("golden file present");
    let golden: Value = serde_json::from_str(&golden_text).expect("golden file parses");
    assert_eq!(
        actual, golden,
        "report drifted from tests/golden.json — if the change is \
         intentional, regenerate with `cargo run -p phe-lint -- check \
         --json --root crates/lint/fixtures/ws`"
    );
}

#[test]
fn text_report_pins_file_line_column() {
    let text = run_fixture().render_text();
    // One representative finding per pass, with exact positions.
    for needle in [
        "src/violations.rs:11:5: [unsafe-audit]",
        "src/violations.rs:21:22: [panic-freedom]",
        "src/violations.rs:23:9: [panic-freedom]",
        "src/violations.rs:34:20: [atomic-ordering]",
        "src/violations.rs:47:27: [metric-catalog]",
        "docs/DOC.md:10:1: [metric-catalog]",
        "docs/DOC.md:16:53: [doc-links]",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    // Annotated/allowlisted/test-exempt sites must NOT be findings.
    for absent in [
        "violations.rs:17", // SAFETY-annotated unsafe
        "violations.rs:29", // LINT-ALLOW(panic)
        "violations.rs:38", // ORDERING-annotated Relaxed
        "violations.rs:43", // allowlisted by lint.toml line entry
        "violations.rs:59", // unwrap inside #[cfg(test)]
    ] {
        assert!(!text.contains(absent), "unexpected `{absent}` in:\n{text}");
    }
}

#[test]
fn selecting_a_single_pass_restricts_the_bitmask() {
    let report = phe_lint::run_check(&fixture_root(), &["panic-freedom".to_owned()])
        .expect("fixture check runs");
    assert_eq!(report.exit_code(), 2);
    let text = report.render_text();
    assert!(!text.contains("[unsafe-audit]"), "{text}");
    assert!(!text.contains("[metric-catalog]"), "{text}");
}

#[test]
fn unknown_pass_is_a_config_error() {
    let err = phe_lint::run_check(&fixture_root(), &["no-such-pass".to_owned()])
        .expect_err("unknown pass must be refused");
    assert!(err.contains("no-such-pass"), "{err}");
}
