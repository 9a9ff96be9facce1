//! End-to-end tests of the `phe` CLI binary: generate → stats → build →
//! estimate → accuracy, exercising real process boundaries and file I/O.

use std::path::PathBuf;
use std::process::Command;

fn phe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_phe"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("phe_cli_tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_generate_build_estimate() {
    let dir = workdir("workflow");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");

    // generate
    let out = phe()
        .args([
            "generate",
            "chained",
            "--scale",
            "0.05",
            "--seed",
            "7",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .expect("spawn phe generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(graph.exists());

    // stats
    let out = phe()
        .args(["stats", graph.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("labels:   6"), "{text}");

    // build
    let out = phe()
        .args([
            "build",
            graph.to_str().unwrap(),
            "--k",
            "3",
            "--beta",
            "32",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stats.exists());

    // estimate — needs only the snapshot, not the graph.
    let out = phe()
        .args(["estimate", stats.to_str().unwrap(), "r0/r1", "r5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    for line in lines {
        let (expr, value) = line.split_once('\t').expect("tab-separated output");
        assert!(!expr.is_empty());
        let v: f64 = value.parse().expect("numeric estimate");
        assert!(v >= 0.0);
    }

    // accuracy
    let out = phe()
        .args([
            "accuracy",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--beta",
            "16",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sum-based"), "{text}");
}

#[test]
fn build_stats_reports_sparse_memory() {
    let dir = workdir("build_stats");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");
    let out = phe()
        .args([
            "generate",
            "chained",
            "--scale",
            "0.05",
            "--seed",
            "11",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // --stats + --no-accuracy: sparse end-to-end, memory report printed,
    // no accuracy line.
    let out = phe()
        .args([
            "build",
            graph.to_str().unwrap(),
            "--k",
            "3",
            "--beta",
            "32",
            "--stats",
            "--no-accuracy",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sparse catalog"), "{text}");
    assert!(text.contains("realized"), "{text}");
    assert!(text.contains("bytes/entry"), "{text}");
    assert!(text.contains("compression"), "{text}");
    assert!(text.contains("histogram + ordering state only"), "{text}");
    assert!(!text.contains("whole-domain mean"), "{text}");

    // The written snapshot is v5 and still estimates.
    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"version\": 5"), "{json}");
    assert!(json.contains("\"nonzero_paths\""), "{json}");
    assert!(json.contains("\"base_build_id\""), "{json}");
    let out = phe()
        .args(["estimate", stats.to_str().unwrap(), "r0/r1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn build_catalog_file_writes_a_servable_sidecar() {
    let dir = workdir("catalog_file");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");
    let out = phe()
        .args([
            "generate",
            "chained",
            "--scale",
            "0.05",
            "--seed",
            "13",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // --catalog-file writes the .phc sidecar next to --out and records
    // it by relative name; the JSON carries no inline runs.
    let out = phe()
        .args([
            "build",
            graph.to_str().unwrap(),
            "--k",
            "3",
            "--beta",
            "32",
            "--no-accuracy",
            "--catalog-file",
            "cat.phc",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cat.phc"), "{text}");
    assert!(dir.join("cat.phc").exists());
    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"catalog_file\": \"cat.phc\""), "{json}");
    assert!(json.contains("\"sparse_runs\": null"), "{json}");

    // Estimation needs only the histogram — the sidecar is for serving.
    let out = phe()
        .args(["estimate", stats.to_str().unwrap(), "r0/r1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // An absolute sidecar path is refused: the pair must stay movable.
    let out = phe()
        .args([
            "build",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--beta",
            "8",
            "--no-accuracy",
            "--catalog-file",
            "/tmp/abs.phc",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("relative"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn delta_refreshes_statistics_incrementally() {
    let dir = workdir("delta");
    let graph = dir.join("g.tsv");
    let changes = dir.join("changes.tsv");
    let stats = dir.join("refreshed.json");

    let out = phe()
        .args([
            "generate",
            "chained",
            "--scale",
            "0.05",
            "--seed",
            "3",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Remove the first edge of the file and add a fresh one.
    let tsv = std::fs::read_to_string(&graph).unwrap();
    let first_edge = tsv
        .lines()
        .find(|l| !l.starts_with('#') && !l.trim().is_empty())
        .unwrap();
    std::fs::write(&changes, format!("# churn\n-\t{first_edge}\n+\t1\tr2\t0\n")).unwrap();

    let out = phe()
        .args([
            "delta",
            "--graph",
            graph.to_str().unwrap(),
            "--changes",
            changes.to_str().unwrap(),
            "--k",
            "3",
            "--beta",
            "32",
            "--compare",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 removals + 1 insertions"), "{text}");
    assert!(text.contains("1 delta(s) applied"), "{text}");
    assert!(
        text.contains("bit-identical to full recount"),
        "--compare must verify: {text}"
    );

    // The refreshed snapshot carries the lineage and still estimates.
    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"applied_deltas\": 1"), "{json}");
    let out = phe()
        .args(["estimate", stats.to_str().unwrap(), "r2/r3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A changes file naming an unknown label is refused with the
    // full-rebuild hint.
    std::fs::write(&changes, "+\t0\tbrand-new-label\t1\n").unwrap();
    let out = phe()
        .args([
            "delta",
            "--graph",
            graph.to_str().unwrap(),
            "--changes",
            changes.to_str().unwrap(),
            "--k",
            "2",
            "--beta",
            "8",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("full rebuild"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn query_estimates_expressions_locally_with_explain_and_pruning() {
    let dir = workdir("query_expr");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");
    // a feeds b; c is disconnected from both.
    std::fs::write(&graph, "0\ta\t1\n1\tb\t2\n1\tb\t3\n7\tc\t8\n").unwrap();
    let out = phe()
        .args([
            "build",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--beta",
            "8",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // estimate handles full expressions now.
    let out = phe()
        .args(["estimate", stats.to_str().unwrap(), "(a|c)/b?"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("(a|c)/b?\t"), "{text}");

    // query --snapshot --explain prints the tree, branches, and counts.
    let out = phe()
        .args([
            "query",
            "--snapshot",
            stats.to_str().unwrap(),
            "--explain",
            "(a|c)/b?",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("concrete path(s)"), "{text}");
    assert!(text.contains("alt"), "{text}");
    assert!(text.contains("a/b\t"), "{text}");
    assert!(text.contains("0 pruned"), "{text}");

    // With the build graph, impossible branches (c/b) are pruned.
    let out = phe()
        .args([
            "query",
            "--snapshot",
            stats.to_str().unwrap(),
            "--graph",
            graph.to_str().unwrap(),
            "--explain",
            "(a|c)/b?",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 pruned"), "{text}");
    assert!(!text.contains("c/b\t"), "{text}");

    // Parse errors point at the offending bytes with a caret snippet.
    let out = phe()
        .args(["query", "--snapshot", stats.to_str().unwrap(), "a/zzz"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown edge label \"zzz\""), "{err}");
    assert!(err.contains("a/zzz"), "{err}");
    assert!(err.contains("  ^^^"), "caret underline expected: {err}");
}

#[test]
fn errors_are_reported_not_panicked() {
    // Unknown subcommand.
    let out = phe().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // Missing file.
    let out = phe()
        .args(["stats", "/nonexistent/g.tsv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // Missing required flag.
    let dir = workdir("errors");
    let graph = dir.join("g.tsv");
    std::fs::write(&graph, "0\ta\t1\n").unwrap();
    let out = phe()
        .args(["build", graph.to_str().unwrap(), "--k", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--beta"));
}

#[test]
fn estimate_rejects_unknown_labels_and_overlong_paths() {
    let dir = workdir("estimate_errors");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");
    std::fs::write(&graph, "0\ta\t1\n1\tb\t2\n").unwrap();
    let out = phe()
        .args([
            "build",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--beta",
            "4",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = phe()
        .args(["estimate", stats.to_str().unwrap(), "a/zzz"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("zzz"));

    let out = phe()
        .args(["estimate", stats.to_str().unwrap(), "a/b/a"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("k ≤ 2"));
}

#[test]
fn out_replaces_an_existing_snapshot_and_leaves_no_temp_file() {
    let dir = workdir("replace_out");
    let graph = dir.join("g.tsv");
    let changes = dir.join("changes.tsv");
    let stats = dir.join("stats.json");
    let tmp = dir.join("stats.json.tmp");
    let _ = std::fs::remove_file(&tmp);

    let out = phe()
        .args([
            "generate",
            "chained",
            "--scale",
            "0.05",
            "--seed",
            "5",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // `build --out` over a stale file replaces it.
    std::fs::write(&stats, "stale").unwrap();
    let out = phe()
        .args([
            "build",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--beta",
            "16",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"applied_deltas\": 0"), "{json}");
    assert!(!tmp.exists(), "build left {}", tmp.display());

    // `delta --out` over the build's snapshot replaces it too.
    std::fs::write(&changes, "+\t1\tr2\t0\n").unwrap();
    let out = phe()
        .args([
            "delta",
            "--graph",
            graph.to_str().unwrap(),
            "--changes",
            changes.to_str().unwrap(),
            "--k",
            "2",
            "--beta",
            "16",
            "--out",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"applied_deltas\": 1"), "{json}");
    assert!(!tmp.exists(), "delta left {}", tmp.display());
    let out = phe()
        .args(["estimate", stats.to_str().unwrap(), "r2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
