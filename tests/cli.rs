//! End-to-end tests of the `phe` CLI binary: generate → stats → build →
//! estimate → accuracy, exercising real process boundaries and file I/O.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

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

    // --stats: memory report printed beside the whole-domain accuracy
    // line, which the build scores from its sparse state.
    let out = phe()
        .args([
            "build",
            graph.to_str().unwrap(),
            "--k",
            "3",
            "--beta",
            "32",
            "--stats",
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
    assert!(
        text.contains("histogram + ordering state + sparse catalog"),
        "{text}"
    );
    assert!(text.contains("whole-domain mean"), "{text}");

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

/// The `sparse_runs` key of a legacy snapshot: the catalog as compressed
/// blocks, which writers before the current one inlined in every
/// snapshot of a maintained estimator.
const SPARSE_RUNS_KEY: &str = r#""sparse_runs""#;

/// A v5 snapshot as an earlier writer left it (`phe delta --out` over
/// the four edges `0 a 1`, `1 b 2`, `1 b 3`, `7 c 8` plus `2 a 7`, at
/// k = 2 and β = 4), with its catalog and sidecar keys given by the
/// caller. The statistics' 12 domain paths are the concatenations of
/// one or two of the labels `a`, `b` and `c`.
fn legacy_snapshot(runs_key: &str, sidecar_key: &str) -> String {
    format!(
        r#"{{"version":5,"domain_paths":12,"nonzero_paths":6,"base_build_id":8577179690392907908,"applied_deltas":1,"k":2,"beta":4,"ordering":"SumBased","histogram_kind":"VOptimalGreedy","label_names":["a","b","c"],"label_frequencies":[2,2,1],"pair_frequencies":null,{runs_key}"follow_bits_base64":"DgA=",{sidecar_key}"histogram":{{"Buckets":{{"buckets":[{{"lo":0,"hi":2,"sum":5,"min":1,"max":2}},{{"lo":3,"hi":8,"sum":1,"min":0,"max":1}},{{"lo":9,"hi":10,"sum":3,"min":1,"max":2}},{{"lo":11,"hi":11,"sum":0,"min":0,"max":0}}],"domain_size":12,"starts":[0,3,9,11]}}}}}}"#
    )
}

#[test]
fn legacy_catalog_keys_are_ignored_on_every_load_path() {
    use phe::graph::LabelId;
    use phe::service::ServableEstimator;

    let dir = workdir("legacy_snapshot");
    let sidecar_key = r#""catalog_file":"missing.phc","#;
    assert!(!dir.join("missing.phc").exists());
    let cases = [
        (
            "inline",
            format!(
                r#"{SPARSE_RUNS_KEY}:{{"nnz":6,"codec":"tagged","blocks_base64":"AAACAQIBAQICAQEBAQ==","block_lens":[6]}},"#
            ),
        ),
        (
            "corrupt",
            format!(
                r#"{SPARSE_RUNS_KEY}:{{"nnz":6,"codec":"tagged","blocks_base64":"not base64!","block_lens":[6]}},"#
            ),
        ),
    ];
    let stripped_text = legacy_snapshot("", "");
    let stripped_path = dir.join("stripped.json");
    std::fs::write(&stripped_path, &stripped_text).unwrap();
    let stripped =
        ServableEstimator::from_snapshot(&serde_json::from_str(&stripped_text).unwrap()).unwrap();
    let paths: Vec<Vec<LabelId>> = (0..3u16)
        .flat_map(|a| {
            std::iter::once(vec![LabelId(a)])
                .chain((0..3u16).map(move |b| vec![LabelId(a), LabelId(b)]))
        })
        .collect();
    assert_eq!(paths.len(), 12);
    let rendered: Vec<String> = paths
        .iter()
        .map(|path| {
            let names: Vec<&str> = path.iter().map(|l| ["a", "b", "c"][l.index()]).collect();
            names.join("/")
        })
        .collect();
    let exprs: Vec<&str> = rendered.iter().map(String::as_str).collect();
    let expected = totals(&[&["estimate", stripped_path.to_str().unwrap()][..], &exprs].concat());

    for (case, runs_key) in cases {
        let text = legacy_snapshot(&runs_key, sidecar_key);
        let path = dir.join(format!("{case}.json"));
        std::fs::write(&path, &text).unwrap();

        // Both library entry points restore it, to the stripped snapshot's
        // estimates bit for bit.
        let parsed = ServableEstimator::from_snapshot(&serde_json::from_str(&text).unwrap())
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let loaded = phe::service::load_snapshot(path.to_str().unwrap())
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        for labels in &paths {
            let want = stripped.estimate_labels(labels).unwrap().to_bits();
            assert_eq!(
                parsed.estimate_labels(labels).unwrap().to_bits(),
                want,
                "{case}: {labels:?}"
            );
            assert_eq!(
                loaded.estimate_labels(labels).unwrap().to_bits(),
                want,
                "{case}: {labels:?}"
            );
        }

        // `phe estimate` answers it as it answers the stripped file.
        let estimate = totals(&[&["estimate", path.to_str().unwrap()][..], &exprs].concat());
        assert_eq!(estimate, expected, "{case}");

        // `phe serve --snapshot` loads it and serves the same answers.
        let mut child = phe()
            .args([
                "serve",
                "--snapshot",
                path.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = child.stdout.take().unwrap();
        let server = ServerProcess(child);
        let addr = BufReader::new(stdout)
            .lines()
            .map(Result::unwrap)
            .find_map(|line| {
                let start = line.find("127.0.0.1:")?;
                line[start..].split_whitespace().next().map(str::to_owned)
            })
            .unwrap_or_else(|| panic!("{case}: the server stopped before serving"));
        let remote = totals(&[&["query", "--remote", &addr][..], &exprs].concat());
        drop(server);
        assert_eq!(remote, expected, "{case}");
    }
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
    // It leaves the maintained catalog out.
    let json = std::fs::read_to_string(&stats).unwrap();
    assert!(json.contains("\"applied_deltas\": 1"), "{json}");
    assert!(!json.contains(SPARSE_RUNS_KEY), "{json}");
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
    // The snapshot carries its follow matrix, so the impossible branch
    // (c/b) is pruned without the build graph.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("concrete path(s)"), "{text}");
    assert!(text.contains("alt"), "{text}");
    assert!(text.contains("a/b\t"), "{text}");
    assert!(text.contains("1 pruned"), "{text}");
    assert!(!text.contains("c/b\t"), "{text}");

    // A snapshot without follow bits expands syntactically, unless the
    // build graph supplies the matrix.
    let snapshot: phe::core::snapshot::EstimatorSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let stripped = dir.join("stats_no_follow.json");
    std::fs::write(
        &stripped,
        serde_json::to_string(&phe::core::snapshot::EstimatorSnapshot {
            follow_bits_base64: None,
            ..snapshot
        })
        .unwrap(),
    )
    .unwrap();
    for (graph_flag, pruned) in [(None, "0 pruned"), (Some(&graph), "1 pruned")] {
        let mut cmd = phe();
        cmd.args(["query", "--snapshot", stripped.to_str().unwrap()]);
        if let Some(graph) = graph_flag {
            cmd.args(["--graph", graph.to_str().unwrap()]);
        }
        let out = cmd.args(["--explain", "(a|c)/b?"]).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(pruned), "{graph_flag:?}: {text}");
        assert_eq!(text.contains("c/b\t"), graph_flag.is_none(), "{text}");
    }

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

/// Kills the spawned server when the test ends, pass or fail.
struct ServerProcess(std::process::Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The `expr\ttotal` lines a `phe` invocation prints.
fn totals(args: &[&str]) -> String {
    let out = phe().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn local_expression_totals_equal_the_servers() {
    use std::io::BufRead as _;

    let dir = workdir("local_equals_remote");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");
    // a feeds b; c is disconnected from both.
    std::fs::write(&graph, "0\ta\t1\n1\tb\t2\n1\tb\t3\n7\tc\t8\n").unwrap();
    let stats_path = stats.to_str().unwrap();
    totals(&[
        "build",
        graph.to_str().unwrap(),
        "--k",
        "2",
        "--beta",
        "2",
        "--histogram",
        "equi-width",
        "--out",
        stats_path,
    ]);

    let mut child = phe()
        .args(["serve", "--snapshot", stats_path, "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let server = ServerProcess(child);
    let addr = std::io::BufReader::new(stdout)
        .lines()
        .map(Result::unwrap)
        .find_map(|line| {
            let start = line.find("127.0.0.1:")?;
            line[start..].split_whitespace().next().map(str::to_owned)
        })
        .expect("the server reports its address");

    let exprs = ["c/b", "(a|c)/b?", "a/b", "./."];
    let remote = totals(&[&["query", "--remote", &addr][..], &exprs].concat());
    drop(server);
    let estimate = totals(&[&["estimate", stats_path][..], &exprs].concat());
    let query = totals(&[&["query", "--snapshot", stats_path][..], &exprs].concat());
    assert_eq!(estimate, remote);
    assert_eq!(query, remote);
    assert!(remote.starts_with("c/b\t0.00\n"), "{remote}");
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
fn undeclared_flags_are_refused_by_name() {
    let dir = workdir("undeclared_flags");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");
    std::fs::write(&graph, "0\ta\t1\n1\tb\t2\n").unwrap();
    let _ = std::fs::remove_file(&stats);
    for (flag, value) in [("--catalog-file", "cat.phc"), ("--orderng", "lex-alph")] {
        let out = phe()
            .args([
                "build",
                graph.to_str().unwrap(),
                "--k",
                "2",
                "--beta",
                "4",
                flag,
                value,
                "--out",
                stats.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {flag} for `phe build`")),
            "{err}"
        );
        // Refused before anything is built or written.
        assert!(!stats.exists(), "{flag}");
        assert!(!dir.join("cat.phc").exists(), "{flag}");
    }
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

#[test]
fn a_closed_stdout_ends_the_process_quietly() {
    let dir = workdir("closed_stdout");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");
    for args in [
        vec!["generate", "chained", "--scale", "0.05", "--seed", "7"],
        vec!["build", graph.to_str().unwrap(), "--k", "3", "--beta", "32"],
    ] {
        let out_path = if args[0] == "generate" {
            &graph
        } else {
            &stats
        };
        let out = phe()
            .args(args)
            .args(["--out", out_path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Each explained expression prints a few KiB, so the output outgrows
    // the pipe buffer and the process is still writing when the reader
    // goes away.
    let mut child = phe()
        .args(["query", "--snapshot", stats.to_str().unwrap(), "--explain"])
        .args(std::iter::repeat_n(".{1,3}", 64))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.starts_with(".{1,3}\t"), "{line}");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(141), "{stderr}");
}

#[test]
fn a_server_keeps_serving_after_its_stdout_closes() {
    let dir = workdir("serve_closed_stdout");
    let graph = dir.join("g.tsv");
    let stats = dir.join("stats.json");
    std::fs::write(&graph, "0\ta\t1\n1\tb\t2\n1\tb\t3\n").unwrap();
    let out = phe()
        .args(["build", graph.to_str().unwrap(), "--k", "2", "--beta", "2"])
        .args(["--out", stats.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = phe()
        .args(["serve", "--snapshot", stats.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let server = ServerProcess(child);
    let addr = stdout
        .lines()
        .map(Result::unwrap)
        .find_map(|line| {
            let start = line.find("127.0.0.1:")?;
            line[start..].split_whitespace().next().map(str::to_owned)
        })
        .expect("the server reports its address");
    // The reader is gone; the server's next status line finds stdout
    // closed, and it must go on serving.
    std::thread::sleep(std::time::Duration::from_millis(200));
    for _ in 0..2 {
        let total = totals(&["query", "--remote", &addr, "a/b"]);
        assert!(total.starts_with("a/b\t"), "{total}");
    }
    drop(server);
}
