//! `phe_bench` — see the package README for the workloads and metrics.
//!
//! ```text
//! phe_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one workload; the last stdout line is the result JSON
//! phe_bench [--seed N] [--seconds S] [--trace] [--smoke] [--runs N] [--out FILE]
//!     every workload, each in its own child process
//! phe_bench --compare OLD.json NEW.json
//!     each end-to-end metric's change beside its bound
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use phebench::report::{self, Summary};
use phebench::workload::{RunOpts, WORKLOADS};
use phebench::{build, maintain, serve, stats};

/// Marks the stdout line that carries a child's end-to-end values (a
/// traced child's result line carries its per-layer values instead).
const END_TO_END_TAG: &str = "#end_to_end ";

const USAGE: &str = "\
usage:
  phe_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
  phe_bench [--seed N] [--seconds S] [--trace] [--smoke] [--runs N] [--out FILE]
  phe_bench --compare OLD.json NEW.json

workloads: serve-hot, serve-expr, maintain, build
--seed N      seed every input is generated from (default 42)
--seconds S   measured window per workload (default 15; 1 with --smoke)
--trace       also (or, with --workload, only) run traced: per-layer metrics
--smoke       tiny graphs and short windows, for a quick end-to-end check
--runs N      repeat every workload N times (default 1)
--out FILE    write every run's metric values as JSON, for --compare";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        raw.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                }
                Some("1") => {
                    i += 1;
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value(&mut i, "--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--out" => args.out = Some(value(&mut i, "--out")?.into()),
            "--compare" => {
                let old = value(&mut i, "--compare")?;
                let new = value(&mut i, "--compare")?;
                args.compare = Some((old.into(), new.into()));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((old, new)) = &args.compare {
        return compare(old, new);
    }
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { 15.0 }),
        trace: args.trace,
        smoke: args.smoke,
    };
    match &args.workload {
        Some(workload) => run_one(workload, &opts),
        None => run_all(&args, &opts),
    }
}

/// Where traced runs write their spans.
fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(workload: &str, opts: &RunOpts) -> ExitCode {
    let declared = report::declared();
    println!(
        "== phe-bench {workload}: seed {}, {} s window{}{} ==",
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" },
        if opts.smoke { ", smoke" } else { "" }
    );
    let mut outcome = match workload {
        "serve-hot" => serve::serve_hot(opts),
        "serve-expr" => serve::serve_expr(opts),
        "maintain" => maintain::maintain(opts),
        "build" => build::build(opts),
        other => unreachable!("workload {other:?} validated by the parser"),
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (check, held) in &outcome.checks {
        println!("check {}: {check}", if *held { "ok" } else { "FAILED" });
    }
    let end_to_end = report::resolve(&declared.end_to_end, &outcome.end_to_end, true);
    println!(
        "end to end ({}):\n{}",
        if opts.trace {
            "traced run; the untraced run is the measurement"
        } else {
            "untraced"
        },
        report::render_metrics(&end_to_end)
    );
    let last = if opts.trace {
        for table in &outcome.tables {
            println!("{}", table.render());
        }
        let per_layer = report::resolve(&declared.per_layer, &outcome.per_layer, false);
        println!("per layer:\n{}", report::render_metrics(&per_layer));
        if let Some(tracer) = outcome.tracer.take() {
            let path = trace_dir().join(format!("trace-{workload}-seed{}.jsonl", opts.seed));
            match std::fs::create_dir_all(trace_dir())
                .and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
            {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
            }
        }
        report::result_line(&outcome, &per_layer)
    } else {
        report::result_line(&outcome, &end_to_end)
    };
    if opts.trace {
        println!(
            "{END_TO_END_TAG}{}",
            report::result_line(&outcome, &end_to_end)
        );
    }
    println!("{last}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's parsed output.
struct ChildRun {
    ok: bool,
    /// The result line's metrics.
    result: BTreeMap<String, f64>,
    /// A traced run's end-to-end values (its result carries per-layer ones).
    end_to_end: BTreeMap<String, f64>,
}

fn child(workload: &str, opts: &RunOpts, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("spawning a workload child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let mut end_to_end = BTreeMap::new();
    for line in &lines[..lines.len().saturating_sub(1)] {
        match line.strip_prefix(END_TO_END_TAG) {
            Some(json) => {
                if let Some((.., metrics)) = report::parse_result(json) {
                    end_to_end = metrics;
                }
            }
            None => println!("  {line}"),
        }
    }
    let parsed = lines.last().and_then(|l| report::parse_result(l));
    let ok = output.status.success() && parsed.as_ref().is_some_and(|p| p.0);
    if !ok {
        println!("  {workload}: run FAILED ({})", output.status);
    }
    ChildRun {
        ok,
        result: parsed.map(|p| p.3).unwrap_or_default(),
        end_to_end,
    }
}

fn run_all(args: &Args, opts: &RunOpts) -> ExitCode {
    let declared = report::declared();
    let mut summary = Summary::new();
    let mut traced: BTreeMap<String, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    let mut all_ok = true;
    for run in 0..args.runs.max(1) {
        for workload in WORKLOADS {
            println!("\n### {workload} (run {})", run + 1);
            let untraced = child(workload, opts, false);
            all_ok &= untraced.ok;
            let entry = summary.entry(workload.to_owned()).or_default();
            for (name, value) in &untraced.result {
                entry.entry(name.clone()).or_default().push(*value);
            }
            if opts.trace {
                let run = child(workload, opts, true);
                all_ok &= run.ok;
                for (name, value) in &run.result {
                    entry.entry(name.clone()).or_default().push(*value);
                }
                traced
                    .entry(workload.to_owned())
                    .or_default()
                    .push(run.end_to_end);
            }
        }
    }

    println!("\n== end to end (median of {} run(s)) ==", args.runs.max(1));
    print!("{:<22}", "metric");
    for workload in WORKLOADS {
        print!(" {workload:>14}");
    }
    println!();
    for metric in &declared.end_to_end {
        print!("{:<22}", format!("{} [{}]", metric.name, metric.unit));
        for workload in WORKLOADS {
            let values = summary.get(workload).and_then(|m| m.get(&metric.name));
            match values {
                Some(v) if !v.is_empty() => print!(" {:>14.6}", stats::median(v)),
                _ => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    if opts.trace {
        println!("\n== tracing overhead: traced minus untraced (median) ==");
        for workload in WORKLOADS {
            let Some(runs) = traced.get(workload) else {
                continue;
            };
            for metric in &declared.end_to_end {
                let with: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.get(&metric.name).copied())
                    .collect();
                let without = summary.get(workload).and_then(|m| m.get(&metric.name));
                if let (false, Some(without)) = (with.is_empty(), without) {
                    let (a, b) = (stats::median(&with), stats::median(without));
                    println!(
                        "{:<11} {:<14} {:>+14.6} {} ({:+.1}%)",
                        workload,
                        metric.name,
                        a - b,
                        metric.unit,
                        if b == 0.0 { 0.0 } else { 100.0 * (a - b) / b }
                    );
                }
            }
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(
            path,
            report::summary_json(&summary, opts.seed, opts.seconds),
        ) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nvalues written to {}", path.display());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        println!("\nsome runs FAILED");
        ExitCode::FAILURE
    }
}

fn compare(old: &PathBuf, new: &PathBuf) -> ExitCode {
    let read = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| report::parse_summary(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    match (read(old), read(new)) {
        (Ok(old), Ok(new)) => {
            let (table, regressed) = report::compare(&old, &new, &report::declared());
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
