//! CLI for the workspace invariant checker.
//!
//! ```text
//! phe-lint check [--json] [--root DIR] [--pass NAME]...
//! phe-lint passes
//! ```
//!
//! Exit codes: `0` clean; otherwise the OR of each failing pass's bit
//! (unsafe-audit 1, panic-freedom 2, atomic-ordering 4,
//! metric-catalog 8, doc-links 16); `64` for usage/config/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
phe-lint: workspace invariant checker

USAGE:
    phe-lint check [--json] [--root DIR] [--pass NAME]...
    phe-lint passes

OPTIONS:
    --json        machine-readable report on stdout
    --root DIR    workspace root (default: nearest ancestor with [workspace])
    --pass NAME   run only the named pass (repeatable)

Configuration is read from <root>/lint.toml when present. Exit code is
the OR of failing pass bits; 64 for usage/config errors.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("passes") => {
            for pass in phe_lint::passes::registry() {
                println!(
                    "{:<16} (bit {}) {}",
                    pass.name(),
                    pass.bit(),
                    pass.description()
                );
            }
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(64)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut passes: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--root" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("--root needs a value\n\n{USAGE}");
                    return ExitCode::from(64);
                };
                root = Some(PathBuf::from(value));
            }
            "--pass" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("--pass needs a value\n\n{USAGE}");
                    return ExitCode::from(64);
                };
                passes.push(value.clone());
            }
            other => {
                eprintln!("unknown option `{other}`\n\n{USAGE}");
                return ExitCode::from(64);
            }
        }
        i += 1;
    }
    let root = match root {
        Some(dir) => dir,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(cwd) => cwd,
                Err(e) => {
                    eprintln!("cannot read current dir: {e}");
                    return ExitCode::from(64);
                }
            };
            match phe_lint::find_workspace_root(&cwd) {
                Some(dir) => dir,
                None => {
                    eprintln!("no [workspace] Cargo.toml above {}", cwd.display());
                    return ExitCode::from(64);
                }
            }
        }
    };
    match phe_lint::run_check(&root, &passes) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            ExitCode::from(report.exit_code())
        }
        Err(e) => {
            eprintln!("phe-lint: {e}");
            ExitCode::from(64)
        }
    }
}
