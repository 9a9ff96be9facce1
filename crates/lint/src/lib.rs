//! `phe-lint`: the workspace invariant checker.
//!
//! The serving tier leans on hand-rolled `unsafe` (the `poll(2)` FFI in
//! `phe-service`'s reactor, mmap borrows in `phe-pathenum`, the AVX2
//! decode kernel), on a CAS publish protocol, and on a metric surface
//! scraped by three different consumers. The correctness arguments for
//! all of those used to live in prose; this crate turns them into a CI
//! gate:
//!
//! * [`scanner`] lexes Rust sources into code/comment/string regions so
//!   the passes never false-positive on `unsafe` inside a doc example
//!   or a raw string;
//! * [`passes`] implements the five checks (unsafe-audit,
//!   panic-freedom, atomic-ordering, metric-catalog, doc-links) over the
//!   scanned workspace;
//! * [`config`] hand-parses `lint.toml` (pass scopes + allowlist);
//! * [`report`] renders findings as text or machine-readable JSON with
//!   per-pass exit-code bits.
//!
//! Run it as `cargo run -p phe-lint -- check [--json]`; see the
//! "Static analysis" section of `docs/ARCHITECTURE.md` for the pass
//! catalog and annotation grammar.

#![warn(missing_docs)]

pub mod config;
pub mod passes;
pub mod report;
pub mod scanner;
pub mod walk;

use std::path::{Path, PathBuf};

use passes::{LintContext, Pass};
use report::{PassSummary, Report};

/// Loads `lint.toml` (if present), scans the workspace under `root`,
/// and runs `selected` passes (all registered passes when empty).
///
/// # Errors
/// Config parse errors, unknown pass names, and IO failures.
pub fn run_check(root: &Path, selected: &[String]) -> Result<Report, String> {
    let config_path = root.join("lint.toml");
    let config = if config_path.is_file() {
        let text =
            std::fs::read_to_string(&config_path).map_err(|e| format!("reading lint.toml: {e}"))?;
        config::Config::parse(&text).map_err(|e| format!("lint.toml: {e}"))?
    } else {
        config::Config::default()
    };
    let allows = config
        .allow_entries()
        .map_err(|e| format!("lint.toml: {e}"))?;

    let excludes: Vec<String> = config
        .get_list("workspace", "exclude")
        .map(<[String]>::to_vec)
        .unwrap_or_default();
    let files = walk::rust_files(root, &excludes).map_err(|e| format!("walking {root:?}: {e}"))?;
    let mut scanned = Vec::with_capacity(files.len());
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("reading {}: {e}", walk::rel_string(&rel)))?;
        scanned.push(scanner::ScannedFile::new(rel, source));
    }
    let docs = walk::files_with_suffix(root, &excludes, ".md")
        .map_err(|e| format!("walking {root:?}: {e}"))?;
    let ctx = LintContext {
        root: root.to_path_buf(),
        files: scanned,
        docs,
        config,
        allows,
    };

    let registry = passes::registry();
    let passes: Vec<&dyn Pass> = if selected.is_empty() {
        registry.iter().map(AsRef::as_ref).collect()
    } else {
        selected
            .iter()
            .map(|name| {
                registry
                    .iter()
                    .find(|p| p.name() == name)
                    .map(AsRef::as_ref)
                    .ok_or_else(|| format!("unknown pass `{name}` (see `phe-lint passes`)"))
            })
            .collect::<Result<_, _>>()?
    };

    let mut summaries = Vec::new();
    let mut findings = Vec::new();
    for pass in passes {
        let mut found = pass.run(&ctx);
        summaries.push(PassSummary {
            name: pass.name().to_owned(),
            bit: pass.bit(),
            findings: found.len(),
        });
        findings.append(&mut found);
    }
    Ok(Report::new(summaries, findings))
}

/// Finds the workspace root: `start` or the nearest ancestor whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(current) = dir {
        let manifest = current.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(current);
                }
            }
        }
        dir = current.parent().map(Path::to_path_buf);
    }
    None
}
