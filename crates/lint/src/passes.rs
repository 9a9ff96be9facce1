//! The pass registry and the five shipped passes.
//!
//! | pass | exit bit | invariant |
//! |---|---|---|
//! | `unsafe-audit` | 1 | every `unsafe` site carries a `// SAFETY:` justification (or a `# Safety` doc section) |
//! | `panic-freedom` | 2 | no panicking calls/macros in the configured serving hot paths |
//! | `atomic-ordering` | 4 | every `Ordering::Relaxed` carries an `// ORDERING:` soundness note |
//! | `metric-catalog` | 8 | metric names: code ↔ `phe-obs` catalog ↔ ARCHITECTURE.md table agree |
//! | `doc-links` | 16 | relative Markdown links and backticked `*.md` paths in Rust comments resolve |
//!
//! Annotation grammar (all checked against the comment attached to the
//! finding line — trailing on the same line, or the contiguous
//! comment/attribute block directly above):
//!
//! * `// SAFETY: <why the preconditions hold>` — justifies an `unsafe`
//!   site; `# Safety` rustdoc sections on `unsafe fn`s also count.
//! * `// ORDERING: <why relaxed is sound>` — justifies
//!   `Ordering::Relaxed`.
//! * `// LINT-ALLOW(<key>): <reason>` — per-site escape hatch; the key
//!   is the pass's short key (`unsafe`, `panic`, `ordering`, `metric`)
//!   and the reason is mandatory.
//!
//! Test code is exempt from `panic-freedom` and `atomic-ordering`
//! (files under `tests/`/`benches/` and `#[cfg(test)]`-gated items);
//! `unsafe-audit` applies everywhere — unsafe in a test still needs a
//! justification.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::config::{AllowEntry, Config};
use crate::report::Finding;
use crate::scanner::{code_occurrences, code_word_occurrences, ScannedFile};
use crate::walk::{is_test_path, under_any};

/// Everything a pass needs: the scanned workspace plus configuration.
pub struct LintContext {
    /// Workspace root (absolute).
    pub root: PathBuf,
    /// Every in-scope `.rs` file, scanned.
    pub files: Vec<ScannedFile>,
    /// Every in-scope `.md` file, workspace-relative.
    pub docs: Vec<PathBuf>,
    /// Parsed `lint.toml`.
    pub config: Config,
    /// Parsed `[allow] entries`.
    pub allows: Vec<AllowEntry>,
}

impl LintContext {
    fn allowed(&self, pass: &str, file: &str, line: usize) -> bool {
        self.allows.iter().any(|entry| {
            entry.pass == pass && entry.path == file && entry.line.is_none_or(|l| l == line)
        })
    }
}

/// A named invariant check over the scanned workspace.
pub trait Pass {
    /// Stable pass name (used in reports, `--pass`, and allow entries).
    fn name(&self) -> &'static str;
    /// The bit this pass contributes to the exit code when it fails.
    fn bit(&self) -> u8;
    /// One-line description for `phe-lint passes`.
    fn description(&self) -> &'static str;
    /// Runs the check, returning all violations.
    fn run(&self, ctx: &LintContext) -> Vec<Finding>;
}

/// All shipped passes, in exit-bit order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(UnsafeAudit),
        Box::new(PanicFreedom),
        Box::new(AtomicOrdering),
        Box::new(MetricCatalog),
        Box::new(DocLinks),
    ]
}

/// True when the comment attached to `line` (trailing or the block
/// above) contains any of `tags`.
fn has_tag(file: &ScannedFile, line: usize, tags: &[&str]) -> bool {
    let trailing = file.trailing_comment(line);
    if tags.iter().any(|tag| trailing.contains(tag)) {
        return true;
    }
    let block = file.comment_block_above(line);
    tags.iter().any(|tag| block.contains(tag))
}

/// True when the attached comment carries `LINT-ALLOW(<key>): <reason>`
/// with a non-empty reason.
fn has_allow(file: &ScannedFile, line: usize, key: &str) -> bool {
    let needle = format!("LINT-ALLOW({key}):");
    let check = |text: &str| {
        text.match_indices(&needle).any(|(pos, _)| {
            text[pos + needle.len()..]
                .lines()
                .next()
                .is_some_and(|rest| !rest.trim().is_empty())
        })
    };
    check(file.trailing_comment(line)) || check(&file.comment_block_above(line))
}

fn finding(pass: &str, file: &ScannedFile, offset: usize, message: String) -> Finding {
    Finding {
        pass: pass.to_owned(),
        file: crate::walk::rel_string(&file.path),
        line: file.line_of(offset),
        column: file.column_of(offset),
        message,
    }
}

// ------------------------------------------------------------ unsafe-audit

/// Every `unsafe` keyword in code must be justified.
struct UnsafeAudit;

impl Pass for UnsafeAudit {
    fn name(&self) -> &'static str {
        "unsafe-audit"
    }
    fn bit(&self) -> u8 {
        1
    }
    fn description(&self) -> &'static str {
        "every `unsafe` block/fn/impl carries a `// SAFETY:` justification"
    }

    fn run(&self, ctx: &LintContext) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in &ctx.files {
            let rel = crate::walk::rel_string(&file.path);
            for pos in code_word_occurrences(file, "unsafe") {
                let line = file.line_of(pos);
                if has_tag(file, line, &["SAFETY:", "# Safety"])
                    || has_allow(file, line, "unsafe")
                    || ctx.allowed(self.name(), &rel, line)
                {
                    continue;
                }
                findings.push(finding(
                    self.name(),
                    file,
                    pos,
                    "`unsafe` without a `// SAFETY:` justification in the preceding \
                     comment (or a `# Safety` doc section)"
                        .to_owned(),
                ));
            }
        }
        findings
    }
}

// ----------------------------------------------------------- panic-freedom

/// Panicking constructs banned from the configured hot paths.
struct PanicFreedom;

/// Method-call patterns that panic (delimiters included so
/// `unwrap_or_else` and friends never match).
const PANIC_METHODS: &[&str] = &[
    ".unwrap()",
    ".unwrap_err()",
    ".unwrap_unchecked()",
    ".expect(",
    ".expect_err(",
];

/// Macros that panic (matched as `name` directly followed by `!`).
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

impl Pass for PanicFreedom {
    fn name(&self) -> &'static str {
        "panic-freedom"
    }
    fn bit(&self) -> u8 {
        2
    }
    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/todo!/unimplemented!/unreachable! in serving hot paths"
    }

    fn run(&self, ctx: &LintContext) -> Vec<Finding> {
        let scope: Vec<String> = ctx
            .config
            .get_list("pass.panic-freedom", "paths")
            .map(<[String]>::to_vec)
            .unwrap_or_default();
        let mut findings = Vec::new();
        for file in &ctx.files {
            let rel = crate::walk::rel_string(&file.path);
            if is_test_path(&rel) || (!scope.is_empty() && !under_any(&rel, &scope)) {
                continue;
            }
            let mut hits: Vec<(usize, &str)> = Vec::new();
            for pattern in PANIC_METHODS {
                for pos in code_occurrences(file, pattern) {
                    hits.push((pos, pattern.trim_end_matches('(')));
                }
            }
            for name in PANIC_MACROS {
                for pos in code_word_occurrences(file, name) {
                    if file.masked.as_bytes().get(pos + name.len()) == Some(&b'!') {
                        hits.push((pos, name));
                    }
                }
            }
            for (pos, token) in hits {
                if file.in_test_span(pos) {
                    continue;
                }
                let line = file.line_of(pos);
                if has_allow(file, line, "panic") || ctx.allowed(self.name(), &rel, line) {
                    continue;
                }
                findings.push(finding(
                    self.name(),
                    file,
                    pos,
                    format!(
                        "`{token}` in a serving hot path — return a structured error \
                         (or `// LINT-ALLOW(panic): <reason>`)"
                    ),
                ));
            }
        }
        findings
    }
}

// --------------------------------------------------------- atomic-ordering

/// `Ordering::Relaxed` must explain why relaxed is sound.
struct AtomicOrdering;

impl Pass for AtomicOrdering {
    fn name(&self) -> &'static str {
        "atomic-ordering"
    }
    fn bit(&self) -> u8 {
        4
    }
    fn description(&self) -> &'static str {
        "every `Ordering::Relaxed` carries an `// ORDERING:` soundness note"
    }

    fn run(&self, ctx: &LintContext) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in &ctx.files {
            let rel = crate::walk::rel_string(&file.path);
            if is_test_path(&rel) {
                continue;
            }
            for pos in code_occurrences(file, "Ordering::Relaxed") {
                let after = pos + "Ordering::Relaxed".len();
                if file
                    .masked
                    .as_bytes()
                    .get(after)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    continue;
                }
                if file.in_test_span(pos) {
                    continue;
                }
                let line = file.line_of(pos);
                if has_tag(file, line, &["ORDERING:"])
                    || has_allow(file, line, "ordering")
                    || ctx.allowed(self.name(), &rel, line)
                {
                    continue;
                }
                findings.push(finding(
                    self.name(),
                    file,
                    pos,
                    "`Ordering::Relaxed` without an `// ORDERING:` comment stating why \
                     relaxed is sound here"
                        .to_owned(),
                ));
            }
        }
        findings
    }
}

// ---------------------------------------------------------- metric-catalog

/// Metric family names must agree across code, the `phe-obs` catalog
/// module, and the ARCHITECTURE.md metric table.
struct MetricCatalog;

/// Marker delimiting the documentation metric table.
const DOC_START: &str = "<!-- phe-lint:metric-table:start -->";
/// Closing marker.
const DOC_END: &str = "<!-- phe-lint:metric-table:end -->";

impl MetricCatalog {
    /// Parses `pub const IDENT: &str = "name";` lines out of the
    /// catalog file. Returns `(ident, value, 1-based line)` rows.
    fn parse_catalog(file: &ScannedFile) -> Vec<(String, String, usize)> {
        let mut out = Vec::new();
        for (idx, line) in file.source.lines().enumerate() {
            let trimmed = line.trim_start();
            let Some(rest) = trimmed.strip_prefix("pub const ") else {
                continue;
            };
            let Some((ident, rest)) = rest.split_once(':') else {
                continue;
            };
            let Some((_, value)) = rest.split_once('=') else {
                continue;
            };
            let value = value.trim();
            let Some(value) = value.strip_prefix('"').and_then(|v| v.split('"').next()) else {
                continue;
            };
            out.push((ident.trim().to_owned(), value.to_owned(), idx + 1));
        }
        out
    }

    /// Extracts metric family names from the marked region of the doc
    /// file as `(name, 1-based line)`.
    fn parse_doc(text: &str, prefix: &str) -> Option<Vec<(String, usize)>> {
        let mut names = Vec::new();
        let mut inside = false;
        let mut seen_markers = false;
        for (idx, line) in text.lines().enumerate() {
            if line.contains(DOC_START) {
                inside = true;
                seen_markers = true;
                continue;
            }
            if line.contains(DOC_END) {
                inside = false;
                continue;
            }
            if !inside {
                continue;
            }
            let bytes = line.as_bytes();
            let mut from = 0usize;
            while let Some(pos) = line[from..].find(prefix).map(|p| p + from) {
                let mut end = pos;
                while end < bytes.len()
                    && (bytes[end].is_ascii_lowercase()
                        || bytes[end].is_ascii_digit()
                        || bytes[end] == b'_')
                {
                    end += 1;
                }
                if end > pos + prefix.len() {
                    names.push((line[pos..end].to_owned(), idx + 1));
                }
                from = end.max(pos + 1);
            }
        }
        seen_markers.then_some(names)
    }

    /// Whether a string literal's content is shaped like a metric
    /// family name: `<prefix>` followed by `[a-z0-9_]+`, nothing else.
    fn is_metric_shaped(content: &str, prefix: &str) -> bool {
        content.len() > prefix.len()
            && content.starts_with(prefix)
            && content
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    }
}

impl Pass for MetricCatalog {
    fn name(&self) -> &'static str {
        "metric-catalog"
    }
    fn bit(&self) -> u8 {
        8
    }
    fn description(&self) -> &'static str {
        "metric names agree across code, the phe-obs catalog, and the ARCHITECTURE.md table"
    }

    fn run(&self, ctx: &LintContext) -> Vec<Finding> {
        let section = "pass.metric-catalog";
        let catalog_path = ctx
            .config
            .get_str(section, "catalog")
            .unwrap_or("crates/obs/src/names.rs")
            .to_owned();
        let doc_path = ctx
            .config
            .get_str(section, "doc")
            .unwrap_or("docs/ARCHITECTURE.md")
            .to_owned();
        let prefix = ctx
            .config
            .get_str(section, "prefix")
            .unwrap_or("phe_")
            .to_owned();

        let mut findings = Vec::new();
        fn fail(findings: &mut Vec<Finding>, file: &str, line: usize, message: String) {
            findings.push(Finding {
                pass: "metric-catalog".to_owned(),
                file: file.to_owned(),
                line,
                column: 1,
                message,
            });
        }

        let Some(catalog_file) = ctx
            .files
            .iter()
            .find(|f| crate::walk::rel_string(&f.path) == catalog_path)
        else {
            fail(
                &mut findings,
                &catalog_path,
                1,
                format!("metric catalog file `{catalog_path}` not found in the workspace"),
            );
            return findings;
        };
        let consts = Self::parse_catalog(catalog_file);
        let catalog: BTreeMap<&str, (&str, usize)> = consts
            .iter()
            .map(|(ident, value, line)| (value.as_str(), (ident.as_str(), *line)))
            .collect();

        // Code → catalog: every metric-shaped string literal outside the
        // catalog must name a cataloged family — and even then the
        // constant, not a duplicated literal, is required.
        for file in &ctx.files {
            let rel = crate::walk::rel_string(&file.path);
            if rel == catalog_path || is_test_path(&rel) {
                continue;
            }
            for (offset, content) in file.string_literals() {
                if !Self::is_metric_shaped(content, &prefix) || file.in_test_span(offset) {
                    continue;
                }
                let line = file.line_of(offset);
                if has_allow(file, line, "metric") || ctx.allowed(self.name(), &rel, line) {
                    continue;
                }
                let message = match catalog.get(content) {
                    Some((ident, _)) => format!(
                        "metric name literal `\"{content}\"` duplicates the catalog — use \
                         `phe_obs::names::{ident}`"
                    ),
                    None => format!(
                        "metric name literal `\"{content}\"` is not in the catalog \
                         (`{catalog_path}`)"
                    ),
                };
                findings.push(finding(self.name(), file, offset, message));
            }
        }

        // Catalog → code: a constant nobody references is drift waiting
        // to happen (the family it documents no longer exists).
        for (ident, value, line) in &consts {
            let referenced = ctx.files.iter().any(|f| {
                crate::walk::rel_string(&f.path) != catalog_path
                    && !code_word_occurrences(f, ident).is_empty()
            });
            if !referenced {
                fail(
                    &mut findings,
                    &catalog_path,
                    *line,
                    format!("catalog constant `{ident}` (\"{value}\") is never referenced"),
                );
            }
        }

        // Catalog ↔ doc table.
        let doc_text = match std::fs::read_to_string(ctx.root.join(&doc_path)) {
            Ok(text) => text,
            Err(e) => {
                fail(
                    &mut findings,
                    &doc_path,
                    1,
                    format!("cannot read doc file `{doc_path}`: {e}"),
                );
                return findings;
            }
        };
        let Some(doc_names) = Self::parse_doc(&doc_text, &prefix) else {
            fail(
                &mut findings,
                &doc_path,
                1,
                format!("doc file `{doc_path}` has no `{DOC_START}` … `{DOC_END}` region"),
            );
            return findings;
        };
        let doc_set: BTreeSet<&str> = doc_names.iter().map(|(n, _)| n.as_str()).collect();
        for (ident, value, line) in &consts {
            if !doc_set.contains(value.as_str()) {
                fail(
                    &mut findings,
                    &catalog_path,
                    *line,
                    format!(
                        "catalog family `{value}` (`{ident}`) is missing from the metric \
                         table in `{doc_path}`"
                    ),
                );
            }
        }
        let mut reported = BTreeSet::new();
        for (name, line) in &doc_names {
            if !catalog.contains_key(name.as_str()) && reported.insert(name.as_str()) {
                fail(
                    &mut findings,
                    &doc_path,
                    *line,
                    format!(
                        "documented family `{name}` has no constant in the catalog \
                         (`{catalog_path}`)"
                    ),
                );
            }
        }
        findings
    }
}

// --------------------------------------------------------------- doc-links

/// Documentation references must point at files that exist.
struct DocLinks;

impl DocLinks {
    /// Relative inline-link targets (`[text](target)`) in Markdown text
    /// as `(target, 1-based line, 1-based column)`, `#fragment` and link
    /// title dropped. External (`scheme:`), absolute, and fragment-only
    /// targets are skipped, and so are code spans and fenced code blocks.
    fn markdown_links(text: &str) -> Vec<(String, usize, usize)> {
        let mut links = Vec::new();
        let mut fenced = false;
        for (idx, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            let mut base = 0;
            for (i, segment) in line.split('`').enumerate() {
                if i % 2 == 0 {
                    for (target, column) in Self::segment_links(segment) {
                        links.push((target, idx + 1, base + column));
                    }
                }
                base += segment.len() + 1;
            }
        }
        links
    }

    /// The relative link targets in one stretch of Markdown outside code
    /// spans, with their 1-based columns within it.
    fn segment_links(segment: &str) -> Vec<(String, usize)> {
        let mut links = Vec::new();
        let mut from = 0;
        while let Some(pos) = segment[from..].find("](").map(|p| p + from) {
            let start = pos + 2;
            let Some(len) = segment[start..].find(')') else {
                break;
            };
            from = start + len;
            let target = segment[start..from]
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .trim_start_matches('<')
                .trim_end_matches('>');
            let path = target.split('#').next().unwrap_or_default();
            if !path.is_empty() && !path.starts_with('/') && !path.contains(':') {
                links.push((path.to_owned(), start + 1));
            }
        }
        links
    }

    /// Backticked `*.md` paths in a Rust file's comments as
    /// `(path, byte offset)`; backticks pair up within a line.
    fn comment_paths(file: &ScannedFile) -> Vec<(String, usize)> {
        let mut paths = Vec::new();
        let mut line_start = 0;
        for line in file.comments.split('\n') {
            let mut offset = line_start;
            for (i, span) in line.split('`').enumerate() {
                // A file name, not a bare extension: `.md` alone is prose.
                let is_path = span.rsplit('/').next().is_some_and(|name| name.len() > 3)
                    && span.ends_with(".md")
                    && span
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"._/-".contains(&b));
                if i % 2 == 1 && is_path {
                    paths.push((span.to_owned(), offset));
                }
                offset += span.len() + 1;
            }
            line_start += line.len() + 1;
        }
        paths
    }

    /// Whether `target` names an existing file relative to `dir` (a
    /// workspace-relative directory) or, failing that, to the root.
    fn resolves(root: &Path, dir: &Path, target: &str) -> bool {
        root.join(dir).join(target).is_file() || root.join(target).is_file()
    }
}

impl Pass for DocLinks {
    fn name(&self) -> &'static str {
        "doc-links"
    }
    fn bit(&self) -> u8 {
        16
    }
    fn description(&self) -> &'static str {
        "relative Markdown links and backticked `*.md` paths in Rust comments resolve to files"
    }

    fn run(&self, ctx: &LintContext) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut report = |file: String, line: usize, column: usize, message: String| {
            if !ctx.allowed(self.name(), &file, line) {
                findings.push(Finding {
                    pass: self.name().to_owned(),
                    file,
                    line,
                    column,
                    message,
                });
            }
        };
        let dangling = |target: &str| {
            format!(
                "`{target}` does not resolve to a file (relative to this file's directory \
                 or the workspace root)"
            )
        };
        for file in &ctx.files {
            let dir = file.path.parent().unwrap_or(Path::new(""));
            for (target, offset) in Self::comment_paths(file) {
                if !Self::resolves(&ctx.root, dir, &target) {
                    let rel = crate::walk::rel_string(&file.path);
                    let (line, column) = (file.line_of(offset), file.column_of(offset));
                    report(rel, line, column, dangling(&target));
                }
            }
        }
        for doc in &ctx.docs {
            let rel = crate::walk::rel_string(doc);
            let text = match std::fs::read_to_string(ctx.root.join(doc)) {
                Ok(text) => text,
                Err(e) => {
                    report(rel, 1, 1, format!("cannot read: {e}"));
                    continue;
                }
            };
            let dir = doc.parent().unwrap_or(Path::new(""));
            for (target, line, column) in Self::markdown_links(&text) {
                if !Self::resolves(&ctx.root, dir, &target) {
                    report(rel.clone(), line, column, dangling(&target));
                }
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> ScannedFile {
        ScannedFile::new(PathBuf::from(path), src.to_owned())
    }

    fn ctx(files: Vec<ScannedFile>, toml: &str) -> LintContext {
        let config = Config::parse(toml).unwrap();
        let allows = config.allow_entries().unwrap();
        LintContext {
            root: PathBuf::from("."),
            files,
            docs: Vec::new(),
            config,
            allows,
        }
    }

    fn run(pass: &dyn Pass, ctx: &LintContext) -> Vec<Finding> {
        pass.run(ctx)
    }

    #[test]
    fn unsafe_audit_accepts_safety_and_doc_sections() {
        let src = concat!(
            "// SAFETY: justified.\n",
            "unsafe { a() }\n",
            "unsafe { b() } // SAFETY: trailing works too\n",
            "/// # Safety\n",
            "/// caller checks\n",
            "pub unsafe fn f() {}\n",
            "unsafe { c() }\n",
        );
        let ctx = ctx(vec![scan("crates/x/src/lib.rs", src)], "");
        let findings = run(&UnsafeAudit, &ctx);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 7);
    }

    #[test]
    fn unsafe_in_string_or_comment_is_invisible() {
        let src = "// unsafe here\nlet s = \"unsafe { }\";\nlet r = r#\"unsafe\"#;\n";
        let ctx = ctx(vec![scan("crates/x/src/lib.rs", src)], "");
        assert!(run(&UnsafeAudit, &ctx).is_empty());
    }

    #[test]
    fn panic_freedom_scopes_exemptions_and_allow() {
        let src = concat!(
            "fn hot() { x.unwrap(); }\n",
            "fn warm() -> u32 { y.expect(\"m\") }\n",
            "// LINT-ALLOW(panic): startup only, before serving begins\n",
            "fn init() { z.unwrap(); }\n",
            "fn never() { unreachable!() }\n",
            "fn ok() { x.unwrap_or_else(|| 3); }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { q.unwrap(); } }\n",
        );
        let toml = "[pass.panic-freedom]\npaths = [\"crates/service/src\"]\n";
        let in_scope = ctx(vec![scan("crates/service/src/lib.rs", src)], toml);
        let findings = run(&PanicFreedom, &in_scope);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 2, 5], "{findings:?}");

        let out_of_scope = ctx(vec![scan("crates/other/src/lib.rs", src)], toml);
        assert!(run(&PanicFreedom, &out_of_scope).is_empty());
    }

    #[test]
    fn lint_allow_requires_a_reason() {
        let src = "// LINT-ALLOW(panic):\nfn f() { x.unwrap(); }\n";
        let ctx = ctx(vec![scan("crates/x/src/lib.rs", src)], "");
        assert_eq!(run(&PanicFreedom, &ctx).len(), 1);
    }

    #[test]
    fn atomic_ordering_requires_note() {
        let src = concat!(
            "// ORDERING: monotonic counter, no cross-variable invariant.\n",
            "let a = c.fetch_add(1, Ordering::Relaxed);\n",
            "let b = c.load(Ordering::Relaxed);\n",
            "let c2 = c.load(Ordering::SeqCst);\n",
        );
        let ctx = ctx(vec![scan("crates/x/src/lib.rs", src)], "");
        let findings = run(&AtomicOrdering, &ctx);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn allowlist_file_entries_suppress() {
        let src = "fn f() { x.unwrap(); }\nfn g() { y.unwrap(); }\n";
        let toml = concat!(
            "[allow]\n",
            "entries = [\"panic-freedom crates/x/src/lib.rs:1\"]\n"
        );
        let ctx = ctx(vec![scan("crates/x/src/lib.rs", src)], toml);
        let findings = run(&PanicFreedom, &ctx);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn metric_catalog_cross_checks_all_three_surfaces() {
        let names = concat!(
            "//! catalog\n",
            "pub const GOOD_TOTAL: &str = \"phe_good_total\";\n",
            "pub const DEAD_TOTAL: &str = \"phe_dead_total\";\n",
            "pub const UNDOCUMENTED: &str = \"phe_undocumented_total\";\n",
        );
        let user = concat!(
            "fn register() {\n",
            "    reg.counter(names::GOOD_TOTAL, \"h\");\n",
            "    reg.counter(names::UNDOCUMENTED, \"h\");\n",
            "    reg.counter(\"phe_rogue_total\", \"h\");\n",
            "    reg.counter(\"phe_good_total\", \"h\");\n",
            "}\n",
        );
        let root = std::env::temp_dir().join(format!("phe-lint-mc-{}", std::process::id()));
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::write(
            root.join("docs/ARCHITECTURE.md"),
            concat!(
                "<!-- phe-lint:metric-table:start -->\n",
                "| `phe_good_total` | counter |\n",
                "| `phe_dead_total` | counter |\n",
                "| `phe_ghost_total` | counter |\n",
                "<!-- phe-lint:metric-table:end -->\n",
                "Prose mention of `phe_unparsed_total` outside markers is ignored.\n",
            ),
        )
        .unwrap();
        let mut ctx = ctx(
            vec![
                scan("crates/obs/src/names.rs", names),
                scan("crates/svc/src/metrics.rs", user),
            ],
            "",
        );
        ctx.root = root.clone();
        let findings = run(&MetricCatalog, &ctx);
        let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            messages
                .iter()
                .any(|m| m.contains("phe_rogue_total") && m.contains("not in the catalog")),
            "{messages:?}"
        );
        assert!(
            messages
                .iter()
                .any(|m| m.contains("phe_good_total") && m.contains("duplicates")),
            "{messages:?}"
        );
        assert!(
            messages
                .iter()
                .any(|m| m.contains("DEAD_TOTAL") && m.contains("never referenced")),
            "{messages:?}"
        );
        assert!(
            messages
                .iter()
                .any(|m| m.contains("phe_undocumented_total")
                    && m.contains("missing from the metric")),
            "{messages:?}"
        );
        assert!(
            messages
                .iter()
                .any(|m| m.contains("phe_ghost_total") && m.contains("no constant")),
            "{messages:?}"
        );
        assert!(
            !messages.iter().any(|m| m.contains("phe_unparsed_total")),
            "{messages:?}"
        );
        assert_eq!(findings.len(), 5, "{findings:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn doc_links_resolve_against_the_file_dir_then_the_root() {
        let root = std::env::temp_dir().join(format!("phe-lint-dl-{}", std::process::id()));
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::write(
            root.join("README.md"),
            "[a](docs/A.md) [b](B.md#x) [w](https://x.y)\n",
        )
        .unwrap();
        std::fs::write(
            root.join("docs/A.md"),
            "[up](../README.md) [root](README.md) [gone](C.md) `[span](G.md)`\n```\n[code](D.md)\n```\n",
        )
        .unwrap();
        let src =
            "//! See `docs/A.md` and `A.md`; `E.md` is gone.\nfn f() { let s = \"`F.md`\"; }\n";
        let mut ctx = ctx(vec![scan("src/lib.rs", src)], "");
        ctx.root = root.clone();
        ctx.docs = vec![PathBuf::from("README.md"), PathBuf::from("docs/A.md")];
        let findings = run(&DocLinks, &ctx);
        let got: Vec<(String, usize, usize)> = findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.column))
            .collect();
        assert_eq!(
            got,
            vec![
                ("src/lib.rs".to_owned(), 1, 26), // A.md: not in src/, not at the root
                ("src/lib.rs".to_owned(), 1, 34), // E.md
                ("README.md".to_owned(), 1, 20),  // B.md
                ("docs/A.md".to_owned(), 1, 45),  // C.md
            ],
            "{findings:?}"
        );
        assert!(findings.iter().all(|f| f.pass == "doc-links"));
        std::fs::remove_dir_all(&root).ok();
    }
}
