//! Workspace file discovery: every `.rs` (or `.md`) file under the root,
//! minus the configured excludes, returned sorted so runs are
//! deterministic.

use std::path::{Path, PathBuf};

/// Recursively collects `.rs` files under `root`, skipping any path
/// whose workspace-relative form starts with one of `excludes` (and
/// `target/` plus hidden directories unconditionally). Paths come back
/// workspace-relative, `/`-separated, sorted.
pub fn rust_files(root: &Path, excludes: &[String]) -> std::io::Result<Vec<PathBuf>> {
    files_with_suffix(root, excludes, ".rs")
}

/// [`rust_files`] for any file-name suffix (e.g. `".md"`).
pub fn files_with_suffix(
    root: &Path,
    excludes: &[String],
    suffix: &str,
) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let Ok(rel) = path.strip_prefix(root) else {
                continue;
            };
            let rel_text = rel_string(rel);
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if excludes
                .iter()
                .any(|prefix| rel_text == *prefix || rel_text.starts_with(&format!("{prefix}/")))
            {
                continue;
            }
            let file_type = entry.file_type()?;
            if file_type.is_dir() {
                stack.push(path);
            } else if file_type.is_file() && rel_text.ends_with(suffix) {
                out.push(PathBuf::from(rel_text));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// A path as a `/`-separated string (stable across platforms for
/// reports and config matching).
pub fn rel_string(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Whether `rel` (workspace-relative, `/`-separated) lies under any of
/// the `/`-separated `prefixes`.
pub fn under_any(rel: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|prefix| rel == *prefix || rel.starts_with(&format!("{prefix}/")))
}

/// Whether a workspace-relative path is test-only by location:
/// integration tests and benches are outside the panic/ordering gates.
pub fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|part| part == "tests" || part == "benches")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_any_matches_prefixes_not_substrings() {
        let prefixes = vec!["crates/service/src".to_owned()];
        assert!(under_any("crates/service/src/lib.rs", &prefixes));
        assert!(under_any("crates/service/src", &prefixes));
        assert!(!under_any("crates/service/src2/lib.rs", &prefixes));
        assert!(!under_any("crates/other/src/lib.rs", &prefixes));
    }

    #[test]
    fn test_paths_detected() {
        assert!(is_test_path("crates/service/tests/scale.rs"));
        assert!(is_test_path("crates/bench/benches/serving.rs"));
        assert!(!is_test_path("crates/service/src/lib.rs"));
        assert!(!is_test_path("crates/testscore/src/lib.rs"));
    }
}
