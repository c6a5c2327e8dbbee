//! `oskit-bench` — harnesses that regenerate the paper's tables and
//! figures (see `EXPERIMENTS.md` at the workspace root).
//!
//! Binaries:
//! * `table1` — TCP bandwidth (paper Table 1);
//! * `table2` — TCP one-byte round-trip latency (paper Table 2);
//! * `table3` — file-serving throughput: cold cache vs warm cache vs
//!   zero-copy sendfile (the buffer-cache ablation);
//! * `sizes`  — filtered source-size breakdown (paper Table 3);
//! * `fig1`   — the component structure diagram (paper Figure 1);
//! * `footprint` — static component sizes (paper §6.2.5).
//!
//! Criterion benches (`cargo bench`) cover host-time regression tracking
//! and the paper's ablations: allocator design (§6.2.10), COM dispatch
//! cost, and bufio map-vs-copy.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

static CHECK_FAILED: AtomicBool = AtomicBool::new(false);

/// The `[ok]`/`[FAIL]` mark of one shape check; a failure is remembered
/// so [`exit_on_failed_checks`] can fail the process.
pub fn mark(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        CHECK_FAILED.store(true, Ordering::Relaxed);
        "FAIL"
    }
}

/// Prints one shape check as `  [ok] what` or `  [FAIL] what`.
pub fn check(what: &str, ok: bool) {
    println!("  [{}] {}", mark(ok), what);
}

/// Exits with status 1 if any shape check printed `[FAIL]`.
pub fn exit_on_failed_checks() {
    if CHECK_FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
}

/// The paper's "filtered" source-line rule (Table 3 caption): "filters out
/// comments, blank lines, preprocessor directives, and punctuation-only
/// lines (e.g., a line containing just a brace)".
///
/// The Rust analogues: `//`/`///`/`//!` comments, attributes (`#[...]`,
/// `#![...]`), and lines containing only punctuation.
pub fn is_counted_line(line: &str) -> bool {
    let t = line.trim();
    if t.is_empty() {
        return false;
    }
    if t.starts_with("//") {
        return false;
    }
    if t.starts_with("#[") || t.starts_with("#!") {
        return false;
    }
    if t.chars().all(|c| "{}()[];,".contains(c)) {
        return false;
    }
    true
}

/// Counts filtered lines in one file.
pub fn filtered_loc(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.lines().filter(|l| is_counted_line(l)).count()
}

/// Counts filtered lines under a directory, recursively, `.rs` only.
/// Returns (non-test, test) counts, splitting on `#[cfg(test)]` blocks by
/// the crude-but-effective rule: everything from a line containing
/// `#[cfg(test)]` to the end of the file counts as test code (the
/// repository convention puts test modules last).
pub fn dir_loc(dir: &Path) -> (usize, usize) {
    let mut code = 0;
    let mut test = 0;
    for path in rs_files(dir) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let mut in_test = false;
        for line in text.lines() {
            if line.contains("#[cfg(test)]") {
                in_test = true;
            }
            if is_counted_line(line) {
                if in_test {
                    test += 1;
                } else {
                    code += 1;
                }
            }
        }
    }
    (code, test)
}

/// All `.rs` files under `dir`.
pub fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            out.extend(rs_files(&p));
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    out.sort();
    out
}

/// Locates the workspace root from the bench binary's environment.
pub fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| ".".to_string());
    PathBuf::from(manifest)
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_rules_match_the_paper() {
        assert!(is_counted_line("let x = 1;"));
        assert!(is_counted_line("fn main() { body(); }"));
        assert!(!is_counted_line(""));
        assert!(!is_counted_line("   "));
        assert!(!is_counted_line("// comment"));
        assert!(!is_counted_line("/// doc"));
        assert!(!is_counted_line("//! module doc"));
        assert!(!is_counted_line("#[derive(Debug)]"));
        assert!(!is_counted_line("#![warn(missing_docs)]"));
        assert!(!is_counted_line("}"));
        assert!(!is_counted_line("});"));
        assert!(!is_counted_line("],"));
    }

    #[test]
    fn workspace_root_has_the_crates() {
        let root = workspace_root();
        assert!(root.join("crates").is_dir(), "bad root: {root:?}");
    }
}
