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

/// Counts filtered lines under a directory, recursively, `.rs` only, as
/// (non-test, test): the sums of [`file_locs`].
pub fn dir_loc(dir: &Path) -> (usize, usize) {
    file_locs(dir)
        .iter()
        .fold((0, 0), |(c, t), f| (c + f.1, t + f.2))
}

/// Counts the filtered lines of every `.rs` file under `dir` as (file,
/// non-test, test).  Lines of a `#[cfg(test)]` inline module are test
/// lines.  A module file named by an out-of-line declaration that is
/// `#[cfg(test)]` or sits inside a test module (`#[cfg(test)] mod x;`,
/// `#[cfg(test)] mod buf { mod tests; }`) is test code in full, and so is
/// every file beneath it.
pub fn file_locs(dir: &Path) -> Vec<(PathBuf, usize, usize)> {
    let split: Vec<_> = rs_files(dir)
        .into_iter()
        .filter_map(|path| Some((split_loc(&std::fs::read_to_string(&path).ok()?), path)))
        .collect();
    // Each test module's path without the extension: `x` stands for
    // `x.rs`, `x/mod.rs` and everything under `x/`.
    let mut test_mods = Vec::new();
    for ((_, _, mods), path) in &split {
        // The directory holding the files of the modules `path` declares.
        let dir = match path.file_stem().and_then(|s| s.to_str()) {
            Some("lib" | "main" | "mod") | None => path.with_file_name(""),
            Some(stem) => path.with_file_name(stem),
        };
        test_mods.extend(mods.iter().map(|m| dir.join(m)));
    }
    split
        .into_iter()
        .map(|((code, test, _), path)| {
            let in_test_mod = test_mods
                .iter()
                .any(|m| path == m.with_extension("rs") || path.starts_with(m));
            if in_test_mod {
                (path, 0, code + test)
            } else {
                (path, code, test)
            }
        })
        .collect()
}

/// Counts the filtered lines of one file as (non-test, test), with the
/// out-of-line test modules it declares (paths relative to its module
/// directory).  A `#[cfg(test)]` inline module runs to the `}` at its own
/// indentation (rustfmt's layout); a `#[cfg(test)]` on any other item,
/// such as a test-only field, starts nothing.
fn split_loc(text: &str) -> (usize, usize, Vec<PathBuf>) {
    let (mut code, mut test, mut test_mods) = (0, 0, Vec::new());
    // The inline modules open at this line: (indentation, name, test).
    let mut open: Vec<(usize, &str, bool)> = Vec::new();
    let mut after_cfg_test = false;
    for line in text.lines() {
        let t = line.trim();
        let indent = line.len() - line.trim_start().len();
        let mut test_decl = false;
        if let Some(name) = mod_name(t) {
            let is_test = after_cfg_test || open.iter().any(|m| m.2);
            if t.ends_with('{') {
                open.push((indent, name, is_test));
            } else if is_test {
                test_mods.push(open.iter().map(|m| m.1).chain([name]).collect());
                test_decl = true;
            }
        }
        let counted = usize::from(is_counted_line(line));
        if test_decl || open.iter().any(|m| m.2) {
            test += counted;
        } else {
            code += counted;
        }
        if t == "}" && open.last().is_some_and(|m| m.0 == indent) {
            open.pop();
        }
        // Other attributes and doc comments may stand between
        // `#[cfg(test)]` and its `mod`.
        after_cfg_test = t == "#[cfg(test)]"
            || (after_cfg_test && (t.starts_with("#[") || t.starts_with("///")));
    }
    (code, test, test_mods)
}

/// The module a `mod` item line declares, if `t` is one.
fn mod_name(t: &str) -> Option<&str> {
    let (vis, rest) = t.split_once("mod ")?;
    let vis = vis.trim_end();
    if !(vis.is_empty() || vis == "pub" || (vis.starts_with("pub(") && vis.ends_with(')'))) {
        return None;
    }
    let name = rest
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .next()?;
    (!name.is_empty()).then_some(name)
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
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
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
    fn only_a_test_module_starts_the_test_lines() {
        let text = "struct S {\n    a: u8,\n    #[cfg(test)]\n    walked: usize,\n}\n\
                    fn f() -> u8 { 1 }\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(split_loc(text), (4, 2, vec![]));
    }

    /// Writes `files` (path, text) under a fresh directory and counts it.
    fn loc_of_tree(name: &str, files: &[(&str, &str)]) -> (usize, usize) {
        let dir = std::env::temp_dir().join(format!("oskit-bench-{name}-{}", std::process::id()));
        for (path, text) in files {
            let path = dir.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        let loc = dir_loc(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        loc
    }

    #[test]
    fn out_of_line_test_module_is_test_code_and_its_parent_is_not() {
        let loc = loc_of_tree(
            "out-of-line",
            &[
                (
                    "lib.rs",
                    "use a::b;\n\n#[cfg(test)]\nmod tests_extra;\n\nfn f() {}\nfn g() {}\n",
                ),
                (
                    "tests_extra.rs",
                    "use super::*;\n#[test]\nfn t() {\n    f();\n}\n",
                ),
            ],
        );
        // Code: `use a::b;` and the two functions.  Tests: the `mod`
        // declaration and the three lines of tests_extra.rs.
        assert_eq!(loc, (3, 4));
    }

    #[test]
    fn test_module_declared_inside_an_inline_test_module_is_test_code() {
        let loc = loc_of_tree(
            "inline-parent",
            &[
                (
                    "lib.rs",
                    "pub mod ffs {\n    pub mod fs;\n    /// Tests.\n    #[cfg(test)]\n    mod buf {\n        \
                     mod tests;\n    }\n}\npub mod glue;\npub use ffs::fs::F;\n",
                ),
                ("ffs/fs.rs", "pub struct F;\n"),
                ("ffs/buf/tests.rs", "#[test]\nfn t() {\n    let x = 1;\n    assert_eq!(x, 1);\n}\n"),
                ("glue.rs", "pub fn g() {}\n"),
            ],
        );
        // Code: `pub mod ffs {`, `pub mod fs;`, `pub mod glue;`, the `pub
        // use`, fs.rs and glue.rs.  Tests: `mod buf {`, `mod tests;` and
        // the three lines of tests.rs.
        assert_eq!(loc, (6, 5));
    }

    #[test]
    fn workspace_root_has_the_crates() {
        let root = workspace_root();
        assert!(root.join("crates").is_dir(), "bad root: {root:?}");
    }
}
