//! The command's own failure paths.

use std::process::Command;

/// A traced run whose spans cannot be written fails: it exits non-zero,
/// reports `correct: false`, and does not claim the spans were written.
#[test]
fn unwritable_spans_fail_the_run() {
    let dir = std::env::temp_dir().join(format!("perfbench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where the spans' directory should be.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "net_rpc", "--seed", "3", "--seconds", "1"])
        .args(["--trace", "1", "--spans"])
        .arg(blocker.join("spans.jsonl"))
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    assert!(!stdout.contains("written to"), "{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
}
