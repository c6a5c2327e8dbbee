#!/usr/bin/env sh
# Tier-1 gate: everything that must stay green.
#   tools/check.sh           full run
#   tools/check.sh --fast    skip the release build and the table binaries
set -eu

cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "usage: tools/check.sh [--fast]" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check (workspace, then perfbench/, its own workspace)"
cargo fmt --check
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q (workspace)"
cargo test -q

echo "==> cargo test perfbench (every workload's oracle, remount and fsck)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> fault-soak replay determinism (same seed, two processes, identical ledgers)"
# -o: libtest's progress dots share stdout with the ledger lines; sort:
# the soak tests run in parallel, so their lines arrive in any order.
soak_a=$(cargo test -q -p oskit --test fault_soak -- --nocapture | grep -o 'fault-soak: .*' | sort || true)
soak_b=$(cargo test -q -p oskit --test fault_soak -- --nocapture | grep -o 'fault-soak: .*' | sort || true)
if [ -z "$soak_a" ]; then
    echo "fault-soak produced no ledger lines" >&2
    exit 1
fi
if [ "$soak_a" != "$soak_b" ]; then
    echo "fault-soak ledgers differ between identical runs:" >&2
    echo "--- run 1:" >&2; echo "$soak_a" >&2
    echo "--- run 2:" >&2; echo "$soak_b" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets (warnings denied), then perfbench"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

if [ "$fast" -eq 0 ]; then
    echo "==> cargo build --release (workspace)"
    cargo build --release
    echo "==> default table1/table2/table3 stdout byte-identical to tools/golden"
    ./target/release/table1 | diff - tools/golden/table1.txt
    ./target/release/table2 | diff - tools/golden/table2.txt
    ./target/release/table3 | diff - tools/golden/table3.txt
    echo "==> ablation and breakdown runs: exit zero (no [FAIL]) and stdout identical to tools/golden"
    for run in "table1 --boundaries --sg --napi --faults:table1-ablations.txt" \
        "table2 --napi --boundaries:table2-ablations.txt" \
        "table3 --boundaries:table3-boundaries.txt"; do
        cmd=${run%%:*}
        golden=tools/golden/${run##*:}
        # shellcheck disable=SC2086 # $cmd is a binary name plus flags.
        out=$(./target/release/$cmd) || { echo "$out" >&2; echo "FAILED: $cmd" >&2; exit 1; }
        printf '%s\n' "$out" | diff - "$golden" || { echo "FAILED: $cmd differs from $golden" >&2; exit 1; }
    done
    echo "==> examples: exit zero and stdout identical to tools/golden/example-*.txt"
    cargo build --release --examples
    for ex in ttcp rtcp fileserver quickstart langos; do
        out=$(./target/release/examples/$ex) || { echo "$out" >&2; echo "FAILED: example $ex" >&2; exit 1; }
        printf '%s\n' "$out" | diff - "tools/golden/example-$ex.txt" || { echo "FAILED: example $ex differs from its golden" >&2; exit 1; }
    done
fi

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> all checks passed"
