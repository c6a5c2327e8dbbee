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

echo "==> cargo test -q (workspace)"
cargo test -q

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

echo "==> cargo clippy --workspace --all-targets (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

if [ "$fast" -eq 0 ]; then
    echo "==> cargo build --release (workspace)"
    cargo build --release
    echo "==> default table1/table2/table3 stdout byte-identical to tools/golden"
    ./target/release/table1 | diff - tools/golden/table1.txt
    ./target/release/table2 | diff - tools/golden/table2.txt
    ./target/release/table3 | diff - tools/golden/table3.txt
    echo "==> ablation and breakdown shape checks (each binary exits non-zero on [FAIL])"
    for run in "table1 --boundaries" "table1 --sg --napi" "table1 --faults" \
        "table2 --napi --boundaries" "table3 --boundaries"; do
        # shellcheck disable=SC2086 # $run is a binary name plus flags.
        out=$(./target/release/$run) || { echo "$out" >&2; echo "FAILED: $run" >&2; exit 1; }
    done
fi

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> all checks passed"
