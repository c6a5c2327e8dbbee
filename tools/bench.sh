#!/usr/bin/env sh
# Compares the working tree against a parent revision on perfbench, in
# alternating pairs, and writes the summary as one JSON file.
#
#   tools/bench.sh --parent REV --out FILE [--pairs N] [--seeds "S ..."]
#
# REV and the working tree's tracked files are each exported with `git
# archive` into a temporary tree (removed on exit; nothing is registered
# in .git), so edits made while the runs go on reach neither side.  Each
# side's perfbench is built into its own target directory under
# .bench_build/, then for every workload and seed `perfbench/run.py
# --trace 0 --seconds <BENCHMARK.json run_seconds>` runs N pairs.  The
# side that runs first alternates from one pair to the next, counted
# across workloads and seeds, so with one pair per seed the seeds
# alternate too.  Defaults: 1 pair, seeds 1-10.  Then each side runs
# every workload once more at seed 1 with --trace 1, for the per-layer
# counts.
#
# FILE holds, per workload and end-to-end metric of BENCHMARK.json, each
# side's median and quartiles over all its runs, how many pairs the
# working tree won, lost and tied, and every run's values in the order
# they ran; beside them, per side and workload, the closing JSON line of
# the traced run.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
    sed -n '2,23s/^# \{0,1\}//p' "$0" >&2
    exit 2
}

parent='' out='' pairs=1 seeds='1 2 3 4 5 6 7 8 9 10'
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --parent) parent=$2 ;;
        --out) out=$2 ;;
        --pairs) pairs=$2 ;;
        --seeds) seeds=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$parent" ] && [ -n "$out" ] || usage
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

rev=$(git rev-parse --verify "$parent^{commit}")
# The working tree's tracked files as one commit object: HEAD when it is
# clean, else a dangling snapshot that is not stored in any ref.
change=$(git rev-parse HEAD) snap=$(git stash create)
[ -z "$snap" ] || change="$change+uncommitted"

build=$root/.bench_build
mkdir -p "$build"
src_parent=$(mktemp -d "$build/parent.XXXXXX")
src_change=$(mktemp -d "$build/change.XXXXXX")
trap 'rm -rf "$src_parent" "$src_change"' EXIT
trap 'exit 130' INT TERM
git archive "$rev" | tar -x -C "$src_parent"
git archive "${snap:-HEAD}" | tar -x -C "$src_change"

echo "==> building perfbench: parent $rev, then $change" >&2
for side in parent change; do
    eval dir=\$src_$side
    CARGO_TARGET_DIR=$build/$side-target cargo build --release --offline --quiet \
        --manifest-path "$dir/perfbench/Cargo.toml" --bin perfbench
done

raw=$build/runs.tsv
: >"$raw"

# run SIDE WORKLOAD SEED PAIR TRACE: one perfbench run in SIDE's
# exported tree; appends the arguments and its closing JSON line to
# $raw, tab-separated.
run() {
    eval dir=\$src_$1
    line=$(cd "$dir" && CARGO_TARGET_DIR=$build/$1-target python3 perfbench/run.py \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace "$5" | tail -n 1) || true
    printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$4" "$5" "$line" >>"$raw"
}

n=0
for w in $workloads; do
    for s in $seeds; do
        p=1
        while [ "$p" -le "$pairs" ]; do
            echo "==> $w seed $s pair $p/$pairs" >&2
            if [ $((n % 2)) -eq 0 ]; then
                run parent "$w" "$s" "$p" 0
                run change "$w" "$s" "$p" 0
            else
                run change "$w" "$s" "$p" 0
                run parent "$w" "$s" "$p" 0
            fi
            n=$((n + 1))
            p=$((p + 1))
        done
    done
done
for w in $workloads; do
    echo "==> $w seed 1 traced" >&2
    run parent "$w" 1 0 1
    run change "$w" 1 0 1
done

python3 - "$raw" "$out" "$rev" "$change" "$seconds" "$pairs" <<'EOF'
import json
import os
import statistics
import sys

raw, out, rev, change, seconds, pairs = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
metrics = spec["end_to_end"]
runs = []
traced = {"parent": {}, "change": {}}
for order, line in enumerate(open(raw)):
    side, workload, seed, pair, trace, last = line.rstrip("\n").split("\t", 5)
    try:
        result = json.loads(last)
    except ValueError:
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if trace == "1":
        traced[side][workload] = result
        continue
    r = {"order": order, "side": side, "workload": workload, "seed": int(seed), "pair": int(pair)}
    r["correct"] = result["correct"]
    r["attempted"] = result["attempted"]
    r["failed"] = result["failed"]
    r["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    runs.append(r)


def spread(xs):
    if len(xs) < 2:
        return {"median": xs[0] if xs else None, "q1": None, "q3": None}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


summary = {}
for w in dict.fromkeys(r["workload"] for r in runs):
    mine = [r for r in runs if r["workload"] == w]
    side = {s: [r for r in mine if r["side"] == s] for s in ("parent", "change")}
    pairs_run = {}
    for r in mine:
        pairs_run.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r
    row = {
        "runs_per_side": len(side["change"]),
        "all_correct": all(r["correct"] for r in mine),
        "failed_share": {
            s: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
            for s, rs in side.items()
        },
        "metrics": {},
    }
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        vals = {s: [r["metrics"][name] for r in rs if name in r["metrics"]] for s, rs in side.items()}
        wins = losses = ties = 0
        for pr in pairs_run.values():
            a = pr.get("parent", {}).get("metrics", {}).get(name)
            b = pr.get("change", {}).get("metrics", {}).get(name)
            if a is None or b is None:
                continue
            if a == b:
                ties += 1
            elif (b > a) == higher:
                wins += 1
            else:
                losses += 1
        p, c = spread(vals["parent"]), spread(vals["change"])
        change_pct = None
        if p["median"] and c["median"] is not None:
            change_pct = round(100 * (c["median"] - p["median"]) / p["median"], 2)
        row["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": p,
            "change": c,
            "median_change_pct": change_pct,
            "wins": wins,
            "losses": losses,
            "ties": ties,
        }
    summary[w] = row

doc = {
    "parent": rev,
    "change": change,
    "command": "perfbench/run.py --trace 0 --seconds %s" % seconds,
    "pairs_per_seed": int(pairs),
    "cpus": os.cpu_count(),
    "workloads": summary,
    "runs": runs,
    "traced": {"command": "perfbench/run.py --trace 1 --seed 1 --seconds %s" % seconds, **traced},
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
for w, row in summary.items():
    for name, m in row["metrics"].items():
        print("%-11s %-18s parent %-10.6g change %-10.6g %+.2f %%  won %d lost %d tied %d" % (
            w, name, m["parent"]["median"], m["change"]["median"],
            m["median_change_pct"] or 0, m["wins"], m["losses"], m["ties"]))
for w, result in traced["change"].items():
    before = traced["parent"].get(w, {}).get("metrics", {})
    for name, m in result["metrics"].items():
        if name in before and before[name]["value"] != m["value"]:
            print("%-11s %-34s traced parent %-14.8g change %.8g" % (
                w, name, before[name]["value"], m["value"]))
EOF
