#!/usr/bin/env python3
"""Build and run the OSKit benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <net_stream|net_rpc|file_serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the `perfbench` binary with cargo
(into $CARGO_TARGET_DIR, or perfbench/target), confines this process to
one CPU, and replaces itself with the binary, which inherits the
affinity.  The binary prints every metric by name and unit and, as the
last line, one JSON object.  A traced run also writes its spans to
perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("net_stream", "net_rpc", "file_serve")


def main(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or opts.get("--workload") not in WORKLOADS or "--trace" not in opts:
        print(__doc__, file=sys.stderr)
        return 2
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest, "--bin", "perfbench"],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    args = [binary] + argv
    if opts["--trace"] == "1":
        spans = "spans-%s-seed%s.jsonl" % (opts["--workload"], opts.get("--seed", "x"))
        args += ["--spans", os.path.join(HERE, "out", spans)]
    # One CPU: the simulator's run token already serialises every
    # simulated thread, so nothing is lost, and the cross-CPU wake-ups of
    # the token handoff stop adding noise to host time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
