#!/usr/bin/env python3
"""Builds the simulator and the benchmark from source, then runs one
benchmark invocation:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); cargo output goes to stderr, so the benchmark's report
and its final JSON line are all that reach stdout. Exits non-zero,
printing no result, when either build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo(*args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: run from a checkout of the repository", file=sys.stderr)
        return 1
    # The paper binaries (paper_regen runs them), then the benchmark.
    if not cargo("-p", "xcache-bench", "--bins"):
        return 1
    if not cargo("--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")):
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
