#!/usr/bin/env python3
"""Query benchmark for the ddb disjunctive-database library.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload closed_world --seed 1 --seconds 10 --trace 0

The script builds the benchmark executable from source with dune (the
first build compiles the library; later ones are no-ops), runs one
closed-loop measurement of the chosen workload, and passes its output
through.  The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  BENCHMARK.json at the
repository root lists the workloads and metrics.

Exit status: 0 on a completed run (even one with wrong answers, which the
JSON reports); non-zero, without a result line, when the sources are
missing, the build fails, or the measurement crashes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/src/main.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "src", "main.exe")
WORKLOADS = ["closed_world", "tractable", "sigma2_ladder"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    """Compile the benchmark and the library it links; return on success."""
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a ddb checkout" % needed)
    # No shared dune cache: the build writes only under the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not complete: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def run(workload, seed, seconds, trace):
    """Run the measurement; return (stdout lines, parsed result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=170)
    except subprocess.TimeoutExpired:
        fail("the measurement did not finish within 170 s")
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        fail("the measurement exited with code %d" % r.returncode)
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(r.stdout[-4000:])
        fail("the measurement printed no result line")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("malformed result line: %s" % lines[-1])
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    build()
    lines, _ = run(a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
