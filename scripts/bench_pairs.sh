#!/usr/bin/env bash
# Paired perfbench runs of a base revision against this checkout, one pair
# per seed.
#
#   scripts/bench_pairs.sh BASE WORKLOAD SEEDS [OUTDIR]
#
#   BASE      a git revision of this repository (HEAD~1, a commit id, ...)
#   WORKLOAD  a perfbench workload (closed_world, tractable, sigma2_ladder)
#   SEEDS     a seed range, "1-10", or one seed
#   OUTDIR    where base.jsonl and head.jsonl are appended (default: a new
#             temporary directory, printed at the end)
#
# BASE is exported with `git archive` into a temporary directory and built
# there; "head" is this checkout's working tree.  For each seed both trees
# run `python3 perfbench/run.py --workload WORKLOAD --seed S --seconds 10
# --trace 0`; odd seeds run the base first, even seeds the head, so drift
# in the machine's speed falls on both sides alike.  Each result is
# appended in `perfbench/tools.py collect`'s line format.  The script
# prints every seed's pair per end-to-end metric of BENCHMARK.json, the
# number of pairs the head wins, each side's median and quartiles, and
# any deterministic info field (answers digest, oracle and cache counts)
# that differs within a pair, and then runs `tools.py compare` on the two
# files.  Pairing by seed keeps a seed's instances out of the spread.
#
# Run from anywhere inside the checkout; it needs git, dune and python3.
# Exit status:
#   2  a usage error; a run failed or was not correct ("correct" false
#      or "failed" > 0); or a pair differs in answers_digest,
#      instances_digest or ops_per_cycle: the two sides did not answer
#      the same questions alike, so their timings do not compare;
#   1  `tools.py compare` found a regression;
#   3  `tools.py compare` passed, but a pair differs in an oracle, cache
#      or fast-path count (the other deterministic info fields): the
#      change moves how often the oracles are asked, by design or not,
#      and the differing counts are printed for a reader to judge;
#   0  `tools.py compare` passed and every deterministic field is equal.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  sed -n '5,11p' "$0" >&2
  exit 2
fi
base_rev=$1 workload=$2 seeds=$3
head=$(git rev-parse --show-toplevel)
out=${4:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}
mkdir -p "$out"
out=$(cd "$out" && pwd)

tree=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs_base.XXXXXX")
trap 'rm -rf "$tree"' EXIT
git -C "$head" archive "$base_rev" | tar -x -C "$tree"
echo "base $base_rev exported to $tree; results in $out"

python3 - "$tree" "$head" "$workload" "$seeds" "$out" <<'PY'
import json, os, statistics, subprocess, sys

base, head, workload, seeds, out = sys.argv[1:]
sys.path.insert(0, os.path.join(head, "perfbench"))
import tools  # noqa: E402

spec = tools.spec()
metrics = spec["end_to_end"]
seconds = spec["run_seconds"]


def run(tree, seed):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
        sys.stderr.write("bench_pairs: %s seed %d failed in %s\n" % (
            workload, seed, tree))
        sys.exit(2)
    lines = r.stdout.splitlines()
    rec = {"workload": workload, "seed": seed, "trace": 0,
           "result": json.loads(lines[-1]), "info": tools.info_of(lines)}
    with open(os.path.join(out, "%s.jsonl" % ("base" if tree == base else "head")),
              "a") as f:
        f.write(json.dumps(rec) + "\n")
    return rec


# Fields that tell whether both sides did the same work; every other
# deterministic field is a count.
SAME_WORK = ("answers_digest", "instances_digest", "ops_per_cycle")
bad = counts_differ = False
pairs = []
for seed in tools.seeds_of(seeds):
    order = (base, head) if seed % 2 else (head, base)
    recs = {tree: run(tree, seed) for tree in order}
    b, h = recs[base], recs[head]
    pairs.append((seed, b, h))
    for r, side in ((b, "base"), (h, "head")):
        if not r["result"]["correct"] or r["result"]["failed"]:
            print("seed %d %s: correct=%s failed=%d" % (
                seed, side, r["result"]["correct"], r["result"]["failed"]))
            bad = True
    for k in tools.DETERMINISTIC:
        if b["info"].get(k) != h["info"].get(k):
            print("seed %d: %s differs: base %r, head %r" % (
                seed, k, b["info"].get(k), h["info"].get(k)))
            if k in SAME_WORK:
                bad = True
            else:
                counts_differ = True
    print("seed %-3d %s" % (seed, "  ".join(
        "%s %.4g -> %.4g" % (m["name"], b["result"]["metrics"][m["name"]]["value"],
                             h["result"]["metrics"][m["name"]]["value"])
        for m in metrics if m["name"] in b["result"]["metrics"])), flush=True)

print("== %s, %d pairs" % (workload, len(pairs)))
for m in metrics:
    name = m["name"]
    bv = [b["result"]["metrics"][name]["value"] for _, b, _ in pairs]
    hv = [h["result"]["metrics"][name]["value"] for _, _, h in pairs]
    wins = sum(tools.worse(m, x, y) < 0 for x, y in zip(bv, hv))

    def quart(vs):
        if len(vs) < 2:
            return "median %.4g" % vs[0]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        return "median %.4g [%.4g, %.4g]" % (statistics.median(vs), q1, q3)

    print("  %-16s head wins %d/%d  base %s  head %s" % (
        name, wins, len(pairs), quart(bv), quart(hv)))

sys.stdout.flush()
rc = subprocess.run(["python3", os.path.join(head, "perfbench", "tools.py"),
                     "compare", os.path.join(out, "base.jsonl"),
                     os.path.join(out, "head.jsonl")], cwd=head).returncode
if bad:
    sys.exit(2)
if rc == 0 and counts_differ:
    print("bench_pairs: compare passed; oracle/cache counts differ (above)")
    sys.exit(3)
sys.exit(rc)
PY
