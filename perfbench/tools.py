#!/usr/bin/env python3
"""Repeat, compare and determinism checks for the query benchmark.

Run from the root of a repository checkout.

  collect      run workloads over several seeds and append one JSON line per
               run to a result file; print each metric's median and spread
                 python3 perfbench/tools.py collect --out base.jsonl \\
                     --workloads closed_world,tractable --seeds 1-10
  compare      diff two result files by the bounds in BENCHMARK.json, one
               row per workload; exit 1 on a regression
                 python3 perfbench/tools.py compare base.jsonl head.jsonl
  determinism  two runs on one seed must give identical answers and counts,
               and a run on another seed different instances
                 python3 perfbench/tools.py determinism --workload tractable

The spread of a metric is the distance between the first and third
quartiles of its values, as statistics.quantiles(values, n=4) gives them,
as a share of their median.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# info fields that must repeat exactly for one seed
DETERMINISTIC = [
    "instances_digest", "answers_digest", "ops_per_cycle", "sat_calls_per_op",
    "sigma2_calls_per_op", "engine_oracle_calls", "engine_cache_hits",
    "engine_cache_lookups", "fastpath_hits", "fastpath_dispatches",
    "classifications", "theories", "sigma2_log_bound_worst_slack",
]


def spec():
    with open(SPEC) as f:
        return json.load(f)


def info_of(lines):
    """Merge the 'info {...}' lines of one run into one dict."""
    out = {}
    for line in lines:
        if line.startswith("info "):
            out.update(json.loads(line[5:]))
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def collect(a):
    s = spec()
    bounds = {m["name"]: m for m in s["end_to_end"]}
    workloads = a.workloads.split(",") if a.workloads else [
        w["name"] for w in s["workloads"]]
    seconds = a.seconds or s["run_seconds"]
    bench.build()
    bad = False
    for w in workloads:
        runs = []
        for seed in seeds_of(a.seeds):
            lines, result = bench.run(w, seed, seconds, a.trace)
            rec = {"workload": w, "seed": seed, "trace": a.trace,
                   "result": result, "info": info_of(lines)}
            runs.append(rec)
            if a.out:
                with open(a.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")
            if not result["correct"] or result["failed"]:
                bad = True
                print("%s seed %d: correct=%s failed=%d" % (
                    w, seed, result["correct"], result["failed"]))
        print("== %s (%d runs)" % (w, len(runs)))
        for name in runs[0]["result"]["metrics"]:
            vs = values(runs, name)
            med = statistics.median(vs)
            line = "  %-30s median %14.6g" % (name, med)
            if len(vs) >= 2:
                sp = spread(vs)
                line += "  spread %6.3f" % sp
                if name in bounds:
                    b = bounds[name]["bound"]
                    line += "  bound %.2f%s" % (
                        b, "" if sp < b / 3 else "  (above a third of the bound)")
            print(line)
    return 1 if bad else 0


def worse(metric, base, head):
    """How much worse head is than base, as a share of base."""
    if base == 0:
        return 0.0
    d = (head - base) / base
    return d if metric["better"] == "lower" else -d


def compare(a):
    s = spec()
    base, head = load(a.base), load(a.head)
    regressions = 0
    for w in [w["name"] for w in s["workloads"]]:
        if w not in base or w not in head:
            print("%-14s missing from %s" % (w, "base" if w not in base else "head"))
            continue
        cells = []
        for m in s["end_to_end"]:
            bv, hv = values(base[w], m["name"]), values(head[w], m["name"])
            if not bv or not hv:
                continue
            bmed, hmed = statistics.median(bv), statistics.median(hv)
            d = worse(m, bmed, hmed)
            sp = max(spread(bv), spread(hv)) if min(len(bv), len(hv)) >= 2 else 0
            separated = all(worse(m, b, h) < 0 for b in bv for h in hv) or \
                all(worse(m, b, h) > 0 for b in bv for h in hv)
            if d > m["bound"] and (sp <= m["bound"] or separated):
                verdict = "REGRESSION"
                regressions += 1
            elif sp > m["bound"] and not separated:
                verdict = "unresolved"
            else:
                verdict = "ok"
            change = 100 * (hmed - bmed) / bmed if bmed else 0.0
            cells.append("%s %+.1f%% %s" % (m["name"], change, verdict))
        print("%-14s %s" % (w, " | ".join(cells)))
    return 1 if regressions else 0


def determinism(a):
    seconds = a.seconds
    bench.build()
    first = info_of(bench.run(a.workload, a.seed, seconds, 0)[0])
    again = info_of(bench.run(a.workload, a.seed, seconds, 0)[0])
    other = info_of(bench.run(a.workload, a.seed + 1, seconds, 0)[0])
    ok = True
    for k in DETERMINISTIC:
        if first.get(k) != again.get(k):
            print("seed %d: %s differs between runs: %r vs %r" % (
                a.seed, k, first.get(k), again.get(k)))
            ok = False
    if first["instances_digest"] == other["instances_digest"]:
        print("seeds %d and %d generated the same instances" % (a.seed, a.seed + 1))
        ok = False
    print("%s: %s" % (a.workload, "deterministic" if ok else "NOT deterministic"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=float, default=0)
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.add_argument("--out", default="")
    c.set_defaults(fn=collect)
    d = sub.add_parser("compare")
    d.add_argument("base")
    d.add_argument("head")
    d.set_defaults(fn=compare)
    e = sub.add_parser("determinism")
    e.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    e.add_argument("--seed", type=int, default=1)
    e.add_argument("--seconds", type=float, default=2)
    e.set_defaults(fn=determinism)
    a = p.parse_args()
    sys.exit(a.fn(a))


if __name__ == "__main__":
    main()
