#!/usr/bin/env python3
"""Two-set self-comparison of the benchmark on one tree.

    python3 perfbench/compare.py
    python3 perfbench/compare.py --report        # only re-read the stored results

Runs every workload of BENCHMARK.json ten times in each of two sets,
each run with its own seed, through perfbench/run.py with
BENCHMARK.json's run_seconds, and keeps each result line in perfbench/_out/compare/.  Then, per workload and
end-to-end metric, it prints each set's median and spread (the distance
between the quartiles of statistics.quantiles(n=4), as a share of the
median) and how much worse the second set's median is than the first's.
A metric fails when its spread exceeds its bound (setup_s excepted) or
its median worsens by more than its bound.  Exit code 1 on a failure.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "_out", "compare")
SETS = 2
SEEDS = 10


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse(first, last, better):
    """How much worse last is than first, as a share of first."""
    return (last - first) / first if better == "lower" else (first - last) / first


def run_sets(spec, workloads):
    for s in range(1, SETS + 1):
        for w in workloads:
            for i in range(1, SEEDS + 1):
                seed = s * 100 + i
                r = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True)
                lines = r.stdout.strip().splitlines()
                if r.returncode != 0 or not lines:
                    sys.exit("compare: %s seed %d exited with %d" % (w, seed, r.returncode))
                with open(os.path.join(OUT, "set%d-%s-%d.json" % (s, w, seed)), "w") as f:
                    f.write(lines[-1] + "\n")
                print("set %d %s seed %d done" % (s, w, seed), file=sys.stderr, flush=True)


def load(workload):
    """{set: {metric: [values]}} of the stored results of a workload."""
    out = {}
    for path in sorted(glob.glob(os.path.join(OUT, "set*-%s-*.json" % workload))):
        s = int(os.path.basename(path)[3:].split("-")[0])
        with open(path) as f:
            res = json.loads(f.read())
        for name, m in res["metrics"].items():
            out.setdefault(s, {}).setdefault(name, []).append(m["value"])
    return out


def report(spec, workloads):
    failed = False
    for w in workloads:
        sets = load(w)
        if not sets:
            continue
        first, last = sets[min(sets)], sets[max(sets)]
        print("%s: %s" % (w, ", ".join("set %d n=%d" % (s, len(v["setup_s"]))
                                        for s, v in sorted(sets.items()))))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            spreads = [spread(v[name]) for _, v in sorted(sets.items())]
            shift = worse(statistics.median(first[name]), statistics.median(last[name]), m["better"])
            bad = shift > bound or (name != "setup_s" and max(spreads) > bound)
            failed |= bad
            print("  %-24s median %12.4f  spread %s  worse %+.3f  bound %.2f%s"
                  % (name, statistics.median(first[name]),
                     " ".join("%.3f" % x for x in spreads), shift, bound,
                     "  FAIL" if bad else ""))
    return failed


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--report", action="store_true", help="only report the stored results")
    args = p.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.report:
        os.makedirs(OUT, exist_ok=True)
        for path in glob.glob(os.path.join(OUT, "*.json")):
            os.remove(path)
        run_sets(spec, workloads)
    sys.exit(1 if report(spec, workloads) else 0)


if __name__ == "__main__":
    main()
