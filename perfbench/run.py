#!/usr/bin/env python3
"""The hypertree benchmark: one command for decompose, widths, query
and server.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 25 --trace 0

Run from the root of a source tree.  It builds perfbench/hdbench.exe
and bin/hd_server.exe with dune, runs one workload, checks every
output, prints a table of metrics with units and sample counts on
standard error, and prints one JSON object as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  The exit code is 0 only when every output check
passed.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

WORKLOADS = ["decompose", "widths", "query", "server"]
EXE = os.path.join("_build", "default", "perfbench", "hdbench.exe")
SCRATCH = os.path.join("perfbench", "_out")
# one run must end within 180 s; the first one may also build
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the driver and the server from source; the build stays
    inside the tree (_build, no shared dune cache)."""
    for need in ["dune-project", "lib", "bin", os.path.join("perfbench", "dune")]:
        if not os.path.exists(need):
            die("run from the root of a hypertree source tree (%s is missing)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/hdbench.exe", "./bin/hd_server.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if r.returncode != 0:
        die("build failed", 3)


def run_driver(args):
    cmd = [
        EXE, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die("hdbench exited with %d" % r.returncode, 4)
    return json.loads(lines[-1])


def write_trace(raw, table):
    """The traced run's spans, counter deltas and self times, for
    attribution beyond the printed metrics."""
    t = raw["trace"]
    path = os.path.join(SCRATCH, "trace-%s-seed%d.json" % (raw["workload"], raw["seed"]))
    doc = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(table.items())},
        "counter_deltas": metrics.deltas(t["counters_before"], t["counters_after"]),
        "driver_self_ms": {
            k: {"calls": c, "inclusive_ms": i, "self_ms": s}
            for k, (c, i, s) in sorted(metrics.self_times(t["spans"]).items())
        },
        "obs_spans": t["obs_spans"],
        "spans": t["spans"],
    }
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    build()
    os.makedirs(SCRATCH, exist_ok=True)
    raw = run_driver(args)
    try:
        if args.trace:
            table = metrics.per_layer(raw)
            counts = {k: None for k in table}
            trace_path = write_trace(raw, table)
            table = {k: v[:2] for k, v in table.items()}
        else:
            full = metrics.end_to_end(raw)
            counts = {k: v[2] for k, v in full.items()}
            table = {k: v[:2] for k, v in full.items()}
        out = metrics.result_line(raw, table, metrics.declared(metrics.benchmark_json_path(), args.trace))
    except (ValueError, KeyError, OSError) as e:
        die("%s: %s" % (args.workload, e), 5)
    print("%s seed %d: %d attempted, %d failed" % (args.workload, args.seed, raw["attempted"], raw["failed"]),
          file=sys.stderr)
    for name in sorted(table):
        value, unit = table[name]
        n = counts[name]
        print("  %-34s %14.6f %-9s%s" % (name, value, unit, "" if n is None else " n=%d" % n), file=sys.stderr)
    if args.trace:
        print("  spans and self times: " + trace_path, file=sys.stderr)
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
