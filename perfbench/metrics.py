"""Turn one raw hdbench record into the benchmark's metrics.

Pure functions only: percentiles with their sample counts, counter
deltas, ratios with their bases, span self time, and the end-to-end
and per-layer metric tables.  perfbench/test_metrics.py covers them.
"""

import json
import math
import os

# at least this many samples must lie beyond a reported tail percentile
TAIL_BEYOND = 10

SOLVERS = ["astar-tw", "bb-ghw", "astar-ghw", "fhw-bb", "hw-det-k"]


# --------------------------------------------------------------------
# Percentiles, deltas, ratios
# --------------------------------------------------------------------


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) by linear interpolation between
    closest ranks; raises ValueError on no values."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n, q):
    """How many of n samples lie strictly beyond the q-quantile."""
    return n - 1 - math.floor(q * (n - 1))


def tail_percentile(values, q, min_beyond=TAIL_BEYOND):
    """(value, sample count) of the q-quantile; raises ValueError when
    fewer than min_beyond samples lie beyond it."""
    n = len(values)
    if beyond(n, q) < min_beyond:
        raise ValueError(
            "p%g needs %d samples beyond it, %d samples give %d"
            % (q * 100, min_beyond, n, beyond(n, q) if n else 0)
        )
    return percentile(values, q), n


def deltas(before, after):
    """after - before for every counter in either snapshot; counters
    are monotonic, so a negative delta raises ValueError."""
    out = {}
    for k in sorted(set(before) | set(after)):
        d = after.get(k, 0) - before.get(k, 0)
        if d < 0:
            raise ValueError("counter %s went down by %d" % (k, -d))
        out[k] = d
    return out


def ratio(num, base):
    """num / base, and 0.0 on an empty base."""
    return num / base if base else 0.0


def hit_ratio(d, prefix):
    """(hits / (hits + misses), hits + misses) of a hits/misses
    counter pair in a delta table."""
    hits = d.get(prefix + "_hits", 0)
    lookups = hits + d.get(prefix + "_misses", 0)
    return ratio(hits, lookups), lookups


# --------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """{name: (calls, inclusive ms, self ms)} over driver spans
    [id, op, name, parent, t0_ms, t1_ms]; self time is a span's
    duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s[3], []).append((s[4], s[5]))
    out = {}
    for sid, _op, name, _parent, t0, t1 in spans:
        calls, incl, self_ = out.get(name, (0, 0.0, 0.0))
        own = (t1 - t0) - covered(children.get(sid, []), t0, t1)
        out[name] = (calls + 1, incl + (t1 - t0), self_ + own)
    return out


def obs_span_totals(tree):
    """{name: (calls, seconds, self seconds)} summed over every node
    of an hd_obs span tree, wherever it sits."""
    out = {}

    def walk(node):
        kids = node.get("children", [])
        own = node["seconds"] - sum(k["seconds"] for k in kids)
        calls, secs, self_ = out.get(node["name"], (0, 0.0, 0.0))
        out[node["name"]] = (calls + node["calls"], secs + node["seconds"], self_ + own)
        for k in kids:
            walk(k)

    for root in tree:
        walk(root)
    return out


# --------------------------------------------------------------------
# End-to-end metrics
# --------------------------------------------------------------------


def first_per_key(samples, field):
    """field of the first sample of every key, in key order."""
    seen = {}
    for s in samples:
        seen.setdefault(s["key"], s[field])
    return [seen[k] for k in sorted(seen)]


def median_of(samples, pred=lambda s: True):
    xs = [s["ms"] for s in samples if pred(s)]
    return percentile(xs, 0.5), len(xs)


def throughput(raw):
    """Operations completed per second of the run's passes."""
    return ratio(len(raw["samples"]), sum(raw["pass_s"]))


def end_to_end(raw):
    """{name: (value, unit, sample count or None)} from an untraced
    record."""
    samples = raw["samples"]
    lat = [s["ms"] for s in samples]
    p90, n = tail_percentile(lat, 0.9)
    m = {
        "setup_s": (percentile(raw["setup_s"], 0.5), "s", len(raw["setup_s"])),
        "throughput_per_s": (throughput(raw), "ops/s", len(samples)),
        "latency_p50_ms": (percentile(lat, 0.5), "ms", n),
        "latency_p90_ms": (p90, "ms", n),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", None),
        "exact_share": (
            ratio(sum(s["exact"] for s in samples), sum(s["solves"] for s in samples)),
            "ratio",
            sum(s["solves"] for s in samples),
        ),
        "width_sum": (sum(first_per_key(samples, "width")), "width", None),
    }
    # Only query samples say whether the query is acyclic, and only
    # server samples whether the cache answered; a sample without the
    # field counts on both sides of its split.
    for name, pred in [
        ("acyclic_latency_p50_ms", lambda s: s.get("acyclic", True)),
        ("cyclic_latency_p50_ms", lambda s: not s.get("acyclic", False)),
        ("hit_latency_p50_ms", lambda s: s.get("hit", True)),
        ("miss_latency_p50_ms", lambda s: not s.get("hit", False)),
    ]:
        v, k = median_of(samples, pred)
        m[name] = (v, "ms", k)
    return m


# --------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------

COUNTS = [
    ("hd_engine.blocks", "engine.blocks"),
    ("hd_engine.block_skips", "engine.block_skips"),
    ("hd_engine.slices", "engine.slices"),
    ("hd_engine.yields", "engine.yields"),
    ("hd_search.nodes_expanded", "search.nodes_expanded"),
    ("hd_search.nodes_generated", "search.nodes_generated"),
    ("hd_search.pr2_fires", "search.pr2_fires"),
    ("hd_search.duplicates_pruned", "search.duplicates_pruned"),
    ("hd_search.stale_pops", "search.stale_pops"),
    ("hd_setcover.exact_calls", "setcover.exact_calls"),
    ("hd_setcover.greedy_calls", "setcover.greedy_calls"),
    ("hd_lp.solves", "lp.solves"),
    ("hd_lp.pivots", "lp.pivots"),
    ("hd_query.bag_tuples", "query.bag_tuples"),
    ("hd_query.radix_join_tuples", "query.radix_join_tuples"),
    ("hd_query.radix_probes", "query.radix_probes"),
    ("hd_query.radix_bucket_skips", "query.radix_bucket_skips"),
    ("hd_query.selvec_semijoins", "query.selvec_semijoins"),
    ("hd_query.selvec_kept_rows", "query.selvec_kept_rows"),
    ("hd_query.enum_rows", "query.enum_rows"),
    ("hd_query.enum_dead_ends", "query.enum_dead_ends"),
    ("hd_server.cache_insertions", "server.cache_insertions"),
    ("hd_server.cache_evictions", "server.cache_evictions"),
    ("hd_server.parks", "server.parks"),
    ("hd_server.jobs_failed", "server.jobs_failed"),
    ("hd_server.protocol_errors", "server.protocol_errors"),
]

# (metric, driver span) — seconds per operation, so the layers of a
# workload add up to its mean latency
DRIVER_TIMES = [
    ("hd_corpus.parse_s", "hd_corpus.parse"),
    ("hd_core.cover_s", "hd_core.cover"),
    ("hd_core.validate_s", "hd_core.validate"),
    ("hd_lp.audit_s", "hd_lp.audit"),
    ("hd_query.parse_s", "hd_query.parse"),
] + [("hd_engine.solve_s." + s, "hd_engine.solve." + s) for s in SOLVERS]

# (metric, hd_obs span inside the library) — seconds per operation
OBS_TIMES = [
    ("hd_query.decompose_s", "query.decompose"),
    ("hd_query.eval_s", "query.run"),
    ("hd_query.materialize_s", "query.materialize"),
    ("hd_query.reduce_s", "query.reduce"),
    ("hd_query.enumerate_s", "query.enumerate"),
]


# (ratio metric, its base, hd_obs counter prefix of a hits/misses pair)
HIT_RATIOS = [
    ("hd_setcover.memo_hit_ratio", "hd_setcover.memo_lookups", "setcover.memo"),
    ("hd_lp.memo_hit_ratio", "hd_lp.memo_lookups", "lp.memo"),
    ("hd_query.atom_cache_hit_ratio", "hd_query.atom_lookups", "query.atom_cache"),
    ("hd_server.cache_hit_ratio", "hd_server.cache_lookups", "server.cache"),
]


def per_layer(raw):
    """{name: (value, unit)} from a traced record."""
    t = raw["trace"]
    samples = raw["samples"]
    ops = len(samples)
    d = deltas(t["counters_before"], t["counters_after"])
    driver = self_times(t["spans"])
    obs = obs_span_totals(t["obs_spans"])
    m = {}
    for name, counter in COUNTS:
        m[name] = (ratio(d.get(counter, 0), ops), "count/op")
    for name, span in DRIVER_TIMES:
        m[name] = (ratio(driver.get(span, (0, 0.0, 0.0))[1] / 1000.0, ops), "s/op")
    for name, span in OBS_TIMES:
        m[name] = (ratio(obs.get(span, (0, 0.0, 0.0))[1], ops), "s/op")
    # set-up work: seconds per load
    calls, load_ms, _ = driver.get("hd_query.load", (0, 0.0, 0.0))
    m["hd_query.load_s"] = (ratio(load_ms / 1000.0, calls), "s")
    solve_s = sum(driver.get("hd_engine.solve." + s, (0, 0.0, 0.0))[1] for s in SOLVERS) / 1000.0
    m["hd_search.expanded_per_s"] = (ratio(d.get("search.nodes_expanded", 0), solve_s), "1/s")
    for name, base, prefix in HIT_RATIOS:
        r, lookups = hit_ratio(d, prefix)
        m[name] = (r, "ratio")
        m[base] = (ratio(lookups, ops), "count/op")
    m["hd_lp.pivots_per_solve"] = (ratio(d.get("lp.pivots", 0), d.get("lp.solves", 0)), "count")
    materialized = sum(s.get("materialized", 0) for s in samples)
    reduced = sum(s.get("reduced", 0) for s in samples)
    m["hd_query.reduction_ratio"] = (ratio(reduced, materialized), "ratio")
    m["hd_query.tuples_materialized"] = (ratio(materialized, ops), "count/op")
    submit = [s["submit_ms"] for s in samples if "submit_ms" in s]
    m["hd_server.submit_ms"] = (percentile(submit, 0.5) if submit else 0.0, "ms")
    queue = [s["ms"] - s["compute_ms"] for s in samples if "compute_ms" in s and not s["hit"]]
    m["hd_server.queue_wait_ms"] = (percentile(queue, 0.5) if queue else 0.0, "ms")
    untraced = ratio(t["untraced_ops"], t["untraced_elapsed_s"])
    traced = ratio(ops, t["traced_elapsed_s"])
    m["hd_obs.overhead_ratio"] = (ratio(untraced, traced), "ratio")
    m["failed_ratio"] = (ratio(raw["failed"], raw["attempted"]), "ratio")
    return m


# --------------------------------------------------------------------
# The result line
# --------------------------------------------------------------------


def declared(benchmark_json, trace):
    """{name: unit} of the metrics BENCHMARK.json declares for a run."""
    with open(benchmark_json) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(raw, metrics, expected):
    """The final JSON object; raises ValueError when the computed
    metrics and the declared ones differ in name or unit."""
    got = {k: v[1] for k, v in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
                         % (missing, extra, units))
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in sorted(metrics.items())},
    }


def benchmark_json_path():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
