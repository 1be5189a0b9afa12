"""The traced run: pbtool replays one round of a workload's operations in
process three times, with spans off, on and off again; a span wraps the
public call into each layer. It writes a Perfetto-viewable trace-event file
and a self-time table; this module turns its summary into the per-layer
metrics. serve-store also runs one real serve round, for the client
side of server.overhead_ms and for the supervisor's job counters."""

import json
import os
import re
import statistics

from . import checks, inputs, workloads
from .procs import Accounting

# name -> unit; every traced run prints all of them (0 where a layer
# does no work on the workload)
PER_LAYER = {
    "cfront.preproc_ms": "ms", "cfront.parse_ms": "ms", "cfront.typecheck_ms": "ms",
    "cfront.tokens": "count", "norm.lower_ms": "ms", "norm.stmts": "count",
    "core.solve_ms": "ms", "core.solver_visits": "count", "core.facts_consumed": "count",
    "core.wasted_propagations": "count", "core.useful_propagation_share": "ratio",
    "core.summarize_ms": "ms", "core.report_ms": "ms", "core.report_bytes": "bytes",
    "core.cells_interned": "count", "core.cells_interned_total": "count",
    "incr.reanalyze_ms": "ms", "incr.warm_visits": "count", "incr.stmts_replayed": "count",
    "incr.facts_retracted": "count", "incr.fallbacks": "count", "incr.warm_visit_ratio": "ratio",
    "store.open_ms": "ms", "store.key_ms": "ms", "store.decode_ms": "ms",
    "store.snapshot_bytes": "bytes", "store.serve_hit_ms": "ms", "store.serve_ancestor_ms": "ms",
    "store.serve_cold_ms": "ms", "store.hits": "count", "store.misses": "count",
    "store.ancestor_warm_starts": "count", "store.snapshots_written": "count",
    "store.index_appends": "count", "store.hit_share": "ratio",
    "server.overhead_ms": "ms", "server.jobs": "count", "server.retries": "count",
    "trace.overhead_pct": "%",
}


def ops_file(ctx, workload, inp):
    store = ctx.path("trace-store", "s")
    if workload == "cold-analyze":
        ops = [f"analyze {s} {i}" for s, i in inp["ops"]]
    elif workload == "edit-watch":
        ops = []
        for s in inp["sessions"]:
            ops.append(f"watch-start {s['instance']} {inp['file']} {inp['base']}")
            ops += [f"watch-edit {s['instance']} {inp['file']} {v} {k}"
                    for v, k in zip(s["versions"], s["kinds"])]
    else:
        ops = [f"serve {s} {i} {store}" for s, i, *_ in [inp["warmup"]] + inp["stream"]]
    path = ctx.path("trace-ops.txt")
    with open(path, "w") as f:
        f.write("\n".join(ops) + "\n")
    return path


def layer_metrics(summary, extra):
    spans, cnt = summary["spans"], summary["counters"]

    def per_call(span):
        s = spans.get(span)
        return s["self_ms"] / s["calls"] if s else 0.0

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    c = lambda k: cnt.get(k, 0.0)
    solved = calls("core.summarize")
    untraced, traced = sum(summary["untraced_ms"]), sum(summary["traced_ms"])
    m = {
        "cfront.preproc_ms": per_call("cfront.preproc"),
        "cfront.parse_ms": per_call("cfront.parse"),
        "cfront.typecheck_ms": per_call("cfront.typecheck"),
        "cfront.tokens": ratio(c("cfront.tokens"), calls("cfront.preproc")),
        "norm.lower_ms": per_call("norm.lower"),
        "norm.stmts": ratio(c("norm.stmts"), calls("norm.lower")),
        "core.solve_ms": per_call("core.solve"),
        "core.solver_visits": ratio(c("core.solver_visits"), solved),
        "core.facts_consumed": ratio(c("core.facts_consumed"), solved),
        "core.wasted_propagations": ratio(c("core.wasted_propagations"), solved),
        # attempted propagations: statement visits plus installed copy
        # edges (each drained at least once); the program counts no more
        "core.useful_propagation_share": max(0.0, ratio(
            c("core.solver_visits") + c("core.copy_edges") - c("core.wasted_propagations"),
            c("core.solver_visits") + c("core.copy_edges"))),
        "core.summarize_ms": per_call("core.summarize"),
        "core.report_ms": per_call("core.report"),
        "core.report_bytes": ratio(c("core.report_bytes"), calls("core.report")),
        "core.cells_interned": ratio(c("core.cells_interned"), summary["ops"]),
        "core.cells_interned_total": summary["cells_interned_total"],
        "incr.reanalyze_ms": per_call("incr.reanalyze"),
        "incr.warm_visits": ratio(c("incr.warm_visits"), calls("incr.reanalyze")),
        "incr.stmts_replayed": ratio(c("incr.stmts_replayed"), calls("incr.reanalyze")),
        "incr.facts_retracted": ratio(c("incr.facts_retracted"), calls("incr.reanalyze")),
        "incr.fallbacks": c("incr.fallbacks"),
        "incr.warm_visit_ratio": ratio(c("incr.warm_visits"), c("incr.scratch_visits")),
        "store.open_ms": per_call("store.open"),
        "store.key_ms": per_call("store.key"),
        "store.decode_ms": per_call("store.decode"),
        "store.snapshot_bytes": ratio(c("store.snapshot_bytes"), calls("store.decode")),
        "store.serve_hit_ms": per_call("store.serve_hit"),
        "store.serve_ancestor_ms": per_call("store.serve_ancestor"),
        "store.serve_cold_ms": per_call("store.serve_cold"),
        "store.hits": c("store.hits"),
        "store.misses": c("store.misses"),
        "store.ancestor_warm_starts": c("store.ancestor_warm_starts"),
        "store.snapshots_written": c("store.snapshots_written"),
        "store.index_appends": c("store.index_appends"),
        "store.hit_share": ratio(c("store.hits"), c("store.hits") + c("store.misses")),
        "server.overhead_ms": 0.0, "server.jobs": 0.0, "server.retries": 0.0,
        "trace.overhead_pct": 100 * ratio(traced - untraced, untraced),
    }
    m.update(extra)
    return m


def fleet_counts(stderr):
    jobs = re.search(r"fleet: (\d+) jobs", stderr)
    retries = re.search(r"(\d+) retries", stderr)
    return (int(jobs.group(1)) if jobs else 0, int(retries.group(1)) if retries else 0)


def run(ctx, workload, out_dir):
    """Returns (metrics, attempted, failed, check failures)."""
    gen = {"cold-analyze": inputs.cold_analyze, "edit-watch": inputs.edit_watch,
           "serve-store": inputs.serve_store}[workload]
    inp = gen(ctx)
    prefix = os.path.join(out_dir, f"{workload}-seed{ctx.seed}")
    summary = json.loads(ctx.run_tool("trace", ops_file(ctx, workload, inp), prefix)
                         .splitlines()[-1])
    fails = []
    if summary["counters"].get("check.warm_mismatches"):
        fails.append("replay: a warm answer differs from its scratch solve")
    extra = {}
    if workload == "cold-analyze":
        fails += workloads.cold_checks(ctx, inp, [])
    elif workload == "serve-store":
        refs = workloads.ref_dict(
            ctx, workloads.unique((p, i) for p, i, _ in inp["stream"]), "serve")
        responses, lat, _, _, stderr = workloads.serve_round(
            ctx, inp, os.path.dirname(ctx.path("trace-serve-store", "s")),
            Accounting(), ctx.path("trace-serve.err"))
        fails += checks.serve(responses, refs, inp["repeats"])
        in_process = summary["untraced_ms"][1:]  # the warm-up is not timed
        jobs, retries = fleet_counts(stderr)
        extra = {
            "server.overhead_ms": statistics.median(
                [1000 * c - p for c, p in zip(lat, in_process)]),
            "server.jobs": float(jobs), "server.retries": float(retries),
        }
    return layer_metrics(summary, extra), summary["ops"], 0, fails

