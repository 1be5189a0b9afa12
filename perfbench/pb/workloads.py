"""The three workloads, timed against the built structcast binary.

One client (this process), closed loop: the next request goes out only
after the previous reply was read, and at most one program process
works at a time. A run repeats whole rounds of one fixed operation list
until --seconds have passed; every round attempts the same operations.
Throughput and CPU per operation are taken per round and reported as
the median over the rounds, so that a burst of load from outside the
benchmark moves one round, not the figure.
"""

import json
import os
import statistics
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor

from . import checks, inputs
from .procs import Accounting, start, stop

now = time.perf_counter


class Run:
    """What one run measured."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.begin = now()
        self.setups = []  # seconds, one per set-up
        self.latencies = []  # seconds, one per timed operation
        self.rounds = []  # (operations, timed wall seconds, CPU seconds)
        self.peak_kb = 0
        self.failed = 0  # operations that got no answer or a wrong one
        self.fails = []  # check failure messages

    def more(self):
        """Start another round? At least one; then another while it is
        expected to end less than half a round past --seconds."""
        if not self.rounds:
            return True
        elapsed = now() - self.begin
        return elapsed + 0.5 * elapsed / len(self.rounds) <= self.seconds

    def add_round(self, ops, wall, acct):
        self.rounds.append((ops, wall, acct.cpu_s))
        self.peak_kb = max(self.peak_kb, acct.peak_kb)

    @property
    def attempted(self):
        return len(self.latencies)

    def metrics(self):
        ms = sorted(x * 1000 for x in self.latencies)
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "ops_per_s": (statistics.median(n / w for n, w, _ in self.rounds), "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
            "cpu_ms_per_op": (statistics.median(1000 * c / n for n, _, c in self.rounds), "ms"),
            "peak_rss_mb": (self.peak_kb / 1024, "MB"),
        }


def references(ctx, keys, engine="delta", tag="ref", oracle=None):
    """Stats-free reports of an in-process scratch analysis, per
    (spec, instance), in the order of keys. With oracle ("--oracle"),
    each line starts with "OBS UNCOVERED " from the concrete
    interpreter, checked against the same solve. One helper process per
    analysis, two at a time: the cell interner is process-global and
    append-only, and a process that analyses many programs slows down as
    it grows."""
    def one(n, key):
        lst = ctx.path("refs", f"{tag}-{engine}-{n}.txt")
        with open(lst, "w") as f:
            f.write("%s %s\n" % key)
        lines = ctx.run_tool("ref", engine, *([oracle] if oracle else []), lst).splitlines()
        if len(lines) != 1:
            raise RuntimeError(f"reference analysis of {key} failed")
        return lines[0]

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(one, range(len(keys)), keys))


def ref_dict(ctx, keys, tag):
    return dict(zip(keys, map(json.loads, references(ctx, keys, tag=tag))))


def unique(keys):
    return list(dict.fromkeys(keys))


# ---------------------------------------------------------------- cold

def analyze_once(ctx, spec, inst, acct=None):
    p = start([ctx.exe, "analyze", "--format", "json", "-s", inst, spec],
              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = p.stdout.read()
        code = acct.reap(p) if acct else p.wait()
    finally:
        stop(p)
    return checks.parse(out) if code in (0, 1, 2) else None


def cold_checks(ctx, inp, answers, oracle="--oracle"):
    """Every (spec, instance) of the round: the concrete interpreter's
    observations are covered, and each answer equals the same scratch
    solve; on the naive specs, the naive engine renders the same bytes."""
    keys = [tuple(k) for k in inp["ops"]]
    lines = references(ctx, keys, tag="cold", oracle=oracle)
    fields = {k: l.split(" ", 2) for k, l in zip(keys, lines)}
    uncovered = {k: int(f[1]) for k, f in fields.items()}
    refs = {k: json.loads(f[2]) for k, f in fields.items()}
    naive_keys = [(s, i) for s in inp["naive"] for i in inputs.INSTANCES]
    naive = references(ctx, naive_keys, "naive", "cold")
    delta = [fields[k][2] for k in naive_keys]
    return checks.cold(answers, refs, uncovered, naive, delta, inp["ladder"])


# cold-analyze set-up: this many warm-up passes, the median reported
SETUPS = 5


def cold_analyze(ctx, seconds):
    inp = inputs.cold_analyze(ctx)
    setups = []
    for _ in range(SETUPS):  # set-up: untimed warm-up passes over the corpus
        t0 = now()
        for spec in inp["warmup"]:
            analyze_once(ctx, spec, "cis")
        setups.append(now() - t0)
    run = Run(seconds)
    run.setups = setups
    answers = []
    while run.more():
        acct = Accounting()
        t_round = now()
        for key in inp["ops"]:
            t0 = now()
            ans = analyze_once(ctx, *key, acct=acct)
            run.latencies.append(now() - t0)
            answers.append((key, ans))
        run.add_round(len(inp["ops"]), now() - t_round, acct)
    run.fails = cold_checks(ctx, inp, answers)
    run.failed = count_failed(run.fails, answers)
    return run


def count_failed(fails, answers):
    """Operations that got no answer, or whose (spec, instance) a check
    failure names."""
    bad = {k for k, _ in answers if any(str(k) in f for f in fails)}
    return sum(1 for k, a in answers if a is None or k in bad)


# ---------------------------------------------------------------- watch

def edit_watch(ctx, seconds):
    inp = inputs.edit_watch(ctx)
    with open(inp["base"]) as f:
        base = f.read()
    contents = {}
    for s in inp["sessions"]:
        for v in s["versions"]:
            with open(v) as f:
                contents[v] = f.read()
    run = Run(seconds)
    answers = []
    while run.more():
        setup, wall, acct = 0.0, 0.0, Accounting()
        for s in inp["sessions"]:
            with open(inp["file"], "w") as f:
                f.write(base)
            t0 = now()
            p = start([ctx.exe, "watch", "--format", "json", "-s", s["instance"], inp["file"]],
                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                      stderr=subprocess.PIPE, text=True)
            try:
                if not p.stderr.readline().startswith("watch:"):
                    raise RuntimeError("watch did not start")
                setup += now() - t0
                t_phase = now()
                for v in s["versions"]:
                    with open(inp["file"], "w") as f:
                        f.write(contents[v])
                    t0 = now()
                    p.stdin.write("\n")
                    p.stdin.flush()
                    ans = checks.parse(p.stdout.readline())
                    run.latencies.append(now() - t0)
                    answers.append(((v, s["instance"]), ans))
                wall += now() - t_phase
                acct.sample(p.pid)
                p.stdin.close()
                p.stdout.read()
                p.stderr.read()
                acct.reap(p)
            finally:
                stop(p)
        run.setups.append(setup)
        run.add_round(sum(len(s["versions"]) for s in inp["sessions"]), wall, acct)
    refs = ref_dict(ctx, unique(k for k, _ in answers), "watch")
    run.fails = checks.watch(answers, refs)
    run.failed = count_failed(run.fails, answers)
    return run


# ---------------------------------------------------------------- serve

def ask(p, spec, inst):
    p.stdin.write(f"{spec} {inst}\n")
    p.stdin.flush()
    return checks.parse(p.stdout.readline())


def serve_round(ctx, inp, store, acct, log):
    """One serve process on a fresh store: the warm-up request (set-up),
    then the stream. Returns (responses, client latencies, set-up time,
    timed wall, stderr)."""
    err = open(log, "w+")
    p = start([ctx.exe, "serve", "--store", store, "--workers", "1"],
              stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True)
    responses, lat = [], []
    try:
        t0 = now()
        if ask(p, *inp["warmup"]) is None:
            raise RuntimeError("serve did not answer the warm-up request")
        setup = now() - t0
        t_phase = now()
        for spec, inst, _ in inp["stream"]:
            t = now()
            resp = ask(p, spec, inst)
            lat.append(now() - t)
            responses.append(((spec, inst), resp))
        wall = now() - t_phase
        acct.sample(p.pid)
        p.stdin.close()
        p.stdout.read()
        acct.reap(p)
    finally:
        stop(p)
        err.seek(0)
        stderr = err.read()
        err.close()
    return responses, lat, setup, wall, stderr


def serve_store(ctx, seconds):
    inp = inputs.serve_store(ctx)
    run = Run(seconds)
    refs = ref_dict(ctx, unique((p, i) for p, i, _ in inp["stream"]), "serve")
    while run.more():
        k = len(run.rounds)
        acct = Accounting()
        responses, lat, setup, wall, _ = serve_round(
            ctx, inp, os.path.dirname(ctx.path(f"store{k}", "index.log")), acct,
            ctx.path(f"serve{k}.err"))
        run.setups.append(setup)
        run.latencies += lat
        run.add_round(len(lat), wall, acct)
        fails = checks.serve(responses, refs, inp["repeats"])
        run.fails += fails
        run.failed += count_failed(fails, responses)
    return run


WORKLOADS = {
    "cold-analyze": cold_analyze,
    "edit-watch": edit_watch,
    "serve-store": serve_store,
}
