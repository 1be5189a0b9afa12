#!/usr/bin/env python3
"""structcast's end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a structcast checkout. It builds the structcast
binary and the benchmark's helper (perfbench/tool) with dune, makes the
workload's inputs from --seed in a fresh directory under .perfbench/,
and measures. With --trace 0 it times the workload against the binary
and prints the end-to-end metrics; with --trace 1 it replays one round
in process with a span around each layer's public call, writes the
trace to .perfbench/trace/, and prints the per-layer metrics. The last
line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import inputs, trace, workloads  # noqa: E402


def build(root):
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isfile(os.path.join(root, "bin", "structcast.ml"))):
        sys.exit("perfbench: run from the root of a structcast checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", root, "./bin/structcast.exe",
                        "./perfbench/tool/pbtool.exe"],
                       cwd=root, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    root = os.getcwd()
    build(root)
    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=state)
    try:
        ctx = inputs.Ctx(root, rundir, a.seed)
        if a.trace:
            out_dir = os.path.join(state, "trace")
            os.makedirs(out_dir, exist_ok=True)
            values, attempted, failed, fails = trace.run(ctx, a.workload, out_dir)
            metrics = {k: {"value": values[k], "unit": u} for k, u in trace.PER_LAYER.items()}
            print(f"trace: {out_dir}/{a.workload}-seed{a.seed}.trace.json "
                  f"and .selftime.txt")
        else:
            run = workloads.WORKLOADS[a.workload](ctx, a.seconds)
            attempted, failed, fails = run.attempted, run.failed, run.fails
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.metrics().items()}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for f in fails[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    print(f"{a.workload}: attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
