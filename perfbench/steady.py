#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload N times, each with
another seed, and print for every metric the median, the quartiles, the
quartile spread as a share of the median, and the highest value over
the lowest. The bounds in BENCHMARK.json are set from this.

    python3 perfbench/steady.py --workload serve-store --runs 10
        [--first-seed 1] [--seconds S]

Run from the checkout root; --seconds defaults to BENCHMARK.json's
run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, shares = {}, set()
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.splitlines()[-1])
        shares.add(res["failed"] / res["attempted"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"\n{a.workload}, {a.runs} runs of {seconds:g} s; failed shares: {sorted(shares)}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'max/min':>8} {'bound':>6}")
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        lo = min(vs)
        ratio = max(vs) / lo if lo else float("inf")
        bound = bounds.get(k)
        print(f"{k:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {ratio:8.3f} "
              f"{bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
