#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly, one seed per repeat,
with workloads interleaved (the order rotates every repeat), and give each
end-to-end metric's median and quartiles per workload.  Each run's line
shows every metric with fail_frac and correctness, so this one command
prints the whole benchmark.

    python3 perfbench/steady.py --seeds 1-10

Every run uses BENCHMARK.json's run_seconds and command.  A metric is
flagged WIDE when its spread (interquartile range over median) exceeds its
bound in BENCHMARK.json, and "tight" when it exceeds a third of the bound;
setup_s is held to its bound like the others.  Raw results go to
perfbench/out/steady-<time>.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            t = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results[w].append(res)
            print(f"{w:14s} seed {seed:4d} {time.perf_counter() - t:6.1f} s "
                  f"correct={res['correct']} "
                  f"fail_frac={res['failed'] / res['attempted']:.4g} " + " ".join(
                      f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                  flush=True)

    print(f"\n{'workload':14s} {'metric':16s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    wide = False
    for w, runs in results.items():
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            flag = "WIDE" if spread > bound else "tight" if spread > bound / 3 else ""
            wide |= flag == "WIDE"
            print(f"{w:14s} {name:16s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bound:6.2f} {flag}")
        if not all(r["correct"] for r in runs):
            print(f"{w}: some runs were not correct")
            wide = True
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f)
    print(f"raw results: {os.path.relpath(path)}")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
