#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs `BENCHMARK.json`'s command once per seed on each named workload and
prints, per metric, the median and the distance between the first and
third quartiles as a share of the median (`statistics.quantiles(n=4)`),
next to the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --workloads stream-sim,serve-wal --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed} ({wall:.1f} s): "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {workload:13s} {name:22s} median={med:.6g} spread={spread:.4f}"
                  + (f" bound={bound} ({spread / bound:.2f} of bound)" if bound else ""))
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
