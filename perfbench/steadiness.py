#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report how steady
each end-to-end metric is.

For every workload and metric this prints the median, the first and third
quartiles (Python's statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to a third of the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/steadiness.json

With --trace the traced run is repeated instead and every per-layer metric
is summarised the same way (per-layer metrics have no bound).
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: not correct: {lines[-1]}")
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None, help="write the summary as JSON")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(opts.seeds)

    summary = {}
    for workload in workloads:
        per_metric = {}
        for seed in seeds:
            result = run(bench["command"], workload, seed,
                         bench["run_seconds"], opts.trace)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        summary[workload] = {}
        for name, values in per_metric.items():
            s = summarise(values)
            summary[workload][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not opts.trace:
                flag = ("ok" if s["spread"] < bound / 3
                        else "WIDE" if s["spread"] <= bound else "OVER BOUND")
            print(f"  {workload:11s} {name:24s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}"
                  + (f" bound/3={bound / 3:.4f} {flag}" if bound else ""),
                  flush=True)

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"seeds": seeds, "run_seconds": bench["run_seconds"],
                       "trace": opts.trace, "workloads": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
