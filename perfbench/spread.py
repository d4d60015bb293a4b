#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads suite,stream,serve] [--seeds 10]
                                [--first-seed 1] [--trace 0] [--values]

Run from the repository root. For every workload it runs the command in
BENCHMARK.json once per seed and prints, per metric, the median of the
values and their spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound. Exits 1 when a run fails or reports
correct=false.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: correct=false\n{p.stdout}", file=sys.stderr)
                ok = False
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            med = statistics.median(vs)
            spread = float("nan")
            if len(vs) >= 2 and med:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(k)
            flag = ""
            if bound is not None and spread == spread and k != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"{w:7} {k:34} median {med:<14.6g} spread {spread:.4f}"
                  + (f" bound {bound}" if bound is not None else "") + flag)
            if args.values:
                print("        " + " ".join(f"{v:.6g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
