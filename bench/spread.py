#!/usr/bin/env python3
"""Run the BENCHMARK.json acceptance protocol and print the spreads.

For every workload: ten runs of the contract command, each with another
--seed, --trace 0. For every end-to-end metric the spread is the distance
between the first and third quartile of the ten values as a share of their
median. A bound should be at least three times the largest spread seen.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("workloads", nargs="*")
args = ap.parse_args()

contract = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
names = args.workloads or [w["name"] for w in contract["workloads"]]
worst = {}
for wl in names:
    rows = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = contract["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(contract["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} checks failed")
        rows.append(res["metrics"])
    print(f"== {wl}: {len(rows)} seeds")
    for name, bound in bounds.items():
        vals = [r[name]["value"] for r in rows]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        worst[name] = max(worst.get(name, 0), spread)
        flag = "" if spread * 3 <= bound else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"  {name:16s} median {med:12.6g}  spread {100*spread:6.2f} %  bound {100*bound:4.0f} %{flag}", flush=True)
print("== largest spread per metric")
for name, s in worst.items():
    print(f"  {name:16s} {100*s:6.2f} %  (bound {100*bounds[name]:.0f} %)")
