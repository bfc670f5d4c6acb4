#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on one workload and
prints, for each end-to-end metric, the median of the runs and the
distance between their first and third quartiles as a share of that
median (the spread), next to the metric's bound.

    python3 perfbench/spread.py --workload inproc_k8 --seeds 1-10

Run it from the repository root. The first run builds the benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="overrides run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        row = []
        for name, vals in values.items():
            vals.append(result["metrics"][name]["value"])
            row.append(f"{name}={vals[-1]:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    failed = False
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        gated = m["name"] != "setup_s"
        ok = not gated or spread < m["bound"] / 3
        failed |= not ok
        print(
            f"{m['name']:>14}: median {med:.6g} {m['unit']}, spread {spread:.3f}, "
            f"bound {m['bound']}{'' if ok else '  <-- above a third of the bound'}"
        )
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
