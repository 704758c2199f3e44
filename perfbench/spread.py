#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every metric of the chosen runs this prints the median over the seeds
and the distance between the first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --workload device_aging --seeds 1-5
    python3 perfbench/spread.py --workload fleet_qos --seeds 1-10 --trace 1

It exits nonzero if a run fails, or if an end-to-end spread (other than
``setup_s``'s) exceeds a third of its bound, the margin the benchmark is
tuned to.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: checks failed\n{out.stdout}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds))

    worst = 0
    print(f"\n{'metric':<40} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
            worst = 1
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<40} {med:>14.6g} {spread:>11.4f} {shown:>7}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
