"""Run the benchmark over several seeds and workloads and print one table.

    python3 perfbench/sweep.py                       # every workload, one run
    python3 perfbench/sweep.py --runs 10 --seed 100  # seeds 100..109
    python3 perfbench/sweep.py --trace 1             # per-layer tables

Each run is a fresh `run.py` process, run one after another, with the
workloads interleaved. For each metric the table gives the median over the
runs and, from four runs on, the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median, next
to the bound BENCHMARK.json fixes for it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in args.workloads}
    for i in range(args.runs):
        for workload in args.workloads:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(args.seed + i),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {args.seed + i}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append(result)
            print(f"{workload} seed {args.seed + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s", file=sys.stderr)

    for workload, runs in results.items():
        print(f"\n{workload} ({len(runs)} runs, seeds {args.seed}..{args.seed + len(runs) - 1}, "
              f"{args.seconds} s each, all correct: {all(r['correct'] for r in runs)})")
        print(f"  {'metric':<44} {'median':>12} {'unit':<9} {'spread':>8} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            spread = ""
            if len(values) >= 4 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / abs(median):.4f}"
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:<44} {median:>12.6g} {first['unit']:<9} {spread:>8} {bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
