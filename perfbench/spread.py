"""Run the benchmark on several seeds and record medians and spreads.

    python3 perfbench/spread.py [--runs 10] [--first-seed 0] \
        [--workloads NAME ...] [--trace-runs 1] [--out FILE]

For every workload it makes ``--runs`` untraced runs of ``run.py``, each on
another seed, and ``--trace-runs`` traced ones.  For each end-to-end metric
it prints the median of the runs and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound in ``BENCHMARK.json``.  With
``--out`` it also writes all values, the per-layer medians and the host to a
JSON file, such as ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    import numpy
    import scipy
    record = {"host": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "numpy": numpy.__version__, "scipy": scipy.__version__},
              "run_seconds": bench["run_seconds"], "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for name in args.workloads:
        runs = [run(name, s, bench["run_seconds"], 0) for s in seeds]
        entry = {"seeds": list(seeds), "end_to_end": {}}
        for m in bench["end_to_end"]:
            s = summary([r[m["name"]] for r in runs])
            entry["end_to_end"][m["name"]] = s
            print(f"{name:<18} {m['name']:<12} median {s['median']:10.5g} "
                  f"{m['unit']:<3} spread {s['spread']:7.2%} "
                  f"(a third of the bound: {m['bound'] / 3:.2%}) "
                  f"{[float(f'{v:.4g}') for v in s['values']]}", flush=True)
        if args.trace_runs:
            traced = [run(name, s, bench["run_seconds"], 1)
                      for s in seeds[:args.trace_runs]]
            entry["per_layer"] = {
                k: statistics.median(t[k] for t in traced) for k in traced[0]}
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
