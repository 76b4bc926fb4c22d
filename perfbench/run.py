"""rydsim benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1

Workloads (closed loop, one client, inputs picked by ``--seed``; the reasons
are in ``workloads.py`` and ``BENCHMARK.json``): ``mc-projected``
and ``qnd-laser``.

A run starts ``SETUP_PROBES`` fresh processes that only set up, then one
fresh process that sets up and runs the workload for ``--seconds``; every
command's outputs are checked against recorded references.  It prints a
report, then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, or its ``per_layer`` metrics from a traced run with
``--trace 1``.

End-to-end metrics, each a median over the run's iterations (or set-ups):
``wall_s`` from the first call into rydsim to the last checked output,
``setup_s`` (import of rydsim, ``resolve_config``, the inputs),
``cpu_s`` of the process over the same span as ``wall_s``, and
``peak_rss_mb``, the process's ``ru_maxrss``.  The report adds
``mc_shots_per_s`` on the Monte Carlo workloads and ``failed_fraction``.

Exit status: 0 with a result; 1 when a worker failed or timed out; 2 when
the checkout holds no rydsim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import quantile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


class RunFailed(RuntimeError):
    pass


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if len(samples) * (1.0 - p / 100.0) >= 10.0:
            return p, quantile(samples, p / 100.0)
    return None


def worker(args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"worker exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    """(metric values, samples behind each) of the untraced iterations."""
    its = [i for i in res["iterations"] if not i["traced"]]
    samples = {"wall_s": [i["wall_s"] for i in its],
               "cpu_s": [i["cpu_s"] for i in its],
               "setup_s": setups,
               "peak_rss_mb": [res["peak_rss_mb"]]}
    values = {k: statistics.median(v) for k, v in samples.items()}
    return values, samples


def per_layer(res: dict) -> dict:
    traced = [i for i in res["iterations"] if i["traced"]]
    plain = [i for i in res["iterations"] if not i["traced"]]
    layers = traced[0]["layers"]
    out = {k: statistics.median(i["layers"][k] for i in traced)
           for k in layers}
    wall = statistics.median(i["wall_s"] for i in traced)
    untraced = statistics.median(i["wall_s"] for i in plain)
    out.update({
        "params.load_s": res["params_load_s"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
    })
    return out


def run_one(args, bench: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [worker(args, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = worker(args, deadline)
    setups.append(res["setup_s"])
    its = res["iterations"]
    attempted = sum(i["attempted"] for i in its)
    failed = sum(i["failed"] for i in its)
    failures = [f for i in its for f in i["failures"]]

    print(f"workload {args.workload}  seed {args.seed} (input set "
          f"{res['input_set']})  trace {args.trace}  iterations {len(its)}")
    print(f"  host {json.dumps(res['host'], sort_keys=True)}")
    values, samples = end_to_end(res, setups)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, value in values.items():
        t = tail(samples[name])
        spread = (f"p{t[0]:g} {t[1]:.6g}" if t else
                  "no percentile has ten samples beyond it")
        print(f"  {name:<16} {value:12.6g} {units.get(name, '')}  "
              f"median of {len(samples[name])}; {spread}")
    mc_ops = sum(i["attempted"] for i in its if not i["traced"])
    if res["host"]["mc_workers"]:
        print(f"  {'mc_shots_per_s':<16} "
              f"{mc_ops / sum(samples['wall_s']):12.6g} 1/s  "
              f"over {len(samples['wall_s'])} iterations")
    print(f"  {'failed_fraction':<16} {failed / max(attempted, 1):12.6g}  "
          f"{failed} of {attempted} operations")
    for f in failures[:10]:
        print(f"  FAILED: {f}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(res)
        wanted = bench["per_layer"]
        for name, value in metrics.items():
            print(f"  {name:<28} {value:14.6g}")
    else:
        metrics = values
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RunFailed(f"metrics not measured: {missing}")
    return {"correct": not failures and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "rydsim", "__init__.py")):
        print(f"no rydsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"--workload must be one of {names} or all")
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        args.workload = name
        try:
            result = run_one(args, bench)
        except RunFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
