"""One benchmark process: set up rydsim, then run a workload in a closed loop.

``run.py`` starts this script in a fresh interpreter for each set-up probe
and for each measured run, and reads the JSON object it prints last.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only] [--record]

Set-up (``setup_s``) is the import of rydsim, ``resolve_config`` and reading
or generating the workload's inputs.  The loop then runs one iteration at a
time until another would end after ``--seconds`` (at least one).  With
``--trace 1`` it alternates untraced and traced iterations, at least one of
each, so the tracing overhead is measured in the same process.
``--record`` runs one iteration without reference values and prints what it
observed (see ``freeze.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
REFERENCES = os.path.join(HERE, "data", "references.json")

TRACED_MODULES = ("rydsim.cli", "rydsim.params", "rydsim.budget",
                  "rydsim.gate", "rydsim.qnd", "rydsim.laser",
                  "rydsim.analysis")


def import_rydsim():
    """Import rydsim from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import rydsim
    import rydsim.cli
    if os.path.dirname(os.path.abspath(rydsim.__file__)) != os.path.join(
            SRC, "rydsim"):
        raise SystemExit(f"rydsim imported from {rydsim.__file__}, "
                         f"not from {SRC}")
    return rydsim


def host_record(workload) -> dict:
    import numpy
    import scipy
    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in (
            "RYDSIM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "mc_workers": workload.mc_workers(cpus),
    }


def run_loop(workload, rydsim, tracer, seconds: float, record: bool):
    from tracing import layer_metrics
    from workloads import Checker

    def main(argv):
        return rydsim.cli.main(argv)   # looked up per call: may be wrapped

    modules = {name: sys.modules[name] for name in TRACED_MODULES}
    iterations = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        checker = Checker(None if record else workload.reference)
        if traced:
            tracer.install(modules)
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            attempted, failed = workload.iterate(main, checker)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        finally:
            if traced:
                tracer.restore()
        it = {"wall_s": wall, "cpu_s": cpu, "attempted": attempted,
              "failed": failed, "failures": checker.failures,
              "traced": traced}
        if traced:
            it["layers"] = layer_metrics(tracer.take(), threading.get_ident(),
                                         wall)
        if record:
            it["observed"] = checker.observed
            return [it]
        iterations.append(it)
        elapsed = time.perf_counter() - start
        typical = statistics.median(i["wall_s"] for i in iterations)
        both = tracer is None or len(iterations) >= 2
        if both and elapsed + typical > seconds:
            return iterations


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    rydsim = import_rydsim()
    # imported after t0: workloads imports numpy, and set-up time counts
    # that import
    from tracing import Tracer
    from workloads import WORKLOADS, read_json

    references = None if args.record else read_json(REFERENCES)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir, references)
        params_load_s = workload.setup(rydsim)
        setup_s = time.perf_counter() - t0
        result = {"workload": args.workload, "seed": args.seed,
                  "input_set": workload.input_set, "setup_s": setup_s,
                  "params_load_s": params_load_s}
        if not args.setup_only:
            tracer = Tracer() if args.trace else None
            result["iterations"] = run_loop(workload, rydsim, tracer,
                                            args.seconds, args.record)
            result["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            result["host"] = host_record(workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
