"""Record the reference outputs the benchmark checks against.

    python3 perfbench/freeze.py [WORKLOAD ...]

Runs one iteration of each workload (both by default) on every recorded
input set, each in a fresh ``worker.py --record`` process, and writes what
the commands produced to ``data/references.json``.  It also prints, for the
Monte Carlo workload, how the check tolerances compare with the Monte Carlo
standard errors of the same quantities.

The frozen gate ``data/gate_projected.json`` was written by ``rydsim budget
optimize --config projected --seed 0``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import MC_MEAN_TOL, N_INPUT_SETS, WORKLOADS
from worker import HERE, REFERENCES


def record(name: str, input_set: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
         "--seed", str(input_set), "--seconds", "0", "--record"],
        capture_output=True, text=True, check=True)
    (it,) = json.loads(proc.stdout.splitlines()[-1])["iterations"]
    if it["failures"]:
        raise SystemExit(f"{name} input set {input_set}: {it['failures']}")
    return it["observed"]


def main(names) -> int:
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, "r", encoding="utf-8") as fh:
            refs = json.load(fh)
    for name in names:
        refs[name] = {str(k): record(name, k) for k in range(N_INPUT_SETS)}
        for k, obs in refs[name].items():
            if "std_error" in obs:
                print(f"{name} set {k}: mean {obs['mean_error']:.6e}, "
                      f"SE {obs['std_error']:.2e} = "
                      f"{obs['std_error'] / MC_MEAN_TOL:.0f} x tolerance")
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
