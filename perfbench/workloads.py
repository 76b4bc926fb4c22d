"""The benchmark's workloads: inputs, rydsim commands and output checks.

Every command goes through ``rydsim.cli.main`` in-process; the QND check
also calls ``rydsim.qnd.exact_distribution``, for which the CLI has no path.
The workload seed picks one of ``N_INPUT_SETS`` recorded input sets, so each
run's outputs have reference values in ``data/references.json``, written by
``freeze.py``.  Every iteration of a run uses the same inputs.

Why each workload was chosen is in ``BENCHMARK.json``.

Tolerances.  Criterion A lets any integrator sit within 1e-6 of a DOP853
reference per shot, so two such integrators may differ by 2e-6 per shot and
a Monte Carlo mean by 2e-6.  That is the bound.  At the recorded inputs the
standard error of the ``mc-projected`` mean is 6.7e-6 to 7.2e-6, so a
sampler that draws other shots fails.  Deterministic outputs
(QND probabilities, Rabi errors, fits) get relative tolerances near their
solvers' own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback

from inputs import (DECAY_TAU_US, RB_BLOWAWAY, RB_RETENTION, write_inputs)

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
N_INPUT_SETS = 8
CHUNK = 1024                   # monte_carlo_error's default chunk size

MC_MEAN_TOL = 2e-6
QND_MAX_Z = 4.0


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Compares observed outputs with one input set's reference values.

    With ``reference=None`` (recording) ``near`` only collects the values.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.observed: dict[str, float] = {}
        self.failures: list[str] = []

    def near(self, key: str, value, tol: float, relative: bool = False):
        value = float(value)
        self.observed[key] = value
        if self.reference is None:
            return
        ref = self.reference.get(key)
        if ref is None:
            self.failures.append(f"{key}: no reference value")
            return
        bound = tol * abs(ref) if relative else tol
        if not abs(value - ref) <= bound:
            self.failures.append(f"{key} = {value!r}, reference {ref!r}, "
                                 f"tolerance {bound:.3g}")

    def holds(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)


class Workload:
    """One closed-loop client: each iteration runs ``commands`` in order."""

    name = ""
    config: str | None = None
    gate_file: str | None = None    # frozen gate, in data/
    shots = 0                       # Monte Carlo shots per run

    def __init__(self, seed: int, work_dir: str, references: dict | None):
        self.input_set = seed % N_INPUT_SETS
        self.work_dir = work_dir
        self.reference = (None if references is None
                          else references[self.name][str(self.input_set)])

    def setup(self, rydsim) -> float:
        """Resolve the config and prepare the inputs; returns the
        seconds ``resolve_config`` took."""
        t0 = time.perf_counter()
        if self.config is not None:
            rydsim.params.resolve_config(self.config)
        load_s = time.perf_counter() - t0
        if self.gate_file is not None:
            self.gate_path = os.path.join(DATA, self.gate_file)
        self.prepare(rydsim)
        return load_s

    def prepare(self, rydsim):
        pass

    def mc_workers(self, cpu_count: int) -> int:
        """Threads ``monte_carlo_error`` runs: min(RYDSIM_THREADS, or
        cpu_count when that is unset, and the number of chunks)."""
        cap = int(os.environ.get("RYDSIM_THREADS") or cpu_count)
        return min(cap, math.ceil(self.shots / CHUNK))

    def commands(self):
        """Yield (argv, operations, check) per command."""
        raise NotImplementedError

    def iterate(self, main, checker: Checker) -> tuple[int, int]:
        """Run one iteration; returns (operations attempted, failed)."""
        attempted = failed = 0
        for argv, ops, check in self.commands():
            out = os.path.join(self.work_dir, "-".join(argv[:2]))
            before = len(checker.failures)
            bad_ops = 0
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv + ["--seed", str(self.input_set),
                                        "--out", out])
                if code != 0:
                    checker.failures.append(f"{' '.join(argv)}: exit {code}")
                else:
                    bad_ops = check(out, checker)
            except Exception:   # a crashed command fails; the run goes on
                checker.failures.append(
                    f"{' '.join(argv)}: {traceback.format_exc(limit=3)}")
            attempted += ops
            failed += ops if len(checker.failures) > before else bad_ops
        return attempted, failed


class McProjected(Workload):
    name = "mc-projected"
    config = "projected"
    gate_file = "gate_projected.json"
    shots = 4096

    def commands(self):
        yield (["budget", "run", "--config", self.config, "--gate",
                self.gate_path, "--shots", str(self.shots)],
               self.shots, self.check)

    def check(self, out, c: Checker) -> int:
        rep = read_json(os.path.join(out, "report.json"))
        c.holds(rep["shots"] == self.shots, f"report shots {rep['shots']}")
        c.near("mean_error", rep["mean_error"], MC_MEAN_TOL)
        c.near("std_error", rep["std_error"], MC_MEAN_TOL)
        c.near("rejected_shots", rep["rejected_shots"], 0)
        return rep["integration_failures"]


class QndLaser(Workload):
    name = "qnd-laser"
    qnd_shots = 50_000
    qnd_noise = {"depolarizing": 0.025, "leak": 0.01, "loss": 0.02,
                 "spam": 0.01}
    rabi_points = 60
    omega_grid = f"0.2:4:{rabi_points}"

    def prepare(self, rydsim):
        self.circuit_path = os.path.join(os.path.dirname(rydsim.__file__),
                                         "circuits", "qnd3.txt")
        with open(self.circuit_path, "r", encoding="utf-8") as fh:
            self.circuit = rydsim.qnd.parse_circuit(fh.read())
        self.noise = rydsim.qnd.NoiseChannelParams(**self.qnd_noise)
        self.model_path = os.path.join(DATA, "laser_model.json")
        self.initial_path = os.path.join(DATA, "laser_initial.json")
        with open(self.model_path, "r", encoding="utf-8") as fh:
            truth = rydsim.laser.model_from_json(fh.read())
        self.truth_h0 = truth.h0
        self.inputs = write_inputs(rydsim.laser, truth, self.input_set,
                                   self.work_dir)
        self.qnd = rydsim.qnd

    def commands(self):
        n = self.qnd_noise
        yield (["qnd", "simulate", "--circuit", self.circuit_path,
                "--sigma", str(n["depolarizing"]), "--leak", str(n["leak"]),
                "--loss", str(n["loss"]), "--spam", str(n["spam"]),
                "--shots", str(self.qnd_shots)], 1, self.check_qnd)
        yield (["laser", "rabi-error", "--model", self.model_path,
                "--omega-grid", self.omega_grid, "--n", "2"],
               1, self.check_rabi)
        yield (["laser", "fit", "--trace", self.inputs["trace.txt"],
                "--initial", self.initial_path], 1, self.check_fit)
        yield (["analyze", "rb", "--retention", self.inputs["retention.csv"],
                "--blowaway", self.inputs["blowaway.csv"]], 1, self.check_rb)
        yield (["analyze", "qnd", "--data", self.inputs["qnd_counts.csv"]],
               1, self.check_qnd_stats)
        yield (["analyze", "decay", "--data", self.inputs["decay.csv"],
                "--model", "exponential"], 1, self.check_decay)

    def check_qnd(self, out, c: Checker) -> int:
        hists: dict[str, dict[str, int]] = {}
        with open(os.path.join(out, "histogram.csv"), encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                label, outcome, count = line.strip().split(",")
                hists.setdefault(label, {})[outcome] = int(count)
        c.holds(len(hists) == 2 ** self.circuit.n, f"{len(hists)} inputs")
        worst = 0.0
        for label, hist in hists.items():
            shots = sum(hist.values())
            c.holds(shots == self.qnd_shots, f"{label}: {shots} shots")
            dist = self.qnd.exact_distribution(self.circuit, self.noise, label)
            for outcome in set(dist) | set(hist):
                p = dist.get(outcome, 0.0)
                sd = max(math.sqrt(shots * p * (1.0 - p)), 1.0)
                worst = max(worst, abs(hist.get(outcome, 0) - shots * p) / sd)
        c.holds(worst <= QND_MAX_Z, f"QND histogram |z| = {worst:.2f}")
        rep = read_json(os.path.join(out, "qnd_report.json"))
        c.near("predicted_fqnd", rep["predicted_fqnd"], 1e-12, relative=True)
        return 0

    def check_rabi(self, out, c: Checker) -> int:
        with open(os.path.join(out, "rabi_error.csv"), encoding="utf-8") as fh:
            rows = [line.strip().split(",") for line in list(fh)[1:]]
        c.holds(len(rows) == self.rabi_points, f"{len(rows)} Rabi points")
        for i, (_, err, white) in enumerate(rows):
            # quad runs at rel_tol 1e-6
            c.near(f"rabi:{i}", err, 1e-6, relative=True)
            c.near(f"rabi_white:{i}", white, 1e-6, relative=True)
        return 0

    def check_fit(self, out, c: Checker) -> int:
        h0 = read_json(os.path.join(out, "fit.json"))["h0"]
        c.holds(abs(h0 - self.truth_h0) <= 0.05 * self.truth_h0,
                f"fitted h0 {h0:.4g} not within 5 % of {self.truth_h0}")
        c.near("fit_h0", h0, 1e-6, relative=True)
        return 0

    def check_rb(self, out, c: Checker) -> int:
        doc = read_json(os.path.join(out, "rb_fidelity.json"))
        c.holds(abs(doc["p_ret"] - RB_RETENTION[1]) <= 5e-3
                and abs(doc["p_bb"] - RB_BLOWAWAY[1]) <= 5e-3,
                f"RB fits p_ret {doc['p_ret']:.4f}, p_bb {doc['p_bb']:.4f}")
        c.near("rb_fidelity", doc["fidelity"], 1e-9, relative=True)
        return 0

    def check_qnd_stats(self, out, c: Checker) -> int:
        doc = read_json(os.path.join(out, "qnd_fidelity.json"))
        expected = 0.0
        with open(self.inputs["qnd_counts.csv"], encoding="utf-8") as fh:
            rows = [line.strip().split(",") for line in list(fh)[1:]]
        for _, k, bad in rows:
            expected += (int(k) + 1.0) / (int(k) + int(bad) + 2.0)
        expected /= len(rows)
        c.holds(abs(doc["aggregate_mean"] - expected) <= 1e-12,
                f"Beta mean {doc['aggregate_mean']!r} != {expected!r}")
        c.near("qnd_aggregate", doc["aggregate_mean"], 1e-12, relative=True)
        return 0

    def check_decay(self, out, c: Checker) -> int:
        tau = read_json(os.path.join(out, "decay_fit.json"))["tau"]
        c.holds(abs(tau - DECAY_TAU_US) <= 0.1 * DECAY_TAU_US,
                f"fitted tau {tau:.3f} not within 10 % of {DECAY_TAU_US}")
        c.near("decay_tau", tau, 1e-6, relative=True)
        return 0


WORKLOADS = {w.name: w for w in (McProjected, QndLaser)}
