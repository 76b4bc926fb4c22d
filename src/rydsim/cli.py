"""Operator-facing command line interface.

Command groups: ``budget`` (run / exclude / optimize), ``sweep`` (2d /
adiabatic), ``laser`` (fit / rabi-error), ``analyze`` (rb / qnd / decay), and
``qnd`` (simulate).  Every command takes ``--seed`` and is end-to-end
deterministic: a rerun with the same config and seed writes byte-identical
data artifacts.  Each run also emits a manifest listing inputs, the
parameter-file hash, and every artifact written.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 data-format
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import analysis, budget, laser, qnd
from .gate import GateParams, IntegrationError
from .noise import MechanismMask
from .params import ConfigError, params_digest, resolve_config
from .trap import ConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DATA = 4


class DataFormatError(ValueError):
    """Malformed input data file."""


def _fmt(x) -> str:
    return repr(float(x))


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, num = spec.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}; expected MIN:MAX:N") from exc
    if num < 1:
        raise ConfigError(f"grid needs at least one point: {spec!r}")
    return np.linspace(lo, hi, num)


def _read_text(path: str, build):
    """``build(text)`` on the UTF-8 text file at ``path``.

    An unreadable or non-UTF-8 file, and text that ``build`` rejects (bad
    or too deeply nested JSON, a missing key, a wrongly shaped document, a
    bad, non-finite or oversized value), is a data-format error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(fh.read())
    except (OSError, ValueError, TypeError, OverflowError,
            RecursionError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing key {exc}") from exc


def _parses(kind, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


def _read_csv_rows(path, n_cols: int, kinds) -> list[tuple]:
    """Numeric/str CSV reader; '#' comments and an optional header allowed.

    A row is a header only if it comes before every data row and none of its
    numeric columns parses; any other row that fails to parse is an error.
    Every number must be finite."""
    rows = []
    lines = _read_text(path, lambda text: text.split("\n"))
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != n_cols:
            raise DataFormatError(
                f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            rows.append(tuple(kind(p) for kind, p in zip(kinds, parts)))
        except ValueError:
            if not rows and not any(
                    _parses(kind, p) for kind, p in zip(kinds, parts)
                    if kind is not str):
                continue    # header row
            raise DataFormatError(f"{path}:{lineno}: non-numeric value")
        # finite, and an int no larger than the largest float
        if not all(kind is str or abs(v) <= sys.float_info.max
                   for kind, v in zip(kinds, rows[-1])):
            raise DataFormatError(f"{path}:{lineno}: non-finite value")
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return rows


class _Run:
    """One command's run: its config, its gate, the artifacts it writes and
    the manifest that lists them."""

    def __init__(self, args):
        self.args = args
        self.params = self.digest = None
        if hasattr(args, "config"):
            self.params = resolve_config(args.config)
            self.digest = params_digest(self.params)
        self.out_dir = args.out
        os.makedirs(self.out_dir, exist_ok=True)
        self.artifacts: list[str] = []
        self.t0 = time.time()

    def gate(self) -> tuple[GateParams, dict]:
        """The gate from --gate, or one optimized now (deterministic), and
        where it came from."""
        if self.args.gate:
            gate = _read_text(self.args.gate, _gate_from_json)
            return gate, {"gate_source": self.args.gate}
        res = budget.optimize_gate(self.params, seed=0)
        return res.gate, {"gate_source": "optimized",
                          "noiseless_error": res.error,
                          "decay_floor": res.decay_floor}

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def write_text(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.artifacts.append(name)
        return p

    def write_json(self, name: str, doc) -> str:
        return self.write_text(name, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def write_csv(self, name: str, header: str, rows) -> str:
        """Text cells as they are, ints as ints, other numbers by `_fmt`."""
        def cell(v):
            if isinstance(v, str):
                return v
            return str(v) if isinstance(v, (int, np.integer)) else _fmt(v)
        lines = [header] + [",".join(map(cell, row)) for row in rows]
        return self.write_text(name, "\n".join(lines) + "\n")

    def finish(self, **inputs):
        """Write the manifest: the command, its artifacts, wall time and seed,
        the shots and config digest where the command has them, and
        ``inputs``."""
        manifest = {
            "command": f"{self.args.group} {self.args.cmd}",
            "artifacts": sorted(self.artifacts),
            "wall_time_s": round(time.time() - self.t0, 3),
            "seed": self.args.seed,
        }
        if hasattr(self.args, "shots"):
            manifest["shots"] = self.args.shots
        if self.digest:
            manifest["config_digest"] = self.digest
        manifest.update(inputs)
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _gate_from_json(text: str) -> GateParams:
    doc = json.loads(text)
    return GateParams(**{f.name: doc[f.name] for f in fields(GateParams)})


# ---------------------------------------------------------------------------
# budget commands
# ---------------------------------------------------------------------------

def cmd_budget_optimize(run: _Run, args) -> int:
    res = budget.optimize_gate(run.params, seed=args.seed)
    doc = asdict(res)
    doc.update(doc.pop("gate"))
    run.write_json("gate.json", doc)
    run.finish()
    print(f"noiseless error {res.error:.6e} (decay floor {res.decay_floor:.6e})")
    print(f"gate written to {run.path('gate.json')}")
    return EXIT_OK


def cmd_budget_run(run: _Run, args) -> int:
    gate, gate_meta = run.gate()
    rep = budget.monte_carlo_error(run.params, gate, MechanismMask(),
                                   shots=args.shots, seed=args.seed)
    doc = rep.as_dict()
    doc.update(gate=asdict(gate), config_digest=run.digest, **gate_meta)
    run.write_json("report.json", doc)
    text = (f"CZ Monte Carlo error report\n"
            f"shots        : {rep.shots}\n"
            f"seed         : {rep.seed}\n"
            f"mean error   : {rep.mean_error:.6f}\n"
            f"std error    : {rep.std_error:.6f}\n"
            f"rejected     : {rep.rejected_shots}\n"
            f"failures     : {rep.integration_failures}\n")
    run.write_text("report.txt", text)
    run.finish()
    print(text, end="")
    return EXIT_OK


def cmd_budget_exclude(run: _Run, args) -> int:
    gate, gate_meta = run.gate()
    rep = budget.exclusion_table(run.params, gate, shots=args.shots,
                                 seed=args.seed)
    rows = [(r.mechanism, r.contribution, r.std_error)
            for r in rep.sorted_rows()]
    rows += [("total error", rep.total, rep.total_std_error),
             ("linear sum", rep.linear_sum, rep.linear_sum_std_error),
             ("quadrature sum", rep.quadrature_sum, "")]
    width = max(len(r.mechanism) for r in rep.rows) + 2
    lines = [f"{'mechanism':<{width}}{'contribution':>14}{'std error':>12}"]
    lines += [f"{name:<{width}}{value:>14.6f}"
              + format(std, ">12" if isinstance(std, str) else ">12.6f")
              for name, value, std in rows]
    run.write_text("exclusion.txt", "\n".join(lines) + "\n")
    run.write_csv("exclusion.csv", "mechanism,contribution,std_error", rows)
    doc = asdict(rep)
    doc.update(rows=[asdict(r) for r in rep.sorted_rows()], gate=asdict(gate),
               config_digest=run.digest, **gate_meta)
    run.write_json("exclusion.json", doc)
    run.finish()
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep commands
# ---------------------------------------------------------------------------

def cmd_sweep_2d(run: _Run, args) -> int:
    gate, gate_meta = run.gate()
    grid = budget.sweep_temperature_power(
        run.params, gate, _parse_grid(args.t_grid), _parse_grid(args.p_grid),
        shots=args.shots, seed=args.seed)
    run.write_csv(
        "sweep2d.csv", "temperature_uk,power_mw,error,std_error,log10_error",
        ((t, p, grid.errors[i, j], grid.std_errors[i, j],
          np.log10(max(grid.errors[i, j], 1e-12)))
         for i, t in enumerate(grid.temperatures_uk)
         for j, p in enumerate(grid.powers_mw)))
    run.finish(**gate_meta)
    print(f"{len(grid.temperatures_uk) * len(grid.powers_mw)} grid points "
          f"-> {run.path('sweep2d.csv')}")
    return EXIT_OK


def cmd_sweep_adiabatic(run: _Run, args) -> int:
    gate, gate_meta = run.gate()
    tr = budget.adiabatic_trace(run.params, gate, _parse_grid(args.powers),
                                shots=args.shots, seed=args.seed)
    run.write_csv(
        "adiabatic.csv", "power_mw,temperature_uk,error_full,std_full,"
        "error_velocity_frozen,std_velocity_frozen,"
        "error_position_frozen,std_position_frozen",
        zip(tr.powers_mw, tr.temperatures_uk, tr.error_full, tr.std_full,
            tr.error_velocity_frozen, tr.std_velocity_frozen,
            tr.error_position_frozen, tr.std_position_frozen))
    run.finish(**gate_meta)
    print(f"{len(tr.powers_mw)} trace points -> {run.path('adiabatic.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# laser commands
# ---------------------------------------------------------------------------

def cmd_laser_fit(run: _Run, args) -> int:
    try:
        freqs, vals = laser.read_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise DataFormatError(str(exc)) from exc
    initial = _read_text(args.initial, laser.model_from_json)
    fit = laser.fit_heterodyne(freqs, vals, initial)
    run.write_json("fit.json", fit.as_dict())
    run.finish(trace=args.trace)
    print(f"h0 = {fit.model.h0:.4g} Hz^2/Hz, {len(fit.model.bumps)} bumps, "
          f"residual rms {fit.residual_rms:.3g}"
          + (" [white-noise-only regime]" if fit.white_only else ""))
    return EXIT_OK


def cmd_laser_rabi_error(run: _Run, args) -> int:
    model = _read_text(args.model, laser.model_from_json)
    omegas_mhz = _parse_grid(args.omega_grid)
    omegas = omegas_mhz * 2.0 * np.pi * 1e6
    curve = laser.error_vs_rabi_curve(model, omegas, n_half=args.n)
    white = laser.error_vs_rabi_curve(model, omegas, n_half=args.n,
                                      include_bumps=False)
    run.write_csv("rabi_error.csv", "rabi_mhz,error,error_white_only",
                  zip(omegas_mhz, curve, white))
    run.finish(model=args.model, n_half_turns=args.n)
    print(f"{len(omegas)} points -> {run.path('rabi_error.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze commands
# ---------------------------------------------------------------------------

def cmd_analyze_rb(run: _Run, args) -> int:
    doc: dict = {"p_leak": args.p_leak}
    if args.retention and args.blowaway:
        fits = {}
        for key, path in (("retention", args.retention),
                          ("blowaway", args.blowaway)):
            rows = _read_csv_rows(path, 3, (float, float, float))
            depths = [r[0] for r in rows]
            probs = [r[1] for r in rows]
            shots = np.array([r[2] for r in rows])
            sig = np.sqrt(np.maximum(np.array(probs) * (1 - np.array(probs)), 1e-6)
                          / np.maximum(shots, 1.0))
            fit = analysis.fit_geometric_decay(depths, probs, weights=1.0 / sig)
            fits[key] = fit
            doc[key] = {"file": path, "amplitude": fit.amplitude,
                        "amplitude_err": fit.amplitude_err,
                        "per_gate": fit.per_gate,
                        "per_gate_err": fit.per_gate_err}
        combo = analysis.cz_fidelity_from_fits(fits["retention"],
                                               fits["blowaway"], args.p_leak)
        doc.update(combo)
    elif args.p_ret is not None and args.p_bb_given_ret is not None:
        doc["p_ret"] = args.p_ret
        doc["p_bb_given_ret"] = args.p_bb_given_ret
        doc["fidelity"] = analysis.cz_fidelity(args.p_ret, args.p_bb_given_ret,
                                               args.p_leak)
    else:
        raise ConfigError("provide --retention and --blowaway CSVs, or "
                          "--p-ret and --p-bb-given-ret")
    run.write_json("rb_fidelity.json", doc)
    run.finish()
    print(f"CZ fidelity = {doc['fidelity']:.7f}")
    return EXIT_OK


def cmd_analyze_qnd(run: _Run, args) -> int:
    rows = _read_csv_rows(args.data, 3, (str, int, int))
    try:
        counts = [analysis.QndCounts(state=r[0], correct=r[1], incorrect=r[2])
                  for r in rows]
        res = analysis.dirichlet_qnd(counts)
    except ValueError as exc:
        raise DataFormatError(f"{args.data}: {exc}") from exc
    doc = {
        "per_state": {k: {"mean": v[0], "std": v[1]}
                      for k, v in res.per_state.items()},
        "aggregate_mean": res.aggregate_mean,
        "aggregate_std": res.aggregate_std,
        "uncertainty_model": "independent per-state posterior variances",
    }
    run.write_json("qnd_fidelity.json", doc)
    run.finish(data=args.data)
    for k, (m, s) in res.per_state.items():
        print(f"  {k}: {m:.5f} +- {s:.5f}")
    print(f"F_QND = {res.aggregate_mean:.5f} +- {res.aggregate_std:.5f}")
    return EXIT_OK


def cmd_analyze_decay(run: _Run, args) -> int:
    rows = _read_csv_rows(args.data, 2, (float, float))
    times = [r[0] for r in rows]
    values = [r[1] for r in rows]
    fit = analysis.fit_decay_oscillation(times, values, model=args.model)
    doc = {k: v for k, v in fit.items() if k != "covariance"}
    doc["model"] = args.model
    run.write_json("decay_fit.json", doc)
    run.finish(data=args.data)
    printable = {k: round(v, 9) if isinstance(v, float) else v
                 for k, v in doc.items()}
    print(json.dumps(printable, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# qnd command
# ---------------------------------------------------------------------------

def cmd_qnd_simulate(run: _Run, args) -> int:
    circuit = _read_text(args.circuit, qnd.parse_circuit)
    noise = qnd.NoiseChannelParams(depolarizing=args.sigma, leak=args.leak,
                                   loss=args.loss, spam=args.spam)
    labels = (args.inputs.split(",") if args.inputs else
              [format(i, f"0{circuit.n}b") for i in range(2 ** circuit.n)])
    for label in labels:
        if len(label) != circuit.n or set(label) - {"0", "1"}:
            raise ConfigError(f"--inputs: {label!r} is not a basis label of "
                              f"the {circuit.n}-qubit circuit")
    if len(set(labels)) != len(labels):
        raise ConfigError(f"--inputs: duplicate labels in {args.inputs!r}")
    # a circuit with a non-deterministic noiseless output fails before sampling
    fqnd = qnd.predicted_fqnd(circuit, noise, labels)
    hists = qnd.simulate(circuit, noise, labels, shots=args.shots,
                         seed=args.seed)

    run.write_csv("histogram.csv", "input,outcome,count",
                  ((label, outcome, hists[label][outcome])
                   for label in labels for outcome in sorted(hists[label])))
    run.write_json("qnd_report.json", {
        "predicted_fqnd": fqnd,
        "inputs": labels,
        "shots": args.shots,
        "seed": args.seed,
        "noise": {"depolarizing": args.sigma, "leak": args.leak,
                  "loss": args.loss, "spam": args.spam},
    })
    run.finish(circuit=args.circuit)
    print(f"predicted F_QND = {fqnd:.5f} "
          f"({len(labels)} inputs, {args.shots} shots sampled)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _command(sub, name, func, help, config=False, gate=False, shots=None):
    """Add subcommand ``name`` with the options its `_Run` reads: --config,
    --gate and --shots where asked for, --seed and --out always."""
    q = sub.add_parser(name, help=help)
    if config:
        q.add_argument("--config", required=True,
                       help="config file path, or preset name")
    if gate:
        q.add_argument("--gate", help="gate.json from 'budget optimize'")
    q.add_argument("--seed", type=int, default=0, help="run seed")
    q.add_argument("--out", default=".", help="output directory")
    if shots:
        q.add_argument("--shots", type=int, default=shots)
    q.set_defaults(func=func)
    return q


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rydsim",
        description="Dual-species Rydberg CZ simulator and analysis toolkit")
    groups = p.add_subparsers(dest="group", required=True)

    def group(name, help):
        return groups.add_parser(name, help=help).add_subparsers(
            dest="cmd", required=True)

    sub = group("budget", "Monte Carlo error budget")
    _command(sub, "optimize", cmd_budget_optimize,
             "noiseless gate optimization", config=True)
    _command(sub, "run", cmd_budget_run, "baseline Monte Carlo error",
             config=True, gate=True, shots=10000)
    _command(sub, "exclude", cmd_budget_exclude,
             "per-mechanism exclusion table", config=True, gate=True,
             shots=10000)

    sub = group("sweep", "parameter sweeps")
    q = _command(sub, "2d", cmd_sweep_2d, "temperature x power error grid",
                 config=True, gate=True, shots=500)
    q.add_argument("--t-grid", required=True, help="MIN:MAX:N in uK")
    q.add_argument("--p-grid", required=True, help="MIN:MAX:N in mW")
    q = _command(sub, "adiabatic", cmd_sweep_adiabatic,
                 "trace along the cooling curve", config=True, gate=True,
                 shots=500)
    q.add_argument("--powers", required=True, help="MIN:MAX:N in mW")

    sub = group("laser", "laser-noise spectra")
    q = _command(sub, "fit", cmd_laser_fit, "fit a self-heterodyne trace")
    q.add_argument("--trace", required=True, help="two-column text trace")
    q.add_argument("--initial", required=True, help="initial model JSON")
    q = _command(sub, "rabi-error", cmd_laser_rabi_error,
                 "rotation error vs Rabi frequency")
    q.add_argument("--model", required=True, help="noise model JSON")
    q.add_argument("--omega-grid", required=True, help="MIN:MAX:N in MHz")
    q.add_argument("--n", type=int, default=2, help="half turns (N pi)")

    sub = group("analyze", "experimental data analysis")
    q = _command(sub, "rb", cmd_analyze_rb,
                 "randomized-benchmarking CZ fidelity")
    q.add_argument("--retention", help="CSV depth,probability,shots")
    q.add_argument("--blowaway", help="CSV depth,probability,shots")
    q.add_argument("--p-ret", type=float, dest="p_ret")
    q.add_argument("--p-bb-given-ret", type=float, dest="p_bb_given_ret")
    q.add_argument("--p-leak", type=float, default=0.002, dest="p_leak")
    q = _command(sub, "qnd", cmd_analyze_qnd, "Dirichlet QND statistics")
    q.add_argument("--data", required=True, help="CSV state,correct,incorrect")
    q = _command(sub, "decay", cmd_analyze_decay,
                 "T1 / T2* / Ramsey-Stark fits")
    q.add_argument("--data", required=True, help="CSV time,value")
    q.add_argument("--model", default="exponential",
                   choices=["exponential", "gaussian-envelope-sinusoid"])

    sub = group("qnd", "QND circuit simulation")
    q = _command(sub, "simulate", cmd_qnd_simulate,
                 "sample a noisy plaquette circuit (exit 4 first if its "
                 "noiseless output is not deterministic)", shots=10000)
    q.add_argument("--circuit", required=True, help="circuit description file")
    q.add_argument("--sigma", type=float, default=0.0,
                   help="per-CZ depolarizing probability")
    q.add_argument("--leak", type=float, default=0.0)
    q.add_argument("--loss", type=float, default=0.0)
    q.add_argument("--spam", type=float, default=0.0)
    q.add_argument("--inputs", help="comma-separated basis labels")
    return p



def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_Run(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, qnd.CircuitError) as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (budget.MonteCarloAbort, budget.OptimizationFailure,
            IntegrationError, laser.FitError, analysis.FitFailure,
            ConvergenceError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
