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
from .params import ConfigError, SystemParams, params_digest, resolve_config
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
    """Collects artifacts and writes the manifest at the end of a command."""

    def __init__(self, args, command: str):
        self.out_dir = args.out
        os.makedirs(self.out_dir, exist_ok=True)
        self.command = command
        self.artifacts: list[str] = []
        self.meta: dict = {}
        self.t0 = time.time()

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

    def finish(self, **meta):
        manifest = {
            "command": self.command,
            "artifacts": sorted(self.artifacts),
            "wall_time_s": round(time.time() - self.t0, 3),
        }
        manifest.update(self.meta)
        manifest.update(meta)
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _gate_from_json(text: str) -> GateParams:
    doc = json.loads(text)
    return GateParams(**{f.name: doc[f.name] for f in fields(GateParams)})


def _gate_for(params: SystemParams, args) -> tuple[GateParams, dict]:
    """Load an optimized gate from --gate, or optimize now (deterministic)."""
    if getattr(args, "gate", None):
        gate = _read_text(args.gate, _gate_from_json)
        return gate, {"gate_source": args.gate}
    res = budget.optimize_gate(params, seed=0)
    return res.gate, {"gate_source": "optimized",
                      "noiseless_error": res.error,
                      "decay_floor": res.decay_floor}


# ---------------------------------------------------------------------------
# budget commands
# ---------------------------------------------------------------------------

def cmd_budget_optimize(args) -> int:
    params = resolve_config(args.config)
    run = _Run(args, "budget optimize")
    res = budget.optimize_gate(params, seed=args.seed)
    doc = asdict(res)
    doc.update(doc.pop("gate"))
    run.write_json("gate.json", doc)
    run.finish(config_digest=params_digest(params), seed=args.seed)
    print(f"noiseless error {res.error:.6e} (decay floor {res.decay_floor:.6e})")
    print(f"gate written to {run.path('gate.json')}")
    return EXIT_OK


def cmd_budget_run(args) -> int:
    params = resolve_config(args.config)
    run = _Run(args, "budget run")
    gate, gate_meta = _gate_for(params, args)
    rep = budget.monte_carlo_error(params, gate, MechanismMask(),
                                   shots=args.shots, seed=args.seed)
    doc = rep.as_dict()
    doc["gate"] = asdict(gate)
    doc["config_digest"] = params_digest(params)
    doc.update(gate_meta)
    run.write_json("report.json", doc)
    text = (f"CZ Monte Carlo error report\n"
            f"shots        : {rep.shots}\n"
            f"seed         : {rep.seed}\n"
            f"mean error   : {rep.mean_error:.6f}\n"
            f"std error    : {rep.std_error:.6f}\n"
            f"rejected     : {rep.rejected_shots}\n"
            f"failures     : {rep.integration_failures}\n")
    run.write_text("report.txt", text)
    run.finish(config_digest=params_digest(params), seed=args.seed,
               shots=args.shots)
    print(text, end="")
    return EXIT_OK


def cmd_budget_exclude(args) -> int:
    params = resolve_config(args.config)
    run = _Run(args, "budget exclude")
    gate, gate_meta = _gate_for(params, args)
    rep = budget.exclusion_table(params, gate, shots=args.shots, seed=args.seed)

    width = max(len(r.mechanism) for r in rep.rows) + 2
    lines = [f"{'mechanism':<{width}}{'contribution':>14}{'std error':>12}"]
    for r in rep.sorted_rows():
        lines.append(f"{r.mechanism:<{width}}{r.contribution:>14.6f}"
                     f"{r.std_error:>12.6f}")
    lines.append(f"{'total error':<{width}}{rep.total:>14.6f}"
                 f"{rep.total_std_error:>12.6f}")
    lines.append(f"{'linear sum':<{width}}{rep.linear_sum:>14.6f}"
                 f"{rep.linear_sum_std_error:>12.6f}")
    lines.append(f"{'quadrature sum':<{width}}{rep.quadrature_sum:>14.6f}"
                 f"{'':>12}")
    run.write_text("exclusion.txt", "\n".join(lines) + "\n")

    csv = ["mechanism,contribution,std_error"]
    for r in rep.sorted_rows():
        csv.append(f"{r.mechanism},{_fmt(r.contribution)},{_fmt(r.std_error)}")
    csv.append(f"total error,{_fmt(rep.total)},{_fmt(rep.total_std_error)}")
    csv.append(f"linear sum,{_fmt(rep.linear_sum)},{_fmt(rep.linear_sum_std_error)}")
    csv.append(f"quadrature sum,{_fmt(rep.quadrature_sum)},")
    run.write_text("exclusion.csv", "\n".join(csv) + "\n")

    doc = asdict(rep)
    doc.update(rows=[asdict(r) for r in rep.sorted_rows()], gate=asdict(gate),
               config_digest=params_digest(params), **gate_meta)
    run.write_json("exclusion.json", doc)
    run.finish(config_digest=params_digest(params), seed=args.seed,
               shots=args.shots)
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep commands
# ---------------------------------------------------------------------------

def cmd_sweep_2d(args) -> int:
    params = resolve_config(args.config)
    run = _Run(args, "sweep 2d")
    gate, gate_meta = _gate_for(params, args)
    grid = budget.sweep_temperature_power(
        params, gate, _parse_grid(args.t_grid), _parse_grid(args.p_grid),
        shots=args.shots, seed=args.seed)
    rows = ["temperature_uk,power_mw,error,std_error,log10_error"]
    for i, t in enumerate(grid.temperatures_uk):
        for j, p in enumerate(grid.powers_mw):
            err = grid.errors[i, j]
            rows.append(f"{_fmt(t)},{_fmt(p)},{_fmt(err)},"
                        f"{_fmt(grid.std_errors[i, j])},"
                        f"{_fmt(np.log10(max(err, 1e-12)))}")
    run.write_text("sweep2d.csv", "\n".join(rows) + "\n")
    run.finish(config_digest=params_digest(params), seed=args.seed,
               shots=args.shots, **gate_meta)
    print(f"{len(grid.temperatures_uk) * len(grid.powers_mw)} grid points "
          f"-> {run.path('sweep2d.csv')}")
    return EXIT_OK


def cmd_sweep_adiabatic(args) -> int:
    params = resolve_config(args.config)
    run = _Run(args, "sweep adiabatic")
    gate, gate_meta = _gate_for(params, args)
    tr = budget.adiabatic_trace(params, gate, _parse_grid(args.powers),
                                shots=args.shots, seed=args.seed)
    rows = ["power_mw,temperature_uk,error_full,std_full,"
            "error_velocity_frozen,std_velocity_frozen,"
            "error_position_frozen,std_position_frozen"]
    for i in range(len(tr.powers_mw)):
        rows.append(",".join(_fmt(v) for v in (
            tr.powers_mw[i], tr.temperatures_uk[i],
            tr.error_full[i], tr.std_full[i],
            tr.error_velocity_frozen[i], tr.std_velocity_frozen[i],
            tr.error_position_frozen[i], tr.std_position_frozen[i])))
    run.write_text("adiabatic.csv", "\n".join(rows) + "\n")
    run.finish(config_digest=params_digest(params), seed=args.seed,
               shots=args.shots, **gate_meta)
    print(f"{len(tr.powers_mw)} trace points -> {run.path('adiabatic.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# laser commands
# ---------------------------------------------------------------------------

def cmd_laser_fit(args) -> int:
    run = _Run(args, "laser fit")
    try:
        freqs, vals = laser.read_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise DataFormatError(str(exc)) from exc
    initial = _read_text(args.initial, laser.model_from_json)
    fit = laser.fit_heterodyne(freqs, vals, initial)
    run.write_json("fit.json", fit.as_dict())
    run.finish(trace=args.trace, seed=args.seed)
    print(f"h0 = {fit.model.h0:.4g} Hz^2/Hz, {len(fit.model.bumps)} bumps, "
          f"residual rms {fit.residual_rms:.3g}"
          + (" [white-noise-only regime]" if fit.white_only else ""))
    return EXIT_OK


def cmd_laser_rabi_error(args) -> int:
    run = _Run(args, "laser rabi-error")
    model = _read_text(args.model, laser.model_from_json)
    omegas_mhz = _parse_grid(args.omega_grid)
    omegas = omegas_mhz * 2.0 * np.pi * 1e6
    curve = laser.error_vs_rabi_curve(model, omegas, n_half=args.n)
    white = laser.error_vs_rabi_curve(model, omegas, n_half=args.n,
                                      include_bumps=False)
    rows = ["rabi_mhz,error,error_white_only"]
    for om, e, w in zip(omegas_mhz, curve, white):
        rows.append(f"{_fmt(om)},{_fmt(e)},{_fmt(w)}")
    run.write_text("rabi_error.csv", "\n".join(rows) + "\n")
    run.finish(model=args.model, n_half_turns=args.n, seed=args.seed)
    print(f"{len(omegas)} points -> {run.path('rabi_error.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze commands
# ---------------------------------------------------------------------------

def cmd_analyze_rb(args) -> int:
    run = _Run(args, "analyze rb")
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
    run.finish(seed=args.seed)
    print(f"CZ fidelity = {doc['fidelity']:.7f}")
    return EXIT_OK


def cmd_analyze_qnd(args) -> int:
    run = _Run(args, "analyze qnd")
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
    run.finish(data=args.data, seed=args.seed)
    for k, (m, s) in res.per_state.items():
        print(f"  {k}: {m:.5f} +- {s:.5f}")
    print(f"F_QND = {res.aggregate_mean:.5f} +- {res.aggregate_std:.5f}")
    return EXIT_OK


def cmd_analyze_decay(args) -> int:
    run = _Run(args, "analyze decay")
    rows = _read_csv_rows(args.data, 2, (float, float))
    times = [r[0] for r in rows]
    values = [r[1] for r in rows]
    fit = analysis.fit_decay_oscillation(times, values, model=args.model)
    doc = {k: v for k, v in fit.items() if k != "covariance"}
    doc["model"] = args.model
    run.write_json("decay_fit.json", doc)
    run.finish(data=args.data, seed=args.seed)
    printable = {k: round(v, 9) if isinstance(v, float) else v
                 for k, v in doc.items()}
    print(json.dumps(printable, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# qnd command
# ---------------------------------------------------------------------------

def cmd_qnd_simulate(args) -> int:
    run = _Run(args, "qnd simulate")
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

    rows = ["input,outcome,count"]
    for label in labels:
        for outcome in sorted(hists[label]):
            rows.append(f"{label},{outcome},{hists[label][outcome]}")
    run.write_text("histogram.csv", "\n".join(rows) + "\n")
    run.write_json("qnd_report.json", {
        "predicted_fqnd": fqnd,
        "inputs": labels,
        "shots": args.shots,
        "seed": args.seed,
        "noise": {"depolarizing": args.sigma, "leak": args.leak,
                  "loss": args.loss, "spam": args.spam},
    })
    run.finish(circuit=args.circuit, seed=args.seed, shots=args.shots)
    print(f"predicted F_QND = {fqnd:.5f} "
          f"({len(labels)} inputs, {args.shots} shots sampled)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_common(p, shots_default=None):
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--out", default=".", help="output directory")
    if shots_default is not None:
        p.add_argument("--shots", type=int, default=shots_default)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rydsim",
        description="Dual-species Rydberg CZ simulator and analysis toolkit")
    groups = p.add_subparsers(dest="group", required=True)

    g = groups.add_parser("budget", help="Monte Carlo error budget")
    sub = g.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("optimize", help="noiseless gate optimization")
    q.add_argument("--config", required=True)
    _add_common(q)
    q.set_defaults(func=cmd_budget_optimize)
    q = sub.add_parser("run", help="baseline Monte Carlo error")
    q.add_argument("--config", required=True)
    q.add_argument("--gate", help="gate.json from 'budget optimize'")
    _add_common(q, shots_default=10000)
    q.set_defaults(func=cmd_budget_run)
    q = sub.add_parser("exclude", help="per-mechanism exclusion table")
    q.add_argument("--config", required=True)
    q.add_argument("--gate")
    _add_common(q, shots_default=10000)
    q.set_defaults(func=cmd_budget_exclude)

    g = groups.add_parser("sweep", help="parameter sweeps")
    sub = g.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("2d", help="temperature x power error grid")
    q.add_argument("--config", required=True)
    q.add_argument("--gate")
    q.add_argument("--t-grid", required=True, help="MIN:MAX:N in uK")
    q.add_argument("--p-grid", required=True, help="MIN:MAX:N in mW")
    _add_common(q, shots_default=500)
    q.set_defaults(func=cmd_sweep_2d)
    q = sub.add_parser("adiabatic", help="trace along the cooling curve")
    q.add_argument("--config", required=True)
    q.add_argument("--gate")
    q.add_argument("--powers", required=True, help="MIN:MAX:N in mW")
    _add_common(q, shots_default=500)
    q.set_defaults(func=cmd_sweep_adiabatic)

    g = groups.add_parser("laser", help="laser-noise spectra")
    sub = g.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("fit", help="fit a self-heterodyne trace")
    q.add_argument("--trace", required=True, help="two-column text trace")
    q.add_argument("--initial", required=True, help="initial model JSON")
    _add_common(q)
    q.set_defaults(func=cmd_laser_fit)
    q = sub.add_parser("rabi-error", help="rotation error vs Rabi frequency")
    q.add_argument("--model", required=True, help="noise model JSON")
    q.add_argument("--omega-grid", required=True, help="MIN:MAX:N in MHz")
    q.add_argument("--n", type=int, default=2, help="half turns (N pi)")
    _add_common(q)
    q.set_defaults(func=cmd_laser_rabi_error)

    g = groups.add_parser("analyze", help="experimental data analysis")
    sub = g.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("rb", help="randomized-benchmarking CZ fidelity")
    q.add_argument("--retention", help="CSV depth,probability,shots")
    q.add_argument("--blowaway", help="CSV depth,probability,shots")
    q.add_argument("--p-ret", type=float, dest="p_ret")
    q.add_argument("--p-bb-given-ret", type=float, dest="p_bb_given_ret")
    q.add_argument("--p-leak", type=float, default=0.002, dest="p_leak")
    _add_common(q)
    q.set_defaults(func=cmd_analyze_rb)
    q = sub.add_parser("qnd", help="Dirichlet QND statistics")
    q.add_argument("--data", required=True, help="CSV state,correct,incorrect")
    _add_common(q)
    q.set_defaults(func=cmd_analyze_qnd)
    q = sub.add_parser("decay", help="T1 / T2* / Ramsey-Stark fits")
    q.add_argument("--data", required=True, help="CSV time,value")
    q.add_argument("--model", default="exponential",
                   choices=["exponential", "gaussian-envelope-sinusoid"])
    _add_common(q)
    q.set_defaults(func=cmd_analyze_decay)

    g = groups.add_parser("qnd", help="QND circuit simulation")
    sub = g.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("simulate", help="sample a noisy plaquette circuit (exit "
                       "4 first if its noiseless output is not deterministic)")
    q.add_argument("--circuit", required=True, help="circuit description file")
    q.add_argument("--sigma", type=float, default=0.0,
                   help="per-CZ depolarizing probability")
    q.add_argument("--leak", type=float, default=0.0)
    q.add_argument("--loss", type=float, default=0.0)
    q.add_argument("--spam", type=float, default=0.0)
    q.add_argument("--inputs", help="comma-separated basis labels")
    _add_common(q, shots_default=10000)
    q.set_defaults(func=cmd_qnd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
