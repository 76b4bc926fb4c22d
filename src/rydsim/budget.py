"""Gate optimization, Monte Carlo infidelity, exclusion tables, and sweeps.

The noiseless optimization includes decay and finite blockade but no
shot-to-shot noise.  Monte Carlo runs draw one sample per shot, resolve it to
drive-level perturbations under the run's mechanism mask, and score the
Bell-test error; runs over several masks (the exclusion table, the adiabatic
trace) sample once and resolve the same draws under each mask.  Each
(sample, mask) is resolved once and scored by one call into the gate engine,
which plans the batch and steps it in blocks; the engine returns each shot
that fails to integrate as NaN, so the failing shots are counted as
integration failures and left out of the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .gate import (DriveBatch, GateParams, bell_error_from_pulse_state,
                   bell_errors_batch, optimal_virtual_rz, pulse_state_nominal)
from .noise import MechanismMask, resolve_drive_batch, resolve_drives, sample_shots
from .params import ConfigError, SystemParams

# dimensionless pulse seed (detuning/Omega, Omega*T, rate/Omega, depth): the
# perfect-blockade optimum.  One search from it finds the best known optimum
# on both presets, acceptance criterion 1's decay-off config and six variants
# with B/Omega from 3 to 43; other seeds land up to 3e-3 higher at B/Omega <=
# 10 (the scan is in CHANGES.md)
_PULSE_SEED = (-0.321582, 7.768888, 0.724820, 1.320176)

# evaluation limit of the simplex search
_MAXFEV = 3000

# a Monte Carlo run with a larger share of failed shots aborts
_MAX_FAILURE_FRACTION = 0.01


class OptimizationFailure(RuntimeError):
    """Optimizer could not reach the decay-floor-limited error target."""


class MonteCarloAbort(RuntimeError):
    """More than the tolerated fraction of shots failed to integrate."""


def _gate_from_x(x, omega: float) -> GateParams:
    d, omt, rate, depth = x
    duration = omt / omega
    return GateParams(
        detuning=d * omega, duration=duration, phase_mod_rate=rate * omega,
        phase_mod_depth=abs(depth), phase_mod_delay=0.5 * duration)


def decay_floor(params: SystemParams, gate: GateParams) -> float:
    """First-order decay-limited Bell error of the pulse.

    The slope at zero of the nominal pulse's norm loss L = 1 - |psi|^2 along
    its four decay rates, from one batch of three shots with the rates scaled
    by 0, eps and 2 eps: (4 L1 - L2 - 3 L0) / (2 eps), with an O(eps^2) error.
    """
    eps, nominal = 1e-2, resolve_drives(params, gate)
    ones, scale = np.ones(3), eps * np.arange(3.0)
    batch = DriveBatch(nominal.omega * ones, nominal.delta * ones,
                       nominal.gamma1 * scale, nominal.gammar * scale,
                       nominal.blockade * ones)
    loss = 1.0 - np.sum(np.abs(pulse_state_nominal(gate, batch)) ** 2, axis=1)
    return float((4.0 * loss[1] - loss[2] - 3.0 * loss[0]) / (2.0 * eps))


@dataclass
class OptimizationResult:
    gate: GateParams
    error: float
    decay_floor: float
    nfev: int
    converged: bool     # False when the search stopped at `_MAXFEV`


def _pulse_error(params: SystemParams, gate: GateParams):
    """Bell error of the nominal pulse after its best virtual Z phases, and
    those phases."""
    psi = pulse_state_nominal(gate, resolve_drives(params, gate))[0]
    rz = optimal_virtual_rz(psi)
    return float(bell_error_from_pulse_state(psi, rz)), rz


def _objective(params: SystemParams, omega: float):
    def f(x):
        try:
            gate = _gate_from_x(x, omega)
        except ValueError:
            return 1.0
        if not (3.0 <= x[1] <= 16.0):
            return 1.0
        return _pulse_error(params, gate)[0]
    return f


def optimize_gate(params: SystemParams) -> OptimizationResult:
    """Optimize four pulse parameters (plus phase corrections) noiselessly.

    Detuning, duration, phase-modulation rate and depth are searched with the
    modulation delay at T/2, the symmetric point of the sinusoidal phase.
    Decay and finite blockade are included; there is no shot-to-shot noise.
    One simplex search starts from the dimensionless seed and scores pulses
    at the engine's default stepping, so the reported error is the searched
    objective at the returned pulse.  There is no retry: an error at or
    above 10x the decay floor (or 1e-6 when decay is off) raises
    OptimizationFailure.  A search cut off at `_MAXFEV` evaluations below
    that threshold is returned with ``converged`` False.
    """
    from scipy.optimize import minimize
    omega = params.rabi_rad_s()
    res = minimize(_objective(params, omega), _PULSE_SEED,
                   method="Nelder-Mead",
                   options=dict(maxfev=_MAXFEV, xatol=1e-6, fatol=1e-9))
    gate = _gate_from_x(res.x, omega)
    error, rz = _pulse_error(params, gate)
    gate = replace(gate, virtual_rz=rz)
    floor = decay_floor(params, gate)
    threshold = max(10.0 * floor, 1e-6)
    if error >= threshold:
        raise OptimizationFailure(
            f"optimized error {error:.3e} at or above threshold "
            f"{threshold:.3e} (decay floor {floor:.3e})")
    return OptimizationResult(gate, max(error, 0.0), floor, res.nfev,
                              bool(res.success))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloReport:
    mean_error: float
    std_error: float
    shots: int
    seed: int
    mask: dict
    rejected_shots: int
    integration_failures: int
    errors: np.ndarray        # per shot; NaN where integration failed

    def as_dict(self) -> dict:
        """The report without its per-shot errors."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "errors"}


def monte_carlo_error(params: SystemParams, gate: GateParams,
                      mask: MechanismMask | None = None,
                      shots: int = 10_000, seed: int = 0) -> MonteCarloReport:
    """Mean Bell-test error over seeded shots.

    Deterministic in (params, gate, mask, shots, seed).  The shots are
    scored as one batch (`_score_shots`); more than 1 % failing ones abort.
    The draws do not depend on the mask, so ``rejected_shots`` counts the
    same separation-floor redraws under every mask.
    """
    _check_shots(shots)
    return _score_shots(params, gate, mask or MechanismMask(),
                        sample_shots(params, seed, shots), seed)


def _check_shots(shots: int) -> None:
    """Reject a shot count too small to score, before any are sampled."""
    if shots < 100:
        raise ValueError(f"shots must be >= 100, got {shots}")


def _score_shots(params: SystemParams, gate: GateParams,
                 mask: MechanismMask, samples: np.recarray,
                 seed: int) -> MonteCarloReport:
    """`monte_carlo_error` on draws already sampled for run ``seed``.

    The draws are resolved once and scored by one engine call, which
    returns each shot that fails to integrate as NaN; those shots are
    counted and left out, and the others' errors do not depend on them.
    """
    shots, rejected = len(samples), int(np.sum(samples.redraws))
    batch = resolve_drive_batch(params, samples, mask, gate)
    del samples     # the engine needs only the drives
    errors = bell_errors_batch(gate, batch)
    failures = int(np.count_nonzero(np.isnan(errors)))
    if failures > _MAX_FAILURE_FRACTION * shots:
        raise MonteCarloAbort(
            f"{failures}/{shots} shots failed to integrate")
    good = errors[~np.isnan(errors)]
    mean = float(np.mean(good))
    std_err = float(np.std(good, ddof=1) / math.sqrt(len(good))) if len(good) > 1 else 0.0
    return MonteCarloReport(
        mean_error=mean, std_error=std_err, shots=shots, seed=seed,
        mask=mask.as_dict(), rejected_shots=rejected,
        integration_failures=failures, errors=errors)


# ---------------------------------------------------------------------------
# exclusion table
# ---------------------------------------------------------------------------

# (mask flag, display name); order mirrors the infidelity-contribution table
EXCLUSION_MECHANISMS = (
    ("intermediate_state_decay", "intermediate state decay"),
    ("pulse_energy_blue", "pulse energy fluctuation (blue)"),
    ("rydberg_decay", "Rydberg state decay"),
    ("atom_velocity", "Doppler (atom velocity)"),
    ("blockade_fluctuation", "blockade fluctuation (localization)"),
    ("pulse_energy_red", "pulse energy fluctuation (red)"),
    ("magnetic_noise", "magnetic field noise"),
    ("electric_noise", "electric field noise"),
    ("finite_beam_blue", "finite beam size - blue (localization)"),
    ("finite_beam_red", "finite beam size - red (localization)"),
    ("rabi_mismatch", "Rydberg Rabi mismatch"),
    ("laser_frequency_noise", "laser frequency noise"),
    ("static_misalignment", "beam misalignment static"),
    ("pointing_fluctuation", "beam pointing fluctuation"),
)


@dataclass
class BudgetRow:
    mechanism: str
    contribution: float
    std_error: float


@dataclass
class ExclusionReport:
    rows: list[BudgetRow]
    total: float
    total_std_error: float
    linear_sum: float
    linear_sum_std_error: float
    quadrature_sum: float
    shots: int
    seed: int
    rejected_shots: int

    def sorted_rows(self) -> list[BudgetRow]:
        return sorted(self.rows, key=lambda r: r.contribution, reverse=True)


def exclusion_table(params: SystemParams, gate: GateParams,
                    shots: int = 10_000, seed: int = 0) -> ExclusionReport:
    """Per-mechanism contributions: baseline minus baseline-without-mechanism.

    The shots are sampled once and every mask resolves the same draws
    (common random numbers), so each row's uncertainty comes from the paired
    per-shot differences.
    """
    _check_shots(shots)
    samples = sample_shots(params, seed, shots)
    baseline = _score_shots(params, gate, MechanismMask(), samples, seed)
    rows = []
    for flag, name in EXCLUSION_MECHANISMS:
        excl = _score_shots(params, gate, MechanismMask().without(flag),
                            samples, seed)
        diff = baseline.errors - excl.errors
        diff = diff[~np.isnan(diff)]
        contribution = float(np.mean(diff))
        se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        rows.append(BudgetRow(name, contribution, se))

    linear = sum(r.contribution for r in rows)
    linear_se = math.sqrt(sum(r.std_error ** 2 for r in rows))
    quadrature = math.sqrt(sum(r.contribution ** 2 for r in rows))
    return ExclusionReport(
        rows=rows, total=baseline.mean_error,
        total_std_error=baseline.std_error, linear_sum=linear,
        linear_sum_std_error=linear_se, quadrature_sum=quadrature,
        shots=shots, seed=seed, rejected_shots=baseline.rejected_shots)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepGrid:
    temperatures_uk: np.ndarray
    powers_mw: np.ndarray
    errors: np.ndarray        # (n_T, n_P)
    std_errors: np.ndarray


def sweep_temperature_power(params: SystemParams, gate: GateParams,
                            temperatures_uk, powers_mw,
                            shots: int = 500, seed: int = 0,
                            mask: MechanismMask | None = None) -> SweepGrid:
    """CZ error over an (atom temperature, trap power) grid at fixed gate."""
    temperatures_uk = np.atleast_1d(np.asarray(temperatures_uk, dtype=float))
    powers_mw = np.atleast_1d(np.asarray(powers_mw, dtype=float))
    errs = np.zeros((len(temperatures_uk), len(powers_mw)))
    ses = np.zeros_like(errs)
    for i, t in enumerate(temperatures_uk):
        for j, p in enumerate(powers_mw):
            local = replace(params, atom_temperature_uk=float(t),
                            trap_power_mw=float(p))
            rep = monte_carlo_error(local, gate, mask, shots, seed)
            errs[i, j] = rep.mean_error
            ses[i, j] = rep.std_error
    return SweepGrid(temperatures_uk, powers_mw, errs, ses)


@dataclass
class AdiabaticTrace:
    powers_mw: np.ndarray
    temperatures_uk: np.ndarray
    error_full: np.ndarray
    error_velocity_frozen: np.ndarray
    error_position_frozen: np.ndarray
    std_full: np.ndarray
    std_velocity_frozen: np.ndarray
    std_position_frozen: np.ndarray


def adiabatic_trace(params: SystemParams, gate: GateParams, powers_mw,
                    shots: int = 500, seed: int = 0) -> AdiabaticTrace:
    """CZ error along the adiabatic cooling curve T ~ sqrt(P).

    The curve is anchored at the configured operating point (the config's
    atom temperature at its trap power).  Three variants are computed: the
    full error model, velocity frozen to zero, and atom position frozen to
    zero.
    """
    _check_shots(shots)
    powers_mw = np.atleast_1d(np.asarray(powers_mw, dtype=float))
    if not np.all(powers_mw > 0):
        raise ConfigError("trap_power_mw must be positive")
    t_anchor = params.atom_temperature_uk
    p_anchor = params.trap_power_mw
    temps = t_anchor * np.sqrt(powers_mw / p_anchor)
    masks = {
        "full": MechanismMask(),
        "vel": MechanismMask().without("atom_velocity"),
        "pos": MechanismMask().without("atom_localization"),
    }
    out = {k: (np.zeros(len(powers_mw)), np.zeros(len(powers_mw)))
           for k in masks}
    for i, (p, t) in enumerate(zip(powers_mw, temps)):
        local = replace(params, atom_temperature_uk=float(t),
                        trap_power_mw=float(p))
        samples = sample_shots(local, seed, shots)
        for key, mask in masks.items():
            rep = _score_shots(local, gate, mask, samples, seed)
            out[key][0][i] = rep.mean_error
            out[key][1][i] = rep.std_error
    return AdiabaticTrace(
        powers_mw=powers_mw, temperatures_uk=temps,
        error_full=out["full"][0], error_velocity_frozen=out["vel"][0],
        error_position_frozen=out["pos"][0],
        std_full=out["full"][1], std_velocity_frozen=out["vel"][1],
        std_position_frozen=out["pos"][1])
