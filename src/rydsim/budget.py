"""Gate optimization, Monte Carlo infidelity, exclusion tables, and sweeps.

The noiseless optimization includes decay and finite blockade but no
shot-to-shot noise.  Monte Carlo runs draw one sample per shot, resolve it to
drive-level perturbations under the run's mechanism mask, and score the
Bell-test error; runs over several masks (the exclusion table, the adiabatic
trace) sample once and resolve the same draws under each mask.  Shots are
scored in blocks of `_BLOCK_SHOTS`, one after another, through the batched
gate propagator; a block whose propagation fails is bisected down to
single shots, so the failing shots are counted as integration failures and
left out of the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .gate import (GateParams, IntegrationError, bell_error_from_pulse_state,
                   bell_errors_batch, optimal_virtual_rz, pulse_state_nominal)
from .noise import MechanismMask, resolve_drive_batch, resolve_drives, sample_shots
from .params import SystemParams

# dimensionless pulse seeds (detuning/Omega, Omega*T, rate/Omega, depth, delay/T)
# found by random search plus simplex polish; first entry is the finite
# blockade optimum at B/Omega ~ 10, second the perfect-blockade optimum
_PULSE_SEEDS = (
    (-0.508740, 7.857171, 0.626285, 1.889747, 0.5),
    (-0.321582, 7.768888, 0.724820, 1.320176, 0.5),
    (0.033823, 9.324450, 1.345996, 0.935179, 0.5),
)

# coarse stepping (points per period) used only inside optimizer iterations;
# stable for the blockade sector (B*dt ~ 0.5) and agrees with the contractual
# stepping on the optimum to well below the acceptance tolerances
_COARSE_STEPS_PER_PERIOD = 12

# optimizer restarts from perturbed seeds, and the evaluation limit of each
# coarse simplex search
_MAX_RESTARTS = 4
_COARSE_MAXFEV = 800

# a Monte Carlo run with a larger share of failed shots aborts
_MAX_FAILURE_FRACTION = 0.01

# shots per `evolve_batch` call: a driven-sector block keeps about six
# (2, 2, 4096) complex arrays (about 1.5 MB) alive, which fits a 2 MB L2
# cache; it beat 1024 and one block per run at 40k shots
_BLOCK_SHOTS = 4096


class OptimizationFailure(RuntimeError):
    """Optimizer could not reach the decay-floor-limited error target."""


class MonteCarloAbort(RuntimeError):
    """More than the tolerated fraction of shots failed to integrate."""


def _gate_from_x(x, omega: float) -> GateParams:
    d, omt, rate, depth, frac = x
    duration = omt / omega
    return GateParams(
        detuning=d * omega, duration=duration, phase_mod_rate=rate * omega,
        phase_mod_depth=abs(depth), phase_mod_delay=frac * duration)


def decay_floor(params: SystemParams, gate: GateParams) -> float:
    """First-order decay-limited Bell error of the pulse.

    Evolves the nominal pulse with all decay rates zeroed while accumulating
    per-state population-time integrals, then weights them with the nominal
    scattering and Rydberg decay rates.
    """
    batch = resolve_drives(params, gate)
    zero = np.zeros(1)
    stripped = replace(batch, gamma1_a=zero, gammar_a=zero,
                       gamma1_b=zero, gammar_b=zero)
    _, acc = pulse_state_nominal(gate, stripped, accumulate=True)
    rate_a = np.array([0.0, batch.gamma1_a[0], batch.gammar_a[0]])
    rate_b = np.array([0.0, batch.gamma1_b[0], batch.gammar_b[0]])
    rates = np.add.outer(rate_a, rate_b).reshape(9)
    return float(np.sum(acc[0] * rates))


@dataclass
class OptimizationResult:
    gate: GateParams
    error: float
    decay_floor: float
    nfev: int
    restarts: int


def _objective(params: SystemParams, omega: float):
    def f(x):
        try:
            gate = _gate_from_x(x, omega)
        except ValueError:
            return 1.0
        if not (3.0 <= x[1] <= 16.0):
            return 1.0
        batch = resolve_drives(params, gate)
        psi = pulse_state_nominal(gate, batch, _COARSE_STEPS_PER_PERIOD)[0]
        rz = optimal_virtual_rz(psi)
        return float(bell_error_from_pulse_state(psi, rz))
    return f


def _tight_simplex(x0, scale):
    sim = [np.asarray(x0, dtype=float)]
    for i in range(len(x0)):
        p = sim[0].copy()
        p[i] += scale[i]
        sim.append(p)
    return np.array(sim)


def optimize_gate(params: SystemParams, seed: int = 0) -> OptimizationResult:
    """Optimize the five pulse parameters (plus phase corrections) noiselessly.

    Decay and finite blockade are included; there is no shot-to-shot noise.
    Search runs on coarse stepping from baked-in dimensionless seeds with
    simplex restarts; the returned error and phase corrections are evaluated
    at the contractual stepping.  Raises OptimizationFailure if the error
    stays above 10x the decay floor (or 1e-6 when decay is off).
    """
    from scipy.optimize import minimize
    omega = params.rabi_rad_s()
    fun = _objective(params, omega)

    rng = np.random.default_rng(seed)
    nfev = 0
    best_x, best_val = None, np.inf
    starts = [np.array(s) for s in _PULSE_SEEDS]
    restarts_used = 0
    for attempt in range(_MAX_RESTARTS + 1):
        for x0 in starts:
            res = minimize(fun, x0, method="Nelder-Mead",
                           options=dict(maxfev=_COARSE_MAXFEV, xatol=1e-10,
                                        fatol=1e-14))
            nfev += res.nfev
            if res.fun < best_val:
                best_val, best_x = res.fun, res.x
        # tight polish around the incumbent
        res = minimize(fun, best_x, method="Nelder-Mead",
                       options=dict(initial_simplex=_tight_simplex(
                           best_x, [2e-3, 2e-3, 2e-3, 2e-3, 2e-4]),
                           maxfev=max(250, _COARSE_MAXFEV // 2),
                           xatol=1e-12, fatol=1e-16))
        nfev += res.nfev
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x

        gate = _gate_from_x(best_x, omega)
        batch = resolve_drives(params, gate)
        psi = pulse_state_nominal(gate, batch)[0]
        rz = optimal_virtual_rz(psi)
        error = max(float(bell_error_from_pulse_state(psi, rz)), 0.0)
        gate = replace(gate, virtual_rz=rz)
        floor = decay_floor(params, gate)
        threshold = max(10.0 * floor, 1e-6)
        if error < threshold:
            return OptimizationResult(gate, error, floor, nfev, restarts_used)
        # restart from perturbed seeds
        restarts_used += 1
        starts = [np.array(s) * (1.0 + 0.05 * rng.normal(size=5))
                  for s in _PULSE_SEEDS]
    raise OptimizationFailure(
        f"optimized error {error:.3e} above threshold {threshold:.3e} "
        f"(decay floor {floor:.3e}) after {restarts_used} restarts")


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

    Deterministic in (params, gate, mask, shots, seed).  Shots are evolved in
    blocks (see `_score_shots`); more than 1 % failing shots aborts the run.
    The draws do not depend on the mask, so ``rejected_shots`` counts the
    same separation-floor redraws under every mask.
    """
    return _score_shots(params, gate, mask or MechanismMask(),
                        sample_shots(params, seed, shots), seed)


def _score_shots(params: SystemParams, gate: GateParams,
                 mask: MechanismMask, samples: np.recarray,
                 seed: int) -> MonteCarloReport:
    """`monte_carlo_error` on draws already sampled for run ``seed``.

    Shots are evolved `_BLOCK_SHOTS` per call, and each block takes its step
    count from its fastest shot.  A failing block is bisected down to single
    shots, so one bad shot of n costs at most 2 ceil(log2 n) + 1 calls and
    is left out as NaN.
    """
    shots = len(samples)
    if shots < 100:
        raise ValueError("shots must be >= 100")
    rejected = int(np.sum(samples.redraws))

    errors = np.full(shots, np.nan)

    def score(lo, hi):
        try:
            errors[lo:hi] = bell_errors_batch(gate, resolve_drive_batch(
                params, samples[lo:hi], mask, gate))
        except IntegrationError:
            if hi - lo > 1:
                score(lo, (lo + hi) // 2)
                score((lo + hi) // 2, hi)

    for start in range(0, shots, _BLOCK_SHOTS):
        score(start, min(start + _BLOCK_SHOTS, shots))

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
    powers_mw = np.atleast_1d(np.asarray(powers_mw, dtype=float))
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
