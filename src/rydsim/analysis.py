"""Fidelity extraction from measured data.

Covers the randomized-benchmarking geometric decay fit P(n) = A P^n with the
asymptote fixed to zero, the retention/blowaway CZ fidelity formula, Bayesian
success probabilities from binned counts under a uniform prior, and generic
exponential / Gaussian-envelope-sinusoid fits for T1, T2*, and Ramsey-Stark
datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class FitFailure(RuntimeError):
    """Fit could not converge or the data cannot constrain the model."""


@dataclass
class RbFit:
    """Geometric decay fit: probability = amplitude * retention^depth."""

    amplitude: float          # probability at depth 0
    per_gate: float           # per-gate retention / bright probability
    covariance: np.ndarray

    @property
    def amplitude_err(self) -> float:
        return math.sqrt(max(self.covariance[0, 0], 0.0))

    @property
    def per_gate_err(self) -> float:
        return math.sqrt(max(self.covariance[1, 1], 0.0))


def fit_geometric_decay(depths, probs, weights=None) -> RbFit:
    """Weighted fit of P_measure = A * P^n (asymptote fixed at zero).

    ``weights`` multiply the residuals (e.g. 1/sigma per point); fitted
    parameters are invariant under a uniform scaling of the weights.
    """
    from scipy.optimize import curve_fit
    depths = np.asarray(depths, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if len(np.unique(depths)) < 3:
        raise FitFailure("need at least 3 distinct depths")
    if np.ptp(probs) == 0.0:
        raise FitFailure("degenerate data: constant probabilities")
    if weights is None:
        sigma = None
    else:
        weights = np.asarray(weights, dtype=float)
        if np.any(weights <= 0):
            raise FitFailure("weights must be positive")
        sigma = 1.0 / weights

    def model(n, a, p):
        return a * np.power(p, n)

    # moment-based starting point from the first/last depth ratio
    order = np.argsort(depths)
    d0, d1 = depths[order[0]], depths[order[-1]]
    p0v, p1v = max(probs[order[0]], 1e-9), max(probs[order[-1]], 1e-9)
    p_guess = float(np.clip((p1v / p0v) ** (1.0 / max(d1 - d0, 1.0)), 0.2, 1.0))
    a_guess = float(np.clip(p0v / p_guess ** d0, 1e-6, 1.0))
    try:
        popt, pcov = curve_fit(model, depths, probs, p0=(a_guess, p_guess),
                               sigma=sigma, absolute_sigma=False, maxfev=20000)
    except RuntimeError as exc:
        raise FitFailure(f"geometric decay fit did not converge: {exc}") from exc
    a, p = popt
    if not (0.0 <= a <= 1.0 + 1e-6) or not (0.0 < p <= 1.0 + 1e-6):
        raise FitFailure(f"fit outside physical range: A={a:.4f}, P={p:.4f}")
    return RbFit(amplitude=float(a), per_gate=float(min(p, 1.0)), covariance=pcov)


# rounding slack below sigma = 0 before the inputs count as inconsistent
_SIGMA_TOL = 1e-9


def cz_fidelity(p_ret: float, p_bb_given_ret: float,
                p_leak: float = 0.002) -> float:
    """CZ fidelity from retention and blowaway probabilities.

    The depolarizing-error probability is
    sigma = (1 - P_leak - P_bb|ret) / (1 - P_leak) and
    F = P_ret (1 - P_leak) (1 - 3 sigma / 4).
    """
    for name, v in (("p_ret", p_ret), ("p_bb_given_ret", p_bb_given_ret),
                    ("p_leak", p_leak)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if p_leak == 1.0:
        raise ValueError("p_leak must be below 1")
    sigma = (1.0 - p_leak - p_bb_given_ret) / (1.0 - p_leak)
    if sigma < -_SIGMA_TOL:
        raise ValueError(
            f"inconsistent inputs: P_bb|ret = {p_bb_given_ret} exceeds "
            f"1 - P_leak = {1.0 - p_leak}")
    sigma = max(sigma, 0.0)
    return p_ret * (1.0 - p_leak) * (1.0 - 0.75 * sigma)


def cz_fidelity_from_fits(ret_fit: RbFit, bb_fit: RbFit,
                          p_leak: float = 0.002) -> dict:
    """Combine the retention and bright-bright RB fits into the gate fidelity.

    P_bb|ret = P_bb / P_ret from the two per-gate probabilities.
    """
    p_ret = ret_fit.per_gate
    p_bb_given_ret = bb_fit.per_gate / p_ret
    fid = cz_fidelity(p_ret, min(p_bb_given_ret, 1.0), p_leak)
    return {
        "p_ret": p_ret,
        "p_bb": bb_fit.per_gate,
        "p_bb_given_ret": p_bb_given_ret,
        "p_leak": p_leak,
        "fidelity": fid,
    }


# ---------------------------------------------------------------------------
# Dirichlet / Beta success statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QndCounts:
    """Binned trials for one input state: correct vs incorrect outcomes."""

    state: str
    correct: int
    incorrect: int

    def __post_init__(self):
        if self.correct < 0 or self.incorrect < 0:
            raise ValueError("counts must be non-negative integers")

    @property
    def trials(self) -> int:
        return self.correct + self.incorrect


@dataclass
class DirichletResult:
    per_state: dict[str, tuple[float, float]]   # state -> (mean, std)
    aggregate_mean: float
    aggregate_std: float


def dirichlet_qnd(counts: list[QndCounts]) -> DirichletResult:
    """Posterior success probabilities from two-category counts, uniform prior.

    Each state's marginal posterior is Beta(k+1, n-k+1): mean (k+1)/(n+2),
    std sqrt(mean (1-mean) / (n+3)).  The aggregate is the unweighted mean of
    the per-state means; its uncertainty combines the per-state posterior
    variances as independent.
    """
    if not counts:
        raise ValueError("need at least one input state")
    if len({c.state for c in counts}) != len(counts):
        raise ValueError("each input state may appear only once")
    per_state = {}
    means, variances = [], []
    for c in counts:
        n, k = c.trials, c.correct
        mean = (k + 1.0) / (n + 2.0)
        var = mean * (1.0 - mean) / (n + 3.0)
        per_state[c.state] = (mean, math.sqrt(var))
        means.append(mean)
        variances.append(var)
    m = len(means)
    agg = float(np.mean(means))
    agg_std = math.sqrt(sum(variances)) / m
    return DirichletResult(per_state=per_state, aggregate_mean=agg,
                           aggregate_std=agg_std)


# ---------------------------------------------------------------------------
# decay / oscillation fits
# ---------------------------------------------------------------------------

def fit_decay_oscillation(times, values, model: str = "exponential") -> dict:
    """Least-squares fit of coherence datasets.

    ``model='exponential'``: y = A exp(-rate t); returns amplitude, rate, tau.
    ``model='gaussian-envelope-sinusoid'``:
    y = A exp(-(t/tau)^2) cos(2 pi f t + phase) + offset; returns amplitude,
    frequency, tau, phase, offset.
    """
    from scipy.optimize import curve_fit
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 5:
        raise FitFailure("need at least 5 points")
    if len(np.unique(times)) < 2:
        raise FitFailure("times need a spread: fewer than 2 distinct times")
    if not np.any(values):
        raise FitFailure("degenerate data: all values are zero")

    if model == "exponential":
        def f(t, a, rate):
            return a * np.exp(-rate * t)

        a0 = float(values[np.argmin(times)])
        span = float(np.ptp(times)) or 1.0
        rate0 = 1.0 / span
        if abs(a0) > 0 and values[np.argmax(times)] * a0 > 0:
            ratio = values[np.argmax(times)] / a0
            if 0 < ratio < 1:
                rate0 = -math.log(ratio) / span
        try:
            popt, pcov = curve_fit(f, times, values, p0=(a0 or 1.0, rate0),
                                   maxfev=20000)
        except RuntimeError as exc:
            raise FitFailure(f"exponential fit did not converge: {exc}") from exc
        a, rate = popt
        return {"amplitude": float(a), "rate": float(rate),
                "tau": float(np.inf if rate == 0 else 1.0 / rate),
                "covariance": pcov}

    if model == "gaussian-envelope-sinusoid":
        def f(t, a, freq, tau, phase, offset):
            return a * np.exp(-((t / tau) ** 2)) \
                * np.cos(2.0 * math.pi * freq * t + phase) + offset

        offset0 = float(np.mean(values))
        a0 = float(np.max(np.abs(values - offset0))) or 1.0
        # dominant frequency from the periodogram
        dt = float(np.median(np.diff(np.sort(times))))
        if not dt > 0:
            raise FitFailure("times need a spread: median spacing is 0")
        detrended = values - offset0
        spec = np.abs(np.fft.rfft(detrended))
        fgrid = np.fft.rfftfreq(len(times), dt)
        f0 = float(fgrid[np.argmax(spec[1:]) + 1]) if len(fgrid) > 1 else 1.0
        tau0 = float(np.ptp(times)) or 1.0
        try:
            popt, pcov = curve_fit(f, times, values,
                                   p0=(a0, f0, tau0, 0.0, offset0),
                                   maxfev=40000)
        except RuntimeError as exc:
            raise FitFailure(f"oscillation fit did not converge: {exc}") from exc
        a, freq, tau, phase, offset = popt
        return {"amplitude": float(a), "frequency": float(abs(freq)),
                "tau": float(abs(tau)), "phase": float(phase),
                "offset": float(offset), "covariance": pcov}

    raise ValueError(f"unknown model {model!r}")
