"""Laser frequency-noise spectra and Rabi-rotation error.

The frequency-noise PSD is a white floor plus servo bumps modeled as pairs of
symmetric Gaussian peaks.  A self-heterodyne measurement with delay t_d maps
this model onto analytic beat-note spectra (Lorentzian-like white part with a
coherent carrier, sin^2-windowed bumps), which measured traces are fit to.
The error of an N*pi Rabi rotation is an integral of the frequency PSD
against a rotation filter function.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .constants import C_LIGHT


@dataclass(frozen=True)
class ServoBump:
    """One servo bump: amplitude h (Hz^2/Hz), center f (Hz), width sigma (Hz)."""

    h: float
    f: float
    sigma: float

    def __post_init__(self):
        if not all(v > 0 and math.isfinite(v) and not isinstance(v, bool)
                   for v in (self.h, self.f, self.sigma)):
            raise ValueError("servo bump parameters must be positive finite "
                             "numbers")


@dataclass(frozen=True)
class LaserNoiseModel:
    """White noise level, servo bumps, fit-only dark floor, heterodyne delay."""

    h0: float                              # Hz^2/Hz
    bumps: tuple[ServoBump, ...] = ()
    s_dark: float = 0.0                    # 1/Hz, analyzer floor (fit-only)
    t_d: float = 48.9e-6                   # s, delay-line time

    def __post_init__(self):
        for name in ("h0", "s_dark", "t_d"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a boolean")
        if not (self.h0 >= 0 and math.isfinite(self.h0)):
            raise ValueError("h0 must be finite and >= 0")
        if not (self.s_dark >= 0 and math.isfinite(self.s_dark)):
            raise ValueError("s_dark must be finite and >= 0")
        if not (self.t_d > 0 and math.isfinite(self.t_d)):
            raise ValueError("t_d must be finite and positive")


def delay_time(fiber_length_m: float, group_index: float = 1.468) -> float:
    """Heterodyne delay of a fiber arm: L * n / c."""
    return fiber_length_m * group_index / C_LIGHT


def psd_frequency(model: LaserNoiseModel, f) -> np.ndarray | float:
    """One-sided frequency-noise PSD S_dnu(f) in Hz^2/Hz (white + bumps)."""
    f = np.asarray(f, dtype=float)
    out = np.full_like(f, model.h0)
    for b in model.bumps:
        out = out + b.h * (np.exp(-((f - b.f) ** 2) / (2.0 * b.sigma ** 2))
                           + np.exp(-((f + b.f) ** 2) / (2.0 * b.sigma ** 2)))
    return float(out) if out.ndim == 0 else out


def psd_phase(model: LaserNoiseModel, f) -> np.ndarray | float:
    """Phase-noise PSD S_phi(f) = S_dnu(f) / f^2 in rad^2/Hz (f > 0)."""
    f_arr = np.asarray(f, dtype=float)
    if np.any(f_arr <= 0):
        raise ValueError("phase PSD requires f > 0")
    out = psd_frequency(model, f_arr) / f_arr ** 2
    return float(out) if np.ndim(out) == 0 else out


def carrier_weight(model: LaserNoiseModel) -> float:
    """Coherent-carrier weight of the self-heterodyne spectrum, e^{-4 pi^2 h0 t_d}."""
    return math.exp(-4.0 * math.pi ** 2 * model.h0 * model.t_d)


def _het_white(h0: float, t_d: float, f: np.ndarray) -> np.ndarray:
    """Broadband part of the white-noise self-heterodyne PSD (delta excluded)."""
    if h0 == 0.0:
        return np.zeros_like(f)
    a = 2.0 * math.pi * h0
    lor = 2.0 * h0 / (f ** 2 + a ** 2)
    # (a/f) sin(2 pi f t_d) -> 2 pi a t_d sinc(2 f t_d), stable at f = 0
    osc = np.cos(2.0 * math.pi * f * t_d) \
        + a * 2.0 * math.pi * t_d * np.sinc(2.0 * f * t_d)
    return lor * (1.0 - math.exp(-2.0 * a * math.pi * t_d) * osc)


def _het_bump(b: ServoBump, t_d: float, f: np.ndarray) -> np.ndarray:
    win = 4.0 * b.h / b.f ** 2 * np.sin(math.pi * f * t_d) ** 2
    return win * (np.exp(-((f - b.f) ** 2) / (2.0 * b.sigma ** 2))
                  + np.exp(-((f + b.f) ** 2) / (2.0 * b.sigma ** 2)))


def heterodyne_spectrum(model: LaserNoiseModel, f) -> np.ndarray | float:
    """Normalized self-heterodyne PSD S_i(f), carrier delta excluded.

    The coherent carrier is represented separately by `carrier_weight`; the
    full normalization ∫S_i df + carrier = 1 holds to first order in the
    bump power when s_dark = 0.
    """
    f = np.asarray(f, dtype=float)
    out = _het_white(model.h0, model.t_d, f) + model.s_dark
    for b in model.bumps:
        out = out + _het_bump(b, model.t_d, f)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# spectrum fitting
# ---------------------------------------------------------------------------

@dataclass
class HeterodyneFit:
    model: LaserNoiseModel
    covariance: np.ndarray
    residual_rms: float
    white_only: bool          # white level below the dark floor everywhere
    n_points: int

    def as_dict(self) -> dict:
        return {
            **asdict(self.model),
            "residual_rms": self.residual_rms,
            "white_only_regime": self.white_only,
            "n_points": self.n_points,
            "covariance": [[float(v) for v in row]
                           for row in np.atleast_2d(self.covariance)],
        }


class FitError(RuntimeError):
    """Spectrum fit failed to converge or is under-determined."""


def _pack(model: LaserNoiseModel) -> np.ndarray:
    x = [model.h0, model.s_dark]
    for b in model.bumps:
        x.extend([b.h, b.f, b.sigma])
    return np.array(x, dtype=float)


def _unpack(x: np.ndarray, t_d: float) -> LaserNoiseModel:
    h0, s_dark = max(x[0], 0.0), max(x[1], 0.0)
    bumps = []
    for i in range(2, len(x), 3):
        h, f, sigma = x[i:i + 3]
        bumps.append(ServoBump(max(h, 1e-300), max(f, 1e-300),
                               max(sigma, 1e-300)))
    return LaserNoiseModel(h0=h0, bumps=tuple(bumps), s_dark=s_dark, t_d=t_d)


def fit_heterodyne(freqs, psd_samples,
                   initial: LaserNoiseModel) -> HeterodyneFit:
    """Least squares of (h0, bumps, s_dark) to a measured spectrum.

    The carrier bin (f = 0) is excluded.  Requires at least 10 samples per
    free parameter.  Returns estimates with covariance; flags the
    white-only regime when the fitted noise floor sits below the dark level
    across the whole band.
    """
    from scipy.optimize import least_squares
    freqs = np.asarray(freqs, dtype=float)
    psd_samples = np.asarray(psd_samples, dtype=float)
    keep = freqs != 0.0
    freqs, psd_samples = freqs[keep], psd_samples[keep]

    x0 = _pack(initial)
    n_free = len(x0)
    if len(freqs) < 10 * n_free:
        raise FitError(f"need >= {10 * n_free} samples for {n_free} parameters, "
                       f"got {len(freqs)}")

    def residual(x):
        m = _unpack(x, initial.t_d)
        return heterodyne_spectrum(m, freqs) - psd_samples

    res = least_squares(residual, x0, method="lm", max_nfev=20000)
    if not res.success:
        raise FitError(f"spectrum fit did not converge: {res.message}")
    model = _unpack(res.x, initial.t_d)

    # Gauss-Newton covariance estimate
    dof = max(len(freqs) - n_free, 1)
    chi2 = float(np.sum(res.fun ** 2))
    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj) * chi2 / dof
    except np.linalg.LinAlgError:
        cov = np.full((n_free, n_free), np.nan)

    white = _het_white(model.h0, model.t_d, freqs)
    white_only = bool(np.all(white < model.s_dark)) if model.s_dark > 0 else False
    rms = math.sqrt(chi2 / len(freqs))
    return HeterodyneFit(model=model, covariance=cov, residual_rms=rms,
                         white_only=white_only, n_points=len(freqs))


# ---------------------------------------------------------------------------
# Rabi rotation error
# ---------------------------------------------------------------------------

def _rabi_integrand(model: LaserNoiseModel, omega0: float, n_half: int):
    """The integrand of `rabi_error` at frequencies f (Hz), with the rotation
    filter in stable form: the apparent pole at 2 pi f = omega0 is removable
    for integer N,
    1 - cos(4 pi^2 N f / omega0) = 2 sin^2(pi N (omega0 - 2 pi f)/omega0 + N pi).
    """
    pref = 8.0 * math.pi ** 2 * omega0 ** 2 * (math.pi * n_half / omega0) ** 2
    def g(f):
        sinc = np.sinc(n_half * ((omega0 - 2.0 * math.pi * f) / omega0))
        return (pref * psd_frequency(model, f) * sinc ** 2
                / (omega0 + 2.0 * math.pi * f) ** 2)
    return g


_BUMP_GRID = np.arange(-10.0, 11.0)     # panel edges b.f + k sigma of a bump
_MAX_PANELS = 50_000


@functools.cache
def _gauss_legendre(n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], by Newton's method."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (p0 - x * p1) / (1.0 - x * x)          # P_n'(x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp ** 2)


def rabi_error(model: LaserNoiseModel, omega0: float, n_half: int = 2,
               f_max: float | None = None) -> float:
    """Error of an N*pi Rabi rotation at Rabi frequency omega0 (rad/s).

    Integrates the frequency-noise PSD against the rotation filter over
    [0, f_max] (default 100 f_res, f_res = omega0 / 2 pi) on 16-point
    Gauss-Legendre panels that end at 0, f_max, every filter zero
    f_res (1 + k/N) and each bump's b.f + k sigma, |k| <= 10, so the
    integrand is analytic on each.  It agrees with `scipy.integrate.quad` on
    the same panels at epsrel 1e-13 to 3e-15 relative.  Raises FitError
    above `_MAX_PANELS` panels (about 100 N) or when the arithmetic overflows.
    """
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    if n_half < 1 or int(n_half) != n_half:
        raise ValueError("N (half turns) must be a positive integer")
    f_res = omega0 / (2.0 * math.pi)
    f_max = 100.0 * f_res if f_max is None else f_max
    n_lobes = n_half * f_max / f_res
    if not n_lobes + len(_BUMP_GRID) * len(model.bumps) <= _MAX_PANELS:
        raise FitError(f"rabi error integral needs over {_MAX_PANELS} panels")
    zeros = f_res * (1.0 + np.arange(-n_half, n_lobes - n_half + 1) / n_half)
    edges = np.unique(np.clip(np.concatenate(
        [[0.0, f_max], zeros, *(b.f + _BUMP_GRID * b.sigma
                                for b in model.bumps)]), 0.0, f_max))
    half = 0.5 * np.diff(edges)
    x, w = _gauss_legendre()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            g = _rabi_integrand(model, omega0, n_half)
            total = g(edges[:-1, None] + half[:, None] * (1.0 + x)) @ w @ half
    except FloatingPointError as exc:
        raise FitError(f"rabi error integral: {exc}") from exc
    return max(float(total), 0.0)


def error_vs_rabi_curve(model: LaserNoiseModel, omegas, n_half: int = 2,
                        include_bumps: bool = True) -> np.ndarray:
    """Map `rabi_error` over a grid of Rabi frequencies (rad/s)."""
    base = model if include_bumps else replace(model, bumps=())
    return np.array([rabi_error(base, float(om), n_half) for om in omegas])


def two_photon_error(model_red: LaserNoiseModel, model_blue: LaserNoiseModel,
                     omega0: float, n_half: int = 2) -> float:
    """Two-photon rotation error: the two lasers' errors added linearly."""
    return (rabi_error(model_red, omega0, n_half)
            + rabi_error(model_blue, omega0, n_half))


# ---------------------------------------------------------------------------
# trace / model file IO
# ---------------------------------------------------------------------------

def read_trace(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column numeric text (frequency Hz, PSD); '#' comments allowed.
    Every value must be finite."""
    freqs, vals = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, "
                                 f"got {len(parts)}")
            try:
                freqs.append(float(parts[0]))
                vals.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from exc
            if not (math.isfinite(freqs[-1]) and math.isfinite(vals[-1])):
                raise ValueError(f"{path}:{lineno}: non-finite value")
    if not freqs:
        raise ValueError(f"{path}: no data rows")
    return np.array(freqs), np.array(vals)


def model_from_json(text: str) -> LaserNoiseModel:
    """A `LaserNoiseModel` from a JSON object over its fields; other keys
    (such as the fit statistics in a fit.json) are ignored."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("noise model must be a JSON object")
    kwargs = {f.name: doc[f.name] for f in fields(LaserNoiseModel)
              if f.name in doc}
    kwargs["bumps"] = tuple(ServoBump(h=b["h"], f=b["f"], sigma=b["sigma"])
                            for b in doc.get("bumps", []))
    return LaserNoiseModel(**kwargs)


def model_to_json(model: LaserNoiseModel) -> str:
    return json.dumps(asdict(model), indent=2, sort_keys=True)
