"""Tweezer trap physics: adiabatic cooling, thermal localization, blockade.

All trap formulas work in the harmonic regime T << U.  The blockade uses a
calibrated point model C6/r^6 anchored at a measured reference; separations
below a hard floor are clamped to keep the r -> 0 divergence out of averages.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

SEPARATION_FLOOR_UM = 0.5
# Gauss-Hermite nodes per axis of the quadrature blockade average
_QUAD_ORDER = 48


@dataclass(frozen=True)
class TrapSpec:
    """One tweezer: waist, wavelength, depth, and atom temperature."""

    waist_um: float
    wavelength_nm: float
    depth_mk: float          # U / k_B in mK
    temperature_uk: float

    def __post_init__(self):
        for name in ("waist_um", "wavelength_nm", "depth_mk", "temperature_uk"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def adiabatic_temperature(t_initial_uk: float, depth_initial: float,
                          depth_final: float) -> float:
    """Final temperature after an adiabatic trap ramp: T_i sqrt(U_f/U_i).

    Depths may be in any common unit.
    """
    if depth_initial <= 0 or depth_final <= 0:
        raise ValueError("trap depths must be positive")
    return t_initial_uk * math.sqrt(depth_final / depth_initial)


def localization_sigmas(trap: TrapSpec) -> tuple[float, float]:
    """Thermal RMS position spreads (sigma_rho, sigma_z) in um.

    sigma_rho = (w/2) sqrt(kT/U),  sigma_z = (pi w^2 / sqrt(2) lambda) sqrt(kT/U).
    Warns when T >= U, outside the harmonic regime the formulas assume.
    """
    ratio = (trap.temperature_uk * 1e-6) / (trap.depth_mk * 1e-3)
    if ratio >= 1.0:
        warnings.warn(
            f"T = {trap.temperature_uk} uK >= U = {trap.depth_mk} mK: "
            "harmonic localization formulas are not valid here", stacklevel=2)
    root = math.sqrt(ratio)
    w = trap.waist_um
    lam_um = trap.wavelength_nm * 1e-3
    sigma_rho = 0.5 * w * root
    sigma_z = (math.pi * w * w / (math.sqrt(2.0) * lam_um)) * root
    return sigma_rho, sigma_z


@dataclass(frozen=True)
class BlockadeModel:
    """Point blockade B(r) = C6 / r^6 calibrated at a measured reference."""

    c6_mhz_um6: float
    reference_blockade_mhz: float
    reference_separation_um: float

    @classmethod
    def from_reference(cls, blockade_mhz: float,
                       separation_um: float) -> "BlockadeModel":
        if separation_um <= 0:
            raise ValueError("reference separation must be positive")
        return cls(blockade_mhz * separation_um ** 6, blockade_mhz, separation_um)


def blockade_point(model: BlockadeModel, r_um) -> float | np.ndarray:
    """Blockade strength in MHz at separation r (um); clamped at the floor."""
    r = np.maximum(np.asarray(r_um, dtype=float), SEPARATION_FLOOR_UM)
    out = model.c6_mhz_um6 / r ** 6
    return float(out) if np.isscalar(r_um) else out


@dataclass(frozen=True)
class GaussianCloud:
    """Anisotropic Gaussian position distribution of one trapped atom (um)."""

    center_um: tuple[float, float, float]
    sigma_um: tuple[float, float, float]

    def __post_init__(self):
        if any(s < 0 for s in self.sigma_um):
            raise ValueError("sigmas must be >= 0")


@dataclass(frozen=True)
class BlockadeEstimate:
    mean_mhz: float
    stderr_mhz: float
    method: str
    samples: int


class ConvergenceError(RuntimeError):
    """Monte Carlo standard error stayed above tolerance at max samples."""


def average_blockade(rho1: GaussianCloud, rho2: GaussianCloud,
                     model: BlockadeModel, method: str = "mc",
                     samples: int = 100_000, seed: int = 0,
                     rel_tol: float | None = None) -> BlockadeEstimate:
    """Tweezer-averaged blockade <B> = E[B(|r2 - r1|)] over both clouds.

    ``method='mc'`` draws positions and reports mean and standard error;
    ``method='quadrature'`` evaluates the equivalent 3-D Gaussian integral of
    the separation vector with tensor Gauss-Hermite nodes (deterministic).
    """
    c1 = np.asarray(rho1.center_um, dtype=float)
    c2 = np.asarray(rho2.center_um, dtype=float)
    mean_sep = c2 - c1
    var = np.asarray(rho1.sigma_um, dtype=float) ** 2 \
        + np.asarray(rho2.sigma_um, dtype=float) ** 2
    sig = np.sqrt(var)

    if method == "quadrature":
        nodes, weights = np.polynomial.hermite.hermgauss(_QUAD_ORDER)
        axes = [mean_sep[i] + math.sqrt(2.0) * sig[i] * nodes for i in range(3)]
        dx, dy, dz = np.meshgrid(*axes, indexing="ij", sparse=True)
        vals = blockade_point(model, np.sqrt(dx * dx + dy * dy + dz * dz))
        wx, wy, wz = np.meshgrid(weights, weights, weights,
                                 indexing="ij", sparse=True)
        mean = float(np.sum(vals * wx * wy * wz) / math.pi ** 1.5)
        return BlockadeEstimate(mean, 0.0, "quadrature", _QUAD_ORDER ** 3)

    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    sep = mean_sep[None, :] + rng.normal(size=(samples, 3)) * sig[None, :]
    vals = blockade_point(model, np.linalg.norm(sep, axis=1))
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    if rel_tol is not None and stderr > rel_tol * abs(mean):
        raise ConvergenceError(
            f"standard error {stderr:.3g} MHz above tolerance "
            f"{rel_tol * abs(mean):.3g} MHz at {samples} samples")
    return BlockadeEstimate(mean, stderr, "mc", samples)
