"""System parameter set, mirroring the Monte Carlo simulation parameter table.

Parameters live in an INI-style config with a [shared] section plus one
section per species ([rb], [cs]).  Two presets ship with the package:
``current`` (the as-built system) and ``projected`` (the upgraded system).
Files written by `save_params` round-trip bit-exactly through
`load_params`/`save_params`.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields
from importlib import resources

from .constants import (GHZ, HYPERFINE_CS_GHZ, HYPERFINE_RB_GHZ, KB,
                        MASS_CS133, MASS_RB87, MHZ, TWO_PI)
from .trap import TrapSpec, localization_sigmas


class ConfigError(ValueError):
    """Config file missing keys or failing validation; names the offender."""


@dataclass(frozen=True)
class SpeciesParams:
    """Per-species rows of the parameter table plus fixed atomic data."""

    rydberg_state: str
    trap_polarizability_au: float
    rydberg_lifetime_us: float
    intermediate_detuning_ghz: float
    blue_dls_mhz: float
    blue_rabi_mhz: float
    red_rabi_mhz: float
    red_blue_rabi_ratio: float
    blue_waist_um: float
    red_waist_um: float
    blue_wavelength_nm: float
    red_wavelength_nm: float
    intermediate_linewidth_mhz: float
    trap_depth_ref_mk: float
    trap_power_ref_mw: float
    trap_waist_ref_um: float
    qubit_hyperfine_ghz: float = 0.0
    # optional calibration overrides for the intensity-to-detuning
    # linearization; when unset the coefficients are derived from the
    # measured blue differential light shift
    stark_coeff_blue_mhz: float | None = None
    stark_coeff_red_mhz: float | None = None

    def __post_init__(self):
        for name in ("rydberg_lifetime_us", "blue_waist_um", "red_waist_um",
                     "blue_wavelength_nm", "red_wavelength_nm",
                     "intermediate_linewidth_mhz", "trap_depth_ref_mk",
                     "trap_power_ref_mw", "trap_waist_ref_um"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.intermediate_detuning_ghz == 0:
            raise ConfigError("intermediate_detuning_ghz must be nonzero")

    # -- derived quantities (SI / angular units) --

    @property
    def rydberg_decay_rate(self) -> float:
        """1/tau_r in 1/s."""
        return 1.0 / (self.rydberg_lifetime_us * 1e-6)

    @property
    def _gamma_e(self) -> float:
        """Intermediate-state decay rate in 1/s."""
        return TWO_PI * self.intermediate_linewidth_mhz * 1e6

    def scattering_rate_1(self) -> float:
        """Off-resonant scattering out of |1> from the blue beam, 1/s."""
        ratio = (0.5 * self.blue_rabi_mhz * MHZ) / (self.intermediate_detuning_ghz * GHZ)
        return ratio ** 2 * self._gamma_e

    def scattering_rate_r(self) -> float:
        """Off-resonant scattering out of |r> from the red beam, 1/s."""
        ratio = (0.5 * self.red_rabi_mhz * MHZ) / (self.intermediate_detuning_ghz * GHZ)
        return ratio ** 2 * self._gamma_e

    def stark_coeff_blue(self) -> float:
        """d(two-photon detuning)/d(fractional blue intensity), rad/s.

        Default: the |1> light shift inferred from the measured blue
        differential light shift by inverting the two-level ladder model with
        the qubit hyperfine splitting,
        shift_1 = DLS * (1/D) / (1/D - 1/(D - w_hf)).
        A configured ``stark_coeff_blue_mhz`` overrides the derivation.
        """
        if self.stark_coeff_blue_mhz is not None:
            return self.stark_coeff_blue_mhz * MHZ
        d = self.intermediate_detuning_ghz
        denom = 1.0 / d - 1.0 / (d - self.qubit_hyperfine_ghz)
        return self.blue_dls_mhz * MHZ * (1.0 / d) / denom

    def stark_coeff_red(self) -> float:
        """Red-beam coefficient; default scales the blue one by (Omega_r/Omega_b)^2."""
        if self.stark_coeff_red_mhz is not None:
            return self.stark_coeff_red_mhz * MHZ
        return self.stark_coeff_blue() * (self.red_rabi_mhz / self.blue_rabi_mhz) ** 2

    def doppler_k_eff(self) -> float:
        """|k_blue - k_red| for counter-propagating beams, rad/m."""
        return TWO_PI * abs(1.0 / (self.blue_wavelength_nm * 1e-9)
                            - 1.0 / (self.red_wavelength_nm * 1e-9))


_SPECIES_MASS = {"rb": MASS_RB87, "cs": MASS_CS133}


@dataclass(frozen=True)
class SystemParams:
    """Full simulation parameter set: shared rows plus both species."""

    trap_waist_um: float
    atom_temperature_uk: float
    trap_power_mw: float
    atom_separation_um: float
    blockade_mhz: float
    rabi_mhz: float
    red_pulse_energy_std: float
    blue_pulse_energy_std: float
    detuning_magnetic_khz: float
    detuning_electric_khz: float
    detuning_laser_khz: float
    pointing_dynamic_nm: float
    pointing_static_nm: float
    rabi_mismatch_halfwidth: float
    trap_wavelength_nm: float
    doppler_axis: str
    rb: SpeciesParams
    cs: SpeciesParams

    def __post_init__(self):
        for name in ("red_pulse_energy_std", "blue_pulse_energy_std",
                     "detuning_magnetic_khz", "detuning_electric_khz",
                     "detuning_laser_khz", "pointing_dynamic_nm",
                     "pointing_static_nm", "rabi_mismatch_halfwidth"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("trap_waist_um", "atom_separation_um", "trap_power_mw",
                     "trap_wavelength_nm", "rabi_mhz"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.doppler_axis not in ("x", "y", "z"):
            raise ConfigError("doppler_axis must be one of x, y, z")

    def species(self, name: str) -> SpeciesParams:
        if name not in ("rb", "cs"):
            raise KeyError(name)
        return getattr(self, name)

    def mass_kg(self, name: str) -> float:
        return _SPECIES_MASS[name]

    def trap_depth_mk(self, name: str) -> float:
        """Trap depth at the configured power and waist, scaled from the
        per-species reference depth as U ~ P / w^2."""
        sp = self.species(name)
        return (sp.trap_depth_ref_mk
                * (self.trap_power_mw / sp.trap_power_ref_mw)
                * (sp.trap_waist_ref_um / self.trap_waist_um) ** 2)

    def trap_spec(self, name: str) -> TrapSpec:
        return TrapSpec(
            waist_um=self.trap_waist_um,
            wavelength_nm=self.trap_wavelength_nm,
            depth_mk=self.trap_depth_mk(name),
            temperature_uk=self.atom_temperature_uk,
            power_mw=self.trap_power_mw,
        )

    def localization_um(self, name: str) -> tuple[float, float]:
        return localization_sigmas(self.trap_spec(name))

    def velocity_sigma_ms(self, name: str) -> float:
        """Per-axis Maxwell-Boltzmann velocity std dev, m/s."""
        return math.sqrt(KB * self.atom_temperature_uk * 1e-6 / self.mass_kg(name))

    def rabi_rad_s(self) -> float:
        return self.rabi_mhz * MHZ

    def blockade_rad_s(self) -> float:
        return self.blockade_mhz * MHZ


# ---------------------------------------------------------------------------
# config file IO
# ---------------------------------------------------------------------------

# Config keys are the dataclass fields, in field order: a ``str`` field is
# text, a field defaulting to None is optional.  The species sections and the
# hyperfine splitting (fixed atomic data) are not keys.
_NOT_KEYS = ("rb", "cs", "qubit_hyperfine_ghz")


def _keys(record_or_cls):
    return [f for f in fields(record_or_cls) if f.name not in _NOT_KEYS]


def _get(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing key '{key}' in section [{section}]")
    return cp.get(section, key)


def _get_float(cp, section, key) -> float:
    raw = _get(cp, section, key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in [{section}] is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' in [{section}] is not finite: {raw!r}")
    return value


_HYPERFINE_GHZ = {"rb": HYPERFINE_RB_GHZ, "cs": HYPERFINE_CS_GHZ}


def loads_params(text: str) -> SystemParams:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    def read(cls, name: str) -> dict:
        kwargs = {}
        for f in _keys(cls):
            if f.default is None and not cp.has_option(name, f.name):
                continue
            get = _get if f.type == "str" else _get_float
            kwargs[f.name] = get(cp, name, f.name)
        return kwargs

    shared = read(SystemParams, "shared")
    rb, cs = (SpeciesParams(**read(SpeciesParams, sp),
                            qubit_hyperfine_ghz=_HYPERFINE_GHZ[sp])
              for sp in ("rb", "cs"))
    return SystemParams(rb=rb, cs=cs, **shared)


def load_params(path) -> SystemParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_params(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def dumps_params(params: SystemParams) -> str:
    # str(float) is its shortest round-tripping repr
    sections = []
    for name, record in (("shared", params), ("rb", params.rb),
                         ("cs", params.cs)):
        values = {f.name: getattr(record, f.name) for f in _keys(record)}
        sections.append(f"[{name}]\n" + "".join(
            f"{k} = {v}\n" for k, v in values.items() if v is not None))
    return "\n".join(sections)


def save_params(params: SystemParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_params(params))


def params_digest(params: SystemParams) -> str:
    """Stable hash of a parameter set, for run manifests."""
    return hashlib.sha256(dumps_params(params).encode()).hexdigest()[:16]


def preset_text(name: str) -> str:
    """Text of a shipped preset config ('current' or 'projected')."""
    ref = resources.files("rydsim").joinpath(f"configs/{name}.cfg")
    if not ref.is_file():
        raise ConfigError(f"unknown preset config {name!r}")
    return ref.read_text(encoding="utf-8")


def load_preset(name: str) -> SystemParams:
    return loads_params(preset_text(name))


def resolve_config(arg: str) -> SystemParams:
    """Load a config from a path, or from a preset name like 'current'."""
    import os
    if os.path.exists(arg):
        return load_params(arg)
    base = os.path.basename(arg)
    stem = base[:-4] if base.endswith(".cfg") else base
    try:
        return load_preset(stem)
    except ConfigError:
        raise ConfigError(f"config file not found: {arg}")
