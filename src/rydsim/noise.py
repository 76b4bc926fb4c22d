"""Shot-to-shot noise: mechanism masks, shot sampling, drive resolution.

Every mechanism in the error model can be switched off individually.  A shot
is addressed by (seed, index): the same pair always yields the identical
draws.  Shot i of run ``seed`` draws from numpy's PCG64 seeded by
``SeedSequence(seed, spawn_key=(0, i))``: 20 standard normals (positions,
velocities, pulse energies, pointing), 2 uniforms on +-rabi_mismatch_halfwidth,
4 normals (magnetic, electric and the two laser detunings), then its
separation-floor redraws, 3 + 3 normals each.  `sample_shots` seeds a whole
block with one vectorized run of numpy's seed hash and resets one generator
to each shot's state, which reproduces that stream bit for bit.  A shot is
one `SHOT_DTYPE` record whose per-atom fields have the atom on their first
axis, row 0 Rb (atom A) and row 1 Cs (atom B) as in `DriveBatch`: (2, 3)
positions and velocities, (2, 2) ``energy`` over [atom, (red, blue)], (2, 2)
pointing and static offsets over [atom, (x, y)].  Flattened in field order,
a record without ``static_nm`` and ``redraws`` is its shot's fixed block in
stream order.  Sampling takes no mask: `sample_shots` returns the unmasked
draws as one record array, and `resolve_drive_batch` applies the mask, with
no copy of the record, when it turns them into drives.  Runs with different
masks therefore share their draws by construction (common random numbers,
which tighten exclusion-table differences); one sample, resolved once per
mask, serves every mask.  Static beam misalignment is
drawn once per run (per seed), not per shot.  A resolved `DriveBatch` is plain
per-shot data; the pulse itself is described by `GateParams` alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .constants import KHZ
from .gate import DriveBatch, GateParams
from .params import ConfigError, SystemParams
from .trap import SEPARATION_FLOOR_UM

MAX_REDRAWS = 100


@dataclass(frozen=True)
class MechanismMask:
    intermediate_state_decay: bool = True
    rydberg_decay: bool = True
    atom_velocity: bool = True
    atom_localization: bool = True
    blockade_fluctuation: bool = True
    finite_beam_blue: bool = True
    finite_beam_red: bool = True
    pulse_energy_blue: bool = True
    pulse_energy_red: bool = True
    magnetic_noise: bool = True
    electric_noise: bool = True
    laser_frequency_noise: bool = True
    pointing_fluctuation: bool = True
    static_misalignment: bool = True
    rabi_mismatch: bool = True

    @classmethod
    def all_off(cls) -> "MechanismMask":
        return cls(**{f: False for f in MECHANISM_FLAGS})

    @classmethod
    def only(cls, *names: str) -> "MechanismMask":
        cls._check(names)
        return cls(**{f: (f in names) for f in MECHANISM_FLAGS})

    def without(self, *names: str) -> "MechanismMask":
        self._check(names)
        return replace(self, **{n: False for n in names})

    @staticmethod
    def _check(names):
        for n in names:
            if n not in MECHANISM_FLAGS:
                raise KeyError(f"unknown mechanism {n!r}")

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


# one flag per switchable mechanism; the exclusion table iterates over all of
# these except atom_localization, which the adiabatic sweep switches (it
# subsumes blockade fluctuation and beam-profile position effects).
MECHANISM_FLAGS = tuple(f.name for f in fields(MechanismMask))


# One record per shot, atom first in each per-atom field (0 = Rb, 1 = Cs);
# ``energy`` is [atom, (red, blue)] and ``static_nm`` the per-run draw.  In
# field order, the fields but ``static_nm`` and ``redraws`` flatten to the
# stream's fixed block.  Every field holds the unmasked draw; the masks act
# only in `resolve_drive_batch`.
SHOT_DTYPE = np.dtype([
    ("position_um", float, (2, 3)),
    ("velocity_ms", float, (2, 3)),
    ("energy", float, (2, 2)),
    ("pointing_nm", float, (2, 2)),
    ("static_nm", float, (2, 2)),
    ("rabi_mismatch", float, 2),
    ("detuning_magnetic_khz", float),     # correlated between atoms
    ("detuning_electric_khz", float),     # correlated between atoms
    ("detuning_laser_khz", float, 2),     # uncorrelated per atom
    # a Python int, so per-record counts sum to a plain (JSON-ready) int
    ("redraws", object),
])

def nominal_shot() -> np.recarray:
    """One record with every draw at its nominal value."""
    shot = np.zeros(1, dtype=SHOT_DTYPE).view(np.recarray)
    shot.energy = shot.rabi_mismatch = 1.0
    return shot


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier, for seeding a block of shots at once
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0``; ``[0]`` for zero."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


# The hash runs on Python ints and on uint64 arrays of 32-bit values alike:
# every product of two words fits in 64 bits and is masked back to 32.
def _hashmix(value, const, mult=_MULT_A):
    """numpy's `hashmix` (with ``mult`` _MULT_B, one `generate_state` word):
    the hashed value and the next hash constant."""
    nxt = (const * mult) & _M32
    value = ((value ^ const) * nxt) & _M32
    return value ^ (value >> 16), nxt


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _spawn_pool(entropy: list) -> list:
    """numpy's `mix_entropy` into a 4-word pool.  The first four words are
    ints; later ones may be arrays, which the pool then broadcasts over."""
    const, pool = _INIT_A, []
    for word in entropy[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool


def _pcg64_states(seed: int, start: int, n: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence(seed, spawn_key=(0, i))``
    for i = start .. start + n - 1, with numpy's hash run over the block.

    The entropy is the seed's words zero-padded to the 4-word pool, then the
    spawn key's: 0 and i's words.  Indices are split at multiples of 2^32, so
    within a part only i's low word varies.
    """
    run = _words(seed)
    run += [0] * (4 - len(run))
    out, lo, end = [], start, start + n
    while lo < end:
        hi = min(end, ((lo >> 32) + 1) << 32)
        low = np.arange(lo & _M32, (lo & _M32) + hi - lo, dtype=np.uint64)
        pool = _spawn_pool(run + [0, low] + _words(lo)[1:])
        # generate_state(4, np.uint64): eight hashed words cycling the pool,
        # paired little-endian into 64-bit words
        const, w = _INIT_B, []
        for k in range(8):
            value, const = _hashmix(pool[k % 4], const, _MULT_B)
            w.append(value)
        w = [(w[2 * j] | (w[2 * j + 1] << 32)).tolist() for j in range(4)]
        # pcg64_set_seed: inc = (initseq << 1) | 1, two LCG steps from 0
        for s_hi, s_lo, q_hi, q_lo in zip(*w):
            inc = (((q_hi << 64 | q_lo) << 1) | 1) & _M128
            out.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc)
                        & _M128, inc))
        lo = hi
    return out


def static_offsets_nm(params: SystemParams, seed: int) -> np.ndarray:
    """Per-run static misalignment, (2, 2) over [atom, (x, y)]: fixed
    radius, uniform random direction per atom."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return params.pointing_static_nm * np.array(
        [[math.cos(a), math.sin(a)] for a in angles])


def _separation_um(params: SystemParams, position_um):
    """B minus A of (..., 2, 3) positions, plus the nominal separation."""
    return (np.array([params.atom_separation_um, 0.0, 0.0])
            + position_um[..., 1, :] - position_um[..., 0, :])


def _pcg64_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def sample_shots(params: SystemParams, seed: int, shots: int,
                 start_index: int = 0) -> np.recarray:
    """Draw shots ``start_index ..`` of run ``seed``, unmasked.

    Shot i depends only on (params, seed, i).  Positions that land below the
    separation floor are redrawn from the shot's own stream; the count is in
    ``redraws``.  Since sampling ignores the mask, a geometry whose draws
    cannot clear the floor raises ConfigError even for a run that switches
    atom_localization off.
    """
    checked = {"seed": seed, "shots": shots, "start_index": start_index}
    for name, value in checked.items():
        try:
            checked[name] = operator.index(value)
        except TypeError:
            checked[name] = -1
        if checked[name] < 0:
            raise ValueError(f"{name} must be a non-negative integer, got "
                             f"{name} {value!r}")
    seed, shots, start_index = checked.values()
    sig = np.array([[rho, rho, z] for rho, z in (
        params.localization_um(sp) for sp in ("rb", "cs"))])
    hw = params.rabi_mismatch_halfwidth

    # one generator, reset to each shot's seeded state in turn
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)

    def fixed_block(state_inc, row):
        """Seed the generator for one shot and draw its fixed block."""
        bitgen.state = _pcg64_state(*state_inc)
        rng.standard_normal(out=row[:20])
        rng.random(out=row[20:22])
        rng.standard_normal(out=row[22:])

    # sized first, so that a count numpy cannot allocate fails before hashing
    try:
        draws = np.empty((shots, 26))
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot allocate {shots} shots: {exc}") from exc
    seeded = _pcg64_states(seed, start_index, shots)
    for state_inc, row in zip(seeded, draws):
        fixed_block(state_inc, row)
    # Generator.normal and .uniform, as the stream is defined, return
    # 0.0 + x (which turns a -0.0 draw into 0.0) and low + (high - low) * u
    z, d = draws[:, :20] + 0.0, draws[:, 22:] + 0.0
    u = -hw + (hw - -hw) * draws[:, 20:22]

    out = np.zeros(shots, dtype=SHOT_DTYPE).view(np.recarray)
    out.position_um = z[:, 0:6].reshape(shots, 2, 3) * sig
    out.velocity_ms = z[:, 6:12].reshape(shots, 2, 3) * np.array(
        [[params.velocity_sigma_ms(sp)] for sp in ("rb", "cs")])
    out.energy = 1.0 + z[:, 12:16].reshape(shots, 2, 2) * np.array(
        [params.red_pulse_energy_std, params.blue_pulse_energy_std])
    out.pointing_nm = (z[:, 16:20].reshape(shots, 2, 2)
                       * params.pointing_dynamic_nm)
    out.static_nm = static_offsets_nm(params, seed)
    out.rabi_mismatch = 1.0 + u
    out.detuning_magnetic_khz = d[:, 0] * params.detuning_magnetic_khz
    out.detuning_electric_khz = d[:, 1] * params.detuning_electric_khz
    out.detuning_laser_khz = d[:, 2:] * params.detuning_laser_khz

    # screen with a margin of a few ulp, then decide on the exact per-shot
    # norm; redraws continue the shot's stream after its fixed block, which
    # is drawn again to get there
    pos = out.position_um
    sep = _separation_um(params, pos)
    floor2 = (1 + 1e-9) * SEPARATION_FLOOR_UM ** 2
    near = np.einsum("ij,ij->i", sep, sep) < floor2
    for i in np.flatnonzero(near):
        fixed_block(seeded[i], np.empty(26))
        while np.linalg.norm(_separation_um(params, pos[i])) \
                < SEPARATION_FLOOR_UM:
            out.redraws[i] += 1
            if out.redraws[i] > MAX_REDRAWS:
                raise ConfigError(
                    f"atom_separation_um = {params.atom_separation_um}: "
                    f"{MAX_REDRAWS} position redraws did not clear the "
                    f"{SEPARATION_FLOOR_UM} um separation floor")
            pos[i] = rng.normal(size=(2, 3)) * sig
    return out


# ---------------------------------------------------------------------------
# drive resolution
# ---------------------------------------------------------------------------

def resolve_drive_batch(params: SystemParams, shots: np.recarray,
                        mask: MechanismMask, gate: GateParams) -> DriveBatch:
    """Per-shot drives and blockades of ``shots`` with ``mask`` applied.

    Only the nominal two-photon detuning is read from ``gate``; its duration
    and waveform go to the engine beside the returned batch.  This is the one
    place a mechanism flag acts, on (2, n) per-atom arrays: the record's atom
    axis moved to the front.  A draw switched off is read as a nominal view,
    so the record is never copied; the beam-profile, scattering, Rydberg
    decay and blockade fluctuation flags act on the rates.  ``gammar`` is
    the total |r> loss.
    """
    if len(shots) == 0:
        raise ValueError("no shots to resolve")

    def draw(flag, values, nominal=0.0):
        return (values if getattr(mask, flag)
                else np.broadcast_to(nominal, values.shape))

    # per-atom constants as (2, 1) columns
    w2_blue, w2_red, k_eff, stark_blue, stark_red, scatter_1, scatter_r, \
        ryd = np.array([(sp.blue_waist_um ** 2, sp.red_waist_um ** 2,
                         sp.doppler_k_eff(), sp.stark_coeff_blue(),
                         sp.stark_coeff_red(), sp.scattering_rate_1(),
                         sp.scattering_rate_r(), sp.rydberg_decay_rate)
                        for sp in (params.rb, params.cs)]).T[..., None]

    position = draw("atom_localization", shots["position_um"])
    dx, dy = (position[..., :2] - (
        draw("pointing_fluctuation", shots["pointing_nm"])
        + draw("static_misalignment", shots["static_nm"])) * 1e-3).T  # (2, n)
    rho2 = dx * dx + dy * dy
    g_blue = np.exp(-2.0 * rho2 / w2_blue) if mask.finite_beam_blue else 1.0
    g_red = np.exp(-2.0 * rho2 / w2_red) if mask.finite_beam_red else 1.0
    energy_red, energy_blue = shots["energy"].T
    i_blue = draw("pulse_energy_blue", energy_blue, 1.0) * g_blue
    i_red = draw("pulse_energy_red", energy_red, 1.0) * g_red

    rabi = (params.rabi_rad_s() * np.sqrt(i_blue * i_red)
            * draw("rabi_mismatch", shots["rabi_mismatch"].T, 1.0))
    doppler = k_eff * draw("atom_velocity", shots["velocity_ms"]).T[
        "xyz".index(params.doppler_axis)]
    corr = (draw("magnetic_noise", shots["detuning_magnetic_khz"])
            + draw("electric_noise", shots["detuning_electric_khz"])) * KHZ
    delta = (gate.detuning + doppler
             + stark_blue * (i_blue - 1.0) + stark_red * (i_red - 1.0)
             + (corr + draw("laser_frequency_noise",
                            shots["detuning_laser_khz"].T) * KHZ))
    if mask.intermediate_state_decay:
        gamma1, gammar = scatter_1 * i_blue, scatter_r * i_red
    else:
        gamma1, gammar = np.zeros_like(i_blue), np.zeros_like(i_red)
    gammar = gammar + (ryd if mask.rydberg_decay else 0.0)

    blockade = np.full(len(shots), params.blockade_rad_s())
    if mask.blockade_fluctuation:
        r = np.maximum(np.linalg.norm(_separation_um(params, position),
                                      axis=-1), SEPARATION_FLOOR_UM)
        blockade *= (params.atom_separation_um / r) ** 6
    return DriveBatch(*np.array([rabi, delta, gamma1, gammar]), blockade)


def resolve_drives(params: SystemParams, gate: GateParams) -> DriveBatch:
    """The nominal (noise-free, decay-on) drives as a batch of one."""
    return resolve_drive_batch(params, nominal_shot(), MechanismMask(), gate)
