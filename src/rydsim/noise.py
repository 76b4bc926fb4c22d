"""Shot-to-shot noise: mechanism masks, shot sampling, drive resolution.

Every mechanism in the error model can be switched off individually.  A shot
is addressed by (seed, index): the same pair always yields the identical
draws.  Shot i of run ``seed`` draws from numpy's PCG64 seeded by
``SeedSequence(seed, spawn_key=(0, i))``: 20 standard normals (positions,
velocities, pulse energies, pointing), 2 uniforms on +-rabi_mismatch_halfwidth,
4 normals (magnetic, electric and the two laser detunings), then its
separation-floor redraws, 3 + 3 normals each.  `sample_shots` seeds a whole
block with one vectorized run of numpy's seed hash and resets one generator
to each shot's state, which reproduces that stream bit for bit.  Sampling
takes no mask: `sample_shots` returns the unmasked draws as one record
array, and `resolve_drive_batch` applies the mask when it turns them into
drives.  Runs with different masks therefore share their draws by
construction (common random numbers, which tighten exclusion-table
differences), and one sample serves every mask.  Static beam misalignment is
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


# One record per shot.  Every field holds the unmasked draw; the masks act
# only in `resolve_drive_batch`.
SHOT_DTYPE = np.dtype([
    ("position_rb_um", float, 3),
    ("position_cs_um", float, 3),
    ("velocity_rb_ms", float, 3),
    ("velocity_cs_ms", float, 3),
    ("energy_red_rb", float),
    ("energy_blue_rb", float),
    ("energy_red_cs", float),
    ("energy_blue_cs", float),
    ("pointing_rb_nm", float, 2),
    ("pointing_cs_nm", float, 2),
    ("static_rb_nm", float, 2),           # per-run draw
    ("static_cs_nm", float, 2),
    ("rabi_mismatch_rb", float),
    ("rabi_mismatch_cs", float),
    ("detuning_magnetic_khz", float),     # correlated between atoms
    ("detuning_electric_khz", float),     # correlated between atoms
    ("detuning_laser_rb_khz", float),     # uncorrelated per atom
    ("detuning_laser_cs_khz", float),
    # a Python int, so per-record counts sum to a plain (JSON-ready) int
    ("redraws", object),
])

# draw-level mask flags: the record fields each one switches off, and the
# nominal value those fields then take
_DRAW_FIELDS = {
    "atom_localization": (("position_rb_um", "position_cs_um"), 0.0),
    "atom_velocity": (("velocity_rb_ms", "velocity_cs_ms"), 0.0),
    "pulse_energy_red": (("energy_red_rb", "energy_red_cs"), 1.0),
    "pulse_energy_blue": (("energy_blue_rb", "energy_blue_cs"), 1.0),
    "pointing_fluctuation": (("pointing_rb_nm", "pointing_cs_nm"), 0.0),
    "static_misalignment": (("static_rb_nm", "static_cs_nm"), 0.0),
    "rabi_mismatch": (("rabi_mismatch_rb", "rabi_mismatch_cs"), 1.0),
    "magnetic_noise": (("detuning_magnetic_khz",), 0.0),
    "electric_noise": (("detuning_electric_khz",), 0.0),
    "laser_frequency_noise": (("detuning_laser_rb_khz",
                               "detuning_laser_cs_khz"), 0.0),
}


def masked_draws(shots: np.recarray, mask: MechanismMask) -> np.recarray:
    """Copy of ``shots`` with every draw that ``mask`` switches off set to
    its nominal value."""
    shots = shots.copy()
    for flag, (names, nominal) in _DRAW_FIELDS.items():
        if not getattr(mask, flag):
            for name in names:
                shots[name] = nominal
    return shots


def nominal_shot() -> np.recarray:
    """One record with every draw at its nominal value."""
    return masked_draws(np.zeros(1, dtype=SHOT_DTYPE).view(np.recarray),
                        MechanismMask.all_off())


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


def static_offsets_nm(params: SystemParams,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-run static misalignment: fixed radius, uniform random direction."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=2)
    r = params.pointing_static_nm
    rb, cs = (r * np.array([math.cos(a), math.sin(a)]) for a in angles)
    return rb, cs


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
    seed, start_index = operator.index(seed), operator.index(start_index)
    if seed < 0 or start_index < 0:
        raise ValueError(f"seed and start_index must be >= 0, got seed "
                         f"{seed} and start_index {start_index}")
    srho_rb, sz_rb = params.localization_um("rb")
    srho_cs, sz_cs = params.localization_um("cs")
    sig_rb = np.array([srho_rb, srho_rb, sz_rb])
    sig_cs = np.array([srho_cs, srho_cs, sz_cs])
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
    out.position_rb_um = z[:, 0:3] * sig_rb
    out.position_cs_um = z[:, 3:6] * sig_cs
    out.velocity_rb_ms = z[:, 6:9] * params.velocity_sigma_ms("rb")
    out.velocity_cs_ms = z[:, 9:12] * params.velocity_sigma_ms("cs")
    out.energy_red_rb = 1.0 + z[:, 12] * params.red_pulse_energy_std
    out.energy_blue_rb = 1.0 + z[:, 13] * params.blue_pulse_energy_std
    out.energy_red_cs = 1.0 + z[:, 14] * params.red_pulse_energy_std
    out.energy_blue_cs = 1.0 + z[:, 15] * params.blue_pulse_energy_std
    out.pointing_rb_nm = z[:, 16:18] * params.pointing_dynamic_nm
    out.pointing_cs_nm = z[:, 18:20] * params.pointing_dynamic_nm
    out.static_rb_nm, out.static_cs_nm = static_offsets_nm(params, seed)
    out.rabi_mismatch_rb = 1.0 + u[:, 0]
    out.rabi_mismatch_cs = 1.0 + u[:, 1]
    out.detuning_magnetic_khz = d[:, 0] * params.detuning_magnetic_khz
    out.detuning_electric_khz = d[:, 1] * params.detuning_electric_khz
    out.detuning_laser_rb_khz = d[:, 2] * params.detuning_laser_khz
    out.detuning_laser_cs_khz = d[:, 3] * params.detuning_laser_khz

    # screen with a margin of a few ulp, then decide on the exact per-shot
    # norm; redraws continue the shot's stream after its fixed block, which
    # is drawn again to get there
    sep0 = np.array([params.atom_separation_um, 0.0, 0.0])
    sep = sep0 + out.position_cs_um - out.position_rb_um
    floor2 = (1 + 1e-9) * SEPARATION_FLOOR_UM ** 2
    near = np.einsum("ij,ij->i", sep, sep) < floor2
    for i in np.flatnonzero(near):
        fixed_block(seeded[i], np.empty(26))
        pos_rb, pos_cs = out.position_rb_um[i], out.position_cs_um[i]
        while np.linalg.norm(sep0 + pos_cs - pos_rb) < SEPARATION_FLOOR_UM:
            out.redraws[i] += 1
            if out.redraws[i] > MAX_REDRAWS:
                raise ConfigError(
                    f"atom_separation_um = {params.atom_separation_um}: "
                    f"{MAX_REDRAWS} position redraws did not clear the "
                    f"{SEPARATION_FLOOR_UM} um separation floor")
            pos_rb = rng.normal(size=3) * sig_rb
            pos_cs = rng.normal(size=3) * sig_cs
        out.position_rb_um[i], out.position_cs_um[i] = pos_rb, pos_cs
    return out


# ---------------------------------------------------------------------------
# drive resolution
# ---------------------------------------------------------------------------

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def _resolve_atom(params: SystemParams, species: str, gate: GateParams,
                  mask: MechanismMask, shots: np.recarray,
                  extra_detuning_rad_s):
    """Per-atom (rabi, detuning, gamma1, gammar) arrays over shots; gammar
    is the total |r> loss, scattering plus Rydberg decay."""
    sp = params.species(species)
    pos_um = shots[f"position_{species}_um"]
    beam_off_um = (shots[f"pointing_{species}_nm"]
                   + shots[f"static_{species}_nm"]) * 1e-3
    dx = pos_um[..., 0] - beam_off_um[..., 0]
    dy = pos_um[..., 1] - beam_off_um[..., 1]
    rho2 = dx * dx + dy * dy
    g_blue = np.exp(-2.0 * rho2 / sp.blue_waist_um ** 2) \
        if mask.finite_beam_blue else np.ones_like(rho2)
    g_red = np.exp(-2.0 * rho2 / sp.red_waist_um ** 2) \
        if mask.finite_beam_red else np.ones_like(rho2)
    i_blue = shots[f"energy_blue_{species}"] * g_blue
    i_red = shots[f"energy_red_{species}"] * g_red

    rabi = (params.rabi_rad_s() * np.sqrt(i_blue * i_red)
            * shots[f"rabi_mismatch_{species}"])
    axis = _AXIS_INDEX[params.doppler_axis]
    doppler = sp.doppler_k_eff() * shots[f"velocity_{species}_ms"][..., axis]
    delta = (gate.detuning + doppler
             + sp.stark_coeff_blue() * (i_blue - 1.0)
             + sp.stark_coeff_red() * (i_red - 1.0)
             + extra_detuning_rad_s)
    if mask.intermediate_state_decay:
        gamma1 = sp.scattering_rate_1() * i_blue
        gammar_sc = sp.scattering_rate_r() * i_red
    else:
        gamma1 = np.zeros_like(i_blue)
        gammar_sc = np.zeros_like(i_red)
    ryd = sp.rydberg_decay_rate if mask.rydberg_decay else 0.0
    return rabi, delta, gamma1, gammar_sc + ryd


def _blockade_rad_s(params: SystemParams, mask: MechanismMask,
                    pos_rb_um, pos_cs_um):
    b0 = params.blockade_rad_s()
    if not mask.blockade_fluctuation:
        return np.full(len(pos_rb_um), b0)
    sep0 = np.array([params.atom_separation_um, 0.0, 0.0])
    sep = sep0 + pos_cs_um - pos_rb_um
    r = np.maximum(np.linalg.norm(sep, axis=-1), SEPARATION_FLOOR_UM)
    return b0 * (params.atom_separation_um / r) ** 6


def resolve_drive_batch(params: SystemParams, shots: np.recarray,
                        mask: MechanismMask, gate: GateParams) -> DriveBatch:
    """Per-shot drives and blockades of ``shots`` with ``mask`` applied.

    Only the nominal two-photon detuning is read from ``gate``; its duration
    and waveform go to the engine beside the returned batch.  This is the one
    place a mechanism flag acts: the draw-level flags set their fields
    nominal (`masked_draws`); the beam-profile, scattering and Rydberg decay
    flags act in `_resolve_atom`, and blockade fluctuation in
    `_blockade_rad_s`.  Row 0 of each per-atom array is Rb (atom A), row 1
    Cs (atom B).
    """
    if len(shots) == 0:
        raise ValueError("no shots to resolve")
    shots = masked_draws(shots, mask)
    corr = (shots["detuning_magnetic_khz"]
            + shots["detuning_electric_khz"]) * KHZ

    omega, delta, gamma1, gammar = np.stack([
        _resolve_atom(params, species, gate, mask, shots,
                      corr + shots[f"detuning_laser_{species}_khz"] * KHZ)
        for species in ("rb", "cs")], axis=1)
    return DriveBatch(omega, delta, gamma1, gammar, _blockade_rad_s(
        params, mask, shots["position_rb_um"], shots["position_cs_um"]))


def resolve_drives(params: SystemParams, gate: GateParams) -> DriveBatch:
    """The nominal (noise-free, decay-on) drives as a batch of one."""
    return resolve_drive_batch(params, nominal_shot(), MechanismMask(), gate)
