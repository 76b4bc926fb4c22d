import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydsim.budget import EXCLUSION_MECHANISMS
from rydsim.constants import KB, KHZ, MASS_CS133, MASS_RB87, MHZ
from rydsim.gate import GateParams
from rydsim.noise import (MECHANISM_FLAGS, SHOT_DTYPE, MechanismMask,
                          _pcg64_states, nominal_shot, resolve_drive_batch,
                          resolve_drives, sample_shots, static_offsets_nm)
from rydsim.params import ConfigError, load_preset
from rydsim.trap import SEPARATION_FLOOR_UM

from oracles import resolve_drive_batch_per_species

BATCH_FIELDS = ("omega", "delta", "gamma1", "gammar", "blockade")

# the flags that switch a draw of the shot record
DRAW_FLAGS = ("atom_localization", "atom_velocity", "pulse_energy_red",
              "pulse_energy_blue", "pointing_fluctuation",
              "static_misalignment", "rabi_mismatch", "magnetic_noise",
              "electric_noise", "laser_frequency_noise")


def one_shot(params, seed, index):
    return sample_shots(params, seed, shots=1, start_index=index)


@pytest.fixture(scope="module")
def gate():
    return GateParams(detuning=2 * np.pi * 1e5, duration=1e-6,
                      phase_mod_rate=2 * np.pi * 0.9e6, phase_mod_depth=0.7,
                      phase_mod_delay=5e-7)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def resolve(params, shot, gate, mask=None):
    return resolve_drive_batch(params, shot, mask or MechanismMask(), gate)


def assert_same_drives(a, b, what):
    for f in BATCH_FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), (what, f)


def test_all_off_mask_is_nominal(current_params, gate):
    s = nominal_shot()[0]
    assert np.all(s.position_um == 0) and np.all(s.velocity_ms == 0)
    assert np.all(s.energy == 1.0)
    assert np.all(s.pointing_nm == 0) and np.all(s.static_nm == 0)
    assert np.all(s.rabi_mismatch == 1.0)
    assert s.detuning_magnetic_khz == 0.0 and s.detuning_electric_khz == 0.0
    assert np.all(s.detuning_laser_khz == 0.0) and s.redraws == 0
    # a drawn shot resolves to the nominal shot's drives once its draws are
    # off: all off, and with only the draws off, where beam profiles,
    # scattering and the blockade's r^-6 would show any draw left on
    shot = one_shot(current_params, seed=3, index=17)
    for mask in (MechanismMask.all_off(), MechanismMask().without(*DRAW_FLAGS)):
        assert_same_drives(resolve(current_params, shot, gate, mask),
                           resolve(current_params, nominal_shot(), gate, mask),
                           mask)


def test_position_spreads_converge(current_params):
    # Rb at 15.4 uK in the 1.1 mK trap: sigma_rho 0.10 um, sigma_z 0.71 um
    params = replace(current_params, atom_temperature_uk=15.4,
                     trap_power_mw=40.0)
    shots = sample_shots(params, seed=5, shots=100_000)
    pos = shots.position_um[:, 0]
    assert np.std(pos[:, 0]) == pytest.approx(0.10, rel=0.02)
    assert np.std(pos[:, 1]) == pytest.approx(0.10, rel=0.02)
    assert np.std(pos[:, 2]) == pytest.approx(0.71, rel=0.02)


def test_magnetic_only_mask(current_params, gate):
    # with the magnetic draw the only one on, both atoms' detunings move by
    # that one draw, 7 kHz rms, and every other drive stays nominal, also
    # with the beam profiles, scattering and blockade fluctuation on
    shots = sample_shots(current_params, seed=8, shots=20_000)
    mags = shots.detuning_magnetic_khz
    assert np.std(mags) == pytest.approx(7.0, rel=0.03)
    for mask in (MechanismMask.only("magnetic_noise"), MechanismMask().without(
            *(f for f in DRAW_FLAGS if f != "magnetic_noise"))):
        b = resolve(current_params, shots, gate, mask)
        nominal = resolve(current_params, nominal_shot(), gate, mask)
        assert np.array_equal(b.delta, np.broadcast_to(
            gate.detuning + mags * KHZ, (2, len(shots)))), mask
        for f in ("omega", "gamma1", "gammar", "blockade"):
            assert np.all(getattr(b, f) == getattr(nominal, f)), (mask, f)


def test_velocity_distribution_both_species(current_params):
    shots = sample_shots(current_params, seed=2, shots=100_000)
    for atom, mass in ((0, MASS_RB87), (1, MASS_CS133)):
        v = shots.velocity_ms[:, atom]
        expected = math.sqrt(KB * current_params.atom_temperature_uk * 1e-6 / mass)
        for axis in range(3):
            assert np.std(v[:, axis]) == pytest.approx(expected, rel=0.02)


def test_sampling_determinism(current_params):
    a = one_shot(current_params, seed=11, index=123)[0]
    b = one_shot(current_params, seed=11, index=123)[0]
    for f, atom in (("position_um", 0), ("velocity_ms", 1),
                    ("pointing_nm", 0)):
        assert np.array_equal(a[f][atom], b[f][atom])
    for f, index in (("energy", (0, 0)), ("rabi_mismatch", 1),
                     ("detuning_magnetic_khz", ()), ("detuning_laser_khz", 0)):
        assert a[f][index] == b[f][index]
    c = one_shot(current_params, seed=11, index=124)[0]
    assert not np.array_equal(a.position_um[0], c.position_um[0])


def test_mask_linearity_field_by_field(current_params, gate):
    """Disabling one mechanism zeroes exactly its draws and no others.

    Resolving with the flag off equals resolving, under the full mask, the
    draws with exactly those draws at their nominal value; and resolving
    leaves the record as it was.
    """
    base = one_shot(current_params, seed=7, index=5)
    # the field and the draws within it, both atoms' unless indexed
    zeroed_fields = {
        "atom_velocity": ("velocity_ms", ...),
        "atom_localization": ("position_um", ...),
        "pointing_fluctuation": ("pointing_nm", ...),
        "static_misalignment": ("static_nm", ...),
        "magnetic_noise": ("detuning_magnetic_khz", ...),
        "electric_noise": ("detuning_electric_khz", ...),
        "laser_frequency_noise": ("detuning_laser_khz", ...),
    }
    unit_fields = {
        "pulse_energy_red": ("energy", (..., 0)),
        "pulse_energy_blue": ("energy", (..., 1)),
        "rabi_mismatch": ("rabi_mismatch", ...),
    }
    assert set(zeroed_fields) | set(unit_fields) == set(DRAW_FLAGS)
    before = base.copy()
    for flag, (field, index) in {**zeroed_fields, **unit_fields}.items():
        nominal = base.copy()
        nominal[field][index] = 0.0 if flag in zeroed_fields else 1.0
        assert not np.array_equal(nominal[field], base[field]), flag
        assert_same_drives(
            resolve(current_params, base, gate,
                    MechanismMask().without(flag)),
            resolve(current_params, nominal, gate), flag)
        for f in base.dtype.names:
            assert np.array_equal(base[f], before[f]), (flag, f)


def test_static_offset_is_per_run(current_params):
    shots = sample_shots(current_params, seed=4, shots=10)
    first = shots[0].static_nm[0]
    assert all(np.array_equal(s.static_nm[0], first) for s in shots)
    assert np.linalg.norm(first) == pytest.approx(
        current_params.pointing_static_nm, rel=1e-12)
    other = static_offsets_nm(current_params, seed=5)[0]
    assert not np.array_equal(first, other)


def close_params():
    """`current` shrunk so the separation floor engages with realistic
    spreads."""
    return replace(load_preset("current"), atom_separation_um=0.62,
                   atom_temperature_uk=15.0, trap_power_mw=2.8)


def test_separation_floor_redraw():
    params = close_params()
    shots = sample_shots(params, seed=1, shots=300)
    sep0 = np.array([params.atom_separation_um, 0.0, 0.0])
    seps = [np.linalg.norm(sep0 + s.position_um[1] - s.position_um[0])
            for s in shots]
    assert min(seps) >= 0.5
    assert sum(s.redraws for s in shots) > 0


def assert_same_records(got, want):
    """Field for field and bit for bit, signed zeros included."""
    for name in SHOT_DTYPE.names:
        if name == "redraws":    # Python ints
            assert list(got[name]) == list(want[name])
        else:
            assert got[name].tobytes() == want[name].tobytes(), name


def test_separation_floor_redraw_block_matches_single_shots():
    # a block resumes each redrawn shot from its own saved stream state
    params = close_params()
    block = sample_shots(params, seed=1, shots=300)
    assert sum(block.redraws) > 0
    for i in range(300):
        assert_same_records(block[i:i + 1], one_shot(params, 1, i))


def test_negative_seed_or_index_rejected(current_params):
    with pytest.raises(ValueError, match="seed -1"):
        sample_shots(current_params, -1, 10)
    with pytest.raises(ValueError, match="start_index -1"):
        sample_shots(current_params, 0, 10, start_index=-1)
    # a bad count is a ValueError naming it, not an allocation failure
    with pytest.raises(ValueError, match="shots -1") as exc:
        sample_shots(current_params, 0, -1)
    assert not isinstance(exc.value, ConfigError)
    with pytest.raises(ValueError, match="shots 2.5"):
        sample_shots(current_params, 0, 2.5)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**128, 2**130 + 5])
def test_pcg64_seeding_matches_numpy(seed):
    def numpy_state(index):
        state = np.random.PCG64(np.random.SeedSequence(
            seed, spawn_key=(0, index))).state["state"]
        return state["state"], state["inc"]

    for index in (0, 2**32 - 1, 2**32, 2**64):
        assert _pcg64_states(seed, index, 1) == [numpy_state(index)], index
    # a block across the one- to two-word spawn-key boundary
    assert _pcg64_states(seed, 2**32 - 2, 4) == [
        numpy_state(i) for i in range(2**32 - 2, 2**32 + 2)]


def oracle_shots(params, seed, shots, start_index):
    """The documented stream, shot by shot from numpy's own seeding: 20
    normals, 2 uniforms, 4 normals, then the position redraws."""
    srho_rb, sz_rb = params.localization_um("rb")
    srho_cs, sz_cs = params.localization_um("cs")
    sig_rb = np.array([srho_rb, srho_rb, sz_rb])
    sig_cs = np.array([srho_cs, srho_cs, sz_cs])
    hw = params.rabi_mismatch_halfwidth
    sep0 = np.array([params.atom_separation_um, 0.0, 0.0])
    static = static_offsets_nm(params, seed)
    records = []
    for i in range(start_index, start_index + shots):
        rng = np.random.default_rng(np.random.SeedSequence(
            seed, spawn_key=(0, i)))
        z = rng.normal(size=20)
        u = rng.uniform(-hw, hw, size=2)
        d = rng.normal(size=4)
        pos_rb, pos_cs, redraws = z[0:3] * sig_rb, z[3:6] * sig_cs, 0
        while np.linalg.norm(sep0 + pos_cs - pos_rb) < SEPARATION_FLOOR_UM:
            redraws += 1
            pos_rb = rng.normal(size=3) * sig_rb
            pos_cs = rng.normal(size=3) * sig_cs
        records.append((
            [pos_rb, pos_cs],
            [z[6:9] * params.velocity_sigma_ms("rb"),
             z[9:12] * params.velocity_sigma_ms("cs")],
            [[1.0 + z[12] * params.red_pulse_energy_std,
              1.0 + z[13] * params.blue_pulse_energy_std],
             [1.0 + z[14] * params.red_pulse_energy_std,
              1.0 + z[15] * params.blue_pulse_energy_std]],
            [z[16:18] * params.pointing_dynamic_nm,
             z[18:20] * params.pointing_dynamic_nm], static,
            [1.0 + u[0], 1.0 + u[1]],
            d[0] * params.detuning_magnetic_khz,
            d[1] * params.detuning_electric_khz,
            [d[2] * params.detuning_laser_khz,
             d[3] * params.detuning_laser_khz], redraws))
    return np.array(records, dtype=SHOT_DTYPE)


@pytest.fixture(scope="module")
def stream_params():
    return {"current": load_preset("current"),
            "projected": load_preset("projected"), "close": close_params()}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(preset=st.sampled_from(["current", "projected", "close"]),
       seed=st.integers(0, 2**70),
       start=st.one_of(st.integers(0, 2**33),
                       st.integers(2**32 - 64, 2**32)),
       shots=st.integers(1, 64))
def test_block_sampler_matches_per_shot_oracle(stream_params, preset, seed,
                                               start, shots):
    params = stream_params[preset]
    assert_same_records(sample_shots(params, seed, shots, start),
                        oracle_shots(params, seed, shots, start))


# ---------------------------------------------------------------------------
# drive resolution
# ---------------------------------------------------------------------------

def test_nominal_drives_match_table(current_params, gate):
    b = resolve_drives(current_params, gate)
    assert b.omega[0, 0] == pytest.approx(2 * np.pi * 1.2e6, rel=1e-12)
    assert b.omega[1, 0] == pytest.approx(2 * np.pi * 1.2e6, rel=1e-12)
    assert b.delta[0, 0] == pytest.approx(gate.detuning, rel=1e-12)
    assert b.blockade[0] == pytest.approx(2 * np.pi * 12e6, rel=1e-12)
    # the Rydberg share of the |r> loss rate is what switching off
    # intermediate-state scattering leaves
    ryd = resolve(current_params, nominal_shot(), gate,
                  MechanismMask().without("intermediate_state_decay"))
    assert ryd.gammar[0, 0] == pytest.approx(1 / 112e-6, rel=1e-12)
    assert ryd.gammar[1, 0] == pytest.approx(1 / 115e-6, rel=1e-12)
    assert b.gamma1[0, 0] > 0 and b.gammar[0, 0] - ryd.gammar[0, 0] > 0


def test_blockade_r6_scaling(current_params, gate):
    s = nominal_shot()
    s.position_um[:, 1] = [5.27 - 5.85, 0.0, 0.0]   # separation 5.27
    blockade = resolve(current_params, s, gate).blockade[0]
    expected = 2 * np.pi * 12e6 * (5.85 / 5.27) ** 6
    assert blockade == pytest.approx(expected, rel=1e-12)
    assert blockade / (2 * np.pi * 12e6) == pytest.approx(1.88, abs=0.01)


def test_blockade_frozen_when_masked(current_params, gate):
    s = nominal_shot()
    s.position_um[:, 1] = [-0.5, 0.3, 0.4]
    blockade = resolve(current_params, s, gate,
                       MechanismMask().without("blockade_fluctuation")).blockade[0]
    assert blockade == pytest.approx(2 * np.pi * 12e6, rel=1e-12)


def test_doppler_shift_from_wavelengths(current_params, gate):
    s = nominal_shot()
    v = 0.02
    s.velocity_ms[:, 0] = [0.0, 0.0, v]
    b = resolve(current_params, s, gate)
    k_eff = 2 * np.pi * (1.0 / 421e-9 - 1.0 / 1005e-9)
    assert b.delta[0, 0] - gate.detuning == pytest.approx(k_eff * v, rel=1e-12)
    assert b.delta[1, 0] == pytest.approx(gate.detuning, rel=1e-12)


def test_doppler_uses_configured_axis(current_params, gate):
    params = replace(current_params, doppler_axis="x")
    s = nominal_shot()
    s.velocity_ms[:, 0] = [0.013, 0.0, 0.0]
    b = resolve(params, s, gate)
    k_eff = current_params.rb.doppler_k_eff()
    assert b.delta[0, 0] - gate.detuning == pytest.approx(
        k_eff * 0.013, rel=1e-12)


def test_pulse_energy_affects_rabi_and_detuning(current_params, gate):
    s = nominal_shot()
    s.energy[:, 0, 1] = 1.04
    b = resolve(current_params, s, gate)
    assert b.omega[0, 0] == pytest.approx(
        2 * np.pi * 1.2e6 * math.sqrt(1.04), rel=1e-12)
    shift = current_params.rb.stark_coeff_blue() * 0.04
    assert b.delta[0, 0] - gate.detuning == pytest.approx(shift, rel=1e-12)
    assert b.delta[1, 0] == pytest.approx(gate.detuning, rel=1e-12)


def test_finite_beam_mask_flattens_profile(current_params, gate):
    s = nominal_shot()
    s.position_um[:, 0] = [1.0, 0.5, 0.0]
    b = resolve(current_params, s, gate,
                MechanismMask().without("finite_beam_blue", "finite_beam_red"))
    assert b.omega[0, 0] == pytest.approx(2 * np.pi * 1.2e6, rel=1e-12)

    b2 = resolve(current_params, s, gate)
    rho2 = 1.0 ** 2 + 0.5 ** 2
    g_blue = math.exp(-2 * rho2 / current_params.rb.blue_waist_um ** 2)
    g_red = math.exp(-2 * rho2 / current_params.rb.red_waist_um ** 2)
    assert b2.omega[0, 0] == pytest.approx(
        2 * np.pi * 1.2e6 * math.sqrt(g_blue * g_red), rel=1e-12)


def test_decay_masks(current_params, gate):
    # gammar is the total |r> loss: scattering plus Rydberg decay
    b = resolve(current_params, nominal_shot(), gate,
                MechanismMask().without("intermediate_state_decay"))
    assert b.gamma1[0, 0] == 0.0
    assert b.gammar[0, 0] == current_params.rb.rydberg_decay_rate
    assert b.gammar[0, 0] > 0.0
    b2 = resolve(current_params, nominal_shot(), gate,
                 MechanismMask().without("rydberg_decay"))
    assert b2.gammar[0, 0] == current_params.rb.scattering_rate_r()
    assert b2.gamma1[0, 0] > 0.0


def test_correlated_vs_uncorrelated_detunings(current_params, gate):
    s = nominal_shot()
    s.detuning_magnetic_khz = 3.0
    s.detuning_electric_khz = 2.0
    s.detuning_laser_khz[:, 0] = 1.5
    b = resolve(current_params, s, gate)
    assert b.delta[0, 0] - gate.detuning == pytest.approx(
        (3.0 + 2.0 + 1.5) * KHZ, rel=1e-12)
    assert b.delta[1, 0] - gate.detuning == pytest.approx(
        (3.0 + 2.0) * KHZ, rel=1e-12)


@pytest.mark.parametrize("preset", ["current", "projected", "close"])
def test_resolver_matches_per_species_oracle(stream_params, preset, gate):
    """Every `DriveBatch` field equals the species-by-species formulas bit
    for bit, under the full mask, all off, and each single flag off."""
    params = stream_params[preset]
    shots = sample_shots(params, seed=3, shots=500)
    if preset == "close":
        assert sum(shots.redraws) > 0
    masks = [MechanismMask(), MechanismMask.all_off()] + [
        MechanismMask().without(flag) for flag in MECHANISM_FLAGS]
    for mask in masks:
        assert_same_drives(
            resolve_drive_batch(params, shots, mask, gate),
            resolve_drive_batch_per_species(params, shots, mask, gate), mask)


def test_mask_helpers():
    m = MechanismMask.only("atom_velocity")
    assert m.atom_velocity and not m.rydberg_decay
    # the adiabatic sweep switches atom_localization; every other flag is
    # exactly one exclusion-table row
    rows = [flag for flag, _ in EXCLUSION_MECHANISMS]
    for flag in MECHANISM_FLAGS:
        assert rows.count(flag) == (flag != "atom_localization"), flag
    assert set(rows) <= set(MECHANISM_FLAGS)
    with pytest.raises(KeyError):
        MechanismMask().without("not_a_mechanism")


# ---------------------------------------------------------------------------
# golden stream
# ---------------------------------------------------------------------------

_GOLDEN_STREAM = Path(__file__).parent / "golden_stream.json"


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _record_hex(params, seed, index):
    """One shot's redraws, every float field but ``static_nm`` raveled in
    record order, and ``static_nm``, as float.hex."""
    s = one_shot(params, seed, index)[0]
    names = [f for f in s.dtype.names if f not in ("static_nm", "redraws")]
    values = np.concatenate([np.ravel(s[f]) for f in names])
    return int(s.redraws), _hex(values), _hex(s.static_nm)


def stream_pins(golden: dict) -> dict:
    """The ``shots``, ``static`` and ``redrawn`` pins of
    ``golden_stream.json`` at the (preset, seed, index) keys of ``golden``,
    from the code as it stands.  Every shot must carry its run's static
    offsets."""
    def record(params, rec):
        redraws, values, static = _record_hex(params, rec["seed"],
                                              rec["index"])
        assert static == _hex(static_offsets_nm(params, rec["seed"])), rec
        return {"seed": rec["seed"], "index": rec["index"],
                "redraws": redraws, "values": values}

    pins = {"shots": {}, "static": {}}
    for preset, records in golden["shots"].items():
        params = load_preset(preset)
        pins["shots"][preset] = [record(params, rec) for rec in records]
        pins["static"][preset] = {
            seed: _hex(static_offsets_nm(params, int(seed)))
            for seed in golden["static"][preset]}
    pins["redrawn"] = record(close_params(), golden["redrawn"])
    return pins


def repin_golden_stream():
    """Rewrite the pins of ``golden_stream.json`` from the code as it
    stands, keeping its keys and layout (hex lists four to a line).  Only a
    change that alters the random stream on purpose calls for this."""
    golden = json.loads(_GOLDEN_STREAM.read_text())
    golden.update(stream_pins(golden))

    def rows(m):
        items = re.findall(r'"[^"]*"', m.group(0))
        return "[\n" + ",\n".join(
            m.group(1) + " " + ", ".join(items[k:k + 4])
            for k in range(0, len(items), 4)) + "\n" + m.group(1) + "]"
    _GOLDEN_STREAM.write_text(re.sub(r'\[\n( +)"[^\]]*\]', rows,
                                     json.dumps(golden, indent=1)) + "\n")


def test_golden_stream_pins_draws():
    """(seed, index) -> draws is fixed; a stream change fails here."""
    golden = json.loads(_GOLDEN_STREAM.read_text())
    assert golden["redrawn"]["redraws"] > 0
    pins = stream_pins(golden)
    for key, value in pins.items():
        assert value == golden[key], key
