import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydsim.constants import MHZ
from rydsim import gate as gate_mod
from rydsim.gate import (DriveBatch, GateParams, IntegrationError,
                         bell_error_from_pulse_state, bell_errors_batch,
                         bell_prep_state,
                         build_hamiltonian, evolve_batch,
                         ideal_cz_unitary, pair_index, pulse_state_nominal,
                         waveform_phase, G0, G1, RYD)
from rydsim.noise import (MechanismMask, resolve_drive_batch,
                          resolve_drives, sample_shots)

from oracles import (bell_error_matrix_form, evolve_dense_reference,
                     evolve_sector_stage_loop)


def drive(rabi=0.0, detuning=0.0, g1=0.0, gr=0.0, ryd=0.0):
    """One atom's drive; the scattering ``gr`` and the Rydberg decay ``ryd``
    add up to its total |r> loss rate."""
    return dict(omega=rabi, delta=detuning, gamma1=g1, gammar=gr + ryd)


def pulse(duration, depth=0.0, rate=0.0, delay=0.0):
    """A pulse of ``duration`` whose phase on both atoms is
    depth * sin(rate * (t - delay)); the engine reads no other field."""
    return GateParams(0.0, duration, rate, depth, delay)


def phase_mod(duration):
    """The modulated test pulse: 1.3 rad at 1.1 MHz, bandwidth 1.43 MHz."""
    return pulse(duration, 1.3, 2 * np.pi * 1.1e6, 2e-7)


def batch_of(pairs, blockade):
    """One DriveBatch holding a shot per (drive_a, drive_b) pair."""
    rows = {name: np.array([[p[atom][name] for p in pairs] for atom in (0, 1)],
                           dtype=float)
            for name in ("omega", "delta", "gamma1", "gammar")}
    return DriveBatch(**rows, blockade=np.full(len(pairs), float(blockade)))


def pair(da, db, blockade):
    """A batch of one shot."""
    return batch_of([(da, db)], blockade)


def evolve_one(amps, da, db, blockade, duration, steps_per_period=100):
    """One shot through an unmodulated pulse of ``duration``."""
    return evolve_batch(amps[None, :], pair(da, db, blockade),
                        pulse(duration), steps_per_period)[0]


def pair_state(a, b):
    amps = np.zeros(9, dtype=complex)
    amps[pair_index(a, b)] = 1.0
    return amps


def bell_pulse_state(gate, batch, steps_per_period):
    """`pulse_state_nominal` at ``steps_per_period`` points per period."""
    psi0 = np.broadcast_to(bell_prep_state(), (len(batch), 9))
    return evolve_batch(psi0, batch, gate, steps_per_period)


def bell_error_of(gate, da, db, blockade):
    return float(bell_errors_batch(gate, pair(da, db, blockade))[0])


# ---------------------------------------------------------------------------
# build_hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_no_drive_is_diagonal():
    da = drive(detuning=2 * np.pi * 0.5e6)
    db = drive(detuning=-2 * np.pi * 0.2e6)
    h = build_hamiltonian(pair(da, db, 2 * np.pi * 3e6), pulse(1e-6), t=0.0)
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) == 0.0
    assert h[pair_index(RYD, G0), pair_index(RYD, G0)] == pytest.approx(
        -da["delta"])


def test_hamiltonian_blockade_on_rr():
    blockade = 2 * np.pi * 12.01e6   # measured blockade anchor
    h0 = build_hamiltonian(pair(drive(), drive(), 0.0), pulse(1e-6), 0.0)
    h1 = build_hamiltonian(pair(drive(), drive(), blockade), pulse(1e-6), 0.0)
    diff = h1 - h0
    rr = pair_index(RYD, RYD)
    assert diff[rr, rr] == pytest.approx(blockade)
    diff[rr, rr] = 0.0
    assert np.max(np.abs(diff)) == 0.0


def test_hamiltonian_antihermitian_part_negative_semidefinite():
    da = drive(rabi=2 * np.pi * 1.2e6, detuning=1e5, g1=500.0, gr=300.0,
               ryd=1e4)
    db = drive(rabi=2 * np.pi * 1.1e6, detuning=-2e5, g1=100.0, gr=700.0,
               ryd=9e3)
    h = build_hamiltonian(pair(da, db, 2 * np.pi * 12e6), phase_mod(1e-6),
                          t=1e-7)
    anti = (h - h.conj().T) / 2j
    vals = np.linalg.eigvalsh(anti)
    assert np.all(vals <= 1e-12)


def test_hamiltonian_rejects_nonfinite():
    psi0 = bell_prep_state()
    with pytest.raises(IntegrationError):
        evolve_one(psi0, drive(rabi=np.inf), drive(), 0.0, 1e-6)
    with pytest.raises(IntegrationError):
        evolve_one(psi0, drive(), drive(), np.nan, 1e-6)


def test_drive_spec_rejects_negative_rates():
    psi0 = bell_prep_state()
    with pytest.raises(IntegrationError):
        evolve_one(psi0, drive(g1=-1.0), drive(), 0.0, 1e-6)
    with pytest.raises(IntegrationError):
        evolve_one(psi0, drive(rabi=-5.0), drive(), 0.0, 1e-6)


@pytest.mark.parametrize("field, value", [
    pytest.param(("omega", 0), np.inf, id="omega_a-inf"),
    pytest.param(("blockade",), np.nan, id="blockade-nan"),
    pytest.param(("delta", 1), np.nan, id="delta_b-nan"),
    pytest.param(("gammar", 0), np.inf, id="gammar_a-inf")])
def test_nonfinite_drive_raises(field, value):
    # one bad shot of three fails the batch before any step is taken
    omega = 2 * np.pi * 1.2e6
    da = drive(rabi=omega, g1=100.0, gr=100.0)
    batch = batch_of([(da, da)] * 3, 2 * np.pi * 12e6)
    name, *atom = field
    getattr(batch, name)[(*atom, 1)] = value
    psi0 = np.broadcast_to(bell_prep_state(), (3, 9))
    with pytest.raises(IntegrationError, match="in 1 of 3 shots"):
        evolve_batch(psi0, batch, pulse(1e-6))


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_zero_hamiltonian_identity():
    rng = np.random.default_rng(1)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    out = evolve_one(amps, drive(), drive(), 0.0, 1e-6)
    assert np.max(np.abs(out - amps)) < 1e-12
    assert 1.0 - np.sum(np.abs(out) ** 2) < 1e-12


def test_pi_pulse_time_matches_rabi_rate():
    # measured two-photon Rabi rate 2*pi*1.2085 MHz -> pi time 413.7 ns
    omega = 2 * np.pi * 1.2085e6
    t_pi = np.pi / omega
    assert t_pi == pytest.approx(413.7e-9, abs=0.1e-9)
    out = evolve_one(pair_state(G1, G0), drive(rabi=omega), drive(), 0.0, t_pi)
    assert abs(out[pair_index(RYD, G0)]) ** 2 == pytest.approx(1.0, abs=1e-8)


def test_rabi_oscillation_vs_closed_form():
    omega = 2 * np.pi * 1.2085e6
    rng = np.random.default_rng(4)
    for frac in rng.uniform(0.05, 1.0, size=4):
        t = frac * 5 * 2 * np.pi / omega   # within 5 Rabi cycles
        out = evolve_one(pair_state(G1, G0), drive(rabi=omega), drive(), 0.0,
                         t, steps_per_period=400)
        expected = math.sin(omega * t / 2.0) ** 2
        pop = abs(out[pair_index(RYD, G0)]) ** 2
        assert pop == pytest.approx(expected, abs=1e-8)


def test_decay_only_exponential():
    tau = 112e-6     # Rb Rydberg lifetime
    t = 1e-6
    out = evolve_one(pair_state(RYD, G0), drive(ryd=1.0 / tau), drive(), 0.0, t)
    expected = math.exp(-t / tau)   # 0.99111 at these values
    assert expected == pytest.approx(0.99111, abs=5e-6)
    assert abs(out[pair_index(RYD, G0)]) ** 2 == pytest.approx(
        expected, abs=1e-9)
    assert 1.0 - np.sum(np.abs(out) ** 2) == pytest.approx(1.0 - expected,
                                                           abs=1e-9)


def test_loss_monotone_and_budget():
    # each segment's norm loss is checked against the dense RK4 reference on
    # the same batch and input, so a wrong decay rate in the engine shows
    da = drive(rabi=2 * np.pi * 1.2e6, g1=2e3, gr=1e3, ryd=1e4)
    db = drive(rabi=2 * np.pi * 1.2e6, g1=2e3, gr=1e3, ryd=1e4)
    batch = pair(da, db, 2 * np.pi * 12e6)
    psi = bell_prep_state()
    losses = [0.0]
    for _ in range(3):
        norm_in = np.sum(np.abs(psi) ** 2)
        ref = evolve_dense_reference(psi, batch, pulse(3e-7), nsteps=500)
        psi = evolve_batch(psi[None, :], batch, pulse(3e-7))[0]
        loss = norm_in - np.sum(np.abs(psi) ** 2)
        assert abs(loss - (norm_in - np.sum(np.abs(ref) ** 2))) <= 1e-7
        losses.append(losses[-1] + loss)
        assert losses[-1] >= losses[-2]
    assert losses[-1] > 0.0


def test_block_engine_matches_dense_reference():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    da = drive(rabi=2 * np.pi * 1.21e6, detuning=2 * np.pi * 0.3e6, g1=500.0,
               gr=800.0, ryd=1 / 112e-6)
    db = drive(rabi=2 * np.pi * 1.18e6, detuning=-2 * np.pi * 0.2e6, g1=300.0,
               gr=100.0, ryd=1 / 115e-6)
    blockade = 2 * np.pi * 12.01e6
    batch = pair(da, db, blockade)
    gate = phase_mod(1e-6)
    o1 = evolve_batch(amps[None, :], batch, gate, steps_per_period=400)[0]
    o2 = evolve_dense_reference(amps, batch, gate, nsteps=40000)
    assert np.max(np.abs(o1 - o2)) < 1e-7


@pytest.mark.parametrize("detuned", [0, 1], ids=["a", "b"])
def test_single_atom_sector_takes_the_fastest_atoms_step_count(detuned,
                                                               monkeypatch):
    # the detuned atom's 40 MHz scale sets the single-atom sector's 2800
    # steps for both atoms' halves, where the other atom alone would take
    # 101, and the pair sector's, above its blockade floor of 16; stepped
    # at the other atom's count the detuned atom was 6.5e-7 off the
    # reference, not 1.7e-9
    steps = _sector_steps(monkeypatch)
    omega = 2 * np.pi * 1e6
    drives = [drive(rabi=omega), drive(rabi=omega)]
    drives[detuned] = drive(rabi=omega, detuning=2 * np.pi * 40e6)
    batch, gate = pair(*drives, 2 * np.pi * 12e6), phase_mod(1e-6)
    psi0 = bell_prep_state()
    out = evolve_batch(psi0[None, :], batch, gate)[0]
    assert steps == [((2, 2), 2800), ((2, 2, 1), 2800)]
    ref = evolve_dense_reference(psi0, batch, gate, nsteps=20000)
    single = [pair_index(G1, G0), pair_index(RYD, G0), pair_index(G0, G1),
              pair_index(G0, RYD)]
    assert np.max(np.abs(out[single] - ref[single])) < 1e-8


def test_integration_error_on_step_underflow(monkeypatch):
    monkeypatch.setattr(gate_mod, "_MAX_STEPS", 8)
    with pytest.raises(IntegrationError):
        evolve_one(pair_state(G1, G1), drive(rabi=2 * np.pi * 1e6),
                   drive(rabi=2 * np.pi * 1e6), 2 * np.pi * 1e9, 1e-6)


# ---------------------------------------------------------------------------
# waveform
# ---------------------------------------------------------------------------

def test_waveform_zero_depth():
    gate = GateParams(0.0, 1e-6, 2 * np.pi * 1e6, 0.0, 5e-7)
    ts = np.linspace(0, 1e-6, 11)
    assert np.all(waveform_phase(gate, ts) == 0.0)


def test_waveform_zero_at_delay():
    gate = GateParams(0.0, 1e-6, 2 * np.pi * 0.9e6, 1.7, 4.2e-7)
    assert waveform_phase(gate, 4.2e-7) == pytest.approx(0.0, abs=1e-15)


def test_waveform_extremum():
    rate, depth, delay = 2 * np.pi * 0.9e6, 1.7, 4.2e-7
    gate = GateParams(0.0, 2e-6, rate, depth, delay)
    t_peak = delay + np.pi / (2 * rate)
    assert waveform_phase(gate, t_peak) == pytest.approx(depth, rel=1e-12)
    assert np.max(np.abs(waveform_phase(gate, np.linspace(0, 2e-6, 500)))) \
        <= depth + 1e-12


def test_gate_params_validation():
    with pytest.raises(ValueError):
        GateParams(0.0, 0.0, 1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        GateParams(0.0, 1e-6, 1.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        GateParams(np.nan, 1e-6, 1.0, 0.1, 0.0)


# ---------------------------------------------------------------------------
# Bell circuit
# ---------------------------------------------------------------------------

def test_ideal_cz_gives_zero_bell_error():
    psi = ideal_cz_unitary() @ bell_prep_state()
    err = bell_error_from_pulse_state(psi, (0.0, 0.0))
    assert abs(err) <= 1e-12


@pytest.mark.parametrize("n", [1, 7, 4096])
def test_bell_overlap_matches_matrix_form(n):
    # the folded 9-vector overlap against the explicit Rz, rotation and
    # projection matrices, on random normalised states and phases
    rng = np.random.default_rng(n)
    psi = rng.normal(size=(n, 9)) + 1j * rng.normal(size=(n, 9))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    rz = tuple(rng.uniform(-math.pi, math.pi, size=2))
    err = bell_error_from_pulse_state(psi, rz)
    assert err.shape == (n,)
    assert np.max(np.abs(err - bell_error_matrix_form(psi, rz))) <= 1e-15
    one = bell_error_from_pulse_state(psi[0], rz)
    assert isinstance(one, float)
    assert abs(one - bell_error_matrix_form(psi[0], rz)) <= 1e-15


def test_bell_error_in_unit_interval(current_params, current_opt):
    gate = current_opt.gate
    err = bell_errors_batch(gate, resolve_drives(current_params, gate))[0]
    assert 0.0 <= err <= 1.0


def test_norm_conservation_decay_free(current_params, current_opt):
    gate = current_opt.gate
    from dataclasses import replace
    zero = np.zeros((2, 1))
    batch = replace(resolve_drives(current_params, gate), gamma1=zero,
                    gammar=zero)
    psi = pulse_state_nominal(gate, batch)[0]
    assert abs(np.sum(np.abs(psi) ** 2) - 1.0) <= 1e-9


def test_blockade_symmetry_under_atom_swap(current_opt):
    gate = current_opt.gate
    da = drive(rabi=2 * np.pi * 1.23e6, detuning=gate.detuning + 2e4,
               g1=4e3, gr=1.2e3, ryd=1 / 112e-6)
    db = drive(rabi=2 * np.pi * 1.17e6, detuning=gate.detuning - 3e4,
               g1=3e3, gr=0.9e3, ryd=1 / 115e-6)
    blockade = 2 * np.pi * 12e6
    e1 = bell_error_of(gate, da, db, blockade)
    from dataclasses import replace
    gate_sw = replace(gate, virtual_rz=(gate.virtual_rz[1], gate.virtual_rz[0]))
    e2 = bell_error_of(gate_sw, db, da, blockade)
    assert abs(e1 - e2) < 1e-10


def test_convergence_under_step_halving(current_params, current_opt):
    gate = current_opt.gate
    batch = resolve_drives(current_params, gate)
    e1, e2 = (bell_error_from_pulse_state(
        bell_pulse_state(gate, batch, steps)[0], gate.virtual_rz)
        for steps in (100, 200))
    assert abs(e1 - e2) < 1e-6


def test_error_improves_monotonically_with_blockade():
    # a pulse solving the perfect-blockade limit: its decay-free error is a
    # decreasing function of the actual blockade strength
    omega = 2 * np.pi * 1.2e6
    d, omt, rate, depth, frac = -0.321582, 7.768888, 0.724820, 1.320176, 0.5
    duration = omt / omega
    base_gate = GateParams(d * omega, duration, rate * omega, depth,
                           frac * duration)
    errs = []
    for b_mhz in (12.0, 25.0, 60.0, 250.0, 1000.0):
        da = drive(rabi=omega, detuning=base_gate.detuning)
        db = drive(rabi=omega, detuning=base_gate.detuning)
        batch = pair(da, db, 2 * np.pi * b_mhz * 1e6)
        psi = pulse_state_nominal(base_gate, batch)[0]
        from rydsim.gate import optimal_virtual_rz
        errs.append(max(bell_error_from_pulse_state(psi, optimal_virtual_rz(psi)),
                        0.0))
    assert all(a >= b - 1e-10 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]


def test_decay_floor_linear_in_inverse_lifetime(current_opt):
    # only Rydberg decay enabled: error grows linearly in 1/tau_r
    gate = current_opt.gate
    omega = 2 * np.pi * 1.2e6
    taus = np.array([50e-6, 100e-6, 200e-6, 300e-6, 500e-6])
    errs = []
    for tau in taus:
        da = drive(rabi=omega, detuning=gate.detuning, ryd=1.0 / tau)
        db = drive(rabi=omega, detuning=gate.detuning, ryd=1.0 / tau)
        errs.append(bell_error_of(gate, da, db, 2 * np.pi * 12e6))
    x = 1.0 / taus
    coef = np.polyfit(x, errs, 1)
    fit = np.polyval(coef, x)
    ss_res = np.sum((np.array(errs) - fit) ** 2)
    ss_tot = np.sum((np.array(errs) - np.mean(errs)) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.999


# ---------------------------------------------------------------------------
# batched sector propagator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b_mhz, ref_steps",
                         [(12.0, 1000), (100.0, 2000), (1000.0, 16000)])
def test_batched_engine_matches_dense_reference(b_mhz, ref_steps,
                                                monkeypatch):
    # the reference RK4 resolves the blockade (B dt ~ 0.016 at 1 GHz); on
    # the 40 ns pulse both sectors take 70 steps, the default points per
    # period of the pulse itself, at all three blockades: the blockade floor
    # asks for only 54 (B h / 2 pi = 0.74) at 1 GHz
    steps = _sector_steps(monkeypatch)
    rng = np.random.default_rng(2)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    pairs = [
        (drive(rabi=2 * np.pi * 1.21e6, detuning=2 * np.pi * 0.3e6, g1=500.0,
               gr=800.0, ryd=1 / 112e-6),
         drive(rabi=2 * np.pi * 1.18e6, detuning=-2 * np.pi * 0.2e6, g1=300.0,
               gr=100.0, ryd=1 / 115e-6)),
        (drive(rabi=2 * np.pi * 0.9e6, detuning=-2 * np.pi * 0.5e6, g1=5e4,
               gr=1e4, ryd=1 / 50e-6),
         drive(rabi=2 * np.pi * 1.4e6, detuning=2 * np.pi * 0.1e6, g1=1e3,
               gr=2e4, ryd=1 / 90e-6)),
    ]
    blockade = 2 * np.pi * b_mhz * 1e6
    gate = phase_mod(40e-9)
    batch = batch_of(pairs, blockade)
    out = evolve_batch(np.stack([amps, amps]), batch, gate)
    assert steps == [((2, 4), 70), ((2, 2, 2), 70)]
    for shot, row in enumerate(out):
        ref = evolve_dense_reference(amps, batch, gate, nsteps=ref_steps,
                                     shot=shot)
        assert np.max(np.abs(row - ref)) < 1e-7


@pytest.mark.parametrize("b_mhz", [12.0, 1000.0])
def test_constant_drive_matches_exact_propagator(b_mhz):
    # with an unmodulated pulse H is time independent, the frame phases
    # vanish and the stages compose to the exact propagator expm(-iHT); at
    # 1 GHz the stage propagators have ||tau H0|| up to 17, above 1, so they
    # are scaled and squared
    from scipy.linalg import expm
    rng = np.random.default_rng(3)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    da = drive(rabi=2 * np.pi * 1.21e6, detuning=2 * np.pi * 0.3e6, g1=500.0,
               gr=800.0, ryd=1 / 112e-6)
    db = drive(rabi=2 * np.pi * 1.18e6, detuning=-2 * np.pi * 0.2e6, g1=300.0,
               gr=100.0, ryd=1 / 115e-6)
    blockade, gate = 2 * np.pi * b_mhz * 1e6, pulse(1e-6)
    batch = pair(da, db, blockade)
    exact = expm(-1j * gate.duration
                 * build_hamiltonian(batch, gate, 0.0)) @ amps
    out = evolve_batch(amps[None, :], batch, gate)[0]
    assert np.max(np.abs(out - exact)) < 1e-10


def test_fourth_order_convergence():
    # halving the step cuts the worst amplitude error about 16x (15.8x
    # measured); equal midpoint stages (second order) cut it 4x, and a stage
    # phase taken at the start of the stage instead of its midpoint 2x
    rng = np.random.default_rng(0)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    da = drive(rabi=2 * np.pi * 1.21e6, detuning=2 * np.pi * 0.3e6, g1=500.0,
               gr=800.0, ryd=1 / 112e-6)
    db = drive(rabi=2 * np.pi * 1.18e6, detuning=-2 * np.pi * 0.2e6, g1=300.0,
               gr=100.0, ryd=1 / 115e-6)
    batch, gate = pair(da, db, 2 * np.pi * 12e6), phase_mod(1e-6)
    ref = evolve_batch(amps[None, :], batch, gate, steps_per_period=1600)[0]
    err50, err100 = (np.max(np.abs(
        evolve_batch(amps[None, :], batch, gate, steps)[0] - ref))
        for steps in (50, 100))
    assert err50 >= 8.0 * err100


@pytest.mark.parametrize("preset", ["current", "projected"])
def test_sampled_shots_match_dense_reference(preset, request):
    # eight drawn shots under the full mask, on the optimized gate; the RK4
    # reference at 2000 steps is within 6e-10 of 1000 steps and 4e-11 of
    # 4000 steps on every shot
    params = request.getfixturevalue(f"{preset}_params")
    gate = request.getfixturevalue(f"{preset}_opt").gate
    batch = resolve_drive_batch(params, sample_shots(params, 0, 8),
                                MechanismMask(), gate)
    errs = bell_errors_batch(gate, batch)
    for shot, err in enumerate(errs):
        ref = evolve_dense_reference(bell_prep_state(), batch, gate,
                                     nsteps=2000, shot=shot)
        assert abs(err - bell_error_from_pulse_state(
            ref, gate.virtual_rz)) <= 1e-7


def _sector_steps(monkeypatch):
    """(sector shape, step count) of every `_evolve_sector` call, in call
    order: (2, 2n) is the single-atom sector of n shots, (2, 2, n) the pair
    sector; ``dict`` of it gives each sector's latest count."""
    steps, evolve = [], gate_mod._evolve_sector

    def counted(psi, diag, omegas, gate, nsteps, norm, dense):
        steps.append((psi.shape, nsteps))
        return evolve(psi, diag, omegas, gate, nsteps, norm, dense)
    monkeypatch.setattr(gate_mod, "_evolve_sector", counted)
    return steps


def test_blockade_sector_steps_grow_linearly_with_blockade(monkeypatch):
    # the [1:, 1:] sector takes 4/3 steps per blockade period once that is
    # more than the 101 the phase bandwidth sets: 1334 at 1 GHz, where 101
    # steps (B h / 2 pi = 9.9) are 1.1e-5 off
    steps = _sector_steps(monkeypatch)
    omega = 2 * np.pi * 1.2e6
    gate, psi0 = phase_mod(1e-6), bell_prep_state()[None, :]
    counts = {}
    for b_mhz in (12.0, 250.0, 500.0, 1000.0):
        batch = pair(drive(rabi=omega), drive(rabi=omega),
                     2 * np.pi * b_mhz * 1e6)
        out = evolve_batch(psi0, batch, gate, steps_per_period=70)[0]
        counts[b_mhz] = dict(steps)[(2, 2, 1)]
    assert counts[12.0] == dict(steps)[(2, 2)] == 101
    assert counts[1000.0] == math.ceil(1000e6 * gate.duration / 0.75) == 1334
    for b_mhz in (500.0, 1000.0):
        assert counts[b_mhz] <= 2 * counts[b_mhz / 2]
    fine = evolve_batch(psi0, batch, gate, steps_per_period=3200)[0]
    assert np.max(np.abs(out - fine)) <= 1e-7


@pytest.mark.parametrize("turns", [1.0, 2.0])
@pytest.mark.parametrize("drives", ["phase_mod", "projected"])
def test_blockade_resonance_is_stepped_over(drives, turns, projected_params):
    # the splitting error peaks where B h / 2 pi is a whole number; without
    # the blockade step floor these pulses are 3.6e-6 and 4.7e-6 off
    # (phase_mod) and 1.3e-5 and 1.7e-5 (projected, on the benchmark gate
    # pinned in golden_mc.json) at 70 points
    if drives == "projected":
        gate = GateParams(**json.loads(
            (Path(__file__).parent / "golden_mc.json").read_text())["gate"])
        batch = resolve_drives(projected_params, gate)
    else:
        omega = 2 * np.pi * 1.2e6
        gate = phase_mod(1e-6)
        batch = pair(drive(rabi=omega), drive(rabi=omega), 0.0)
    scale = max(float(np.max(np.abs(np.stack([batch.omega, batch.delta])))),
                gate_mod.phase_bandwidth(gate))
    h = gate.duration / gate_mod._steps_for(gate.duration, scale, 70)
    batch.blockade[:] = turns * 2 * np.pi / h
    err, ref = (bell_error_from_pulse_state(
        bell_pulse_state(gate, batch, steps)[0], gate.virtual_rz)
        for steps in (70, 3200))
    assert abs(err - ref) <= 1e-7


@pytest.mark.parametrize("preset", ["current", "projected"])
def test_sampled_shot_step_error(preset, request):
    # the scheme is fourth order, so |e(70) - e(140)| * 16/15 estimates the
    # step error of e(70) per shot
    params = request.getfixturevalue(f"{preset}_params")
    gate = request.getfixturevalue(f"{preset}_opt").gate
    batch = resolve_drive_batch(params, sample_shots(params, 7, 256),
                                MechanismMask(), gate)
    e70, e140 = (bell_error_from_pulse_state(
        bell_pulse_state(gate, batch, steps), gate.virtual_rz)
        for steps in (70, 140))
    assert np.max(np.abs(e70 - e140)) * 16.0 / 15.0 <= 1e-7


def test_norm_growth_raises():
    # a negative |r> loss rate is a gain; one such shot fails the batch
    omega = 2 * np.pi * 1.2e6
    da = drive(rabi=omega, g1=100.0, gr=100.0)
    batch = batch_of([(da, da)] * 3, 2 * np.pi * 12e6)
    psi0 = np.broadcast_to(bell_prep_state(), (3, 9))
    evolve_batch(psi0, batch, pulse(1e-6))
    batch.gammar[0, 1] = -1e5
    with pytest.raises(IntegrationError, match="norm grew"):
        evolve_batch(psi0, batch, pulse(1e-6))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.floats(0.05e-6, 1.5e-6),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2 * np.pi * 2e6),
    st.lists(st.floats(0.0, 1.0), min_size=9 * n, max_size=9 * n),
    st.integers(0, 2 ** 32 - 1))))
def test_norm_never_grows(case):
    n, duration, depth, rate, unit, seed = case
    u = np.array(unit).reshape(9, n)
    rng = np.random.default_rng(seed)
    batch = DriveBatch(
        omega=2 * np.pi * 3e6 * u[[0, 4]],
        delta=2 * np.pi * 4e6 * (u[[1, 5]] - 0.5),
        gamma1=1e6 * u[[2, 6]], gammar=1e6 * u[[3, 7]],
        blockade=2 * np.pi * 1000e6 * u[8])
    psi0 = rng.normal(size=(n, 9)) + 1j * rng.normal(size=(n, 9))
    psi0 /= np.linalg.norm(psi0, axis=1)[:, None]
    out = evolve_batch(psi0, batch, pulse(duration, depth, rate))
    assert np.all(np.sum(np.abs(out) ** 2, axis=1) <= 1.0 + 1e-9)



# ---------------------------------------------------------------------------
# the two routes of _evolve_sector
# ---------------------------------------------------------------------------

def _decay_off(params):
    """Acceptance criterion 1's decay-off config: B = 2 pi 1 GHz."""
    return replace(
        params, blockade_mhz=1000.0,
        rb=replace(params.rb, rydberg_lifetime_us=1e15,
                   intermediate_linewidth_mhz=1e-30),
        cs=replace(params.cs, rydberg_lifetime_us=1e15,
                   intermediate_linewidth_mhz=1e-30))


def _sampled_batch(case, n, request):
    """The optimized gate of a preset and n shots drawn under the full
    mask; "decay-off" draws them from criterion 1's config on `current`."""
    preset = "current" if case == "decay-off" else case
    params = request.getfixturevalue(f"{preset}_params")
    gate = request.getfixturevalue(f"{preset}_opt").gate
    if case == "decay-off":
        params = _decay_off(params)
    batch = resolve_drive_batch(params, sample_shots(params, 3, n),
                                MechanismMask(), gate)
    return gate, batch


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("preset", ["current", "projected"])
def test_stepping_route_matches_stage_loop(preset, chunk, request,
                                           monkeypatch):
    # the stepping route rotates only the rows holding |r>, which changes
    # no bit; nor do the chunks of frame rotations (88 steps in chunks of 7
    # leave 4 over)
    gate, batch = _sampled_batch(preset, 2048, request)
    if chunk:
        monkeypatch.setattr(gate_mod, "_CHUNK_STEPS", chunk)
    out = pulse_state_nominal(gate, batch)
    monkeypatch.setattr(gate_mod, "_evolve_sector", evolve_sector_stage_loop)
    assert np.array_equal(out, pulse_state_nominal(gate, batch))


def _hex(a):
    """float.hex of every real and imaginary part of ``a``."""
    return [float(v).hex() for v in np.ravel([a.real, a.imag])]


@pytest.mark.parametrize("n, dense", [
    (1, True), (gate_mod._DENSE_MAX_SHOTS, True), (2, False), (300, False)])
@pytest.mark.parametrize("preset", ["current", "projected"])
def test_single_atom_sector_equals_each_atom_alone(preset, n, dense, request,
                                                   monkeypatch):
    # the engine's single-atom sector call, split into atom A's and atom
    # B's halves, each evolved alone at the same count and bound, gives the
    # same bits on both routes (a one-shot half on the stepping route is
    # 2e-15 off, as numpy takes another path for length-1 products)
    gate, batch = _sampled_batch(preset, n, request)
    monkeypatch.setattr(gate_mod, "_DENSE_MAX_SHOTS", n if dense else n - 1)
    calls, evolve = [], gate_mod._evolve_sector

    def recorded(*args):
        calls.append(args)
        return evolve(*args)
    monkeypatch.setattr(gate_mod, "_evolve_sector", recorded)
    pulse_state_nominal(gate, batch)
    psi, diag, (omega,), *plan = calls[0]
    assert psi.shape == (2, 2 * n) and plan[-1] == dense
    halves = [evolve(psi[:, half], diag[:, half], [omega[half]], *plan)
              for half in (np.s_[:n], np.s_[n:])]
    assert _hex(evolve(psi, diag, [omega], *plan)) == _hex(
        np.concatenate(halves, axis=1))


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("n", [1, 3, 7, gate_mod._DENSE_MAX_SHOTS,
                               gate_mod._DENSE_MAX_SHOTS + 1])
@pytest.mark.parametrize("case", ["current", "projected", "decay-off"])
def test_dense_route_matches_stepping_route(case, n, chunk, request,
                                            monkeypatch):
    gate, batch = _sampled_batch(case, n, request)
    if chunk:
        monkeypatch.setattr(gate_mod, "_CHUNK_STEPS", chunk)
    steps = _sector_steps(monkeypatch)
    monkeypatch.setattr(gate_mod, "_DENSE_MAX_SHOTS", n)
    dense = pulse_state_nominal(gate, batch)
    monkeypatch.setattr(gate_mod, "_DENSE_MAX_SHOTS", n - 1)
    loop = pulse_state_nominal(gate, batch)
    # no sector's step count is a whole number of chunks, and at 1 GHz the
    # pair sector takes several chunks
    assert all(s % gate_mod._CHUNK_STEPS for _, s in steps)
    if case == "decay-off":
        assert dict(steps)[(2, 2, n)] > 1000
    assert np.max(np.abs(dense - loop)) <= 1e-13


@pytest.mark.parametrize("n, dense_calls", [
    (1, 2), (gate_mod._DENSE_MAX_SHOTS, 2), (gate_mod._DENSE_MAX_SHOTS + 1, 0)])
def test_route_is_picked_by_batch_size(n, dense_calls, monkeypatch):
    calls, dense = [], gate_mod._dense_product

    def counted(*args):
        calls.append(1)
        return dense(*args)
    monkeypatch.setattr(gate_mod, "_dense_product", counted)
    omega = 2 * np.pi * 1.2e6
    batch = batch_of([(drive(rabi=omega), drive(rabi=omega))] * n,
                     2 * np.pi * 12e6)
    pulse_state_nominal(phase_mod(1e-6), batch)
    assert len(calls) == dense_calls


def test_dense_route_memory_does_not_grow_with_steps(monkeypatch):
    # one shot whose pair sector takes 20 000 steps: the dense route
    # reduces its stage matrices and builds its frame rotations a chunk at a
    # time, so the peak stays near one chunk's worth (0.7 MB; 14 MB when all
    # rotations were built at once)
    steps = _sector_steps(monkeypatch)
    omega = 2 * np.pi * 1.2e6
    batch = pair(drive(rabi=omega), drive(rabi=omega), 2 * np.pi * 15e9)
    psi0 = bell_prep_state()[None, :]
    tracemalloc.start()
    try:
        evolve_batch(psi0, batch, phase_mod(1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dict(steps)[(2, 2, 1)] == 20_000
    assert peak < 2e6
