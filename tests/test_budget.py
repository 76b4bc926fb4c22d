import json
import math
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rydsim.budget import (EXCLUSION_MECHANISMS, adiabatic_trace, decay_floor,
                           exclusion_table, monte_carlo_error, optimize_gate,
                           sweep_temperature_power)
from rydsim import budget, gate as gate_mod
from rydsim.gate import GateParams, bell_errors_batch
from rydsim.noise import MechanismMask, nominal_shot, resolve_drive_batch
from rydsim.params import ConfigError, load_preset


def test_optimized_error_sits_at_decay_floor(current_opt):
    assert current_opt.converged
    assert abs(current_opt.error - current_opt.decay_floor) <= 2e-4
    assert current_opt.error > 0.0
    gate = current_opt.gate
    assert gate.phase_mod_delay == 0.5 * gate.duration


def test_optimizer_fails_after_one_search(current_params, monkeypatch,
                                         tmp_path, capsys):
    # a decay floor of 0 sets the threshold to 1e-6, which 60 evaluations
    # do not reach: the one search fails, with no retry, and the CLI exits 3
    from scipy import optimize
    from rydsim.cli import main
    real_minimize, searches = optimize.minimize, []

    def minimize(fun, x0, **kwargs):
        searches.append(x0)
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(budget, "decay_floor", lambda params, gate: 0.0)
    monkeypatch.setattr(budget, "_MAXFEV", 60)
    monkeypatch.setattr(optimize, "minimize", minimize)
    with pytest.raises(budget.OptimizationFailure):
        optimize_gate(current_params)
    assert len(searches) == 1
    out = tmp_path / "opt"
    assert main(["budget", "optimize", "--config", "current",
                 "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "gate.json").exists()


def test_search_cut_off_at_the_limit_is_flagged(current_params, monkeypatch,
                                               tmp_path, capsys):
    # 60 evaluations stop the search short of converging but below the
    # failure threshold: the pulse comes back flagged, and the CLI warns on
    # stderr and writes gate.json with the keys it always has
    from rydsim.cli import main
    monkeypatch.setattr(budget, "_MAXFEV", 60)
    res = optimize_gate(current_params)
    assert not res.converged and res.nfev >= 60
    out = tmp_path / "opt"
    assert main(["budget", "optimize", "--config", "current",
                 "--out", str(out)]) == 0
    assert "evaluation limit" in capsys.readouterr().err
    doc = json.loads((out / "gate.json").read_text())
    assert set(doc) == ({f.name for f in fields(GateParams)}
                        | {"error", "decay_floor", "nfev"})


@pytest.mark.parametrize("preset", ["current", "projected"])
def test_reported_error_is_searched_objective(preset, request):
    # the optimizer scores pulses at the engine's default stepping, so its
    # reported error is its own objective at the returned pulse
    params = request.getfixturevalue(f"{preset}_params")
    res = request.getfixturevalue(f"{preset}_opt")
    omega, gate = params.rabi_rad_s(), res.gate
    x = (gate.detuning / omega, gate.duration * omega,
         gate.phase_mod_rate / omega, gate.phase_mod_depth)
    assert abs(budget._objective(params, omega)(x) - res.error) <= 1e-12


def test_single_seed_finds_low_blockade_optimum(projected_params):
    # at B/Omega = 5.2 the one pulse seed still reaches the decay floor; a
    # search from (0.0338, 9.32, 1.35, 0.935) lands about 7e-4 above it
    res = optimize_gate(replace(projected_params, blockade_mhz=13.0))
    assert res.error <= res.decay_floor + 1e-5


def test_projected_optimum(projected_opt):
    assert abs(projected_opt.error - projected_opt.decay_floor) <= 2e-4
    # shorter pulse at the higher projected Rabi rate
    assert projected_opt.gate.duration < 0.6e-6
    gate = projected_opt.gate
    assert gate.phase_mod_delay == 0.5 * gate.duration


# the frozen projected gate of perfbench/data/gate_projected.json
_FROZEN_GATE = GateParams(
    detuning=-4099507.8100330182, duration=4.945406739896419e-07,
    phase_mod_rate=11871078.001087084, phase_mod_depth=1.2263436530847254,
    phase_mod_delay=2.4727033698545954e-07,
    virtual_rz=(1.9588270892143624, 1.958827077490788))


@pytest.mark.parametrize("preset, integral", [
    ("current", 0.004230412979), ("projected", 0.002372122655)])
def test_decay_floor_matches_population_integral(preset, integral):
    # integral: the decay-free pulse's pair-state populations integrated
    # over time and weighted with their loss rates, by the trapezoid rule at
    # 3200 points per period (1600 points per period differ by 1e-11)
    assert abs(decay_floor(load_preset(preset), _FROZEN_GATE)
               - integral) <= 1e-10


def test_monte_carlo_all_off_equals_noiseless(current_params, current_opt):
    # no sampling spread: every shot reproduces the single noiseless error of
    # the all-mechanisms-off system (decay bits included in the mask)
    gate = current_opt.gate
    mask = MechanismMask.all_off()
    rep = monte_carlo_error(current_params, gate, mask,
                            shots=100, seed=3)
    noiseless = bell_errors_batch(gate, resolve_drive_batch(
        current_params, nominal_shot(), mask, gate))[0]
    assert rep.std_error == 0.0
    assert np.all(rep.errors == rep.errors[0])
    assert rep.mean_error == pytest.approx(max(noiseless, 0.0), abs=1e-12)


def test_monte_carlo_shot_errors_bounded(current_params, current_opt):
    rep = monte_carlo_error(current_params, current_opt.gate, shots=300,
                            seed=9)
    assert np.all(rep.errors >= 0.0) and np.all(rep.errors <= 1.0)
    assert 0.0 < rep.mean_error < 1.0
    assert rep.integration_failures == 0


def test_monte_carlo_deterministic(current_params, current_opt):
    r1 = monte_carlo_error(current_params, current_opt.gate, shots=200, seed=4)
    r2 = monte_carlo_error(current_params, current_opt.gate, shots=200, seed=4)
    assert r1.mean_error == r2.mean_error
    assert r1.std_error == r2.std_error


def test_monte_carlo_requires_min_shots(current_params, current_opt):
    with pytest.raises(ValueError):
        monte_carlo_error(current_params, current_opt.gate, shots=50, seed=0)


def test_doppler_error_linear_in_temperature(current_params, current_opt):
    temps = np.array([1.0, 5.0, 10.0, 15.0, 20.0])
    mask = MechanismMask.only("atom_velocity")
    errs = []
    for t in temps:
        local = replace(current_params, atom_temperature_uk=float(t))
        rep = monte_carlo_error(local, current_opt.gate, mask, shots=800,
                                seed=12)
        errs.append(rep.mean_error)
    coef = np.polyfit(temps, errs, 1)
    resid = np.array(errs) - np.polyval(coef, temps)
    r2 = 1.0 - np.sum(resid ** 2) / np.sum((errs - np.mean(errs)) ** 2)
    assert r2 > 0.99
    assert coef[0] > 0.0


def test_exclusion_linear_sum_identity(current_params, current_opt):
    rep = exclusion_table(current_params, current_opt.gate, shots=150, seed=6)
    assert len(rep.rows) == len(EXCLUSION_MECHANISMS) == 14
    assert rep.linear_sum == pytest.approx(
        sum(r.contribution for r in rep.rows), abs=1e-15)
    assert rep.quadrature_sum == pytest.approx(
        np.sqrt(sum(r.contribution ** 2 for r in rep.rows)), abs=1e-15)


def test_exclusion_rows_reproducible_across_seeds(current_params, current_opt):
    """Re-evaluated rows under a fresh seed agree within 3 combined sigma."""
    gate = current_opt.gate
    r1 = exclusion_table(current_params, gate, shots=1500, seed=21)
    r2 = exclusion_table(current_params, gate, shots=1500, seed=22)
    by_name_1 = {r.mechanism: r for r in r1.rows}
    by_name_2 = {r.mechanism: r for r in r2.rows}
    for name in ("Doppler (atom velocity)", "pulse energy fluctuation (blue)",
                 "blockade fluctuation (localization)"):
        a, b = by_name_1[name], by_name_2[name]
        sigma = np.hypot(a.std_error, b.std_error)
        assert abs(a.contribution - b.contribution) <= 3.0 * max(sigma, 1e-9)


def test_sweep_all_off_is_flat(current_params, current_opt):
    grid = sweep_temperature_power(
        current_params, current_opt.gate, [2.0, 8.0], [2.8, 10.0],
        shots=100, seed=2, mask=MechanismMask.all_off())
    assert np.ptp(grid.errors) <= 1e-12


def test_sweep_single_point(current_params, current_opt):
    grid = sweep_temperature_power(current_params, current_opt.gate,
                                   [4.0], [2.8], shots=120, seed=2)
    assert grid.errors.shape == (1, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_adiabatic_trace_rejects_nonpositive_powers(current_params,
                                                    current_opt):
    # the powers are checked before T ~ sqrt(P) is taken, with no warning
    with pytest.raises(ConfigError, match="trap_power_mw must be positive"):
        adiabatic_trace(current_params, current_opt.gate, [-1.0, 0.0, 1.0],
                        shots=100)


def test_adiabatic_trace_curve_shapes(current_params, current_opt):
    powers = np.array([2.8, 7.0, 16.0, 40.0])
    tr = adiabatic_trace(current_params, current_opt.gate, powers,
                         shots=600, seed=15)
    # T follows the cooling law anchored at the configured operating point
    assert tr.temperatures_uk[0] == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(tr.temperatures_uk,
                       4.0 * np.sqrt(powers / 2.8), rtol=1e-12)
    # with velocity frozen, only localization errors remain, which shrink as
    # the traps stiffen at higher power
    assert tr.error_velocity_frozen[-1] < tr.error_velocity_frozen[0]
    # with position frozen, Doppler errors grow with temperature (power)
    assert tr.error_position_frozen[-1] > tr.error_position_frozen[0]


@pytest.mark.parametrize("preset", ["current", "projected"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(block=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
@example(block=1, seed=1)
def test_block_size_does_not_change_results(preset, current_opt, block,
                                            seed):
    # the engine plans the whole batch (step counts, Taylor bounds, route)
    # before it blocks it, so a block of two or more shots changes no bit.
    # A one-shot block (blocks of 1, or the last of 149 on 150 shots) moves
    # its error by up to 2.9e-15, as numpy takes another path for complex
    # products on length-1 arrays.  A plan per block moves far more: blocks
    # of 1 then moved the frozen `projected` gate's errors by up to 4.0e-10
    # (seed 1)
    params = load_preset(preset)
    gate = {"current": current_opt.gate, "projected": _FROZEN_GATE}[preset]
    ref = monte_carlo_error(params, gate, shots=150, seed=seed)
    with mock.patch.object(gate_mod, "_BLOCK_SHOTS", block):
        rep = monte_carlo_error(params, gate, shots=150, seed=seed)
    assert np.max(np.abs(rep.errors - ref.errors)) <= 1e-14
    assert rep.integration_failures == ref.integration_failures


def test_each_mask_resolves_its_sample_once(current_params, current_opt,
                                            monkeypatch):
    # a 300-shot exclusion table resolves its one sample once per mask, 15
    # times, scores each of those batches in one engine call, and the
    # engine plans each in 64-shot blocks
    resolve, batches = budget.resolve_drive_batch, []

    def recorded_resolve(params, samples, mask, g):
        batches.append(resolve(params, samples, mask, g))
        return batches[-1]

    monkeypatch.setattr(gate_mod, "_BLOCK_SHOTS", 64)
    monkeypatch.setattr(budget, "resolve_drive_batch", recorded_resolve)
    calls = _counted_evolve(monkeypatch)
    exclusion_table(current_params, current_opt.gate, shots=300, seed=5)
    assert calls == [300] * (1 + len(EXCLUSION_MECHANISMS)) == [300] * 15
    assert [gate_mod.plan_batch(b, current_opt.gate).blocks
            for b in batches] == [tuple(
                slice(lo, min(lo + 64, 300)) for lo in range(0, 300, 64))] * 15


def _poison(resolve, poison, shot, mask=None):
    """``resolve_drive_batch`` with the shot whose atom A position is
    ``shot`` failing to integrate, under ``mask`` only when it is given: a
    negative Rydberg decay rate makes its norm grow, a NaN Rabi frequency is
    rejected before stepping, and a blockade of 1e20 rad/s needs more than
    `gate._MAX_STEPS` steps."""
    def poisoned(params, samples, mask_, g):
        batch = resolve(params, samples, mask_, g)
        if mask is not None and mask_ != mask:
            return batch
        hit = np.all(samples["position_um"][:, 0] == shot, axis=-1)
        field, value = {"norm_growth": ("gammar", -1e5),
                        "nan_omega": ("omega", np.nan),
                        "step_limit": ("blockade", 1e20)}[poison]
        rates = getattr(batch, field).copy()
        rates[..., hit] = value
        return replace(batch, **{field: rates})
    return poisoned


def _counted_evolve(monkeypatch):
    """Patch `gate.evolve_batch` to record each call's shot count."""
    evolve, calls = gate_mod.evolve_batch, []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return evolve(*args, **kwargs)
    monkeypatch.setattr(gate_mod, "evolve_batch", counted)
    return calls


@pytest.mark.parametrize("poison", ["norm_growth", "nan_omega", "step_limit"])
def test_one_failing_shot_is_left_out(projected_params, projected_opt,
                                      monkeypatch, poison):
    # one shot of 300 fails to integrate: the run makes one engine call,
    # that shot comes back NaN, and every other shot's error is the clean
    # run's
    gate, shots = projected_opt.gate, 300
    clean = monte_carlo_error(projected_params, gate, shots=shots, seed=2)
    bad_pos = budget.sample_shots(projected_params, 2, shots)[123][
        "position_um"][0].copy()
    monkeypatch.setattr(budget, "resolve_drive_batch", _poison(
        budget.resolve_drive_batch, poison, bad_pos))
    calls = _counted_evolve(monkeypatch)
    rep = monte_carlo_error(projected_params, gate, shots=shots, seed=2)
    assert rep.integration_failures == 1
    assert np.isnan(rep.errors[123])
    others = np.arange(shots) != 123
    assert np.array_equal(rep.errors[others], clean.errors[others])
    assert calls == [shots]


def test_every_shot_failing_aborts_after_one_call(projected_params,
                                                  projected_opt, monkeypatch):
    resolve = budget.resolve_drive_batch

    def poisoned(params, samples, mask, g):
        batch = resolve(params, samples, mask, g)
        return replace(batch, omega=np.full_like(batch.omega, np.nan))
    monkeypatch.setattr(budget, "resolve_drive_batch", poisoned)
    calls = _counted_evolve(monkeypatch)
    with pytest.raises(budget.MonteCarloAbort, match="300/300 shots"):
        monte_carlo_error(projected_params, projected_opt.gate, shots=300,
                          seed=2)
    assert calls == [300]


def test_exclusion_row_leaves_out_a_shot_failing_under_its_mask(
        current_params, current_opt, monkeypatch):
    # shot 57 fails under the Rydberg-decay-off mask only: that row is the
    # clean row taken over the other shots, and the others are unchanged
    gate, shots, flag = current_opt.gate, 200, "rydberg_decay"
    mask = MechanismMask().without(flag)
    clean = exclusion_table(current_params, gate, shots=shots, seed=4)
    base, excl = (monte_carlo_error(current_params, gate, m, shots, seed=4)
                  for m in (MechanismMask(), mask))
    bad_pos = budget.sample_shots(current_params, 4, shots)[57][
        "position_um"][0].copy()
    monkeypatch.setattr(budget, "resolve_drive_batch", _poison(
        budget.resolve_drive_batch, "norm_growth", bad_pos, mask))
    calls = _counted_evolve(monkeypatch)
    rep = exclusion_table(current_params, gate, shots=shots, seed=4)
    assert calls == [shots] * (1 + len(EXCLUSION_MECHANISMS))
    diff = np.delete(base.errors - excl.errors, 57)
    row = next(i for i, (f, _) in enumerate(EXCLUSION_MECHANISMS)
               if f == flag)
    assert rep.rows[row] == budget.BudgetRow(
        EXCLUSION_MECHANISMS[row][1], float(np.mean(diff)),
        float(np.std(diff, ddof=1) / math.sqrt(len(diff))))
    assert [r for i, r in enumerate(rep.rows) if i != row] == [
        r for i, r in enumerate(clean.rows) if i != row]
    assert rep.total == clean.total


def test_optimize_with_failing_nominal_pulse_exits_3(monkeypatch, tmp_path,
                                                     capsys):
    # the nominal pulse needs more steps than allowed: the optimizer's
    # first evaluation raises IntegrationError and the CLI exits 3
    from rydsim.cli import main
    monkeypatch.setattr(gate_mod, "_MAX_STEPS", 8)
    out = tmp_path / "opt"
    assert main(["budget", "optimize", "--config", "projected",
                 "--out", str(out)]) == 3
    assert "failed to integrate" in capsys.readouterr().err
    assert not (out / "gate.json").exists()


def test_report_dict_round_trips(current_params, current_opt):
    rep = monte_carlo_error(current_params, current_opt.gate, shots=100, seed=1)
    doc = rep.as_dict()
    assert doc["shots"] == 100 and doc["seed"] == 1
    assert set(doc["mask"]) == set(MechanismMask().as_dict())


# ---------------------------------------------------------------------------
# golden Monte Carlo pin
# ---------------------------------------------------------------------------

_GOLDEN_MC = Path(__file__).parent / "golden_mc.json"


def monte_carlo_pins(gate: GateParams) -> dict:
    """Per preset, float.hex of `monte_carlo_error`'s mean and std and its
    first 16 per-shot errors, on 512 shots (seed 7) through ``gate``."""
    pins = {}
    for preset in ("current", "projected"):
        rep = monte_carlo_error(load_preset(preset), gate, shots=512, seed=7)
        pins[preset] = {"mean_error": rep.mean_error.hex(),
                        "std_error": rep.std_error.hex(),
                        "errors": [float(e).hex() for e in rep.errors[:16]]}
    return pins


def repin_golden_mc():
    """Rewrite the pins of ``golden_mc.json`` from the code as it stands."""
    golden = json.loads(_GOLDEN_MC.read_text())
    golden["pins"] = monte_carlo_pins(GateParams(**golden["gate"]))
    _GOLDEN_MC.write_text(json.dumps(golden, indent=1) + "\n")


def test_golden_monte_carlo_pins_errors():
    """(params, gate, shots, seed) -> Monte Carlo bytes is fixed; an engine,
    step-count or sampler change that moves them fails here."""
    golden = json.loads(_GOLDEN_MC.read_text())
    assert monte_carlo_pins(GateParams(**golden["gate"])) == golden["pins"]
