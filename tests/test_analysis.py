import math

import numpy as np
import pytest

from rydsim.analysis import (FitFailure, QndCounts, cz_fidelity,
                             cz_fidelity_from_fits, dirichlet_qnd,
                             fit_decay_oscillation, fit_geometric_decay)


# ---------------------------------------------------------------------------
# geometric decay fit
# ---------------------------------------------------------------------------

def test_geometric_fit_noiseless_round_trip():
    a_true, p_true = 0.98, 0.99
    depths = np.array([0, 1, 2, 4, 8])
    probs = a_true * p_true ** depths
    fit = fit_geometric_decay(depths, probs)
    assert fit.amplitude == pytest.approx(a_true, abs=1e-10)
    assert fit.per_gate == pytest.approx(p_true, abs=1e-10)


def test_geometric_fit_requires_three_depths():
    with pytest.raises(FitFailure):
        fit_geometric_decay([0, 0, 0], [0.9, 0.91, 0.89])
    with pytest.raises(FitFailure):
        fit_geometric_decay([0, 1], [0.9, 0.8])


def test_geometric_fit_rejects_constant_data():
    with pytest.raises(FitFailure):
        fit_geometric_decay([0, 1, 2, 4], [0.5, 0.5, 0.5, 0.5])


def test_geometric_fit_weight_scaling_invariance():
    depths = np.array([0, 1, 2, 4, 8])
    rng = np.random.default_rng(3)
    probs = 0.97 * 0.985 ** depths + 0.003 * rng.normal(size=len(depths))
    w = rng.uniform(0.5, 2.0, size=len(depths))
    f1 = fit_geometric_decay(depths, probs, weights=w)
    f2 = fit_geometric_decay(depths, probs, weights=7.3 * w)
    # agreement limited by solver tolerance, not by the weighting itself
    assert f1.per_gate == pytest.approx(f2.per_gate, abs=1e-9)
    assert f1.amplitude == pytest.approx(f2.amplitude, abs=1e-9)


def test_geometric_fit_coverage_with_binomial_noise():
    # P recovered within its reported 1 sigma in >= 60% of repetitions
    rng = np.random.default_rng(11)
    a_true, p_true = 0.97, 0.975
    depths = np.array([0, 1, 2, 4, 6, 8])
    shots = 500
    hits = 0
    reps = 1000
    for _ in range(reps):
        p_model = a_true * p_true ** depths
        meas = rng.binomial(shots, p_model) / shots
        sig = np.sqrt(np.maximum(meas * (1 - meas), 1e-4) / shots)
        try:
            fit = fit_geometric_decay(depths, meas, weights=1.0 / sig)
        except FitFailure:
            continue
        if abs(fit.per_gate - p_true) <= fit.per_gate_err:
            hits += 1
    assert hits >= 0.60 * reps


# ---------------------------------------------------------------------------
# CZ fidelity formula
# ---------------------------------------------------------------------------

def test_cz_fidelity_perfect():
    assert cz_fidelity(1.0, 1.0, 0.0) == 1.0


def test_cz_fidelity_derived_triple():
    # direct arithmetic: sigma = (1 - 0.002 - 0.98)/(1 - 0.002),
    # F = 0.99 * 0.998 * (1 - 0.75 sigma) = 0.974655 exactly
    sigma = (1.0 - 0.002 - 0.98) / (1.0 - 0.002)
    expected = 0.99 * 0.998 * (1.0 - 0.75 * sigma)
    assert expected == pytest.approx(0.974655, abs=1e-9)
    assert cz_fidelity(0.99, 0.98, 0.002) == pytest.approx(expected, abs=1e-15)


def test_cz_fidelity_default_leak():
    # conservative leakage estimate 0.002 is the default
    assert cz_fidelity(0.99, 0.98) == cz_fidelity(0.99, 0.98, 0.002)


def test_cz_fidelity_monotonicity():
    grid = np.linspace(0.85, 0.99, 7)
    for p_bb in grid:
        vals = [cz_fidelity(p_ret, p_bb, 0.002) for p_ret in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    for p_ret in grid:
        vals = [cz_fidelity(p_ret, p_bb, 0.002) for p_bb in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    for p_ret in grid:
        vals = [cz_fidelity(p_ret, 0.9, leak) for leak in (0.0, 0.002, 0.01, 0.05)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_cz_fidelity_input_validation():
    with pytest.raises(ValueError):
        cz_fidelity(1.2, 0.9, 0.0)
    with pytest.raises(ValueError):
        cz_fidelity(0.9, 0.999, 0.05)   # P_bb|ret above 1 - P_leak


def test_cz_fidelity_from_fits():
    depths = np.array([0, 1, 2, 4, 8])
    ret = fit_geometric_decay(depths, 0.98 * 0.995 ** depths)
    bb = fit_geometric_decay(depths, 0.97 * 0.97 ** depths)
    out = cz_fidelity_from_fits(ret, bb, p_leak=0.002)
    assert out["p_ret"] == pytest.approx(0.995, abs=1e-9)
    assert out["p_bb_given_ret"] == pytest.approx(0.97 / 0.995, abs=1e-9)
    assert out["fidelity"] == pytest.approx(
        cz_fidelity(0.995, 0.97 / 0.995, 0.002), abs=1e-12)


# ---------------------------------------------------------------------------
# Dirichlet / Beta statistics
# ---------------------------------------------------------------------------

def test_dirichlet_uniform_prior_no_data():
    res = dirichlet_qnd([QndCounts("s", 0, 0)])
    assert res.per_state["s"][0] == 0.5


def test_dirichlet_beta_mean():
    res = dirichlet_qnd([QndCounts("s", 93, 7)])
    assert res.per_state["s"][0] == pytest.approx(94.0 / 102.0, abs=1e-15)
    assert res.per_state["s"][0] == pytest.approx(0.92157, abs=5e-6)


def test_dirichlet_all_correct():
    res = dirichlet_qnd([QndCounts("s", 50, 0)])
    mean, std = res.per_state["s"]
    assert mean == pytest.approx(51.0 / 52.0, abs=1e-15)
    assert std == pytest.approx(math.sqrt(mean * (1 - mean) / 53.0), abs=1e-15)
    assert std > 0.0


def test_dirichlet_means_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(0, 51))
        n = int(rng.integers(k, 60))
        res = dirichlet_qnd([QndCounts("s", k, n - k)])
        assert 0.0 < res.per_state["s"][0] < 1.0


def test_dirichlet_adding_correct_never_decreases_mean():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(0, 30))
        wrong = int(rng.integers(0, 30))
        m1 = dirichlet_qnd([QndCounts("s", k, wrong)]).per_state["s"][0]
        m2 = dirichlet_qnd([QndCounts("s", k + 1, wrong)]).per_state["s"][0]
        assert m2 >= m1


def test_dirichlet_aggregate():
    counts = [QndCounts("a", 90, 10), QndCounts("b", 80, 20)]
    res = dirichlet_qnd(counts)
    means = [res.per_state["a"][0], res.per_state["b"][0]]
    stds = [res.per_state["a"][1], res.per_state["b"][1]]
    assert res.aggregate_mean == pytest.approx(np.mean(means), abs=1e-15)
    assert res.aggregate_std == pytest.approx(
        math.sqrt(stds[0] ** 2 + stds[1] ** 2) / 2.0, abs=1e-15)


def test_dirichlet_rejects_negative_counts():
    with pytest.raises(ValueError):
        QndCounts("s", -1, 5)


# ---------------------------------------------------------------------------
# decay / oscillation fits
# ---------------------------------------------------------------------------

def test_exponential_fit_round_trip():
    tau = 9.6    # seconds-scale lifetime
    t = np.linspace(0, 5.0, 12)
    y = 0.995 * np.exp(-t / tau)
    fit = fit_decay_oscillation(t, y, model="exponential")
    assert fit["tau"] == pytest.approx(tau, rel=1e-9)
    assert fit["amplitude"] == pytest.approx(0.995, rel=1e-9)


def test_oscillation_fit_recovers_frequency():
    f_true = 1.175e6    # Ramsey-Stark oscillation frequency
    t = np.linspace(0, 4e-6, 120)
    y = 0.5 + 0.45 * np.exp(-((t / 15e-6) ** 2)) * np.cos(
        2 * np.pi * f_true * t + 0.3)
    fit = fit_decay_oscillation(t, y, model="gaussian-envelope-sinusoid")
    assert fit["frequency"] == pytest.approx(f_true, rel=1e-3)


def test_constant_data_gives_zero_rate():
    t = np.linspace(0, 2.0, 10)
    fit = fit_decay_oscillation(t, np.full(10, 0.7), model="exponential")
    assert abs(fit["rate"]) < 1e-8


@pytest.mark.filterwarnings("ignore:Covariance of the parameters")
def test_oscillation_fit_rejects_constant_data():
    # only the offset is constrained: the fit would return its starting
    # guess with an infinite covariance
    with pytest.raises(FitFailure, match="covariance"):
        fit_decay_oscillation(np.arange(8.0), np.full(8, 0.7),
                              model="gaussian-envelope-sinusoid")


# one distinct time, or all-zero values, would return the starting guess
DEGENERATE_DECAY = [
    pytest.param("exponential", [2.0] * 5, [1, 0.9, 0.8, 0.7, 0.6],
                 id="exponential-one-time"),
    pytest.param("exponential", range(6), [0.0] * 6, id="exponential-zeros"),
    pytest.param("gaussian-envelope-sinusoid", range(6), [0.0] * 6,
                 id="gaussian-zeros"),
]


@pytest.mark.parametrize("model, times, values", DEGENERATE_DECAY)
def test_decay_fit_rejects_degenerate_data(model, times, values):
    with pytest.raises(FitFailure, match="distinct times|all values are zero"):
        fit_decay_oscillation(times, values, model)


def test_decay_fit_requires_points():
    with pytest.raises(FitFailure):
        fit_decay_oscillation([0, 1, 2, 3], [1, 0.9, 0.8, 0.7])


def test_decay_fit_unknown_model():
    with pytest.raises(ValueError):
        fit_decay_oscillation(np.arange(5), np.ones(5), model="lorentzian")
