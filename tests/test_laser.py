import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from rydsim.laser import (FitError, LaserNoiseModel, ServoBump, carrier_weight,
                          delay_time, error_vs_rabi_curve, fit_heterodyne,
                          heterodyne_spectrum, model_from_json, model_to_json,
                          psd_frequency, psd_phase, rabi_error, read_trace,
                          two_photon_error)

from oracles import (rabi_error_full_panels, rabi_error_per_point,
                     trajectory_rabi_error)

TD = 48.9e-6


def white(h0, s_dark=0.0):
    return LaserNoiseModel(h0=h0, s_dark=s_dark, t_d=TD)


# ---------------------------------------------------------------------------
# PSDs
# ---------------------------------------------------------------------------

def test_white_psd_flat():
    m = white(2.0)
    f = np.logspace(1, 7, 30)
    assert np.all(psd_frequency(m, f) == 2.0)


def test_reported_white_floors():
    # VECSEL-based lasers ~2 Hz^2/Hz, Ti:Sa ~12 Hz^2/Hz
    assert psd_frequency(white(2.0), 1e5) == 2.0
    assert psd_frequency(white(12.0), 1e5) == 12.0


def test_bump_peak_value():
    b = ServoBump(h=70.0, f=19216.0, sigma=310.0)
    m = LaserNoiseModel(h0=2.0, bumps=(b,), t_d=TD)
    val = psd_frequency(m, b.f)
    mirror_bound = b.h * math.exp(-2.0 * b.f ** 2 / b.sigma ** 2)
    assert val == pytest.approx(2.0 + b.h, abs=mirror_bound + 1e-12)


def test_phase_psd_is_frequency_over_f2():
    m = LaserNoiseModel(h0=3.0, bumps=(ServoBump(5.0, 1e5, 2e3),), t_d=TD)
    f = np.array([1e3, 1e4, 1e5])
    assert np.allclose(psd_phase(m, f), psd_frequency(m, f) / f ** 2, rtol=1e-14)
    with pytest.raises(ValueError):
        psd_phase(m, 0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        LaserNoiseModel(h0=-1.0)
    with pytest.raises(ValueError):
        ServoBump(h=1.0, f=-5.0, sigma=10.0)
    with pytest.raises(ValueError):
        LaserNoiseModel(h0=1.0, t_d=0.0)


# ---------------------------------------------------------------------------
# self-heterodyne spectrum
# ---------------------------------------------------------------------------

def test_noiseless_limit_pure_carrier():
    m = white(0.0)
    f = np.linspace(1.0, 1e6, 100)
    assert np.all(heterodyne_spectrum(m, f) == 0.0)
    assert carrier_weight(m) == 1.0


def test_bump_heterodyne_amplitude_at_center():
    b = ServoBump(h=100.0, f=2.3e5, sigma=1.5e3)
    m = LaserNoiseModel(h0=0.0, bumps=(b,), t_d=TD)
    expected = (4.0 * b.h / b.f ** 2) * math.sin(math.pi * b.f * TD) ** 2 \
        * (1.0 + math.exp(-2.0 * b.f ** 2 / b.sigma ** 2))
    assert heterodyne_spectrum(m, b.f) == pytest.approx(expected, rel=1e-12)


def test_delay_time_10km_fiber():
    td = delay_time(10e3, group_index=1.468)
    assert td == pytest.approx(48.9e-6, abs=0.1e-6)


def test_normalization_sampled_models():
    # total power (broadband + carrier) stays within 1e-3 of unity for
    # realistic small-bump models with s_dark = 0
    rng = np.random.default_rng(42)
    for _ in range(12):
        h0 = rng.uniform(0.1, 15.0)
        bumps = []
        for _ in range(rng.integers(0, 3)):
            f_j = rng.uniform(3e4, 4e5)
            sigma = rng.uniform(3e2, f_j / 20.0)
            h_max = 2.5e-5 * f_j ** 2 / (4.0 * sigma * math.sqrt(2 * math.pi))
            bumps.append(ServoBump(h=rng.uniform(0.1, h_max), f=f_j,
                                   sigma=sigma))
        m = LaserNoiseModel(h0=h0, bumps=tuple(bumps), t_d=TD)
        pts = sorted({b.f for b in bumps} | {1e3, 1e5})
        broadband, _ = integrate.quad(
            lambda f: heterodyne_spectrum(m, f), 0.0, 5e6,
            points=[p for p in pts if p < 5e6], limit=300)
        total = 2.0 * broadband + carrier_weight(m)
        assert total == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _synthetic_trace(model, noise_frac, seed):
    rng = np.random.default_rng(seed)
    f = np.linspace(2e3, 6e5, 500)
    y = heterodyne_spectrum(model, f)
    y = y * (1.0 + noise_frac * rng.normal(size=len(f)))
    return f, y


def test_fit_round_trip_exact():
    truth = LaserNoiseModel(h0=2.0, bumps=(ServoBump(40.0, 1.2e5, 8e3),),
                            s_dark=1e-10, t_d=TD)
    f, y = _synthetic_trace(truth, 0.0, 0)
    start = LaserNoiseModel(h0=3.0, bumps=(ServoBump(30.0, 1.25e5, 6e3),),
                            s_dark=5e-11, t_d=TD)
    fit = fit_heterodyne(f, y, start)
    assert fit.model.h0 == pytest.approx(truth.h0, rel=1e-6)
    assert fit.model.bumps[0].f == pytest.approx(1.2e5, rel=1e-6)
    assert fit.residual_rms < 1e-12


def test_fit_round_trip_with_noise():
    truth = LaserNoiseModel(h0=2.0, bumps=(ServoBump(40.0, 1.2e5, 8e3),),
                            s_dark=1e-10, t_d=TD)
    f, y = _synthetic_trace(truth, 0.01, 3)
    start = LaserNoiseModel(h0=3.5, bumps=(ServoBump(25.0, 1.3e5, 6e3),),
                            s_dark=3e-10, t_d=TD)
    fit = fit_heterodyne(f, y, start)
    assert fit.model.h0 == pytest.approx(2.0, rel=0.05)


def test_fit_flags_white_only_regime():
    # all structure below the analyzer dark floor
    truth = white(0.05, s_dark=1e-6)
    f, y = _synthetic_trace(truth, 0.005, 1)
    fit = fit_heterodyne(f, y, white(0.1, s_dark=5e-7))
    assert fit.white_only


_PERFBENCH_DATA = Path(__file__).parent.parent / "perfbench" / "data"


def _central_jacobian(x, f):
    """Central differences of heterodyne_spectrum(_unpack(x)) at steps of
    1e-5 |x_i|."""
    from rydsim.laser import _unpack
    cols = []
    for i, step in enumerate(1e-5 * np.abs(x)):
        up, down = x.copy(), x.copy()
        up[i] += step
        down[i] -= step
        cols.append((heterodyne_spectrum(_unpack(up, TD), f)
                     - heterodyne_spectrum(_unpack(down, TD), f)) / (2 * step))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("point", [
    "truth", "start", "noisy-start", "white-start", "perfbench-initial",
    "h0-clamped", "h-clamped"])
def test_fit_jacobian_matches_central_differences(point):
    """The closed-form Jacobian the fit uses, column by column within 1e-6
    of the column's largest entry; a clamped parameter's column, and the
    f and sigma columns of a bump whose h is clamped, are zero."""
    from rydsim.laser import _het_jacobian, _pack
    bump = (ServoBump(40.0, 1.2e5, 8e3),)
    x = _pack({
        "truth": LaserNoiseModel(h0=2.0, bumps=bump, s_dark=1e-10, t_d=TD),
        "start": LaserNoiseModel(h0=3.0, bumps=(ServoBump(30.0, 1.25e5, 6e3),),
                                 s_dark=5e-11, t_d=TD),
        "noisy-start": LaserNoiseModel(
            h0=3.5, bumps=(ServoBump(25.0, 1.3e5, 6e3),), s_dark=3e-10,
            t_d=TD),
        "white-start": white(0.1, s_dark=5e-7),
        "perfbench-initial": model_from_json(
            (_PERFBENCH_DATA / "laser_initial.json").read_text()),
    }.get(point, LaserNoiseModel(h0=2.0, bumps=bump, s_dark=1e-10, t_d=TD)))
    if point == "h0-clamped":
        x[0] = -0.5
    if point == "h-clamped":
        x[2] = -1.0
    f = np.linspace(2e3, 6e5, 500)
    jac, ref = _het_jacobian(x, TD, f), _central_jacobian(x, f)
    for i in range(len(x)):
        scale = np.max(np.abs(jac[:, i]))
        assert np.max(np.abs(jac[:, i] - ref[:, i])) <= 1e-6 * scale, i
    zero = {"h0-clamped": [0], "h-clamped": [2, 3, 4]}.get(point, [])
    assert all(not jac[:, i].any() for i in zero)
    assert all(jac[:, i].any() for i in range(len(x)) if i not in zero)


def test_fit_requires_enough_samples():
    with pytest.raises(FitError):
        fit_heterodyne(np.arange(1, 10), np.ones(9), white(1.0))


@pytest.mark.parametrize("centre", [1e-300, 1.25e5], ids=["start", "driven"])
def test_fit_raises_when_a_bump_centre_reaches_zero(centre):
    # a centre at `_unpack`'s 1e-300 floor has f^2 = 0, where the bump's
    # spectrum is not finite: given so at the start, or driven there by the
    # fit of a white-noise trace, which used to raise ZeroDivisionError
    f, y = _synthetic_trace(white(2.0, s_dark=1e-10), 0.01, 28)
    start = LaserNoiseModel(h0=3.0, bumps=(ServoBump(30.0, centre, 6e3),),
                            s_dark=5e-11, t_d=TD)
    with pytest.raises(FitError, match="centre to zero"):
        fit_heterodyne(f, y, start)


# ---------------------------------------------------------------------------
# Rabi rotation error
# ---------------------------------------------------------------------------

def test_rabi_error_zero_psd():
    assert rabi_error(white(0.0), 2 * np.pi * 1e6, 2) == 0.0


def test_rabi_error_white_level_below_1e3():
    eps = rabi_error(white(2.0), 2 * np.pi * 1e6, 2)
    assert 0.0 < eps < 1e-3


def test_rabi_error_matches_trajectory_oracle():
    om = 2 * np.pi * 1e6
    spectral = rabi_error(white(2.0), om, 2, f_max=20e6)
    oracle = trajectory_rabi_error(2.0, om, 2, n_traj=1000, seed=7)
    assert spectral == pytest.approx(oracle, rel=0.10)


def test_rabi_error_additive_in_psd():
    om = 2 * np.pi * 1.3e6
    b = ServoBump(30.0, 2.1e5, 4e3)
    m1 = white(1.5)
    m2 = LaserNoiseModel(h0=0.0, bumps=(b,), t_d=TD)
    m12 = LaserNoiseModel(h0=1.5, bumps=(b,), t_d=TD)
    e1 = rabi_error(m1, om, 2)
    e2 = rabi_error(m2, om, 2)
    e12 = rabi_error(m12, om, 2)
    assert e12 == pytest.approx(e1 + e2, rel=1e-5)


def test_scalar_rabi_integrand_matches_array_form():
    """The scalar integrand equals psd_frequency and np.sinc bit for bit."""
    from rydsim.laser import _rabi_integrand
    rng = np.random.default_rng(5)
    m = LaserNoiseModel(h0=1.7, bumps=(ServoBump(40.0, 1.2e5, 8e3),
                                       ServoBump(9.0, 3.1e5, 2e4)), t_d=TD)
    for n_half in (1, 2, 3):
        om = 2 * np.pi * 1.3e6
        g = _rabi_integrand(m, om, n_half)
        fs = np.concatenate([rng.uniform(0.0, 5e5, 400),
                             rng.uniform(0.0, 1.3e8, 200), [om / (2 * np.pi)]])
        for f in fs:
            a = np.asarray(f)
            sinc = np.sinc(n_half * ((om - 2.0 * math.pi * a) / om))
            pref = 8.0 * math.pi ** 2 * om ** 2 * (math.pi * n_half / om) ** 2
            ref = (pref * psd_frequency(m, a) * sinc ** 2
                   / (om + 2.0 * math.pi * a) ** 2)
            assert float(g(float(f))).hex() == float(ref).hex(), (n_half, f)


def _converged_rabi_error(model, omega0, n_half, f_max=None):
    """`scipy.integrate.quad` at epsrel 1e-12 on every span between filter
    zeros f_res (1 + k/N) and bump grid points b.f + k sigma, |k| <= 10."""
    f_res = omega0 / (2 * np.pi)
    f_max = 100.0 * f_res if f_max is None else f_max
    pts = {0.0, f_max}
    pts.update(f_res * (1.0 + k / n_half)
               for k in range(-n_half, int(n_half * f_max / f_res) + 1))
    for b in model.bumps:
        pts.update(b.f + k * b.sigma for k in range(-10, 11))
    pts = sorted(p for p in pts if 0.0 <= p <= f_max)
    pref = 8.0 * math.pi ** 2 * omega0 ** 2 * (math.pi * n_half / omega0) ** 2

    def g(f):
        sinc = np.sinc(n_half * (omega0 - 2.0 * math.pi * f) / omega0)
        return (pref * psd_frequency(model, f) * sinc ** 2
                / (omega0 + 2.0 * math.pi * f) ** 2)
    return math.fsum(integrate.quad(g, a, b, epsrel=1e-12, epsabs=0.0,
                                    limit=200)[0]
                     for a, b in zip(pts, pts[1:]))


RABI_MODELS = {
    "perfbench": LaserNoiseModel(h0=2.0, bumps=(ServoBump(40.0, 1.2e5, 8e3),),
                                 s_dark=1e-10, t_d=TD),
    "two-bump": LaserNoiseModel(h0=1.7, bumps=(ServoBump(40.0, 1.2e5, 8e3),
                                               ServoBump(9.0, 3.1e5, 2e4)),
                                t_d=TD),
    # f_b < 10 sigma: the mirror Gaussian at -f_b reaches f >= 0
    "mirror": LaserNoiseModel(h0=2.0, bumps=(ServoBump(50.0, 3e4, 5e3),),
                              t_d=TD),
    # sigma above the filter-lobe width f_res / N at every rate below
    "wide": LaserNoiseModel(h0=0.5, bumps=(ServoBump(20.0, 2e6, 1.5e6),),
                            t_d=TD),
    # centred above f_max = 100 f_res at 0.2 MHz, inside it at the faster
    # rates, where many filter zeros fall within its +-10 sigma; h is large
    # so that the bump carries about 1 % of the error there
    "far": LaserNoiseModel(h0=2.0, bumps=(ServoBump(3e5, 3e7, 2e5),),
                           t_d=TD),
    # b.f +- 10 sigma straddles f_max = 20 MHz at 0.2 MHz, where the half
    # inside carries about 1 % of the error
    "straddle": LaserNoiseModel(h0=2.0, bumps=(ServoBump(3e6, 2e7, 5e5),),
                                t_d=TD),
    # no white floor that could hide an error of the bump part
    "bump-only": LaserNoiseModel(h0=0.0, bumps=(ServoBump(40.0, 1.2e5, 8e3),
                                                ServoBump(50.0, 3e4, 5e3)),
                                 t_d=TD),
}


@pytest.mark.parametrize("n_half", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(RABI_MODELS))
def test_rabi_error_matches_converged_reference(name, n_half):
    m = RABI_MODELS[name]
    for f_rabi in (0.2e6, 0.7e6, 1.3e6):
        om = 2 * np.pi * f_rabi
        assert rabi_error(m, om, n_half) == pytest.approx(
            _converged_rabi_error(m, om, n_half), rel=1e-10, abs=0.0)
    if name == "two-bump" and n_half == 2:
        om = 2 * np.pi * 1e6
        assert rabi_error(m, om, 2, f_max=20e6) == pytest.approx(
            _converged_rabi_error(m, om, 2, f_max=20e6), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n_half", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(RABI_MODELS))
def test_rabi_error_matches_full_panel_oracle(name, n_half):
    """The white part and the windowed bump parts sum to the single
    full-panel rule to rounding."""
    m = RABI_MODELS[name]
    for f_rabi in (0.2e6, 0.7e6, 1.3e6):
        om = 2 * np.pi * f_rabi
        assert rabi_error(m, om, n_half) == pytest.approx(
            rabi_error_full_panels(m, om, n_half), rel=1e-14, abs=0.0)
        assert rabi_error(m, om, n_half, f_max=20e6) == pytest.approx(
            rabi_error_full_panels(m, om, n_half, f_max=20e6),
            rel=1e-14, abs=0.0)


def test_rabi_error_input_validation():
    for kwargs in ({"omega0": -1.0}, {"omega0": 0.0}, {"omega0": math.nan},
                   {"omega0": math.inf}, {"n_half": 0}, {"n_half": 1.5},
                   {"n_half": True}, {"n_half": math.nan},
                   {"n_half": math.inf}, {"f_max": math.nan},
                   {"f_max": math.inf}, {"f_max": 0.0}, {"f_max": -1e6}):
        args = {"omega0": 2 * np.pi * 1e6, "n_half": 2, **kwargs}
        with pytest.raises(ValueError):
            rabi_error(white(1.0), **args)


@pytest.mark.parametrize("n_half", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(RABI_MODELS))
def test_curve_matches_per_point_oracle(name, n_half):
    """The batched curve against the per-point integration it replaced,
    with the default f_max and an explicit one.  RABI_MODELS["perfbench"]
    is also the model of the golden pins."""
    from rydsim.laser import _rabi_errors
    m = RABI_MODELS[name]
    omegas = 2 * np.pi * np.linspace(0.2e6, 4e6, 25)
    for f_max, curve in ((None, error_vs_rabi_curve(m, omegas, n_half)),
                         (20e6, _rabi_errors(m, omegas, n_half, 20e6))):
        ref = [rabi_error_per_point(m, om, n_half, f_max) for om in omegas]
        assert curve == pytest.approx(ref, rel=1e-15, abs=0.0), f_max


_SPLIT_GRID = 2 * np.pi * np.linspace(0.2e6, 4e6, 40)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(RABI_MODELS)), n_half=st.integers(1, 3),
       order=st.permutations(range(len(_SPLIT_GRID))),
       size=st.integers(1, len(_SPLIT_GRID)),
       cuts=st.lists(st.integers(1, len(_SPLIT_GRID) - 1), max_size=4))
def test_curve_point_does_not_depend_on_the_rest_of_the_grid(
        name, n_half, order, size, cuts):
    """Any subset, reordering or split of a grid gives every point the same
    float as the whole grid."""
    m = RABI_MODELS[name]
    whole = error_vs_rabi_curve(m, _SPLIT_GRID, n_half)
    picked = np.array(order[:size])
    for part in np.split(picked, sorted(c for c in cuts if c < size)):
        values = error_vs_rabi_curve(m, _SPLIT_GRID[part], n_half)
        assert [v.hex() for v in values] == [whole[i].hex() for i in part]


def test_curve_rejects_bad_grids():
    m = RABI_MODELS["two-bump"]
    for omegas, words in (([2e6, 3e6, math.nan], ["nan", "index 2"]),
                          ([2e6, -1.0], ["-1.0", "index 1"]),
                          ([0.0], ["0.0", "index 0"]),
                          ([2e6, math.inf], ["inf", "index 1"]),
                          (2e6, ["1-D"]), ([[2e6, 3e6]], ["1-D"])):
        with pytest.raises(ValueError) as err:
            error_vs_rabi_curve(m, omegas)
        assert all(w in str(err.value) for w in words), (omegas, err.value)


def test_white_curve_monotone_decreasing():
    omegas = 2 * np.pi * np.array([0.3e6, 0.6e6, 1e6, 2e6, 4e6])
    curve = error_vs_rabi_curve(white(2.0), omegas, n_half=2)
    assert np.all(np.diff(curve) < 0.0)


def test_bump_curve_exceeds_white_curve():
    omegas = 2 * np.pi * np.array([0.5e6, 1e6, 2e6])
    m = LaserNoiseModel(h0=2.0, bumps=(ServoBump(200.0, 2.3e5, 5e3),), t_d=TD)
    full = error_vs_rabi_curve(m, omegas, n_half=2)
    wh = error_vs_rabi_curve(m, omegas, n_half=2, include_bumps=False)
    assert np.all(full > wh)


@pytest.mark.parametrize("name", sorted(RABI_MODELS))
def test_bump_curve_never_below_white_curve(name):
    """The bump parts are added to the white part, each >= 0, so no rounding
    can put the full curve below the white-only one."""
    m = RABI_MODELS[name]
    omegas = 2 * np.pi * np.linspace(0.2e6, 4e6, 25)
    for n_half in (1, 2, 3):
        full = error_vs_rabi_curve(m, omegas, n_half=n_half)
        wh = error_vs_rabi_curve(m, omegas, n_half=n_half,
                                 include_bumps=False)
        assert np.all(full >= wh), (n_half, omegas[full < wh])


def test_curve_is_pointwise_rabi_error():
    m = RABI_MODELS["two-bump"]
    omegas = 2 * np.pi * np.linspace(0.2e6, 4e6, 25)
    curve = error_vs_rabi_curve(m, omegas, n_half=2)
    assert [v.hex() for v in curve] == [
        rabi_error(m, float(om), 2).hex() for om in omegas]


def test_white_curve_computes_one_filter_integral():
    """A default-range curve, whatever its rates, needs I_N once."""
    from rydsim.laser import _white_filter_integral
    _white_filter_integral.cache_clear()
    error_vs_rabi_curve(white(2.0), 2 * np.pi * np.linspace(0.2e6, 4e6, 60))
    assert _white_filter_integral.cache_info().misses == 1


def test_two_photon_error_adds_linearly():
    om = 2 * np.pi * 1e6
    red, blue = white(2.0), white(12.0)
    assert two_photon_error(red, blue, om, 2) == pytest.approx(
        rabi_error(red, om, 2) + rabi_error(blue, om, 2), rel=1e-12)
    assert two_photon_error(red, blue, om, 2) < 1e-3


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

def test_model_json_round_trip():
    m = LaserNoiseModel(h0=2.5, bumps=(ServoBump(10.0, 1e5, 1e3),),
                        s_dark=1e-9, t_d=TD)
    m2 = model_from_json(model_to_json(m))
    assert m2 == m


def test_read_trace(tmp_path):
    p = tmp_path / "trace.txt"
    p.write_text("# freq psd\n1e3 0.5\n2e3, 0.25\n\n3e3\t0.125\n")
    f, v = read_trace(p)
    assert np.array_equal(f, [1e3, 2e3, 3e3])
    assert np.array_equal(v, [0.5, 0.25, 0.125])
    bad = tmp_path / "bad.txt"
    bad.write_text("1e3 0.5 7\n")
    with pytest.raises(ValueError):
        read_trace(bad)


# ---------------------------------------------------------------------------
# golden pins
# ---------------------------------------------------------------------------

_GOLDEN_QND = Path(__file__).parent / "golden_qnd.json"
_REPIN_MAX_REL_MOVE = 1e-14   # a larger move is a numerical change


def _golden_rabi_curves(spec):
    """Each case of the ``rabi_error`` golden section with its curve as the
    code computes it now, in float.hex."""
    model = model_from_json(json.dumps(spec["model"]))
    omegas = np.array(spec["omegas_mhz"]) * 2.0 * np.pi * 1e6
    for case in spec["cases"]:
        curve = error_vs_rabi_curve(model, omegas, n_half=case["n_half"],
                                    include_bumps=case["include_bumps"])
        yield case, [float(v).hex() for v in curve]


def test_golden_rabi_error_pins_floats():
    """rabi_error on a fixed grid is pinned bit for bit (float.hex)."""
    spec = json.loads(_GOLDEN_QND.read_text())["rabi_error"]
    for case, values in _golden_rabi_curves(spec):
        assert values == case["values"], (case["include_bumps"],
                                          case["n_half"])


def repin_golden_rabi() -> float:
    """Rewrite the ``rabi_error`` pins of ``golden_qnd.json`` from the code as
    it stands, and return the largest relative move.  Refuses, writing
    nothing, if a value moves by more than ``_REPIN_MAX_REL_MOVE`` relative;
    the other sections are left as they are.  Run it from the repository
    root with ``PYTHONPATH=src:tests python -c "import test_laser as t;
    print(t.repin_golden_rabi())"``."""
    golden = json.loads(_GOLDEN_QND.read_text())
    worst = 0.0
    for case, values in _golden_rabi_curves(golden["rabi_error"]):
        for old_hex, new_hex in zip(case["values"], values, strict=True):
            old, new = float.fromhex(old_hex), float.fromhex(new_hex)
            move = abs(new - old) / abs(old)
            if not move <= _REPIN_MAX_REL_MOVE:
                raise ValueError(f"{old_hex} -> {new_hex} moves by {move:.3g}"
                                 " relative")
            worst = max(worst, move)
        case["values"] = values
    _GOLDEN_QND.write_text(json.dumps(golden, indent=1) + "\n")
    return worst
