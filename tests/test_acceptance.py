"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here from the project requirements; nothing is deferred
to later calibration.  Reference numbers quoted in comments come from the
measured system these simulations model.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rydsim.analysis import QndCounts, cz_fidelity, dirichlet_qnd, fit_geometric_decay
from rydsim.budget import exclusion_table, monte_carlo_error, optimize_gate
from rydsim.cli import main
from rydsim.gate import bell_errors_batch
from rydsim.laser import (LaserNoiseModel, ServoBump, carrier_weight,
                          fit_heterodyne, heterodyne_spectrum, rabi_error)
from rydsim.noise import resolve_drives
from rydsim.params import load_preset
from rydsim.qnd import NoiseChannelParams, exact_distribution, parse_circuit, predicted_fqnd, simulate
from rydsim.trap import (BlockadeModel, GaussianCloud, TrapSpec,
                         adiabatic_temperature, average_blockade,
                         blockade_point, localization_sigmas)

from oracles import trajectory_rabi_error


def report(num, description, ok):
    print(f"\nACCEPTANCE {num}: {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {description}"


# ---------------------------------------------------------------------------

def test_criterion_1_noiseless_optimized_cz(current_params, current_opt):
    t0 = time.time()
    no_decay = replace(
        current_params, blockade_mhz=1000.0,
        rb=replace(current_params.rb, rydberg_lifetime_us=1e15,
                   intermediate_linewidth_mhz=1e-30),
        cs=replace(current_params.cs, rydberg_lifetime_us=1e15,
                   intermediate_linewidth_mhz=1e-30))
    res_ideal = optimize_gate(no_decay)
    ideal_ok = res_ideal.error <= 1e-6

    floor_gap = abs(current_opt.error - current_opt.decay_floor)
    floor_ok = floor_gap <= 2e-4
    elapsed = time.time() - t0
    print(f"\n  decay-off, B=2pi*1000 MHz: error = {res_ideal.error:.3e} "
          f"(<= 1e-6)")
    print(f"  current decay rates: |error - floor| = {floor_gap:.3e} "
          f"(<= 2e-4), error {current_opt.error:.6f}, "
          f"floor {current_opt.decay_floor:.6f}")
    print(f"  runtime {elapsed:.0f} s (<= 300 s)")
    report(1, "noiseless optimized CZ at the decay floor",
           ideal_ok and floor_ok and elapsed <= 300.0)


def test_criterion_2_baseline_monte_carlo(current_params, current_opt,
                                          projected_params, projected_opt):
    t0 = time.time()
    rep_cur = monte_carlo_error(current_params, current_opt.gate,
                                shots=10_000, seed=11)
    rep_proj = monte_carlo_error(projected_params, projected_opt.gate,
                                 shots=10_000, seed=11)
    elapsed = time.time() - t0
    cur_ok = 0.015 <= rep_cur.mean_error <= 0.035      # reported 0.0232(2)
    proj_ok = 0.002 <= rep_proj.mean_error <= 0.006    # reported 0.003403(9)
    print(f"\n  current total error  = {rep_cur.mean_error:.4f} "
          f"+- {rep_cur.std_error:.4f}  (band [0.015, 0.035])")
    print(f"  projected total error = {rep_proj.mean_error:.5f} "
          f"+- {rep_proj.std_error:.5f}  (band [0.002, 0.006])")
    print(f"  runtime {elapsed:.0f} s (<= 1800 s)")
    report(2, "baseline Monte Carlo totals in band",
           cur_ok and proj_ok and elapsed <= 1800.0)


def test_criterion_3_exclusion_table(current_params, current_opt):
    rep = exclusion_table(current_params, current_opt.gate, shots=10_000,
                          seed=11)
    ordered = [r.mechanism for r in rep.sorted_rows()]
    top_ok = ordered[0] == "intermediate state decay"
    # reported rank order of the top four mechanisms; at least 3 of the 4
    # must appear in the simulated top four
    reported_top4 = ["intermediate state decay",
                  "pulse energy fluctuation (blue)",
                  "Rydberg state decay",
                  "Doppler (atom velocity)"]
    matched = len(set(reported_top4) & set(ordered[:4]))
    rank_ok = matched >= 3
    lin_ok = abs(rep.linear_sum - rep.total) <= 0.25 * rep.total
    print("\n  top mechanisms:")
    for r in rep.sorted_rows()[:5]:
        print(f"    {r.mechanism:<42s} {r.contribution:+.5f}")
    print(f"  top-4 membership match: {matched}/4 (need >= 3)")
    print(f"  total {rep.total:.4f}, linear sum {rep.linear_sum:.4f} "
          f"(|diff| <= 25% of total)")
    report(3, "exclusion table rank structure and linear-sum consistency",
           top_ok and rank_ok and lin_ok)


def test_criterion_4_trap_physics_exact():
    t_rb = adiabatic_temperature(15.4, 1.1, 0.073)
    t_cs = adiabatic_temperature(17.3, 2.0, 0.136)
    ok_t = abs(t_rb - 3.97) <= 0.01 and abs(t_cs - 4.51) <= 0.01
    sr_i, sz_i = localization_sigmas(TrapSpec(1.7, 1064.0, 1.1, 15.4))
    sr_f, sz_f = localization_sigmas(TrapSpec(1.7, 1064.0, 0.136, 4.3))
    ok_s = (abs(sr_i - 0.10) <= 0.005 and abs(sz_i - 0.71) <= 0.005
            and abs(sr_f - 0.15) <= 0.005 and abs(sz_f - 1.1) <= 0.05)
    print(f"\n  adiabatic: {t_rb:.3f} uK (3.97), {t_cs:.3f} uK (4.51)")
    print(f"  localization: ({sr_i:.3f}, {sz_i:.3f}) um vs (0.10, 0.71); "
          f"({sr_f:.3f}, {sz_f:.3f}) um vs (0.15, 1.1)")
    report(4, "trap physics formulas reproduce published values", ok_t and ok_s)


def test_criterion_5_blockade():
    model = BlockadeModel.from_reference(12.01, 5.85)
    exact_ok = blockade_point(model, 5.85) == 12.01

    # estimator agreement in the physical geometry (axial spread transverse
    # to the interatomic axis), 1e6 samples
    rb = GaussianCloud((0.0, 0.0, 0.0), (0.18, 0.18, 1.3))
    cs = GaussianCloud((5.85, 0.0, 0.0), (0.15, 0.15, 1.1))
    q = average_blockade(rb, cs, model, method="quadrature")
    mc = average_blockade(rb, cs, model, method="mc", samples=1_000_000, seed=5)
    agree_ok = abs(q.mean_mhz - mc.mean_mhz) <= 3.0 * max(mc.stderr_mhz, 1e-12)

    # tweezer-average convention of the source analysis: the axial spread is
    # taken along the interatomic axis, and close encounters raise the mean
    rb_p = GaussianCloud((0.0, 0.0, 0.0), (1.3, 0.18, 0.18))
    cs_p = GaussianCloud((5.85, 0.0, 0.0), (1.1, 0.15, 0.15))
    avg = average_blockade(rb_p, cs_p, model, method="mc",
                           samples=1_000_000, seed=5)
    above_ok = avg.mean_mhz > blockade_point(model, 5.85)
    print(f"\n  B(5.85 um) = {blockade_point(model, 5.85)} MHz (exact)")
    print(f"  estimators: quad {q.mean_mhz:.4f} vs mc {mc.mean_mhz:.4f} "
          f"+- {mc.stderr_mhz:.4f} MHz")
    print(f"  <B> = {avg.mean_mhz:.1f} MHz > B(d) = 12.01 MHz")
    report(5, "blockade calibration, estimator agreement, averaged blockade",
           exact_ok and agree_ok and above_ok)


def test_criterion_6_laser_noise():
    om = 2 * np.pi * 1e6
    model = LaserNoiseModel(h0=2.0, t_d=48.9e-6)
    eps = rabi_error(model, om, 2, f_max=20e6)
    level_ok = eps < 1e-3
    oracle = trajectory_rabi_error(2.0, om, 2, n_traj=1000, seed=7)
    oracle_ok = abs(eps - oracle) <= 0.10 * oracle

    truth = LaserNoiseModel(h0=2.0, bumps=(ServoBump(40.0, 1.2e5, 8e3),),
                            s_dark=1e-10, t_d=48.9e-6)
    rng = np.random.default_rng(3)
    f = np.linspace(2e3, 6e5, 500)
    y = heterodyne_spectrum(truth, f) * (1 + 0.01 * rng.normal(size=500))
    fit = fit_heterodyne(f, y, LaserNoiseModel(
        h0=3.5, bumps=(ServoBump(25.0, 1.3e5, 6e3),), s_dark=3e-10,
        t_d=48.9e-6))
    fit_ok = abs(fit.model.h0 - 2.0) <= 0.05 * 2.0

    from scipy import integrate
    m = LaserNoiseModel(h0=5.0, bumps=(ServoBump(20.0, 1.5e5, 2e3),),
                        t_d=48.9e-6)
    broadband, _ = integrate.quad(lambda x: heterodyne_spectrum(m, x),
                                  0.0, 5e6, points=[1e3, 1e5, 1.5e5],
                                  limit=300)
    total = 2.0 * broadband + carrier_weight(m)
    norm_ok = abs(total - 1.0) <= 1e-3
    print(f"\n  white-noise 2pi rotation error = {eps:.2e} (< 1e-3)")
    print(f"  trajectory oracle = {oracle:.2e} (within 10%: "
          f"{abs(eps - oracle) / oracle:.1%})")
    print(f"  round-trip h0 = {fit.model.h0:.3f} (within 5% of 2.0)")
    print(f"  spectrum normalization = {total:.6f} (within 1e-3 of 1)")
    report(6, "laser noise level, oracle agreement, fit round trip, "
              "normalization", level_ok and oracle_ok and fit_ok and norm_ok)


def test_criterion_7_analysis_formulas():
    # direct arithmetic of the fidelity formula on the derived triple
    sigma = (1.0 - 0.002 - 0.98) / (1.0 - 0.002)
    expected = 0.99 * 0.998 * (1.0 - 0.75 * sigma)   # = 0.974655 exactly
    cz_ok = (abs(cz_fidelity(0.99, 0.98, 0.002) - expected) <= 1e-7
             and cz_fidelity(1.0, 1.0, 0.0) == 1.0)

    counts = [(93, 100), (50, 50), (0, 0), (7, 19)]
    beta_ok = all(
        dirichlet_qnd([QndCounts("s", k, n - k)]).per_state["s"][0]
        == pytest.approx((k + 1.0) / (n + 2.0), abs=1e-14)
        for k, n in counts)

    depths = np.array([0, 1, 2, 4, 8])
    fit = fit_geometric_decay(depths, 0.98 * 0.99 ** depths)
    rb_ok = (abs(fit.amplitude - 0.98) <= 1e-10
             and abs(fit.per_gate - 0.99) <= 1e-10)
    print(f"\n  cz_fidelity(0.99, 0.98, 0.002) = "
          f"{cz_fidelity(0.99, 0.98, 0.002):.7f} (= {expected:.7f})")
    print(f"  Beta means exact on {len(counts)} count sets")
    print(f"  geometric fit round trip: A err {abs(fit.amplitude - 0.98):.1e}, "
          f"P err {abs(fit.per_gate - 0.99):.1e}")
    report(7, "analysis formulas exact", cz_ok and beta_ok and rb_ok)


def test_criterion_8_qnd_circuits():
    from importlib import resources
    qnd2 = parse_circuit(resources.files("rydsim")
                         .joinpath("circuits/qnd2.txt").read_text())
    qnd3 = parse_circuit(resources.files("rydsim")
                         .joinpath("circuits/qnd3.txt").read_text())

    noiseless_ok = True
    for d in (0, 1):
        for a in (0, 1):
            dist = exact_distribution(qnd2, NoiseChannelParams(), f"{d}{a}")
            noiseless_ok &= dist.get(f"{d}{a ^ d}", 0.0) > 1.0 - 1e-9
    for c1 in (0, 1):
        for a in (0, 1):
            for c2 in (0, 1):
                dist = exact_distribution(qnd3, NoiseChannelParams(),
                                          f"{c1}{a}{c2}")
                noiseless_ok &= dist.get(f"{c1}{a ^ c1 ^ c2}{c2}", 0.0) \
                    > 1.0 - 1e-9

    noise = NoiseChannelParams(depolarizing=0.025)
    f2 = predicted_fqnd(qnd2, noise)
    f3 = predicted_fqnd(qnd3, noise)
    order_ok = f3 < f2     # measured ordering 0.865 < 0.93

    shots = 100_000
    traj_ok = True
    noisy = NoiseChannelParams(depolarizing=0.05, leak=0.01, loss=0.02,
                               spam=0.01)
    dist = exact_distribution(qnd3, noisy, "101")
    hist = simulate(qnd3, noisy, ["101"], shots=shots, seed=7)["101"]
    worst_z = 0.0
    for outcome in set(dist) | set(hist):
        p = dist.get(outcome, 0.0)
        n = hist.get(outcome, 0)
        sd = max(math.sqrt(shots * p * (1.0 - p)), 1.0)
        z = abs(n - shots * p) / sd
        worst_z = max(worst_z, z)
        traj_ok &= z <= 4.0
    print(f"\n  noiseless circuits deterministic and correct on all inputs")
    print(f"  F_QND(sigma=0.025): 3-atom {f3:.4f} < 2-atom {f2:.4f}")
    print(f"  trajectory vs exact at 1e5 shots: worst |z| = {worst_z:.2f} "
          f"(<= 4)")
    report(8, "QND circuit semantics, ordering, sampler agreement",
           noiseless_ok and order_ok and traj_ok)


def test_criterion_9_cli_determinism(tmp_path, current_opt):
    gate_path = tmp_path / "gate.json"
    g = current_opt.gate
    gate_path.write_text(json.dumps({
        "detuning": g.detuning, "duration": g.duration,
        "phase_mod_rate": g.phase_mod_rate,
        "phase_mod_depth": g.phase_mod_depth,
        "phase_mod_delay": g.phase_mod_delay,
        "virtual_rz": list(g.virtual_rz)}))
    from importlib import resources
    circuit = str(resources.files("rydsim").joinpath("circuits/qnd3.txt"))
    counts = tmp_path / "counts.csv"
    counts.write_text("state,correct,incorrect\n00,93,7\n11,88,12\n")
    from rydsim.laser import model_to_json
    model_file = tmp_path / "model.json"
    model_file.write_text(model_to_json(LaserNoiseModel(h0=2.0, t_d=48.9e-6)))

    commands = {
        "budget_run": ["budget", "run", "--config", "current", "--gate",
                       str(gate_path), "--shots", "150", "--seed", "5"],
        "qnd_sim": ["qnd", "simulate", "--circuit", circuit, "--sigma",
                    "0.03", "--loss", "0.01", "--shots", "2000", "--seed", "9"],
        "analyze_qnd": ["analyze", "qnd", "--data", str(counts)],
        "laser_curve": ["laser", "rabi-error", "--model", str(model_file),
                        "--omega-grid", "0.5:2:4"],
        "sweep_adiabatic": ["sweep", "adiabatic", "--config", "current",
                            "--gate", str(gate_path), "--powers", "2.8:40:2",
                            "--shots", "120", "--seed", "3"],
    }
    all_ok = True
    for name, argv in commands.items():
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}_{rep}"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0, name
            artifacts = json.loads((out / "manifest.json").read_text())[
                "artifacts"]
            outs.append({a: (out / a).read_bytes() for a in artifacts})
        same = outs[0] == outs[1]
        print(f"\n  {name}: artifacts byte-identical across reruns: {same}")
        all_ok &= same
    report(9, "CLI reruns with fixed seed are byte-identical", all_ok)


def test_integrator_cross_validation(current_params, current_opt):
    """Fixed-step engine vs an adaptive reference on the baseline gate."""
    from scipy.integrate import solve_ivp
    from rydsim.gate import bell_prep_state, build_hamiltonian, \
        bell_error_from_pulse_state
    gate = current_opt.gate
    batch = resolve_drives(current_params, gate)

    def rhs(t, y):
        return -1j * (build_hamiltonian(batch, gate, t) @ y)

    sol = solve_ivp(rhs, (0.0, gate.duration), bell_prep_state(),
                    rtol=1e-10, atol=1e-12, method="DOP853")
    err_ref = bell_error_from_pulse_state(sol.y[:, -1], gate.virtual_rz)
    err_fix = bell_errors_batch(gate, batch)[0]
    diff = abs(err_ref - err_fix)
    print(f"\n  fixed-step {err_fix:.8f} vs adaptive {err_ref:.8f} "
          f"(diff {diff:.2e})")
    report("A", "fixed-step integrator agrees with adaptive reference",
           diff < 1e-6)
