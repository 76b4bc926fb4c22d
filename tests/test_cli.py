import argparse
import configparser
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rydsim
from rydsim import budget, qnd
from rydsim.cli import build_parser, main
from rydsim.laser import LaserNoiseModel, ServoBump, heterodyne_spectrum, model_to_json
from rydsim.params import (dumps_params, load_preset, loads_params,
                           params_digest, resolve_config, save_params)


@pytest.fixture(scope="module")
def gate_file(tmp_path_factory, current_opt):
    """gate.json fixture so CLI tests skip the optimizer."""
    d = tmp_path_factory.mktemp("gate")
    path = d / "gate.json"
    path.write_text(json.dumps(asdict(current_opt.gate)))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

def test_config_round_trip_bit_exact(tmp_path, current_params):
    p1 = tmp_path / "a.cfg"
    p2 = tmp_path / "b.cfg"
    save_params(current_params, p1)
    reloaded = loads_params(p1.read_text())
    save_params(reloaded, p2)
    assert read(p1) == read(p2)
    assert dumps_params(reloaded) == dumps_params(current_params)


def test_config_round_trip_optional_key():
    params = load_preset("projected")
    assert "stark_coeff" not in dumps_params(params)
    value = -2.718281828459045e-3
    rb = replace(params.rb, stark_coeff_blue_mhz=value)
    text = dumps_params(replace(params, rb=rb))
    assert text.count("stark_coeff_blue_mhz") == 1
    assert f"stark_coeff_blue_mhz = {value!r}\n" in text
    reloaded = loads_params(text)
    assert reloaded.rb.stark_coeff_blue_mhz == value
    assert reloaded.cs.stark_coeff_blue_mhz is None
    assert dumps_params(reloaded) == text


def test_preset_digests_pinned():
    # every report.json carries this digest of the written config text
    assert params_digest(load_preset("current")) == "6433fcba24bff77c"
    assert params_digest(load_preset("projected")) == "03290b7bb7614766"


def test_preset_names_resolve():
    assert load_preset("current").blockade_mhz == 12.0
    assert load_preset("projected").blockade_mhz == 65.0


def test_missing_key_exit_code(tmp_path, capsys):
    text = dumps_params(load_preset("current"))
    broken = "\n".join(l for l in text.splitlines()
                       if not l.startswith("blockade_mhz"))
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(broken)
    rc = main(["budget", "run", "--config", str(cfg), "--shots", "100",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "blockade_mhz" in capsys.readouterr().err


def test_unknown_config_path_exit_code(tmp_path):
    rc = main(["budget", "run", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_config_path_with_directory_never_names_a_preset(tmp_path, gate_file,
                                                       capsys):
    # a mistyped directory must not fall back to the preset of the file stem
    missing = tmp_path / "no_such_dir" / "projected.cfg"
    out = tmp_path / "out"
    rc = main(["budget", "run", "--config", str(missing), "--gate", gate_file,
               "--shots", "10", "--out", str(out)])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not out.exists()
    assert resolve_config("projected.cfg") == load_preset("projected")
    assert resolve_config("projected") == load_preset("projected")


@pytest.mark.parametrize("section, key, value", [
    ("shared", "detuning_laser_khz", "nan"),
    ("shared", "atom_separation_um", "inf"),
    ("cs", "blue_dls_mhz", "inf"),
    ("rb", "trap_polarizability_au", "inf"),
    ("rb", "stark_coeff_red_mhz", "-inf"),
])
def test_config_nonfinite_exit_code(tmp_path, gate_file, capsys, section,
                                    key, value):
    cp = configparser.ConfigParser()
    cp.read_string(dumps_params(load_preset("current")))
    cp.set(section, key, value)
    cfg = tmp_path / "nonfinite.cfg"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    rc = main(["budget", "run", "--config", str(cfg), "--gate", gate_file,
               "--shots", "100", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'{key}' in [{section}] is not finite" in err


def test_config_directory_exit_code(tmp_path, capsys):
    rc = main(["budget", "run", "--config", str(tmp_path), "--shots", "100",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_separation_floor_redraw_limit_exit_code(tmp_path, gate_file, capsys):
    # atoms held 10 nm apart and nearly at rest can never clear the floor
    params = load_preset("current")
    cfg = tmp_path / "close.cfg"
    save_params(replace(params, atom_separation_um=0.01,
                        atom_temperature_uk=0.01), cfg)
    rc = main(["budget", "run", "--config", str(cfg), "--gate", gate_file,
               "--shots", "100", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "atom_separation_um = 0.01" in err and "0.5 um" in err


# ---------------------------------------------------------------------------
# CLI surface: options and manifests
# ---------------------------------------------------------------------------

def _subcommands():
    """{'group cmd': parser} for every subcommand of `build_parser`."""
    def children(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {f"{g} {c}": q for g, gp in children(build_parser()).items()
            for c, q in children(gp).items()}


def test_cli_surface_options():
    commands = _subcommands()
    assert len(commands) == 11
    options = {name: q._option_string_actions for name, q in commands.items()}
    for name, opts in options.items():
        assert opts["--seed"].default == 0, name
        assert opts["--out"].default == ".", name
    shots = {name: opts["--shots"].default for name, opts in options.items()
             if "--shots" in opts}
    assert shots == {"budget run": 10000, "budget exclude": 10000,
                     "qnd simulate": 10000, "sweep 2d": 500,
                     "sweep adiabatic": 500}
    assert {n for n, o in options.items() if "--config" in o} == {
        "budget optimize", "budget run", "budget exclude", "sweep 2d",
        "sweep adiabatic"}
    assert {n for n, o in options.items() if "--gate" in o} == {
        "budget run", "budget exclude", "sweep 2d", "sweep adiabatic"}


@pytest.mark.parametrize("command", ["budget run", "sweep adiabatic",
                                     "laser rabi-error", "analyze qnd",
                                     "qnd simulate"])
def test_manifest_keys(tmp_path, gate_file, command):
    model = tmp_path / "model.json"
    model.write_text(model_to_json(LaserNoiseModel(h0=2.0)))
    counts = tmp_path / "counts.csv"
    counts.write_text("00,93,7\n01,90,10\n")
    circuit = circuit_path("qnd2")
    config = {"config_digest": params_digest(load_preset("current"))}
    argv, inputs = {
        "budget run": (["--config", "current", "--gate", gate_file,
                        "--shots", "100"], dict(shots=100, **config)),
        "sweep adiabatic": (["--config", "current", "--gate", gate_file,
                             "--powers", "2.8:40:2", "--shots", "100"],
                            dict(shots=100, gate_source=gate_file, **config)),
        "laser rabi-error": (["--model", str(model), "--omega-grid", "1:2:2"],
                             {"model": str(model), "n_half_turns": 2}),
        "analyze qnd": (["--data", str(counts)], {"data": str(counts)}),
        "qnd simulate": (["--circuit", circuit, "--shots", "30"],
                         {"shots": 30, "circuit": circuit}),
    }[command]
    out = tmp_path / "out"
    assert main(command.split() + argv + ["--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    artifacts = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest.pop("wall_time_s") >= 0
    assert manifest == dict(command=command, artifacts=artifacts, seed=3,
                            **inputs)


# ---------------------------------------------------------------------------
# budget commands
# ---------------------------------------------------------------------------

def test_budget_optimize_cli_round_trip(tmp_path):
    out = tmp_path / "opt"
    rc = main(["budget", "optimize", "--config", "current", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "gate.json").read_text())
    assert doc["error"] <= doc["decay_floor"] + 2e-4
    out2 = tmp_path / "run"
    rc = main(["budget", "run", "--config", "current", "--gate",
               str(out / "gate.json"), "--shots", "100", "--seed", "1",
               "--out", str(out2)])
    assert rc == 0
    rep = json.loads((out2 / "report.json").read_text())
    assert rep["gate"]["duration"] == doc["duration"]


def test_budget_run_and_determinism(tmp_path, gate_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        rc = main(["budget", "run", "--config", "current", "--gate", gate_file,
                   "--shots", "150", "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert read(out1 / "report.json") == read(out2 / "report.json")
    assert read(out1 / "report.txt") == read(out2 / "report.txt")
    doc = json.loads((out1 / "report.json").read_text())
    assert doc["shots"] == 150 and doc["seed"] == 7
    assert 0.0 < doc["mean_error"] < 1.0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"report.json", "report.txt"}
    assert manifest["config_digest"]


def test_budget_run_imports_no_scipy(tmp_path, gate_file):
    # scipy is imported only where something is solved or fitted
    code = (
        "import sys, rydsim, rydsim.cli\n"
        "rc = rydsim.cli.main(['budget', 'run', '--config', 'current',"
        f" '--gate', {gate_file!r}, '--shots', '100',"
        f" '--out', {str(tmp_path)!r}])\n"
        "print(rc, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(rydsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 []"


def test_cli_import_loads_no_scipy_or_numpy_polynomial():
    # both would add to the start-up time of every command
    code = ("import sys, rydsim.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial')))\n")
    src = str(Path(rydsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_budget_run_gate_negative_duration_exit_code(tmp_path, capsys):
    gate = tmp_path / "gate.json"
    gate.write_text(json.dumps({
        "detuning": 0.0, "duration": -1.0, "phase_mod_rate": 1e6,
        "phase_mod_depth": 1.0, "phase_mod_delay": 0.0,
        "virtual_rz": [0.0, 0.0]}))
    rc = main(["budget", "run", "--config", "current", "--gate", str(gate),
               "--shots", "100", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "duration" in capsys.readouterr().err


def test_budget_run_gate_missing_key_exit_code(tmp_path, gate_file, capsys):
    doc = json.loads(read(gate_file))
    del doc["duration"]
    gate = tmp_path / "gate.json"
    gate.write_text(json.dumps(doc))
    rc = main(["budget", "run", "--config", "current", "--gate", str(gate),
               "--shots", "100", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "duration" in capsys.readouterr().err


def test_budget_exclude_structure(tmp_path, gate_file):
    out = tmp_path / "excl"
    rc = main(["budget", "exclude", "--config", "current", "--gate", gate_file,
               "--shots", "150", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "exclusion.csv").read_text().strip().splitlines()
    assert lines[0] == "mechanism,contribution,std_error"
    assert len(lines) == 1 + 14 + 3
    assert lines[-3].startswith("total error,")
    assert lines[-2].startswith("linear sum,")
    assert lines[-1].startswith("quadrature sum,")
    doc = json.loads((out / "exclusion.json").read_text())
    assert len(doc["rows"]) == 14


@pytest.mark.parametrize("command, inputs", [
    ("budget run", []), ("budget exclude", []),
    ("sweep 2d", ["--t-grid", "4:4:1", "--p-grid", "2.8:2.8:1"]),
    ("sweep adiabatic", ["--powers", "2.8:40:2"])])
def test_too_few_shots_exit_code_before_sampling(tmp_path, gate_file, capsys,
                                                 monkeypatch, command, inputs):
    def sample_shots(*args, **kwargs):
        raise AssertionError("sample_shots called")

    monkeypatch.setattr(budget, "sample_shots", sample_shots)
    rc = main(command.split() + inputs + [
        "--config", "current", "--gate", gate_file, "--shots", "-3",
        "--out", str(tmp_path)])
    assert rc == 2
    assert "shots must be >= 100, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("command, inputs", [
    ("budget run", []), ("budget exclude", []),
    ("sweep 2d", ["--t-grid", "4:4:1", "--p-grid", "2.8:2.8:1"]),
    ("qnd simulate", ["--shots", "30"])])
def test_negative_seed_exit_code(tmp_path, gate_file, capsys, command, inputs):
    if command == "qnd simulate":
        inputs = inputs + ["--circuit", circuit_path("qnd2")]
    else:
        inputs = inputs + ["--config", "current", "--gate", gate_file,
                           "--shots", "100"]
    with pytest.raises(SystemExit) as exc:
        main(command.split() + inputs + ["--seed", "-1",
                                         "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in \
        capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# sweep commands
# ---------------------------------------------------------------------------

def test_sweep_2d_single_point_includes_experimental(tmp_path, gate_file):
    out = tmp_path / "sweep"
    rc = main(["sweep", "2d", "--config", "current", "--gate", gate_file,
               "--t-grid", "4:4:1", "--p-grid", "2.8:2.8:1",
               "--shots", "120", "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep2d.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    t, p, err, se, log10 = lines[1].split(",")
    assert float(t) == 4.0 and float(p) == 2.8
    assert float(log10) == pytest.approx(math.log10(float(err)), rel=1e-9)


def test_sweep_adiabatic_endpoints(tmp_path, gate_file):
    out = tmp_path / "adia"
    rc = main(["sweep", "adiabatic", "--config", "current", "--gate", gate_file,
               "--powers", "2.8:40:3", "--shots", "120", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "adiabatic.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    first, last = lines[1].split(","), lines[-1].split(",")
    assert float(first[0]) == 2.8 and float(last[0]) == 40.0
    assert float(first[1]) == pytest.approx(4.0)            # anchored
    assert float(last[1]) == pytest.approx(4.0 * math.sqrt(40.0 / 2.8))


# ---------------------------------------------------------------------------
# laser commands
# ---------------------------------------------------------------------------

def test_laser_fit_round_trip(tmp_path):
    truth = LaserNoiseModel(h0=2.0, bumps=(ServoBump(40.0, 1.2e5, 8e3),),
                            s_dark=1e-10, t_d=48.9e-6)
    rng = np.random.default_rng(0)
    f = np.linspace(2e3, 6e5, 400)
    y = heterodyne_spectrum(truth, f) * (1 + 0.01 * rng.normal(size=400))
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(f"{fi} {yi}" for fi, yi in zip(f, y)))
    start = LaserNoiseModel(h0=3.0, bumps=(ServoBump(30.0, 1.25e5, 6e3),),
                            s_dark=5e-11, t_d=48.9e-6)
    init = tmp_path / "init.json"
    init.write_text(model_to_json(start))
    out = tmp_path / "fit"
    rc = main(["laser", "fit", "--trace", str(trace), "--initial", str(init),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["h0"] == pytest.approx(2.0, rel=0.05)


def test_laser_rabi_error_curve(tmp_path):
    model = LaserNoiseModel(h0=2.0, bumps=(ServoBump(100.0, 2.3e5, 5e3),),
                            t_d=48.9e-6)
    mf = tmp_path / "model.json"
    mf.write_text(model_to_json(model))
    out = tmp_path / "curve"
    rc = main(["laser", "rabi-error", "--model", str(mf),
               "--omega-grid", "0.5:4:5", "--n", "2", "--out", str(out)])
    assert rc == 0
    lines = (out / "rabi_error.csv").read_text().strip().splitlines()
    assert lines[0] == "rabi_mhz,error,error_white_only"
    rows = [list(map(float, l.split(","))) for l in lines[1:]]
    whites = [r[2] for r in rows]
    fulls = [r[1] for r in rows]
    assert all(a > b for a, b in zip(whites, whites[1:]))   # monotone white
    assert all(f >= w for f, w in zip(fulls, whites))       # bumps only add
    # reported noise level: < 1e-3 at 1 MHz for the white-only model
    at_1mhz = rows[np.argmin([abs(r[0] - 1.375) for r in rows])]
    assert at_1mhz[2] < 1e-3


def test_laser_rabi_error_model_without_h0_exit_code(tmp_path, capsys):
    mf = tmp_path / "model.json"
    mf.write_text(json.dumps({"bumps": [], "t_d": 48.9e-6}))
    rc = main(["laser", "rabi-error", "--model", str(mf),
               "--omega-grid", "0.5:4:5", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "h0" in capsys.readouterr().err


def test_laser_rabi_error_negative_h0_exit_code(tmp_path, capsys):
    mf = tmp_path / "model.json"
    mf.write_text(json.dumps({"h0": -1.0, "bumps": [], "t_d": 48.9e-6}))
    rc = main(["laser", "rabi-error", "--model", str(mf),
               "--omega-grid", "0.5:4:5", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "h0" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["nan", "1e999"])
@pytest.mark.parametrize("command, flag", [
    ("laser rabi-error", "--omega-grid"), ("sweep 2d", "--t-grid"),
    ("sweep adiabatic", "--powers")])
def test_nonfinite_grid_bound_exit_code(tmp_path, gate_file, capsys, command,
                                        flag, bound):
    model = tmp_path / "model.json"
    model.write_text(model_to_json(LaserNoiseModel(h0=2.0)))
    inputs = {"laser rabi-error": ["--model", str(model)],
              "sweep 2d": ["--p-grid", "2.8:2.8:1"],
              "sweep adiabatic": []}[command]
    if command != "laser rabi-error":
        inputs += ["--config", "current", "--gate", gate_file, "--shots", "100"]
    spec = f"{bound}:2:3"
    rc = main(command.split() + inputs + [flag, spec,
                                          "--out", str(tmp_path / "out")])
    assert rc == 2
    assert spec in capsys.readouterr().err


def test_laser_rabi_error_missing_model_file_exit_code(tmp_path):
    rc = main(["laser", "rabi-error", "--model", str(tmp_path / "nope.json"),
               "--omega-grid", "0.5:4:5", "--out", str(tmp_path / "out")])
    assert rc == 4


def test_laser_fit_bad_trace_exit_code(tmp_path):
    trace = tmp_path / "bad.txt"
    trace.write_text("1e3 0.5 99\n")
    init = tmp_path / "init.json"
    init.write_text(model_to_json(LaserNoiseModel(h0=1.0, t_d=48.9e-6)))
    rc = main(["laser", "fit", "--trace", str(trace), "--initial", str(init),
               "--out", str(tmp_path)])
    assert rc == 4


def test_laser_fit_missing_trace_exit_code(tmp_path):
    init = tmp_path / "init.json"
    init.write_text(model_to_json(LaserNoiseModel(h0=1.0, t_d=48.9e-6)))
    rc = main(["laser", "fit", "--trace", str(tmp_path / "nope.txt"),
               "--initial", str(init), "--out", str(tmp_path / "out")])
    assert rc == 4


# ---------------------------------------------------------------------------
# analyze commands
# ---------------------------------------------------------------------------

def test_analyze_rb_direct_values(tmp_path):
    out = tmp_path / "rb"
    rc = main(["analyze", "rb", "--p-ret", "1", "--p-bb-given-ret", "1",
               "--p-leak", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "rb_fidelity.json").read_text())
    assert doc["fidelity"] == 1.0


def test_analyze_rb_default_leak_and_fits(tmp_path):
    depths = np.array([0, 1, 2, 4, 8])
    ret = 0.98 * 0.995 ** depths
    bb = 0.96 * 0.975 ** depths
    fr = tmp_path / "ret.csv"
    fb = tmp_path / "bb.csv"
    fr.write_text("depth,probability,shots\n" + "\n".join(
        f"{d},{p},500" for d, p in zip(depths, ret)))
    fb.write_text("depth,probability,shots\n" + "\n".join(
        f"{d},{p},500" for d, p in zip(depths, bb)))
    out = tmp_path / "rbfit"
    rc = main(["analyze", "rb", "--retention", str(fr), "--blowaway", str(fb),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "rb_fidelity.json").read_text())
    assert doc["p_leak"] == 0.002
    assert doc["p_ret"] == pytest.approx(0.995, abs=1e-6)
    assert doc["p_bb_given_ret"] == pytest.approx(0.975 / 0.995, abs=1e-6)


def test_analyze_qnd(tmp_path):
    data = tmp_path / "counts.csv"
    data.write_text("state,correct,incorrect\n00,93,7\n01,90,10\n")
    out = tmp_path / "qnd"
    rc = main(["analyze", "qnd", "--data", str(data), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "qnd_fidelity.json").read_text())
    assert doc["per_state"]["00"]["mean"] == pytest.approx(94 / 102, abs=1e-12)
    assert doc["aggregate_mean"] == pytest.approx(
        (94 / 102 + 91 / 102) / 2, abs=1e-12)


def test_analyze_decay(tmp_path):
    t = np.linspace(0, 5, 12)
    y = 0.99 * np.exp(-t / 9.6)
    data = tmp_path / "t1.csv"
    data.write_text("\n".join(f"{ti},{yi}" for ti, yi in zip(t, y)))
    out = tmp_path / "decay"
    rc = main(["analyze", "decay", "--data", str(data), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "decay_fit.json").read_text())
    assert doc["tau"] == pytest.approx(9.6, rel=1e-6)


def test_analyze_decay_failure_exit_code(tmp_path):
    data = tmp_path / "short.csv"
    data.write_text("0,1\n1,0.9\n2,0.8\n3,0.7\n")
    rc = main(["analyze", "decay", "--data", str(data), "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("model, rows", [
    pytest.param("exponential", "2.0,1.0\n" * 5, id="exponential-one-time"),
    pytest.param("exponential", "".join(f"{t},0.0\n" for t in range(6)),
                 id="exponential-zeros"),
    pytest.param("gaussian-envelope-sinusoid",
                 "".join(f"{t},0.0\n" for t in range(6)), id="gaussian-zeros")])
def test_analyze_decay_degenerate_data_exit_code(tmp_path, model, rows):
    # the fit would report its starting guess
    data = tmp_path / "degenerate.csv"
    data.write_text(rows)
    out = tmp_path / "out"
    rc = main(["analyze", "decay", "--data", str(data), "--model", model,
               "--out", str(out)])
    assert rc == 3
    assert not (out / "decay_fit.json").exists()


def test_analyze_qnd_malformed_csv_exit_code(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("00,93\n")
    rc = main(["analyze", "qnd", "--data", str(data), "--out", str(tmp_path)])
    assert rc == 4


_RB_ROWS = "0,0.99,500\n1,0.98,500\n2,0.97,500\n4,0.95,500\n8,0.91,500\n"
_BB_ROWS = "0,0.96,500\n1,0.94,500\n2,0.91,500\n4,0.87,500\n8,0.79,500\n"
_DECAY_ROWS = "".join(f"{t!r},{0.99 * math.exp(-t / 9.6)!r}\n"
                      for t in map(float, np.linspace(0.0, 5.0, 12)))


@pytest.mark.parametrize("command, text, expected", [
    # a bad first data row is an error, not a header
    ("qnd", "00,93,x\n01,90,10\n", 4),
    ("rb", "1,x,100\n" + _RB_ROWS, 4),
    ("decay", "x,1.0\n" + _DECAY_ROWS, 4),
    # a header, after comments or not, is skipped
    ("qnd", "# counts\nstate,correct,incorrect\n00,93,7\n01,90,10\n", 0),
    ("rb", "# retention\n\ndepth,probability,shots\n" + _RB_ROWS, 0),
    ("decay", "time,value\n" + _DECAY_ROWS, 0),
])
def test_analyze_csv_header_rule(tmp_path, command, text, expected):
    data, bb = tmp_path / "data.csv", tmp_path / "bb.csv"
    data.write_text(text)
    bb.write_text(_BB_ROWS)
    argv = (["--retention", str(data), "--blowaway", str(bb)]
            if command == "rb" else ["--data", str(data)])
    assert main(["analyze", command, *argv,
                 "--out", str(tmp_path / "out")]) == expected


def test_analyze_qnd_non_utf8_exit_code(tmp_path):
    data = tmp_path / "utf16.csv"
    data.write_bytes(b"\xff\xfe" + "00,93,7\n".encode("utf-16-le"))
    rc = main(["analyze", "qnd", "--data", str(data), "--out", str(tmp_path)])
    assert rc == 4


def test_analyze_qnd_negative_counts_exit_code(tmp_path):
    data = tmp_path / "negative.csv"
    data.write_text("state,correct,incorrect\n00,93,-7\n")
    rc = main(["analyze", "qnd", "--data", str(data), "--out", str(tmp_path)])
    assert rc == 4


# ---------------------------------------------------------------------------
# qnd simulate
# ---------------------------------------------------------------------------

def circuit_path(name):
    from importlib import resources
    return str(resources.files("rydsim").joinpath(f"circuits/{name}.txt"))


def test_qnd_simulate_noiseless_deterministic(tmp_path):
    out1, out2 = tmp_path / "q1", tmp_path / "q2"
    for out in (out1, out2):
        rc = main(["qnd", "simulate", "--circuit", circuit_path("qnd2"),
                   "--shots", "400", "--seed", "11", "--out", str(out)])
        assert rc == 0
    assert read(out1 / "histogram.csv") == read(out2 / "histogram.csv")
    doc = json.loads((out1 / "qnd_report.json").read_text())
    assert doc["predicted_fqnd"] == pytest.approx(1.0, abs=1e-12)
    lines = (out1 / "histogram.csv").read_text().strip().splitlines()
    assert lines[0] == "input,outcome,count"
    assert "10,11,400" in lines


def test_qnd_simulate_ordering(tmp_path):
    vals = {}
    for name in ("qnd2", "qnd3"):
        out = tmp_path / name
        rc = main(["qnd", "simulate", "--circuit", circuit_path(name),
                   "--sigma", "0.025", "--shots", "200", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        vals[name] = json.loads((out / "qnd_report.json").read_text())[
            "predicted_fqnd"]
    assert vals["qnd3"] < vals["qnd2"]


def test_qnd_simulate_bad_circuit_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("qubit a rb data\ncz a a\nmeasure a\n")
    rc = main(["qnd", "simulate", "--circuit", str(bad), "--out", str(tmp_path)])
    assert rc == 4


def test_qnd_simulate_non_utf8_circuit_exit_code(tmp_path):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + "qubit a rb data\n".encode("utf-16-le"))
    rc = main(["qnd", "simulate", "--circuit", str(bad), "--out", str(tmp_path)])
    assert rc == 4


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_qnd_simulate_nonpositive_shots_exit_code(tmp_path, capsys, shots):
    rc = main(["qnd", "simulate", "--circuit", circuit_path("qnd2"),
               "--shots", shots, "--out", str(tmp_path)])
    assert rc == 2
    assert "shots must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "histogram.csv").exists()


def test_qnd_simulate_malformed_label_exit_code(tmp_path, capsys):
    # the label comes from the command line, so it is a config error (2),
    # not a data-format error (4)
    for inputs in ("1", "1x", "10,"):
        rc = main(["qnd", "simulate", "--circuit", circuit_path("qnd2"),
                   "--inputs", inputs, "--out", str(tmp_path)])
        assert rc == 2, inputs
        assert "not a basis label" in capsys.readouterr().err


def test_qnd_simulate_duplicate_labels_exit_code(tmp_path, capsys):
    rc = main(["qnd", "simulate", "--circuit", circuit_path("qnd2"),
               "--inputs", "10,01,10", "--out", str(tmp_path)])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err
    assert not (tmp_path / "histogram.csv").exists()


def test_qnd_simulate_nondeterministic_circuit_spends_no_shots(
        tmp_path, monkeypatch):
    # F_QND needs a deterministic noiseless output; the check runs first
    golden = json.loads(
        (Path(__file__).parent / "golden_qnd.json").read_text())["simulate"]
    circuit = tmp_path / "mixed4.txt"
    circuit.write_text(golden["inline_circuits"]["mixed4"])

    def simulate(*args, **kwargs):
        raise AssertionError("qnd.simulate called")

    monkeypatch.setattr(qnd, "simulate", simulate)
    rc = main(["qnd", "simulate", "--circuit", str(circuit),
               "--shots", "100", "--out", str(tmp_path)])
    assert rc == 4
    assert not (tmp_path / "histogram.csv").exists()


# ---------------------------------------------------------------------------
# malformed and non-finite input files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rz", ["[1.0]", "[0, 0, 0]", '["a", "b"]',
                                "[NaN, 0]"])
def test_budget_run_gate_bad_virtual_rz_exit_code(tmp_path, gate_file, capsys,
                                                  rz):
    doc = json.loads(read(gate_file))
    gate = tmp_path / "gate.json"
    gate.write_text(json.dumps(doc).replace(
        json.dumps(doc["virtual_rz"]), rz))
    rc = main(["budget", "run", "--config", "current", "--gate", str(gate),
               "--shots", "100", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "virtual_rz" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("phase_mod_depth", True),
                                        ("virtual_rz", [True, False])],
                         ids=["phase_mod_depth", "virtual_rz"])
def test_budget_run_gate_boolean_exit_code(tmp_path, gate_file, capsys, key,
                                           value):
    # JSON true is a Python bool, which is an int; it is still not a number
    doc = json.loads(read(gate_file))
    doc[key] = value
    gate = tmp_path / "gate.json"
    gate.write_text(json.dumps(doc))
    rc = main(["budget", "run", "--config", "current", "--gate", str(gate),
               "--shots", "100", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_budget_run_gate_deeply_nested_json_exit_code(tmp_path):
    gate = tmp_path / "gate.json"
    gate.write_text("[" * 100_000)
    rc = main(["budget", "run", "--config", "current", "--gate", str(gate),
               "--shots", "100", "--out", str(tmp_path / "out")])
    assert rc == 4


NONFINITE = ["nan", "inf", "-inf", "1e400"]


@pytest.mark.parametrize("value", NONFINITE)
def test_analyze_csv_nonfinite_exit_code(tmp_path, capsys, value):
    good = "0,0.99,500\n1,0.98,500\n2,0.97,500\n4,0.95,500\n"
    ret, bb = tmp_path / "ret.csv", tmp_path / "bb.csv"
    ret.write_text(good + f"8,{value},500\n")
    bb.write_text(good)
    rc = main(["analyze", "rb", "--retention", str(ret), "--blowaway",
               str(bb), "--out", str(tmp_path / "rb")])
    assert rc == 4
    data = tmp_path / "t1.csv"
    data.write_text("0,1\n1,0.9\n2,0.8\n3,0.7\n" + f"{value},0.6\n")
    rc = main(["analyze", "decay", "--data", str(data),
               "--out", str(tmp_path / "decay")])
    assert rc == 4
    assert capsys.readouterr().err.count("non-finite value") == 2


@pytest.mark.parametrize("value", NONFINITE)
def test_laser_fit_nonfinite_trace_exit_code(tmp_path, capsys, value):
    f = np.linspace(2e3, 6e5, 40)
    y = heterodyne_spectrum(LaserNoiseModel(h0=2.0), f)
    lines = [f"{fi} {yi}" for fi, yi in zip(f, y)]
    lines[7] = f"{f[7]} {value}"
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(lines))
    init = tmp_path / "init.json"
    init.write_text(model_to_json(LaserNoiseModel(h0=1.0)))
    rc = main(["laser", "fit", "--trace", str(trace), "--initial", str(init),
               "--out", str(tmp_path / "fit")])
    assert rc == 4
    assert "non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    '{"h0": NaN}', '{"h0": Infinity}', '{"h0": 1.0, "t_d": Infinity}',
    '{"h0": 1.0, "bumps": [{"h": 1.0, "f": NaN, "sigma": 1e3}]}'])
def test_laser_rabi_error_nonfinite_model_exit_code(tmp_path, doc):
    mf = tmp_path / "model.json"
    mf.write_text(doc)
    rc = main(["laser", "rabi-error", "--model", str(mf),
               "--omega-grid", "0.5:4:2", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert not (tmp_path / "out" / "rabi_error.csv").exists()


@pytest.mark.parametrize("doc", [
    '{"h0": true}', '{"h0": 1.0, "t_d": true}',
    '{"h0": 1.0, "bumps": [{"h": true, "f": 1e5, "sigma": 1e3}]}'])
def test_laser_rabi_error_boolean_model_exit_code(tmp_path, doc):
    mf = tmp_path / "model.json"
    mf.write_text(doc)
    rc = main(["laser", "rabi-error", "--model", str(mf),
               "--omega-grid", "0.5:4:2", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert not (tmp_path / "out" / "rabi_error.csv").exists()


@pytest.mark.parametrize("angle", ["nan", "inf", "1e400", "pi/0"])
def test_qnd_simulate_nonfinite_angle_exit_code(tmp_path, capsys, angle):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text(Path(circuit_path("qnd2")).read_text().replace(
        "r a pi/2 pi", f"r a pi/2 {angle}"))
    rc = main(["qnd", "simulate", "--circuit", str(circuit), "--shots", "10",
               "--out", str(tmp_path)])
    assert rc == 4
    assert "not a finite number" in capsys.readouterr().err


def test_laser_rabi_error_overflow_exit_code(tmp_path, capsys):
    # a valid but extreme model overflows float arithmetic: exit 3
    mf = tmp_path / "model.json"
    mf.write_text(json.dumps(
        {"h0": 1.0, "bumps": [{"h": 1.0, "f": 1e300, "sigma": 1.0}]}))
    rc = main(["laser", "rabi-error", "--model", str(mf),
               "--omega-grid", "0.5:4:2", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_laser_rabi_error_vanishing_width_exit_code(tmp_path, capsys):
    # sigma ** 2 underflows to 0, so the bump's Gaussian divides by zero
    mf = tmp_path / "model.json"
    mf.write_text(json.dumps(
        {"h0": 1.0, "bumps": [{"h": 1.0, "f": 1e6, "sigma": 1e-200}]}))
    rc = main(["laser", "rabi-error", "--model", str(mf),
               "--omega-grid", "0.5:4:2", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_laser_rabi_error_panel_limit_exit_code(tmp_path, capsys):
    # about 100 N quadrature panels per point: a huge N is refused up front
    model = tmp_path / "model.json"
    model.write_text(model_to_json(LaserNoiseModel(h0=2.0)))
    rc = main(["laser", "rabi-error", "--model", str(model), "--omega-grid",
               "0.5:4:2", "--n", "1000000", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rabi_error.csv").exists()


def test_laser_model_not_an_object_exit_code(tmp_path):
    model = tmp_path / "model.json"
    model.write_text("[1.0, 2.0]")
    rc = main(["laser", "rabi-error", "--model", str(model),
               "--omega-grid", "0.5:4:2", "--out", str(tmp_path / "out")])
    assert rc == 4
    f = np.linspace(2e3, 6e5, 40)
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(f"{fi} 1e-6" for fi in f))
    rc = main(["laser", "fit", "--trace", str(trace), "--initial", str(model),
               "--out", str(tmp_path / "fit")])
    assert rc == 4


def test_analyze_decay_oscillation_no_spread_exit_code(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("".join(f"1.5,{v}\n" for v in (0.9, 0.5, 0.1, 0.5, 0.9)))
    rc = main(["analyze", "decay", "--data", str(data), "--model",
               "gaussian-envelope-sinusoid", "--out", str(tmp_path)])
    assert rc == 3
    assert "spread" in capsys.readouterr().err


def test_analyze_decay_oscillation_constant_data_exit_code(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("".join(f"{t},0.7\n" for t in range(8)))
    rc = main(["analyze", "decay", "--data", str(data), "--model",
               "gaussian-envelope-sinusoid", "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "decay_fit.json").exists()


def test_analyze_rb_full_leak_exit_code(tmp_path, capsys):
    rc = main(["analyze", "rb", "--p-ret", ".9", "--p-bb-given-ret", ".9",
               "--p-leak", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "p_leak" in capsys.readouterr().err


def test_analyze_qnd_repeated_state_exit_code(tmp_path, capsys):
    data = tmp_path / "counts.csv"
    data.write_text("state,correct,incorrect\n00,93,7\n01,90,10\n00,80,20\n")
    rc = main(["analyze", "qnd", "--data", str(data), "--out", str(tmp_path)])
    assert rc == 4
    assert "once" in capsys.readouterr().err
    assert not (tmp_path / "qnd_fidelity.json").exists()


# ---------------------------------------------------------------------------
# property: no file content makes a file-reading command exit 1
# ---------------------------------------------------------------------------

# JSON scalars and containers, including NaN, infinities and ints beyond
# the float range
_SCALAR = st.one_of(st.none(), st.booleans(), st.floats(),
                    st.integers(), st.just(10 ** 400), st.text(max_size=4))
_JSON = st.recursive(_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=4), inner, max_size=3)), max_leaves=6)


def _spoil(valid, junk, n):
    """``valid`` (a list of n items) as is, or with one item replaced by
    ``junk`` or dropped."""
    def apply(case):
        items, (i, how, bad) = case
        items = list(items)
        if how == "replace" and i < len(items):
            items[i] = bad
        elif how == "drop" and i < len(items):
            del items[i]
        return items
    return st.tuples(valid, st.tuples(
        st.integers(0, n), st.sampled_from(["keep", "replace", "drop"]),
        junk)).map(apply)


def _doc(fields):
    """JSON text: an object over ``fields`` (name -> strategy of a sane
    value), perhaps with one value junk or one key missing; a junk document;
    or free text."""
    keys = list(fields)
    obj = _spoil(st.tuples(*fields.values()), _JSON, len(keys) - 1).map(
        lambda values: dict(zip(keys, values)))
    return st.one_of(obj, obj, obj, _JSON).map(json.dumps) \
        | st.text(max_size=40)


# finite gate values stay small, so a valid gate takes few steps
_GATE = _doc({
    "detuning": st.floats(-2e7, 2e7),
    "duration": st.floats(1e-8, 1.5e-6),
    "phase_mod_rate": st.floats(-1.2e7, 1.2e7),
    "phase_mod_depth": st.floats(0.0, 2.0),
    "phase_mod_delay": st.floats(-1e-6, 1e-6),
    "virtual_rz": st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2)})


def _positive(lo, hi):
    """A typical value in [lo, hi], or any positive float."""
    return st.floats(lo, hi) | st.floats(0.0, exclude_min=True,
                                         allow_infinity=False)


_MODEL = _doc({
    "h0": _positive(0.1, 1e3),
    "bumps": st.lists(st.fixed_dictionaries({
        "h": _positive(1e-3, 1e3), "f": _positive(1e3, 1e6),
        "sigma": _positive(1e2, 1e5)}), max_size=2),
    "s_dark": st.floats(0.0, 1e-6),
    "t_d": _positive(1e-6, 1e-4)})

# any CSV cell: numbers of every size, non-finite spellings, text
_CELL = st.one_of(st.floats().map(repr), st.integers().map(str),
                  st.sampled_from(["nan", "inf", "-inf", "1e400", "1" * 400,
                                   "", "00", "pi/2", "#"]),
                  st.text(max_size=3))


def _table(sep, *columns, max_rows=24):
    """Rows of sane cells, one per column, perhaps with one row spoiled (a
    junk cell or a wrong length) or dropped into free text."""
    row = st.tuples(*columns).map(sep.join)
    bad = _spoil(st.tuples(*columns), _CELL, len(columns)).map(sep.join)
    rows = _spoil(st.lists(row, max_size=max_rows), bad, max_rows)
    return rows.map("\n".join) | st.text(max_size=60)


def _num(lo, hi):
    return st.floats(lo, hi).map(repr)


_COUNT = st.integers(-2, 500).map(str)
_ANGLE = st.one_of(
    st.sampled_from(["0", "pi", "pi/2", "-pi/2", "3pi/2", "2*pi"]),
    _num(-7.0, 7.0), st.sampled_from(["nan", "inf", "1e400", "pi/0", "x"]))
_QUBIT = st.sampled_from(["a", "b", "a", "b", "c"])
_LINE = st.one_of(
    st.tuples(st.just("qubit"), _QUBIT, st.sampled_from(["rb", "cs", "k"]),
              st.sampled_from(["data", "ancilla", "x"])),
    st.tuples(st.just("r"), st.sampled_from(["a", "b", "all", "rb", "cs"]),
              _ANGLE, _ANGLE),
    st.tuples(st.just("rz"), _QUBIT, _ANGLE),
    st.tuples(st.just("cz"), _QUBIT, _QUBIT),
    st.lists(st.sampled_from(["measure", "a", "b", "r", "cz", "pi"]),
             max_size=4)).map(" ".join)
_CIRCUIT = st.one_of(
    st.lists(_LINE, max_size=6).map(
        lambda ops: "\n".join(["qubit a rb data", "qubit b cs ancilla", *ops,
                               "measure a b"])),
    st.lists(_LINE, max_size=8).map("\n".join),
    st.text(max_size=60))

# command -> (file options with their content strategies, other arguments)
_RB = _table(",", st.integers(0, 40).map(str), _num(0.0, 1.0), _COUNT)
_DECAY = _table(",", _num(0.0, 10.0), _num(-1.0, 1.0), max_rows=12)
_COMMANDS = {
    "budget run": ({"--gate": _GATE},
                   ["--config", "current", "--shots", "100"]),
    "laser fit": ({"--trace": _table(" ", _num(1e3, 1e6), _num(0.0, 1e-3),
                                     max_rows=40),
                   "--initial": _MODEL}, []),
    "laser rabi-error": ({"--model": _MODEL}, ["--omega-grid", "0.5:4:2"]),
    "analyze rb": ({"--retention": _RB, "--blowaway": _RB}, []),
    "analyze qnd": ({"--data": _table(",", st.text("01", min_size=1),
                                      _COUNT, _COUNT, max_rows=6)}, []),
    "analyze decay": ({"--data": _DECAY},
                      ["--model", "gaussian-envelope-sinusoid"]),
    "analyze decay exponential": ({"--data": _DECAY}, []),
    "qnd simulate": ({"--circuit": _CIRCUIT}, ["--shots", "20"]),
}


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_never_exits_1_on_arbitrary_files(data):
    import tempfile
    name = data.draw(st.sampled_from(sorted(_COMMANDS)))
    files, extra = _COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        argv = name.split()[:2] + extra
        for opt, content in files.items():
            path = os.path.join(tmp, opt.strip("-"))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(data.draw(content, label=opt))
            argv += [opt, path]
        rc = main(argv + ["--out", os.path.join(tmp, "out")])
    assert rc in (0, 2, 3, 4)
