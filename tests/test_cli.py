import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rydsim
from rydsim import qnd
from rydsim.cli import main
from rydsim.laser import LaserNoiseModel, ServoBump, heterodyne_spectrum, model_to_json
from rydsim.params import dumps_params, load_preset, loads_params, save_params


@pytest.fixture(scope="module")
def gate_file(tmp_path_factory, current_opt):
    """gate.json fixture so CLI tests skip the optimizer."""
    d = tmp_path_factory.mktemp("gate")
    path = d / "gate.json"
    g = current_opt.gate
    path.write_text(json.dumps({
        "detuning": g.detuning, "duration": g.duration,
        "phase_mod_rate": g.phase_mod_rate,
        "phase_mod_depth": g.phase_mod_depth,
        "phase_mod_delay": g.phase_mod_delay,
        "virtual_rz": list(g.virtual_rz),
    }))
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


def test_analyze_qnd_malformed_csv_exit_code(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("00,93\n")
    rc = main(["analyze", "qnd", "--data", str(data), "--out", str(tmp_path)])
    assert rc == 4


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
