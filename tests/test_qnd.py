import json
import math
import random
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rydsim.qnd import (CircuitError, NoiseChannelParams, PlaquetteCircuit,
                        Qubit, exact_distribution, exact_distributions,
                        ideal_outcome, parse_circuit, predicted_fqnd, simulate)

from oracles import exact_distribution_reference, simulate_rows


def load_circuit(name):
    text = resources.files("rydsim").joinpath(f"circuits/{name}.txt").read_text()
    return parse_circuit(text)


@pytest.fixture(scope="module")
def qnd2():
    return load_circuit("qnd2")


@pytest.fixture(scope="module")
def qnd3():
    return load_circuit("qnd3")


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_rejects_unknown_qubit():
    with pytest.raises(CircuitError):
        parse_circuit("qubit d rb data\ncz d ghost\nmeasure d\n")


def test_parse_rejects_same_target_cz():
    with pytest.raises(CircuitError):
        parse_circuit("qubit d rb data\nqubit a cs ancilla\ncz d d\nmeasure d\n")


def test_cz_must_pair_data_with_ancilla():
    with pytest.raises(CircuitError):
        parse_circuit("qubit d1 cs data\nqubit d2 cs data\n"
                      "cz d1 d2\nmeasure d1 d2\n")


def test_parse_rejects_qubit_measured_twice():
    # a repeated qubit has one readout bit, so a second entry for it in
    # ``measure`` would be a duplicate, not a second measurement
    with pytest.raises(CircuitError, match="measured more than once: d$"):
        parse_circuit("qubit d rb data\nqubit a cs ancilla\ncz d a\n"
                      "measure d a d\n")


def test_parse_angles_and_species_targets():
    c = parse_circuit(
        "qubit d rb data\nqubit a cs ancilla\n"
        "r cs pi/2 0\nrz d -pi\nr all 3pi/2 pi\ncz d a\nmeasure a\n")
    kinds = [op[0] for op in c.ops]
    assert kinds == ["r", "rz", "r", "r", "cz"]
    assert c.ops[0][2] == pytest.approx(math.pi / 2)
    assert c.ops[1][2] == pytest.approx(-math.pi)
    assert c.ops[2][2] == pytest.approx(3 * math.pi / 2)


# ---------------------------------------------------------------------------
# noiseless semantics
# ---------------------------------------------------------------------------

def test_two_atom_qnd_noiseless(qnd2):
    # ancilla reports the data bit: outcome = (d, a xor d)
    for d in (0, 1):
        for a in (0, 1):
            label = f"{d}{a}"
            expected = f"{d}{a ^ d}"
            assert ideal_outcome(qnd2, label) == expected
            dist = exact_distribution(qnd2, NoiseChannelParams(), label)
            assert dist[expected] == pytest.approx(1.0, abs=1e-12)


def test_three_atom_parity_check_noiseless(qnd3):
    # Rb ancilla flips iff the Cs pair parity is odd
    for c1 in (0, 1):
        for a in (0, 1):
            for c2 in (0, 1):
                label = f"{c1}{a}{c2}"
                expected = f"{c1}{a ^ c1 ^ c2}{c2}"
                assert ideal_outcome(qnd3, label) == expected


def test_noiseless_trajectories_deterministic(qnd2):
    hists = simulate(qnd2, NoiseChannelParams(), ["10"], shots=500, seed=1)
    assert hists["10"] == {"11": 500}


# ---------------------------------------------------------------------------
# noisy channel
# ---------------------------------------------------------------------------

def test_exact_probabilities_sum_to_one(qnd3):
    noise = NoiseChannelParams(depolarizing=0.04, leak=0.02, loss=0.03,
                               spam=0.01)
    for label in ("000", "101", "110"):
        dist = exact_distribution(qnd3, noise, label)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_loss_reads_dark_leak_reads_bright(qnd2):
    dist_loss = exact_distribution(qnd2, NoiseChannelParams(loss=1.0), "00")
    assert dist_loss == pytest.approx({"11": 1.0})
    dist_leak = exact_distribution(qnd2, NoiseChannelParams(leak=1.0), "11")
    assert dist_leak == pytest.approx({"00": 1.0})


def test_spam_flips_outcomes(qnd2):
    dist = exact_distribution(qnd2, NoiseChannelParams(spam=1.0), "00")
    assert dist == pytest.approx({"11": 1.0})


def test_histogram_sums_to_shots(qnd3):
    noise = NoiseChannelParams(depolarizing=0.05, leak=0.01, loss=0.02)
    hists = simulate(qnd3, noise, ["011", "110"], shots=2000, seed=5)
    for label in ("011", "110"):
        assert sum(hists[label].values()) == 2000


def test_simulate_deterministic_under_seed(qnd3):
    noise = NoiseChannelParams(depolarizing=0.05, leak=0.01, loss=0.02,
                               spam=0.005)
    h1 = simulate(qnd3, noise, ["101"], shots=3000, seed=42)
    h2 = simulate(qnd3, noise, ["101"], shots=3000, seed=42)
    assert h1 == h2


def test_trajectories_match_exact_channel(qnd3):
    noise = NoiseChannelParams(depolarizing=0.05, leak=0.01, loss=0.02,
                               spam=0.01)
    shots = 100_000
    label = "101"
    dist = exact_distribution(qnd3, noise, label)
    hist = simulate(qnd3, noise, [label], shots=shots, seed=7)[label]
    for outcome in set(dist) | set(hist):
        p = dist.get(outcome, 0.0)
        n = hist.get(outcome, 0)
        sd = max(math.sqrt(shots * p * (1.0 - p)), 1.0)
        assert abs(n - shots * p) <= 4.0 * sd, (outcome, p, n / shots)


def test_one_qubit_each_depolarizing_mode(qnd2):
    noise = NoiseChannelParams(depolarizing=0.05,
                               depolarizing_mode="one-qubit-each")
    dist = exact_distribution(qnd2, noise, "00")
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert dist["00"] < 1.0
    hist = simulate(qnd2, noise, ["00"], shots=50_000, seed=3)["00"]
    for outcome in set(dist) | set(hist):
        p = dist.get(outcome, 0.0)
        n = hist.get(outcome, 0)
        sd = max(math.sqrt(50_000 * p * (1.0 - p)), 1.0)
        assert abs(n - 50_000 * p) <= 4.5 * sd


@st.composite
def noisy_circuits(draw):
    """A valid circuit of 1-3 qubits (r, rz and data-ancilla cz ops), random
    noise and an input label.  Qubit 0 is data and qubit 1 an ancilla, so
    every circuit of two or more qubits can hold a cz; angles are nonzero
    multiples of pi/8, and every qubit is rotated first and last, so that cz
    and rz phases reach the Z-basis readout."""
    n = draw(st.integers(1, 3))
    roles = ["data", "ancilla", draw(st.sampled_from(["data", "ancilla"]))][:n]
    pairs = [(i, j) for i in range(n) for j in range(n) if roles[i] != roles[j]]
    qubit = st.integers(0, n - 1)
    angle = st.integers(1, 15).map(lambda k: k * math.pi / 8)
    kinds = [st.tuples(st.just("r"), qubit, angle, angle),
             st.tuples(st.just("rz"), qubit, angle)]
    if pairs:
        kinds.append(st.sampled_from(pairs).map(lambda p: ("cz",) + p))
    turns = st.tuples(*[st.tuples(st.just("r"), st.just(q), angle, angle)
                        for q in range(n)])
    ops = [*draw(turns), *draw(st.lists(st.one_of(kinds), min_size=1,
                                        max_size=6)), *draw(turns)]
    measured = draw(st.lists(qubit, min_size=1, max_size=n, unique=True))
    circuit = PlaquetteCircuit([Qubit(f"q{k}", "rb", roles[k]) for k in range(n)],
                               ops, measured)
    noise = NoiseChannelParams(
        depolarizing=draw(st.floats(0.0, 0.2)), leak=draw(st.floats(0.0, 0.1)),
        loss=draw(st.floats(0.0, 0.1)), spam=draw(st.floats(0.0, 0.05)),
        depolarizing_mode=draw(st.sampled_from(["two-qubit", "one-qubit-each"])))
    label = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    return circuit, noise, "".join(label)


# every noise mechanism on a 4-qubit circuit with 8 CZs, deeper than the
# golden ``mixed4``: loss and leak freeze atoms mid-circuit, so many
# histories merge into one branch
_EIGHT_CZ = (
    parse_circuit("qubit d1 rb data\nqubit a1 cs ancilla\n"
                  "qubit d2 rb data\nqubit a2 cs ancilla\n"
                  "r all pi/3 0.4\ncz d1 a1\ncz d2 a1\ncz d2 a2\ncz d1 a2\n"
                  "r cs pi/2 0\nrz d2 0.7\n"
                  "cz d1 a1\ncz d2 a1\ncz d2 a2\ncz d1 a2\n"
                  "r all pi/2 pi\nmeasure d1 a1 d2 a2\n"),
    NoiseChannelParams(depolarizing=0.05, leak=0.03, loss=0.04, spam=0.02),
    "0110")


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(noisy_circuits())
@example(_EIGHT_CZ)
def test_trajectories_match_exact_on_random_circuits(case):
    circuit, noise, label = case
    shots = 4000
    dist = exact_distribution(circuit, noise, label)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    for hist in (simulate(circuit, noise, [label], shots=shots, seed=13)[label],
                 simulate_rows(circuit, noise, [label], shots, seed=13)[label]):
        assert sum(hist.values()) == shots
        for outcome in set(dist) | set(hist):
            p = dist.get(outcome, 0.0)
            k = hist.get(outcome, 0)
            sd = max(math.sqrt(shots * p * (1.0 - p)), 1.0)
            assert abs(k - shots * p) <= 4.5 * sd, (outcome, p, k / shots)


def _assert_matches_reference(circuit, noise, label):
    got = exact_distribution(circuit, noise, label)
    ref = exact_distribution_reference(circuit, noise, label)
    assert set(got) == set(ref)
    for outcome, p in ref.items():
        assert abs(got[outcome] - p) <= 1e-14, (outcome, got[outcome], p)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(noisy_circuits())
@example(_EIGHT_CZ)
@example((_EIGHT_CZ[0],
          replace(_EIGHT_CZ[1], depolarizing_mode="one-qubit-each"),
          _EIGHT_CZ[2]))
def test_exact_distribution_matches_operator_sums(case):
    """The partial-trace twirl, the coherence masks and the per-qubit SPAM
    flips give the Pauli sums, projector pairs and flip patterns they
    replace, outcome for outcome."""
    _assert_matches_reference(*case)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(noisy_circuits(), st.randoms(use_true_random=False))
@example(_EIGHT_CZ, random.Random(0))
@example((_EIGHT_CZ[0],
          replace(_EIGHT_CZ[1], depolarizing_mode="one-qubit-each"),
          _EIGHT_CZ[2]), random.Random(1))
def test_exact_distributions_equal_per_label_calls(case, rng):
    """One batched pass gives every input's distribution bit for bit, over
    all inputs in index order and over a shuffled subset."""
    circuit, noise, _ = case
    labels = [format(i, f"0{circuit.n}b") for i in range(2 ** circuit.n)]
    single = {label: exact_distribution(circuit, noise, label)
              for label in labels}
    assert exact_distributions(circuit, noise, labels) == [
        single[label] for label in labels]
    subset = rng.sample(labels, rng.randint(1, len(labels)))
    assert exact_distributions(circuit, noise, subset) == [
        single[label] for label in subset]


@pytest.mark.parametrize("mode", ["two-qubit", "one-qubit-each"])
@pytest.mark.parametrize("extreme", [{"loss": 1.0, "leak": 0.0},
                                     {"loss": 0.0, "leak": 1.0},
                                     {"spam": 0.0}, {"spam": 1.0}])
def test_exact_distribution_matches_operator_sums_at_extremes(qnd3, mode,
                                                              extreme):
    circuit, noise, label = _EIGHT_CZ
    noise = replace(noise, depolarizing_mode=mode, **extreme)
    _assert_matches_reference(circuit, noise, label)
    for label in ("000", "011", "101"):
        _assert_matches_reference(qnd3, noise, label)


def test_histograms_at_huge_shot_counts(qnd3):
    noise = NoiseChannelParams(depolarizing=0.025, leak=0.01, loss=0.02,
                               spam=0.01)
    labels = [format(i, "03b") for i in range(8)]
    hists = simulate(qnd3, noise, labels, shots=10 ** 12)
    assert [sum(hists[label].values()) for label in labels] == [10 ** 12] * 8


# ---------------------------------------------------------------------------
# predicted F_QND
# ---------------------------------------------------------------------------

def test_predicted_fqnd_noiseless_is_one(qnd2, qnd3):
    assert predicted_fqnd(qnd2, NoiseChannelParams()) == pytest.approx(1.0, abs=1e-12)
    assert predicted_fqnd(qnd3, NoiseChannelParams()) == pytest.approx(1.0, abs=1e-12)


def test_fqnd_three_atom_below_two_atom(qnd2, qnd3):
    # measured ordering: the deeper plaquette has lower syndrome fidelity
    noise = NoiseChannelParams(depolarizing=0.025)
    assert predicted_fqnd(qnd3, noise) < predicted_fqnd(qnd2, noise)


def test_fqnd_monotone_in_depolarizing(qnd3):
    vals = [predicted_fqnd(qnd3, NoiseChannelParams(depolarizing=s))
            for s in np.linspace(0.0, 0.1, 6)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_input_relabeling_permutes_histogram(qnd3):
    # consistently relabeling the two Cs data qubits (circuit gate order,
    # input labels, and outcome strings together) permutes the histogram
    relabeled = parse_circuit(
        "qubit c1 cs data\nqubit a rb ancilla\nqubit c2 cs data\n"
        "r a pi/2 0\ncz c2 a\ncz c1 a\nr a pi/2 pi\nmeasure c1 a c2\n")
    noise = NoiseChannelParams(depolarizing=0.03, leak=0.01)
    swap = lambda s: s[2] + s[1] + s[0]
    for label in ("100", "110", "011"):
        d1 = exact_distribution(qnd3, noise, label)
        d2 = exact_distribution(relabeled, noise, swap(label))
        for outcome, p in d1.items():
            assert d2.get(swap(outcome), 0.0) == pytest.approx(p, abs=1e-12)


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseChannelParams(depolarizing=1.5)
    with pytest.raises(ValueError):
        NoiseChannelParams(loss=0.6, leak=0.6)
    with pytest.raises(ValueError):
        NoiseChannelParams(depolarizing_mode="bogus")


# ---------------------------------------------------------------------------
# golden pins
# ---------------------------------------------------------------------------

_GOLDEN_QND = Path(__file__).parent / "golden_qnd.json"
_REPIN_MAX_MOVE = 1e-14    # a larger move is a numerical change, not rounding


def _golden():
    return json.loads(_GOLDEN_QND.read_text())


def _golden_circuit(golden, name):
    inline = golden["simulate"]["inline_circuits"]
    return parse_circuit(inline[name]) if name in inline else load_circuit(name)


def test_golden_simulate_pins_histograms():
    """(circuit, noise, labels, shots, seed) -> histograms is fixed; a
    change to the multinomial draws or to the distributions they are drawn
    from fails here."""
    golden = _golden()
    spec = golden["simulate"]
    for case in spec["cases"]:
        circuit = _golden_circuit(golden, case["circuit"])
        noise = NoiseChannelParams(depolarizing_mode=case["mode"],
                                   **spec["noise"])
        hists = simulate(circuit, noise, list(case["histograms"]),
                         spec["shots"], seed=case["seed"])
        assert hists == case["histograms"], (case["circuit"], case["mode"],
                                             case["seed"])


def test_golden_exact_distribution_pins_floats():
    golden = _golden()
    for case in golden["exact_distribution"]["cases"]:
        circuit = _golden_circuit(golden, case["circuit"])
        noise = NoiseChannelParams(depolarizing_mode=case["mode"],
                                   **golden["simulate"]["noise"])
        for label, dist in case["distributions"].items():
            got = exact_distribution(circuit, noise, label)
            assert {o: p.hex() for o, p in got.items()} == dist, (
                case["circuit"], case["mode"], label)
        if case["predicted_fqnd"] is not None:
            assert predicted_fqnd(circuit, noise).hex() == case["predicted_fqnd"]


def repin_golden_qnd() -> float:
    """Rewrite the ``exact_distribution`` pins of ``golden_qnd.json`` (its
    float.hex probabilities and ``predicted_fqnd``) from the code as it
    stands, and return the largest move.  Refuses, writing nothing, if an
    outcome set changes or a value moves by more than ``_REPIN_MAX_MOVE``; the
    ``simulate`` and ``rabi_error`` sections are left as they are."""
    golden = _golden()
    worst = 0.0

    def move(old_hex: str, new: float) -> str:
        nonlocal worst
        delta = abs(new - float.fromhex(old_hex))
        if delta > _REPIN_MAX_MOVE:
            raise ValueError(f"{old_hex} -> {new.hex()} moves by {delta:.3g}")
        worst = max(worst, delta)
        return new.hex()

    for case in golden["exact_distribution"]["cases"]:
        circuit = _golden_circuit(golden, case["circuit"])
        noise = NoiseChannelParams(depolarizing_mode=case["mode"],
                                   **golden["simulate"]["noise"])
        for label, dist in case["distributions"].items():
            got = exact_distribution(circuit, noise, label)
            if set(got) != set(dist):
                raise ValueError(f"{case['circuit']} {case['mode']} {label}: "
                                 f"outcomes {sorted(dist)} -> {sorted(got)}")
            case["distributions"][label] = {o: move(dist[o], p)
                                            for o, p in sorted(got.items())}
        if case["predicted_fqnd"] is not None:
            case["predicted_fqnd"] = move(case["predicted_fqnd"],
                                          predicted_fqnd(circuit, noise))
    _GOLDEN_QND.write_text(json.dumps(golden, indent=1) + "\n")
    return worst
