"""Noisy-channel simulator for the 2-atom QND and 3-atom parity circuits.

Circuits are small (<= 4 qubits) lists of global/per-qubit rotations, local
Rz, CZ gates between a data-ancilla pair, and a final measurement.  Noise is
attached to each CZ: a symmetric two-qubit depolarizing channel (probability
``depolarizing``), plus per-participant leakage and loss events.  Readout
folds loss/leak into the blow-away convention: a lost atom reads dark (1), a
leaked atom stays bright (0).  Per-qubit SPAM errors flip readout bits.

The channel is evaluated exactly, for a batch of inputs in one pass, as a
stack of density matrices per loss/leak status (`exact_distributions`;
`exact_distribution` is a batch of one).  The Pauli twirl on a qubit is the
partial trace Tr_q(rho) (x) I/2, and SPAM one bit flip per measured qubit.
Shots are independent: a histogram is one multinomial draw (`simulate`).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np


class CircuitError(ValueError):
    """Malformed circuit description."""


@dataclass(frozen=True)
class NoiseChannelParams:
    """Per-CZ depolarizing/leak/loss probabilities plus per-qubit SPAM error."""

    depolarizing: float = 0.0
    leak: float = 0.0
    loss: float = 0.0
    spam: float = 0.0
    depolarizing_mode: str = "two-qubit"   # or "one-qubit-each"

    def __post_init__(self):
        for name in ("depolarizing", "leak", "loss", "spam"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.loss + self.leak > 1.0:
            raise ValueError("loss + leak must not exceed 1")
        if self.depolarizing_mode not in ("two-qubit", "one-qubit-each"):
            raise ValueError("depolarizing_mode must be 'two-qubit' or "
                             "'one-qubit-each'")


@dataclass
class Qubit:
    name: str
    species: str
    role: str                  # data | ancilla


@dataclass
class PlaquetteCircuit:
    qubits: list[Qubit]
    ops: list[tuple]           # ("r", idx, theta, phi) | ("rz", idx, phi) | ("cz", i, j)
    measured: list[int]

    @property
    def n(self) -> int:
        return len(self.qubits)

    def qubit_index(self, name: str) -> int:
        for i, q in enumerate(self.qubits):
            if q.name == name:
                return i
        raise CircuitError(f"unknown qubit {name!r}")

    def validate(self):
        if not (1 <= self.n <= 4):
            raise CircuitError("circuits support 1 to 4 qubits")
        if not self.measured:
            raise CircuitError("no measured qubits declared")
        repeated = sorted({self.qubits[i].name for i in self.measured
                           if self.measured.count(i) > 1})
        if repeated:
            raise CircuitError(
                f"qubits measured more than once: {' '.join(repeated)}")
        if any(op[0] == "cz" and {self.qubits[op[1]].role,
                                  self.qubits[op[2]].role} != {"data", "ancilla"}
               for op in self.ops):
            raise CircuitError(
                "cz must couple exactly one data qubit and one ancilla")


_ANGLE_RE = re.compile(r"^(-?)(?:(\d+(?:\.\d*)?)\s*\*?\s*)?pi(?:/(\d+(?:\.\d*)?))?$")


def _parse_angle(tok: str) -> float:
    """Angles in radians; 'pi', '-pi/2', '3pi/2' style expressions allowed."""
    tok = tok.strip().lower()
    m = _ANGLE_RE.match(tok)
    try:
        if m:
            sign = -1.0 if m.group(1) else 1.0
            value = (sign * float(m.group(2) or 1.0) * math.pi
                     / float(m.group(3) or 1.0))
        else:
            value = float(tok)
    except (ValueError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise CircuitError(f"bad angle {tok!r}: not a finite number")
    return value


def parse_circuit(text: str) -> PlaquetteCircuit:
    """Parse the line-oriented circuit format.

    Directives: ``qubit <name> <species> <role>``, ``r <target> <theta>
    <phi>`` (target: qubit name, species, or 'all'), ``rz <qubit> <phi>``,
    ``cz <q1> <q2>``, ``measure <q1> [...]``.  '#' starts a comment.
    """
    qubits: list[Qubit] = []
    ops: list[tuple] = []
    measured: list[int] = []
    circuit = PlaquetteCircuit(qubits, ops, measured)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "qubit":
                if len(parts) != 4:
                    raise CircuitError("qubit needs: name species role")
                name, species, role = parts[1], parts[2].lower(), parts[3].lower()
                if role not in ("data", "ancilla"):
                    raise CircuitError(f"bad role {role!r}")
                if any(q.name == name for q in qubits):
                    raise CircuitError(f"duplicate qubit {name!r}")
                qubits.append(Qubit(name, species, role))
            elif kind == "r":
                if len(parts) != 4:
                    raise CircuitError("r needs: target theta phi")
                theta, phi = _parse_angle(parts[2]), _parse_angle(parts[3])
                target = parts[1]
                if target.lower() == "all":
                    idxs = list(range(len(qubits)))
                elif any(q.species == target.lower() for q in qubits):
                    idxs = [i for i, q in enumerate(qubits)
                            if q.species == target.lower()]
                else:
                    idxs = [circuit.qubit_index(target)]
                for i in idxs:
                    ops.append(("r", i, theta, phi))
            elif kind == "rz":
                if len(parts) != 3:
                    raise CircuitError("rz needs: qubit phi")
                ops.append(("rz", circuit.qubit_index(parts[1]),
                            _parse_angle(parts[2])))
            elif kind == "cz":
                if len(parts) != 3:
                    raise CircuitError("cz needs: q1 q2")
                i, j = circuit.qubit_index(parts[1]), circuit.qubit_index(parts[2])
                if i == j:
                    raise CircuitError("cz targets must differ")
                ops.append(("cz", i, j))
            elif kind == "measure":
                if len(parts) < 2:
                    raise CircuitError("measure needs at least one qubit")
                measured.extend(circuit.qubit_index(p) for p in parts[1:])
            else:
                raise CircuitError(f"unknown directive {kind!r}")
        except CircuitError as exc:
            raise CircuitError(f"line {lineno}: {exc}") from exc
    circuit.validate()
    return circuit


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _rot(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * np.exp(-1j * phi) * s],
                     [-1j * np.exp(1j * phi) * s, c]], dtype=complex)


def _single(op: tuple) -> tuple[int, np.ndarray]:
    """(qubit, 2x2 unitary) of an "r" or "rz" op."""
    if op[0] == "r":
        return op[1], _rot(op[2], op[3])
    return op[1], np.diag([1.0, np.exp(1j * op[2])]).astype(complex)


@functools.lru_cache(maxsize=256)
def _lifted(op: tuple, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Cached, read-only (qubit, U, U^dagger) of an "r"/"rz" op on n qubits."""
    q, u = _single(op)
    full = functools.reduce(np.kron, [u if k == q else np.eye(2, dtype=complex)
                                      for k in range(n)])
    dag = full.conj().T
    full.flags.writeable = dag.flags.writeable = False
    return q, full, dag


@functools.lru_cache(maxsize=None)
def _bit_tables(n: int) -> tuple[list, list]:
    """Per qubit q, over the flattened entries of a 2^n x 2^n matrix:
    ``same[q]`` is 1 where bit q of the row index equals bit q of the column
    index, else 0; ``flipped[q]`` is the flat index of the entry with bit q
    flipped in both the row and the column index."""
    bit = (1 << np.arange(n - 1, -1, -1))[:, None, None]
    row, col = np.arange(2 ** n)[:, None], np.arange(2 ** n)
    same = ((row ^ col) & bit == 0).astype(complex)
    flipped = (row ^ bit) * 2 ** n + (col ^ bit)
    same.flags.writeable = flipped.flags.writeable = False
    return list(same.reshape(n, -1)), list(flipped.reshape(n, -1))


def _cz_diag(i: int, j: int, n: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    return np.where((idx >> (n - 1 - i)) & (idx >> (n - 1 - j)) & 1,
                    -1.0, 1.0).astype(complex)


def _state_index(label: str, n: int) -> int:
    if len(label) != n or any(ch not in "01" for ch in label):
        raise CircuitError(f"bad computational-basis label {label!r}")
    return int(label, 2)


ACTIVE, LOST, LEAKED = 0, 1, 2


# ---------------------------------------------------------------------------
# the noisy channel: exact distribution and sampled histograms
# ---------------------------------------------------------------------------

def exact_distributions(circuit: PlaquetteCircuit, noise: NoiseChannelParams,
                        input_labels: list[str]) -> list[dict[str, float]]:
    """Per input, the outcome distribution over measured-qubit bit strings.

    One pass of the exact channel serves every input.  It branches over per-CZ
    loss/leak events; a lost or leaked participant freezes (gates act as
    identity on its partner for that CZ) and reads out dark (1) or bright (0).
    Each branch, keyed by its per-qubit status, is a stack of unnormalized
    density matrices, one per input: at most 3^n branches.

    The depolarizing twirl on a qubit is a partial trace, Tr_q(rho) (x) I/2
    (two-qubit mode: the twirl on one participant, then on the other).  A
    lost or leaked atom is not projected: no later gate acts on it and its
    readout bit is fixed, so its coherences never reach the diagonal that
    readout sums onto the measured outcomes.  SPAM then flips one measured
    bit at a time.
    """
    circuit.validate()
    n, count = circuit.n, len(input_labels)
    k = [_state_index(label, n) for label in input_labels]
    rho0 = np.zeros((count, 2 ** n, 2 ** n), dtype=complex)
    rho0[np.arange(count), k, k] = 1.0
    branches = {(ACTIVE,) * n: rho0}
    same, flipped = _bit_tables(n)
    sigma = noise.depolarizing

    fates = [(p, code) for p, code in ((1.0 - noise.loss - noise.leak, ACTIVE),
                                       (noise.loss, LOST), (noise.leak, LEAKED))
             if p != 0.0]
    for op in circuit.ops:
        if op[0] != "cz":
            q, full, dag = _lifted(op, n)
            branches = {status: full @ rho @ dag if status[q] == ACTIVE else rho
                        for status, rho in branches.items()}
            continue
        _, i, j = op
        d = _cz_diag(i, j, n)
        twirled = ([(i, j)] if noise.depolarizing_mode == "two-qubit"
                   else [(i,), (j,)])
        nxt: dict[tuple, np.ndarray] = {}
        for status, rho in branches.items():
            events = [(1.0, status)]
            for q in (i, j):
                if status[q] == ACTIVE:
                    events = [(wq * p, st[:q] + (code,) + st[q + 1:])
                              for wq, st in events for p, code in fates]
            for wq, st in events:
                r = wq * rho
                if st[i] == ACTIVE and st[j] == ACTIVE:
                    r = d[:, None] * r * np.conj(d)[None, :]
                    for qubits in twirled if sigma else ():
                        t = r.reshape(-1, 4 ** n)
                        for q in qubits:        # Tr_q(t) (x) I/2
                            t = 0.5 * (t + t.take(flipped[q], 1)) * same[q]
                        r = (1.0 - sigma) * r + sigma * t.reshape(r.shape)
                nxt[st] = nxt[st] + r if st in nxt else r
        branches = nxt

    # readout: each branch's diagonal onto (input, measured bits), MSB first
    status = np.array(list(branches))
    p = np.array(list(branches.values())).diagonal(0, 2, 3).real.copy()
    p[p <= 1e-16] = 0.0
    idx = np.arange(2 ** n)
    key = np.arange(count)[:, None]
    for q in circuit.measured:
        st = status[:, q, None, None]
        key = 2 * key + np.where(st == ACTIVE, (idx >> (n - 1 - q)) & 1,
                                 st == LOST)
    m = len(circuit.measured)
    probs = np.bincount(key.ravel(), weights=p.ravel(), minlength=count << m)
    if noise.spam:
        probs = probs.reshape((count,) + (2,) * m)
        for axis in range(1, m + 1):
            probs = ((1.0 - noise.spam) * probs
                     + noise.spam * np.flip(probs, axis))
    return [{format(o, f"0{m}b"): p for o, p in enumerate(row) if p > 0.0}
            for row in probs.reshape(count, 2 ** m).tolist()]


def exact_distribution(circuit: PlaquetteCircuit, noise: NoiseChannelParams,
                       input_label: str) -> dict[str, float]:
    """`exact_distributions` for one input: a batch of one."""
    return exact_distributions(circuit, noise, [input_label])[0]


def _deterministic(label: str, dist: dict[str, float]) -> str:
    best, p = max(dist.items(), key=lambda kv: kv[1])
    if p < 1.0 - 1e-9:
        raise CircuitError(f"noiseless circuit is not deterministic on input "
                           f"{label!r} (max outcome probability {p:.6f})")
    return best


def ideal_outcome(circuit: PlaquetteCircuit, input_label: str) -> str:
    """Deterministic noiseless outcome for a computational-basis input."""
    return _deterministic(input_label, exact_distribution(
        circuit, NoiseChannelParams(), input_label))


def predicted_fqnd(circuit: PlaquetteCircuit, noise: NoiseChannelParams,
                   input_labels: list[str] | None = None) -> float:
    """Average probability of the correct outcome over the input set."""
    if input_labels is None:
        input_labels = [format(i, f"0{circuit.n}b") for i in range(2 ** circuit.n)]
    ideal = list(map(_deterministic, input_labels, exact_distributions(
        circuit, NoiseChannelParams(), input_labels)))
    noisy = exact_distributions(circuit, noise, input_labels)
    return sum(d.get(b, 0.0) for d, b in zip(noisy, ideal)) / len(input_labels)


def simulate(circuit: PlaquetteCircuit, noise: NoiseChannelParams,
             input_labels: list[str], shots: int,
             seed: int = 0) -> dict[str, dict[str, int]]:
    """Per input label, a histogram of ``shots`` independent outcome strings.

    The shots are independent, so each histogram is one Multinomial(shots,
    p) draw over the exact distribution p (`exact_distributions`).  Stream
    contract: one ``default_rng(seed)``; labels in the order given, one
    ``multinomial`` call each, over that label's outcomes in index order
    (first measured qubit most significant) with p normalized by its sum.
    """
    circuit.validate()
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if shots > np.iinfo(np.int64).max:
        raise ValueError(f"shots must be at most 2**63 - 1, got {shots}")
    rng = np.random.default_rng(seed)
    results: dict[str, dict[str, int]] = {}
    for label, dist in zip(input_labels,
                           exact_distributions(circuit, noise, input_labels)):
        outcomes = sorted(dist)
        p = np.array([dist[o] for o in outcomes])
        counts = rng.multinomial(shots, p / p.sum())
        results[label] = {o: int(c) for o, c in zip(outcomes, counts) if c}
    return results
