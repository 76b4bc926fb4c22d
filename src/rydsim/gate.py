"""Two-atom three-level gate engine.

Each atom is modeled as a three-level system {|0>, |1>, |r>} driven on the
|1>-|r> transition with a phase-modulated pulse.  Decay and scattering are
non-Hermitian diagonal terms, so the state norm decays and the deficit is
tracked as accumulated loss.  The two-atom Hamiltonian is block diagonal in
the four sectors defined by whether each atom occupies |0> or the driven
{|1>, |r>} manifold.  Each driven sector is propagated for a whole batch of
shots with the fourth-order commutator-free Magnus method (CFM4), whose step
exponentials take the constant blockade shift exactly, so the step count does
not grow with the blockade.

`GateParams` is the one description of the pulse, shared by every shot; a
`DriveBatch` (built by `noise.resolve_drive_batch`) holds the per-shot drives
of n shots as plain arrays.  `evolve_batch`, `pulse_state_nominal` and
`bell_errors_batch` take both and are the ways into the engine; a single
drive is a batch of one.  As an independent check, `build_hamiltonian` gives
the full 9x9 matrix of one shot of a batch, and `evolve_dense_reference`
integrates it with plain RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .constants import TWO_PI

# single-atom level indices
G0, G1, RYD = 0, 1, 2

# two-atom basis index: 3*a + b for atom-A level a, atom-B level b
def pair_index(a: int, b: int) -> int:
    return 3 * a + b


# sector index lists within the 9-dim basis
SECTOR_00 = [pair_index(G0, G0)]
SECTOR_0B = [pair_index(G0, G1), pair_index(G0, RYD)]
SECTOR_A0 = [pair_index(G1, G0), pair_index(RYD, G0)]
SECTOR_AB = [
    pair_index(G1, G1),
    pair_index(G1, RYD),
    pair_index(RYD, G1),
    pair_index(RYD, RYD),
]


class IntegrationError(RuntimeError):
    """Raised when a batch cannot be propagated: a drive value is not finite,
    a step count exceeds its limit, or a shot's norm grows."""


@dataclass(frozen=True)
class GateParams:
    """Pulse parameters of the phase-modulated CZ protocol.

    The drive phase is a single sinusoid,
    ``phi(t) = phase_mod_depth * sin(phase_mod_rate * (t - phase_mod_delay))``,
    applied on top of a constant two-photon detuning; both atoms see the same
    waveform.  ``virtual_rz`` holds the per-atom single-qubit phase
    corrections applied after the pulse, two finite numbers kept as a tuple.
    """

    detuning: float            # rad/s
    duration: float            # s
    phase_mod_rate: float      # rad/s
    phase_mod_depth: float     # rad
    phase_mod_delay: float     # s
    virtual_rz: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.duration > 0):
            raise ValueError("duration must be positive")
        if self.phase_mod_depth < 0:
            raise ValueError("phase_mod_depth must be >= 0")
        for name in ("detuning", "duration", "phase_mod_rate",
                     "phase_mod_depth", "phase_mod_delay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        rz = tuple(self.virtual_rz)
        if len(rz) != 2 or not all(isinstance(v, Real) and math.isfinite(v)
                                   for v in rz):
            raise ValueError("virtual_rz must be two finite numbers")
        object.__setattr__(self, "virtual_rz", rz)


def waveform_phase(params: GateParams, t):
    """Drive phase phi(t) in rad; accepts scalar or array t in [0, duration]."""
    return params.phase_mod_depth * np.sin(
        params.phase_mod_rate * (np.asarray(t, dtype=float) - params.phase_mod_delay)
    )


def phase_bandwidth(params: GateParams) -> float:
    """Fastest angular frequency of exp(i phi(t)) in rad/s, a bound on
    |dphi/dt| that is never below the modulation rate; sets the step."""
    return abs(params.phase_mod_rate) * max(1.0, params.phase_mod_depth)


@dataclass
class DriveBatch:
    """Per-shot drive parameters for batched evolution (all arrays (n,)).

    Atom A drives with ``omega_a`` (two-photon Rabi frequency) at detuning
    ``delta_a``, with loss rates ``gamma1_a`` out of |1> and ``gammar_a`` out
    of |r>; atom B likewise; ``blockade`` shifts |rr>.  The pulse duration
    and phase waveform come from the `GateParams` passed beside the batch.
    """

    omega_a: np.ndarray
    delta_a: np.ndarray
    gamma1_a: np.ndarray
    gammar_a: np.ndarray     # total |r> loss rate for atom A
    omega_b: np.ndarray
    delta_b: np.ndarray
    gamma1_b: np.ndarray
    gammar_b: np.ndarray
    blockade: np.ndarray

    def __len__(self):
        return len(self.omega_a)


def _single_atom_hamiltonian(batch: DriveBatch, atom: str, shot: int,
                             phi: float) -> np.ndarray:
    omega, delta, gamma1, gammar = (
        float(getattr(batch, f"{name}_{atom}")[shot])
        for name in ("omega", "delta", "gamma1", "gammar"))
    h = np.zeros((3, 3), dtype=complex)
    coupling = 0.5 * omega * np.exp(1j * phi)
    h[G1, RYD] = coupling
    h[RYD, G1] = np.conj(coupling)
    h[RYD, RYD] = -delta
    h[G1, G1] += -0.5j * gamma1
    h[RYD, RYD] += -0.5j * gammar
    return h


def build_hamiltonian(batch: DriveBatch, gate: GateParams, t: float,
                      shot: int = 0) -> np.ndarray:
    """Full 9x9 two-atom Hamiltonian (rad/s) of one shot of ``batch`` at t,
    with the phase of ``gate``'s waveform on both couplings.

    H = H_a x I + I x H_b + B |rr><rr| with non-Hermitian decay diagonals.
    """
    phi = float(waveform_phase(gate, t))
    ha = _single_atom_hamiltonian(batch, "a", shot, phi)
    hb = _single_atom_hamiltonian(batch, "b", shot, phi)
    h = np.kron(ha, np.eye(3)) + np.kron(np.eye(3), hb)
    h[pair_index(RYD, RYD), pair_index(RYD, RYD)] += float(batch.blockade[shot])
    return h


# ---------------------------------------------------------------------------
# step control and the sector propagator
# ---------------------------------------------------------------------------

# every sector takes at least this many steps; a sector needing more than
# _MAX_STEPS raises IntegrationError
_MIN_STEPS = 16
_MAX_STEPS = 5_000_000


def _steps_for(duration: float, scale: float, steps_per_period: int) -> int:
    """CFM4 steps resolving the period of ``scale``, a sector's fastest
    non-blockade angular frequency, with ``steps_per_period`` points."""
    dt_max = TWO_PI / (steps_per_period * max(scale, TWO_PI / duration))
    steps = duration / dt_max if dt_max > 0 else math.inf
    if not steps <= _MAX_STEPS:
        raise IntegrationError(f"step size underflow: {steps:.3g} steps "
                               f"exceed limit {_MAX_STEPS}")
    return max(math.ceil(steps), _MIN_STEPS)


# CFM4, the fourth-order commutator-free Magnus propagator (Alvermann &
# Fehske, J. Comput. Phys. 230, 5930 (2011)):
#   psi(t+h) = exp(-ih(b H1 + a H2)) exp(-ih(a H1 + b H2)) psi(t)
# with H1, H2 = H at the Gauss points t + (1/2 -/+ sqrt(3)/6) h.  Since
# a + b = 1/2, each exponential holds half the constant diagonal and only
# the coupling phase factors differ between the two.
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF_A = 0.25 + math.sqrt(3.0) / 6.0
_CF_B = 0.25 - math.sqrt(3.0) / 6.0

# truncation bound per exponential, and the largest ||h M|| whose Taylor
# series is summed on the state; above it the step matrix is scaled and
# squared, so the cost grows as log ||h M||
_TAYLOR_TOL = 2.0 ** -53
_THETA_MAX = 1.0


def _taylor_terms(theta: float) -> int:
    """Fewest terms m with theta^(m+1) / (m+1)! <= _TAYLOR_TOL."""
    m, bound = 0, theta
    while bound > _TAYLOR_TOL:
        m += 1
        bound *= theta / (m + 1)
    return m


# reversal of atom axis 0 and of atom axis 1, as index tuples
_FLIPS = ((slice(None, None, -1),), (slice(None), slice(None, None, -1)))


def _apply(term, diag, coups):
    """A term for A = diag + the couplings; coupling i flips atom axis i,
    taking |r> into the |1> row with coups[i][0] and back with coups[i][1]."""
    out = diag * term
    for flip, c in zip(_FLIPS, coups):
        out += c * term[flip]
    return out


def _taylor_action(psi, diag, coups, m):
    """exp(A) psi summed to m Taylor terms."""
    out = psi.copy()
    term = psi
    for k in range(1, m + 1):
        term = _apply(term, diag, coups)
        term *= 1.0 / k
        out += term
    return out


def _expm_scaled(a, theta):
    """exp(a) of (n, d, d) matrices with norms <= theta, by scaling and
    squaring."""
    s = max(0, math.ceil(math.log2(theta / _THETA_MAX)))
    a = a / 2.0 ** s
    out = np.eye(a.shape[-1]) + a
    term = a
    for k in range(2, _taylor_terms(theta / 2.0 ** s) + 1):
        term = term @ a / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


def _cfm4_sector(psi, diag, omegas, gate: GateParams, nsteps: int,
                 accumulate=False):
    """CFM4-evolve a batch of sector states through ``gate`` in nsteps steps.

    psi : (2,) * k + (n,) complex; axis i is the level (|1>, |r>) of the
        i-th driven atom, the last axis the shot
    diag : same shape, the constant diagonal of H (rad/s)
    omegas : Rabi frequency per driven atom; its coupling is
        0.5 * omega * exp(i phi(t)) from |r> into |1>, with phi the gate's
        waveform
    accumulate : also return trapezoid integrals of |psi|^2 dt over the
        step endpoints
    """
    k = len(omegas)
    h = gate.duration / nsteps
    # the midpoint of the real diagonal comes out as a global phase per shot
    re = diag.real.reshape(-1, diag.shape[-1])
    mid = 0.5 * (re.max(axis=0) + re.min(axis=0))
    half = -0.5j * h * (diag - mid)
    theta = float(np.max(np.abs(half)))

    # (nsteps, 2 exponentials, 2 rows) coupling factors, shared by the atoms
    t = h * np.arange(nsteps)
    e1, e2 = (np.exp(1j * waveform_phase(gate, t + c * h)) for c in _GAUSS)
    w = np.stack([_CF_A * e1 + _CF_B * e2, _CF_B * e1 + _CF_A * e2], 1)
    c = -0.5j * h * np.stack([w, np.conj(w)], 2)
    w_max = np.max(np.abs(w))
    coefs = []
    for i, omega in enumerate(omegas):
        coefs.append((c.reshape((nsteps, 2) + (1,) * i + (2,)
                                + (1,) * (k - i)), omega))
        theta += 0.5 * h * float(w_max * np.max(np.abs(omega)))

    if theta <= _THETA_MAX:
        m = _taylor_terms(theta)

        def expo(psi, coups):
            return _taylor_action(psi, half, coups, m)
    else:
        # the step matrix is A applied to the identity's columns, held on an
        # extra axis before the shot axis; made contiguous, since a strided
        # stack would take matmul off BLAS
        d = 2 ** k
        eye = np.eye(d).reshape((2,) * k + (d, 1))
        half_cols = half[..., None, :]

        def expo(psi, coups):
            a = _apply(eye, half_cols, [c[..., None, :] for c in coups])
            a = np.ascontiguousarray(a.reshape(d, d, -1).transpose(2, 0, 1))
            out = np.einsum("nij,jn->in", _expm_scaled(a, theta),
                            psi.reshape(d, -1))
            return out.reshape(psi.shape)

    if accumulate:
        pop = np.abs(psi) ** 2
        acc = np.zeros(psi.shape)
    for step in range(nsteps):
        for j in (0, 1):
            psi = expo(psi, [c[step, j] * omega for c, omega in coefs])
        if accumulate:
            pop_new = np.abs(psi) ** 2
            acc += 0.5 * h * (pop + pop_new)
            pop = pop_new
    psi = psi * np.exp(-1j * h * nsteps * mid)
    return (psi, acc) if accumulate else psi


def evolve_batch(psi, batch: DriveBatch, gate: GateParams,
                 steps_per_period: int = 100, accumulate: bool = False):
    """Evolve a batch of 9-dim amplitude vectors through the pulse ``gate``
    under per-shot drives.

    psi : (n, 9) complex.  Returns the evolved (n, 9) array; callers account
    for norm loss.  With ``accumulate``, also returns (n, 9) integrals of
    |psi_i|^2 dt used for first-order decay estimates.  Each sector takes
    one fixed step count for the whole batch: ``steps_per_period`` points
    per period of the batch's fastest non-blockade frequency, and at least
    16 (`_steps_for`).  The default of 100 keeps the norm drift of a
    decay-free gate below 1e-9.  Raises IntegrationError before stepping if
    a shot's drive holds a non-finite value or a negative Rabi frequency, or
    a sector needs more than `_MAX_STEPS` steps, and after stepping if any
    shot's norm grew by more than 1e-9.
    """
    psi = np.array(psi, dtype=complex)
    n = len(psi)
    values = np.stack([batch.omega_a, batch.delta_a, batch.gamma1_a,
                       batch.gammar_a, batch.omega_b, batch.delta_b,
                       batch.gamma1_b, batch.gammar_b, batch.blockade])
    bad = (~np.all(np.isfinite(values), axis=0) | (batch.omega_a < 0)
           | (batch.omega_b < 0))
    if np.any(bad):
        raise IntegrationError(
            f"non-finite drive or negative Rabi frequency in "
            f"{int(np.sum(bad))} of {n} shots")
    norm_in = np.sum(np.abs(psi) ** 2, axis=1)
    acc = np.zeros(psi.shape) if accumulate else None
    # fastest non-blockade angular frequency of each single-driven sector
    peak, bw = np.max(np.abs(values), axis=1), phase_bandwidth(gate)
    scale_a, scale_b = max(peak[0], peak[1], bw), max(peak[4], peak[5], bw)
    # diagonal of H on (|1>, |r>) per atom; the SECTOR_AB diagonal is the
    # sum of both plus the blockade on |rr>
    diag_a = np.stack([-0.5j * batch.gamma1_a,
                       -batch.delta_a - 0.5j * batch.gammar_a])
    diag_b = np.stack([-0.5j * batch.gamma1_b,
                       -batch.delta_b - 0.5j * batch.gammar_b])
    diag_ab = diag_a[:, None] + diag_b[None, :]
    diag_ab[1, 1] += batch.blockade
    for idxs, scale, diag, omegas in (
            (SECTOR_A0, scale_a, diag_a, [batch.omega_a]),
            (SECTOR_0B, scale_b, diag_b, [batch.omega_b]),
            (SECTOR_AB, max(scale_a, scale_b), diag_ab,
             [batch.omega_a, batch.omega_b])):
        nsteps = _steps_for(gate.duration, scale, steps_per_period)
        out = _cfm4_sector(psi[:, idxs].T.reshape(diag.shape), diag, omegas,
                           gate, nsteps, accumulate)
        if accumulate:
            out, acc[:, idxs] = out[0], out[1].reshape(len(idxs), n).T
        psi[:, idxs] = out.reshape(len(idxs), n).T

    growth = np.sum(np.abs(psi) ** 2, axis=1) - norm_in
    bad = ~(growth <= 1e-9)
    if np.any(bad):
        raise IntegrationError(
            f"norm grew by {np.nanmax(growth):.3e} in {int(np.sum(bad))} "
            f"of {len(psi)} shots; integration unstable")
    return (psi, acc) if accumulate else psi


def evolve_dense_reference(psi, batch: DriveBatch, gate: GateParams,
                           nsteps: int, shot: int = 0) -> np.ndarray:
    """Plain RK4 on the full 9x9 `build_hamiltonian` matrix of one shot
    through the pulse ``gate`` (validation path); returns the evolved 9
    amplitudes."""
    psi = np.array(psi, dtype=complex)
    dt = gate.duration / nsteps

    def rhs(t, y):
        return -1j * build_hamiltonian(batch, gate, t, shot) @ y

    t = 0.0
    for _ in range(nsteps):
        k1 = rhs(t, psi)
        k2 = rhs(t + 0.5 * dt, psi + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, psi + 0.5 * dt * k2)
        k4 = rhs(t + dt, psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        t += dt
    return psi


# ---------------------------------------------------------------------------
# Bell test circuit
# ---------------------------------------------------------------------------

def qubit_rotation(theta: float, phi: float) -> np.ndarray:
    """R(theta, phi) on the {|0>,|1>} subspace, identity on |r> (3x3)."""
    u = np.eye(3, dtype=complex)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u[G0, G0] = c
    u[G0, G1] = -1j * np.exp(-1j * phi) * s
    u[G1, G0] = -1j * np.exp(1j * phi) * s
    u[G1, G1] = c
    return u


def global_rotation(theta: float, phi: float) -> np.ndarray:
    """Simultaneous R(theta, phi) on both atoms (9x9)."""
    u = qubit_rotation(theta, phi)
    return np.kron(u, u)


def virtual_rz(phi_a: float, phi_b: float) -> np.ndarray:
    """Phase e^{i phi} on |1> of each atom (9x9 diagonal)."""
    da = np.ones(3, dtype=complex)
    da[G1] = np.exp(1j * phi_a)
    db = np.ones(3, dtype=complex)
    db[G1] = np.exp(1j * phi_b)
    return np.diag(np.kron(da, db))


def ideal_cz_unitary() -> np.ndarray:
    """Exact CZ on the qubit subspace: |11> -> -|11>, identity elsewhere."""
    d = np.ones(9, dtype=complex)
    d[pair_index(G1, G1)] = -1.0
    return np.diag(d)


# the minimal Bell circuit: |11> , R(pi/2,0) on both, CZ, virtual Rz,
# R(pi/2,pi/2) analysis rotation
_R_PREP = global_rotation(math.pi / 2.0, 0.0)
_R_ANALYSIS = global_rotation(math.pi / 2.0, math.pi / 2.0)


def bell_prep_state() -> np.ndarray:
    psi = np.zeros(9, dtype=complex)
    psi[pair_index(G1, G1)] = 1.0
    return _R_PREP @ psi


def bell_target_state() -> np.ndarray:
    """Circuit output for an exact CZ: (|00> + i|11>)/sqrt(2)."""
    return _R_ANALYSIS @ (ideal_cz_unitary() @ bell_prep_state())


def bell_error_from_pulse_state(psi_after_pulse: np.ndarray,
                                rz: tuple[float, float]) -> np.ndarray:
    """1 - |<bell|psi>|^2 given post-pulse amplitudes (batched over axis 0).

    Rz, analysis rotation and target fold into one 9-vector, so no matrix
    product (and no BLAS thread) runs on the shot axis.
    """
    u = np.diag(virtual_rz(*rz)) * (bell_target_state().conj() @ _R_ANALYSIS)
    overlap = np.einsum("ij,j->i", np.atleast_2d(psi_after_pulse), u)
    err = 1.0 - np.abs(overlap) ** 2
    return err if psi_after_pulse.ndim > 1 else float(err[0])


def pulse_state_nominal(gate: GateParams, batch: DriveBatch,
                        steps_per_period: int = 100,
                        accumulate: bool = False):
    """Post-pulse amplitudes from the Bell prep state (pre-Rz), batched."""
    psi0 = np.broadcast_to(bell_prep_state(), (len(batch), 9))
    return evolve_batch(psi0, batch, gate, steps_per_period, accumulate)


def bell_errors_batch(gate: GateParams, batch: DriveBatch) -> np.ndarray:
    """Bell-circuit error per shot for a batch of resolved drives."""
    psi = pulse_state_nominal(gate, batch)
    return np.clip(bell_error_from_pulse_state(psi, gate.virtual_rz), 0.0, 1.0)


def optimal_virtual_rz(psi_after_pulse: np.ndarray) -> tuple[float, float]:
    """Single-qubit phase corrections extracted from the pulse output.

    Relies on the Bell prep state, whose |01> and |10> amplitudes are -i/2;
    the phases accumulated on the single-driven sectors are read off and
    cancelled.
    """
    u_b = 2j * psi_after_pulse[pair_index(G0, G1)]
    u_a = 2j * psi_after_pulse[pair_index(G1, G0)]
    return (-float(np.angle(u_a)), -float(np.angle(u_b)))
