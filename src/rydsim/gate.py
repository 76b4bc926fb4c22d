"""Two-atom three-level gate engine.

Each atom is modeled as a three-level system {|0>, |1>, |r>} driven on the
|1>-|r> transition with a phase-modulated pulse.  Decay and scattering are
non-Hermitian diagonal terms, so the state norm decays and the deficit is
tracked as accumulated loss.  The two-atom Hamiltonian is block diagonal in
the four sectors defined by whether each atom occupies |0> or the driven
{|1>, |r>} manifold.  With the 9 amplitudes of a shot viewed as a (3, 3)
tensor over (level of A, level of B), the driven sectors are the slices
[1:, 0], [0, 1:] and [1:, 1:].  The first two, one atom driven alone, are
stepped as one single-atom sector, A's [1:, 0] amplitudes then B's [0, 1:]
on one shot axis; the pair sector is [1:, 1:].  Each is propagated for a
whole batch of shots in the frame that follows the drive phase, where the
Hamiltonian is constant per shot and only a diagonal frame phase, shared by
all shots, changes with time.  A step is Suzuki's fourth-order composition
of five exponential-midpoint stages; each applies one of two per-shot
propagators exp(-i tau H0), built once per block, which take the constant
blockade shift B exactly.  The splitting error still peaks where B h is a
multiple of 2 pi (h the step length; Hairer, Lubich & Wanner, Geometric
Numerical Integration, ch. XIII), so the pair sector takes enough steps to
keep B h / 2 pi at or below 0.75, below the first peak.

`plan_batch` states what a call does: the shots it leaves out as NaN rows,
one plan for the others (step counts, Taylor norm bounds and one of two
routes, by batch size) and their blocks of `_BLOCK_SHOTS` shots.
A batch of at most `_DENSE_MAX_SHOTS` shots (the optimizer, the decay floor)
folds each stage's frame phase into its propagator and multiplies the stage
matrices, a chunk of steps at a time, into one matrix per shot by a pairwise
matmul tree, which it applies to the states once.  A larger batch (a Monte
Carlo run) steps its states through the stages, rotating only the rows that
hold |r>.  The two agree to rounding (about 3e-15 in the amplitudes).

`GateParams` is the one description of the pulse, shared by every shot; a
`DriveBatch` (built by `noise.resolve_drive_batch`) holds the per-shot drives
of n shots as plain arrays, one row per atom.  `evolve_batch`,
`pulse_state_nominal` and `bell_errors_batch` take both and are the ways
into the engine; a single drive is a batch of one.  As an independent
check, `build_hamiltonian` gives the full 9x9 matrix of one shot of a batch.
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


class IntegrationError(RuntimeError):
    """Raised by `pulse_state_nominal` when a shot of its batch failed to
    integrate; `evolve_batch` itself returns a failing shot as a NaN row."""


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
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        rz = tuple(self.virtual_rz)
        if len(rz) != 2 or not all(
                isinstance(v, Real) and not isinstance(v, bool)
                and math.isfinite(v) for v in rz):
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
    """Per-shot drive parameters for batched evolution of n shots.

    Each per-atom array is (2, n), row 0 for atom A (Rb) and row 1 for atom
    B (Cs): the atom drives with ``omega`` (two-photon Rabi frequency) at
    detuning ``delta``, with loss rates ``gamma1`` out of |1> and ``gammar``
    out of |r>.  ``blockade`` (n,) shifts |rr>.  The pulse duration and
    phase waveform come from the `GateParams` passed beside the batch.
    """

    omega: np.ndarray
    delta: np.ndarray
    gamma1: np.ndarray
    gammar: np.ndarray       # total |r> loss rate
    blockade: np.ndarray

    def __len__(self):
        return len(self.blockade)


def _single_atom_hamiltonian(batch: DriveBatch, atom: int,
                             shot: int) -> np.ndarray:
    omega, delta, gamma1, gammar = (
        float(rates[atom, shot])
        for rates in (batch.omega, batch.delta, batch.gamma1, batch.gammar))
    h = np.zeros((3, 3), dtype=complex)
    h[G1, RYD] = h[RYD, G1] = 0.5 * omega
    h[RYD, RYD] = -delta
    h[G1, G1] += -0.5j * gamma1
    h[RYD, RYD] += -0.5j * gammar
    return h


def _hamiltonian_parts(batch: DriveBatch, shot: int):
    """(D, U) of one shot of ``batch``: its 9x9 Hamiltonian at drive phase
    phi is D + exp(i phi) U + exp(-i phi) U^T, with D diagonal and U the
    couplings from |r> into |1>."""
    ha = _single_atom_hamiltonian(batch, 0, shot)
    hb = _single_atom_hamiltonian(batch, 1, shot)
    h = np.kron(ha, np.eye(3)) + np.kron(np.eye(3), hb)
    h[pair_index(RYD, RYD), pair_index(RYD, RYD)] += float(batch.blockade[shot])
    return np.diag(np.diag(h)), np.triu(h, 1)


def build_hamiltonian(batch: DriveBatch, gate: GateParams, t: float,
                      shot: int = 0) -> np.ndarray:
    """Full 9x9 two-atom Hamiltonian (rad/s) of one shot of ``batch`` at t,
    with the phase of ``gate``'s waveform on both couplings.

    H = H_a x I + I x H_b + B |rr><rr| with non-Hermitian decay diagonals.
    """
    d, u = _hamiltonian_parts(batch, shot)
    e = np.exp(1j * float(waveform_phase(gate, t)))
    return d + e * u + np.conj(e) * u.T


# ---------------------------------------------------------------------------
# step control and the sector propagator
# ---------------------------------------------------------------------------

# a shot needing more than _MAX_STEPS steps in a sector fails
_MAX_STEPS = 5_000_000

# the pair sector takes at least 4/3 steps per period of the largest
# blockade of its batch, so B h / 2 pi <= 0.75.  On the nominal projected
# drives at 70 points per period, the Bell error is within 7.7e-9 of a
# 3200-point run from B h / 2 pi = 0.5 to 0.75, 1.2e-8 off at 0.8 and
# 1.3e-5 and 1.7e-5 off at 1 and 2 (the scan is in CHANGES.md)
_BLOCKADE_STEPS_PER_PERIOD = 4.0 / 3.0


def _steps_for(duration: float, scale, steps_per_period: float):
    """Steps per shot, not rounded up, resolving the period of each angular
    frequency of ``scale`` with ``steps_per_period`` points; a scale is
    floored at 2 pi / duration, so a count is at least ``steps_per_period``."""
    with np.errstate(divide="ignore", over="ignore"):
        return duration / (TWO_PI / (steps_per_period
                                     * np.maximum(scale, TWO_PI / duration)))


# A step of h is five exponential-midpoint stages of lengths _STAGES * h,
# Suzuki's fourth-order composition of the symmetric midpoint rule (Suzuki,
# Phys. Lett. A 146, 319 (1990)); the middle stage runs backwards.
_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
_STAGES = (_P, _P, 1.0 - 4.0 * _P, _P, _P)

# truncation bound of the Taylor series; a propagator with ||tau H0|| above
# 1 is summed for tau / 2^s and squared s times
_TAYLOR_TOL = 2.0 ** -53


def _taylor_terms(theta: float) -> int:
    """Fewest terms m with theta^(m+1) / (m+1)! <= _TAYLOR_TOL."""
    m, bound = 0, theta
    while bound > _TAYLOR_TOL:
        m += 1
        bound *= theta / (m + 1)
    return m


# reversal of atom axis 0 and of atom axis 1, as index tuples
_FLIPS = ((slice(None, None, -1),), (slice(None), slice(None, None, -1)))


def _taylor_action(psi, diag, coups, m):
    """exp(A) psi summed to m Taylor terms, for A = diag + the couplings;
    coupling i flips atom axis i, between |1> and |r>, with factor coups[i]."""
    out = psi.copy()
    term = psi
    for k in range(1, m + 1):
        new = diag * term
        for flip, c in zip(_FLIPS, coups):
            new += c * term[flip]
        new *= 1.0 / k
        out += new
        term = new
    return out


# batches of at most _DENSE_MAX_SHOTS shots multiply their stage matrices
# into one sector propagator; larger batches step their states stage by
# stage (the crossover scan is in CHANGES.md)
_DENSE_MAX_SHOTS = 8

# shots stepped at once: a pair-sector block keeps 1.5 MB of stage
# buffers alive; 2048 ran as fast as 4096 on 4096 shots, 5 % faster on 40k
# with a 4.6 MB lower peak RSS; 1024 was 10-25 % slower
_BLOCK_SHOTS = 2048

# steps per chunk of frame rotations and, on the dense route, of stage
# matrices reduced at once, so memory does not grow with the step count
_CHUNK_STEPS = 256


def _centered(diag):
    """``diag`` less its per-shot real midpoint, and the midpoints."""
    re = diag.real.reshape(-1, diag.shape[-1])
    mid = 0.5 * (re.max(axis=0) + re.min(axis=0))
    return diag - mid, mid


def _propagator(diag, coups, mid, tau, norm: float, dense: bool):
    """exp(-i tau (M + mid)) per shot as (d, d, n) [row, column, shot],
    M = diag + the couplings (`_taylor_action`), ||M|| <= norm, and mid a
    real shift per shot.  The identity columns are summed on an axis before
    the shot axis: all at once on the dense route, one at a time when
    stepping, whose arrays then stay in cache (2.9 ms against 5.2 ms)."""
    d, n = diag[..., 0].size, diag.shape[-1]
    theta = abs(tau) * norm
    s = math.ceil(math.log2(max(theta, 1.0)))
    a = -1j * tau / 2.0 ** s
    m = _taylor_terms(theta / 2.0 ** s)
    a_diag, a_coups = (a * diag)[..., None, :], [a * c for c in coups]
    step = d if dense else 1
    prop = np.empty((d, d, n), dtype=complex)
    for j in range(0, d, step):
        cols = np.broadcast_to(np.eye(d, dtype=complex)[:, j:j + step, None],
                               (d, step, n))
        prop[:, j:j + step] = _taylor_action(
            cols.reshape(diag.shape[:-1] + (step, n)), a_diag, a_coups,
            m).reshape(d, step, n)
    for _ in range(s):
        prop = np.einsum("ijn,jkn->ikn", prop, prop)
    return prop * np.exp(-1j * tau * mid)


def _frame_rotations(gate: GateParams, h: float, nsteps: int, n_r):
    """Per chunk of steps, the (steps, 5, d) rotations exp(i (phi_k -
    phi_(k-1)) n_r) of its stages into the frame of each stage's midpoint
    phase phi_k (with phi_(-1) = 0), and the chunk's last phase."""
    ends = np.cumsum((0.0,) + _STAGES)
    mids = 0.5 * (ends[:-1] + ends[1:])
    last = 0.0
    for k in range(0, nsteps, _CHUNK_STEPS):
        t = h * (np.arange(k, min(k + _CHUNK_STEPS, nsteps))[:, None] + mids)
        phi = waveform_phase(gate, t).ravel()
        rot = np.exp(1j * np.diff(phi, prepend=last)[:, None] * n_r)
        last = phi[-1]
        yield rot.reshape(-1, len(_STAGES), len(n_r)), last


def _dense_product(stages, rotations):
    """The (n, d, d) product of all stage matrices P_s diag(r), the later
    stage on the left, each chunk reduced by a pairwise matmul tree; and the
    last phase."""
    props = np.stack(stages).transpose(0, 3, 1, 2)      # (5, n, d, d)
    total = None
    for rot, last in rotations:
        mats = (props * rot[:, :, None, None, :]).reshape(-1, *props.shape[1:])
        while len(mats) > 1:
            odd = len(mats) % 2
            pairs = mats[1::2] @ mats[:len(mats) - odd:2]
            mats = np.concatenate([pairs, mats[-1:]]) if odd else pairs
        total = mats[0] if total is None else mats[0] @ total
    return total, last


def _step_states(chi, stages, rotations):
    """Apply the stages to the (d, n) states chi in place, one after another,
    and return the last phase.  A stage turns the rows holding |r> into its
    frame, by one scalar phase for the rows with one atom in |r> (none in
    the single-atom sector) and one for the last row (a broadcast column of
    phases was 10 % slower), then applies its propagator by one product and
    one sum."""
    one_r, last_row = chi[1:-1], chi[-1]
    prod = np.empty(stages[0].shape, dtype=complex)
    for rot, last in rotations:
        for step in rot[:, :, [1, -1]].tolist():
            for (r, r_last), prop in zip(step, stages):
                one_r *= r
                last_row *= r_last
                np.multiply(prop, chi, out=prod)
                np.add.reduce(prod, axis=1, out=chi)
    return last


def _evolve_sector(psi, diag, omegas, gate: GateParams, nsteps: int,
                   norm: float, dense: bool):
    """Evolve a block of sector states through ``gate`` in nsteps steps.

    psi : (2,) * k + (n,) complex; axis i is the level (|1>, |r>) of the
        i-th driven atom, the last axis the shot
    diag : same shape, the constant diagonal of H (rad/s)
    omegas : Rabi frequency per driven atom; its coupling is
        0.5 * omega * exp(i phi(t)) from |r> into |1>, with phi the gate's
        waveform
    norm, dense : the batch's `_propagator` bound and route

    With psi = P(phi) chi and P(phi) = exp(-i phi n_r), n_r counting the
    atoms in |r>, H(t) = P(phi(t)) H0 P(phi(t))^dagger with H0 = H at phi =
    0.  A midpoint stage of length tau therefore rotates chi into the frame
    of its midpoint phase, one phase per component shared by all shots, and
    applies the constant per-shot propagator exp(-i tau H0).  The dense route
    folds the rotations into the propagators and multiplies the stage
    matrices into one per shot (`_dense_product`); else `_step_states` runs.
    """
    d, n = diag[..., 0].size, diag.shape[-1]
    h = gate.duration / nsteps
    # the midpoint of the real diagonal is taken out of the Taylor sums and
    # put back as a phase per shot
    diag, mid = _centered(diag)
    coups = [0.5 * omega for omega in omegas]
    props = {c: _propagator(diag, coups, mid, c * h, norm, dense)
             for c in set(_STAGES)}
    stages = [props[c] for c in _STAGES]

    n_r = np.indices(diag.shape[:-1]).sum(axis=0).ravel()
    rotations = _frame_rotations(gate, h, nsteps, n_r)
    chi = psi.reshape(d, n)
    if dense:
        total, last = _dense_product(stages, rotations)
        chi = np.einsum("nij,jn->in", total, chi)
    else:
        chi = chi.copy()
        last = _step_states(chi, stages, rotations)
    return (chi * np.exp(-1j * last * n_r)[:, None]).reshape(psi.shape)


# the sectors as index arrays into the (level of A, level of B, shot)
# amplitudes: (level, atom) of the single-atom sector, then [1:, 1:]
_SECTORS = (([[G1, G0], [RYD, G0]], [[G0, G1], [G0, RYD]]),
            np.ix_([G1, RYD], [G1, RYD]))


def _sector_drives(batch: DriveBatch, block=np.s_[:]):
    """(diagonal of H, Rabi frequencies) of each sector of `_SECTORS` for
    the shots ``block``, each built when the sector is reached."""
    omega, delta, gamma1, gammar = (rates[:, block] for rates in (
        batch.omega, batch.delta, batch.gamma1, batch.gammar))
    # diagonal of H on (|1>, |r>) per atom, as (level, atom, shot)
    diag = np.stack([-0.5j * gamma1, -delta - 0.5j * gammar])
    yield diag.reshape(2, -1), [omega.ravel()]
    # the pair sector's is the sum of both plus the blockade on |rr>;
    # rebinding diag frees the single-atom arrays before the pair steps
    diag = diag[:, None, 0] + diag[None, :, 1]
    diag[1, 1] += batch.blockade[block]
    yield diag, omega


@dataclass(frozen=True)
class BatchPlan:
    """What `evolve_batch` does with a batch, as `plan_batch` decides it."""

    ok: np.ndarray      # (n,) bool: the shots that are stepped
    steps: tuple        # step count of each sector of `_SECTORS`
    norms: tuple        # its `_propagator` Taylor norm bound
    dense: bool         # the dense route, else the stepping route
    blocks: tuple       # shots of each block: a slice if a run, else indices


def plan_batch(batch: DriveBatch, gate: GateParams,
               steps_per_period: int = 70) -> BatchPlan:
    """What `evolve_batch` will do with ``batch``, decided without stepping.

    A shot is left out if a drive is non-finite, a Rabi frequency negative
    or a sector's step count above `_MAX_STEPS`.  The others share one plan,
    so a shot's result depends neither on its block of `_BLOCK_SHOTS` nor on
    the shots left out: the route, dense for at most `_DENSE_MAX_SHOTS`, and
    per sector a Taylor norm bound and the largest step count of its shots
    (`_steps_for`).  A shot's single-atom count is ``steps_per_period``
    points per period of its fastest non-blockade frequency over both atoms
    or per pulse if shorter; its pair count, no less, keeps B h / 2 pi <= 0.75.
    """
    ok = (np.all(np.isfinite([batch.omega, batch.delta, batch.gamma1,
                              batch.gammar]), axis=(0, 1))
          & np.isfinite(batch.blockade) & np.all(batch.omega >= 0, axis=0))
    # each shot's step counts, from its fastest non-blockade frequency
    base = _steps_for(gate.duration, np.maximum(
        np.max(np.abs([batch.omega, batch.delta]), axis=(0, 1)),
        phase_bandwidth(gate)), steps_per_period)
    pair = np.maximum(base, _steps_for(gate.duration, np.abs(batch.blockade),
                                       _BLOCKADE_STEPS_PER_PERIOD))
    ok &= pair <= _MAX_STEPS
    shots = np.flatnonzero(ok)
    if not len(shots):
        return BatchPlan(ok, (), (), True, ())
    steps = tuple(math.ceil(np.max(s[shots])) for s in (base, pair))
    norms = tuple(float(np.max(np.abs(_centered(diag)[0])))
                  + sum(float(np.max(0.5 * omega)) for omega in omegas)
                  for diag, omegas in _sector_drives(batch, shots))
    # a run of shots is stepped in place, not copied (peak memory)
    blocks = tuple(np.s_[b[0]:b[-1] + 1] if b[-1] - b[0] == len(b) - 1 else b
                   for b in np.split(shots, range(_BLOCK_SHOTS, len(shots),
                                                  _BLOCK_SHOTS)))
    return BatchPlan(ok, steps, norms, len(shots) <= _DENSE_MAX_SHOTS, blocks)


def evolve_batch(psi, batch: DriveBatch, gate: GateParams,
                 steps_per_period: int = 70) -> np.ndarray:
    """Evolve (n, 9) amplitudes, a row per shot of ``batch``, through the
    pulse ``gate`` as `plan_batch` plans it; callers account for norm loss.
    A shot the plan leaves out, or whose norm grew by more than 1e-9, is a
    NaN row.  At 70 points per period a sampled shot's Bell error is within
    2e-8 of an 800-point run on both presets.
    """
    psi = np.array(psi, dtype=complex)
    if psi.shape != (len(batch), 9):
        raise ValueError(f"psi has shape {psi.shape}, not ({len(batch)}, 9)")
    plan = plan_batch(batch, gate, steps_per_period)
    psi[~plan.ok] = np.nan
    norm_in = np.sum(np.abs(psi) ** 2, axis=1)
    for block in plan.blocks:
        rows = psi[block]
        amps = rows.reshape(-1, 3, 3).transpose(1, 2, 0)   # a view of rows
        # a sector's entries come out (2, 2, shots), go in shaped as its diag
        for sector, (diag, omegas), nsteps, norm in zip(
                _SECTORS, _sector_drives(batch, block), plan.steps,
                plan.norms):
            amps[sector] = _evolve_sector(
                amps[sector].reshape(diag.shape), diag, omegas, gate,
                nsteps, norm, plan.dense).reshape(2, 2, -1)
        psi[block] = rows

    psi[~(np.sum(np.abs(psi) ** 2, axis=1) - norm_in <= 1e-9)] = np.nan
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


def pulse_state_nominal(gate: GateParams, batch: DriveBatch) -> np.ndarray:
    """Post-pulse (n, 9) amplitudes from the Bell prep state (pre-Rz).
    Raises IntegrationError if a shot fails to integrate."""
    psi0 = np.broadcast_to(bell_prep_state(), (len(batch), 9))
    psi = evolve_batch(psi0, batch, gate)
    failed = int(np.count_nonzero(np.isnan(psi[:, 0])))
    if failed:
        raise IntegrationError(f"{failed} of {len(psi)} shots failed to "
                               f"integrate")
    return psi


def bell_errors_batch(gate: GateParams, batch: DriveBatch) -> np.ndarray:
    """Bell-circuit error per shot for a batch of resolved drives; NaN for
    a shot that failed to integrate (`evolve_batch`)."""
    psi0 = np.broadcast_to(bell_prep_state(), (len(batch), 9))
    psi = evolve_batch(psi0, batch, gate)
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
