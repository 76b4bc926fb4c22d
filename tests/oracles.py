"""Independent numerical oracles used by the unit and acceptance tests."""

import functools
import itertools

import numpy as np

# I, X, Y, Z
PAULIS = [np.eye(2, dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]


def trajectory_rabi_error(h0: float, omega0: float, n_half: int,
                          n_traj: int = 1000, seed: int = 0,
                          f_max_factor: float = 20.0) -> float:
    """Two-level Schrodinger trajectories under synthesized white frequency noise.

    Frequency noise with one-sided PSD h0 (Hz^2/Hz) is synthesized by an
    inverse transform with random spectral phases, band-limited to
    f_max_factor times the Rabi frequency.  Each trajectory evolves through an
    N*pi rotation and the mean infidelity against the noise-free target is
    returned.  Completely independent of the spectral-integral implementation.

    The noise couples as 2*pi*dnu(t)*sigma_z, the full-frequency-excursion
    splitting convention the published rotation-error filter formula is
    normalized to (a |1><1| detuning coupling would give exactly one quarter
    of it for white noise).
    """
    rng = np.random.default_rng(seed)
    f_rabi = omega0 / (2.0 * np.pi)
    t_total = n_half * np.pi / omega0

    f_max = f_max_factor * f_rabi
    df = f_rabi / 50.0
    freqs = np.arange(df, f_max, df)               # (n_f,)
    amps = np.sqrt(2.0 * h0 * df)                  # equal-amplitude components

    nsteps = int(np.ceil(t_total * f_max * 25.0))
    dt = t_total / nsteps
    t_sub = 0.5 * dt * np.arange(2 * nsteps + 1)   # (n_t,)

    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(n_traj, len(freqs)))
    # delta_nu(t) = sum_k A cos(2 pi f_k t + theta_k), per trajectory
    phase_mat = np.exp(2j * np.pi * np.outer(freqs, t_sub))   # (n_f, n_t)
    dnu = amps * np.real(np.exp(1j * thetas) @ phase_mat)     # (n_traj, n_t)

    # H = (omega0/2) sigma_x + 2 pi dnu(t) sigma_z
    psi = np.zeros((n_traj, 2), dtype=complex)
    psi[:, 0] = 1.0
    half_om = 0.5 * omega0

    def deriv(y, det):
        w = 2.0 * np.pi * det
        d0 = -1j * (half_om * y[:, 1] + w * y[:, 0])
        d1 = -1j * (half_om * y[:, 0] - w * y[:, 1])
        return np.stack([d0, d1], axis=1)

    for k in range(nsteps):
        d_t = dnu[:, 2 * k]
        d_m = dnu[:, 2 * k + 1]
        d_e = dnu[:, 2 * k + 2]
        k1 = deriv(psi, d_t)
        k2 = deriv(psi + 0.5 * dt * k1, d_m)
        k3 = deriv(psi + 0.5 * dt * k2, d_m)
        k4 = deriv(psi + dt * k3, d_e)
        psi += (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    if n_half % 2 == 0:
        fid = np.abs(psi[:, 0]) ** 2
    else:
        fid = np.abs(psi[:, 1]) ** 2
    return float(np.mean(1.0 - fid))


def rabi_error_full_panels(model, omega0: float, n_half: int,
                           f_max: float | None = None) -> float:
    """The N*pi rotation error as one 16-point Gauss-Legendre sum of the
    whole frequency PSD against the rotation filter on every panel of
    [0, f_max] (default 100 f_res), with panels ending at each filter zero
    f_res (1 + k/N) and at each bump's b.f + k sigma, |k| <= 10.

    Every node sees the white floor and every bump at once: there is no
    split into a white and a per-bump part, no cache and no bump window.
    """
    from rydsim.laser import psd_frequency
    f_res = omega0 / (2.0 * np.pi)
    f_max = 100.0 * f_res if f_max is None else f_max
    n_lobes = n_half * f_max / f_res
    zeros = f_res * (1.0 + np.arange(-n_half, n_lobes - n_half + 1) / n_half)
    grid = np.arange(-10.0, 11.0)
    edges = np.unique(np.clip(np.concatenate(
        [[0.0, f_max], zeros, *(b.f + grid * b.sigma for b in model.bumps)]),
        0.0, f_max))
    half = 0.5 * np.diff(edges)
    x, w = np.polynomial.legendre.leggauss(16)
    f = edges[:-1, None] + half[:, None] * (1.0 + x)
    pref = 8.0 * np.pi ** 2 * omega0 ** 2 * (np.pi * n_half / omega0) ** 2
    sinc = np.sinc(n_half * (omega0 - 2.0 * np.pi * f) / omega0)
    g = (pref * psd_frequency(model, f) * sinc ** 2
         / (omega0 + 2.0 * np.pi * f) ** 2)
    return float(g @ w @ half)


def rabi_error_per_point(model, omega0: float, n_half: int,
                         f_max: float | None = None) -> float:
    """`rydsim.laser.rabi_error` as one point at a time: the white part
    4 pi^3 N^2 h0 I_N / omega0 and, for each bump, one 16-point
    Gauss-Legendre sum over that point's own sorted, unique panel edges
    within 10 sigma of the bump, each panel summed by a dot product.

    The reference for the batched curve, which pads each point's edges
    with zero-width panels and sums them by a fixed tree of pairs instead.
    """
    from dataclasses import replace

    from rydsim.laser import (_BUMP_GRID, _BUMP_REACH, _gauss_legendre,
                              _rabi_integrand)

    def panel_sum(g, edges):
        half = 0.5 * np.diff(edges)
        x, w = _gauss_legendre()
        return g(edges[:-1, None] + half[:, None] * (1.0 + x)) @ w @ half

    def window_edges(b, grids):
        lo, hi = (min(max((b.f + s * b.sigma) / f_res, 0.0), u_max)
                  for s in (-11.0, 11.0))
        k = np.arange(np.floor(n_half * (lo - 1.0)),
                      np.ceil(n_half * (hi - 1.0)) + 1)
        edges = np.clip(np.concatenate(
            [[0.0, f_max], f_res * (1.0 + k / n_half), grids]), 0.0, f_max)
        return np.unique(
            edges[(edges - b.f) ** 2 / (2.0 * b.sigma ** 2) <= _BUMP_REACH])

    f_res = omega0 / (2.0 * np.pi)
    u_max = 100.0 if f_max is None else f_max / f_res
    f_max = u_max * f_res if f_max is None else f_max
    zeros = 1.0 + np.arange(-n_half, n_half * u_max - n_half + 1) / n_half
    lobes = np.unique(np.clip(np.concatenate([[0.0, u_max], zeros]),
                              0.0, u_max))
    i_n = panel_sum(lambda u: np.sinc(n_half * (1.0 - u)) ** 2
                    / (1.0 + u) ** 2, lobes)
    total = 4.0 * np.pi ** 3 * n_half ** 2 * model.h0 * float(i_n) / omega0
    if model.bumps:
        grids = np.concatenate([b.f + _BUMP_GRID * b.sigma
                                for b in model.bumps])
    for b in model.bumps:
        edges = window_edges(b, grids)
        if len(edges) > 1:
            total += panel_sum(_rabi_integrand(
                replace(model, h0=0.0, bumps=(b,)), omega0, n_half), edges)
    return max(float(total), 0.0)


def simulate_rows(circuit, noise, input_labels, shots: int, seed: int = 0):
    """Row-by-row QND trajectory sampler: every shot is its own state row.

    An independent check of ``rydsim.qnd.exact_distribution``, which
    ``rydsim.qnd.simulate`` draws its histograms from: each shot's loss and
    leak are collapsed by a projective measurement, and its depolarizing by
    a sampled Pauli string, so its histograms agree with the exact channel
    only in distribution.
    """
    from rydsim.qnd import (ACTIVE, LEAKED, LOST, _cz_diag, _single,
                            _state_index)

    def apply(psi, u, q, rows):
        if rows.any():
            sel = psi[rows].reshape(-1, 2 ** q, 2, 2 ** (n - 1 - q))
            psi[rows] = np.einsum("bj,iajc->iabc", u, sel).reshape(-1, 2 ** n)

    def measure(psi, q, rows):
        bits = np.zeros(shots, dtype=np.int64)
        if not rows.any():
            return bits
        shaped = (np.abs(psi[rows]) ** 2).reshape(-1, 2 ** q, 2, 2 ** (n - 1 - q))
        p1, tot = shaped[:, :, 1, :].sum(axis=(1, 2)), shaped.sum(axis=(1, 2, 3))
        with np.errstate(invalid="ignore", divide="ignore"):
            p1 = np.where(tot > 0, p1 / np.maximum(tot, 1e-300), 0.0)
        outcome = (rng.random(p1.shape[0]) < p1).astype(np.int64)
        sel = psi[rows].reshape(-1, 2 ** q, 2, 2 ** (n - 1 - q))
        keep = np.zeros_like(sel)
        idx = np.arange(sel.shape[0])
        keep[idx, :, outcome, :] = sel[idx, :, outcome, :]
        norms = np.sqrt((np.abs(keep) ** 2).sum(axis=(1, 2, 3)))
        keep /= np.maximum(norms, 1e-300)[:, None, None, None]
        psi[rows] = keep.reshape(-1, 2 ** n)
        bits[rows] = outcome
        return bits

    rng = np.random.default_rng(seed)
    n = circuit.n
    results = {}
    for label in input_labels:
        psi = np.zeros((shots, 2 ** n), dtype=complex)
        psi[:, _state_index(label, n)] = 1.0
        status = np.zeros((shots, n), dtype=np.int8)
        for op in circuit.ops:
            if op[0] != "cz":
                q, u = _single(op)
                apply(psi, u, q, status[:, q] == ACTIVE)
                continue
            _, i, j = op
            for q in (i, j):
                active = status[:, q] == ACTIVE
                draw = rng.random(shots)
                lost = active & (draw < noise.loss)
                leaked = active & ~lost & (draw < noise.loss + noise.leak)
                for mask, code in ((lost, LOST), (leaked, LEAKED)):
                    measure(psi, q, mask)
                    status[mask, q] = code
            both = (status[:, i] == ACTIVE) & (status[:, j] == ACTIVE)
            if not both.any():
                continue
            psi[both] *= _cz_diag(i, j, n)[None, :]
            if noise.depolarizing == 0.0:
                continue
            hit = both & (rng.random(shots) < noise.depolarizing)
            if noise.depolarizing_mode == "two-qubit":
                picks = rng.integers(0, 16, size=shots)
                for p in np.unique(picks[hit]):
                    apply(psi, PAULIS[p // 4], i, hit & (picks == p))
                    apply(psi, PAULIS[p % 4], j, hit & (picks == p))
            else:
                for q in (i, j):
                    hit_q = both & (rng.random(shots) < noise.depolarizing)
                    picks = rng.integers(0, 4, size=shots)
                    for p in np.unique(picks[hit_q]):
                        apply(psi, PAULIS[p], q, hit_q & (picks == p))
        hist = {}
        bits = np.zeros((shots, len(circuit.measured)), dtype=np.int64)
        for k, q in enumerate(circuit.measured):
            bits[:, k] = measure(psi, q, status[:, q] == ACTIVE)
            bits[status[:, q] == LOST, k] = 1
            bits[status[:, q] == LEAKED, k] = 0
            if noise.spam > 0.0:
                bits[rng.random(shots) < noise.spam, k] ^= 1
        for row in bits:
            key = "".join(map(str, row))
            hist[key] = hist.get(key, 0) + 1
        results[label] = hist
    return results


def exact_distribution_reference(circuit, noise, input_label: str) -> dict:
    """Branch-by-branch exact QND channel, by explicit operator sums.

    The same channel as ``rydsim.qnd.exact_distribution``, written out
    term by term: depolarizing as the sum of Pauli sandwiches P rho P^dagger
    over every Pauli string on the CZ pair (two-qubit mode) or on each
    participant in turn, a new loss or leak as the projector pair
    p0 rho p0 + p1 rho p1, and SPAM as a sum over all 2^m flip patterns of
    the m measured bits.  Branches are keyed by per-qubit loss/leak status.
    """
    from rydsim.qnd import (ACTIVE, LEAKED, LOST, _cz_diag, _single,
                            _state_index)

    def lift(u, qubit):
        return functools.reduce(np.kron, [u if k == qubit else PAULIS[0]
                                          for k in range(n)])

    def pauli_strings(qubits):
        for picks in itertools.product(range(4), repeat=len(qubits)):
            op = np.eye(2 ** n, dtype=complex)
            for p, q in zip(picks, qubits):
                op = op @ lift(PAULIS[p], q)
            yield op

    def depolarize(rho, i, j):
        sigma = noise.depolarizing
        if sigma == 0.0:
            return rho
        for qubits in ([(i, j)] if noise.depolarizing_mode == "two-qubit"
                       else [(i,), (j,)]):
            acc = np.zeros_like(rho)
            for op in pauli_strings(qubits):
                acc += op @ rho @ op.conj().T
            rho = (1.0 - sigma) * rho + (sigma / 4 ** len(qubits)) * acc
        return rho

    circuit.validate()
    n = circuit.n
    k = _state_index(input_label, n)
    rho0 = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho0[k, k] = 1.0
    branches = {(ACTIVE,) * n: rho0}
    fates = [(p, code) for p, code in ((1.0 - noise.loss - noise.leak, ACTIVE),
                                       (noise.loss, LOST), (noise.leak, LEAKED))
             if p != 0.0]
    for op in circuit.ops:
        if op[0] != "cz":
            q, u = _single(op)
            full = lift(u, q)
            branches = {status: full @ rho @ full.conj().T
                        if status[q] == ACTIVE else rho
                        for status, rho in branches.items()}
            continue
        _, i, j = op
        d = _cz_diag(i, j, n)
        nxt = {}
        for status, rho in branches.items():
            events = [(1.0, status)]
            for q in (i, j):
                if status[q] == ACTIVE:
                    events = [(wq * p, st[:q] + (code,) + st[q + 1:])
                              for wq, st in events for p, code in fates]
            for wq, st in events:
                r = wq * rho
                for q in (i, j):
                    if st[q] != status[q]:      # newly lost or leaked
                        p0, p1 = (lift(np.diag(v).astype(complex), q)
                                  for v in ([1.0, 0.0], [0.0, 1.0]))
                        r = p0 @ r @ p0 + p1 @ r @ p1
                if st[i] == ACTIVE and st[j] == ACTIVE:
                    r = depolarize(d[:, None] * r * np.conj(d)[None, :], i, j)
                nxt[st] = nxt[st] + r if st in nxt else r
        branches = nxt

    out = {}
    spam = noise.spam
    for status, rho in branches.items():
        for idx, p in enumerate(np.real(np.diag(rho)).clip(min=0.0)):
            if p <= 1e-16:
                continue
            bits = [1 if status[q] == LOST else 0 if status[q] == LEAKED
                    else (idx >> (n - 1 - q)) & 1 for q in circuit.measured]
            for flips in range(2 ** len(bits)) if spam else (0,):
                w, key = p, ""
                for b_k, b in enumerate(bits):
                    flip = (flips >> b_k) & 1
                    w *= spam if flip else 1.0 - spam
                    key += str(b ^ flip)
                if w != 0.0:
                    out[key] = out.get(key, 0.0) + w
    return out


def bell_error_matrix_form(psi_after_pulse, rz):
    """Bell error by the explicit circuit matrices, batched over axis 0.

    Applies the virtual Rz as a 9x9 diagonal, then the analysis rotation,
    then projects on the target, each as its own matrix product.
    """
    from rydsim.gate import _R_ANALYSIS, bell_target_state, virtual_rz
    psi = np.atleast_2d(psi_after_pulse)
    psi = psi * np.diag(virtual_rz(*rz))[None, :]
    psi = psi @ _R_ANALYSIS.T
    overlap = psi @ np.conj(bell_target_state())
    err = 1.0 - np.abs(overlap) ** 2
    return err if psi_after_pulse.ndim > 1 else float(err[0])


def evolve_dense_reference(psi, batch, gate, nsteps: int, shot: int = 0):
    """Plain RK4 on the full 9x9 two-atom Hamiltonian of one shot of
    ``batch`` through the pulse ``gate``; returns the evolved 9 amplitudes.

    An independent check of ``rydsim.gate.evolve_batch``: no sectors, no
    rotating frame and no stage propagators, only the time-dependent matrix
    of ``rydsim.gate.build_hamiltonian``.
    """
    from rydsim.gate import _hamiltonian_parts, waveform_phase
    psi = np.array(psi, dtype=complex)
    dt = gate.duration / nsteps
    d, u = _hamiltonian_parts(batch, shot)
    d, up, down = -1j * d, -1j * u, -1j * u.T

    def rhs_matrix(t):
        """-i H(t)."""
        e = np.exp(1j * float(waveform_phase(gate, t)))
        return d + e * up + np.conj(e) * down

    t = 0.0
    m_end = rhs_matrix(t)
    for _ in range(nsteps):
        m_start, m_mid = m_end, rhs_matrix(t + 0.5 * dt)
        m_end = rhs_matrix(t + dt)
        k1 = m_start @ psi
        k2 = m_mid @ (psi + 0.5 * dt * k1)
        k3 = m_mid @ (psi + 0.5 * dt * k2)
        k4 = m_end @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        t += dt
    return psi


def evolve_sector_stage_loop(psi, diag, omegas, gate, nsteps: int,
                             norm: float, dense: bool):
    """``rydsim.gate._evolve_sector`` as a plain stage loop over whole rows.

    Every stage rotates all rows of the sector state by a broadcast (d, 1)
    frame phase and applies the stage propagator by one product and one
    sum; the frame phases of all stages are built at once.  At the step
    count, norm bound and route of a `rydsim.gate.plan_batch` plan (the
    bound and route go to the propagators only: the states are always
    stepped) it must match the engine's stepping route bit for bit.
    """
    from rydsim.gate import _STAGES, _propagator, waveform_phase
    d, n = diag[..., 0].size, diag.shape[-1]
    h = gate.duration / nsteps
    re = diag.real.reshape(d, n)
    mid = 0.5 * (re.max(axis=0) + re.min(axis=0))
    coups = [0.5 * omega for omega in omegas]
    props = {c: _propagator(diag - mid, coups, mid, c * h, norm, dense)
             for c in set(_STAGES)}
    stages = [props[c] for c in _STAGES]

    ends = np.cumsum((0.0,) + _STAGES)
    t = h * (np.arange(nsteps)[:, None] + 0.5 * (ends[:-1] + ends[1:]))
    phi = waveform_phase(gate, t).ravel()
    n_r = np.indices(diag.shape[:-1]).sum(axis=0).reshape(d, 1)
    rot = np.exp(1j * np.diff(phi, prepend=0.0)[:, None, None] * n_r)
    rot = rot.reshape(nsteps, len(_STAGES), d, 1)

    chi = psi.reshape(d, n).copy()
    prod = np.empty((d, d, n), dtype=complex)
    for step_rot in rot:
        for r, prop in zip(step_rot, stages):
            chi *= r
            np.multiply(prop, chi, out=prod)
            np.add.reduce(prod, axis=1, out=chi)
    return (chi * np.exp(-1j * phi[-1] * n_r)).reshape(psi.shape)


def resolve_drive_batch_per_species(params, shots, mask, gate):
    """``rydsim.noise.resolve_drive_batch`` written species by species.

    Each atom's draws are read as per-atom slices of the shot record (row 0
    Rb, row 1 Cs), each draw-level flag sets its draws nominal where it is
    read, and the rates are built one species at a time and stacked.  The
    vectorized resolver must match it bit for bit under every mask.
    """
    from rydsim.constants import KHZ
    from rydsim.gate import DriveBatch
    from rydsim.trap import SEPARATION_FLOOR_UM

    def draw(flag, values, nominal):
        return values if getattr(mask, flag) else np.full_like(values, nominal)

    def position(atom):
        return draw("atom_localization", shots["position_um"][:, atom], 0.0)

    corr = (draw("magnetic_noise", shots["detuning_magnetic_khz"], 0.0)
            + draw("electric_noise", shots["detuning_electric_khz"], 0.0)
            ) * KHZ
    rates = []
    for atom, sp in enumerate((params.rb, params.cs)):
        pos_um = position(atom)
        beam_off_um = (
            draw("pointing_fluctuation", shots["pointing_nm"][:, atom], 0.0)
            + draw("static_misalignment", shots["static_nm"][:, atom], 0.0)
        ) * 1e-3
        dx = pos_um[..., 0] - beam_off_um[..., 0]
        dy = pos_um[..., 1] - beam_off_um[..., 1]
        rho2 = dx * dx + dy * dy
        g_blue = np.exp(-2.0 * rho2 / sp.blue_waist_um ** 2) \
            if mask.finite_beam_blue else np.ones_like(rho2)
        g_red = np.exp(-2.0 * rho2 / sp.red_waist_um ** 2) \
            if mask.finite_beam_red else np.ones_like(rho2)
        i_blue = draw("pulse_energy_blue", shots["energy"][:, atom, 1],
                      1.0) * g_blue
        i_red = draw("pulse_energy_red", shots["energy"][:, atom, 0],
                     1.0) * g_red

        rabi = (params.rabi_rad_s() * np.sqrt(i_blue * i_red)
                * draw("rabi_mismatch", shots["rabi_mismatch"][:, atom], 1.0))
        axis = "xyz".index(params.doppler_axis)
        velocity = draw("atom_velocity", shots["velocity_ms"][:, atom], 0.0)
        doppler = sp.doppler_k_eff() * velocity[..., axis]
        laser = draw("laser_frequency_noise",
                     shots["detuning_laser_khz"][:, atom], 0.0)
        delta = (gate.detuning + doppler
                 + sp.stark_coeff_blue() * (i_blue - 1.0)
                 + sp.stark_coeff_red() * (i_red - 1.0)
                 + (corr + laser * KHZ))
        if mask.intermediate_state_decay:
            gamma1 = sp.scattering_rate_1() * i_blue
            gammar_sc = sp.scattering_rate_r() * i_red
        else:
            gamma1 = np.zeros_like(i_blue)
            gammar_sc = np.zeros_like(i_red)
        ryd = sp.rydberg_decay_rate if mask.rydberg_decay else 0.0
        rates.append((rabi, delta, gamma1, gammar_sc + ryd))

    b0 = params.blockade_rad_s()
    if mask.blockade_fluctuation:
        sep0 = np.array([params.atom_separation_um, 0.0, 0.0])
        sep = sep0 + position(1) - position(0)
        r = np.maximum(np.linalg.norm(sep, axis=-1), SEPARATION_FLOOR_UM)
        blockade = b0 * (params.atom_separation_um / r) ** 6
    else:
        blockade = np.full(len(shots), b0)
    omega, delta, gamma1, gammar = np.stack(rates, axis=1)
    return DriveBatch(omega, delta, gamma1, gammar, blockade)
