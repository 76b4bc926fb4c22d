"""Independent numerical oracles used by the unit and acceptance tests."""

import numpy as np


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
