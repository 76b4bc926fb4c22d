"""Seeded input files for the ``qnd-laser`` workload.

``write_inputs`` draws a self-heterodyne trace and RB, QND and decay CSVs
from one seed, in the formats the ``rydsim`` commands read.  The noiseless
truths are module constants, so the output checks can also compare each fit
against the values the data were drawn from.
"""

from __future__ import annotations

import os

import numpy as np

RB_DEPTHS = (0, 1, 2, 4, 8, 16, 32, 64)
RB_SHOTS = 400
RB_RETENTION = (0.98, 0.99)       # (amplitude, per-gate probability)
RB_BLOWAWAY = (0.95, 0.975)
QND_STATES = tuple(format(i, "03b") for i in range(8))
QND_TRIALS = 2000
QND_SUCCESS = 0.9
DECAY_AMPLITUDE = 0.95
DECAY_TAU_US = 20.0
DECAY_NOISE = 0.01
TRACE_NOISE = 0.01


def write_inputs(laser_mod, truth, seed: int, out_dir: str) -> dict:
    """Write the seeded inputs into ``out_dir``; returns their paths.

    ``truth`` is the laser noise model the heterodyne trace is drawn from,
    with 1 % multiplicative noise per sample.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    paths = {name: os.path.join(out_dir, name) for name in (
        "trace.txt", "retention.csv", "blowaway.csv", "qnd_counts.csv",
        "decay.csv")}

    f = np.linspace(2e3, 6e5, 500)
    y = laser_mod.heterodyne_spectrum(truth, f) * (
        1.0 + TRACE_NOISE * rng.normal(size=f.size))
    _write(paths["trace.txt"], "# frequency_hz psd",
           (f"{float(a)!r} {float(b)!r}" for a, b in zip(f, y)))

    for key, (amp, per_gate) in (("retention.csv", RB_RETENTION),
                                 ("blowaway.csv", RB_BLOWAWAY)):
        hits = [rng.binomial(RB_SHOTS, amp * per_gate ** d) for d in RB_DEPTHS]
        _write(paths[key], "depth,probability,shots",
               (f"{d},{float(k / RB_SHOTS)!r},{RB_SHOTS}"
                for d, k in zip(RB_DEPTHS, hits)))

    correct = rng.binomial(QND_TRIALS, QND_SUCCESS, size=len(QND_STATES))
    _write(paths["qnd_counts.csv"], "state,correct,incorrect",
           (f"{s},{k},{QND_TRIALS - k}" for s, k in zip(QND_STATES, correct)))

    t_us = np.linspace(0.0, 60.0, 40)
    vals = (DECAY_AMPLITUDE * np.exp(-t_us / DECAY_TAU_US)
            + DECAY_NOISE * rng.normal(size=t_us.size))
    _write(paths["decay.csv"], "time,value",
           (f"{float(t)!r},{float(v)!r}" for t, v in zip(t_us, vals)))
    return paths


def _write(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
