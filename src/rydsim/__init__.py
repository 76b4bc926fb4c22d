"""Dual-species Rydberg CZ gate simulator and analysis toolkit.

Subpackages by concern: `gate` (non-Hermitian two-atom engine and the Bell
test circuit), `noise` (shot sampling and drive resolution), `trap` (cooling,
localization, blockade), `budget` (optimization, Monte Carlo, exclusion
tables, sweeps), `laser` (frequency-noise spectra and Rabi-rotation error),
`analysis` (RB / QND / decay fidelity extraction), `qnd` (plaquette circuit
simulator), and `cli`.
"""

from .analysis import (QndCounts, RbFit, cz_fidelity, dirichlet_qnd,
                       fit_decay_oscillation, fit_geometric_decay)
from .budget import (BudgetRow, ExclusionReport, MonteCarloReport,
                     OptimizationResult, adiabatic_trace, decay_floor,
                     exclusion_table, monte_carlo_error, optimize_gate,
                     sweep_temperature_power)
from .gate import (DriveBatch, GateParams, bell_errors_batch,
                   build_hamiltonian, evolve_batch, plan_batch, waveform_phase)
from .laser import (LaserNoiseModel, ServoBump, error_vs_rabi_curve,
                    fit_heterodyne, heterodyne_spectrum, psd_frequency,
                    psd_phase, rabi_error)
from .noise import (MechanismMask, resolve_drive_batch, resolve_drives,
                    sample_shots)
from .params import SystemParams, load_params, load_preset, save_params
from .qnd import (NoiseChannelParams, PlaquetteCircuit, exact_distribution,
                  exact_distributions, parse_circuit, predicted_fqnd, simulate)
from .trap import (BlockadeModel, GaussianCloud, TrapSpec,
                   adiabatic_temperature, average_blockade, blockade_point,
                   localization_sigmas)

__version__ = "0.1.0"
