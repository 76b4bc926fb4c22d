"""Physical constants and unit conversions (SI unless noted)."""

import numpy as np

KB = 1.380649e-23          # Boltzmann constant, J/K
C_LIGHT = 299792458.0      # speed of light, m/s
AMU = 1.66053906660e-27    # atomic mass unit, kg

MASS_RB87 = 86.909180531 * AMU   # kg
MASS_CS133 = 132.905451961 * AMU  # kg

# qubit (clock-state) hyperfine splittings
HYPERFINE_RB_GHZ = 6.834682611
HYPERFINE_CS_GHZ = 9.192631770

TWO_PI = 2.0 * np.pi

# angular-frequency unit helpers
MHZ = TWO_PI * 1e6   # MHz -> rad/s (angular)
KHZ = TWO_PI * 1e3   # kHz -> rad/s
GHZ = TWO_PI * 1e9   # GHz -> rad/s
