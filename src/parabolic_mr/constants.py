"""Physical constants and unit helpers shared across the package."""

import math

#: Reduced Planck constant, J*s (CODATA 2018).
HBAR = 1.054571817e-34

#: Electron gyromagnetic ratio, rad/(s*T).  Signed: negative for the electron.
GAMMA_ELECTRON = -1.76085963e11

#: Electron mass, kg (CODATA 2018).
ELECTRON_MASS = 9.1093837015e-31

TWO_PI = 2.0 * math.pi


def oscillator_length(mass: float, omega: float) -> float:
    """Characteristic oscillator length sqrt(hbar / (mass * omega)) in meters."""
    if not (0.0 < mass < math.inf and 0.0 < omega < math.inf):
        raise ValueError("invalid system: mass and omega must be positive and finite")
    return math.sqrt(HBAR / (mass * omega))
