"""Spin-S harmonic oscillator in a parabolic magnetic field.

Closed-form spectra and eigenfunctions, an independent sinc-DVR
diagonalization oracle, transition lines and level crossings, and the
inverse problem of identifying the trap frequency from the spin-sublevel
splittings of a single oscillator level.
"""

from .constants import ELECTRON_MASS, GAMMA_ELECTRON, HBAR, oscillator_length
from .core import (
    DerivedParams,
    EnergyDecomposition,
    FieldProfile,
    SpinSystem,
    effective_frequency,
    eigenfunction,
    eigenfunction_center,
    energy_decomposition,
    energy_level,
    gbar_critical,
    oscillator_wavefunction,
    scaled_spin_number,
    stability_check,
)
from .errors import (
    ConvergenceError,
    DissociationError,
    InversionError,
    PhysicsError,
    UnidentifiableError,
)
from .oracle import ValidationReport, converged_spectrum, validate_levels
from .spectroscopy import (
    CrossingPoint,
    CrossingScanResult,
    InversionResult,
    TransitionLine,
    crossing_scan,
    identify_frequency,
    transition_lines,
)

__version__ = "0.1.0"

__all__ = [
    "ELECTRON_MASS",
    "GAMMA_ELECTRON",
    "HBAR",
    "oscillator_length",
    "DerivedParams",
    "EnergyDecomposition",
    "FieldProfile",
    "SpinSystem",
    "effective_frequency",
    "eigenfunction",
    "eigenfunction_center",
    "energy_decomposition",
    "energy_level",
    "gbar_critical",
    "oscillator_wavefunction",
    "scaled_spin_number",
    "stability_check",
    "ConvergenceError",
    "DissociationError",
    "InversionError",
    "PhysicsError",
    "UnidentifiableError",
    "ValidationReport",
    "converged_spectrum",
    "validate_levels",
    "CrossingPoint",
    "CrossingScanResult",
    "InversionResult",
    "TransitionLine",
    "crossing_scan",
    "identify_frequency",
    "transition_lines",
    "__version__",
]
