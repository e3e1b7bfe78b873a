"""Closed-form physics of a spin-S harmonic oscillator in a parabolic magnetic field.

The field profile is B(x) = b0 + g*x + gbar*x^2 along z.  For each spin
projection M the Hamiltonian reduces to a shifted oscillator with effective
frequency omega_eff = omega*sqrt(1 - mbar), where the scaled spin number

    mbar = 2*gamma*gbar*hbar*M / (omega^2 * mass)

measures how close the sector is to losing its bound spectrum (mbar >= 1:
the quadratic field term overwhelms the trap and the sector dissociates).

Everything here is exact closed form; the grid diagonalization in
:mod:`parabolic_mr.oracle` independently validates each expression.
Internally energies are handled in units of hbar*omega and lengths in units
of sqrt(hbar/(mass*omega)); joules and meters appear only at the API surface.

Every closed form, here and in :mod:`parabolic_mr.spectroscopy`, reads a
sector's mbar and sqrt(1 - mbar) from ``_sector``, which also refuses an
unbound sector.  ``scaled_spin_number`` and ``energy_level`` also evaluate
over numpy arrays: ``SpinSystem.omega``, ``FieldProfile.gbar``, M and n may
each be an array, and the result broadcasts over them.  Scalars and arrays
run the same expression, and each element of an array result is
bit-identical to the scalar call on that element's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from numpy import ndarray

from .constants import HBAR
from .errors import DissociationError

#: Upward Hermite recurrence stays well-conditioned far beyond this, but the
#: polynomial values themselves overflow float64 around n ~ 300 for large xi.
MAX_HERMITE_ORDER = 200


def _finite(x) -> bool:
    """True when a number, or every element of a numpy array, is finite."""
    if isinstance(x, ndarray):
        return bool(np.isfinite(x).all())
    return math.isfinite(x)


def _positive_finite(x) -> bool:
    """True when a number, or every element of a numpy array, is positive and finite."""
    if isinstance(x, ndarray):
        return bool(((x > 0.0) & np.isfinite(x)).all())
    return x > 0.0 and math.isfinite(x)


def _square(x):
    """x**2 by libm ``pow``, elementwise over a numpy array; inf past double range.

    Python's ``**`` and ``np.float_power`` call the same ``pow``, which differs
    in the last bit from numpy's ``x*x`` for some doubles, so array squares stay
    bit-identical to scalar ones.  No square raises an exception or a warning;
    the package's callers square inside their own ``np.errstate``, so this
    one matters only to a direct call.
    """
    if isinstance(x, ndarray):
        with np.errstate(all="ignore"):
            return np.float_power(x, 2.0)
    try:
        return x**2
    except OverflowError:
        return math.inf


def _sqrt(x):
    """math.sqrt, or np.sqrt over a numpy array (both correctly rounded)."""
    return np.sqrt(x) if isinstance(x, ndarray) else math.sqrt(x)


def _python_scalars(obj, names) -> None:
    """Store numpy scalar fields ``names`` as Python scalars, which overflow silently."""
    for name in names:
        if isinstance(getattr(obj, name), np.generic):
            object.__setattr__(obj, name, getattr(obj, name).item())


@dataclass(frozen=True)
class SpinSystem:
    """Particle and trap parameters.

    mass: kg; gamma: signed gyromagnetic ratio, rad/(s*T); spin: half-integer
    S >= 0; omega: trap angular frequency, rad/s; offset: position of the
    potential minimum, m; sample_half_length: optional sample half-size l, m
    (when given, the offset must satisfy |offset| < l).  omega may be a numpy
    array of frequencies, over which the closed forms evaluate elementwise.
    """

    mass: float
    gamma: float
    spin: float
    omega: float
    offset: float = 0.0
    sample_half_length: float | None = None
    #: omega**2 through C ``pow`` (see :func:`_square`), squared once
    #: here so every closed form reads the same value for scalars and arrays.
    _omega_squared: float = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _python_scalars(self, ("mass", "gamma", "spin", "omega", "offset", "sample_half_length"))
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError("invalid system: mass must be positive and finite")
        if not _positive_finite(self.omega):
            raise ValueError("invalid system: omega must be positive and finite")
        if not math.isfinite(self.gamma):
            raise ValueError("invalid system: gamma must be finite")
        if not math.isfinite(self.spin):
            raise ValueError("invalid system: spin must be finite")
        two_s = 2.0 * self.spin
        if self.spin < 0.0 or two_s != round(two_s):
            raise ValueError("invalid system: 2*spin must be a nonnegative integer")
        if not math.isfinite(self.offset):
            raise ValueError("invalid system: offset must be finite")
        if self.sample_half_length is not None:
            if not (self.sample_half_length > 0.0):
                raise ValueError("invalid system: sample_half_length must be positive")
            if abs(self.offset) >= self.sample_half_length:
                raise ValueError(
                    "invalid system: |offset| must be smaller than sample_half_length"
                )
        with np.errstate(all="ignore"):
            omega_squared = _square(self.omega)
            if not _positive_finite(self.mass * omega_squared):
                raise ValueError(
                    "invalid system: omega**2 and mass*omega**2 must be positive finite doubles"
                )
        object.__setattr__(self, "_omega_squared", omega_squared)

    def levels(self) -> tuple[float, ...]:
        """All spin projections -S, -S+1, ..., S (exact half-integers)."""
        count = int(round(2.0 * self.spin)) + 1
        return tuple(-self.spin + i for i in range(count))


@dataclass(frozen=True)
class FieldProfile:
    """Field coefficients of B(x) = b0 + g*x + gbar*x^2.

    b0: T; g: linear gradient, T/m; gbar: second-derivative parameter, T/m^2.
    No sign restrictions.  gbar may be a numpy array of values, over which the
    closed forms evaluate elementwise.
    """

    b0: float
    g: float
    gbar: float

    def __post_init__(self) -> None:
        _python_scalars(self, ("b0", "g", "gbar"))
        for name in ("b0", "g", "gbar"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"invalid field: {name} must be finite")


@dataclass(frozen=True)
class DerivedParams:
    """Derived quantities of the worst projection, as :func:`stability_check` reports them.

    omega_eff and center are NaN when the system is not stable.
    """

    m_quantum: float
    mbar: float
    omega_eff: float
    center: float
    gbar_crit: float
    stable: bool


@dataclass(frozen=True)
class EnergyDecomposition:
    """Four-term split of the b0 = 0 spectrum (all terms in J).

    quantum_term:        hbar*omega*(n + 1/2) * sqrt(1 - mbar)
    classical_mixed_term: -(m*omega^2*(g/gbar)*a/2) * mbar/(1 - mbar)
    classical_a_term:    -(m*omega^2*a^2/2)        * mbar/(1 - mbar)
    classical_g_term:    -(m*omega^2*(g/gbar)^2/2) * mbar^2/(4*(1 - mbar))

    ``total`` is always the exact floating-point sum of the four parts.
    """

    quantum_term: float
    classical_mixed_term: float
    classical_a_term: float
    classical_g_term: float
    total: float


def _projection(system: SpinSystem, m: float) -> float:
    """Validate M against the system's spin and return it as a float.

    A numpy array of projections is checked elementwise and returned as a
    float array.
    """
    if isinstance(m, ndarray):
        mq = m.astype(float)
        steps = system.spin - mq
        bad = (steps < 0.0) | (mq < -system.spin) | (steps != np.round(steps))
        if bad.any():
            raise ValueError(
                f"m_quantum={float(mq[bad][0])} is not a valid projection "
                f"for spin={system.spin}"
            )
        return mq
    mq = float(m)
    steps = system.spin - mq
    if steps < 0.0 or mq < -system.spin or steps % 1.0 != 0.0:  # true for nan, as in arrays
        raise ValueError(
            f"m_quantum={mq} is not a valid projection for spin={system.spin}"
        )
    return mq


def _require_int(n: int, name: str = "n") -> int:
    """Validate a nonnegative integer, or a numpy integer array of them."""
    if isinstance(n, (int, np.integer)):
        if n >= 0:
            return int(n)
    elif isinstance(n, ndarray) and n.dtype.kind in "iu" and not (n < 0).any():
        return n
    raise ValueError(f"{name} must be a nonnegative integer")


def _require_bound(mbar, mq) -> None:
    """Raise :class:`DissociationError` if a sector has mbar >= 1.

    This is the closed forms' one dissociation rule, called by :func:`_sector`
    alone; the boundary mbar = 1 counts as unbound.  Over arrays, the error
    names the unbound element with the largest mbar (the first in C order on a
    tie), never a NaN one (inf * 0 at M = 0 once gamma*gbar overflows).
    """
    unbound = mbar >= 1.0
    if isinstance(unbound, ndarray):
        if not unbound.any():
            return
        worst = int(np.argmax(np.where(unbound, mbar, -np.inf)))
        mbar = float(mbar.flat[worst])
        mq = float(np.broadcast_to(mq, unbound.shape).flat[worst])
    elif not unbound:
        return
    raise DissociationError(
        f"dissociation: effective frequency imaginary for m_quantum={mq} "
        f"(mbar={mbar})"
    )


def _hermite_normalized(n: int, xi: np.ndarray) -> np.ndarray:
    """H_n(xi) / sqrt(2^n n!) via a normalized recurrence (no factorial overflow)."""
    h_prev = np.ones_like(xi)
    if n == 0:
        return h_prev
    h = math.sqrt(2.0) * xi
    for k in range(1, n):
        h, h_prev = (
            math.sqrt(2.0 / (k + 1)) * xi * h - math.sqrt(k / (k + 1.0)) * h_prev,
            h,
        )
    return h


def oscillator_wavefunction(n: int, omega: float, mass: float, x):
    """Normalized oscillator eigenfunction psi_n(omega; x), units m^(-1/2).

    psi_n(x) = (m*omega/(pi*hbar))^(1/4) / sqrt(2^n n!) * H_n(xi) * exp(-xi^2/2)
    with xi = x*sqrt(m*omega/hbar).  Accepts scalar or ndarray ``x``.
    """
    n = _require_int(n)
    if n > MAX_HERMITE_ORDER:
        raise ValueError(f"order too large: n={n} exceeds {MAX_HERMITE_ORDER}")
    if not (omega > 0.0 and mass > 0.0):
        raise ValueError("invalid system: omega and mass must be positive")
    scalar = not isinstance(x, np.ndarray)
    xs = np.asarray(x, dtype=float)
    scale = math.sqrt(mass * omega / HBAR)
    norm = (mass * omega / (HBAR * math.pi)) ** 0.25
    xi = scale * xs
    val = norm * _hermite_normalized(n, xi) * np.exp(-0.5 * xi * xi)
    return float(val) if scalar else val


def _mbar(system: SpinSystem, field: FieldProfile, mq: float) -> float:
    """mbar for an already validated projection (or array of them)."""
    return 2.0 * system.gamma * field.gbar * HBAR * mq / (system._omega_squared * system.mass)


def _sector(system: SpinSystem, field: FieldProfile, mq: float):
    """(mbar, sqrt(1 - mbar)) of a validated projection, over scalars or arrays;
    refuses an unbound sector through :func:`_require_bound`."""
    mbar = _mbar(system, field, mq)
    _require_bound(mbar, mq)
    return mbar, _sqrt(1.0 - mbar)


def scaled_spin_number(system: SpinSystem, field: FieldProfile, m: float) -> float:
    """mbar = 2*gamma*gbar*hbar*M / (omega^2 * mass); may carry either sign."""
    mq = _projection(system, m)
    with np.errstate(all="ignore"):
        return _mbar(system, field, mq)


def effective_frequency(system: SpinSystem, field: FieldProfile, m: float) -> float:
    """Sector frequency omega*sqrt(1 - mbar); raises once mbar >= 1."""
    _, root = _sector(system, field, _projection(system, m))
    return system.omega * root


def gbar_critical(system: SpinSystem) -> float:
    """Dissociation bound mass*omega^2 / (2*|gamma|*hbar*S); inf where the
    denominator is 0: S = 0, gamma = 0, or a product that underflows."""
    denominator = 2.0 * abs(system.gamma) * HBAR * system.spin
    return math.inf if denominator == 0.0 else system.mass * system._omega_squared / denominator


def _omega_floor(system: SpinSystem, field: FieldProfile) -> float:
    """sqrt(2*|gamma*gbar|*hbar*S/mass), the trap frequency below which a sector
    dissociates at field.gbar: :func:`gbar_critical`'s bound solved for omega."""
    return math.sqrt(2.0 * abs(system.gamma * field.gbar) * HBAR * system.spin / system.mass)


def stability_check(system: SpinSystem, field: FieldProfile) -> DerivedParams:
    """Evaluate the dissociation bound at the worst spin projection.

    The sector with the largest mbar pairs the sign of gamma*gbar with the
    adverse projection +/-S, so the whole system is stable iff
    |gbar| < gbar_crit = mass*omega^2/(2*|gamma|*hbar*S).  The boundary
    |gbar| = gbar_crit counts as dissociated (the ground state there is not
    normalizable), even where the rounded mbar of that projection reads
    just below 1.  Just inside the bound the rounded mbar can already read
    1 or more; that too is reported unstable, with omega_eff and center NaN.
    S = 0 (or gamma = 0) is unconditionally stable.
    """
    worst = system.spin if system.gamma * field.gbar >= 0.0 else -system.spin
    mbar = _mbar(system, field, worst)
    crit = gbar_critical(system)
    if not (abs(field.gbar) < crit and mbar < 1.0):
        return DerivedParams(worst, mbar, math.nan, math.nan, crit, False)
    return DerivedParams(
        worst,
        mbar,
        effective_frequency(system, field, worst),
        eigenfunction_center(system, field, worst),
        crit,
        True,
    )


def _field_at_offset(system: SpinSystem, field: FieldProfile) -> float:
    """B evaluated at the trap minimum: b0 + g*a + gbar*a^2."""
    a = system.offset
    return field.b0 + field.g * a + field.gbar * a * a


def _gradient_at_offset(system: SpinSystem, field: FieldProfile) -> float:
    """dB/dx at the trap minimum: g + 2*gbar*a."""
    return field.g + 2.0 * field.gbar * system.offset


def energy_level(system: SpinSystem, field: FieldProfile, m: float, n: int) -> float:
    """Exact eigenvalue E_{M,n} in joules.

    E = hbar*omega_eff*(n + 1/2)
        - gamma*(b0 + g*a + gbar*a^2)*hbar*M
        - gamma^2*(g + 2*gbar*a)^2*hbar^2*M^2 / (2*mass*omega_eff^2)

    Raises :class:`DissociationError` when mbar >= 1 for this M.  Any of
    system.omega, field.gbar, ``m`` and ``n`` may be numpy arrays; the
    energies then come back as an array of their broadcast shape.
    """
    mq = _projection(system, m)
    n = _require_int(n)
    with np.errstate(all="ignore"):
        mbar, root = _sector(system, field, mq)
        # Dimensionless pieces in units of hbar*omega; scale back once at the end.
        quantum = root * (n + 0.5)
        zeeman = system.gamma * _field_at_offset(system, field) * mq / system.omega
        slope = system.gamma * _gradient_at_offset(system, field) * mq / system.omega
        shift = slope * slope * HBAR
        try:
            shift = shift / (2.0 * system.mass * system.omega * (1.0 - mbar))
        except ZeroDivisionError:  # a scalar divisor underflowed: an array's inf, or 0/0's nan
            shift = math.inf if shift else shift * math.inf
        return HBAR * system.omega * (quantum - zeeman - shift)


def energy_decomposition(
    system: SpinSystem, field: FieldProfile, m: float, n: int
) -> EnergyDecomposition:
    """Quantum/classical four-term split of E_{M,n}; requires b0 = 0 and gbar != 0.

    The total reproduces :func:`energy_level` exactly (algebraically); the
    split exposes the competing rescaled-quantum and classical-oscillator
    weights sqrt(1 - mbar) and mbar^2/(4*(1 - mbar)).
    """
    mq = _projection(system, m)
    n = _require_int(n)
    if field.b0 != 0.0:
        raise ValueError("decomposition undefined: requires b0 = 0")
    if field.gbar == 0.0:
        raise ValueError("decomposition undefined: requires gbar != 0")
    mbar, root = _sector(system, field, mq)
    a = system.offset
    # The (g/gbar) ratios are folded away via mbar/gbar = 2*gamma*hbar*M/(omega^2*mass),
    # which keeps every term finite as gbar -> 0 (each is algebraically gbar-free
    # or carries mbar's own factor of gbar).
    quantum = HBAR * system.omega * (n + 0.5) * root
    mixed = -system.gamma * field.g * a * HBAR * mq / (1.0 - mbar)
    pure_a = -0.5 * system.mass * system._omega_squared * a * a * mbar / (1.0 - mbar)
    pure_g = -((system.gamma * field.g * HBAR * mq) ** 2) / (
        2.0 * system.mass * system._omega_squared * (1.0 - mbar)
    )
    total = quantum + mixed + pure_a + pure_g
    return EnergyDecomposition(quantum, mixed, pure_a, pure_g, total)


def eigenfunction_center(system: SpinSystem, field: FieldProfile, m: float) -> float:
    """Center of the sector-M eigenfunctions, in meters.

    x_c = a + gamma*(g + 2*gbar*a)*hbar*M / (mass*omega_eff^2); note the
    single power of hbar (the grid oracle's position expectation pins this
    down to relative 1e-6).
    """
    mq = _projection(system, m)
    mbar, _ = _sector(system, field, mq)
    shift = system.gamma * _gradient_at_offset(system, field) * HBAR * mq / (
        system.mass * system._omega_squared * (1.0 - mbar)
    )
    return system.offset + shift


def eigenfunction(
    system: SpinSystem,
    field: FieldProfile,
    m: float,
    n: int,
    x,
):
    """Sector eigenfunction phi_{M,n}(x) = psi_n(omega_eff; x - x_c), m^(-1/2)."""
    omega_eff = effective_frequency(system, field, m)
    center = eigenfunction_center(system, field, m)
    return oscillator_wavefunction(n, omega_eff, system.mass, x - center)

