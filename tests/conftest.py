import math

import hypothesis
import numpy as np
from hypothesis import strategies as st

from parabolic_mr import HBAR, FieldProfile, SpinSystem, energy_level, scaled_spin_number

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("ci")

SPIN_CHOICES = (0.5, 1.0, 1.5, 2.5)


#: A ``crossings`` config whose scan nears mbar 0.998 at the crossing of
#: levels (-1, 1) and (0, 0): there delta E moves by more per ulp of gbar than
#: the energy test allows, so that bracket freezes at one ulp unconverged.
STEEP_CROSSINGS = {
    "mass": 9.1093837015e-31, "gamma": -176085963000.0, "spin": 1.0,
    "omega": 56083.09543517781, "offset": -3.591723432027721e-05,
    "b0": -0.00039434512277792026, "g": 0.021343322890686647, "gbar": 0.0,
    "n_max": 2, "scan_steps": 64, "gbar_min": -77.0703874838802, "gbar_max": 77.0703874838802,
}


def crossing_scan_args(config):
    """(system, field, gbar_range, levels, steps) of a ``crossings`` config
    without a ``levels`` key, with the levels in the order the CLI scans them."""
    system = SpinSystem(*(config[k] for k in ("mass", "gamma", "spin", "omega", "offset")))
    field = FieldProfile(*(config[k] for k in ("b0", "g", "gbar")))
    levels = [(m, n) for m in system.levels() for n in range(config["n_max"] + 1)]
    gbar_range = (config["gbar_min"], config["gbar_max"])
    return system, field, gbar_range, levels, config["scan_steps"]


def trapezoid(y, x):
    """Plain trapezoidal quadrature on a uniform grid (independent oracle)."""
    dx = x[1] - x[0]
    return (0.5 * (y[0] + y[-1]) + float(np.sum(y[1:-1]))) * dx


def build_scenario(
    mass, omega, gamma, spin, mbar_fraction, offset_lengths, grad_strength, zeeman_strength
):
    """Assemble a stable system/field from dimensionless knobs.

    mbar_fraction is the scaled spin number of the adverse-sign sector +/-S
    (all sectors stay bound for |mbar_fraction| < 1); offset_lengths places
    the trap minimum in oscillator lengths; grad_strength sets the linear
    gradient so the sector-S center shift is about that many oscillator
    lengths; zeeman_strength sets gamma*b0*S/omega.
    """
    lam = math.sqrt(HBAR / (mass * omega))
    crit = mass * omega**2 / (2.0 * abs(gamma) * HBAR * spin)
    gbar = mbar_fraction * crit
    g = grad_strength * lam * mass * omega**2 / (abs(gamma) * HBAR * max(spin, 0.5))
    b0 = zeeman_strength * omega / abs(gamma) / max(spin, 0.5)
    system = SpinSystem(mass=mass, gamma=gamma, spin=spin, omega=omega, offset=offset_lengths * lam)
    field = FieldProfile(b0=b0, g=g, gbar=gbar)
    return system, field


def random_stable_scenario(rng, *, zero_b0=False, spin_choices=SPIN_CHOICES, n_checked=5):
    """Seeded random stable scenario (system, field, m).

    Draws log-uniform mass, omega, |gamma| and a spin from ``spin_choices``;
    the adverse sector's |mbar| stays below 0.9.  Draws are rejected when any
    checked level's energy falls below 1e-3 * hbar*omega*(n+1/2): relative
    error assertions need the denominator bounded away from zero.
    """
    while True:
        mass = 10.0 ** rng.uniform(-27.0, -26.0)
        omega = 10.0 ** rng.uniform(3.0, 6.0)
        gamma = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(7.0, math.log10(2e11))
        spin = rng.choice(spin_choices)
        system, field = build_scenario(
            mass,
            omega,
            gamma,
            spin,
            mbar_fraction=rng.uniform(0.05, 0.9) * rng.choice((-1.0, 1.0)),
            offset_lengths=rng.uniform(-5.0, 5.0),
            grad_strength=rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0)),
            zeeman_strength=0.0 if zero_b0 else rng.uniform(-3.0, 3.0),
        )
        levels = system.levels()
        mq = levels[rng.integers(len(levels))]
        ok = True
        for n in range(n_checked):
            e = energy_level(system, field, mq, n)
            if abs(e) < 1e-3 * HBAR * omega * (n + 0.5):
                ok = False
                break
        if ok:
            return system, field, mq


def random_centered_scenario(rng):
    """Stable scenario whose sector center is well separated from the trap
    minimum (used by the position-expectation adjudication)."""
    while True:
        system, field, mq = random_stable_scenario(rng, zero_b0=True)
        if mq == 0.0:
            continue
        lam = math.sqrt(HBAR / (system.mass * system.omega))
        mbar = scaled_spin_number(system, field, mq)
        shift = (
            system.gamma
            * (field.g + 2.0 * field.gbar * system.offset)
            * HBAR
            * mq
            / (system.mass * system.omega**2 * (1.0 - mbar))
        )
        center = system.offset + shift
        if abs(center) > 0.1 * lam and abs(shift) > 0.05 * abs(center):
            return system, field, mq


@st.composite
def stable_setups(draw, zero_b0=False, allow_m_zero=True):
    """Hypothesis variant of the scenario generator: (system, field, m)."""
    mass = 10.0 ** draw(st.floats(-27.0, -25.0))
    omega = 10.0 ** draw(st.floats(3.0, 6.0))
    gamma = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(7.0, 11.0))
    spin = draw(st.sampled_from(SPIN_CHOICES))
    system, field = build_scenario(
        mass,
        omega,
        gamma,
        spin,
        mbar_fraction=draw(st.floats(-0.9, 0.9)),
        offset_lengths=draw(st.floats(-5.0, 5.0)),
        grad_strength=draw(st.floats(-3.0, 3.0)),
        zeeman_strength=0.0 if zero_b0 else draw(st.floats(-3.0, 3.0)),
    )
    levels = [m for m in system.levels() if allow_m_zero or m != 0.0]
    mq = draw(st.sampled_from(levels))
    return system, field, mq
