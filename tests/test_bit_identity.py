"""Array evaluations of the closed forms equal the scalar ones bit for bit.

Crossing scans, the inversion's coarse omega scan and the figure-1 level
table evaluate ``energy_level`` and ``_pair_delta_e`` over numpy arrays.
These tests pin each array element to the scalar call on the same values,
compared as raw float64 bits (so 0.0 and -0.0 differ and NaN would show).
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

from conftest import random_stable_scenario
from parabolic_mr import (
    FieldProfile,
    SpinSystem,
    energy_level,
    gbar_critical,
    transition_lines,
)
from parabolic_mr.cli import run
from parabolic_mr.spectroscopy import _line_misfit, _pair_delta_e, _scan_residuals


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def pow_trap_omegas(rng, lo, hi, count=20000):
    """Trap frequencies in [lo, hi] whose Python square (libm pow) differs
    from numpy's x*x squaring; the array path must square the Python way."""
    omegas = lo * (hi / lo) ** rng.uniform(0.0, 1.0, count)
    python_squares = np.array([w**2 for w in omegas.tolist()])
    return omegas[omegas * omegas != python_squares]


def test_energy_level_and_pair_delta_e_arrays_match_scalar_calls():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        system, field, _ = random_stable_scenario(rng, zero_b0=bool(rng.integers(2)))
        # |mbar| < 0.9 at field.gbar and system.omega: a smaller |gbar| or a
        # larger omega keeps every sector bound
        gbars = field.gbar * rng.uniform(-1.0, 1.0, 6)
        omegas = system.omega * rng.uniform(1.0, 3.0, 6)
        ladder = system.levels()
        ms = np.array(ladder)
        ns = np.arange(4)

        got = energy_level(system, replace(field, gbar=gbars[:, None, None]), ms[:, None], ns)
        want = [
            [[energy_level(system, replace(field, gbar=g), m, n) for n in ns.tolist()]
             for m in ladder]
            for g in gbars.tolist()
        ]
        assert np.array_equal(bits(got), bits(want))

        got = energy_level(replace(system, omega=omegas[:, None]), field, ms, 2)
        want = [[energy_level(replace(system, omega=w), field, m, 2) for m in ladder]
                for w in omegas.tolist()]
        assert np.array_equal(bits(got), bits(want))

        level_a = (ladder[-1], int(rng.integers(4)))
        others = (ms[:-1, None], ns[None, :])
        got = _pair_delta_e(system, replace(field, gbar=gbars[:, None, None]), level_a, others)
        want = [
            [[_pair_delta_e(system, replace(field, gbar=g), level_a, (m, n)) for n in ns.tolist()]
             for m in ladder[:-1]]
            for g in gbars.tolist()
        ]
        assert np.array_equal(bits(got), bits(want))

        want = [[_pair_delta_e(replace(system, omega=w), field, level_a, (m, 0))
                 for m in ladder[:-1]]
                for w in omegas.tolist()]
        got = _pair_delta_e(replace(system, omega=omegas[:, None]), field, level_a, (ms[:-1], 0))
        assert np.array_equal(bits(got), bits(want))


def test_omega_arrays_square_like_python_floats():
    rng = np.random.default_rng(7)
    omegas = np.concatenate([pow_trap_omegas(rng, 1e3, 1e6), 1e3 * 1e3 ** rng.uniform(0, 1, 20)])
    system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1e3, offset=0.0)
    scan = replace(system, omega=omegas)
    # gbar at 0.9 of each omega's dissociation bound: mbar = 0.9 for M = S,
    # so the energies are sensitive to the last bit of omega^2
    gbars = 0.9 * np.array([gbar_critical(replace(system, omega=w)) for w in omegas.tolist()])
    for m in system.levels():
        want = [
            energy_level(replace(system, omega=w), FieldProfile(0.0, 0.002, g), m, 1)
            for w, g in zip(omegas.tolist(), gbars.tolist())
        ]
        got = energy_level(scan, FieldProfile(0.0, 0.002, gbars), m, 1)
        assert np.array_equal(bits(got), bits(want))
    # with gbar = b0 = offset = 0, an equal-n pair differs only by the
    # gradient shift, which scales as 1/omega^2
    field = FieldProfile(0.0, 0.002, 0.0)
    want = [_pair_delta_e(replace(system, omega=w), field, (1.5, 3), (-0.5, 3))
            for w in omegas.tolist()]
    assert np.array_equal(bits(_pair_delta_e(scan, field, (1.5, 3), (-0.5, 3))), bits(want))


def test_coarse_scan_residuals_match_scalar_residual():
    rng = np.random.default_rng(99)
    for k in range(24):
        system, field, _ = random_stable_scenario(rng)
        n = int(rng.integers(0, 4))
        lines = [l.frequency_hz for l in transition_lines(system, field, n)]
        # every other draw drops a line, so lines match to the nearest model line
        measured = sorted(lines[1:] if k % 2 and len(lines) > 1 else lines)
        template = replace(system, omega=1.0)
        # |mbar| < 0.9 at system.omega, so every sector stays bound above it
        omegas = np.linspace(system.omega, system.omega * 3.0, 64).tolist()
        got = _scan_residuals(measured, template, field, n, omegas)
        want = [
            _line_misfit(
                [l.frequency_hz for l in transition_lines(replace(template, omega=w), field, n)],
                measured,
            )
            for w in omegas
        ]
        assert np.array_equal(bits(got), bits(want))
        assert not any(math.isnan(v) for v in got)


#: SHA-256 of the default ``figure1`` outputs.  The scans are pinned to the
#: bytes the point-by-point loops wrote; a changed digest must be explained
#: in CHANGES.md.
FIGURE1_SHA256 = {
    "figure1_levels.csv": "36f4fbf9b3da9e2265c1621ec4b5d2dbe5616b9f975164fbcf2fdf5201c0decf",
    "figure1_crossings.csv": "93a5ddf15541161abe4545833af91f71f7f9c6df619555ac472085ccb663afe2",
}


def test_figure1_outputs_match_pinned_digests(tmp_path, capsys):
    assert run(["figure1", "--out", str(tmp_path)]) == 0
    for name, digest in FIGURE1_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
