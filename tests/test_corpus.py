"""Digests of seeded result sets, pinned to the bytes they had when written.

Each digest hashes, in order, the ``repr`` or the error text of every call of
a seeded corpus, so one changed bit of any result flips it.  The corpus
generator is this file's own.  A changed digest must be explained in
CHANGES.md.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np

from conftest import random_stable_scenario
from parabolic_mr import FieldProfile, SpinSystem, identify_frequency, transition_lines
from parabolic_mr.cli import run
from parabolic_mr.constants import HBAR
from parabolic_mr.errors import PhysicsError

#: SHA-256 over the outcomes of :func:`inversion_corpus`, one per line.
INVERSION_SHA256 = "51a7323683771c1d7dccbe6040429e1f8b6d1bf0c5105145e73146e1e2dc6cf3"

#: SHA-256 over (exit code, stderr, inversion.json bytes) of each
#: :data:`INVERT_CONFIGS` run.
CLI_INVERT_SHA256 = "952e82822022897e82124ba317bc1e1713904e233d31b397e36122d499a2908c"

SPINS = (0.5, 1.0, 1.5, 2.0, 2.5)
SCAN_POINTS = (7, 64, 512)
LINE_SETS = ("full", "partial", "noisy", "far")


def omega_floor(system, field):
    """The omega below which the adverse sector of ``field`` dissociates."""
    return math.sqrt(2.0 * abs(system.gamma * field.gbar) * HBAR * system.spin / system.mass)


def inversion_corpus():
    """(lines_hz, template, field, n, bracket, scan_points) of each call.

    Random stable traps with S = 1/2..5/2 and n = 0..3 give full, partial,
    noisy and far-off line sets, fitted over (omega/3, 3 omega), which the
    dissociation floor clips in most draws, or over a bracket above the true
    omega.  Fixed cases follow: homogeneous fields, a spin-1/2 line that no
    omega moves (a flat residual), brackets below the floor, model lines far
    past double precision and refused arguments.
    """
    rng = np.random.default_rng(1616)
    calls = []
    for k in range(300):
        system, field, _ = random_stable_scenario(rng, spin_choices=SPINS)
        n = int(rng.integers(0, 4))
        lines = [line.frequency_hz for line in transition_lines(system, field, n)]
        kind = LINE_SETS[k % len(LINE_SETS)]
        if kind == "partial" and len(lines) > 1:
            keep = rng.permutation(len(lines))[: int(rng.integers(1, len(lines)))]
            lines = [lines[i] for i in sorted(keep.tolist())]
        elif kind == "noisy":
            lines = [f * (1.0 + 1e-4 * rng.standard_normal()) for f in lines]
        elif kind == "far":
            lines = [f * rng.choice((0.01, 100.0)) for f in lines]
        omega = system.omega
        bracket = (1.5 * omega, 5.0 * omega) if k % 7 == 6 else (omega / 3.0, 3.0 * omega)
        template = replace(system, omega=1.0)
        calls.append((lines, template, field, n, bracket, SCAN_POINTS[k % len(SCAN_POINTS)]))

    base = SpinSystem(mass=1e-26, gamma=5e10, spin=1.5, omega=1.0, offset=1e-6)
    true = replace(base, omega=2e5)
    field = FieldProfile(0.001, 0.002, 10.0)
    lines = [line.frequency_hz for line in transition_lines(true, field, 1)]
    for b0 in (0.0, 0.02):
        uniform = FieldProfile(b0, 0.0, 0.0)
        uniform_lines = [line.frequency_hz for line in transition_lines(true, uniform, 1)]
        calls.append((uniform_lines, base, uniform, 1, (1e4, 1e6), 512))
    half = replace(base, spin=0.5)
    for g in (0.002, -0.3):
        linear = FieldProfile(0.001, g, 0.0)
        flat = [line.frequency_hz for line in transition_lines(replace(half, omega=2e5), linear, 0)]
        calls.append((flat, half, linear, 0, (1e4, 1e6), 64))
    floor = omega_floor(base, field)
    calls.append((lines, base, field, 1, (0.5 * floor, floor), 64))
    calls.append((lines, base, field, 1, (0.5 * floor, floor * (1.0 + 1e-10)), 64))
    calls.append((lines, base, FieldProfile(1e200, 0.002, 10.0), 1, (1e4, 1e6), 512))
    calls.append(([1e300, 2e300], base, field, 1, (1e4, 1e6), 7))
    calls.append(([], base, field, 1, (1e4, 1e6), 64))
    calls.append((lines, replace(base, spin=0.0), field, 1, (1e4, 1e6), 64))
    calls.append((lines, base, field, 1, (1e4, 1e6), 2))
    calls.append((lines, base, field, 1, (1e6, 1e4), 64))
    calls.append((lines, base, field, 1, (0.0, 1e6), 64))
    return calls


def outcome(call):
    """The ``repr`` of a call's result, or its error's type and text."""
    try:
        return repr(call())
    except (ValueError, PhysicsError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_inversion_corpus_digest():
    calls = inversion_corpus()
    outcomes = [
        outcome(lambda: identify_frequency(lines, template, field, n, bracket, scan_points=points))
        for lines, template, field, n, bracket, points in calls
    ]
    # the corpus reaches every outcome, and the floor clips some brackets
    assert len(outcomes) >= 300
    for text in (
        "identifiable=True", "homogeneous field", "residual flat in omega",
        "entire bracket dissociated", "line misfit past double precision",
        "scan_points must be at least 3",
    ):
        assert any(text in o for o in outcomes), text
    assert "InversionError: bracket does not contain optimum" in outcomes
    clipped = [
        bracket[0] < omega_floor(template, field) < bracket[1]
        for _, template, field, _, bracket, _ in calls
    ]
    assert sum(clipped) >= 100
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == INVERSION_SHA256


CONTRACT = {
    "mass": 1e-26, "gamma": 5e10, "spin": 1.0, "omega": 1.0, "offset": 1e-6,
    "b0": 0.0, "g": 0.002, "gbar": 10.0, "fixed_n": 1,
    "bracket_lo": 2e5 / 3.0, "bracket_hi": 6e5,
}

#: ``invert`` configs as overrides of :data:`CONTRACT`: an exact, a noisy
#: and a one-line fit, a homogeneous field, a bracket past the true
#: omega, one below the dissociation floor and an overflowing misfit.
INVERT_CONFIGS = (
    {"measured_lines": "exact"},
    {"measured_lines": "noisy", "scan_points": 64},
    {"measured_lines": "one", "scan_points": 7},
    {"measured_lines": "exact", "g": 0.0, "gbar": 0.0},
    {"measured_lines": "exact", "bracket_lo": 4e5, "bracket_hi": 1e6},
    {"measured_lines": "exact", "bracket_lo": 10.0, "bracket_hi": 50.0},
    {"measured_lines": "exact", "b0": 1e200},
)


def test_cli_invert_digest(tmp_path, capsys):
    system = SpinSystem(*(CONTRACT[k] for k in ("mass", "gamma", "spin", "omega", "offset")))
    field = FieldProfile(*(CONTRACT[k] for k in ("b0", "g", "gbar")))
    exact = [line.frequency_hz for line in transition_lines(replace(system, omega=2e5), field, 1)]
    noisy = [exact[0] * (1.0 + 3e-5), exact[1] * (1.0 - 2e-5)]
    line_sets = {"exact": exact, "noisy": noisy, "one": exact[1:]}
    record = hashlib.sha256()
    for k, overrides in enumerate(INVERT_CONFIGS):
        config = dict(CONTRACT, **overrides)
        config["measured_lines"] = line_sets[config["measured_lines"]]
        path = tmp_path / f"invert{k}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / f"out{k}"
        code = run(["invert", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        written = out / "inversion.json"
        record.update(f"{code}\n{err}".encode())
        record.update(written.read_bytes() if written.exists() else b"no file\n")
    assert record.hexdigest() == CLI_INVERT_SHA256
