"""Digests of seeded result sets, pinned to the bytes they had when written.

Each digest hashes, in order, the ``repr`` or the error text of every call of
a seeded corpus, or every CLI run's exit code, output lines and files, so one
changed bit of any result flips it.  The corpus generator is this file's own.
A changed digest must be explained in CHANGES.md.

Most corpus omegas are doubles whose square by Python's ``**`` (what
``core._square`` takes) differs in the last bit from ``x*x``, so squaring
them any other way flips the digests that depend on omega squared.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import STEEP_CROSSINGS, crossing_scan_args, random_stable_scenario
from parabolic_mr import (
    FieldProfile,
    SpinSystem,
    converged_spectrum,
    crossing_scan,
    gbar_critical,
    identify_frequency,
    transition_lines,
)
from parabolic_mr.cli import run
from parabolic_mr.constants import ELECTRON_MASS, GAMMA_ELECTRON, HBAR
from parabolic_mr.errors import ConvergenceError, PhysicsError
from parabolic_mr.oracle import MIN_TOL

#: SHA-256 over the outcomes of :func:`inversion_corpus`, one per line.
INVERSION_SHA256 = "d4b91990536f9b1b6d81c6f6b01d9fa91dbb12328bb90dfa9f62d52773290de4"

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
    except (ValueError, PhysicsError, ConvergenceError) as exc:
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


#: SHA-256 over the outcomes of :func:`scan_corpus`, one per line.
CROSSING_SCAN_SHA256 = "27ffabc08294a2b92409bc29a398639140db4208d5a1ad64a071f1240d022e56"

#: SHA-256 over the eigenvalue bytes and convergence record, or the error
#: text, of each :func:`sector_corpus` call.
CONVERGED_SPECTRUM_SHA256 = "cae3dd894ad61a51f4269faef2805deead99dd2ed1e6a7e1702ffd2f0830d3b3"

#: SHA-256 over every run of :func:`cli_corpus`, by subcommand.
CLI_SHA256 = {
    "spectrum": "45c41c730c42caa4d0a3108867fc10a62a29e214883e63622084274c46e0d931",
    "lines": "430704eb4c6b5a2a519ad592c89cd76e710b1d8afd2f780ca9ca851aef1c6682",
    "crossings": "e65d5f4051fcb7b98541d18440a5e145fd07b7e724bb2167bc6376a40c25b65a",
    "validate": "016b831f5972b29ee8454d62b750efd5133218f95772ae434fe4c7491649667a",
    "figure1": "557993c3ce56f01ca9445c5efd91c4c0c61595d6299dbcbba05d8a11b7d2a8e5",
}


def pow_sensitive(x):
    """The first double from ``x`` up whose square by ``**`` is not ``x*x``
    (about one double in a thousand), or ``x`` after 2**16 tries."""
    y = x
    for _ in range(2**16):
        if y**2 != y * y:
            return y
        y = math.nextafter(y, math.inf)
    return x


def scenario_keys(system, field):
    """The required config keys of a trap and field."""
    return {
        "mass": system.mass, "gamma": system.gamma, "spin": system.spin,
        "omega": system.omega, "offset": system.offset,
        "b0": field.b0, "g": field.g, "gbar": field.gbar,
    }


def random_trap(rng):
    """A random stable trap and field with S = 1/2..5/2 and a pow-sensitive omega."""
    system, field, _ = random_stable_scenario(rng, spin_choices=SPINS)
    return replace(system, omega=pow_sensitive(system.omega)), field


def electron_scan(rng, spin, n_max, steps):
    """A ``crossings`` config like figure1's: an electron trap with a weak
    linear gradient, scanned from 0.999/256 to 0.999 of gbar_crit."""
    system = SpinSystem(
        ELECTRON_MASS, GAMMA_ELECTRON, spin,
        pow_sensitive(10.0 ** rng.uniform(4.7, 5.3)), rng.uniform(0.5e-4, 2e-4),
    )
    crit = gbar_critical(system)
    return {
        **scenario_keys(system, FieldProfile(0.0, -rng.uniform(1e-3, 5e-3), 0.0)),
        "n_max": n_max, "scan_steps": steps,
        "gbar_min": 0.999 * crit / 256, "gbar_max": 0.999 * crit,
    }


def scan_corpus():
    """(system, field, gbar_range, levels, steps) of each ``crossing_scan``.

    Electron scans with S = 1/2..5/2 and random traps scanned across both
    dissociation bounds (the scan clips the range) come first.  Fixed cases
    follow: the steep scan that freezes a bracket unconverged, levels bound
    on one side only, degenerate pairs, crossings on grid points, and
    refused ranges, levels and step counts.
    """
    rng = np.random.default_rng(1818)
    calls = []
    for k in range(20):
        config = electron_scan(rng, SPINS[k % len(SPINS)], int(rng.integers(1, 3)),
                               int(rng.choice((16, 64, 256))))
        calls.append(crossing_scan_args(config))
    for _ in range(10):
        system, field = random_trap(rng)
        crit = gbar_critical(system)
        levels = [(m, n) for m in system.levels() for n in range(2)]
        calls.append((system, field, (-2.0 * crit, 2.0 * crit), levels, 64))
    calls.append(crossing_scan_args(STEEP_CROSSINGS))
    system = SpinSystem(mass=1e-26, gamma=5e10, spin=1.5, omega=pow_sensitive(2e5), offset=1e-6)
    field = FieldProfile(0.001, 0.002, 10.0)
    crit = gbar_critical(system)
    calls.append((system, field, (-crit, crit), [(0.5, 0), (1.5, 1)], 64))
    # no spin coupling: equal-n levels coincide over the whole scan
    uncoupled = [(m, n) for m in system.levels() for n in range(2)]
    calls.append((replace(system, gamma=0.0), field, (-10.0, 10.0), uncoupled, 64))
    # b0 = g = 0 at the trap minimum: equal-n levels meet on the grid, at gbar = 0
    centred = replace(system, offset=0.0), FieldProfile(0.0, 0.0, 0.0)
    calls.append((*centred, (-0.5 * crit, 0.5 * crit), uncoupled, 64))
    calls.append((system, field, (1.5 * crit, 2.0 * crit), [(0.5, 0), (1.5, 1)], 64))
    calls.append((system, field, (0.0, crit), [(0.5, 0), (1.5, 1)], 15))
    calls.append((system, field, (0.0, crit), [], 64))
    calls.append((system, field, (0.0, crit), [(0.7, 0), (1.5, 1)], 64))
    return calls


def test_crossing_scan_corpus_digest():
    outcomes = [outcome(lambda: crossing_scan(*call)) for call in scan_corpus()]
    for text in ("converged=False", "degenerate_pairs=((", "DissociationError", "ValueError"):
        assert any(text in o for o in outcomes), text
    assert sum("CrossingPoint(" in o for o in outcomes) >= 20
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == CROSSING_SCAN_SHA256


def sector_corpus():
    """(system, field, m, k, tol) of each ``converged_spectrum`` call: random
    sectors with k up to 60 and tol down to ``MIN_TOL``, then k = 120, a k
    past the grid cap, a tol below the floor, a dissociated sector and an M
    that is no projection."""
    rng = np.random.default_rng(1919)
    calls = []
    for _ in range(40):
        system, field = random_trap(rng)
        m = float(rng.choice(system.levels()))
        k = int(rng.choice((1, 2, 5, 12, 30, 60)))
        tol = float(10.0 ** rng.uniform(math.log10(MIN_TOL), -6.0))
        calls.append((system, field, m, k, tol))
    system, field = random_trap(rng)
    m = system.spin
    calls.append((system, field, m, 120, 1e-8))
    calls.append((system, field, m, 1100, 1e-8))
    calls.append((system, field, m, 3, 0.5 * MIN_TOL))
    dissociated = replace(field, gbar=math.copysign(2.0 * gbar_critical(system), system.gamma))
    calls.append((system, dissociated, m, 3, 1e-8))
    calls.append((system, field, m + 0.5, 3, 1e-8))
    return calls


def test_converged_spectrum_corpus_digest():
    def solve(call):
        values, report = converged_spectrum(*call)
        return f"{values.tobytes().hex()} {report!r}"

    outcomes = [outcome(lambda: solve(call)) for call in sector_corpus()]
    for text in ("ConvergenceError", "DissociationError", "ValueError", "refinements=3"):
        assert any(text in o for o in outcomes), text
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == CONVERGED_SPECTRUM_SHA256


#: The contract base of the CLI tests: S = 1, every subcommand exits 0 on it.
BASE = {
    "mass": 1e-26, "gamma": 5e10, "spin": 1.0, "omega": 2e5, "offset": 1e-6,
    "b0": 0.001, "g": 0.002, "gbar": 10.0,
    "omega_unit": "rad/s", "sample_half_length": 1e-3,
    "levels": [[1.0, 0], [0.0, 1], [-1.0, 2]], "n_max": 2, "fixed_n": 1, "fixed_m": 0.0,
    "cutoff_hz": 1e15, "gbar_min": 0.0, "gbar_max": 100.0, "scan_steps": 32, "tol": 1e-8,
}

#: The README quickstart trap (S = 3/2).
QUICKSTART = {
    "mass": 2e-26, "gamma": 8e10, "spin": 1.5, "omega": 1.1e5, "offset": 2e-6,
    "b0": 0.0, "g": 0.002, "gbar": 40.0,
}

#: Exit codes each subcommand's corpus reaches.
CLI_EXITS = {
    "spectrum": {0, 2, 3},
    "lines": {0, 2, 3},
    "crossings": {0, 2, 3, 4},
    "validate": {0, 1, 2, 3, 4},
    "figure1": {0, 2, 3, 4},
}


def cli_corpus(command):
    """(config or None, --format) of each ``command`` run.

    The contract base, the README quickstart and a pow-sensitive omega come
    first, then random traps (electron scans for ``crossings`` and
    ``figure1``), then the fixed failures: an overflowing ``g`` (exit 2), a
    dissociated trap (3), the steep scan's unconverged crossing (4), a
    validation mismatch (1) and a sector that does not converge (4).
    """
    rng = np.random.default_rng([2020, len(command)])
    base = dict(BASE, omega=pow_sensitive(BASE["omega"]))
    crit = gbar_critical(crossing_scan_args(base)[0])
    quickstart = dict(QUICKSTART, n_max=2, gbar_min=0.0, gbar_max=1e6)
    runs = [(BASE, "csv"), (base, "json"), (quickstart, "csv")]
    if command in ("spectrum", "lines", "validate"):
        for k in range(6):
            system, field = random_trap(rng)
            config = scenario_keys(system, field)
            if command == "spectrum":
                config["n_max"] = int(rng.integers(0, 4))
            elif command == "lines":
                config["rule"] = ("deltaM1_fixed_n", "deltaN1_fixed_M", "all_pairs_within")[k % 3]
                config.update(fixed_n=int(rng.integers(0, 4)), n_max=2, fixed_m=system.spin)
            else:
                config["levels"] = [[m, int(rng.integers(0, 5))] for m in system.levels()]
            runs.append((config, ("csv", "json")[k % 2]))
        runs.append((dict(base, levels=[[40.0, 0], [-40.0, 1]], spin=40.0), "csv"))
    else:
        for k in range(4):
            runs.append((electron_scan(rng, SPINS[k], 2, 64), ("csv", "json")[k % 2]))
        runs.append((STEEP_CROSSINGS, "csv"))
        runs.append((dict(base, gbar_min=1.5 * crit, gbar_max=2.0 * crit), "csv"))
    runs.append((dict(base, g=1e200), "csv"))
    runs.append((dict(base, gbar=0.999 * crit), "json"))
    runs.append((dict(base, gbar=1.5 * crit), "csv"))
    if command == "lines":
        runs.append((dict(base, g=1e200, cutoff_hz=None), "json"))
    if command == "crossings":
        runs.append((dict(base, gbar_max=None), "csv"))
    if command == "validate":
        runs.append((dict(BASE, b0=1.99798970946e-6), "csv"))
        runs.append((dict(BASE, levels=[[1.0, 700]]), "csv"))
        runs.append((dict(QUICKSTART, tol=MIN_TOL), "json"))
    if command == "figure1":
        runs += [(None, "csv"), (None, "json")]
        runs.append((dict(base, spin=0.0, levels=None, gbar_max=None), "csv"))
        runs.append((dict(base, levels=None, gbar_min=None, gbar_max=None), "csv"))
    return [({k: v for k, v in c.items() if v is not None} if c else c, fmt) for c, fmt in runs]


def cli_outcome(out, capsys, command, config, fmt):
    """(exit code, bytes) of one in-process run into ``out``: the exit code,
    the stdout line with the out dir replaced, the stderr line, and the name
    and bytes of every file written."""
    argv = [command, "--out", str(out), "--format", fmt]
    if config is not None:
        path = out.parent / f"{out.name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    code = run(argv)
    captured = capsys.readouterr()
    record = f"{code}\n{captured.out.replace(str(out), 'OUT')}{captured.err}".encode()
    for written in sorted(out.iterdir()) if out.is_dir() else ():
        record += written.name.encode() + b"\n" + written.read_bytes()
    return code, record


@pytest.mark.parametrize("command", sorted(CLI_SHA256))
def test_cli_digest(tmp_path, capsys, command):
    record = hashlib.sha256()
    codes = set()
    for k, (config, fmt) in enumerate(cli_corpus(command)):
        code, data = cli_outcome(tmp_path / f"out{k}", capsys, command, config, fmt)
        codes.add(code)
        record.update(data)
    assert codes == CLI_EXITS[command]
    assert record.hexdigest() == CLI_SHA256[command]


def test_corpus_omegas_square_unlike_numpy():
    # every digest above but the inversion's sees the squaring of omega:
    # each corpus holds an omega whose two squares differ
    omegas = {
        "crossing_scan": [system.omega for system, *_ in scan_corpus()],
        "converged_spectrum": [system.omega for system, *_ in sector_corpus()],
        **{command: [c["omega"] for c, _ in cli_corpus(command) if c]
           for command in CLI_SHA256},
    }
    for name, values in omegas.items():
        assert any(w**2 != w * w for w in values), name
