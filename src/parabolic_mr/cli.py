"""Command-line interface: scenario configs in, deterministic CSV/JSON out.

Scenarios are flat JSON documents parsed strictly (unknown keys are
rejected, which catches unit typos early).  All floating-point output uses
17 significant digits so files can be diffed at full double precision, and
a given config always produces byte-identical files.

Exit codes: 0 success; 2 config or validation error; 3 physics-domain error
(dissociation, unidentifiable); 4 numerical non-convergence; 1 validation
mismatch (oracle converged but disagreed beyond tolerance).  Errors print a
single machine-greppable line ``ERROR <code>: <detail>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .constants import (
    ELECTRON_MASS,
    GAMMA_ELECTRON,
    HBAR,
    OMEGA_UNITS,
    omega_to_rad_per_s,
)
from .core import (
    FieldProfile,
    SpinSystem,
    _require_all_bound,
    energy_level,
    gbar_critical,
)
from .errors import ConvergenceError, PhysicsError, UnidentifiableError
from .oracle import MAX_DVR_POINTS, MIN_TOL, validate_levels
from .spectroscopy import SELECTION_RULES, crossing_scan, identify_frequency, transition_lines

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERIC = 4

_REQUIRED_KEYS = ("mass", "gamma", "spin", "omega", "offset", "b0", "g", "gbar")
_OPTIONAL_KEYS = (
    "omega_unit",
    "sample_half_length",
    "levels",
    "n_max",
    "fixed_n",
    "fixed_m",
    "rule",
    "cutoff_hz",
    "gbar_min",
    "gbar_max",
    "scan_steps",
    "bracket_lo",
    "bracket_hi",
    "measured_lines",
    "measured_lines_file",
    "tol",
    "scan_points",
)


#: Largest oscillator number n a config may name (``n_max``, ``fixed_n``,
#: ``levels``): the oracle's first solve of a sector's n + 1 lowest levels
#: takes 2(n + 1) grid points, which must fit within ``MAX_DVR_POINTS``.
#: Converging needs a second solve of 3(n + 1) points, so ``validate``
#: converges only up to n = 681 and ends in exit code 4 above it.
MAX_LEVEL_N = MAX_DVR_POINTS // 2 - 1

#: Largest ``scan_steps`` and ``scan_points``; scans cost time linear in them.
MAX_SCAN_STEPS = 2**16

#: Accepted (lowest, highest) value of each integer key.  ``crossing_scan``
#: needs 16 steps, and the inversion's coarse scan needs a point between its
#: two ends.
_INT_RANGES = {
    "n_max": (0, MAX_LEVEL_N),
    "fixed_n": (0, MAX_LEVEL_N),
    "scan_steps": (16, MAX_SCAN_STEPS),
    "scan_points": (3, MAX_SCAN_STEPS),
}


class ConfigError(ValueError):
    """Scenario file failed strict parsing or invariant validation."""


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario: system + field + task parameters."""

    system: SpinSystem
    field: FieldProfile
    omega_unit: str = "rad/s"
    levels: tuple[tuple[float, int], ...] | None = None
    n_max: int = 4
    fixed_n: int = 0
    fixed_m: float | None = None
    rule: str = "deltaM1_fixed_n"
    cutoff_hz: float | None = None
    gbar_min: float | None = None
    gbar_max: float | None = None
    scan_steps: int = 64
    bracket: tuple[float, float] | None = None
    measured_lines: tuple[float, ...] | None = None
    measured_lines_file: str | None = None
    tol: float = 1e-8
    scan_points: int = 512

    def all_levels(self) -> list[tuple[float, int]]:
        """Configured (M, n) list, defaulting to every M x n <= n_max."""
        if self.levels is not None:
            return list(self.levels)
        return [(m, n) for m in self.system.levels() for n in range(self.n_max + 1)]


def _finite_float(value, what: str) -> float:
    """A JSON number as a finite float; ``what`` names it in the error.

    json parses ``Infinity``, ``NaN`` and overflowing literals such as
    ``1e400`` to non-finite floats, and huge integer literals overflow float.
    """
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number")
    return number


def _want_number(raw: dict, key: str, optional: bool = False):
    if key not in raw:
        if optional:
            return None
        raise ConfigError(f"missing required key: {key}")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number")
    return _finite_float(value, f"key {key!r}")


def _want_int(raw: dict, key: str, default: int) -> int:
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key {key!r} must be an integer")
    lowest, highest = _INT_RANGES[key]
    if not lowest <= value <= highest:
        raise ConfigError(f"key {key!r} must be between {lowest} and {highest}")
    return value


def load_config(path: str, omega_unit_override: str | None = None) -> Scenario:
    """Strict-parse a flat JSON scenario file into a :class:`Scenario`.

    ``omega`` is converted to rad/s according to ``omega_unit`` (config key,
    overridden by the --omega-unit flag when given).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of key/value pairs")

    unknown = sorted(set(raw) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    omega_unit = raw.get("omega_unit", "rad/s")
    if omega_unit not in OMEGA_UNITS:
        raise ConfigError(f"omega_unit must be one of {OMEGA_UNITS}")
    if omega_unit_override is not None:
        omega_unit = omega_unit_override

    try:
        system = SpinSystem(
            mass=_want_number(raw, "mass"),
            gamma=_want_number(raw, "gamma"),
            spin=_want_number(raw, "spin"),
            omega=omega_to_rad_per_s(_want_number(raw, "omega"), omega_unit),
            offset=_want_number(raw, "offset"),
            sample_half_length=_want_number(raw, "sample_half_length", optional=True),
        )
        field = FieldProfile(
            b0=_want_number(raw, "b0"),
            g=_want_number(raw, "g"),
            gbar=_want_number(raw, "gbar"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    levels = None
    if "levels" in raw:
        given = raw["levels"]
        if not isinstance(given, list) or not given:
            raise ConfigError("key 'levels' must be a non-empty list of [m, n] pairs")
        parsed = []
        for item in given:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or isinstance(item[0], bool)
                or isinstance(item[1], bool)
                or not isinstance(item[0], (int, float))
                or not isinstance(item[1], int)
            ):
                raise ConfigError("each entry of 'levels' must be [m_quantum, n]")
            if not 0 <= item[1] <= MAX_LEVEL_N:
                raise ConfigError(f"each n in 'levels' must be between 0 and {MAX_LEVEL_N}")
            parsed.append((_finite_float(item[0], "each M in 'levels'"), item[1]))
        if len(set(parsed)) != len(parsed):
            raise ConfigError("each [m_quantum, n] in 'levels' must be unique")
        levels = tuple(parsed)

    measured = None
    if "measured_lines" in raw:
        given = raw["measured_lines"]
        if not isinstance(given, list) or not given:
            raise ConfigError("key 'measured_lines' must be a non-empty list of Hz values")
        for item in given:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError("key 'measured_lines' must contain only numbers")
        measured = tuple(_finite_float(v, "each entry of 'measured_lines'") for v in given)

    rule = raw.get("rule", "deltaM1_fixed_n")
    if rule not in SELECTION_RULES:
        raise ConfigError(f"rule must be one of {SELECTION_RULES}")

    measured_file = raw.get("measured_lines_file")
    if measured_file is not None and not isinstance(measured_file, str):
        raise ConfigError("key 'measured_lines_file' must be a string path")

    tol = _want_number(raw, "tol", optional=True)
    if tol is not None and not (tol >= MIN_TOL):
        raise ConfigError(f"tol must be at least {MIN_TOL:g}")

    bracket = None
    lo = _want_number(raw, "bracket_lo", optional=True)
    hi = _want_number(raw, "bracket_hi", optional=True)
    if (lo is None) != (hi is None):
        raise ConfigError("bracket_lo and bracket_hi must be given together")
    if lo is not None:
        bracket = (
            omega_to_rad_per_s(lo, omega_unit),
            omega_to_rad_per_s(hi, omega_unit),
        )

    try:
        return Scenario(
            system=system,
            field=field,
            omega_unit=omega_unit,
            levels=levels,
            n_max=_want_int(raw, "n_max", 4),
            fixed_n=_want_int(raw, "fixed_n", 0),
            fixed_m=_want_number(raw, "fixed_m", optional=True),
            rule=rule,
            cutoff_hz=_want_number(raw, "cutoff_hz", optional=True),
            gbar_min=_want_number(raw, "gbar_min", optional=True),
            gbar_max=_want_number(raw, "gbar_max", optional=True),
            scan_steps=_want_int(raw, "scan_steps", 64),
            bracket=bracket,
            measured_lines=measured,
            measured_lines_file=measured_file,
            tol=tol if tol is not None else 1e-8,
            scan_points=_want_int(raw, "scan_points", 512),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".16e")


def write_csv(path: str, columns, rows) -> None:
    """Write rows as RFC-4180 CSV: header, 17-significant-digit floats, LF,
    rows sorted by their leading columns."""
    ordered = sorted(rows, key=lambda row: tuple(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in ordered:
            if len(row) != len(columns):
                raise ValueError("row length does not match the header")
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_lines_csv(path: str) -> list[float]:
    """Read back the freq_hz column of a lines.csv written by this tool."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read measured lines file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"measured lines file {path} is empty")
    header = rows[0].split(",")
    if "freq_hz" not in header:
        raise ConfigError(f"measured lines file {path} has no freq_hz column")
    idx = header.index("freq_hz")
    out = []
    for row in rows[1:]:
        parts = row.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"malformed row in measured lines file {path}")
        value = float(parts[idx])
        if not math.isfinite(value):
            raise ConfigError(f"measured lines file {path} holds a non-finite frequency")
        out.append(value)
    if not out:
        raise ConfigError(f"measured lines file {path} contains no data rows")
    return out


def _emit(records, columns, out_dir: str, stem: str, fmt: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "csv":
        path = os.path.join(out_dir, f"{stem}.csv")
        write_csv(path, columns, records)
    else:
        path = os.path.join(out_dir, f"{stem}.json")
        ordered = sorted(records, key=lambda row: tuple(row))
        write_json(path, [dict(zip(columns, row)) for row in ordered])
    return path


def _cmd_spectrum(scenario: Scenario, args) -> int:
    scale = HBAR * scenario.system.omega
    levels = scenario.all_levels()
    _require_all_bound(scenario.system, scenario.field, [m for m, _ in levels])
    rows = []
    for m, n in levels:
        e = energy_level(scenario.system, scenario.field, m, n)
        rows.append((m, n, e, e / scale))
    path = _emit(rows, ["M", "n", "energy_J", "energy_hbar_omega"], args.out, "levels", args.format)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_lines(scenario: Scenario, args) -> int:
    lines = transition_lines(
        scenario.system,
        scenario.field,
        scenario.fixed_n,
        scenario.rule,
        m=scenario.fixed_m,
        n_max=scenario.n_max,
        cutoff_hz=scenario.cutoff_hz,
    )
    rows = [
        (l.m_from, l.n_from, l.m_to, l.n_to, l.delta_e, l.frequency_hz)
        for l in lines
    ]
    path = _emit(
        rows,
        ["M_from", "n_from", "M_to", "n_to", "delta_e_J", "freq_hz"],
        args.out,
        "lines",
        args.format,
    )
    print(f"wrote {path} ({len(rows)} lines)")
    return EXIT_OK


def _cmd_crossings(scenario: Scenario, args) -> int:
    if scenario.gbar_min is None or scenario.gbar_max is None:
        raise ConfigError("crossings requires gbar_min and gbar_max")
    result = crossing_scan(
        scenario.system,
        scenario.field,
        (scenario.gbar_min, scenario.gbar_max),
        scenario.all_levels(),
        steps=scenario.scan_steps,
    )
    rows = [
        (c.gbar, c.level_a[0], c.level_a[1], c.level_b[0], c.level_b[1], c.energy)
        for c in result.crossings
    ]
    path = _emit(
        rows,
        ["gbar", "M_a", "n_a", "M_b", "n_b", "energy_J"],
        args.out,
        "crossings",
        args.format,
    )
    note = ""
    if result.degenerate_pairs:
        note = f"; {len(result.degenerate_pairs)} pairs degenerate, no isolated crossings"
    print(f"wrote {path} ({len(rows)} crossings{note})")
    return EXIT_OK


def _cmd_invert(scenario: Scenario, args) -> int:
    if scenario.bracket is None:
        raise ConfigError("invert requires bracket_lo and bracket_hi")
    if scenario.measured_lines is not None:
        measured = list(scenario.measured_lines)
    elif scenario.measured_lines_file is not None:
        measured = read_lines_csv(scenario.measured_lines_file)
    else:
        raise ConfigError("invert requires measured_lines or measured_lines_file")
    result = identify_frequency(
        measured,
        scenario.system,
        scenario.field,
        scenario.fixed_n,
        scenario.bracket,
        scan_points=scenario.scan_points,
    )
    if not result.identifiable:
        raise UnidentifiableError(result.reason)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "inversion.json")
    write_json(
        path,
        {
            "omega_estimate_rad_per_s": result.omega_estimate,
            "omega_estimate_hz": result.omega_estimate / (2.0 * math.pi),
            "residual_rms_hz": result.residual_rms_hz,
            "bracket_rad_per_s": list(result.bracket),
            "identifiable": result.identifiable,
            "n": scenario.fixed_n,
            "lines_used": len(measured),
        },
    )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate(scenario: Scenario, args) -> int:
    report = validate_levels(
        scenario.system, scenario.field, scenario.all_levels(), tol=scenario.tol
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "validation.json")
    write_json(path, report.to_dict())
    print(f"wrote {path} (max_rel_error={report.max_rel_error:.3e})")
    if not report.passed():
        print(
            f"ERROR {EXIT_VALIDATION_FAILED}: validation failed "
            f"(max_rel_error={report.max_rel_error:.3e} tol={scenario.tol:.3e})",
            file=sys.stderr,
        )
        return EXIT_VALIDATION_FAILED
    return EXIT_OK


def figure1_scenario() -> Scenario:
    """Electron-resonance reproduction defaults: S=3/2 trap with a weak
    negative linear gradient, scanned over the quadratic field parameter."""
    system = SpinSystem(
        mass=ELECTRON_MASS,
        gamma=GAMMA_ELECTRON,
        spin=1.5,
        omega=1e5,
        offset=1e-4,
    )
    field = FieldProfile(b0=0.0, g=-0.003, gbar=0.0)
    crit = gbar_critical(system)
    return Scenario(
        system=system,
        field=field,
        n_max=2,
        gbar_min=0.999 * crit / 256,
        gbar_max=0.999 * crit,
        scan_steps=256,
    )


def _cmd_figure1(scenario: Scenario | None, args) -> int:
    base = figure1_scenario()
    if scenario is not None:
        merged_min = scenario.gbar_min
        merged_max = scenario.gbar_max
        crit = gbar_critical(scenario.system)
        if merged_max is None:
            merged_max = 0.999 * crit
        if merged_min is None:
            merged_min = merged_max / scenario.scan_steps
        base = replace(
            scenario, gbar_min=merged_min, gbar_max=merged_max
        )
    levels = base.all_levels()
    steps = base.scan_steps
    g_lo, g_hi = base.gbar_min, base.gbar_max
    gs = [g_lo + (g_hi - g_lo) * i / steps for i in range(steps + 1)]

    ordered = sorted(levels)
    columns = ["gbar"] + [f"E_J_m{m:+g}_n{n}" for m, n in ordered]
    table = energy_level(
        base.system,
        replace(base.field, gbar=np.array(gs)[:, None]),
        np.array([m for m, _ in ordered]),
        np.array([n for _, n in ordered], dtype=int),
    )
    rows = [tuple([g] + energies) for g, energies in zip(gs, table.tolist())]
    result = crossing_scan(base.system, base.field, (g_lo, g_hi), levels, steps=steps)
    os.makedirs(args.out, exist_ok=True)
    levels_path = os.path.join(args.out, "figure1_levels.csv")
    write_csv(levels_path, columns, rows)

    crossing_rows = [
        (c.gbar, c.level_a[0], c.level_a[1], c.level_b[0], c.level_b[1], c.energy)
        for c in result.crossings
    ]
    crossings_path = os.path.join(args.out, "figure1_crossings.csv")
    write_csv(
        crossings_path,
        ["gbar", "M_a", "n_a", "M_b", "n_b", "energy_J"],
        crossing_rows,
    )
    print(f"wrote {levels_path} and {crossings_path} ({len(crossing_rows)} crossings)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolic-mr",
        description="Spin-oscillator spectra in a parabolic magnetic field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("spectrum", True),
        ("lines", True),
        ("crossings", True),
        ("invert", True),
        ("validate", True),
        ("figure1", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--omega-unit", choices=list(OMEGA_UNITS), default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


_PARSER = _build_parser()

_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "lines": _cmd_lines,
    "crossings": _cmd_crossings,
    "invert": _cmd_invert,
    "validate": _cmd_validate,
}


def run(argv) -> int:
    """Parse argv, run one subcommand, and return the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "figure1":
            scenario = (
                load_config(args.config, args.omega_unit) if args.config else None
            )
            return _cmd_figure1(scenario, args)
        scenario = load_config(args.config, args.omega_unit)
        return _HANDLERS[args.command](scenario, args)
    except ConfigError as exc:
        print(f"ERROR {EXIT_CONFIG}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"ERROR {EXIT_PHYSICS}: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except ConvergenceError as exc:
        print(f"ERROR {EXIT_NUMERIC}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"ERROR {EXIT_CONFIG}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
