"""Command-line interface: scenario configs in, deterministic CSV/JSON out.

Scenarios are flat JSON documents parsed strictly (unknown keys are
rejected, which catches unit typos early).  All floating-point output uses
17 significant digits so files can be diffed at full double precision, and
a given config always produces byte-identical files.

Each subcommand builds its files, refusing a table that holds an inf or nan,
then one writer creates ``--out``, writes them all (a failed write removes
those already written) and prints one ``wrote`` line.

Exit codes: 0 success; 2 config or validation error, or an --out that
cannot be written; 3 physics-domain error (dissociation, unidentifiable);
4 numerical non-convergence; 1 validation mismatch (oracle converged but
disagreed beyond tolerance; ``validation.json`` is still written).  Errors
print a single machine-greppable line ``ERROR <code>: <detail>`` to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .constants import ELECTRON_MASS, GAMMA_ELECTRON, HBAR, TWO_PI
from .core import (
    FieldProfile,
    SpinSystem,
    _projection,
    energy_level,
    gbar_critical,
)
from .errors import ConvergenceError, PhysicsError, UnidentifiableError
from .oracle import MAX_DVR_POINTS, MIN_TOL, validate_levels
from .spectroscopy import SELECTION_RULES, _scan_grid, crossing_scan, identify_frequency
from .spectroscopy import transition_lines

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERIC = 4


class ValidationFailed(Exception):
    """The oracle converged but disagreed with the closed forms beyond tol."""


#: Exit code of each error family; an error takes that of its nearest base
#: class here (a ConfigError is a ValueError).  An OSError is the output
#: directory's: the config and measured-lines reads raise ConfigError.
_ERROR_EXITS = {
    ValidationFailed: EXIT_VALIDATION_FAILED,
    PhysicsError: EXIT_PHYSICS,
    ConvergenceError: EXIT_NUMERIC,
    ValueError: EXIT_CONFIG,
    OSError: EXIT_CONFIG,
}

#: Largest oscillator number n a config may name (``n_max``, ``fixed_n``,
#: ``levels``): the oracle's first solve of a sector's n + 1 lowest levels
#: takes 2(n + 1) grid points, which must fit within ``MAX_DVR_POINTS``.
#: Converging needs a second solve of 3(n + 1) points, so ``validate``
#: converges only up to n = 681 and ends in exit code 4 above it.
MAX_LEVEL_N = MAX_DVR_POINTS // 2 - 1

#: Largest ``scan_steps`` and ``scan_points``; scans cost time linear in them.
MAX_SCAN_STEPS = 2**16

#: Largest ``spin``: every subcommand works on all 2S + 1 projections, which
#: are capped like the oscillator numbers, at MAX_LEVEL_N + 1.
MAX_SPIN = MAX_LEVEL_N / 2

#: Factor to rad/s of each unit ``omega`` and the bracket ends may be given
#: in; the library takes rad/s only.
_OMEGA_UNITS = {"rad/s": 1.0, "Hz": TWO_PI}


class ConfigError(ValueError):
    """Scenario file failed strict parsing or invariant validation."""


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario: system + field + task parameters.

    Each field default is the default of the config key of the same name.
    Every M in ``levels`` and ``fixed_m`` must be a projection of the spin;
    each key's M are checked in one array call, and the first bad one is named.
    """

    system: SpinSystem
    field: FieldProfile
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

    def __post_init__(self) -> None:
        fixed = () if self.fixed_m is None else (self.fixed_m,)
        for key, ms in (("levels", [m for m, _ in self.levels or ()]), ("fixed_m", fixed)):
            try:
                _projection(self.system, np.array(ms))
            except ValueError as exc:
                raise ValueError(f"key {key!r}: {exc}") from None

    def all_levels(self) -> list[tuple[float, int]]:
        """Configured (M, n) list, defaulting to every M x n <= n_max."""
        if self.levels is not None:
            return list(self.levels)
        return [(m, n) for m in self.system.levels() for n in range(self.n_max + 1)]


# Each parser takes a JSON value and a phrase naming it in errors
# ("key 'mass'"), and returns the parsed value.


def _number(value, what: str) -> float:
    """A JSON number as a finite float.

    json parses ``Infinity``, ``NaN`` and overflowing literals such as
    ``1e400`` to non-finite floats, and huge integer literals overflow float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number")
    return number


def _integer(lowest: int, highest: int):
    def parse(value, what: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{what} must be an integer")
        if not lowest <= value <= highest:
            raise ConfigError(f"{what} must be between {lowest} and {highest}")
        return value

    return parse


def _choice(options: tuple[str, ...]):
    def parse(value, what: str) -> str:
        if value not in options:
            raise ConfigError(f"{what} must be one of {options}")
        return value

    return parse


_level_n = _integer(0, MAX_LEVEL_N)


def _levels(value, what: str) -> tuple[tuple[float, int], ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list of [M, n] pairs")
    if not all(isinstance(item, list) and len(item) == 2 for item in value):
        raise ConfigError(f"each entry of {what} must be [M, n]")
    m_what, n_what = f"each M in {what}", f"each n in {what}"
    levels = tuple((_number(m, m_what), _level_n(n, n_what)) for m, n in value)
    if len(set(levels)) != len(levels):
        raise ConfigError(f"each [M, n] in {what} must be unique")
    return levels


def _lines(value, what: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list of Hz values")
    return tuple(_number(v, f"each entry of {what}") for v in value)


def _path(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string path")
    return value


def _spin(value, what: str) -> float:
    spin = _number(value, what)
    if spin > MAX_SPIN:
        raise ConfigError(f"{what} must be at most {MAX_SPIN:g}")
    return spin


def _tol(value, what: str) -> float:
    tol = _number(value, what)
    if not tol >= MIN_TOL:
        raise ConfigError(f"{what} must be at least {MIN_TOL:g}")
    return tol


_REQUIRED_KEYS = ("mass", "gamma", "spin", "omega", "offset", "b0", "g", "gbar")

#: The parser of every config key; the README's scenario-key table mirrors
#: it.  ``crossing_scan`` needs 16 steps, and the inversion's coarse scan
#: needs a point between its two ends.
_SCHEMA = {
    **dict.fromkeys(_REQUIRED_KEYS, _number),
    "spin": _spin,
    "omega_unit": _choice(tuple(_OMEGA_UNITS)),
    "sample_half_length": _number,
    "levels": _levels,
    "n_max": _level_n,
    "fixed_n": _level_n,
    "fixed_m": _number,
    "rule": _choice(SELECTION_RULES),
    "cutoff_hz": _number,
    "gbar_min": _number,
    "gbar_max": _number,
    "scan_steps": _integer(16, MAX_SCAN_STEPS),
    "bracket_lo": _number,
    "bracket_hi": _number,
    "measured_lines": _lines,
    "measured_lines_file": _path,
    "tol": _tol,
    "scan_points": _integer(3, MAX_SCAN_STEPS),
}

_SYSTEM_KEYS = ("mass", "gamma", "spin", "omega", "offset", "sample_half_length")


def load_config(path: str, omega_unit_override: str | None = None) -> Scenario:
    """Strict-parse a flat JSON scenario file into a :class:`Scenario`.

    ``omega`` and the bracket ends are converted to rad/s according to
    ``omega_unit`` (config key, default ``"rad/s"``, overridden by the
    --omega-unit flag when given).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object of key/value pairs")

    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key: {key}")
    parsed = {key: _SCHEMA[key](value, f"key {key!r}") for key, value in raw.items()}

    unit = parsed.pop("omega_unit", "rad/s")
    if omega_unit_override is not None:
        unit = omega_unit_override
    if ("bracket_lo" in parsed) != ("bracket_hi" in parsed):
        raise ConfigError("bracket_lo and bracket_hi must be given together")
    try:
        for key in ("omega", "bracket_lo", "bracket_hi"):
            if key in parsed:
                parsed[key] *= _OMEGA_UNITS[unit]
        if "bracket_lo" in parsed:
            parsed["bracket"] = (parsed.pop("bracket_lo"), parsed.pop("bracket_hi"))
        system = SpinSystem(**{key: parsed.pop(key) for key in _SYSTEM_KEYS if key in parsed})
        field = FieldProfile(parsed.pop("b0"), parsed.pop("g"), parsed.pop("gbar"))
        return Scenario(system, field, **parsed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_csv(path: str, columns, rows) -> None:
    """Write rows as RFC-4180 CSV: header, ints as such and other values as
    17-significant-digit floats, LF, rows sorted by their leading columns;
    encoded whole first, so an error writes no file."""
    lines = [",".join(columns)]
    for row in sorted(rows, key=lambda row: tuple(row)):
        if len(row) != len(columns):
            raise ValueError("row length does not match the header")
        lines.append(",".join("%s" if isinstance(v, int) else "%.16e" for v in row) % tuple(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    try:  # strict RFC 8259 JSON, which has no inf or nan
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        name = os.path.basename(path)
        raise ValueError(f"{name} would hold a value past double precision") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_lines_csv(path: str) -> list[float]:
    """Read back the freq_hz column of a lines.csv written by this tool."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read measured lines file {path}: {exc}") from exc
    if not rows or "freq_hz" not in rows[0]:
        raise ConfigError(f"measured lines file {path} has no freq_hz column")
    header, data = rows[0], rows[1:]
    if not data:
        raise ConfigError(f"measured lines file {path} contains no data rows")
    if any(len(row) != len(header) for row in data):
        raise ConfigError(f"malformed row in measured lines file {path}")
    try:
        out = [float(row[header.index("freq_hz")]) for row in data]
    except ValueError as exc:
        raise ConfigError(f"measured lines file {path} holds a non-numeric frequency") from exc
    if not all(map(math.isfinite, out)):
        raise ConfigError(f"measured lines file {path} holds a non-finite frequency")
    return out


def _table(records, columns, stem: str, fmt: str):
    """(file name, writer, arguments) of a table; refuses an inf or nan (an overflow)."""
    if not all(map(math.isfinite, itertools.chain.from_iterable(records))):
        raise ValueError(f"{stem} would hold a value past double precision")
    if fmt == "csv":
        return f"{stem}.csv", write_csv, (columns, records)
    rows = sorted(records, key=tuple)
    return f"{stem}.json", write_json, ([dict(zip(columns, row)) for row in rows],)


def _write(out_dir: str, outputs, note: str = "") -> None:
    """Write every (file name, writer, arguments) output into ``out_dir`` and
    print one ``wrote`` line; a failed write removes the files written so far."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    try:
        for name, writer, writer_args in outputs:
            path = os.path.join(out_dir, name)
            writer(path, *writer_args)
            paths.append(path)
    except BaseException:
        for path in paths:
            os.remove(path)
        raise
    print(f"wrote {' and '.join(paths)}{note}")


def _cmd_spectrum(scenario: Scenario, args) -> None:
    scale = HBAR * scenario.system.omega
    levels = scenario.all_levels()
    ms, ns = np.array([m for m, _ in levels]), np.array([n for _, n in levels], dtype=int)
    energies = energy_level(scenario.system, scenario.field, ms, ns).tolist()
    rows = [(m, n, e, e / scale) for (m, n), e in zip(levels, energies)]
    columns = ["M", "n", "energy_J", "energy_hbar_omega"]
    _write(args.out, [_table(rows, columns, "levels", args.format)])


def _cmd_lines(scenario: Scenario, args) -> None:
    lines = transition_lines(
        scenario.system, scenario.field, scenario.fixed_n, scenario.rule,
        m=scenario.fixed_m, n_max=scenario.n_max, cutoff_hz=scenario.cutoff_hz,
    )
    rows = [(l.m_from, l.n_from, l.m_to, l.n_to, l.delta_e, l.frequency_hz) for l in lines]
    columns = ["M_from", "n_from", "M_to", "n_to", "delta_e_J", "freq_hz"]
    _write(args.out, [_table(rows, columns, "lines", args.format)], f" ({len(rows)} lines)")


_CROSSING_COLUMNS = ["gbar", "M_a", "n_a", "M_b", "n_b", "energy_J"]


def _scan_crossings(scenario: Scenario):
    """Scan the scenario's levels over [gbar_min, gbar_max]; returns the
    crossing rows and the scan result.  An unconverged crossing raises
    :class:`ConvergenceError`, so no row of it is ever written."""
    result = crossing_scan(
        scenario.system,
        scenario.field,
        (scenario.gbar_min, scenario.gbar_max),
        scenario.all_levels(),
        steps=scenario.scan_steps,
    )
    unconverged = [c for c in result.crossings if not c.converged]
    if unconverged:
        c = unconverged[0]
        raise ConvergenceError(
            f"{len(unconverged)} of {len(result.crossings)} crossings did not converge, the "
            f"first between levels {c.level_a} and {c.level_b} near gbar={c.gbar!r}"
        )
    rows = [(c.gbar, *c.level_a, *c.level_b, c.energy) for c in result.crossings]
    return rows, result


def _cmd_crossings(scenario: Scenario, args) -> None:
    if scenario.gbar_min is None or scenario.gbar_max is None:
        raise ConfigError("crossings requires gbar_min and gbar_max")
    rows, result = _scan_crossings(scenario)
    table = _table(rows, _CROSSING_COLUMNS, "crossings", args.format)
    degenerate = len(result.degenerate_pairs)
    note = f"; {degenerate} pairs degenerate, no isolated crossings" if degenerate else ""
    _write(args.out, [table], f" ({len(result.crossings)} crossings{note})")


def _cmd_invert(scenario: Scenario, args) -> None:
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
    payload = {
        "omega_estimate_rad_per_s": result.omega_estimate,
        "omega_estimate_hz": result.omega_estimate / TWO_PI,
        "residual_rms_hz": result.residual_rms_hz,
        "bracket_rad_per_s": list(result.bracket),
        "identifiable": result.identifiable,
        "n": scenario.fixed_n,
        "lines_used": len(measured),
    }
    _write(args.out, [("inversion.json", write_json, (payload,))])


def _cmd_validate(scenario: Scenario, args) -> None:
    """Write the report, then raise :class:`ValidationFailed` on a mismatch.
    Both lines name the report's ``judged_error``."""
    report = validate_levels(
        scenario.system, scenario.field, scenario.all_levels(), tol=scenario.tol
    )
    worst = f"max_rel_error={report.max_rel_error:.3e} judged_error={report.judged_error():.3e}"
    _write(args.out, [("validation.json", write_json, (report.to_dict(),))], f" ({worst})")
    if not report.passed():
        raise ValidationFailed(f"validation failed ({worst} tol={scenario.tol:.3e})")


def _with_scan_range(scenario: Scenario) -> Scenario:
    """Default the unset ends of the gbar scan: gbar_max to 0.999 of the
    dissociation bound, and gbar_min to gbar_max / scan_steps."""
    gbar_max = scenario.gbar_max
    if gbar_max is None:
        crit = gbar_critical(scenario.system)
        if math.isinf(crit):
            raise ConfigError("gbar_max is required: no finite dissociation bound")
        gbar_max = 0.999 * crit
    gbar_min = scenario.gbar_min
    if gbar_min is None:
        gbar_min = gbar_max / scenario.scan_steps
    return replace(scenario, gbar_min=gbar_min, gbar_max=gbar_max)


def figure1_scenario() -> Scenario:
    """Electron-resonance reproduction defaults: S=3/2 trap with a weak
    negative linear gradient, scanned over the quadratic field parameter."""
    system = SpinSystem(mass=ELECTRON_MASS, gamma=GAMMA_ELECTRON, spin=1.5, omega=1e5, offset=1e-4)
    field = FieldProfile(b0=0.0, g=-0.003, gbar=0.0)
    return _with_scan_range(Scenario(system, field, n_max=2, scan_steps=256))


def _cmd_figure1(scenario: Scenario | None, args) -> None:
    scenario = figure1_scenario() if scenario is None else _with_scan_range(scenario)
    gs = _scan_grid(scenario.gbar_min, scenario.gbar_max, scenario.scan_steps)

    # the scan refuses an oversized or dissociated range and an unconverged
    # crossing, so it runs before the level table and before any file is written
    crossing_rows, result = _scan_crossings(scenario)
    ordered = sorted(scenario.all_levels())
    columns = ["gbar"] + [f"E_J_m{m:+g}_n{n}" for m, n in ordered]
    table = energy_level(
        scenario.system,
        replace(scenario.field, gbar=gs[:, None]),
        np.array([m for m, _ in ordered]),
        np.array([n for _, n in ordered], dtype=int),
    )
    rows = [tuple([g] + energies) for g, energies in zip(gs.tolist(), table.tolist())]
    # the crossing table is checked first: when both overflow, the error names it
    crossings = _table(crossing_rows, _CROSSING_COLUMNS, "figure1_crossings", "csv")
    levels = _table(rows, columns, "figure1_levels", "csv")
    _write(args.out, [levels, crossings], f" ({len(result.crossings)} crossings)")


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "lines": _cmd_lines,
    "crossings": _cmd_crossings,
    "invert": _cmd_invert,
    "validate": _cmd_validate,
    "figure1": _cmd_figure1,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolic-mr",
        description="Spin-oscillator spectra in a parabolic magnetic field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "figure1", help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--omega-unit", choices=list(_OMEGA_UNITS), default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


_PARSER = _build_parser()


def run(argv) -> int:
    """Parse argv, run one subcommand, and return the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        scenario = None
        if args.config is not None:
            scenario = load_config(args.config, args.omega_unit)
        _COMMANDS[args.command](scenario, args)
        return EXIT_OK
    except tuple(_ERROR_EXITS) as exc:
        code = next(_ERROR_EXITS[cls] for cls in type(exc).__mro__ if cls in _ERROR_EXITS)
        print(f"ERROR {code}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
