import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import STEEP_CROSSINGS, crossing_scan_args
from parabolic_mr import cli, crossing_scan, energy_level, gbar_critical, oracle
from parabolic_mr.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PHYSICS,
    EXIT_VALIDATION_FAILED,
    MAX_LEVEL_N,
    MAX_SCAN_STEPS,
    MAX_SPIN,
    ConfigError,
    figure1_scenario,
    load_config,
    read_lines_csv,
    run,
    write_csv,
)
from parabolic_mr.constants import ELECTRON_MASS, GAMMA_ELECTRON, HBAR, TWO_PI
from parabolic_mr.core import FieldProfile, SpinSystem
from parabolic_mr.oracle import MIN_TOL
from parabolic_mr.spectroscopy import MAX_LINES, MAX_SCAN_EVALUATIONS, transition_lines

BASE_CONFIG = {
    "mass": 1e-26,
    "gamma": 5e10,
    "spin": 1.0,
    "omega": 2e5,
    "offset": 1e-6,
    "b0": 0.001,
    "g": 0.002,
    "gbar": 10.0,
}

#: The README library-quickstart trap (S=3/2, four sectors).
QUICKSTART = {
    "mass": 2e-26,
    "gamma": 8e10,
    "spin": 1.5,
    "omega": 1.1e5,
    "offset": 2e-6,
    "b0": 0.0,
    "g": 0.002,
    "gbar": 40.0,
}


#: Base-config keys at which E(1, 0) nearly cancels (1.48e-41 J, about
#: 1e-12 hbar*omega) while the other two levels stay of order hbar*omega.
E_ZERO_CONFIG = {"b0": 1.99798970946e-6, "levels": [[1, 0], [0, 1], [-1, 2]], "tol": 1e-8}


def write_config(tmp_path, name="scenario.json", **overrides):
    payload = dict(BASE_CONFIG)
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_minimal_config_gets_task_defaults(self, tmp_path):
        scenario = load_config(write_config(tmp_path))
        assert scenario.system.mass == BASE_CONFIG["mass"]
        assert scenario.field.gbar == BASE_CONFIG["gbar"]
        assert scenario.n_max == 4
        assert scenario.rule == "deltaM1_fixed_n"
        assert scenario.levels is None

    def test_omega_unit_hz_converted(self, tmp_path):
        scenario = load_config(write_config(tmp_path, omega=1e5, omega_unit="Hz"))
        assert scenario.system.omega == pytest.approx(TWO_PI * 1e5, rel=1e-15)

    def test_cli_flag_overrides_config_unit(self, tmp_path):
        path = write_config(tmp_path, omega=1e5, omega_unit="Hz")
        scenario = load_config(path, omega_unit_override="rad/s")
        assert scenario.system.omega == 1e5

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, gradient_typo=3.0)
        with pytest.raises(ConfigError, match="unknown config keys: gradient_typo"):
            load_config(path)

    def test_missing_required_key_rejected(self, tmp_path):
        payload = dict(BASE_CONFIG)
        del payload["gamma"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match="missing required key: gamma"):
            load_config(str(path))

    def test_type_errors_rejected(self, tmp_path):
        path = write_config(tmp_path, mass="heavy")
        with pytest.raises(ConfigError, match="must be a number"):
            load_config(path)
        path = write_config(tmp_path, name="b.json", n_max=2.5)
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config(path)

    def test_invariants_revalidated(self, tmp_path):
        path = write_config(tmp_path, offset=2e-4, sample_half_length=1e-4)
        with pytest.raises(ConfigError, match="sample_half_length"):
            load_config(path)

    def test_bracket_keys_must_pair(self, tmp_path):
        path = write_config(tmp_path, bracket_lo=1e4)
        with pytest.raises(ConfigError, match="together"):
            load_config(path)

    def test_levels_parsed(self, tmp_path):
        path = write_config(tmp_path, levels=[[1.0, 0], [-1.0, 2]])
        scenario = load_config(path)
        assert scenario.levels == ((1.0, 0), (-1.0, 2))

    def test_dissociated_config_loads_but_spectrum_refuses(self, tmp_path, capsys):
        path = write_config(tmp_path, gbar=1e9)
        load_config(path)  # loading succeeds
        code = run(["spectrum", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_PHYSICS
        err = capsys.readouterr().err
        assert err.startswith("ERROR 3: dissociation")
        assert "m_quantum=1.0" in err  # the worst requested projection


def assert_config_error(tmp_path, capsys, command, config_path):
    """The command exits 2 with one ERROR line and writes no files; returns
    the error line."""
    out = tmp_path / "out"
    assert run([command, "--config", config_path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ERROR 2: ")
    assert not out.exists() or not any(out.iterdir())
    return err


class TestConfigBounds:
    @pytest.mark.parametrize("command", ["spectrum", "validate", "crossings", "figure1"])
    def test_duplicate_levels_rejected(self, tmp_path, capsys, command):
        path = write_config(
            tmp_path, levels=[[1.0, 0], [1.0, 0]], gbar_min=0.0, gbar_max=1.0
        )
        assert_config_error(tmp_path, capsys, command, path)

    @pytest.mark.parametrize(
        "command, key, literal",
        [
            ("spectrum", "spin", "Infinity"),
            ("spectrum", "spin", "1e400"),
            ("spectrum", "mass", "NaN"),
            ("lines", "gbar", "-Infinity"),
            ("spectrum", "b0", "1" + "0" * 400),
            ("invert", "measured_lines", "[1000.0, NaN]"),
            ("spectrum", "levels", "[[Infinity, 0]]"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, command, key, literal):
        # splice each literal into the JSON text as written: json.dumps cannot
        # write 1e400, and it would turn a huge integer into itself, not a float
        payload = dict(BASE_CONFIG, bracket_lo=1e5, bracket_hi=4e5)
        payload[key] = "@"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload).replace('"@"', literal), encoding="utf-8")
        assert_config_error(tmp_path, capsys, command, str(path))

    @pytest.mark.parametrize("command", ["spectrum", "lines", "crossings", "validate", "figure1"])
    @pytest.mark.parametrize(
        "key, value", [("levels", [[1.0, 0], [0.7, 0]]), ("levels", [[1.5, 0]]), ("fixed_m", 0.5)]
    )
    def test_m_not_a_projection_rejected(self, tmp_path, capsys, command, key, value):
        path = write_config(tmp_path, gbar_min=0.0, gbar_max=1.0, **{key: value})
        assert f"key {key!r}" in assert_config_error(tmp_path, capsys, command, path)

    @pytest.mark.parametrize(
        "key, value, bad", [("levels", [[1.0, 0], [0.7, 0], [1.5, 0]], 0.7), ("fixed_m", 0.5, 0.5)]
    )
    def test_bad_projection_named_in_one_error_line(self, tmp_path, capsys, key, value, bad):
        # the first bad M of the key, in the scalar check's words
        path = write_config(tmp_path, **{key: value})
        err = assert_config_error(tmp_path, capsys, "spectrum", path)
        assert err == (
            f"ERROR 2: key {key!r}: m_quantum={bad} is not a valid projection for spin=1.0\n"
        )

    def test_non_finite_measured_lines_file_rejected(self, tmp_path):
        path = tmp_path / "lines.csv"
        path.write_text("M_from,freq_hz\n0.5,1000.0\n-0.5,nan\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="non-finite"):
            read_lines_csv(str(path))

    def test_non_numeric_measured_lines_file_named(self, tmp_path, capsys):
        lines = tmp_path / "lines.csv"
        lines.write_text("M_from,freq_hz\n0.5,1000.0\n-0.5,abc\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"file {re.escape(str(lines))} holds a non-numeric"):
            read_lines_csv(str(lines))
        path = write_config(
            tmp_path, measured_lines_file=str(lines), bracket_lo=1e4, bracket_hi=1e6
        )
        assert f"file {lines} holds" in assert_config_error(tmp_path, capsys, "invert", path)

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("validate", "n_max", MAX_LEVEL_N + 1),
            ("lines", "fixed_n", MAX_LEVEL_N + 1),
            ("validate", "levels", [[1.0, MAX_LEVEL_N + 1]]),
            ("crossings", "scan_steps", MAX_SCAN_STEPS + 1),
            ("invert", "scan_points", MAX_SCAN_STEPS + 1),
            # one below each lower bound
            ("validate", "n_max", -1),
            ("figure1", "n_max", -1),
            ("lines", "fixed_n", -1),
            ("validate", "levels", [[1.0, -1]]),
            ("crossings", "scan_steps", 15),
            ("figure1", "scan_steps", 4),
            ("invert", "scan_points", 2),
            ("invert", "scan_points", 1),
            ("invert", "scan_points", 0),
            ("spectrum", "spin", MAX_SPIN + 0.5),
            ("validate", "spin", 1e12),
        ],
    )
    def test_size_keys_capped(self, tmp_path, capsys, command, key, value):
        path = write_config(
            tmp_path, gbar_min=0.0, gbar_max=100.0, bracket_lo=1e5, bracket_hi=4e5,
            measured_lines=[1000.0, 2000.0], **{key: value},
        )
        assert_config_error(tmp_path, capsys, command, path)

    def test_all_pairs_within_capped_at_max_lines(self, tmp_path, capsys):
        # spin 1 with n_max 241 pairs 726 levels into 263175 lines, above MAX_LINES
        path = write_config(tmp_path, rule="all_pairs_within", n_max=241)
        err = assert_config_error(tmp_path, capsys, "lines", path)
        assert f"263175 lines, more than {MAX_LINES}" in err

    def test_floors_themselves_accepted(self, tmp_path):
        path = write_config(
            tmp_path, n_max=0, fixed_n=0, levels=[[1.0, 0]], scan_steps=16, scan_points=3
        )
        scenario = load_config(path)
        assert scenario.n_max == scenario.fixed_n == scenario.levels[0][1] == 0
        assert (scenario.scan_steps, scenario.scan_points) == (16, 3)

    def test_caps_themselves_accepted(self, tmp_path):
        path = write_config(
            tmp_path, n_max=MAX_LEVEL_N, fixed_n=MAX_LEVEL_N, levels=[[1.0, MAX_LEVEL_N]],
            scan_steps=MAX_SCAN_STEPS, scan_points=MAX_SCAN_STEPS,
        )
        scenario = load_config(path)
        assert scenario.n_max == scenario.fixed_n == MAX_LEVEL_N == 1023
        assert scenario.scan_steps == scenario.scan_points == MAX_SCAN_STEPS
        # 2S + 1 = 1024 projections, as many as the oscillator numbers
        scenario = load_config(write_config(tmp_path, "spin.json", spin=MAX_SPIN))
        assert len(scenario.system.levels()) == MAX_LEVEL_N + 1


class TestWriteCsv:
    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(str(path), ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_rows_sorted_and_formatted(self, tmp_path):
        path = tmp_path / "two.csv"
        write_csv(str(path), ["M", "n", "e"], [(0.5, 1, 2.0), (-0.5, 0, 1.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "M,n,e"
        assert lines[1].startswith("-5.0000000000000000e-01,0,")
        assert len(lines) == 3

    def test_encoding_error_leaves_no_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="row length"):
            write_csv(str(path), ["a", "b"], [(1.0, 2.0), (3.0,)])
        assert not path.exists()

    def test_python_ints_plain_and_other_numbers_in_e_format(self, tmp_path):
        path = tmp_path / "kinds.csv"
        row = (3, np.int64(3), np.float64(0.1), -0.0, 2.5e-300)
        write_csv(str(path), ["a", "b", "c", "d", "e"], [row])
        assert path.read_text().splitlines()[1] == (
            "3,3.0000000000000000e+00,1.0000000000000001e-01,"
            "-0.0000000000000000e+00,2.5000000000000000e-300"
        )

    def test_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "prec.csv"
        value = 1.0545718171234567e-34
        write_csv(str(path), ["v"], [(value,)])
        text = path.read_text().splitlines()[1]
        assert float(text) == value


class TestSpectrumCommand:
    def test_m_zero_only_scenario_is_oscillator_ladder(self, tmp_path, capsys):
        path = write_config(tmp_path, spin=0.0, n_max=3)
        out = tmp_path / "out"
        assert run(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = (out / "levels.csv").read_text().splitlines()
        assert rows[0] == "M,n,energy_J,energy_hbar_omega"
        assert len(rows) == 5
        for n, row in enumerate(rows[1:]):
            cells = row.split(",")
            assert float(cells[3]) == pytest.approx(n + 0.5, rel=1e-12)

    def test_levels_sorted_by_projection_then_n(self, tmp_path):
        path = write_config(tmp_path, n_max=1)
        out = tmp_path / "out"
        run(["spectrum", "--config", path, "--out", str(out)])
        rows = (out / "levels.csv").read_text().splitlines()[1:]
        keys = [(float(r.split(",")[0]), int(r.split(",")[1])) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("levels", [None, [[1.0, 0], [0.0, 1], [-1.0, 2]]])
    def test_one_energy_call_per_run(self, tmp_path, monkeypatch, levels):
        # the level table, default or configured, comes from one array call
        calls = []

        def counted(*args):
            calls.append(args)
            return energy_level(*args)

        monkeypatch.setattr(cli, "energy_level", counted)
        path = write_config(tmp_path, n_max=3, **({} if levels is None else {"levels": levels}))
        out = tmp_path / "out"
        assert run(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = (out / "levels.csv").read_text().splitlines()[1:]
        assert len(calls) == 1 and len(rows) == (12 if levels is None else 3)

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, spin=0.0, n_max=1)
        out = tmp_path / "out"
        assert run(["spectrum", "--config", path, "--out", str(out), "--format", "json"]) == EXIT_OK
        payload = json.loads((out / "levels.json").read_text())
        assert payload[0]["M"] == 0.0
        assert payload[0]["energy_hbar_omega"] == pytest.approx(0.5, rel=1e-12)


class TestOverflowingScenarios:
    # BASE_CONFIG has no sample_half_length, so a huge offset parses
    @pytest.mark.parametrize("command", ["spectrum", "crossings", "invert", "validate", "figure1"])
    def test_huge_offset_writes_no_file(self, tmp_path, capsys, command):
        path = write_config(
            tmp_path, offset=1e200, gbar_min=0.0, gbar_max=100.0, measured_lines=[1e6, 2e6],
            bracket_lo=BASE_CONFIG["omega"] / 3.0, bracket_hi=BASE_CONFIG["omega"] * 3.0,
        )
        assert_config_error(tmp_path, capsys, command, path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_level_table_refused_in_every_format(self, tmp_path, capsys, fmt):
        path = write_config(tmp_path, g=1e200)
        out = tmp_path / "out"
        assert run(["spectrum", "--config", path, "--out", str(out), "--format", fmt]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "ERROR 2: levels would hold a value past double precision\n"
        assert not out.exists()

    @pytest.mark.parametrize("slope", [{"offset": 0.0, "g": 0.0}, {"offset": 1e-9, "g": 1e-3}])
    def test_zero_shift_divisor_refused(self, tmp_path, capsys, slope):
        # at mass 1e-320 and mbar within 1e-9 of 1, 2*mass*omega*(1 - mbar)
        # underflows to zero, so the M = 1 shift is nan or inf
        system = SpinSystem(mass=1e-320, gamma=5e10, spin=1.0, omega=1e3)
        gbar = gbar_critical(system) * (1.0 - 1e-9)
        path = write_config(tmp_path, mass=1e-320, omega=1e3, b0=0.0, gbar=gbar, n_max=0, **slope)
        out = tmp_path / "out"
        assert run(["spectrum", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "ERROR 2: levels would hold a value past double precision\n"
        assert not out.exists()

    def test_nan_closed_form_refused_by_validate(self, tmp_path, capsys):
        # the zero-slope case above: the M = 1 closed form is 0/0's nan, which
        # strict JSON cannot hold, so no report is written
        system = SpinSystem(mass=1e-320, gamma=5e10, spin=1.0, omega=1e3)
        gbar = gbar_critical(system) * (1.0 - 1e-9)
        path = write_config(
            tmp_path, mass=1e-320, omega=1e3, offset=0.0, b0=0.0, g=0.0, gbar=gbar, n_max=0
        )
        err = assert_config_error(tmp_path, capsys, "validate", path)
        assert err == "ERROR 2: validation.json would hold a value past double precision\n"

    @pytest.mark.parametrize("cutoff", [{}, {"cutoff_hz": 1e15}])
    def test_infinite_lines_refused_with_or_without_cutoff(self, tmp_path, capsys, cutoff):
        path = write_config(tmp_path, g=1e200, **cutoff)
        err = assert_config_error(tmp_path, capsys, "lines", path)
        assert err == "ERROR 2: lines would hold a value past double precision\n"

    def test_overflowing_misfit_exits_2(self, tmp_path, capsys):
        # the model lines sit near 1e209 Hz: their squares leave the doubles
        path = write_config(
            tmp_path, b0=1e200, fixed_n=1, measured_lines=[1e6, 2e6],
            bracket_lo=BASE_CONFIG["omega"] / 3.0, bracket_hi=BASE_CONFIG["omega"] * 3.0,
        )
        assert "line misfit past double precision" in assert_config_error(
            tmp_path, capsys, "invert", path
        )


    def test_bracket_end_past_the_doubles_is_named(self, tmp_path, capsys):
        # on the README quickstart trap the refusal names the bracket, not the
        # coarse scan's system
        path = write_config(
            tmp_path, **QUICKSTART, fixed_n=1, measured_lines=[1e6, 2e6, 3e6],
            bracket_lo=1e-300, bracket_hi=1e300,
        )
        err = assert_config_error(tmp_path, capsys, "invert", path)
        assert err == (
            "ERROR 2: bracket ends must keep mass*omega**2 a positive finite double\n"
        )


class TestLinesAndInvertCommands:
    def test_lines_csv_round_trips_into_invert(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            b0=0.0,
            fixed_n=1,
            bracket_lo=BASE_CONFIG["omega"] / 3.0,
            bracket_hi=BASE_CONFIG["omega"] * 3.0,
        )
        out = tmp_path / "out"
        assert run(["lines", "--config", config, "--out", str(out)]) == EXIT_OK
        lines_path = out / "lines.csv"
        measured = read_lines_csv(str(lines_path))
        assert len(measured) == 2  # 2S lines

        invert_config = write_config(
            tmp_path,
            name="invert.json",
            b0=0.0,
            omega=1.0,  # template value; inversion scans the bracket
            fixed_n=1,
            bracket_lo=BASE_CONFIG["omega"] / 3.0,
            bracket_hi=BASE_CONFIG["omega"] * 3.0,
            measured_lines_file=str(lines_path),
        )
        assert run(["invert", "--config", invert_config, "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "inversion.json").read_text())
        assert result["identifiable"] is True
        assert result["omega_estimate_rad_per_s"] == pytest.approx(
            BASE_CONFIG["omega"], rel=1e-6
        )

    def test_invert_homogeneous_field_exits_physics(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            g=0.0,
            gbar=0.0,
            measured_lines=[1000.0],
            bracket_lo=1e4,
            bracket_hi=1e6,
        )
        out = tmp_path / "out"
        assert run(["invert", "--config", config, "--out", str(out)]) == EXIT_PHYSICS
        assert "unidentifiable: homogeneous field" in capsys.readouterr().err
        assert not (out / "inversion.json").exists()

    def test_invert_edge_beating_every_basin_exits_physics(self, tmp_path, capsys):
        # three of the four S = 2 lines, and a bracket that stops short of the
        # true omega (1.1e5); a wider one identifies it
        system = SpinSystem(2e-26, 8e10, 2.0, 1.1e5, 2e-6)
        field = FieldProfile(-0.003, 0.003, 9.3)
        lines = [l.frequency_hz for l in transition_lines(system, field, 0)][:3]
        params = dict(
            mass=2e-26, gamma=8e10, spin=2.0, omega=1.1e5, offset=2e-6, b0=-0.003, g=0.003,
            gbar=9.3, measured_lines=lines, bracket_lo=2.3e4, scan_points=16,
        )
        out = tmp_path / "out"
        config = write_config(tmp_path, **params, bracket_hi=9.9e4)
        assert run(["invert", "--config", config, "--out", str(out)]) == EXIT_PHYSICS
        assert capsys.readouterr().err == "ERROR 3: bracket does not contain optimum\n"
        assert not (out / "inversion.json").exists()
        config = write_config(tmp_path, name="wider.json", **params, bracket_hi=1.3e5)
        assert run(["invert", "--config", config, "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "inversion.json").read_text())
        assert result["omega_estimate_rad_per_s"] == pytest.approx(1.1e5, rel=1e-6)

    def test_invert_requires_bracket_and_lines(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(["invert", "--config", config, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_invert_at_the_schema_limits_fits_in_one_gib(self, tmp_path):
        # the largest spin and scan_points: 65536 x 1023 line energies, 512 MiB
        # per array in one call; a child process limited to 1 GiB of address space
        spin = MAX_SPIN
        system = SpinSystem(*(BASE_CONFIG[k] for k in ("mass", "gamma")), spin,
                            *(BASE_CONFIG[k] for k in ("omega", "offset")))
        field = FieldProfile(BASE_CONFIG["b0"], BASE_CONFIG["g"], 0.01)
        measured = [line.frequency_hz for line in transition_lines(system, field, 1)]
        assert len(measured) == 1023
        config = write_config(
            tmp_path, spin=spin, gbar=0.01, fixed_n=1, measured_lines=measured,
            bracket_lo=BASE_CONFIG["omega"] / 3.0, bracket_hi=BASE_CONFIG["omega"] * 3.0,
            scan_points=MAX_SCAN_STEPS,
        )
        assert_in_one_gib("invert", config, tmp_path / "out", (EXIT_OK, EXIT_PHYSICS))

    def test_invert_nearest_matching_2_18_lines_fits_in_one_gib(self, tmp_path):
        # an all_pairs_within lines.csv of 258840 lines at S = 5/2, each matched
        # to the nearest of 5 model lines: 128 x 5 x 258840 values, 1.3 GB per
        # array in one call
        config = write_config(tmp_path, spin=2.5, rule="all_pairs_within", n_max=119)
        out = tmp_path / "out"
        assert run(["lines", "--config", config, "--out", str(out)]) == EXIT_OK
        lines_file = str(out / "lines.csv")
        assert len(read_lines_csv(lines_file)) == 258840
        config = write_config(
            tmp_path, spin=2.5, fixed_n=1, measured_lines_file=lines_file, scan_points=128,
            bracket_lo=BASE_CONFIG["omega"] / 3.0, bracket_hi=BASE_CONFIG["omega"] * 3.0,
        )
        assert_in_one_gib("invert", config, out, (EXIT_OK, EXIT_PHYSICS))

    def test_invert_one_omega_wider_than_memory_fits_in_one_gib(self, tmp_path):
        # the 258840-line lines.csv against the 1023 model lines of S = 1023/2:
        # each measured line is matched to its two neighbours in the sorted
        # row, where 1023 x 258840 values at one omega took 1.97 GiB
        config = write_config(tmp_path, spin=2.5, rule="all_pairs_within", n_max=119)
        out = tmp_path / "out"
        assert run(["lines", "--config", config, "--out", str(out)]) == EXIT_OK
        config = write_config(
            tmp_path, spin=MAX_SPIN, gbar=0.01, fixed_n=1,
            measured_lines_file=str(out / "lines.csv"), scan_points=3,
            bracket_lo=BASE_CONFIG["omega"] / 3.0, bracket_hi=BASE_CONFIG["omega"] * 3.0,
        )
        assert_in_one_gib("invert", config, out, (EXIT_OK, EXIT_PHYSICS))


def assert_in_one_gib(command, config, out, exits):
    """``command`` in a child process limited to 1 GiB of address space ends
    in one of the exit codes ``exits`` with at most one error line and no
    traceback."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from parabolic_mr.cli import run\n"
        "sys.exit(run(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, command, "--config", config, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode in exits, proc.stderr[-2000:]
    assert proc.stderr.count("ERROR") <= 1 and "Traceback" not in proc.stderr


@st.composite
def steep_crossing_configs(draw):
    """``crossings`` configs at the electron's mass and gamma with b0 != 0,
    scanned to 0.99-0.999 of the dissociation bound: near it delta E can move
    by more per ulp of gbar than the energy test allows."""
    spin = draw(st.sampled_from((0.5, 1.0, 1.5, 2.0)))
    omega = 10.0 ** draw(st.floats(4.0, 6.0))
    top = draw(st.floats(0.99, 0.999)) * gbar_critical(
        SpinSystem(ELECTRON_MASS, GAMMA_ELECTRON, spin, omega)
    )
    return {
        "mass": ELECTRON_MASS, "gamma": GAMMA_ELECTRON, "spin": spin, "omega": omega,
        "offset": draw(st.floats(-1e-4, 1e-4)),
        "b0": draw(st.floats(1e-6, 1e-3)) * draw(st.sampled_from((-1.0, 1.0))),
        "g": draw(st.floats(-0.05, 0.05)), "gbar": 0.0,
        "n_max": draw(st.integers(0, 2)), "scan_steps": draw(st.integers(16, 128)),
        "gbar_min": -top, "gbar_max": top,
    }


class TestCrossingsCommand:
    def test_requires_range(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(["crossings", "--config", config, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "gbar_min" in capsys.readouterr().err

    def test_writes_crossings_csv(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            mass=9.1093837015e-31,
            gamma=-1.76085963e11,
            spin=1.5,
            omega=1e5,
            offset=1e-4,
            b0=0.0,
            g=-0.003,
            gbar=0.0,
            n_max=2,
            gbar_min=0.5,
            gbar_max=163.0,
            scan_steps=128,
        )
        out = tmp_path / "out"
        assert run(["crossings", "--config", config, "--out", str(out)]) == EXIT_OK
        rows = (out / "crossings.csv").read_text().splitlines()
        assert rows[0] == "gbar,M_a,n_a,M_b,n_b,energy_J"
        assert len(rows) > 1

    @pytest.mark.parametrize("command", ["crossings", "figure1"])
    def test_unconverged_crossing_exits_4_and_writes_nothing(self, tmp_path, capsys, command):
        config = write_config(tmp_path, **STEEP_CROSSINGS)
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ERROR 4: 1 of 18 crossings did not")
        assert "levels (-1.0, 1) and (0.0, 0) near gbar=76.989227880235" in err
        assert not out.exists()

    def test_one_sided_bound_scans(self, tmp_path, capsys):
        # with gamma > 0, M = 0.5 and 1.5 unbind at positive gbar only
        crit = gbar_critical(SpinSystem(mass=1e-26, gamma=5e10, spin=1.5, omega=2e5))
        config = write_config(
            tmp_path, spin=1.5, offset=0.0, b0=0.0, g=0.0, gbar=0.0,
            levels=[[0.5, 0], [1.5, 1]], gbar_min=-crit, gbar_max=crit,
        )
        out = tmp_path / "out"
        assert run(["crossings", "--config", config, "--out", str(out)]) == EXIT_OK
        assert len((out / "crossings.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("command", ["crossings", "figure1"])
    def test_oversized_scan_refused(self, tmp_path, capsys, command):
        # 21 projections x 41 oscillator numbers: 370230 pairs on 65 grid points
        path = write_config(tmp_path, spin=10.0, n_max=40, gbar_min=0.0, gbar_max=1.0)
        err = assert_config_error(tmp_path, capsys, command, path)
        assert f"24064950 pair-grid points, more than {MAX_SCAN_EVALUATIONS}" in err

    def test_scan_of_724206_pairs_fits_in_one_gib(self, tmp_path):
        # the figure-1 trap at n_max 300, 4 x 301 levels over 0.999 of the
        # bound on either side: 357143 crossings to bisect, 20 points each per round
        scenario = figure1_scenario()
        system, field = scenario.system, scenario.field
        top = 0.999 * gbar_critical(system)
        config = write_config(
            tmp_path, mass=system.mass, gamma=system.gamma, spin=system.spin,
            omega=system.omega, offset=system.offset, b0=field.b0, g=field.g, gbar=0.0,
            n_max=300, scan_steps=16, gbar_min=-top, gbar_max=top,
        )
        out = tmp_path / "out"
        assert_in_one_gib("crossings", config, out, (EXIT_OK,))
        with open(out / "crossings.csv", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 357143 + 1

    @given(config=steep_crossing_configs())
    @example(config=STEEP_CROSSINGS)
    def test_no_unconverged_crossing_is_written(self, config):
        # every crossing meets the energy test or says it did not converge,
        # and the CLI writes the scan only when every crossing converged
        system, field, gbar_range, levels, steps = crossing_scan_args(config)
        result = crossing_scan(system, field, gbar_range, levels, steps)
        for c in result.crossings:
            at = replace(field, gbar=c.gbar)
            e_a, e_b = energy_level(system, at, *c.level_a), energy_level(system, at, *c.level_b)
            assert not c.converged or abs(e_a - e_b) <= 1e-10 * max(abs(e_a), abs(e_b))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            out = os.path.join(directory, "out")
            code, err = run_quietly(["crossings", "--config", path, "--out", out])
            if all(c.converged for c in result.crossings):
                assert (code, err) == (EXIT_OK, "")
                with open(os.path.join(out, "crossings.csv"), encoding="utf-8") as fh:
                    assert len(fh.readlines()) == len(result.crossings) + 1
            else:
                assert code == EXIT_NUMERIC and err.startswith("ERROR 4: ")
                assert not os.path.exists(out)


class TestValidateCommand:
    def test_validation_report_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, n_max=1)
        out = tmp_path / "out"
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "validation.json").read_text())
        assert payload["passed"] is True
        assert payload["max_rel_error"] < 1e-8
        assert payload["converged"] is True
        assert len(payload["records"]) == 6  # three projections x two levels

    def test_quickstart_validates_at_tol_floor(self, tmp_path, capsys):
        config = write_config(tmp_path, **QUICKSTART, tol=MIN_TOL)
        out = tmp_path / "out"
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "validation.json").read_text())
        assert payload["passed"] is True
        assert len(payload["sectors"]) == 4  # every quickstart sector

    def test_energies_past_the_doubles_in_joules_named(self, tmp_path, capsys):
        # the sector solves in hbar*omega units, and hbar*omega*E overflows
        config = write_config(
            tmp_path, mass=1e-300, gamma=1e200, spin=0.5, omega=1e134, offset=0.0,
            b0=1e230, g=0.0, gbar=0.0, levels=[[0.5, 0], [0.5, 1]],
        )
        out = tmp_path / "out"
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ERROR 2: ")
        assert "m_quantum=0.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["g", "offset"])
    def test_unresolvable_sector_grid_named(self, tmp_path, capsys, key):
        # the sector centre lies about 1e200 oscillator lengths out
        path = write_config(tmp_path, **{key: 1e200})
        err = assert_config_error(tmp_path, capsys, "validate", path)
        assert "m_quantum=-1.0 cannot be resolved in double precision" in err

    def test_unreachable_sector_exits_4_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # n = 682 needs grids of 1366 and 2049 points, past the 2048-point cap
        def refuse(*args, **kwargs):
            raise AssertionError("a sector matrix was built")

        monkeypatch.setattr(oracle, "build_sector_hamiltonian", refuse)
        config = write_config(tmp_path, spin=0.5, levels=[[0.5, 682]])
        out = tmp_path / "out"
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "ERROR 4: oracle did not converge for m_quantum=0.5 within 2048 points\n"
        )
        assert not out.exists()

    def test_level_near_zero_passes_on_its_oscillator_scale(self, tmp_path, capsys):
        # E(1, 0) is about 1e-12 hbar*omega: 2% apart relative to |E|, yet
        # within tol of its spacing
        config = write_config(tmp_path, **E_ZERO_CONFIG)
        out = tmp_path / "out"
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        payload = json.loads((out / "validation.json").read_text())
        assert payload["passed"] is True and payload["max_rel_error"] > 1e-2

    def test_mismatch_exits_1_with_its_report(self, tmp_path, capsys, monkeypatch):
        # closed forms moved by 3 tol hbar*omega miss both |E| and the oscillator scale
        shift = 3e-8 * HBAR * BASE_CONFIG["omega"]
        monkeypatch.setattr(oracle, "energy_level", lambda *args: energy_level(*args) + shift)
        config = write_config(tmp_path, **E_ZERO_CONFIG)
        out = tmp_path / "out"
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_VALIDATION_FAILED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ERROR 1: validation failed")
        assert json.loads((out / "validation.json").read_text())["passed"] is False

    def test_zero_energy_written_as_null(self, tmp_path, capsys):
        # E(1, 0) is exactly 0 here: its rel_error is inf in the library and
        # null in the file, which a strict parser reads
        config = write_config(
            tmp_path, offset=0.0, b0=2e-6, g=0.0, gbar=0.0, levels=[[1.0, 0], [1.0, 1]]
        )
        out = tmp_path / "out"
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_OK
        assert "max_rel_error=inf judged_error=" in capsys.readouterr().out

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        payload = json.loads((out / "validation.json").read_text(), parse_constant=refuse)
        assert payload["passed"] is True and payload["max_rel_error"] is None
        assert [r["rel_error"] is None for r in payload["records"]] == [True, False]

    def test_output_names_the_judged_error(self, tmp_path, capsys, monkeypatch):
        # the level near E = 0 is 2% off relative to |E| yet passes on its
        # oscillator scale, so the judged error is far below max_rel_error
        config = write_config(tmp_path, **E_ZERO_CONFIG)
        out = tmp_path / "out"
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_OK
        figures = r"\(max_rel_error=(\S+) judged_error=(\S+)[) ]"
        rel, judged = map(float, re.search(figures, capsys.readouterr().out).groups())
        assert rel > 1e-2 and judged < 1e-8
        shift = 3e-8 * HBAR * BASE_CONFIG["omega"]
        monkeypatch.setattr(oracle, "energy_level", lambda *args: energy_level(*args) + shift)
        assert run(["validate", "--config", config, "--out", str(out)]) == EXIT_VALIDATION_FAILED
        err = capsys.readouterr().err
        assert err.startswith("ERROR 1: validation failed (max_rel_error=")
        rel, judged = map(float, re.search(figures, err).groups())
        assert 1e-8 < judged < 1e-7

    def test_tol_below_floor_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, tol=0.5 * MIN_TOL)
        code = run(["validate", "--config", config, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ERROR 2: ") and "tol" in err


class TestFigure1Command:
    def test_default_reproduction(self, tmp_path, capsys):
        out = tmp_path / "fig"
        assert run(["figure1", "--out", str(out)]) == EXIT_OK
        levels = (out / "figure1_levels.csv").read_text().splitlines()
        assert levels[0].startswith("gbar,")
        assert len(levels[0].split(",")) == 13  # gbar + 4 projections x 3 levels
        crossings = (out / "figure1_crossings.csv").read_text().splitlines()
        assert len(crossings) > 1

    def test_failed_scan_writes_no_file(self, tmp_path, capsys):
        # the level table builds on a decreasing range; crossing_scan refuses it
        path = write_config(tmp_path, gbar_min=100.0, gbar_max=50.0)
        assert_config_error(tmp_path, capsys, "figure1", path)

    @pytest.mark.parametrize("gbar_min, gbar_max", [(0.0, 1e307), (-1e308, 1e308)])
    def test_level_grid_past_the_doubles_refused(self, tmp_path, capsys, gbar_min, gbar_max):
        # the grid's steps overflow to inf, or inf * 0 makes its first point
        # nan: the level table refuses it without a numpy warning
        path = write_config(tmp_path, gbar_min=gbar_min, gbar_max=gbar_max)
        assert "gbar must be finite" in assert_config_error(tmp_path, capsys, "figure1", path)

    @pytest.mark.parametrize(
        "key, value", [("spin", 0.0), ("gamma", 0.0), ("gamma", 5e-324)],
        ids=["spin", "gamma", "gamma_underflows"],
    )
    def test_unbounded_trap_needs_gbar_max(self, tmp_path, capsys, key, value):
        # spin 0, gamma 0, or a bound whose 2 |gamma| hbar S underflows to 0:
        # gbar_critical is infinite, so no default range
        path = write_config(tmp_path, **{key: value})
        assert "gbar_max is required" in assert_config_error(tmp_path, capsys, "figure1", path)
        path = write_config(tmp_path, name="ranged.json", gbar_max=100.0, **{key: value})
        assert run(["figure1", "--config", path, "--out", str(tmp_path / "ranged")]) == EXIT_OK

    def test_defaults_match_expected_scenario(self):
        scenario = figure1_scenario()
        assert scenario.system.spin == 1.5
        assert scenario.system.offset == 1e-4
        assert scenario.system.omega == 1e5
        assert scenario.field.g == -0.003
        assert scenario.field.b0 == 0.0


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("ERROR 2:")

    @pytest.mark.parametrize(
        "config, lines, named",
        [
            (b'{"mass": 1e-26,', None, "config"),
            (b"[1.0, 2.0]", None, "config"),
            (b'{"mass": 1e-26\xff}', None, "config"),
            ({"measured_lines_file": 5}, None, "key 'measured_lines_file'"),
            ({}, None, "measured_lines"),
            ({"measured_lines_file": "LINES"}, None, "lines"),
            ({"measured_lines_file": "LINES"}, b"M_from,n_from\n0.5,1\n", "lines"),
            ({"measured_lines_file": "LINES"}, b"M_from,freq_hz\n", "lines"),
            ({"measured_lines_file": "LINES"}, b"M_from,freq_hz\n0.5,1000.0\n-0.5\n", "lines"),
            ({"measured_lines_file": "LINES"}, b"M_from,freq_hz\n0.5,1\xff00.0\n", "lines"),
        ],
        ids=[
            "config-not-json", "config-array", "config-not-utf8", "lines-file-not-a-string",
            "no-lines", "lines-missing", "lines-no-freq_hz", "lines-header-only",
            "lines-short-row", "lines-not-utf8",
        ],
    )
    def test_unreadable_input_named(self, tmp_path, capsys, config, lines, named):
        # a bad config or measured-lines file, or a key, named in one ERROR 2 line
        paths = {"config": tmp_path / "scenario.json", "lines": tmp_path / "lines.csv"}
        if isinstance(config, dict):
            config = dict(BASE_CONFIG, bracket_lo=1e5, bracket_hi=4e5, **config)
            if config.get("measured_lines_file") == "LINES":
                config["measured_lines_file"] = str(paths["lines"])
            config = json.dumps(config).encode()
        paths["config"].write_bytes(config)
        if lines is not None:
            paths["lines"].write_bytes(lines)
        err = assert_config_error(tmp_path, capsys, "invert", str(paths["config"]))
        assert str(paths.get(named, named)) in err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_CONFIG

    def test_error_lines_are_single_line(self, tmp_path, capsys):
        path = write_config(tmp_path, gbar=1e9)
        run(["spectrum", "--config", path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ERROR 3: ")

    @pytest.mark.parametrize("command, out", [("spectrum", "afile"), ("validate", "afile/sub")])
    def test_unusable_out_directory(self, tmp_path, capsys, command, out):
        # a file where the output directory, or one of its parents, should be
        (tmp_path / "afile").write_text("", encoding="utf-8")
        path = write_config(tmp_path, n_max=1)
        assert run([command, "--config", path, "--out", str(tmp_path / out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ERROR 2: ")
        assert "Traceback" not in err

    def test_failed_write_leaves_none_of_the_run_files(self, tmp_path, capsys):
        # figure1 writes its level table first; the crossing table's path is a
        # directory, so that write fails and the level table is removed again
        out = tmp_path / "out"
        (out / "figure1_crossings.csv").mkdir(parents=True)
        assert run(["figure1", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("ERROR 2: ")
        assert sorted(p.name for p in out.iterdir()) == ["figure1_crossings.csv"]
        assert (out / "figure1_crossings.csv").is_dir()


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path, n_max=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["spectrum", "--config", config, "--out", str(out)]) == EXIT_OK
        assert (out_a / "levels.csv").read_bytes() == (out_b / "levels.csv").read_bytes()

    def test_module_entry_point(self, tmp_path):
        config = write_config(tmp_path, spin=0.0, n_max=1)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "parabolic_mr", "spectrum", "--config", config, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (out / "levels.csv").exists()


class TestParserReuse:
    def test_parser_not_rebuilt_per_call(self, tmp_path, monkeypatch, capsys):
        def rebuild():
            raise AssertionError("run() rebuilt the argument parser")

        monkeypatch.setattr(cli, "_build_parser", rebuild)
        config = write_config(tmp_path)
        assert run(["spectrum", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert run(["frobnicate"]) == EXIT_CONFIG

    def test_outputs_unchanged_after_errors_and_help(self, tmp_path, capsys):
        # one process runs every kind of parse; each command's files must
        # equal those of the same command in a fresh interpreter
        config = write_config(tmp_path)
        bad = write_config(tmp_path, name="bad.json", frequency=1.0)  # unknown key
        commands = {
            "first": ["spectrum", "--config", config, "--format", "json", "--omega-unit", "Hz"],
            "lines": ["lines", "--config", config],
            "again": ["spectrum", "--config", config],
        }
        sequence = [
            ("first", EXIT_OK),
            (["frobnicate"], EXIT_CONFIG),
            (["spectrum", "--config", bad, "--out", str(tmp_path / "bad")], EXIT_CONFIG),
            (["--help"], EXIT_OK),
            (["lines", "--help"], EXIT_OK),
            ("lines", EXIT_OK),
            ("again", EXIT_OK),
        ]
        for step, code in sequence:
            if isinstance(step, str):
                assert run(commands[step] + ["--out", str(tmp_path / step)]) == code
            else:
                assert run(step) == code
        for name, argv in commands.items():
            fresh = tmp_path / f"fresh_{name}"
            proc = subprocess.run(
                [sys.executable, "-m", "parabolic_mr", *argv, "--out", str(fresh)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            got = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            assert got == {p.name: p.read_bytes() for p in fresh.iterdir()}


#: Every config key, with base values on which every subcommand exits 0.
CONTRACT_BASE = dict(
    BASE_CONFIG,
    omega_unit="rad/s", sample_half_length=1e-3, levels=[[1.0, 0], [0.0, 1], [-1.0, 2]],
    n_max=2, fixed_n=1, fixed_m=0.0, rule="deltaM1_fixed_n", cutoff_hz=1e15,
    gbar_min=0.0, gbar_max=100.0, scan_steps=32, tol=1e-8, scan_points=64,
    bracket_lo=BASE_CONFIG["omega"] / 3.0, bracket_hi=BASE_CONFIG["omega"] * 3.0,
    measured_lines=[
        line.frequency_hz
        for line in transition_lines(
            SpinSystem(*(BASE_CONFIG[k] for k in ("mass", "gamma", "spin", "omega", "offset"))),
            FieldProfile(*(BASE_CONFIG[k] for k in ("b0", "g", "gbar"))),
            1,
        )
    ],
)

#: JSON texts of wrong values: wrong types, bools, non-finite and
#: overflowing numbers, a huge integer and a huge finite number.
WRONG_VALUES = (
    '"x"', "null", "[]", "{}", "[1.0]", "[[1.0]]", "true", "false",
    "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-1" + "0" * 400, "1e12",
)

#: Out-of-range values of the sized keys, and M values that are no projection.
OUT_OF_RANGE = {
    "spin": (repr(MAX_SPIN + 0.5), "1e12", "-0.5", "0.7"),
    "n_max": ("-1", str(MAX_LEVEL_N + 1), str(2**64)),
    "fixed_n": ("-1", str(MAX_LEVEL_N + 1)),
    "levels": ("[[1.0, -1]]", f"[[1.0, {MAX_LEVEL_N + 1}]]", "[[0.7, 0]]", "[[1.0, 0], [1.0, 0]]"),
    "scan_steps": ("15", str(MAX_SCAN_STEPS + 1)),
    "scan_points": ("2", str(MAX_SCAN_STEPS + 1)),
    "tol": (repr(0.5 * MIN_TOL), "0", "-1.0"),
    "fixed_m": ("0.5", "7.0"),
    "sample_half_length": ("1e-9", "-1.0"),
    # omega**2 overflows, and mass * omega**2 underflows to zero
    "omega": ("1e200", "1e-170"),
    # the oscillator length sqrt(hbar / (mass * omega)) underflows to zero,
    # and mass * (3 omega)**2 at invert's bracket_hi overflows
    "mass": ("1e290", "1e297"),
    # energies, lines or the inversion's misfit overflow
    "b0": ("1e200",),
    "g": ("1e200",),
    # figure1's level grid gbar_min + (gbar_max - gbar_min) * i / steps overflows
    "gbar_max": ("1e307",),
}

#: A JSON token of a non-finite number, as json or the CSV writer spell it.
NON_FINITE_TOKEN = re.compile(r"\b(inf|nan|Infinity|NaN)\b")

MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(sorted(CONTRACT_BASE) + ["measured_lines_file"])),
    st.tuples(st.just("add"), st.sampled_from(["frequency", "gbar_maximum", "Omega"]),
              st.sampled_from(WRONG_VALUES)),
    st.tuples(st.just("set"), st.sampled_from(sorted(CONTRACT_BASE)), st.sampled_from(WRONG_VALUES)),
    st.sampled_from([("set", key, text) for key, texts in OUT_OF_RANGE.items() for text in texts]),
    st.tuples(st.just("set"), st.sampled_from(["n_max", "fixed_n"]), st.integers(0, 8).map(str)),
)

COMMANDS = ("spectrum", "lines", "crossings", "invert", "validate", "figure1")


def run_quietly(argv):
    """cli.run in process, returning (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def write_mutated_config(directory, mutation=None):
    """Write CONTRACT_BASE, with one key dropped, or added or set to a JSON
    text, and a measured-lines file that the config names."""
    lines_file = os.path.join(directory, "lines.csv")
    with open(lines_file, "w", encoding="utf-8") as fh:
        fh.write("freq_hz\n" + "".join(f"{v!r}\n" for v in CONTRACT_BASE["measured_lines"]))
    payload = dict(CONTRACT_BASE, measured_lines_file=lines_file)
    kind, key, *text = mutation or ("keep", None)
    if kind == "drop":
        del payload[key]
    elif text:
        payload[key] = "@"  # spliced in as written: json.dumps cannot write 1e400
    body = json.dumps(payload).replace(f'"{key}": "@"', f'"{key}": {"".join(text)}')
    path = os.path.join(directory, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
    return path


class TestCliContract:
    def test_base_config_passes_every_subcommand(self, tmp_path):
        # the base sets every key (the measured-lines file is added on write)
        assert sorted(CONTRACT_BASE) == sorted(set(cli._SCHEMA) - {"measured_lines_file"})
        config = write_mutated_config(str(tmp_path))
        for command in COMMANDS:
            code, err = run_quietly([command, "--config", config, "--out", str(tmp_path / command)])
            assert (code, err) == (EXIT_OK, "")

    # the space of changes is finite (about 476), and 500 examples let the
    # search run through all of it in a few seconds
    @settings(max_examples=500)
    @given(mutation=MUTATIONS)
    def test_one_bad_change_ends_in_a_documented_exit(self, mutation):
        with tempfile.TemporaryDirectory() as directory:
            config = write_mutated_config(directory, mutation)
            for command in COMMANDS:
                out = os.path.join(directory, f"out_{command}")
                code, err = run_quietly([command, "--config", config, "--out", out])
                assert code in (0, 2, 3, 4) or (command == "validate" and code == 1)
                if code == 0:
                    assert err == ""
                    for name in os.listdir(out):
                        with open(os.path.join(out, name), encoding="utf-8") as fh:
                            assert not NON_FINITE_TOKEN.search(fh.read()), (command, name)
                    continue
                assert err.count("\n") == 1 and err.startswith(f"ERROR {code}: ")
                if code != 1:  # a validation mismatch still writes its report
                    assert not os.path.isdir(out) or not os.listdir(out)
