"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_scenario, random_centered_scenario, random_stable_scenario
from parabolic_mr import (
    HBAR,
    DissociationError,
    FieldProfile,
    SpinSystem,
    auto_grid,
    build_sector_hamiltonian,
    converged_spectrum,
    eigenfunction_center,
    energy_decomposition,
    energy_level,
    expectation_position,
    gbar_critical,
    identify_frequency,
    lowest_eigenpairs,
    scaled_spin_number,
    stability_check,
    transition_lines,
)
from parabolic_mr.cli import EXIT_OK, figure1_scenario, run


@contextmanager
def reported(index, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {index} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {index} [{name}]: PASS")


def test_criterion_1_closed_form_matches_oracle():
    with reported(1, "closed-form spectrum vs grid oracle, 200 scenarios, rel 1e-8"):
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for _ in range(200):
            system, field, mq = random_stable_scenario(rng)
            numeric, report = converged_spectrum(system, field, mq, 5, tol=1e-8)
            assert 0.0 <= report.margin <= 1.0
            for n in range(5):
                analytic = energy_level(system, field, mq, n)
                rel = abs(float(numeric[n]) - analytic) / abs(analytic)
                worst = max(worst, rel)
        assert worst < 1e-8, f"worst relative error {worst:.3e}"


def test_criterion_2_center_shift_power_adjudicated():
    with reported(2, "oracle <x> fixes the single-hbar center shift, rel 1e-6"):
        rng = np.random.default_rng(42)
        for _ in range(20):
            system, field, mq = random_centered_scenario(rng)
            grid = auto_grid(system, field, mq, 1, 65)
            mat = build_sector_hamiltonian(system, field, mq, grid)
            _, vectors = lowest_eigenpairs(mat, 1)
            measured = expectation_position(vectors[:, 0], grid)
            center = eigenfunction_center(system, field, mq)
            shift = center - system.offset
            squared_variant = system.offset + shift * HBAR  # extra power of hbar
            rel_single = abs(measured - center) / abs(center)
            rel_squared = abs(measured - squared_variant) / abs(center)
            assert rel_single <= 1e-6
            assert rel_squared > 1e-3
            assert rel_squared > 1e3 * max(rel_single, 1e-16)


def test_criterion_3_decomposition_equivalence():
    with reported(3, "four-term decomposition equals the closed form, rel 1e-12"):
        rng = np.random.default_rng(918273)
        for _ in range(200):
            system, field, mq = random_stable_scenario(rng, zero_b0=True)
            for n in range(5):
                dec = energy_decomposition(system, field, mq, n)
                direct = energy_level(system, field, mq, n)
                parts = (
                    dec.quantum_term
                    + dec.classical_mixed_term
                    + dec.classical_a_term
                    + dec.classical_g_term
                )
                assert dec.total == parts
                assert abs(dec.total - direct) <= 1e-12 * abs(direct)
        # zero-offset collapse: only the quantum and pure-gradient terms survive
        system, field = build_scenario(1e-26, 1.3e5, 7e10, 1.5, 0.35, 0.0, 1.1, 0.0)
        for mq in (-1.5, 0.5, 1.5):
            mbar = scaled_spin_number(system, field, mq)
            for n in range(3):
                dec = energy_decomposition(system, field, mq, n)
                assert dec.classical_mixed_term == 0.0
                assert dec.classical_a_term == 0.0
                expected_quantum = HBAR * system.omega * (n + 0.5) * math.sqrt(1.0 - mbar)
                classical_scale = (
                    0.5 * system.mass * system.omega**2 * (field.g / field.gbar) ** 2
                )
                expected_classical = -classical_scale * mbar * mbar / (4.0 * (1.0 - mbar))
                assert dec.quantum_term == pytest.approx(expected_quantum, rel=1e-14)
                assert dec.classical_g_term == pytest.approx(expected_classical, rel=1e-12)


def test_criterion_4_dissociation_boundary_and_scaling():
    with reported(4, "dissociation exactly at mbar >= 1; bound scales as omega^2"):
        # mass = 2*hbar, omega = gamma = 1 makes mbar == gbar * M exactly
        system = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=1.0, omega=1.0, offset=0.0)
        assert scaled_spin_number(system, FieldProfile(0.0, 0.0, 1.0), 1.0) == 1.0
        with pytest.raises(DissociationError):
            energy_level(system, FieldProfile(0.0, 0.0, 1.0), 1.0, 0)
        with pytest.raises(DissociationError):
            energy_level(system, FieldProfile(0.0, 0.0, 1.5), 1.0, 0)
        energy_level(system, FieldProfile(0.0, 0.0, 1.0 - 1e-12), 1.0, 0)  # just inside

        rng = np.random.default_rng(5)
        for _ in range(20):
            base, _, _ = random_stable_scenario(rng)
            doubled = replace(base, omega=2.0 * base.omega)
            ratio = gbar_critical(doubled) / gbar_critical(base)
            assert abs(ratio - 4.0) <= 1e-12 * 4.0
            boundary = FieldProfile(0.0, 0.0, gbar_critical(base))
            assert not stability_check(base, boundary).stable


def test_criterion_5_homogeneous_field_is_omega_blind():
    with reported(5, "uniform field: line set bit-identical across omega; not invertible"):
        field = FieldProfile(0.025, 0.0, 0.0)
        reference = None
        for omega in (1e4, 3.16e4, 1e5, 3.16e5, 1e6):  # two decades
            system = SpinSystem(mass=1e-26, gamma=-1.76085963e11, spin=1.5, omega=omega, offset=0.0)
            for n in (0, 3):
                freqs = tuple(l.frequency_hz for l in transition_lines(system, field, n))
                if reference is None:
                    reference = freqs
                assert freqs == reference  # bit-identical
        system = SpinSystem(mass=1e-26, gamma=-1.76085963e11, spin=1.5, omega=1e5, offset=0.0)
        result = identify_frequency(list(reference), system, field, 0, (1e4, 1e6))
        assert result.identifiable is False


def _draw_identifiable(rng):
    """Stable draw whose line set determines omega uniquely over the bracket.

    A spin-1/2 ladder has a single line reported as a magnitude; when the
    signed splitting changes sign inside the bracket the fold aliases omega,
    so such draws are rejected (they are not identifiable scenarios).
    """
    from parabolic_mr.spectroscopy import _pair_delta_e

    while True:
        system, field, _ = random_stable_scenario(rng)
        n = int(rng.integers(0, 4))
        if int(round(2.0 * system.spin)) == 1:
            floor = math.sqrt(
                2.0 * abs(system.gamma * field.gbar) * HBAR * system.spin / system.mass
            )
            lo = max(system.omega / 3.0, floor * (1.0 + 1e-9))
            samples = [
                _pair_delta_e(
                    replace(system, omega=om), field, (0.5, n), (-0.5, n)
                )
                for om in np.linspace(lo, 3.0 * system.omega, 9)
            ]
            if min(samples) < 0.0 < max(samples):
                continue
        return system, field, n


def test_criterion_6_frequency_round_trip():
    with reported(6, "noiseless line sets invert to omega within rel 1e-6"):
        rng = np.random.default_rng(777)
        for _ in range(98):
            system, field, n = _draw_identifiable(rng)
            lines = [l.frequency_hz for l in transition_lines(system, field, n)]
            template = replace(system, omega=1.0)
            result = identify_frequency(
                lines, template, field, n, (system.omega / 3.0, system.omega * 3.0)
            )
            assert result.identifiable
            assert abs(result.omega_estimate - system.omega) / system.omega < 1e-6
        # unknown-mixture scenario: two species, same field, fitted separately
        field = FieldProfile(0.0, 0.002, 40.0)
        for true_omega in (1.1e5, 2.7e5):
            system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=true_omega, offset=2e-6)
            lines = [l.frequency_hz for l in transition_lines(system, field, 1)]
            result = identify_frequency(
                lines, replace(system, omega=1.0), field, 1, (5e4, 6e5)
            )
            assert result.identifiable
            assert abs(result.omega_estimate - true_omega) / true_omega < 1e-6


def test_criterion_7_figure_reproduction(tmp_path):
    with reported(7, "level curves bend monotonically in gbar; crossings refined to 1e-10"):
        out = tmp_path / "fig"
        assert run(["figure1", "--out", str(out)]) == EXIT_OK

        rows = (out / "figure1_levels.csv").read_text().splitlines()
        header = rows[0].split(",")
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        scenario = figure1_scenario()
        assert data.shape[1] == 1 + 4 * 3  # gbar + one column per (M, n)

        # within each sector the level spacing is hbar*omega_eff(gbar): strictly
        # monotone, shrinking for the adverse-sign projections (gamma < 0, gbar > 0
        # makes M < 0 adverse) and growing for the favorable ones
        for m in (-1.5, -0.5, 0.5, 1.5):
            for n in (0, 1):
                col_hi = header.index(f"E_J_m{m:+g}_n{n + 1}")
                col_lo = header.index(f"E_J_m{m:+g}_n{n}")
                spacing = data[:, col_hi] - data[:, col_lo]
                deltas = np.diff(spacing)
                if m < 0:
                    assert np.all(deltas < 0.0)
                else:
                    assert np.all(deltas > 0.0)

        crossing_rows = (out / "figure1_crossings.csv").read_text().splitlines()[1:]
        assert crossing_rows  # nonempty crossing list
        for row in crossing_rows:
            gbar, m_a, n_a, m_b, n_b, _ = row.split(",")
            fld = replace(scenario.field, gbar=float(gbar))
            e_a = energy_level(scenario.system, fld, float(m_a), int(n_a))
            e_b = energy_level(scenario.system, fld, float(m_b), int(n_b))
            assert abs(e_a - e_b) < 1e-10 * max(abs(e_a), abs(e_b))


def test_criterion_8_zero_and_identity_reductions():
    with reported(8, "M=0 sector field-free; uniform field reduces to Zeeman ladder"):
        rng = np.random.default_rng(31415)
        system = SpinSystem(mass=1e-26, gamma=9e10, spin=2.0, omega=1.7e5, offset=3e-6)
        for _ in range(50):
            field = FieldProfile(
                rng.uniform(-1.0, 1.0), rng.uniform(-10.0, 10.0), rng.uniform(-100.0, 100.0)
            )
            for n in range(5):
                expected = HBAR * system.omega * (n + 0.5)
                assert abs(energy_level(system, field, 0.0, n) - expected) <= 1e-12 * expected
        uniform = FieldProfile(0.42, 0.0, 0.0)
        for m in system.levels():
            for n in range(3):
                expected = (
                    HBAR * system.omega * (n + 0.5) - system.gamma * uniform.b0 * HBAR * m
                )
                value = energy_level(system, uniform, m, n)
                assert abs(value - expected) <= 1e-14 * abs(expected)


def test_criterion_9_cli_determinism(tmp_path):
    with reported(9, "identical configs produce byte-identical outputs"):
        config = tmp_path / "scenario.json"
        config.write_text(
            json.dumps(
                {
                    "mass": 1e-26,
                    "gamma": 5e10,
                    "spin": 1.0,
                    "omega": 2e5,
                    "offset": 1e-6,
                    "b0": 0.001,
                    "g": 0.002,
                    "gbar": 10.0,
                    "n_max": 1,
                }
            ),
            encoding="utf-8",
        )
        pairs = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert run(["spectrum", "--config", str(config), "--out", str(out)]) == EXIT_OK
            assert run(["lines", "--config", str(config), "--out", str(out)]) == EXIT_OK
            assert run(["validate", "--config", str(config), "--out", str(out)]) == EXIT_OK
            assert run(["figure1", "--out", str(out)]) == EXIT_OK
            pairs.append(out)
        for name in ("levels.csv", "lines.csv", "validation.json", "figure1_levels.csv", "figure1_crossings.csv"):
            assert (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes(), name
