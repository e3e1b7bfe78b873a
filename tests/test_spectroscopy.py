import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    STEEP_CROSSINGS,
    build_scenario,
    crossing_scan_args,
    random_stable_scenario,
    stable_setups,
)
from parabolic_mr import (
    HBAR,
    CrossingPoint,
    DissociationError,
    FieldProfile,
    InversionError,
    SpinSystem,
    converged_spectrum,
    crossing_scan,
    energy_level,
    gbar_critical,
    identify_frequency,
    transition_lines,
)
import parabolic_mr.spectroscopy as spectroscopy
from parabolic_mr.cli import figure1_scenario
from parabolic_mr.spectroscopy import _pair_delta_e

TWO_PI = 2.0 * math.pi


def larmor_system(**overrides):
    params = dict(mass=1e-26, gamma=-1.76085963e11, spin=1.5, omega=1e5, offset=0.0)
    params.update(overrides)
    return SpinSystem(**params)


class TestTransitionLines:
    def test_homogeneous_field_gives_larmor_ladder(self):
        system = larmor_system()
        field = FieldProfile(0.02, 0.0, 0.0)
        lines = transition_lines(system, field, n=1)
        assert len(lines) == 3  # 2S lines
        larmor = abs(system.gamma) * field.b0 / TWO_PI
        for line in lines:
            assert line.frequency_hz == pytest.approx(larmor, rel=1e-14)

    def test_homogeneous_lines_independent_of_omega_and_n_bitwise(self):
        field = FieldProfile(0.02, 0.0, 0.0)
        reference = None
        for omega in (1e4, 3.7e4, 2.2e5, 1e6):
            for n in (0, 4):
                freqs = tuple(
                    l.frequency_hz
                    for l in transition_lines(larmor_system(omega=omega), field, n)
                )
                if reference is None:
                    reference = freqs
                assert freqs == reference

    def test_delta_n_line_sits_at_trap_frequency(self):
        system = larmor_system(spin=1.0)
        field = FieldProfile(0.02, 0.0, 0.0)
        lines = transition_lines(system, field, n=0, rule="deltaN1_fixed_M", m=0.0)
        assert len(lines) == 1
        assert lines[0].frequency_hz == pytest.approx(system.omega / TWO_PI, rel=1e-14)

    def test_linear_gradient_spacing_pattern(self):
        # gbar = 0: adjacent-M line frequencies are evenly spaced by
        # gamma^2 g^2 hbar / (2 pi m omega^2), which carries the omega dependence
        # b0 = 0 keeps the line magnitudes small enough that the spacing
        # comparison is not ulp-limited
        system = larmor_system(spin=2.5, offset=2e-6)
        field = FieldProfile(0.0, 0.005, 0.0)
        lines = transition_lines(system, field, n=2)
        freqs = sorted(l.frequency_hz for l in lines)
        spacings = np.diff(freqs)
        expected = system.gamma**2 * field.g**2 * HBAR / (
            TWO_PI * system.mass * system.omega**2
        )
        assert spacings == pytest.approx([expected] * len(spacings), rel=1e-9)

    def test_lines_match_oracle_energies(self):
        system, field = build_scenario(1e-26, 1.2e5, 8e10, 1.5, 0.45, 0.6, 0.9, 0.2)
        n = 1
        lines = transition_lines(system, field, n)
        ladder = system.levels()
        numeric = {}
        for m in ladder:
            values, _ = converged_spectrum(system, field, m, n + 1, tol=1e-8)
            numeric[m] = values[n]
        for i in range(1, len(ladder)):
            expected = abs(numeric[ladder[i]] - numeric[ladder[i - 1]]) / (TWO_PI * HBAR)
            match = [
                l
                for l in lines
                if {l.m_from, l.m_to} == {ladder[i], ladder[i - 1]}
            ]
            assert len(match) == 1
            assert match[0].frequency_hz == pytest.approx(expected, rel=1e-8)

    @given(stable_setups(), st.integers(0, 3))
    def test_pair_difference_equals_energy_subtraction(self, setup, n):
        system, field, mq = setup
        ladder = system.levels()
        other = ladder[0] if mq != ladder[0] else ladder[-1]
        assume(other != mq)
        direct = energy_level(system, field, mq, n) - energy_level(system, field, other, n + 1)
        paired = _pair_delta_e(system, field, (mq, n), (other, n + 1))
        scale = max(abs(energy_level(system, field, mq, n)), abs(paired), HBAR * system.omega)
        assert abs(paired - direct) <= 1e-12 * scale

    def test_sorted_ascending_with_nonnegative_delta(self):
        system, field = build_scenario(1e-26, 1e5, -7e10, 2.5, -0.5, 1.0, 1.1, 0.7)
        lines = transition_lines(system, field, 0, rule="all_pairs_within", n_max=2)
        freqs = [l.frequency_hz for l in lines]
        assert freqs == sorted(freqs)
        assert all(l.delta_e >= 0.0 for l in lines)
        assert all(
            l.frequency_hz == pytest.approx(l.delta_e / (TWO_PI * HBAR), rel=1e-15)
            for l in lines
        )

    def test_all_pairs_count_and_cutoff(self):
        system = larmor_system(spin=1.0)
        field = FieldProfile(0.01, 0.001, 20.0)
        full = transition_lines(system, field, 0, rule="all_pairs_within", n_max=1)
        assert len(full) == 15  # C(6, 2) pairs of (M, n) levels
        cutoff = full[7].frequency_hz
        trimmed = transition_lines(
            system, field, 0, rule="all_pairs_within", n_max=1, cutoff_hz=cutoff
        )
        assert len(trimmed) == 8

    def test_cutoff_keeps_lines_past_double_precision(self):
        # an infinite line is not one above the cutoff: the caller must see it
        system = SpinSystem(mass=1e-26, gamma=5e10, spin=1.0, omega=2e5, offset=1e-6)
        field = FieldProfile(0.001, 1e200, 10.0)
        lines = transition_lines(system, field, 0)
        assert [l.frequency_hz for l in lines] == [math.inf, math.inf]
        assert transition_lines(system, field, 0, cutoff_hz=1e15) == lines

    def test_all_pairs_refused_above_max_lines(self, monkeypatch):
        # 3 x 242 levels pair into 263175 lines, just above the cap; one
        # oscillator level fewer (261003 lines) stays within it
        assert 723 * 722 // 2 <= spectroscopy.MAX_LINES < 726 * 725 // 2
        system = larmor_system(spin=1.0)
        field = FieldProfile(0.01, 0.001, 20.0)

        def refuse(*args):
            raise AssertionError("a level was evaluated")

        monkeypatch.setattr(spectroscopy, "_level_parts", refuse)
        with pytest.raises(ValueError, match="263175 lines"):
            transition_lines(system, field, 0, rule="all_pairs_within", n_max=241)

    @pytest.mark.parametrize("spin", [1.0, 2.5])
    def test_each_level_evaluated_once(self, monkeypatch, spin):
        # a rule's lines come from one sector evaluation, over arrays that
        # hold each distinct level once
        system = larmor_system(spin=spin)
        field = FieldProfile(0.01, 0.001, 20.0)
        parts, calls = spectroscopy._level_parts, []

        def counted(system, field, level):
            calls.append(level)
            return parts(system, field, level)

        monkeypatch.setattr(spectroscopy, "_level_parts", counted)
        ladder, n, n_max = int(2 * spin + 1), 2, 3
        for rule, options, count in (
            ("deltaM1_fixed_n", {}, ladder),
            ("deltaN1_fixed_M", {"m": -spin}, n + 2),
            ("all_pairs_within", {"n_max": n_max}, ladder * (n_max + 1)),
        ):
            calls.clear()
            lines = transition_lines(system, field, n, rule, **options)
            assert len(calls) == 1, rule
            ms, ns = calls[0]
            assert ms.dtype == ns.dtype == np.float64
            levels = list(zip(ms.tolist(), ns.tolist()))
            assert len(set(levels)) == len(levels) == count, rule
            assert {(l.m_from, l.n_from) for l in lines} | {(l.m_to, l.n_to) for l in lines} == set(
                levels)

    def test_dissociated_sector_named_in_error(self):
        system = larmor_system()
        bad = FieldProfile(0.0, 0.0, -1e7)  # gamma < 0: adverse sector is M = +3/2
        with pytest.raises(DissociationError, match="m_quantum=1.5"):
            transition_lines(system, field=bad, n=0)

    def test_delta_n_rule_requires_projection(self):
        system = larmor_system()
        with pytest.raises(ValueError, match="requires the fixed projection"):
            transition_lines(system, FieldProfile(0.0, 0.0, 0.0), 0, rule="deltaN1_fixed_M")

    def test_unknown_rule_rejected(self):
        system = larmor_system()
        with pytest.raises(ValueError, match="unknown selection rule"):
            transition_lines(system, FieldProfile(0.0, 0.0, 0.0), 0, rule="deltaM2")


class TestCrossingScan:
    def test_differences_past_the_doubles_refused_without_a_warning(self):
        system = SpinSystem(2e-26, 8e10, 1.0, 1.1e5, 2e-6)
        field = FieldProfile(1e303, 0.002, 0)
        match = "level energy differences past double precision on the gbar range"
        with pytest.raises(ValueError, match=match):
            crossing_scan(system, field, (0, 100), [(1.0, 0), (-1.0, 0)])

    def test_decoupled_spin_degenerate_pairs_reported(self):
        system = larmor_system(gamma=0.0, spin=1.0)
        field = FieldProfile(0.0, 0.0, 0.0)
        result = crossing_scan(
            system, field, (0.0, 1.0), [(-1.0, 0), (0.0, 0), (1.0, 0)], steps=16
        )
        assert not result.crossings
        assert len(result.degenerate_pairs) == 3  # every pair, no isolated crossings

    def test_duplicate_levels_rejected(self):
        system = larmor_system()
        with pytest.raises(ValueError, match="unique"):
            crossing_scan(system, FieldProfile(0.0, 0.0, 0.0), (0.0, 1.0), [(0.5, 0), (0.5, 0)])

    def test_empty_levels_rejected(self):
        system = larmor_system()
        with pytest.raises(ValueError, match="empty level list"):
            crossing_scan(system, FieldProfile(0.0, 0.0, 0.0), (0.0, 1.0), [])

    def test_too_few_steps_rejected(self):
        system = larmor_system()
        with pytest.raises(ValueError, match="steps"):
            crossing_scan(system, FieldProfile(0.0, 0.0, 0.0), (0.0, 1.0), [(0.5, 0), (1.5, 0)], steps=8)

    @pytest.mark.parametrize("steps", [16.5, 64.0, 63.5, "64"])
    def test_fractional_steps_rejected(self, steps):
        # a fractional count would put the last grid point past the range's end
        scenario = figure1_scenario()
        with pytest.raises(ValueError, match="^steps must be a nonnegative integer$"):
            crossing_scan(
                scenario.system, scenario.field, (scenario.gbar_min, scenario.gbar_max),
                scenario.all_levels(), steps=steps,
            )

    def test_fully_dissociated_range_rejected(self):
        system = larmor_system()
        crit = gbar_critical(system)
        with pytest.raises(DissociationError, match="dissociated"):
            crossing_scan(
                system,
                FieldProfile(0.0, 0.0, 0.0),
                (-3.0 * crit, -2.0 * crit),
                [(1.5, 0), (0.5, 0)],
                steps=16,
            )

    def test_range_clipped_to_stability(self):
        scenario = figure1_scenario()
        crit = gbar_critical(scenario.system)
        result = crossing_scan(
            scenario.system,
            scenario.field,
            (crit / 100, 10.0 * crit),
            scenario.all_levels(),
            steps=64,
        )
        assert all(c.gbar < crit for c in result.crossings)

    def test_two_sided_clip_is_the_per_level_bound(self):
        # sector M is bound while gbar * slope < 1, slope = mbar per unit gbar;
        # the electron's levels bound gbar on both sides, and the scan keeps a
        # relative margin of 1e-12 inside the nearest bound on each side
        scenario = figure1_scenario()
        system, levels = scenario.system, scenario.all_levels()
        crit = gbar_critical(system)
        bounds = [
            1.0 / (2.0 * system.gamma * HBAR * m / (system.omega**2 * system.mass))
            for m, _ in levels
            if m != 0.0
        ]
        lo = max(b for b in bounds if b < 0.0)
        hi = min(b for b in bounds if b >= 0.0)
        margin = 1e-12 * max(abs(lo), abs(hi), 1.0)
        assert -10.0 * crit < lo + margin and hi - margin < 10.0 * crit

        def scan(gbar_range):
            return crossing_scan(system, scenario.field, gbar_range, levels, steps=64)

        clipped = scan((-10.0 * crit, 10.0 * crit))
        assert clipped.crossings
        assert repr(clipped) == repr(scan((lo + margin, hi - margin)))

    def test_figure_configuration_has_refined_crossings(self):
        scenario = figure1_scenario()
        levels = scenario.all_levels()
        result = crossing_scan(
            scenario.system,
            scenario.field,
            (scenario.gbar_min, scenario.gbar_max),
            levels,
            steps=scenario.scan_steps,
        )
        assert result.crossings
        for c in result.crossings:
            fld = replace(scenario.field, gbar=c.gbar)
            e_a = energy_level(scenario.system, fld, *c.level_a)
            e_b = energy_level(scenario.system, fld, *c.level_b)
            assert abs(e_a - e_b) < 1e-10 * max(abs(e_a), abs(e_b))
            assert c.level_a != c.level_b
            assert c.converged

    def test_bisection_cap_reports_unconverged_crossings(self, monkeypatch):
        monkeypatch.setattr(spectroscopy, "MAX_BISECTION_STEPS", 3)
        scenario = figure1_scenario()
        result = crossing_scan(
            scenario.system,
            scenario.field,
            (scenario.gbar_min, scenario.gbar_max),
            scenario.all_levels(),
            steps=scenario.scan_steps,
        )
        assert result.crossings
        for c in result.crossings:
            assert c.converged is False
            assert c.bracket_width > 0.0

    def test_steep_scan_stops_its_frozen_bracket_unconverged(self, monkeypatch):
        kernel_calls = []
        kernel = spectroscopy._pair_from_parts

        def counting(*args):
            kernel_calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(spectroscopy, "_pair_from_parts", counting)
        result = crossing_scan(*crossing_scan_args(STEEP_CROSSINGS))
        assert len(result.crossings) == 18
        assert [c for c in result.crossings if not c.converged] == [
            CrossingPoint(
                gbar=76.989227880235, level_a=(-1.0, 1), level_b=(0.0, 0),
                energy=2.9571825935358936e-30, bracket_width=1.4210854715202004e-14,
                converged=False,
            )
        ]
        # one grid block for all 36 pairs, and six bisection rounds: the
        # bracket stops once it froze, after 48 steps, where the 201 steps of
        # MAX_BISECTION_STEPS would take at least eleven rounds
        assert len(kernel_calls) == 1 + 6

    def test_one_sided_bound_clips_only_that_side(self):
        # with gamma > 0, M = 0.5 and 1.5 unbind at positive gbar only: the
        # scan clips the upper end by the relative margin and keeps the lower
        system = SpinSystem(mass=1e-26, gamma=5e10, spin=1.5, omega=2e5)
        crit = gbar_critical(system)
        levels = [(0.5, 0), (1.5, 1)]
        result = crossing_scan(system, FieldProfile(0.0, 0.0, 0.0), (-crit, crit), levels)
        (crossing,) = result.crossings
        assert crossing.converged and -crit < crossing.gbar < crit
        hi = 1.0 / (2.0 * system.gamma * HBAR * 1.5 / (system.omega**2 * system.mass))
        assert repr(result) == repr(
            crossing_scan(system, FieldProfile(0.0, 0.0, 0.0), (-crit, hi - 1e-12 * hi), levels)
        )

    def test_oversized_scan_refused_before_any_evaluation(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("a refused scan evaluated the closed forms")

        monkeypatch.setattr(spectroscopy, "_pair_delta_e", evaluated)
        monkeypatch.setattr(spectroscopy, "energy_level", evaluated)
        system = larmor_system(spin=10.0)
        field = FieldProfile(0.0, 0.0, 0.0)
        # 21 projections x 41 oscillator numbers: 370230 pairs on 65 grid points
        levels = [(m, n) for m in system.levels() for n in range(41)]
        cap = spectroscopy.MAX_SCAN_EVALUATIONS
        with pytest.raises(ValueError, match=f"scan of 24064950 pair-grid points, more than {cap}"):
            crossing_scan(system, field, (0.0, 1.0), levels)
        # the cap itself passes: three levels on 17 points make 51 evaluations
        monkeypatch.undo()
        monkeypatch.setattr(spectroscopy, "MAX_SCAN_EVALUATIONS", 51)
        crossing_scan(system, field, (0.0, 1.0), levels[:3], steps=16)
        with pytest.raises(ValueError, match="scan of 54 pair-grid points, more than 51"):
            crossing_scan(system, field, (0.0, 1.0), levels[:3], steps=17)

    def test_each_crossing_is_one_sign_flip(self):
        scenario = figure1_scenario()
        levels = [(-1.5, 0), (1.5, 1)]
        steps = 64
        result = crossing_scan(
            scenario.system,
            scenario.field,
            (scenario.gbar_min, scenario.gbar_max),
            levels,
            steps=steps,
        )
        # recount sign changes on the same scan grid
        g_lo = scenario.gbar_min
        g_hi = min(scenario.gbar_max, gbar_critical(scenario.system))
        gs = np.linspace(g_lo, g_hi, steps + 1)
        diffs = []
        for g in gs:
            fld = replace(scenario.field, gbar=float(g))
            diffs.append(
                energy_level(scenario.system, fld, *levels[0])
                - energy_level(scenario.system, fld, *levels[1])
            )
        flips = sum(
            1 for i in range(steps) if (diffs[i] > 0) != (diffs[i + 1] > 0)
        )
        assert flips == len(result.crossings) > 0


class TestIdentifyFrequency:
    def test_misfit_past_the_doubles_refused_without_a_warning(self):
        system = SpinSystem(2e-26, 8e10, 0.5, 1.1e5, 2e-6)
        with pytest.raises(ValueError, match="line misfit past double precision"):
            identify_frequency([53.0], system, FieldProfile(0, 1e150, 0), 0, (5e4, 6e5))

    def test_edge_that_beats_every_refined_basin_is_refused(self, monkeypatch):
        # three of the four S = 2 lines: the bracket's upper edge beats the
        # coarse basins and none refines below it, so the refusal comes after
        # the golden rounds, unlike the refusal of a scan without a basin
        system = SpinSystem(2e-26, 8e10, 2.0, 1.1e5, 2e-6)
        field = FieldProfile(-0.003, 0.003, 9.3)
        lines = [l.frequency_hz for l in transition_lines(system, field, 0)][:3]
        rounds = []
        golden_round = spectroscopy._golden_round

        def counting(*args):
            rounds.append(args)
            return golden_round(*args)

        monkeypatch.setattr(spectroscopy, "_golden_round", counting)
        with pytest.raises(InversionError, match="bracket does not contain optimum"):
            identify_frequency(lines, system, field, 0, (2.3e4, 9.9e4), scan_points=16)
        assert rounds

    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(3)
        system, field, _ = random_stable_scenario(rng, zero_b0=False)
        lines = [l.frequency_hz for l in transition_lines(system, field, 2)]
        template = replace(system, omega=1.0)
        result = identify_frequency(
            lines, template, field, 2, (system.omega / 3.0, system.omega * 3.0)
        )
        assert result.identifiable
        assert abs(result.omega_estimate - system.omega) / system.omega < 1e-6
        assert result.residual_rms_hz < 1e-6 * max(lines)

    def test_homogeneous_field_not_identifiable(self):
        system = larmor_system()
        field = FieldProfile(0.02, 0.0, 0.0)
        lines = [l.frequency_hz for l in transition_lines(system, field, 0)]
        result = identify_frequency(lines, system, field, 0, (1e4, 1e6))
        assert not result.identifiable
        assert "homogeneous field" in result.reason
        assert math.isnan(result.omega_estimate)

    def test_line_vector_omega_sensitivity(self):
        # identifiability precondition: finite-difference derivative is nonzero
        system, field = build_scenario(1e-26, 2e5, 6e10, 1.5, 0.3, 0.5, 0.7, 0.0)
        def line_vector(omega):
            return np.array(
                [l.frequency_hz for l in transition_lines(replace(system, omega=omega), field, 0)]
            )
        fd = (line_vector(system.omega * 1.001) - line_vector(system.omega * 0.999)) / (
            0.002 * system.omega
        )
        assert np.any(np.abs(fd) > 0.0)
        homogeneous = FieldProfile(0.01, 0.0, 0.0)
        def homog_vector(omega):
            return tuple(
                l.frequency_hz
                for l in transition_lines(replace(system, omega=omega), homogeneous, 0)
            )
        assert homog_vector(1e4) == homog_vector(1e6)

    def test_bracket_without_optimum_rejected(self):
        system, field = build_scenario(1e-26, 5e5, 6e10, 1.0, 0.3, 0.5, 0.7, 0.0)
        lines = [l.frequency_hz for l in transition_lines(system, field, 0)]
        with pytest.raises(InversionError, match="bracket does not contain optimum"):
            identify_frequency(lines, system, field, 0, (1e6, 5e6))

    def test_edge_beaten_by_a_refined_basin_is_identified(self):
        # the floor clips this S = 1 bracket to (790374.96, 3 omega); the upper
        # edge's coarse residual (2725.76 Hz) beats every coarse basin (the
        # best, 4877.75 Hz), yet that basin refines to the true omega
        omega = 939381.4062415294
        system = SpinSystem(mass=6.2474923389409814e-27, gamma=2836246291.9764686, spin=1.0,
                            omega=omega, offset=1.8664343759965646e-07)
        field = FieldProfile(-1.7783868506410072e-05, 5785.919732236293, -6524120647.59791)
        lines = [l.frequency_hz for l in transition_lines(system, field, 3)]
        bracket = (omega / 3.0, omega * 3.0)
        assert bracket == (313127.13541384315, 2818144.218724588)
        result = identify_frequency(lines, replace(system, omega=1.0), field, 3, bracket)
        assert result.identifiable and result.bracket[0] > bracket[0]
        assert abs(result.omega_estimate - omega) <= 1e-10 * omega
        assert result.residual_rms_hz < 1e-5

    def test_two_species_mixture_recovered_separately(self):
        field = FieldProfile(0.0, 0.0015, 25.0)
        species = [
            SpinSystem(mass=2.2e-26, gamma=7e10, spin=1.5, omega=1.1e5, offset=1e-6),
            SpinSystem(mass=2.2e-26, gamma=7e10, spin=1.5, omega=2.4e5, offset=1e-6),
        ]
        for system in species:
            lines = [l.frequency_hz for l in transition_lines(system, field, 1)]
            result = identify_frequency(
                lines, replace(system, omega=1.0), field, 1, (5e4, 5e5)
            )
            assert result.identifiable
            assert abs(result.omega_estimate - system.omega) / system.omega < 1e-6

    def test_requires_lines_and_ordered_bracket(self):
        system = larmor_system()
        field = FieldProfile(0.0, 0.001, 10.0)
        with pytest.raises(ValueError, match="at least one measured line"):
            identify_frequency([], system, field, 0, (1e4, 1e6))
        with pytest.raises(ValueError, match="bracket"):
            identify_frequency([1.0], system, field, 0, (1e6, 1e4))
        for points in (0, 1, 2):  # the coarse scan needs an interior point
            with pytest.raises(ValueError, match="scan_points"):
                identify_frequency([1.0], system, field, 0, (1e4, 1e6), scan_points=points)

    @pytest.mark.parametrize("points", [64.5, 64.0, 2.5])
    def test_fractional_scan_points_rejected(self, points):
        # a fractional count would evaluate omegas past the bracket's top
        system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1.1e5, offset=2e-6)
        field = FieldProfile(0.0, 0.002, 40.0)
        lines = [l.frequency_hz for l in transition_lines(system, field, 1)]
        with pytest.raises(ValueError, match="^scan_points must be a nonnegative integer$"):
            identify_frequency(lines, system, field, 1, (5e4, 5e5), scan_points=points)

    @pytest.mark.parametrize("gbar, bracket", [
        (40.0, (1e-300, 1e300)),  # the floor clips the low end; 1e300 squares past the doubles
        (40.0, (5e4, 1e300)),
        (0.0, (1e-300, 6e5)),  # unclipped: mass * 1e-300**2 underflows to zero
    ])
    def test_bracket_end_past_the_doubles_is_named(self, gbar, bracket):
        # the README quickstart trap; the refusal names the bracket, not a system
        system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1.1e5, offset=2e-6)
        field = FieldProfile(0.0, 0.002, gbar)
        lines = [l.frequency_hz for l in transition_lines(system, field, 1)]
        with pytest.raises(ValueError, match=r"^bracket ends must keep mass\*omega\*\*2"):
            identify_frequency(lines, replace(system, omega=1.0), field, 1, bracket)

    def test_scan_grid_past_the_doubles_refused_without_a_warning(self):
        # the scan grid's steps (1e308 - 5e4) * i overflow to inf for i >= 2
        system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1.1e5, offset=2e-6)
        field = FieldProfile(0.0, 0.002, 40.0)
        lines = [l.frequency_hz for l in transition_lines(system, field, 1)]
        with pytest.raises(ValueError, match=r"^bracket ends must keep mass\*omega\*\*2"):
            identify_frequency(lines, system, field, 1, (5e4, 1e308))

    @pytest.mark.parametrize("factor", [1e200, math.inf, math.nan])
    def test_refinement_residual_past_the_doubles_raises_like_the_scan(self, monkeypatch, factor):
        # the coarse scan stays finite while every golden-section round's line
        # energies overflow, are infinite or are nan: the round's residuals end
        # in the coarse scan's ValueError, not OverflowError or a result.  A
        # round evaluates fewer rows than the scan's 512 points.
        system, field = build_scenario(1e-26, 2e5, 6e10, 1.5, 0.3, 0.5, 0.7, 0.0)
        lines = [l.frequency_hz for l in transition_lines(system, field, 1)]
        kernel = spectroscopy._pair_from_parts
        rows = []

        def golden_rounds_off(candidate, *args):
            de = kernel(candidate, *args)
            rows.append(len(de))
            return de if len(de) >= 512 else de * factor

        monkeypatch.setattr(spectroscopy, "_pair_from_parts", golden_rounds_off)
        with pytest.raises(ValueError, match="line misfit past double precision"):
            identify_frequency(lines, replace(system, omega=1.0), field, 1, (1e5, 6e5))
        assert rows[0] == 512 and 0 < rows[1] < 512  # the scan passed, the first round raised
