import json
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.polynomial import hermite as np_hermite

from conftest import build_scenario, random_stable_scenario, stable_setups, trapezoid
from parabolic_mr import (
    HBAR,
    DissociationError,
    FieldProfile,
    SpinSystem,
    effective_frequency,
    eigenfunction,
    eigenfunction_center,
    energy_decomposition,
    energy_level,
    gbar_critical,
    oscillator_wavefunction,
    scaled_spin_number,
    stability_check,
    transition_lines,
)
from parabolic_mr.cli import EXIT_PHYSICS, run
from parabolic_mr.core import _hermite_normalized, _square

ELECTRON_GAMMA = -1.76085963e11


def simple_system(**overrides):
    params = dict(mass=1e-26, gamma=5e10, spin=1.5, omega=2e5, offset=0.0)
    params.update(overrides)
    return SpinSystem(**params)


class TestDomainTypes:
    def test_rejects_nonpositive_mass_and_omega(self):
        with pytest.raises(ValueError):
            simple_system(mass=0.0)
        with pytest.raises(ValueError):
            simple_system(omega=-1.0)

    @pytest.mark.parametrize("omega", [1e200, 1e-170, np.array([1e5, 1e200])])
    def test_rejects_omega_whose_square_leaves_the_doubles(self, omega):
        # 1e200 squares past the largest double; at the electron mass,
        # mass * 1e-170**2 underflows to zero
        with pytest.raises(ValueError, match=r"mass\*omega\*\*2 must be positive finite"):
            simple_system(mass=9.1093837015e-31, omega=omega)

    def test_rejects_omega_array_whose_mass_product_overflows_without_a_warning(self):
        # 1e110 squares within the doubles, but 1e100 * 1e220 does not
        with pytest.raises(ValueError, match=r"mass\*omega\*\*2 must be positive finite"):
            SpinSystem(1e100, 8e10, 1.0, np.array([1e5, 1e110]))

    def test_rejects_non_half_integer_spin(self):
        with pytest.raises(ValueError):
            simple_system(spin=0.7)
        with pytest.raises(ValueError):
            simple_system(spin=-0.5)

    @pytest.mark.parametrize("key, value", [  # the spin cases keep their bare ids
        pytest.param(key, value, id=f"{key}-{value}" if key != "spin" else str(value))
        for key in ("spin", "gamma", "offset") for value in (math.inf, -math.inf, math.nan)
    ])
    def test_rejects_non_finite_spin(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            simple_system(**{key: value})

    def test_offset_must_sit_inside_sample(self):
        simple_system(offset=1e-5, sample_half_length=1e-4)
        with pytest.raises(ValueError):
            simple_system(offset=2e-4, sample_half_length=1e-4)

    def test_levels_ladder(self):
        assert simple_system(spin=1.5).levels() == (-1.5, -0.5, 0.5, 1.5)
        assert simple_system(spin=0.0).levels() == (0.0,)

    def test_numpy_scalars_stored_as_python_scalars(self):
        # so they compute as Python floats: without a warning past the
        # doubles, and with the same results, type for type
        system = simple_system(gamma=np.float64(5e10), spin=np.float64(1.0))
        field = FieldProfile(np.float64(0.001), np.float64(1e200), np.float64(10.0))
        assert type(system.gamma) is type(system.spin) is type(field.g) is float
        omegas = np.array([1e5, 2e5])
        assert simple_system(omega=omegas).omega is omegas
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = transition_lines(system, field, 1)
        expected = transition_lines(
            simple_system(gamma=5e10, spin=1.0), FieldProfile(0.001, 1e200, 10.0), 1
        )
        assert repr(lines) == repr(expected)
        assert [[type(v) for v in vars(l).values()] for l in lines] == [
            [type(v) for v in vars(l).values()] for l in expected
        ]

    def test_field_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FieldProfile(b0=math.inf, g=0.0, gbar=0.0)

    def test_projection_validated_against_spin(self):
        system = simple_system(spin=1.0)
        field = FieldProfile(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            energy_level(system, field, 1.5, 0)
        with pytest.raises(ValueError):
            energy_level(system, field, 0.5, 0)  # S - M not an integer

    def test_nan_projection_refused_alike_as_scalar_and_array(self):
        system = SpinSystem(1e-26, 5e10, 1.0, 2e5)
        field = FieldProfile(0, 0, 0)
        message = "m_quantum=nan is not a valid projection for spin=1.0"
        for m in (float("nan"), np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match=re.escape(message)):
                energy_level(system, field, m, 0)


class TestSquare:
    def test_past_the_doubles_is_inf_without_exception_or_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _square(1e200) == _square(-1e200) == math.inf
            assert _square(np.array([[3.0, -1e200], [1e300, 2.0]])).tolist() == [
                [9.0, math.inf], [math.inf, 4.0]
            ]

    def test_arrays_square_like_python_floats(self):
        # negative values, and values whose squares are subnormal (below
        # 2**-1022) or round to zero, square as Python's ** squares them
        rng = np.random.default_rng(12)
        magnitudes = np.concatenate([
            10.0 ** rng.uniform(-150.0, 150.0, 20000),
            10.0 ** rng.uniform(-170.0, -154.0, 20000),
        ])
        values = magnitudes * rng.choice((-1.0, 1.0), magnitudes.size)
        want = np.array([v**2 for v in values.tolist()])
        got = _square(values.reshape(200, 200))
        assert got.shape == (200, 200)
        assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))
        assert ((0.0 < want) & (want < sys.float_info.min)).sum() > 1000
        assert (values * values != want).sum() > 10  # x*x would not do
        assert [_square(v) for v in values[:100].tolist()] == want[:100].tolist()


class TestHermite:
    # the normalized recurrence H_n(xi) / sqrt(2^n n!) behind oscillator_wavefunction
    def test_order_zero_is_one(self):
        assert _hermite_normalized(0, np.array([0.7]))[0] == 1.0

    def test_order_one(self):
        assert _hermite_normalized(1, np.array([0.5]))[0] == 0.5 * math.sqrt(2.0)

    def test_order_three_hand_recurrence(self):
        # H3(x) = 8x^3 - 12x, evaluated at 2: 64 - 24, over sqrt(2^3 3!)
        value = _hermite_normalized(3, np.array([2.0]))[0]
        assert value == pytest.approx(40.0 / math.sqrt(48.0), rel=1e-15)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="order too large"):
            oscillator_wavefunction(201, 3.1e5, 1.2e-26, 0.0)

    @given(st.integers(0, 30), st.floats(-5.0, 5.0))
    def test_matches_numpy_polynomial_module(self, n, xi):
        coeffs = [0.0] * n + [1.0]
        expected = float(np_hermite.hermval(xi, coeffs)) / math.sqrt(2.0**n * math.factorial(n))
        value = _hermite_normalized(n, np.array([xi]))[0]
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-8)

    def test_vectorized_over_xi(self):
        xs = np.linspace(-2, 2, 7)
        vals = _hermite_normalized(4, xs)
        assert vals.shape == xs.shape
        assert vals[3] == _hermite_normalized(4, np.array([0.0]))[0]


class TestOscillatorWavefunction:
    MASS = 1.2e-26
    OMEGA = 3.1e5

    def test_gaussian_peak_value(self):
        expected = (self.MASS * self.OMEGA / (HBAR * math.pi)) ** 0.25
        assert oscillator_wavefunction(0, self.OMEGA, self.MASS, 0.0) == expected

    def test_odd_parity_vanishes_at_origin(self):
        assert oscillator_wavefunction(1, self.OMEGA, self.MASS, 0.0) == 0.0

    def test_invalid_system_rejected(self):
        with pytest.raises(ValueError, match="invalid system"):
            oscillator_wavefunction(0, -1.0, self.MASS, 0.0)
        with pytest.raises(ValueError, match="invalid system"):
            oscillator_wavefunction(0, self.OMEGA, 0.0, 0.0)

    @pytest.mark.parametrize("n", range(6))
    def test_quadrature_normalization(self, n):
        lam = math.sqrt(HBAR / (self.MASS * self.OMEGA))
        x = np.linspace(-14 * lam, 14 * lam, 8001)
        psi = oscillator_wavefunction(n, self.OMEGA, self.MASS, x)
        assert trapezoid(psi * psi, x) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 12])
    def test_matches_explicit_factorial_formula(self, n):
        lam = math.sqrt(HBAR / (self.MASS * self.OMEGA))
        for x in (-2.3 * lam, 0.4 * lam, 1.7 * lam):
            xi = x / lam
            explicit = (
                (self.MASS * self.OMEGA / (HBAR * math.pi)) ** 0.25
                / math.sqrt(2.0**n * math.factorial(n))
                * float(np_hermite.hermval(xi, [0.0] * n + [1.0]))
                * math.exp(-0.5 * xi * xi)
            )
            value = oscillator_wavefunction(n, self.OMEGA, self.MASS, x)
            assert value == pytest.approx(explicit, rel=1e-11)

    def test_high_order_does_not_overflow(self):
        # factorial(150) overflows float64; the normalized recurrence must not
        value = oscillator_wavefunction(150, self.OMEGA, self.MASS, 0.0)
        assert math.isfinite(value)


class TestScaledSpinNumber:
    def test_zero_for_m_zero(self):
        system = simple_system(spin=1.0)
        field = FieldProfile(0.01, 0.5, 3.0)
        assert scaled_spin_number(system, field, 0.0) == 0.0

    def test_zero_for_gbar_zero(self):
        system = simple_system()
        field = FieldProfile(0.01, 0.5, 0.0)
        for m in system.levels():
            assert scaled_spin_number(system, field, m) == 0.0

    def test_unity_at_critical_gbar(self):
        # mass = 2*hbar with omega = gamma = gbar = 1 makes mbar == 1 exactly
        system = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=1.0, omega=1.0, offset=0.0)
        field = FieldProfile(0.0, 0.0, 1.0)
        assert scaled_spin_number(system, field, 1.0) == 1.0

    def test_sign_follows_gamma_gbar_m(self):
        system = simple_system()
        field = FieldProfile(0.0, 0.0, 7.5)
        assert scaled_spin_number(system, field, 1.5) > 0
        assert scaled_spin_number(system, field, -1.5) < 0

    def test_array_past_the_doubles_warns_nothing(self):
        # gamma*gbar overflows: -inf, inf * 0 and inf, as Python floats give them
        system = SpinSystem(2e-26, 1e300, 1.0, 1.1e5)
        mbar = scaled_spin_number(system, FieldProfile(0, 0, 1e300), np.array([-1.0, 0.0, 1.0]))
        assert mbar[0] == -math.inf and math.isnan(mbar[1]) and mbar[2] == math.inf


class TestEffectiveFrequency:
    def test_reduces_to_omega_without_quadratic_term(self):
        system = simple_system()
        field = FieldProfile(0.02, 1.0, 0.0)
        for m in system.levels():
            assert effective_frequency(system, field, m) == system.omega

    def test_three_quarters_gives_half_omega(self):
        system = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=1.0, omega=1.0, offset=0.0)
        field = FieldProfile(0.0, 0.0, 0.75)
        assert scaled_spin_number(system, field, 1.0) == pytest.approx(0.75, rel=1e-15)
        assert effective_frequency(system, field, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_error_exactly_at_unity(self):
        system = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=1.0, omega=1.0, offset=0.0)
        field = FieldProfile(0.0, 0.0, 1.0)
        with pytest.raises(DissociationError, match="effective frequency imaginary"):
            effective_frequency(system, field, 1.0)

    def test_vanishes_approaching_unity(self):
        system = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=1.0, omega=1.0, offset=0.0)
        value = 1.0
        for gbar in (0.9, 0.99, 0.9999, 1.0 - 1e-12):
            new = effective_frequency(system, FieldProfile(0.0, 0.0, gbar), 1.0)
            assert 0.0 < new < value
            value = new


class TestStabilityCheck:
    def test_zero_gbar_always_stable(self):
        summary = stability_check(simple_system(), FieldProfile(0.3, 2.0, 0.0))
        assert summary.stable
        assert summary.mbar == 0.0

    def test_boundary_counts_as_dissociated(self):
        system = simple_system()
        crit = gbar_critical(system)
        summary = stability_check(system, FieldProfile(0.0, 0.0, crit))
        assert not summary.stable
        assert math.isnan(summary.omega_eff)

    def test_just_inside_boundary_is_stable(self):
        system = simple_system()
        crit = gbar_critical(system)
        assert stability_check(system, FieldProfile(0.0, 0.0, crit * (1 - 1e-12))).stable

    def test_just_inside_bound_reports_and_never_raises(self):
        # one step inside the bound the worst M's rounded mbar can already
        # read 1 (or, past rounding, more); the check reports, never raises
        rng = np.random.default_rng(5)
        unstable = 0
        for _ in range(300):
            system, field, _ = random_stable_scenario(rng)
            for sign in (1.0, -1.0):
                gbar = sign * math.nextafter(gbar_critical(system), 0.0)
                summary = stability_check(system, FieldProfile(field.b0, field.g, gbar))
                assert summary.stable == (summary.mbar < 1.0)
                if not summary.stable:
                    unstable += 1
                    assert math.isnan(summary.omega_eff) and math.isnan(summary.center)
        assert unstable > 0  # the draws do reach the rounded boundary

    def test_doubling_omega_quadruples_bound(self):
        system = simple_system()
        doubled = replace(system, omega=2.0 * system.omega)
        assert gbar_critical(doubled) == pytest.approx(4.0 * gbar_critical(system), rel=1e-12)

    def test_worst_projection_pairs_adverse_sign(self):
        system = simple_system(gamma=5e10, spin=1.5)
        assert stability_check(system, FieldProfile(0.0, 0.0, 10.0)).m_quantum == 1.5
        assert stability_check(system, FieldProfile(0.0, 0.0, -10.0)).m_quantum == -1.5

    def test_spin_zero_unconditionally_stable(self):
        system = simple_system(spin=0.0)
        summary = stability_check(system, FieldProfile(0.0, 0.0, 1e12))
        assert summary.stable
        assert summary.gbar_crit == math.inf


class TestDerivedParams:
    # stability_check reports the derived quantities of the worst projection
    def test_fields_match_operations(self):
        system = simple_system()
        field = FieldProfile(0.01, 0.5, -40.0)
        params = stability_check(system, field)
        assert params.m_quantum == -1.5
        assert params.mbar == scaled_spin_number(system, field, -1.5)
        assert params.omega_eff == effective_frequency(system, field, -1.5)
        assert params.center == eigenfunction_center(system, field, -1.5)
        assert params.gbar_crit == gbar_critical(system)
        assert params.stable

    def test_unstable_sector_flagged_with_nan(self):
        system = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=1.0, omega=1.0, offset=0.0)
        params = stability_check(system, FieldProfile(0.0, 0.0, 1.0))
        assert params.m_quantum == 1.0
        assert not params.stable
        assert math.isnan(params.omega_eff) and math.isnan(params.center)
        assert params.mbar == 1.0


class TestEnergyLevel:
    def test_array_past_the_doubles_warns_nothing_and_matches_scalars(self):
        # the Zeeman term overflows to -inf and inf, and at M = 0 is inf * 0
        system = SpinSystem(2e-26, 8e10, 1.0, 1.1e5, 2e-6)
        field = FieldProfile(1e300, 0, 0)
        ms = [-1.0, 0.0, 1.0]
        energies = energy_level(system, field, np.array(ms), np.array([0, 0, 0]))
        scalars = np.array([energy_level(system, field, m, 0) for m in ms])
        assert energies[0] == math.inf and math.isnan(energies[1]) and energies[2] == -math.inf
        assert energies.view(np.uint64).tolist() == scalars.view(np.uint64).tolist()

    def test_m_zero_sector_is_field_independent(self):
        system = simple_system(spin=2.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            field = FieldProfile(rng.uniform(-1, 1), rng.uniform(-10, 10), rng.uniform(-100, 100))
            for n in range(4):
                expected = HBAR * system.omega * (n + 0.5)
                assert energy_level(system, field, 0.0, n) == pytest.approx(expected, rel=1e-12)

    def test_pure_zeeman_ladder(self):
        system = simple_system()
        field = FieldProfile(0.37, 0.0, 0.0)
        for m in system.levels():
            for n in range(3):
                expected = HBAR * system.omega * (n + 0.5) - system.gamma * field.b0 * HBAR * m
                assert energy_level(system, field, m, n) == pytest.approx(expected, rel=1e-14)

    @given(stable_setups())
    def test_zeeman_splitting_constant_in_homogeneous_field(self, setup):
        system, field, _ = setup
        homogeneous = replace(field, g=0.0, gbar=0.0)
        assume(homogeneous.b0 != 0.0)
        expected = -system.gamma * homogeneous.b0 * HBAR
        ladder = system.levels()
        for n in (0, 3):
            for i in range(1, len(ladder)):
                delta = energy_level(system, homogeneous, ladder[i], n) - energy_level(
                    system, homogeneous, ladder[i - 1], n
                )
                assert delta == pytest.approx(expected, rel=1e-12)

    @given(stable_setups())
    def test_sign_symmetry_bitwise(self, setup):
        system, field, mq = setup
        mirrored = replace(system, gamma=-system.gamma)
        for n in (0, 2):
            assert energy_level(system, field, mq, n) == energy_level(mirrored, field, -mq, n)

    def test_dissociation_raises(self):
        system = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=1.0, omega=1.0, offset=0.0)
        with pytest.raises(DissociationError):
            energy_level(system, FieldProfile(0.0, 0.0, 1.0), 1.0, 0)

    @given(stable_setups(zero_b0=True, allow_m_zero=False))
    @example((  # mbar = 0.666015625: 0.999/mbar lies between 1.2 and 1.5
        SpinSystem(mass=1e-25, gamma=-1e7, spin=0.5, omega=1000.0, offset=0.0),
        FieldProfile(0.0, 0.0, 63155075.28872261),
        -0.5,
    ))
    def test_monotone_approach_to_dissociation(self, setup):
        system, field, mq = setup
        mbar = scaled_spin_number(system, field, mq)
        assume(mbar > 1e-6)
        previous = effective_frequency(system, field, mq)
        for factor in sorted((1.2, 1.5, 0.999 / max(mbar, 1e-6))):
            if mbar * factor >= 1.0:
                break
            scaled = replace(field, gbar=field.gbar * factor)
            current = effective_frequency(system, scaled, mq)
            assert current < previous
            previous = current


class TestEnergyDecomposition:
    def test_m_zero_collapses_to_oscillator(self):
        system = simple_system(spin=1.0)
        field = FieldProfile(0.0, 0.5, 20.0)
        dec = energy_decomposition(system, field, 0.0, 2)
        assert dec.quantum_term == pytest.approx(2.5 * HBAR * system.omega, rel=1e-15)
        assert dec.classical_mixed_term == 0.0
        assert dec.classical_a_term == 0.0
        assert dec.classical_g_term == 0.0

    def test_zero_offset_leaves_quantum_and_g_terms(self):
        system, field = build_scenario(1e-26, 1e5, 5e10, 1.5, 0.4, 0.0, 1.2, 0.0)
        dec = energy_decomposition(system, field, 1.5, 1)
        assert dec.classical_mixed_term == 0.0
        assert dec.classical_a_term == 0.0
        assert dec.classical_g_term != 0.0

    def test_zero_gradient_leaves_quantum_and_a_terms(self):
        system, field = build_scenario(1e-26, 1e5, 5e10, 1.5, 0.4, 2.0, 0.0, 0.0)
        dec = energy_decomposition(system, field, 1.5, 1)
        assert dec.classical_mixed_term == 0.0
        assert dec.classical_g_term == 0.0
        assert dec.classical_a_term != 0.0
        # the a^2 weight is mbar/(1-mbar), first power of mbar
        mbar = scaled_spin_number(system, field, 1.5)
        expected = (
            -0.5 * system.mass * system.omega**2 * system.offset**2 * mbar / (1.0 - mbar)
        )
        assert dec.classical_a_term == pytest.approx(expected, rel=1e-13)

    def test_requires_zero_b0_and_nonzero_gbar(self):
        system = simple_system()
        with pytest.raises(ValueError, match="decomposition undefined"):
            energy_decomposition(system, FieldProfile(0.1, 0.0, 5.0), 0.5, 0)
        with pytest.raises(ValueError, match="decomposition undefined"):
            energy_decomposition(system, FieldProfile(0.0, 1.0, 0.0), 0.5, 0)

    @given(stable_setups(zero_b0=True), st.integers(0, 4))
    def test_total_equals_closed_form(self, setup, n):
        system, field, mq = setup
        assume(field.gbar != 0.0)
        dec = energy_decomposition(system, field, mq, n)
        direct = energy_level(system, field, mq, n)
        parts = (
            dec.quantum_term
            + dec.classical_mixed_term
            + dec.classical_a_term
            + dec.classical_g_term
        )
        assert dec.total == parts
        scale = max(abs(direct), abs(dec.quantum_term))
        assume(scale > 1e-3 * HBAR * system.omega)
        assert abs(dec.total - direct) <= 1e-12 * scale


class TestEigenfunctions:
    def test_center_reduces_to_offset_for_m_zero(self):
        system = simple_system(spin=1.0, offset=3e-6)
        field = FieldProfile(0.1, 0.7, 30.0)
        assert eigenfunction_center(system, field, 0.0) == system.offset

    def test_center_reduces_to_offset_without_gradients(self):
        system = simple_system(offset=3e-6)
        field = FieldProfile(0.5, 0.0, 0.0)
        for m in system.levels():
            assert eigenfunction_center(system, field, m) == system.offset

    def test_m_zero_eigenfunction_is_shifted_base_state(self):
        system = simple_system(spin=1.0, offset=2e-6)
        field = FieldProfile(0.1, 0.7, 30.0)
        x = np.linspace(-5e-6, 8e-6, 101)
        lhs = eigenfunction(system, field, 0.0, 2, x)
        rhs = oscillator_wavefunction(2, system.omega, system.mass, x - system.offset)
        assert np.array_equal(lhs, rhs)

    def test_orthonormal_under_quadrature(self):
        system, field = build_scenario(1e-26, 1e5, -8e10, 1.5, -0.35, 1.5, 0.8, 0.0)
        mq = -1.5
        center = eigenfunction_center(system, field, mq)
        length = math.sqrt(HBAR / (system.mass * effective_frequency(system, field, mq)))
        x = np.linspace(center - 14 * length, center + 14 * length, 8001)
        states = [eigenfunction(system, field, mq, n, x) for n in range(5)]
        for i in range(5):
            for j in range(5):
                overlap = trapezoid(states[i] * states[j], x)
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


#: A config where 2*gamma*gbar overflows, so mbar is -inf, nan (inf * 0) and
#: inf at M = -1, 0 and 1: the unbound M = 1 is named, never the nan of M = 0.
OVERFLOW_CONFIG = {
    "mass": 1e-26, "gamma": 5e10, "spin": 1.0, "omega": 2e5, "offset": 1e-6,
    "b0": 0.001, "g": 0.002, "gbar": 1e300,
}


def overflowing_ladder(_system, _field):
    """energy_level over the M = -1, 0, 1 of :data:`OVERFLOW_CONFIG`, without
    numpy's warnings of the overflow."""
    system = SpinSystem(mass=1e-26, gamma=5e10, spin=1.0, omega=2e5, offset=1e-6)
    field = FieldProfile(0.001, 0.002, 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        return energy_level(system, field, np.array([-1.0, 0.0, 1.0]), 0)


class TestDissociationRule:
    """Every entry point that refuses an unbound sector, on the criterion-4 trap.

    mass = 2*hbar and omega = gamma = 1 make mbar == gbar * M exactly; spin 2
    at gbar = 1 leaves M = 1 on the boundary (mbar = 1) and M = 2 beyond it,
    so an error over a ladder, a level list or an array can name the first
    unbound M (1.0) or the worst one (2.0).  The worst is the one named.
    """

    SYSTEM = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=2.0, omega=1.0, offset=0.0)
    FIELD = FieldProfile(0.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda s, f: energy_level(s, f, 1.0, 0), 1.0),
            (lambda s, f: energy_level(s, f, np.array([-2.0, 1.0, 2.0, 0.0]), 0), 2.0),
            (lambda s, f: effective_frequency(s, f, 2.0), 2.0),
            (lambda s, f: eigenfunction_center(s, f, 1.0), 1.0),
            (lambda s, f: energy_decomposition(s, f, 2.0, 0), 2.0),
            (lambda s, f: transition_lines(s, f, 0), 2.0),
            (lambda s, f: transition_lines(s, f, 0, rule="deltaN1_fixed_M", m=1.0), 1.0),
            (lambda s, f: transition_lines(s, f, 0, rule="all_pairs_within", n_max=1), 2.0),
            (overflowing_ladder, 1.0),
        ],
        ids=[
            "energy_level", "energy_level-array", "effective_frequency", "eigenfunction_center",
            "energy_decomposition", "lines-deltaM1_fixed_n",
            "lines-deltaN1_fixed_M", "lines-all_pairs_within", "energy_level-array-overflow",
        ],
    )
    def test_library_entry_point_names_the_sector(self, call, named):
        assert scaled_spin_number(self.SYSTEM, self.FIELD, 1.0) == 1.0
        with pytest.raises(DissociationError, match=re.escape(f"m_quantum={named} ")):
            call(self.SYSTEM, self.FIELD)

    @pytest.mark.parametrize("command", ["spectrum", "lines"])
    def test_overflowing_mbar_names_the_unbound_sector(self, tmp_path, capsys, command):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(OVERFLOW_CONFIG))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(config), "--out", str(out)]) == EXIT_PHYSICS
        assert capsys.readouterr().err == (
            "ERROR 3: dissociation: effective frequency imaginary for m_quantum=1.0 (mbar=inf)\n"
        )
        assert not out.exists()

    def test_spectrum_command_names_the_worst_requested_level(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "mass": 2.0 * HBAR, "gamma": 1.0, "spin": 2.0, "omega": 1.0,
            "offset": 0.0, "b0": 0.0, "g": 0.0, "gbar": 1.0,
            "levels": [[-2.0, 0], [1.0, 0], [2.0, 0], [0.0, 1]],
        }))
        out = tmp_path / "out"
        assert run(["spectrum", "--config", str(config), "--out", str(out)]) == EXIT_PHYSICS
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ERROR 3: dissociation")
        assert "m_quantum=2.0 " in err
        assert not out.exists()
