import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_scenario, random_centered_scenario, random_stable_scenario
from parabolic_mr import (
    HBAR,
    ConvergenceError,
    DissociationError,
    FieldProfile,
    SpinSystem,
    converged_spectrum,
    crossing_scan,
    effective_frequency,
    eigenfunction,
    eigenfunction_center,
    energy_level,
    gbar_critical,
    oscillator_length,
    scaled_spin_number,
    transition_lines,
    validate_levels,
)
from parabolic_mr import core, oracle
from parabolic_mr.cli import figure1_scenario, run
from parabolic_mr.oracle import (
    Grid,
    SectorMatrix,
    auto_grid,
    build_sector_hamiltonian,
    expectation_position,
    lowest_eigenpairs,
    lowest_eigenvalues,
)


def oscillator_system(**overrides):
    params = dict(mass=1e-26, gamma=5e10, spin=1.0, omega=2e5, offset=0.0)
    params.update(overrides)
    return SpinSystem(**params)


ZERO_FIELD = FieldProfile(0.0, 0.0, 0.0)


def system_grid(system, u_min, u_max, n_points):
    """Grid in the oscillator lengths of ``system``."""
    return Grid(u_min, u_max, n_points, oscillator_length(system.mass, system.omega))


def synthetic_matrix(hamiltonian):
    """A matrix on a grid of one point per row, du = 1."""
    n = len(hamiltonian)
    return SectorMatrix(hamiltonian, 0.0, Grid(0.0, n - 1.0, n, 1.0))


@pytest.mark.parametrize(
    "mass, omega",
    [(0.0, 2e5), (1e-26, -1.0), (math.nan, 2e5), (math.inf, 2e5),
     (1e-26, math.nan), (1e-26, math.inf)],
)
def test_oscillator_length_refuses_non_positive_or_non_finite_inputs(mass, omega):
    with pytest.raises(ValueError, match="mass and omega must be positive and finite"):
        oscillator_length(mass, omega)


class TestGrid:
    def test_rejects_coarse_or_inverted(self):
        with pytest.raises(ValueError, match="grid too coarse"):
            Grid(-5.0, 5.0, 32, 1.0)
        with pytest.raises(ValueError, match="grid too coarse"):
            Grid(5.0, -5.0, 128, 1.0)

    def test_rejects_more_points_than_the_cap(self):
        Grid(-5.0, 5.0, oracle.MAX_DVR_POINTS, 1.0)
        with pytest.raises(ValueError, match="too fine"):
            Grid(-5.0, 5.0, oracle.MAX_DVR_POINTS + 1, 1.0)

    def test_centre_beyond_double_precision_refused(self):
        # the sector centre lies about 1e198 oscillator lengths out, where
        # u_center +- the half-width round to the same double
        system = oscillator_system(offset=1e-6)
        with pytest.raises(ValueError, match=r"m_quantum=1.0 cannot be resolved in double precision"):
            auto_grid(system, FieldProfile(0.0, 1e200, 0.0), 1.0, 5, 64)

    def test_spacing_and_points(self):
        grid = Grid(-8.0, 8.0, 65, 1.0)
        assert grid.du == pytest.approx(0.25)
        pts = grid.points()
        assert pts[0] == -8.0 and pts[-1] == 8.0 and len(pts) == 65

    def test_auto_grid_spans_eight_effective_lengths(self):
        system = oscillator_system()
        field = FieldProfile(0.0, 0.002, 40.0)
        for m in system.levels():
            mbar = scaled_spin_number(system, field, m)
            if mbar >= 1.0:
                continue
            grid = auto_grid(system, field, m, 5, 513)
            lam = math.sqrt(HBAR / (system.mass * system.omega))
            eff = math.sqrt(HBAR / (system.mass * effective_frequency(system, field, m)))
            center = eigenfunction_center(system, field, m) / lam
            half_eff = (grid.u_max - center) * lam / eff
            assert half_eff >= 8.0
            assert (center - grid.u_min) * lam / eff >= 8.0


class TestBuildSectorHamiltonian:
    def test_zero_field_is_discrete_oscillator(self):
        # sinc-DVR kinetic entries 1/(2du^2) * (pi^2/3 | 2(-1)^(i-j)/(i-j)^2)
        system = oscillator_system()
        grid = system_grid(system, -8.0, 8.0, 65)  # du = 1/4
        mat = build_sector_hamiltonian(system, ZERO_FIELD, 0.0, grid)
        u = grid.points()
        kinetic = mat.hamiltonian - np.diag(0.5 * u * u)
        scale = 0.5 / grid.du**2
        assert np.diag(kinetic) == pytest.approx(
            np.full(65, scale * math.pi**2 / 3.0), rel=1e-14
        )
        assert kinetic[0, 1:5] == pytest.approx(
            scale * np.array([-2.0, 0.5, -2.0 / 9.0, 0.125]), rel=1e-14
        )
        assert np.array_equal(kinetic[0, 1:], kinetic[1:, 0])
        assert np.array_equal(kinetic[7, 8:20], kinetic[0, 1:13])  # Toeplitz

    @pytest.mark.parametrize(
        "n_points", [64, 65, 97, 144, 217, 324, 486, 729, oracle.MAX_DVR_POINTS]
    )
    def test_kinetic_matrix_equals_elementwise_definition(self, n_points):
        du = 18.0 / (n_points - 1)
        want = np.empty((n_points, n_points))
        if n_points <= 217:
            for i in range(n_points):
                for j in range(n_points):
                    d = abs(i - j)
                    t = math.pi**2 / 3.0 if d == 0 else (2.0 if d % 2 == 0 else -2.0) / (d * d)
                    want[i, j] = t / (2.0 * du * du)
        else:  # the same scalar entry per distance, indexed by |i - j|
            per_distance = []
            for d in range(n_points):
                t = math.pi**2 / 3.0 if d == 0 else (2.0 if d % 2 == 0 else -2.0) / (d * d)
                per_distance.append(t / (2.0 * du * du))
            index = np.arange(n_points)
            want = np.array(per_distance)[np.abs(index[:, None] - index[None, :])]
        got = oracle._kinetic_matrix(n_points, du)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable

    def test_hamiltonian_is_kinetic_plus_elementwise_potential(self):
        system = oscillator_system(offset=3e-7)
        field = FieldProfile(0.3, 1.7, 90.0)
        grid = auto_grid(system, field, 1.0, 5, 97)
        got = build_sector_hamiltonian(system, field, 1.0, grid).hamiltonian
        lam, u = grid.length_scale, grid.points()
        want = oracle._kinetic_matrix(grid.n_points, grid.du)
        for i in range(grid.n_points):
            x = lam * u[i]
            trap = 0.5 * (u[i] - system.offset / lam) ** 2
            coupling = (system.gamma * 1.0 / system.omega) * (
                field.b0 + field.g * x + field.gbar * x * x
            )
            want[i, i] += trap - coupling
        assert got.tobytes() == want.tobytes()

    def test_m_zero_matrix_field_independent(self):
        system = oscillator_system()
        grid = system_grid(system, -12.0, 12.0, 129)
        mat_a = build_sector_hamiltonian(system, ZERO_FIELD, 0.0, grid)
        mat_b = build_sector_hamiltonian(system, FieldProfile(0.3, 1.7, 90.0), 0.0, grid)
        assert np.array_equal(mat_a.hamiltonian, mat_b.hamiltonian)

    def test_metadata_carried(self):
        system = oscillator_system()
        grid = auto_grid(system, ZERO_FIELD, 1.0, 3, 129)
        mat = build_sector_hamiltonian(system, ZERO_FIELD, 1.0, grid)
        assert mat.m_quantum == 1.0
        assert mat.grid is grid

    def test_grid_of_another_length_scale_refused(self):
        # expectation_position converts with the grid's length scale, so a
        # matrix built in the system's oscillator lengths on a grid claiming
        # 1 m per unit would put <x> at 1.31 m instead of at the 3e-7 m offset
        system = oscillator_system(offset=3e-7)
        grid = auto_grid(system, ZERO_FIELD, 0.0, 1, 65)
        _, vectors = lowest_eigenpairs(build_sector_hamiltonian(system, ZERO_FIELD, 0.0, grid), 1)
        assert expectation_position(vectors[:, 0], grid) == pytest.approx(3e-7, rel=1e-9)
        with pytest.raises(ValueError, match="length scale"):
            build_sector_hamiltonian(system, ZERO_FIELD, 0.0, replace(grid, length_scale=1.0))


class TestLowestEigenpairs:
    def test_tridiagonal_analytic(self):
        # the n x n (2, -1) tridiagonal matrix has eigenvalues 2 - 2cos(j*pi/(n + 1))
        n = 64
        mat = synthetic_matrix(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
        values, vectors = lowest_eigenpairs(mat, n)
        j = np.arange(1, n + 1)
        assert values == pytest.approx(2.0 - 2.0 * np.cos(j * math.pi / (n + 1)), rel=1e-14)
        assert vectors.shape == (n, n)

    def test_diagonal_matrix_returns_sorted_diagonal(self):
        diag = np.random.default_rng(5).permutation(64).astype(float)
        mat = synthetic_matrix(np.diag(diag))
        values = lowest_eigenvalues(mat, 64)
        assert np.array_equal(values, np.sort(diag))

    def test_matches_dense_diagonalization(self):
        # independent reference: a dense matrix assembled from a known spectrum
        rng = np.random.default_rng(3)
        spectrum = rng.uniform(-5.0, 5.0, 80)
        q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
        dense = (q * spectrum) @ q.T
        mat = synthetic_matrix(0.5 * (dense + dense.T))
        values = lowest_eigenvalues(mat, 6)
        assert values == pytest.approx(np.sort(spectrum)[:6], rel=1e-11)

    def test_zero_field_eigenvalues_are_n_plus_half(self):
        # spectral convergence: 64 sinc-DVR points already reach round-off
        system = oscillator_system()
        grid = system_grid(system, -10.0, 10.0, 64)
        values = lowest_eigenvalues(build_sector_hamiltonian(system, ZERO_FIELD, 0.0, grid), 5)
        assert np.max(np.abs(values - (np.arange(5) + 0.5))) <= 1e-12

    def test_vectors_quadrature_normalized_and_orthogonal(self):
        system = oscillator_system()
        grid = auto_grid(system, ZERO_FIELD, 0.0, 6, 129)
        mat = build_sector_hamiltonian(system, ZERO_FIELD, 0.0, grid)
        _, vectors = lowest_eigenpairs(mat, 6)
        gram = vectors.T @ vectors * grid.du
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_k_out_of_range(self):
        mat = synthetic_matrix(np.diag(np.arange(1.0, 65.0)))
        with pytest.raises(ValueError):
            lowest_eigenpairs(mat, 65)
        with pytest.raises(ValueError):
            lowest_eigenvalues(mat, 0)

    def test_matrix_must_match_its_grid(self):
        with pytest.raises(ValueError, match="64 x 64 matrix"):
            SectorMatrix(np.eye(70), 0.0, Grid(0.0, 1.0, 64, 1.0))
        with pytest.raises(ValueError, match="64 x 64 matrix"):
            SectorMatrix(np.ones((64, 70)), 0.0, Grid(0.0, 1.0, 64, 1.0))


class TestConvergedSpectrum:
    def test_zero_field_self_calibration(self):
        system = oscillator_system()
        values, report = converged_spectrum(system, ZERO_FIELD, 0.0, 8, tol=1e-8)
        exact = HBAR * system.omega * (np.arange(8) + 0.5)
        assert np.max(np.abs(values / exact - 1.0)) < 1e-8
        assert 0.0 <= report.margin <= 1.0

    def test_m_zero_ignores_field(self):
        system = oscillator_system()
        field = FieldProfile(0.4, 2.2, 70.0)
        values, _ = converged_spectrum(system, field, 0.0, 4, tol=1e-8)
        exact = HBAR * system.omega * (np.arange(4) + 0.5)
        assert np.max(np.abs(values / exact - 1.0)) < 1e-8

    def test_linear_gradient_matches_completed_square(self):
        # gbar = 0: exact spectrum by completing the square by hand
        system = oscillator_system(offset=4e-7, spin=1.5)
        field = FieldProfile(0.05, 0.004, 0.0)
        for m in (-1.5, 0.5):
            values, _ = converged_spectrum(system, field, m, 3, tol=1e-8)
            zeeman = system.gamma * (field.b0 + field.g * system.offset) * HBAR * m
            bowl = (system.gamma * field.g * HBAR * m) ** 2 / (
                2.0 * system.mass * system.omega**2
            )
            exact = np.array(
                [
                    HBAR * system.omega * (n + 0.5) - zeeman - bowl
                    for n in range(3)
                ]
            )
            assert np.max(np.abs(values / exact - 1.0)) < 1e-8

    def test_generic_sector_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            system, field, mq = random_stable_scenario(rng)
            values, report = converged_spectrum(system, field, mq, 5, tol=1e-8)
            analytic = np.array([energy_level(system, field, mq, n) for n in range(5)])
            assert np.max(np.abs(values - analytic) / np.abs(analytic)) < 1e-8
            assert 0.0 <= report.margin <= 1.0

    def test_electron_resonance_reproduction_levels(self):
        # the baked-in crossing-scan configuration at two quadratic-field values
        from parabolic_mr.cli import figure1_scenario

        scenario = figure1_scenario()
        for gbar in (30.0, 120.0):
            field = replace(scenario.field, gbar=gbar)
            for mq in (-1.5, 0.5, 1.5):
                values, _ = converged_spectrum(scenario.system, field, mq, 3, tol=1e-8)
                analytic = np.array(
                    [energy_level(scenario.system, field, mq, n) for n in range(3)]
                )
                assert np.max(np.abs(values - analytic) / np.abs(analytic)) < 1e-8

    def test_near_dissociation_spacing_shrinks(self):
        system, field = build_scenario(2e-27, 4e4, 9e10, 1.5, 0.999, 0.2, 0.3, 0.0)
        mq = 1.5
        assert scaled_spin_number(system, field, mq) == pytest.approx(0.999, rel=1e-12)
        values, _ = converged_spectrum(system, field, mq, 3, tol=1e-8)
        spacing = values[1] - values[0]
        expected = HBAR * effective_frequency(system, field, mq)
        assert spacing == pytest.approx(expected, rel=1e-6)

    def test_dissociated_sector_refused(self):
        system = oscillator_system(spin=1.5)
        field = FieldProfile(0.0, 0.0, 1e9)
        with pytest.raises(DissociationError, match="unbounded below"):
            converged_spectrum(system, field, 1.5, 3)

    def test_energies_past_the_doubles_in_joules_refused_without_a_warning(self):
        # the eigenvalues are finite in hbar*omega units; hbar*omega times them is not
        system = SpinSystem(1e-300, 1e200, 0.5, 1e134)
        with pytest.raises(ValueError, match=r"m_quantum=0\.5 are past double precision"):
            converged_spectrum(system, FieldProfile(1e230, 0, 0), 0.5, 2)

    def test_tol_floor_enforced(self):
        system = oscillator_system()
        for tol in (1e-13, 0.5 * oracle.MIN_TOL, math.nan):
            with pytest.raises(ValueError, match="tol"):
                converged_spectrum(system, ZERO_FIELD, 0.0, 3, tol=tol)

    def test_cap_triggers_convergence_error(self, monkeypatch):
        # a cap of one grid size leaves no second solve to agree with
        monkeypatch.setattr(oracle, "MAX_DVR_POINTS", oracle.MIN_GRID_POINTS)
        system = oscillator_system()
        with pytest.raises(ConvergenceError, match="did not converge"):
            converged_spectrum(system, ZERO_FIELD, 0.0, 3)


class TestExpectationPosition:
    def test_symmetric_ground_state_sits_at_offset(self):
        system = oscillator_system(offset=2.4e-6)
        grid = auto_grid(system, ZERO_FIELD, 0.0, 1, 65)
        mat = build_sector_hamiltonian(system, ZERO_FIELD, 0.0, grid)
        _, vectors = lowest_eigenpairs(mat, 1)
        assert expectation_position(vectors[:, 0], grid) == pytest.approx(
            system.offset, rel=1e-10
        )

    def test_every_parity_eigenstate_centered(self):
        system = oscillator_system(offset=-1.1e-6)
        grid = auto_grid(system, ZERO_FIELD, 0.0, 4, 65)
        mat = build_sector_hamiltonian(system, ZERO_FIELD, 0.0, grid)
        _, vectors = lowest_eigenpairs(mat, 4)
        for j in range(4):
            assert expectation_position(vectors[:, j], grid) == pytest.approx(
                system.offset, rel=1e-9
            )

    def test_adjudicates_center_shift_power(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            system, field, mq = random_centered_scenario(rng)
            grid = auto_grid(system, field, mq, 1, 65)
            mat = build_sector_hamiltonian(system, field, mq, grid)
            _, vectors = lowest_eigenpairs(mat, 1)
            measured = expectation_position(vectors[:, 0], grid)
            center = eigenfunction_center(system, field, mq)
            shift = center - system.offset
            hbar_squared_variant = system.offset + shift * HBAR
            assert abs(measured - center) <= 1e-6 * abs(center)
            assert abs(measured - hbar_squared_variant) > 1e-3 * abs(center)

    def test_ground_vector_matches_analytic_eigenfunction(self):
        system, field = build_scenario(3e-27, 8e4, -6e10, 1.5, -0.4, 1.0, 0.9, 0.0)
        mq = 1.5
        grid = auto_grid(system, field, mq, 1, 65)
        mat = build_sector_hamiltonian(system, field, mq, grid)
        _, vectors = lowest_eigenpairs(mat, 1)
        x = grid.length_scale * grid.points()
        analytic = eigenfunction(system, field, mq, 0, x)
        overlap = float(np.sum(analytic * vectors[:, 0]) * grid.du) * grid.length_scale**0.5
        # both states are unit-normalized in their own measure; fidelity ~ 1
        fidelity = overlap**2 / (
            float(np.sum(analytic**2) * grid.du * grid.length_scale)
        )
        assert fidelity == pytest.approx(1.0, abs=1e-6)


class TestValidateLevels:
    def test_potential_past_the_doubles_refused_without_a_warning(self):
        system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1.1e5, offset=2e-6)
        with pytest.raises(ValueError, match="potential not finite on the grid domain"):
            validate_levels(system, FieldProfile(1e303, 0, 0), [(1.5, 0)])

    def test_report_structure_and_pass(self):
        system, field = build_scenario(1e-26, 1.5e5, 7e10, 1.0, 0.3, 0.7, 0.5, 0.4)
        levels = [(m, n) for m in system.levels() for n in range(2)]
        report = validate_levels(system, field, levels, tol=1e-8)
        assert report.converged and report.passed()
        assert report.max_rel_error < 1e-8
        assert len(report.records) == len(levels)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert {r["n"] for r in payload["records"]} == {0, 1}
        for sector in payload["sectors"]:
            assert set(sector) == {
                "m_quantum", "n_points", "u_min", "u_max", "length_scale_m", "refinements"
            }
            assert sector["refinements"] >= 2  # convergence needs two agreeing solves

    def test_solves_reuse_the_constant_kinetic_row(self, monkeypatch):
        system, field = build_scenario(1e-26, 1.5e5, 7e10, 1.0, 0.3, 0.7, 0.5, 0.4)
        levels = [(m, n) for m in system.levels() for n in range(3)]
        want = validate_levels(system, field, levels)

        def refuse(n_points):
            raise AssertionError("a solve rebuilt the kinetic row")

        monkeypatch.setattr(oracle, "_mirrored_kinetic_row", refuse)
        assert validate_levels(system, field, levels) == want

    def test_records_hold_python_floats(self):
        # numpy-scalar parameters too: the closed forms come back as one array per sector
        system = SpinSystem(mass=2e-26, gamma=np.float64(8e10), spin=1.5, omega=1.1e5, offset=2e-6)
        report = validate_levels(system, FieldProfile(0.0, 0.002, 40.0), [(1.5, 0), (1.5, 2)])
        for record in report.records:
            assert type(record.analytic_j) is float and type(record.numeric_j) is float

    def test_level_near_zero_judged_on_its_oscillator_scale(self):
        # E(1, 0) of this trap is about 1e-12 hbar*omega, and the oracle's
        # 1e-14 hbar*omega gap to it is 2% of |E|
        system = SpinSystem(mass=1e-26, gamma=5e10, spin=1.0, omega=2e5, offset=1e-6)
        field = FieldProfile(1.99798970946e-6, 0.002, 10.0)
        report = validate_levels(system, field, [(1.0, 0), (0.0, 1), (-1.0, 2)], tol=1e-8)
        near_zero = next(r for r in report.records if r.m_quantum == 1.0)
        assert abs(near_zero.analytic_j) < 1e-11 * HBAR * system.omega
        assert near_zero.rel_error == report.max_rel_error > 1e-2
        mbar = scaled_spin_number(system, field, 1.0)
        assert near_zero.scale_j == pytest.approx(
            HBAR * system.omega * math.sqrt(1.0 - mbar) * 0.5, rel=1e-15
        )
        assert report.converged and report.passed()

    def test_mismatch_beyond_both_scales_fails(self, monkeypatch):
        system, field = build_scenario(1e-26, 1.5e5, 7e10, 1.0, 0.3, 0.7, 0.5, 0.4)
        levels = [(m, n) for m in system.levels() for n in range(2)]
        shift = 3e-8 * HBAR * system.omega  # closed forms 3 tol hbar*omega off
        monkeypatch.setattr(oracle, "energy_level", lambda *args: energy_level(*args) + shift)
        report = validate_levels(system, field, levels, tol=1e-8)
        assert report.converged and not report.passed()
        assert json.loads(json.dumps(report.to_dict()))["passed"] is False

    def test_empty_levels_rejected(self):
        system = oscillator_system()
        with pytest.raises(ValueError):
            validate_levels(system, ZERO_FIELD, [])

    @pytest.mark.parametrize("n", [1.7, -1])
    def test_n_checked_before_any_solve(self, monkeypatch, n):
        # as energy_level does: 1.7 is not truncated to level 1, and -1 is
        # not handed to the solver as k = 0
        def refuse(*args, **kwargs):
            raise AssertionError("a sector was solved")

        monkeypatch.setattr(oracle, "converged_spectrum", refuse)
        system = oscillator_system(spin=1.5)
        with pytest.raises(ValueError, match="^n must be a nonnegative integer$"):
            validate_levels(system, ZERO_FIELD, [(1.5, 0), (0.5, n)])


#: SHA-256 of ``validation.json`` from ``parabolic-mr validate`` on the
#: library-quickstart trap (README) with default levels and tol.  It pins the
#: oracle's matrices and eigenvalues to the bytes of the element-wise kinetic
#: build; a changed digest must be explained in CHANGES.md.
QUICKSTART_VALIDATION_SHA256 = "8805c7a05b2360bc06db096db0f505dfff858275e96711396b2dfcf157f1a21a"


def test_quickstart_validation_matches_pinned_digest(tmp_path, capsys):
    config = tmp_path / "quickstart.json"
    config.write_text(
        json.dumps({
            "mass": 2e-26, "gamma": 8e10, "spin": 1.5, "omega": 1.1e5,
            "offset": 2e-6, "b0": 0.0, "g": 0.002, "gbar": 40.0,
        }),
        encoding="utf-8",
    )
    assert run(["validate", "--config", str(config), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "validation.json").read_bytes()).hexdigest()
    assert digest == QUICKSTART_VALIDATION_SHA256


def test_report_of_numpy_scalar_parameters_writes_as_json():
    # a numpy-scalar gamma must not make passed() a numpy bool, or json
    # refuses the report
    system = SpinSystem(mass=2e-26, gamma=np.float64(8e10), spin=1.5, omega=1.1e5, offset=2e-6)
    field = FieldProfile(b0=0.0, g=0.002, gbar=40.0)
    report = validate_levels(system, field, [(1.5, 0), (-0.5, 1)], tol=1e-8)
    assert type(report.passed()) is bool and report.passed()
    assert json.loads(json.dumps(report.to_dict()))["passed"] is True


def test_converged_spectrum_calls_no_closed_form_rule(monkeypatch):
    # the oracle checks the closed forms, so it must reach its answers, and
    # its own dissociation refusal, with every closed-form energy, mbar and
    # the closed forms' dissociation rule out of reach
    system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1.1e5, offset=2e-6)
    field = FieldProfile(b0=0.0, g=0.002, gbar=40.0)
    expected = [converged_spectrum(system, field, m, 5) for m in system.levels()]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a closed form")

    for module in (core, oracle):
        for name in (
            "energy_level", "effective_frequency", "scaled_spin_number",
            "_mbar", "_sector", "_require_bound",
        ):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for m, (values, report) in zip(system.levels(), expected):
        got, got_report = converged_spectrum(system, field, m, 5)
        assert np.array_equal(got, values)
        assert got_report == report
    with pytest.raises(DissociationError, match="unbounded below"):
        converged_spectrum(system, replace(field, gbar=1e9), 1.5, 3)
    # criterion 4's boundary: mbar == 1 exactly is refused by the oracle too
    boundary = SpinSystem(mass=2.0 * HBAR, gamma=1.0, spin=1.0, omega=1.0, offset=0.0)
    with pytest.raises(DissociationError, match="unbounded below"):
        converged_spectrum(boundary, FieldProfile(0.0, 0.0, 1.0), 1.0, 3)


@pytest.mark.parametrize("bound_fraction", [None, 0.6])
def test_meshing_hints_change_cost_not_answers(monkeypatch, bound_fraction):
    # auto_grid's center and width are hints: moving the center by 0.5 to 2
    # oscillator lengths, or sizing the width as if mbar were 0.7x or 1.3x,
    # leaves every converged eigenvalue within tol.  The quickstart's mbar is
    # about 4e-6, so a second field puts the worst sector at mbar = 0.6.
    system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1.1e5, offset=2e-6)
    field = FieldProfile(b0=0.0, g=0.002, gbar=40.0)
    if bound_fraction is not None:
        field = replace(field, gbar=bound_fraction * gbar_critical(system))
    tol = 1e-10
    expected = {m: converged_spectrum(system, field, m, 5, tol)[0] for m in system.levels()}
    place = oracle.auto_grid
    for shift in (0.5, -1.0, 2.0):
        for factor in (0.7, 1.3):

            def perturbed(system, field, m, k, n_points):
                grid = place(system, field, m, k, n_points)
                mbar = scaled_spin_number(system, field, m)
                stretch = ((1.0 - mbar) / (1.0 - factor * mbar)) ** 0.25
                half = 0.5 * (grid.u_max - grid.u_min) * stretch
                center = 0.5 * (grid.u_max + grid.u_min) + shift
                return Grid(center - half, center + half, n_points, grid.length_scale)

            monkeypatch.setattr(oracle, "auto_grid", perturbed)
            for m, want in expected.items():
                got, _ = converged_spectrum(system, field, m, 5, tol)
                assert np.all(np.abs(got - want) <= tol * np.abs(want)), (shift, factor, m)


#: Crossing check: the oracle's E_a - E_b at a crossing is within
#: CROSSING_TOL of the larger of hbar*omega and |E_a| (a converged crossing
#: stops at 1e-10 of its level energy, which near dissociation exceeds
#: hbar*omega many times), and changes sign over gbar +- delta, where the
#: oracle's slope puts 10 times that bound at delta.  The oracle solves to
#: 1e-10, so its own error stays far inside both.
CROSSING_TOL = 1e-8


def crossing_scans(rng, count):
    """(system, field, gbar_range, levels, steps) of seeded crossing scans:
    the scenario kinds of ``test_bit_identity`` in turn (random traps, b0 = g
    = 0 at the trap minimum over a symmetric range, gamma = 0 and a unit
    system), each scanned up to 0.999 of the dissociation bound.  Every
    eighth scan instead centres a random trap in a field without gradient
    (the oracle's grid cannot follow a sector centre that runs off as 1/(1 -
    mbar)), sets b0 so that the adverse sector crosses its neighbour at mbar
    between 0.99 and 0.999, and scans just that pair near the bound."""
    for k in range(count):
        kind = k % 4
        system, field, _ = random_stable_scenario(
            rng, zero_b0=bool(k % 2), spin_choices=(0.5, 1.0, 1.5, 2.0, 2.5)
        )
        if kind == 1:
            system, field = replace(system, offset=0.0), replace(field, b0=0.0, g=0.0)
        elif kind == 2:  # parallel or coincident levels: no crossing to check
            system = replace(system, gamma=0.0)
        elif kind == 3:
            system = SpinSystem(mass=1.0, gamma=1.0, spin=system.spin, omega=1.0)
            field = ZERO_FIELD
        n_max = int(rng.integers(0, 4))
        levels = [(m, n) for m in system.levels() for n in range(n_max + 1)]
        rng.shuffle(levels)
        steps = int(2 ** rng.uniform(4.0, 8.0))
        crit = gbar_critical(system) if system.gamma else abs(field.gbar)
        g_lo, g_hi = sorted(0.999 * crit * rng.uniform(-1.0, 1.0, 2))
        if k % 8 == 4:
            up = math.copysign(1.0, system.gamma)  # gbar > 0 unbinds M = up * S first
            levels = [(up * system.spin, int(rng.integers(4))), (up * (system.spin - 1.0), 0)]
            system = replace(system, offset=0.0)
            at = FieldProfile(0.0, 0.0, rng.uniform(0.99, 0.999) * crit)
            gap = energy_level(system, at, *levels[0]) - energy_level(system, at, *levels[1])
            field = FieldProfile(gap / (system.gamma * HBAR * up), 0.0, 0.0)
            g_lo, g_hi = 0.98 * crit, 0.9995 * crit
        if kind in (1, 3):  # gbar = 0, where equal-n levels meet, on the grid
            g_hi = max(-g_lo, g_hi)
            g_lo, steps = -g_hi, 2 * (steps // 2)
        yield system, field, (g_lo, g_hi), levels[:10], steps


def oracle_gap(system, field, gbar, level_a, level_b):
    """E_a - E_b from the grid oracle at ``gbar``, with |E_a|."""
    at = replace(field, gbar=gbar)
    (ma, na), (mb, nb) = level_a, level_b
    e_a = converged_spectrum(system, at, ma, na + 1, 1e-10)[0][na]
    e_b = converged_spectrum(system, at, mb, nb + 1, 1e-10)[0][nb]
    return float(e_a - e_b), abs(float(e_a))


def assert_oracle_crossing(system, field, crossing, g_scale):
    def gap_at(offset):
        gbar = crossing.gbar + offset
        return oracle_gap(system, field, gbar, crossing.level_a, crossing.level_b)

    gap, e_a = gap_at(0.0)
    bound = CROSSING_TOL * max(HBAR * system.omega, e_a)
    assert abs(gap) <= bound, crossing
    step = 1e-6 * g_scale
    delta = 10.0 * bound * step / abs(gap_at(step)[0] - gap)
    assert gap_at(-delta)[0] * gap_at(delta)[0] < 0.0, crossing


def test_crossings_agree_with_the_oracle():
    # one seeded crossing of each of 200 scans, and every crossing of the
    # figure-1 scan, is a sign change of the oracle's own E_a - E_b
    rng = np.random.default_rng(31)
    checked = []
    for system, field, gbar_range, levels, steps in crossing_scans(rng, 200):
        found = [c for c in crossing_scan(system, field, gbar_range, levels, steps).crossings
                 if c.converged]
        if found:
            crossing = found[int(rng.integers(len(found)))]
            assert_oracle_crossing(system, field, crossing, max(map(abs, gbar_range)))
            checked.append(max(scaled_spin_number(system, replace(field, gbar=crossing.gbar), m)
                               for m in (crossing.level_a[0], crossing.level_b[0])))
    assert len(checked) >= 100 and sum(mbar > 0.99 for mbar in checked) >= 20

    scenario = figure1_scenario()
    result = crossing_scan(scenario.system, scenario.field,
                           (scenario.gbar_min, scenario.gbar_max), scenario.all_levels(),
                           scenario.scan_steps)
    assert len(result.crossings) == 39
    for crossing in result.crossings:
        assert_oracle_crossing(scenario.system, scenario.field, crossing, scenario.gbar_max)


#: Line check: the oracle stops once each eigenvalue moves by at most 0.1 *
#: tol of its scale, max(|E| / hbar*omega, half the sector spacing), between
#: two grids; a line, in units of hbar*omega, is then within LINE_TOL (ten
#: times that) of the sum of its two levels' scales.
LINE_TOL = 1e-10


def test_lines_agree_with_the_oracle():
    # every line of all three rules, in 200 random traps, is a difference of
    # the oracle's eigenvalues; every eighth trap has no gradient and binds
    # its adverse sector at 0.99-0.999 of the dissociation bound
    rng = np.random.default_rng(47)
    checked, near = 0, []
    for k in range(200):
        system, field, m = random_stable_scenario(rng, spin_choices=(0.5, 1.0, 1.5, 2.0, 2.5))
        if k % 8 == 4:
            system = replace(system, offset=0.0)
            bound = math.copysign(gbar_critical(system), field.gbar)
            field = FieldProfile(field.b0, 0.0, rng.uniform(0.99, 0.999) * bound)
        n, n_max = (int(v) for v in rng.integers(0, 4, 2))
        levels = {}  # (M, n): (E / hbar*omega, the oracle's scale)
        for mq in system.levels():
            values, _ = converged_spectrum(system, field, mq, max(n + 2, n_max + 1), LINE_TOL)
            spacing = math.sqrt(1.0 - scaled_spin_number(system, field, mq))
            for j, value in enumerate((values / (HBAR * system.omega)).tolist()):
                levels[mq, j] = value, max(abs(value), 0.5 * spacing)
        near.append(max(scaled_spin_number(system, field, mq) for mq in system.levels()))
        lines = [
            *transition_lines(system, field, n),
            *transition_lines(system, field, n, "deltaN1_fixed_M", m=m),
            *transition_lines(system, field, n, "all_pairs_within", n_max=n_max),
        ]
        for line in lines:
            e_to, s_to = levels[line.m_to, line.n_to]
            e_from, s_from = levels[line.m_from, line.n_from]
            error = abs(line.frequency_hz * 2.0 * math.pi / system.omega - (e_to - e_from))
            assert error <= LINE_TOL * (s_to + s_from), (k, line)
        checked += len(lines)
    assert checked >= 5000 and sum(mbar > 0.99 for mbar in near) == 25
