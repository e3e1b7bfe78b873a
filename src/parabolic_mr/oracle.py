"""Independent grid diagonalization of the per-projection Hamiltonian.

For a fixed spin projection M the Hamiltonian is

    H_M = -hbar^2/(2*mass) d^2/dx^2 + mass*omega^2*(x - a)^2/2
          - gamma*hbar*M*(b0 + g*x + gbar*x^2)

It is represented in the sinc discrete variable representation (sinc-DVR)
of Colbert & Miller, J. Chem. Phys. 96, 1982 (1992), on a uniform grid in
the dimensionless coordinate u = x/lambda, lambda = sqrt(hbar/(mass*omega)),
with energies in units of hbar*omega.  The potential is diagonal and the
kinetic matrix is dense:

    H_ij = T_ij + delta_ij * V_M(lambda*u_i)/(hbar*omega)
    T_ij = 1/(2*du^2) * (pi^2/3 if i == j else 2*(-1)^(i-j)/(i-j)^2)

T_ij depends on |i - j| alone: each row of T is a window of the first row
mirrored about its first entry.  T of ``MAX_DVR_POINTS`` points (a ``Grid``
refuses more) is built once, at import, as a view of that mirrored row, and
every grid's T is its leading block.  A solve evaluates the potential, makes
one scaled copy of the block, adds the potential through a view of its
diagonal and runs the eigensolve, which takes most of its time.

This is the uniform-grid idea of the Fourier-grid Hamiltonian (Marston &
Balint-Kurti, J. Chem. Phys. 91, 3571 (1989)).  For the Gaussian-tailed
bound states here the eigenvalues converge faster than any power of du, so
about a hundred points reach 1e-11 relative for five levels.  Domains are
sized so the analytic wavefunction tail at the grid edge is below 1e-16.

``converged_spectrum`` grows the point count 1.5x per step on a fixed domain
until two successive solves agree, and records how near they came to that
bound (``margin``); each solve is a dense symmetric eigendecomposition
(LAPACK through ``numpy.linalg``), which is deterministic.

This module validates the closed forms in :mod:`parabolic_mr.core`; it never
calls them for the quantities under test (the potential above is typed out
directly).  Its meshing hints (the grid center and width) and its own
dissociation check type out mbar here too, apart from the closed forms' rule;
``energy_level`` is called only to compare against, in ``validate_levels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import HBAR, oscillator_length
from .core import FieldProfile, SpinSystem, _projection, _require_int, energy_level
from .errors import ConvergenceError, DissociationError

#: Smallest relative tolerance ``converged_spectrum`` accepts.  Successive
#: solves stop agreeing near 2e-13 relative (round-off in the dense
#: eigensolver), so 0.1*tol must stay above that.
MIN_TOL = 1e-11

#: Smallest grid, and the first one ``converged_spectrum`` tries.
MIN_GRID_POINTS = 64

#: Cap on the grid size (matrix dimension) of one sector solve.  The dense
#: float64 matrix takes 8*N^2 bytes, 32 MiB at the cap, and the eigensolver
#: copies it once more.
MAX_DVR_POINTS = 2048

#: Tail margin beyond the classical turning point, in effective lengths.
#: exp(-u^2/2) < 1e-16 requires u > 8.6; 9 keeps the edge error negligible.
TAIL_MARGIN = 9.0


@dataclass(frozen=True)
class Grid:
    """Uniform grid in the dimensionless coordinate u = x/length_scale.

    ``length_scale`` is meters per grid unit, the system's oscillator length.
    """

    u_min: float
    u_max: float
    n_points: int
    length_scale: float

    def __post_init__(self) -> None:
        if not (self.u_min < self.u_max):
            raise ValueError("grid too coarse: u_min must be below u_max")
        if not MIN_GRID_POINTS <= self.n_points <= MAX_DVR_POINTS:
            raise ValueError(
                f"grid too coarse or too fine: need {MIN_GRID_POINTS} to {MAX_DVR_POINTS} points"
            )

    @property
    def du(self) -> float:
        return (self.u_max - self.u_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.n_points)


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """Dense symmetric matrix of H_M/(hbar*omega), one row per point of ``grid``."""

    hamiltonian: np.ndarray
    m_quantum: float
    grid: Grid

    def __post_init__(self) -> None:
        n = self.grid.n_points
        if self.hamiltonian.shape != (n, n):
            raise ValueError(f"hamiltonian must be a {n} x {n} matrix, one row per grid point")

    def __len__(self) -> int:
        """Matrix dimension (the number of grid points)."""
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class SectorConvergence:
    """Convergence record of one sector solve; an unconverged one raises instead."""

    m_quantum: float
    #: grid of the last (converged) solve
    grid: Grid
    #: largest |E_N - E_prev| of the last two solves in units of their bound, in [0, 1]
    margin: float
    #: number of grid sizes solved, the converged one included
    refinements: int


@dataclass(frozen=True)
class LevelRecord:
    m_quantum: float
    n: int
    analytic_j: float
    numeric_j: float
    rel_error: float
    #: the level's oscillator scale hbar*omega*sqrt(1 - mbar)*(n + 1/2), J
    scale_j: float


@dataclass(frozen=True)
class ValidationReport:
    """Analytic-vs-numeric comparison over a set of levels.

    A level passes when its error is below ``tolerance`` relative to |E| or
    at most ``tolerance`` times its oscillator scale, so a level near E = 0
    is judged on the scale of its spacing; the report passes when every
    level passes (an unconverged sector raises).  ``max_rel_error`` is
    relative to |E| alone, inf at E = 0, which ``to_dict`` writes as null.
    """

    records: tuple[LevelRecord, ...]
    sectors: tuple[SectorConvergence, ...]
    tolerance: float
    converged: bool
    max_rel_error: float

    def passed(self) -> bool:
        return all(
            r.rel_error < self.tolerance
            or abs(r.numeric_j - r.analytic_j) <= self.tolerance * r.scale_j
            for r in self.records
        )

    def judged_error(self) -> float:
        """The error ``passed`` judges: the largest, over levels, of the smaller
        of a level's |E| and oscillator-scale errors."""
        return max(
            min(r.rel_error, abs(r.numeric_j - r.analytic_j) / r.scale_j) for r in self.records
        )

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "converged": self.converged,
            "max_rel_error": self.max_rel_error if math.isfinite(self.max_rel_error) else None,
            "passed": self.passed(),
            "records": [
                {
                    "m_quantum": r.m_quantum,
                    "n": r.n,
                    "analytic_J": r.analytic_j,
                    "numeric_J": r.numeric_j,
                    "rel_error": r.rel_error if math.isfinite(r.rel_error) else None,
                }
                for r in self.records
            ],
            "sectors": [
                {
                    "m_quantum": s.m_quantum,
                    "n_points": s.grid.n_points,
                    "u_min": s.grid.u_min,
                    "u_max": s.grid.u_max,
                    "length_scale_m": s.grid.length_scale,
                    "refinements": s.refinements,
                }
                for s in self.sectors
            ],
        }


def _bound_mbar(system: SpinSystem, field: FieldProfile, mq: float) -> float:
    """mbar of a validated projection; refuses a sector unbounded below (mbar >= 1).

    Typed out in the closed forms' operation order, so no grid moves."""
    mbar = 2.0 * system.gamma * field.gbar * HBAR * mq / (system.omega**2 * system.mass)
    if mbar >= 1.0:
        raise DissociationError(
            f"unbounded below: no discrete spectrum guaranteed for m_quantum={mq} "
            f"(mbar={mbar})"
        )
    return mbar


def auto_grid(
    system: SpinSystem,
    field: FieldProfile,
    m: float,
    k: int,
    n_points: int,
) -> Grid:
    """Grid centered on the sector eigenfunctions, sized for the k lowest levels.

    The center is x_c = a + gamma*(g + 2*gbar*a)*hbar*M / (mass*omega_eff^2).
    The half-width is (sqrt(2k+1) + 9) effective oscillator lengths, i.e. the
    classical turning point of level k plus the tail margin.
    """
    mq = _projection(system, m)
    mbar = _bound_mbar(system, field, mq)
    lam = oscillator_length(system.mass, system.omega)
    if lam == 0.0:
        raise ValueError(f"grid of m_quantum={mq} cannot be resolved: oscillator length underflows")
    gradient = field.g + 2.0 * field.gbar * system.offset
    shift = system.gamma * gradient * HBAR * mq / (system.mass * system.omega**2 * (1.0 - mbar))
    u_center = (system.offset + shift) / lam
    stretch = (1.0 - mbar) ** -0.25  # effective length / base length
    half_width = (math.sqrt(2.0 * k + 1.0) + TAIL_MARGIN) * stretch
    if not half_width > MAX_DVR_POINTS * math.ulp(u_center):  # finest grid: distinct doubles
        raise ValueError(
            f"grid of m_quantum={mq} cannot be resolved in double precision: centre {u_center:.3g}"
        )
    return Grid(u_center - half_width, u_center + half_width, n_points, lam)


def _mirrored_kinetic_row(n_points: int) -> np.ndarray:
    """Unscaled row r_0 = pi^2/3, r_d = 2(-1)^d/d^2, mirrored: r_{n-1} .. r_0 .. r_{n-1}."""
    d = np.arange(1, n_points)
    row = np.concatenate(([math.pi**2 / 3.0], np.where(d % 2 == 0, 2.0, -2.0) / (d * d)))
    return np.concatenate((row[:0:-1], row))


#: Unscaled T of the largest grid; row i is the mirrored row's window from entry MAX - 1 - i.
_KINETIC = sliding_window_view(_mirrored_kinetic_row(MAX_DVR_POINTS), MAX_DVR_POINTS)[::-1]


def _kinetic_matrix(n_points: int, du: float) -> np.ndarray:
    """Sinc-DVR matrix of -(1/2) d^2/du^2 on n_points uniform points (a block of T)."""
    return _KINETIC[:n_points, :n_points] / (2.0 * du * du)


def build_sector_hamiltonian(
    system: SpinSystem,
    field: FieldProfile,
    m: float,
    grid: Grid,
) -> SectorMatrix:
    """Sinc-DVR matrix of H_M/(hbar*omega) on ``grid``."""
    mq = _projection(system, m)
    lam = grid.length_scale
    if lam != oscillator_length(system.mass, system.omega):
        raise ValueError("grid length scale is not the system's oscillator length")
    u = grid.points()
    x = lam * u
    a = system.offset
    # V_M(x)/(hbar*omega): trap term in grid units plus the spin-field coupling
    with np.errstate(all="ignore"):
        trap = 0.5 * (u - a / lam) ** 2
        coupling = (system.gamma * mq / system.omega) * (
            field.b0 + field.g * x + field.gbar * x * x
        )
        v = trap - coupling
    if not np.all(np.isfinite(v)):
        raise ValueError("potential not finite on the grid domain")
    hamiltonian = _kinetic_matrix(grid.n_points, grid.du)
    hamiltonian.reshape(-1)[:: grid.n_points + 1] += v  # the diagonal, as a view
    return SectorMatrix(hamiltonian, mq, grid)


def _check_k(mat: SectorMatrix, k: int) -> None:
    if not (1 <= k <= len(mat)):
        raise ValueError(f"k={k} out of range for matrix of size {len(mat)}")


def lowest_eigenpairs(mat: SectorMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest (eigenvalue, eigenvector) pairs of the symmetric matrix.

    Eigenvalues ascend.  Eigenvectors come back as columns normalized under
    the grid quadrature weight (sum |psi_i|^2 du = 1), with a deterministic
    sign (largest-magnitude component positive).
    """
    _check_k(mat, k)
    values, vectors = np.linalg.eigh(mat.hamiltonian)
    vectors = vectors[:, :k] / math.sqrt(mat.grid.du)
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)]
    return values[:k], vectors * np.where(lead < 0.0, -1.0, 1.0)


def lowest_eigenvalues(mat: SectorMatrix, k: int) -> np.ndarray:
    """Values-only fast path of :func:`lowest_eigenpairs`."""
    _check_k(mat, k)
    return np.linalg.eigvalsh(mat.hamiltonian)[:k]


def expectation_position(vec: np.ndarray, grid: Grid) -> float:
    """<x> = sum x_i |psi_i|^2 dx for a quadrature-normalized eigenvector, in m."""
    du = grid.du
    u_mean = float(np.sum(grid.points() * vec * vec) * du)
    return grid.length_scale * u_mean


def converged_spectrum(
    system: SpinSystem,
    field: FieldProfile,
    m: float,
    k: int,
    tol: float = 1e-8,
) -> tuple[np.ndarray, SectorConvergence]:
    """Grid-converged lowest k eigenvalues of sector M, in joules.

    Solves on grids of max(64, 2k) points and up, 1.5x more each step, and
    stops once two successive solves agree per-eigenvalue to 0.1*tol
    relative (the comparison scale is floored at half the sector level
    spacing so eigenvalues passing through zero cannot stall the check).
    Raises ``ValueError`` for tol below ``MIN_TOL``, ``ConvergenceError`` if
    the next grid would exceed ``MAX_DVR_POINTS``, and ``DissociationError``
    for mbar >= 1.
    """
    mq = _projection(system, m)
    if not (tol >= MIN_TOL):
        raise ValueError(f"tol must be at least {MIN_TOL:g}")
    mbar = _bound_mbar(system, field, mq)
    spacing = math.sqrt(1.0 - mbar)  # level spacing in hbar*omega units

    # a grid's highest eigenvalues are discretisation artefacts: start at 2k points
    n_points = max(MIN_GRID_POINTS, 2 * k)
    previous: np.ndarray | None = None
    refinements = 0
    while n_points <= MAX_DVR_POINTS:
        grid = auto_grid(system, field, mq, k, n_points)
        values = lowest_eigenvalues(build_sector_hamiltonian(system, field, mq, grid), k)
        refinements += 1
        if previous is not None:
            change = np.abs(values - previous)
            bound = 0.1 * tol * np.maximum(np.abs(values), 0.5 * spacing)
            if np.all(change <= bound):
                report = SectorConvergence(mq, grid, float(np.max(change / bound)), refinements)
                return HBAR * system.omega * values, report
        previous = values
        n_points = n_points * 3 // 2
    raise ConvergenceError(
        f"oracle did not converge for m_quantum={mq} within {MAX_DVR_POINTS} points"
    )


def validate_levels(
    system: SpinSystem,
    field: FieldProfile,
    levels,
    tol: float = 1e-8,
) -> ValidationReport:
    """Compare closed-form energies against the converged grid spectrum.

    ``levels`` is an iterable of (M, n) pairs, whose M and n are checked in one
    array call each before any solve, as :func:`energy_level` checks them;
    each distinct M triggers one sector solve sized for its largest n.  Each
    record carries its relative error and its oscillator scale, from which
    :meth:`ValidationReport.passed` judges it.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("no levels requested")
    ms = _projection(system, np.array([m for m, _ in levels]))
    ns = _require_int(np.array([n for _, n in levels]))
    wanted: dict[float, list[int]] = {}
    for mq, n in zip(ms.tolist(), ns.tolist()):
        wanted.setdefault(mq, []).append(n)

    records: list[LevelRecord] = []
    sectors: list[SectorConvergence] = []
    for mq in sorted(wanted):
        ns = sorted(set(wanted[mq]))
        numeric, report = converged_spectrum(system, field, mq, ns[-1] + 1, tol)
        sectors.append(report)
        spacing_j = HBAR * system.omega * math.sqrt(1.0 - _bound_mbar(system, field, mq))
        analytics = energy_level(system, field, mq, np.array(ns)).tolist()
        for n, analytic, num in zip(ns, analytics, numeric[ns].tolist()):
            rel = abs(num - analytic) / abs(analytic) if abs(analytic) > 0.0 else math.inf
            records.append(LevelRecord(mq, n, analytic, num, rel, spacing_j * (n + 0.5)))
    max_rel = max(r.rel_error for r in records)
    # converged is True (an unconverged sector raised); bench/workloads.py's check reads it
    return ValidationReport(tuple(records), tuple(sectors), tol, True, max_rel)
