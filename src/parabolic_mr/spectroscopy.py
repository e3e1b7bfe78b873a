"""Observables built on the closed-form spectrum.

Transition-line lists, level-crossing scans versus the quadratic field
parameter, and the inverse problem of recovering the trap frequency from the
spin-sublevel splittings of a single oscillator level.

Line energies come from one pair kernel: ``_level_parts`` reads a level's
sqrt(1 - mbar) from ``core._sector``, and ``_pair_from_parts`` forms the
analytically cancelled difference of two eigenvalues from two levels' parts,
rather than a subtraction of two large energies; besides avoiding
cancellation error, this makes the homogeneous-field line set (g = gbar = 0)
exactly independent of omega, bit for bit, which is the physical statement
that a uniform field cannot reveal the trap frequency.

Line lists, scans and the inversion derive each level's parts once and pair
them: a line list in one array call, which names its worst unbound sector,
paired as Python floats; a scan over numpy arrays whose level pairs are the
rows of pair-grid blocks.  Crossing bisections and the inversion's
golden-section searches run in rounds over the steps each predicts, one
kernel call per block, keeping the scalar searches' points and comparisons.
Arguments are checked once per scan or line list, and each array element is
bit-identical to the scalar evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, TWO_PI
from .core import (
    FieldProfile,
    SpinSystem,
    _gradient_at_offset,
    _field_at_offset,
    _mbar,
    _omega_floor,
    _projection,
    _require_int,
    _sector,
    _square,
    energy_level,
)
from .errors import DissociationError, InversionError

SELECTION_RULES = ("deltaM1_fixed_n", "deltaN1_fixed_M", "all_pairs_within")

#: Most lines ``all_pairs_within`` may build: it pairs every two of the
#: (2S + 1)(n_max + 1) levels, one Python object per line; 261003 lines took
#: 1.2-1.6 s and 78 MB of peak RSS on a 2 vCPU Xeon, and the largest config
#: would ask for about 5e11.
MAX_LINES = 2**18

#: Most pair-grid points a ``crossing_scan`` may evaluate, pairs x (steps + 1): 984906 x 17,
#: 484890 crossings, took 7.4 s and 356 MB on a 2 vCPU Xeon; the largest config asks 4e16.
MAX_SCAN_EVALUATIONS = 2**24

#: Most values one kernel call evaluates, in whole rows: a crossing scan's pair-grid
#: points, the inversion's line values; 2**13 (64 KB arrays) beat 2**12, 2**14, 2**16.
SCAN_BLOCK_POINTS = 2**13

#: Bisection steps per bracketed crossing; a bracket still open after them is
#: reported at its midpoint with ``converged=False``.
MAX_BISECTION_STEPS = 200

#: Bisection steps one round predicts per bracket; a guess from three grid
#: points holds for a median 15 steps of the benchmark's scans.
BISECTION_ROUND_STEPS = 20

#: Golden-section steps k one round covers; a basin adds the 2**k - 1 points
#: they may need as rows (k = 4 beat 2, 3 and 5).
GOLDEN_ROUND_STEPS = 4


@dataclass(frozen=True)
class TransitionLine:
    """One spectral line between labeled levels; delta_e is a magnitude (J)."""

    m_from: float
    n_from: int
    m_to: float
    n_to: int
    delta_e: float
    frequency_hz: float


@dataclass(frozen=True)
class CrossingPoint:
    """A gbar value where two labeled levels coincide.

    ``converged`` is False when bisection froze or hit ``MAX_BISECTION_STEPS``
    before meeting its stop rule; ``gbar`` is then the last bracket's midpoint.
    """

    gbar: float
    level_a: tuple[float, int]
    level_b: tuple[float, int]
    energy: float
    bracket_width: float
    converged: bool = True


@dataclass(frozen=True)
class CrossingScanResult:
    crossings: tuple[CrossingPoint, ...]
    #: pairs degenerate over the whole scan ("degenerate, no isolated crossings")
    degenerate_pairs: tuple[tuple[tuple[float, int], tuple[float, int]], ...]


@dataclass(frozen=True)
class InversionResult:
    omega_estimate: float
    residual_rms_hz: float
    bracket: tuple[float, float]
    identifiable: bool
    reason: str | None = None


def _pair_delta_e(system: SpinSystem, field: FieldProfile, level_a, level_b) -> float:
    """Signed E_a - E_b, with the common Zeeman and shift factors cancelled, of
    levels (M, n) with checked M; like :func:`energy_level`, it broadcasts."""
    parts = _level_parts(system, field, level_a), _level_parts(system, field, level_b)
    return _pair_from_parts(system, field, *parts)


def _level_parts(system: SpinSystem, field: FieldProfile, level):
    """(M, (n + 1/2) sqrt(1 - mbar), M^2 / (1 - mbar)): a level's share of a pair."""
    m, n = level
    _, root = _sector(system, field, m)
    return m, (n + 0.5) * root, m * m / (root * root)


def _pair_from_parts(system: SpinSystem, field: FieldProfile, parts_a, parts_b) -> float:
    """E_a - E_b from the :func:`_level_parts` of the two levels."""
    (ma, osc_a, shift_a), (mb, osc_b, shift_b) = parts_a, parts_b
    osc = HBAR * system.omega * (osc_a - osc_b)
    zeeman = system.gamma * _field_at_offset(system, field) * HBAR * (ma - mb)
    slope = system.gamma * _gradient_at_offset(system, field)
    shift_scale = slope * slope * HBAR * HBAR / (2.0 * system.mass * system._omega_squared)
    return osc - zeeman - shift_scale * (shift_a - shift_b)


def transition_lines(
    system: SpinSystem,
    field: FieldProfile,
    n: int = 0,
    rule: str = "deltaM1_fixed_n",
    *,
    m: float | None = None,
    n_max: int | None = None,
    cutoff_hz: float | None = None,
) -> list[TransitionLine]:
    """Spectral lines under a selection rule, sorted by ascending frequency.

    deltaM1_fixed_n   the 2S lines between adjacent projections at fixed n
                      (the spin-sublevel spectrum of one oscillator level);
    deltaN1_fixed_M   lines (m, j) -> (m, j+1) for j = 0..n, for the fixed
                      projection given by ``m``;
    all_pairs_within  every pair of distinct levels with quantum numbers up
                      to ``n_max`` (default: n), optionally dropping finite
                      lines above ``cutoff_hz``; more than ``MAX_LINES``
                      candidate lines raise ``ValueError`` before any level is
                      evaluated.

    One array call of :func:`_level_parts` derives the rule's levels' parts,
    and each line pairs two of them as Python floats (:func:`_pair_from_parts`).
    That call raises :class:`DissociationError` naming the worst unbound
    projection (the largest mbar, the first on a tie) the rule involves.
    """
    n = _require_int(n)
    if rule not in SELECTION_RULES:
        raise ValueError(f"unknown selection rule {rule!r} (expected one of {SELECTION_RULES})")

    if rule == "all_pairs_within":
        top = n if n_max is None else _require_int(n_max, "n_max")
        ladder = system.levels()
        size = len(ladder) * (top + 1)
        if size * (size - 1) // 2 > MAX_LINES:
            raise ValueError(
                f"all_pairs_within asks for {size * (size - 1) // 2} lines, more than {MAX_LINES}"
            )
        levels = [(mq, j) for mq in ladder for j in range(top + 1)]
        pairs = itertools.combinations(range(size), 2)
    else:  # neighbours, the upper level first
        if rule == "deltaM1_fixed_n":
            levels = [(mq, n) for mq in system.levels()]
        elif m is None:
            raise ValueError("rule deltaN1_fixed_M requires the fixed projection m")
        else:
            mq = _projection(system, m)
            levels = [(mq, j) for j in range(n + 2)]
        pairs = ((i + 1, i) for i in range(len(levels) - 1))

    ms, ns = np.array(levels, dtype=float).T
    with np.errstate(all="ignore"):
        _, osc, shift = _level_parts(system, field, (ms, ns))
    parts = list(zip(ms.tolist(), osc.tolist(), shift.tolist()))
    lines = []
    for i, j in pairs:
        de = _pair_from_parts(system, field, parts[i], parts[j])
        if de >= 0.0:  # only a negative difference is negated: -0.0 stays
            lo, hi = levels[j], levels[i]
        else:
            lo, hi, de = levels[i], levels[j], -de
        lines.append(TransitionLine(*lo, *hi, de, de / (TWO_PI * HBAR)))
    if cutoff_hz is not None:
        # a line past double precision is kept, so it is not mistaken for a high one
        lines = [
            l for l in lines if l.frequency_hz <= cutoff_hz or not math.isfinite(l.frequency_hz)
        ]
    lines.sort(key=lambda l: (l.frequency_hz, l.m_from, l.n_from, l.m_to, l.n_to))
    return lines


def _scan_grid(lo: float, hi: float, intervals: int) -> np.ndarray:
    """The ``intervals + 1`` points lo + (hi - lo) * i / intervals of a scan."""
    return lo + (hi - lo) * np.arange(intervals + 1) / intervals


def crossing_scan(
    system: SpinSystem,
    field_base: FieldProfile,
    gbar_range: tuple[float, float],
    levels,
    steps: int = 64,
) -> CrossingScanResult:
    """Locate level crossings of E_{M,n}(gbar) over a gbar range.

    Evaluates every pair's energy difference on a ``steps``-interval grid,
    brackets sign changes, and bisects each to relative gbar width 1e-10 and
    |E_a - E_b| < 1e-10 * max(|E_a|, |E_b|).  The range is clipped to the
    intersection of all sectors' stability intervals.  The result holds the
    crossings, sorted by gbar, and the pairs degenerate over the whole scan.
    An even number of roots inside one grid interval (a touching pair, or two
    close crossings) leaves no sign flip and is not reported; a finer
    ``steps`` resolves it.

    The levels' M and n are checked in one array call each.  The pairs, in
    (i, j) order, are the rows of blocks of at most ``SCAN_BLOCK_POINTS``
    points, one kernel call each; more than ``MAX_SCAN_EVALUATIONS`` raise
    ``ValueError`` before any is evaluated.  One product of neighbouring
    points' signs brackets a block's flips.  Every crossing, grid zeros too,
    closes in the rounds of :func:`_bisect_crossings`, whose calls also stay
    within ``SCAN_BLOCK_POINTS`` points, bit-identical to the scalar calls; a
    frozen or step-capped one has ``converged=False``.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("empty level list")
    if _require_int(steps, "steps") < 16:
        raise ValueError("steps must be at least 16")
    size = len(levels) * (len(levels) - 1) // 2 * (steps + 1)
    if size > MAX_SCAN_EVALUATIONS:
        raise ValueError(f"scan of {size} pair-grid points, more than {MAX_SCAN_EVALUATIONS}")
    ms = _projection(system, np.array([m for m, _ in levels]))
    ns = _require_int(np.array([nn for _, nn in levels]))
    level_list = list(zip(ms.tolist(), ns.tolist()))
    if len(set(level_list)) != len(level_list):
        raise ValueError("identical levels in pair list: each (m_quantum, n) must be unique")
    g_lo, g_hi = float(gbar_range[0]), float(gbar_range[1])
    if not (g_lo < g_hi):
        raise ValueError("gbar_range must be an increasing pair")

    with np.errstate(all="ignore"):
        # sector M is bound while gbar * slope < 1, i.e. on zero's side of 1/slope
        slopes = _mbar(system, replace(field_base, gbar=1.0), ms)  # mbar per unit gbar
        bounds = 1.0 / slopes[slopes != 0.0]
        lo_allowed = float(bounds[bounds < 0.0].max(initial=-math.inf))
        hi_allowed = float(bounds[bounds >= 0.0].min(initial=math.inf))
        finite = [abs(bound) for bound in (lo_allowed, hi_allowed) if math.isfinite(bound)]
        margin = 1e-12 * max(finite + [1.0])  # an unbounded side sets no scale
        g_lo = max(g_lo, lo_allowed + margin)
        g_hi = min(g_hi, hi_allowed - margin)
        if not (g_lo < g_hi):
            raise DissociationError("scan range entirely dissociated for the requested levels")

        g = _scan_grid(g_lo, g_hi, steps)
        g_scale = max(abs(g_lo), abs(g_hi))
        grid = replace(field_base, gbar=g)

        first, second = np.triu_indices(len(level_list), 1)  # the pairs in (i, j) order
        parts = _level_parts(system, grid, (ms[:, None], ns[:, None]))
        degenerate = []
        brackets = []  # per block: i, j, a, b, d(a), d(b), guessed root; a == b at a grid zero
        block = max(1, SCAN_BLOCK_POINTS // (steps + 1))
        for start in range(0, len(first), block):
            i, j = first[start:start + block], second[start:start + block]
            ds = _pair_from_parts(system, grid, *([p[r] for p in parts] for r in (i, j)))
            if not np.isfinite(ds).all():
                raise ValueError("level energy differences past double precision on the gbar range")
            # the intervals whose ends' signs differ, neither end zero
            rows, lo = np.nonzero(np.sign(ds[:, :-1]) * np.sign(ds[:, 1:]) < 0.0)
            hi = lo + 1
            zero = ds == 0.0
            if zero.any():
                # a pair lands on zero at the first point or from a nonzero
                # neighbour; one that is zero everywhere is degenerate
                flat = zero.all(axis=1)
                landed = zero & ~flat[:, None]
                landed[:, 1:] &= ~zero[:, :-1]
                degenerate += [(level_list[a], level_list[b]) for a, b in zip(i[flat], j[flat])]
                rows_l, at = np.nonzero(landed)
                rows, lo, hi = (np.concatenate(c) for c in ([rows_l, rows], [at, lo], [at, lo + 1]))
            far = np.where(lo > 0, lo - 1, hi + 1)  # a third grid point beside the bracket
            x0, x1, x2 = g[lo], g[hi], g[far]
            y0, y1, y2 = ds[rows, lo], ds[rows, hi], ds[rows, far]
            # the root guessed by inverse quadratic interpolation (Brent, ch. 4);
            # a grid zero or a flat triple guesses nan or inf
            guess = x0 * y1 * y2 / ((y0 - y1) * (y0 - y2)) + x1 * y0 * y2 / (
                (y1 - y0) * (y1 - y2)) + x2 * y0 * y1 / ((y2 - y0) * (y2 - y1))
            brackets.append((i[rows], j[rows], x0, x1, y0, y1, guess))

        columns = [np.concatenate(column) for column in zip(*brackets)]
        chunk = max(1, SCAN_BLOCK_POINTS // BISECTION_ROUND_STEPS)  # brackets per round call
        crossings = []
        for start in range(0, sum(len(block_i) for block_i, *_ in brackets), chunk):
            chunk_columns = [column[start:start + chunk] for column in columns]
            crossings += _bisect_crossings(system, field_base, (ms, ns), chunk_columns, g_scale)
        crossings.sort(key=lambda c: (c.gbar, c.level_a, c.level_b))
        return CrossingScanResult(tuple(crossings), tuple(degenerate))


def _bisect_crossings(
    system: SpinSystem, field_base: FieldProfile, levels, brackets, g_scale: float
) -> list[CrossingPoint]:
    """Bisect the columns (i, j, a, b, d(a), d(b), guessed root) of ``brackets``,
    d = E_i - E_j of levels i and j of the (M, n) arrays ``levels``, in rounds
    of the scalar bisection's steps: d at ``0.5 * (a + b)`` picks the half
    keeping the sign change, whose sign d has at a; a step within width 1e-10 *
    max(|a|, |b|, g_scale), at d = 0, or after ``MAX_BISECTION_STEPS`` compares
    energies and closes if converged (|E_a - E_b| <= 1e-10 * max(|E_a|, |E_b|)
    within the width, or d = 0), frozen (no double between a and b) or last;
    only the first has ``converged=True``.  A round predicts each bracket's
    next ``BISECTION_ROUND_STEPS`` midpoints toward its guess, evaluates them
    in one pair-kernel call and its tested steps in one ``energy_level`` pair,
    and keeps the prefix up to the first wrong guess; the next guess is the
    false-position root at the ends after it."""
    ms, ns = levels
    i, j, a, b, d_a, d_b, guess = brackets
    taken = np.zeros(len(a), dtype=int)  # steps each bracket has taken
    found = []
    for _ in range(MAX_BISECTION_STEPS + 1):  # a round takes at least one step
        ends_a, ends_b = [a], [b]
        for _ in range(BISECTION_ROUND_STEPS - 1):
            mid = 0.5 * (ends_a[-1] + ends_b[-1])
            ahead = mid < guess
            ends_a.append(np.where(ahead, mid, ends_a[-1]))
            ends_b.append(np.where(ahead, ends_b[-1], mid))
        path_a, path_b = np.array(ends_a), np.array(ends_b)
        mid, width = 0.5 * (path_a + path_b), path_b - path_a
        fm = _pair_delta_e(system, replace(field_base, gbar=mid), (ms[i], ns[i]), (ms[j], ns[j]))
        step = np.arange(BISECTION_ROUND_STEPS)[:, None]
        last = taken + step == MAX_BISECTION_STEPS
        right = (fm > 0.0) == (d_a > 0.0)  # the sign change lies right of mid
        # a bracket stops at its first wrong guess, or at its round's or its own last step
        final = np.minimum(BISECTION_ROUND_STEPS - 1, MAX_BISECTION_STEPS - taken)
        stop = ((right != (mid < guess)) | (step == final)).argmax(axis=0)
        width_ok = width <= 1e-10 * np.maximum(np.maximum(np.abs(path_a), np.abs(path_b)), g_scale)
        steps, cols = np.nonzero((step <= stop) & (width_ok | (fm == 0.0) | last))
        shut = np.full(len(a), BISECTION_ROUND_STEPS)  # the step each bracket closes at
        if len(cols):
            field = replace(field_base, gbar=mid[steps, cols])
            e_a = energy_level(system, field, ms[i[cols]], ns[i[cols]])
            e_b = energy_level(system, field, ms[j[cols]], ns[j[cols]])
            energy_ok = np.abs(e_a - e_b) <= 1e-10 * np.maximum(np.abs(e_a), np.abs(e_b))
            converged = (width_ok[steps, cols] & energy_ok) | (fm[steps, cols] == 0.0)
            frozen = (mid == path_a) | (mid == path_b)
            closing = np.flatnonzero(converged | frozen[steps, cols] | last[steps, cols])
            np.minimum.at(shut, cols[closing], steps[closing])  # its first closing step
            closing = closing[steps[closing] == shut[cols[closing]]]
            k, col = steps[closing], cols[closing]
            labels = [list(zip(ms[c].tolist(), ns[c].tolist())) for c in (i[col], j[col])]
            found += [CrossingPoint(*point) for point in zip(
                mid[k, col].tolist(), *labels, e_a[closing].tolist(),
                width[k, col].tolist(), converged[closing].tolist(),
            )]
        # an end after the stop step is the midpoint of the last step that moved it
        every = np.arange(len(a))
        to_a = np.maximum.accumulate(np.where(right, step, -1))[stop, every]
        to_b = np.maximum.accumulate(np.where(right, -1, step))[stop, every]
        a, d_a = np.where(to_a < 0, a, mid[to_a, every]), np.where(to_a < 0, d_a, fm[to_a, every])
        b, d_b = np.where(to_b < 0, b, mid[to_b, every]), np.where(to_b < 0, d_b, fm[to_b, every])
        guess = a - d_a * (b - a) / (d_b - d_a)
        open_ = shut == BISECTION_ROUND_STEPS
        i, j, a, b, d_a, d_b, guess, taken = (
            column[open_] for column in (i, j, a, b, d_a, d_b, guess, taken + stop + 1)
        )
        if not len(a):
            break
    return found


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_children(a, b, c, d):
    """The golden-section states after a step toward c (a new c) and toward d."""
    return (a, d, d - _INV_PHI * (d - a), c), (c, b, d, c + _INV_PHI * (b - c))


def _golden_round(a, b, c, d, known: dict):
    """One golden-section round (to relative width 1e-10): the scalar search's
    steps from (a, b, c, d) while ``known`` holds the residuals at c and d, then
    that state and the points ``known`` lacks that its next GOLDEN_ROUND_STEPS
    steps may evaluate: c or d if new, each outcome's next point, and the
    midpoint it returns once narrow; none once the search is done."""
    while c in known and d in known and (b - a) > 1e-10 * max(abs(a), abs(b)):
        a, b, c, d = _golden_children(a, b, c, d)[known[c] > known[d]]
    states, points = [(a, b, c, d)], [x for x in (c, d) if x not in known]
    for depth in range(GOLDEN_ROUND_STEPS if points else 1):
        grown = []
        for a_, b_, c_, d_ in states:
            if not (b_ - a_) > 1e-10 * max(abs(a_), abs(b_)):
                points.append(0.5 * (a_ + b_))
            elif depth < GOLDEN_ROUND_STEPS - 1:
                left, right = _golden_children(a_, b_, c_, d_)
                grown += [left, right]
                points += [left[2], right[3]]
        states = grown
    return (a, b, c, d), [x for x in points if x not in known]


def _misfits(delta_e: np.ndarray, measured: list[float]) -> np.ndarray:
    """RMS misfit (Hz) of each row of signed line energies ``delta_e`` (J)
    against the sorted ``measured`` line frequencies.

    A row's |delta E| become its sorted model lines, which pair up with the
    measured ones in order when there are as many of each; otherwise each
    measured line is matched to its nearest model line.  Squares go through
    ``core._square`` (inf past double range), and a row adds them in order
    along ``cumsum``.  A misfit that is not finite raises ``ValueError``.
    """
    model = np.sort(np.abs(delta_e) / (TWO_PI * HBAR), axis=1)
    y = np.asarray(measured)
    paired = model.shape[1] == len(measured)
    sq = _square(model - y) if paired else _square(model[:, :, None] - y).min(axis=1)
    misfits = np.sqrt(np.cumsum(sq, axis=1)[:, -1] / len(measured))
    if not np.isfinite(misfits).all():
        raise ValueError("line misfit past double precision: model lines far off the measured")
    return misfits


def identify_frequency(
    lines_hz,
    system_template: SpinSystem,
    field: FieldProfile,
    n: int,
    bracket: tuple[float, float],
    *,
    scan_points: int = 512,
) -> InversionResult:
    """Recover the trap frequency from measured spin-sublevel line frequencies.

    ``lines_hz`` holds the measured frequencies (Hz) of the adjacent-M lines
    of oscillator level ``n``; ``system_template`` supplies every parameter
    except omega, which is scanned over ``bracket`` (rad/s).  The RMS misfit
    between measured and model lines (matched in sorted order when the full
    2S-line set is given, otherwise to the nearest model line) is minimized
    by a coarse scan of ``scan_points`` omegas, then golden-section rounds to
    relative 1e-10 over the points the up to three basins' next
    ``GOLDEN_ROUND_STEPS`` steps may need (:func:`_golden_round`).  Both take
    one path: row blocks of at most ``SCAN_BLOCK_POINTS`` line values (an
    omega's 2S, times the measured lines when matched to the nearest), one array
    call each of the pair kernel and :func:`_misfits`, so memory stays bounded
    and a residual is, bit for bit, a one-row call's.

    With g = gbar = 0 the line set carries no frequency information and the
    result comes back with ``identifiable=False`` ("homogeneous field"); the
    same happens when the residual is flat over the bracket (relative
    variation below 1e-12).  A coarse scan without an interior basin raises
    :class:`InversionError`, as does a bracket edge whose coarse residual
    beats every basin and is not beaten by the best refined one; a misfit or
    bracket end past the doubles raises ``ValueError``.
    """
    measured = np.array(sorted(float(v) for v in lines_hz))
    if not len(measured):
        raise ValueError("at least one measured line is required")
    if system_template.spin == 0.0:
        raise ValueError("spin 0 has no adjacent-M lines to fit")
    n = _require_int(n)
    if _require_int(scan_points, "scan_points") < 3:
        raise ValueError("scan_points must be at least 3")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ValueError("bracket must be an increasing pair of positive rad/s values")

    if field.g == 0.0 and field.gbar == 0.0:
        return InversionResult(
            math.nan, math.nan, (lo, hi), False, "unidentifiable: homogeneous field"
        )

    # clip the bracket to frequencies at which every sector stays bound
    lo = max(lo, _omega_floor(system_template, field) * (1.0 + 1e-9))
    if not (lo < hi):
        raise InversionError("bracket does not contain optimum: entire bracket dissociated")

    levels = np.array(system_template.levels())
    # an omega's line values: 2S, times the measured lines if nearest-matched
    width = (len(levels) - 1) * (1 if len(measured) == len(levels) - 1 else len(measured))
    rows = max(1, SCAN_BLOCK_POINTS // width)

    def misfits(omegas) -> np.ndarray:
        # at each omega, of level n's adjacent-M lines, the upper level first
        # as transition_lines pairs them, in blocks of ``rows`` omegas
        omegas, fits = np.array(omegas)[:, None], []
        for start in range(0, len(omegas), rows):
            try:
                system = replace(system_template, omega=omegas[start:start + rows])
            except ValueError:  # the template is valid, so only omega can be refused
                message = "bracket ends must keep mass*omega**2 a positive finite double"
                raise ValueError(message) from None
            with np.errstate(all="ignore"):
                m, osc, shift = _level_parts(system, field, (levels, n))
                upper = (m[1:], osc[:, 1:], shift[:, 1:])
                lower = (m[:-1], osc[:, :-1], shift[:, :-1])
                fits.append(_misfits(_pair_from_parts(system, field, upper, lower), measured))
        return np.concatenate(fits)

    xs = _scan_grid(lo, hi, scan_points - 1)
    fs = misfits(xs)
    f_min, f_max = float(fs.min()), float(fs.max())
    if (f_max - f_min) <= 1e-12 * max(f_max, 1e-300):
        return InversionResult(
            math.nan, f_min, (lo, hi), False, "unidentifiable: residual flat in omega"
        )
    # an interior global minimum is a basin, so only an edge can beat them all
    basins = np.flatnonzero((fs[1:-1] <= fs[:-2]) & (fs[1:-1] <= fs[2:])) + 1
    basins = basins[np.argsort(fs[basins], kind="stable")][:3]
    if not len(basins):
        raise InversionError("bracket does not contain optimum")

    # refine the few deepest basins: a noiseless data set has an exactly-zero
    # residual at the true frequency, which beats any near-alias after refinement
    known = {}
    states = zip(xs[basins - 1].tolist(), xs[basins + 1].tolist())
    states = [(a, b, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)) for a, b in states]
    while True:
        states, new = zip(*(_golden_round(*state, known) for state in states))
        points = [x for points in new for x in points]
        if not points:
            break
        known.update(zip(points, misfits(points).tolist()))
    # the first of the lowest residuals, in basin order
    a, b, _, _ = min(states, key=lambda state: known[0.5 * (state[0] + state[1])])
    residual = known[0.5 * (a + b)]
    if f_min < fs[basins[0]] and not residual < f_min:
        raise InversionError("bracket does not contain optimum")  # an edge beats every basin
    return InversionResult(0.5 * (a + b), residual, (lo, hi), True, None)
