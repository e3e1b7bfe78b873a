"""Observables built on the closed-form spectrum.

Transition-line lists, level-crossing scans versus the quadratic field
parameter, and the inverse problem of recovering the trap frequency from the
spin-sublevel splittings of a single oscillator level.

Line energies come from one pair kernel, ``_pair_delta_e``: the analytically
cancelled difference of two eigenvalues, each sector's sqrt(1 - mbar) read
from ``core._sector``, rather than a subtraction of two large energies;
besides avoiding cancellation error, this makes the homogeneous-field line
set (g = gbar = 0) exactly independent of omega, bit for bit, which is the
physical statement that a uniform field cannot reveal the trap frequency.

Scans run as numpy array evaluations of the closed forms: a crossing scan
evaluates each level pair over the whole gbar grid in one call and bisects
all bracketed sign changes together, and the inversion's coarse omega scan
evaluates every scan point's line energies at once; ``_misfits`` fits them,
and each golden-section step's, to the measured lines.  Arguments are checked
once per scan or line list, bisection evaluates energies only for closing
brackets, and each array element is bit-identical to the scalar evaluation.
"""

from __future__ import annotations

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
    _projection,
    _require_all_bound,
    _require_int,
    _sector,
    _square,
    energy_level,
)
from .errors import DissociationError, InversionError

SELECTION_RULES = ("deltaM1_fixed_n", "deltaN1_fixed_M", "all_pairs_within")

#: |delta E| dips below this fraction of the level scale without a sign flip
#: are flagged as possible tangencies (even-order contacts are not crossings).
TANGENCY_FRACTION = 1e-6

#: Most lines ``all_pairs_within`` may build: it pairs every two of the
#: (2S + 1)(n_max + 1) levels, one Python object per line; 2**18 lines take
#: about 2 s and 150 MB, and the largest config would ask for about 5e11.
MAX_LINES = 2**18

#: Most pair-grid points a ``crossing_scan`` may evaluate, pairs x (steps + 1):
#: 2**24 take about 1 s and 130 MB, and the largest config would ask for 4e16.
MAX_SCAN_EVALUATIONS = 2**24

#: Bisection steps per bracketed crossing; a bracket still open after them is
#: reported at its midpoint with ``converged=False``.
MAX_BISECTION_STEPS = 200


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
    #: (gbar, pair) where |delta E| dipped below tolerance without a sign flip
    tangency_candidates: tuple[tuple[float, tuple[tuple[float, int], tuple[float, int]]], ...]


@dataclass(frozen=True)
class InversionResult:
    omega_estimate: float
    residual_rms_hz: float
    bracket: tuple[float, float]
    identifiable: bool
    reason: str | None = None


def _pair_delta_e(
    system: SpinSystem,
    field: FieldProfile,
    level_a: tuple[float, int],
    level_b: tuple[float, int],
) -> float:
    """Signed E_a - E_b, with the common Zeeman and shift factors cancelled, of
    levels whose M are already checked projections.  Like :func:`energy_level`,
    it broadcasts when system.omega, field.gbar or a level's M and n are arrays.
    """
    (ma, na), (mb, nb) = level_a, level_b
    _, ra = _sector(system, field, ma)
    _, rb = _sector(system, field, mb)
    osc = HBAR * system.omega * ((na + 0.5) * ra - (nb + 0.5) * rb)
    zeeman = system.gamma * _field_at_offset(system, field) * HBAR * (ma - mb)
    slope = system.gamma * _gradient_at_offset(system, field)
    shift_scale = slope * slope * HBAR * HBAR / (2.0 * system.mass * system._omega_squared)
    shift = shift_scale * (ma * ma / (ra * ra) - mb * mb / (rb * rb))
    return osc - zeeman - shift


def _make_line(
    system: SpinSystem,
    field: FieldProfile,
    level_a: tuple[float, int],
    level_b: tuple[float, int],
) -> TransitionLine:
    """The line between two levels whose M are already checked projections."""
    de = _pair_delta_e(system, field, level_a, level_b)
    if de >= 0.0:
        lo, hi = level_b, level_a
    else:
        lo, hi = level_a, level_b
        de = -de
    return TransitionLine(
        m_from=lo[0],
        n_from=lo[1],
        m_to=hi[0],
        n_to=hi[1],
        delta_e=de,
        frequency_hz=de / (TWO_PI * HBAR),
    )


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
                      candidate lines raise ``ValueError`` before any is built.

    Raises :class:`DissociationError` naming the worst unbound projection
    (the largest mbar) among those the rule involves.
    """
    n = _require_int(n)
    if rule not in SELECTION_RULES:
        raise ValueError(f"unknown selection rule {rule!r} (expected one of {SELECTION_RULES})")

    if rule == "deltaM1_fixed_n":
        ladder = system.levels()
        _require_all_bound(system, field, ladder)
        pairs = [((ladder[i + 1], n), (ladder[i], n)) for i in range(len(ladder) - 1)]
    elif rule == "deltaN1_fixed_M":
        if m is None:
            raise ValueError("rule deltaN1_fixed_M requires the fixed projection m")
        mq = _projection(system, m)
        pairs = [((mq, j + 1), (mq, j)) for j in range(n + 1)]
    else:  # all_pairs_within
        top = n if n_max is None else _require_int(n_max, "n_max")
        ladder = system.levels()
        size = len(ladder) * (top + 1)
        if size * (size - 1) // 2 > MAX_LINES:
            raise ValueError(
                f"all_pairs_within asks for {size * (size - 1) // 2} lines, more than {MAX_LINES}"
            )
        _require_all_bound(system, field, ladder)
        levels = [(mq, j) for mq in ladder for j in range(top + 1)]
        pairs = [
            (levels[i], levels[j])
            for i in range(len(levels))
            for j in range(i + 1, len(levels))
        ]

    lines = [_make_line(system, field, a, b) for a, b in pairs]
    if cutoff_hz is not None:
        # a line past double precision is kept, so it is not mistaken for a high one
        lines = [
            l for l in lines if l.frequency_hz <= cutoff_hz or not math.isfinite(l.frequency_hz)
        ]
    lines.sort(key=lambda l: (l.frequency_hz, l.m_from, l.n_from, l.m_to, l.n_to))
    return lines


def _scan_grid(lo: float, hi: float, intervals: int) -> list[float]:
    """The ``intervals + 1`` points lo + (hi - lo) * i / intervals of a scan."""
    return [lo + (hi - lo) * i / intervals for i in range(intervals + 1)]


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
    intersection of all sectors' stability intervals; pairs that are
    degenerate over the whole scan are reported separately, as are |delta E|
    dips without a sign flip (possible tangencies).

    The levels are checked once per scan, then the grid is evaluated as
    arrays, one (pairs x grid) block per first level of a pair, so memory
    stays O(levels x steps); more than ``MAX_SCAN_EVALUATIONS`` pair-grid
    points raise ``ValueError`` before any is evaluated.  Every crossing,
    grid zeros too, closes in :func:`_bisect_crossings`, bit-identical to the
    scalar calls; a frozen or step-capped one has ``converged=False``.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("empty level list")
    if steps < 16:
        raise ValueError("steps must be at least 16")
    size = len(levels) * (len(levels) - 1) // 2 * (steps + 1)
    if size > MAX_SCAN_EVALUATIONS:
        raise ValueError(f"scan of {size} pair-grid points, more than {MAX_SCAN_EVALUATIONS}")
    level_list = [(_projection(system, m), _require_int(nn)) for m, nn in levels]
    if len(set(level_list)) != len(level_list):
        raise ValueError("identical levels in pair list: each (m_quantum, n) must be unique")
    g_lo, g_hi = float(gbar_range[0]), float(gbar_range[1])
    if not (g_lo < g_hi):
        raise ValueError("gbar_range must be an increasing pair")

    ms = np.array([mq for mq, _ in level_list])
    ns = np.array([nn for _, nn in level_list])
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

    gs = _scan_grid(g_lo, g_hi, steps)
    g_scale = max(abs(g_lo), abs(g_hi))
    grid = replace(field_base, gbar=np.array(gs))
    e_abs = np.abs(energy_level(system, replace(field_base, gbar=gs[0]), ms, ns))

    degenerate = []
    tangencies = []
    brackets = []  # (first level, second level, a, b, d(a) > 0); a == b at a grid zero
    for i in range(len(level_list) - 1):
        js = np.arange(i + 1, len(level_list))
        pairs = [(level_list[i], level_list[j]) for j in js.tolist()]
        ds = _pair_delta_e(system, grid, level_list[i], (ms[js, None], ns[js, None]))
        if not np.isfinite(ds).all():
            raise ValueError("level energy differences past double precision on the gbar range")
        zero = ds == 0.0
        d_a, d_b, zero_a, zero_b = ds[:, :-1], ds[:, 1:], zero[:, :-1], zero[:, 1:]
        live = ~zero_a & ~zero_b
        flips = live & ((d_a > 0.0) != (d_b > 0.0))
        # tangency candidates: |d| dips to a local minimum below
        # TANGENCY_FRACTION of the level scale without changing sign
        abs_ds = np.abs(ds)
        e_scale = np.maximum(e_abs[i], e_abs[js])
        dips = (
            live
            & ~flips
            & (np.minimum(abs_ds[:, :-1], abs_ds[:, 1:]) < TANGENCY_FRACTION * e_scale[:, None])
        )
        dips[:, 1:] &= (abs_ds[:, 1:-1] <= abs_ds[:, :-2]) & (abs_ds[:, 1:-1] <= abs_ds[:, 2:])
        dips[:, [0, -1]] = False  # the end intervals lack a neighbour
        # a pair lands on zero at the first point or from a nonzero neighbour;
        # one that is zero everywhere is degenerate
        degenerate_rows = zero.all(axis=1)
        landed = zero & ~degenerate_rows[:, None]
        landed[:, 1:] &= ~zero_a
        degenerate.extend(pairs[row] for row in np.flatnonzero(degenerate_rows))
        tangencies.extend((gs[idx], pairs[row]) for row, idx in zip(*np.nonzero(dips)))
        brackets.extend(
            (i, i + 1 + row, gs[idx], gs[idx], False) for row, idx in zip(*np.nonzero(landed))
        )
        brackets.extend(
            (i, i + 1 + row, gs[idx], gs[idx + 1], ds[row, idx] > 0.0)
            for row, idx in zip(*np.nonzero(flips))
        )

    crossings = []
    if brackets:
        crossings = _bisect_crossings(system, field_base, level_list, ms, ns, brackets, g_scale)
    crossings.sort(key=lambda c: (c.gbar, c.level_a, c.level_b))
    return CrossingScanResult(tuple(crossings), tuple(degenerate), tuple(tangencies))


def _bisect_crossings(
    system: SpinSystem,
    field_base: FieldProfile,
    level_list: list[tuple[float, int]],
    ms: np.ndarray,
    ns: np.ndarray,
    brackets: list[tuple[int, int, float, float, bool]],
    g_scale: float,
) -> list[CrossingPoint]:
    """Bisect every bracketed crossing of a scan at once.

    ``brackets`` holds (first level, second level, a, b, E_first - E_second
    > 0 at a), the levels as indices into ``level_list`` and its M and n
    arrays ``ms`` and ``ns``, all checked by the scan.  Each step evaluates all
    open midpoints as one array, exactly as scalar bisections would, and then
    the energies of the tested brackets: those within width 1e-10 * max(|a|,
    |b|, g_scale) or at a zero difference, and all on the step after
    ``MAX_BISECTION_STEPS``.  A tested bracket closes at its midpoint when it
    converged (|E_a - E_b| <= 1e-10 * max(|E_a|, |E_b|) within the width, or
    a zero difference), when it froze (its midpoint is an end: no double lies
    between them), or on that last step; only the first has ``converged=True``.
    """
    first, second, a, b, positive = (np.array(column) for column in zip(*brackets))
    m_a, n_a, m_b, n_b = ms[first], ns[first], ms[second], ns[second]
    found = []
    for step in range(MAX_BISECTION_STEPS + 1):
        mid, width = 0.5 * (a + b), b - a
        frozen = (mid == a) | (mid == b)
        fm = _pair_delta_e(system, replace(field_base, gbar=mid), (m_a, n_a), (m_b, n_b))
        width_ok = width <= 1e-10 * np.maximum(np.maximum(np.abs(a), np.abs(b)), g_scale)
        right = (fm > 0.0) == positive  # the sign change lies right of mid; d keeps its sign at a
        a, b = np.where(right, mid, a), np.where(right, b, mid)
        last = step == MAX_BISECTION_STEPS
        tested = np.flatnonzero(width_ok | (fm == 0.0) | last)
        if not len(tested):
            continue
        field = replace(field_base, gbar=mid[tested])
        e_a = energy_level(system, field, m_a[tested], n_a[tested])
        e_b = energy_level(system, field, m_b[tested], n_b[tested])
        energy_ok = np.abs(e_a - e_b) <= 1e-10 * np.maximum(np.abs(e_a), np.abs(e_b))
        converged = (width_ok[tested] & energy_ok) | (fm[tested] == 0.0)
        closing = converged | frozen[tested] | last
        closed = tested[closing]
        for k, e, ok in zip(closed.tolist(), e_a[closing].tolist(), converged[closing].tolist()):
            pair = level_list[first[k]], level_list[second[k]]
            found.append(CrossingPoint(float(mid[k]), *pair, e, float(width[k]), ok))
        keep = np.ones(len(a), dtype=bool)
        keep[closed] = False
        a, b, positive, first, second, m_a, n_a, m_b, n_b = (
            column[keep] for column in (a, b, positive, first, second, m_a, n_a, m_b, n_b)
        )
        if not len(a):
            break
    return found


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimize(f, lo: float, hi: float, rel_tol: float) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(abs(a), abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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
    y = np.array(measured)
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
    by a coarse scan followed by golden-section refinement to relative 1e-10.
    The coarse scan evaluates all ``scan_points`` x 2S line energies in one
    array call of the pair kernel; each refinement step makes 2S scalar calls
    at its omega.  Both pass their line energies to :func:`_misfits`, so a
    step's residual equals, bit for bit, the scan's at the same omega.

    With g = gbar = 0 the line set carries no frequency information and the
    result comes back with ``identifiable=False`` ("homogeneous field"); the
    same happens when the residual is flat over the bracket (relative
    variation below 1e-12).  A residual minimum on the bracket edge raises
    :class:`InversionError`, and a misfit or bracket end past the doubles ``ValueError``.
    """
    measured = sorted(float(v) for v in lines_hz)
    if not measured:
        raise ValueError("at least one measured line is required")
    if system_template.spin == 0.0:
        raise ValueError("spin 0 has no adjacent-M lines to fit")
    n = _require_int(n)
    if scan_points < 3:
        raise ValueError("scan_points must be at least 3")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ValueError("bracket must be an increasing pair of positive rad/s values")

    if field.g == 0.0 and field.gbar == 0.0:
        return InversionResult(
            math.nan, math.nan, (lo, hi), False, "unidentifiable: homogeneous field"
        )

    # clip the bracket to frequencies at which every sector stays bound
    if field.gbar != 0.0:
        omega_floor = math.sqrt(
            2.0 * abs(system_template.gamma * field.gbar) * HBAR * system_template.spin
            / system_template.mass
        )
        lo = max(lo, omega_floor * (1.0 + 1e-9))
        if not (lo < hi):
            raise InversionError("bracket does not contain optimum: entire bracket dissociated")

    # level n's adjacent-M pairs, upper level first, as transition_lines pairs them
    ladder = system_template.levels()
    pairs = [((a, n), (b, n)) for a, b in zip(ladder[1:], ladder)]

    def residual(omega: float) -> float:
        candidate = replace(system_template, omega=omega)
        row = [_pair_delta_e(candidate, field, a, b) for a, b in pairs]
        return float(_misfits(np.array([row]), measured)[0])

    xs = _scan_grid(lo, hi, scan_points - 1)
    try:
        scan = replace(system_template, omega=np.array(xs)[:, None])
    except ValueError:  # the template is valid, so only omega can be refused
        raise ValueError("bracket ends must keep mass*omega**2 a positive finite double") from None
    upper, lower = np.array(ladder[1:]), np.array(ladder[:-1])
    fs = _misfits(_pair_delta_e(scan, field, (upper, n), (lower, n)), measured).tolist()
    f_min, f_max = min(fs), max(fs)
    if (f_max - f_min) <= 1e-12 * max(f_max, 1e-300):
        return InversionResult(
            math.nan, f_min, (lo, hi), False, "unidentifiable: residual flat in omega"
        )
    # an interior global minimum is a basin, so only an edge can beat them all
    basins = [i for i in range(1, len(xs) - 1) if fs[i] <= fs[i - 1] and fs[i] <= fs[i + 1]]
    basins.sort(key=fs.__getitem__)
    if not basins or f_min < fs[basins[0]]:
        raise InversionError("bracket does not contain optimum")

    # refine the few deepest basins: a noiseless data set has an exactly-zero
    # residual at the true frequency, which beats any near-alias after refinement
    estimate = rms = None
    for i in basins[:3]:
        candidate = _golden_minimize(residual, xs[i - 1], xs[i + 1], 1e-10)
        value = residual(candidate)
        if rms is None or value < rms:
            estimate, rms = candidate, value
    return InversionResult(estimate, rms, (lo, hi), True, None)
