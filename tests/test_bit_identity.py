"""Array evaluations of the closed forms equal the scalar ones bit for bit.

Crossing scans, the inversion's coarse omega scan and the figure-1 level
table evaluate ``energy_level`` and ``_pair_delta_e`` over numpy arrays,
crossing bisection calls the pair kernel on arguments checked once, and
``transition_lines`` pairs the parts of each level, derived once.  These tests pin each array element to the scalar
call on the same values, compared as raw float64 bits (so 0.0 and -0.0
differ and NaN would show), and the bisection and golden-section rounds,
at their boundaries too, to the point-by-point searches.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

from conftest import STEEP_CROSSINGS, crossing_scan_args, random_stable_scenario
from parabolic_mr import (
    CrossingPoint,
    FieldProfile,
    SpinSystem,
    crossing_scan,
    energy_level,
    gbar_critical,
    identify_frequency,
    transition_lines,
)
from parabolic_mr import spectroscopy
from parabolic_mr.cli import figure1_scenario, run
from parabolic_mr.constants import HBAR, TWO_PI
from parabolic_mr.core import _square
from parabolic_mr.spectroscopy import _misfits, _pair_delta_e


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def pow_trap_omegas(rng, lo, hi, count=20000):
    """Trap frequencies in [lo, hi] whose Python square (libm pow) differs
    from numpy's x*x squaring; the array path must square the Python way."""
    omegas = lo * (hi / lo) ** rng.uniform(0.0, 1.0, count)
    python_squares = np.array([w**2 for w in omegas.tolist()])
    return omegas[omegas * omegas != python_squares]


def test_energy_level_and_pair_delta_e_arrays_match_scalar_calls():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        system, field, _ = random_stable_scenario(rng, zero_b0=bool(rng.integers(2)))
        # |mbar| < 0.9 at field.gbar and system.omega: a smaller |gbar| or a
        # larger omega keeps every sector bound
        gbars = field.gbar * rng.uniform(-1.0, 1.0, 6)
        omegas = system.omega * rng.uniform(1.0, 3.0, 6)
        ladder = system.levels()
        ms = np.array(ladder)
        ns = np.arange(4)

        got = energy_level(system, replace(field, gbar=gbars[:, None, None]), ms[:, None], ns)
        want = [
            [[energy_level(system, replace(field, gbar=g), m, n) for n in ns.tolist()]
             for m in ladder]
            for g in gbars.tolist()
        ]
        assert np.array_equal(bits(got), bits(want))

        got = energy_level(replace(system, omega=omegas[:, None]), field, ms, 2)
        want = [[energy_level(replace(system, omega=w), field, m, 2) for m in ladder]
                for w in omegas.tolist()]
        assert np.array_equal(bits(got), bits(want))

        level_a = (ladder[-1], int(rng.integers(4)))
        others = (ms[:-1, None], ns[None, :])
        got = _pair_delta_e(system, replace(field, gbar=gbars[:, None, None]), level_a, others)
        want = [
            [[_pair_delta_e(system, replace(field, gbar=g), level_a, (m, n)) for n in ns.tolist()]
             for m in ladder[:-1]]
            for g in gbars.tolist()
        ]
        assert np.array_equal(bits(got), bits(want))

        want = [[_pair_delta_e(replace(system, omega=w), field, level_a, (m, 0))
                 for m in ladder[:-1]]
                for w in omegas.tolist()]
        got = _pair_delta_e(replace(system, omega=omegas[:, None]), field, level_a, (ms[:-1], 0))
        assert np.array_equal(bits(got), bits(want))


def test_energy_level_with_an_underflowed_divisor_matches_the_array_call():
    # a subnormal mass just inside the bound: 2*mass*omega*(1 - mbar) rounds to
    # 0.0, so the shift is inf with a gradient and 0/0's nan without one
    system = SpinSystem(1e-320, 5e10, 1.0, 1e3, 1e-9)
    for g, want in ((1e-3, -math.inf), (0.0, math.nan)):
        field = FieldProfile(0.0, g, (1.0 - 1e-9) * gbar_critical(system))
        (element,) = energy_level(system, field, np.array([1.0]), 0)  # silent, as the scalar
        scalar = energy_level(system, field, 1.0, 0)
        assert type(scalar) is float and bits(scalar) == bits(element)
        assert scalar == want or math.isnan(want) and math.isnan(scalar)


def test_omega_arrays_square_like_python_floats():
    rng = np.random.default_rng(7)
    omegas = np.concatenate([pow_trap_omegas(rng, 1e3, 1e6), 1e3 * 1e3 ** rng.uniform(0, 1, 20)])
    system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1e3, offset=0.0)
    scan = replace(system, omega=omegas)
    # gbar at 0.9 of each omega's dissociation bound: mbar = 0.9 for M = S,
    # so the energies are sensitive to the last bit of omega^2
    gbars = 0.9 * np.array([gbar_critical(replace(system, omega=w)) for w in omegas.tolist()])
    for m in system.levels():
        want = [
            energy_level(replace(system, omega=w), FieldProfile(0.0, 0.002, g), m, 1)
            for w, g in zip(omegas.tolist(), gbars.tolist())
        ]
        got = energy_level(scan, FieldProfile(0.0, 0.002, gbars), m, 1)
        assert np.array_equal(bits(got), bits(want))
    # with gbar = b0 = offset = 0, an equal-n pair differs only by the
    # gradient shift, which scales as 1/omega^2
    field = FieldProfile(0.0, 0.002, 0.0)
    want = [_pair_delta_e(replace(system, omega=w), field, (1.5, 3), (-0.5, 3))
            for w in omegas.tolist()]
    assert np.array_equal(bits(_pair_delta_e(scan, field, (1.5, 3), (-0.5, 3))), bits(want))


def scalar_misfit(model, measured):
    """The RMS misfit of sorted model lines, one line at a time: paired in
    order, or each measured line to its nearest model line, adding the
    squares in order as ``cumsum`` does (Python 3.12's ``sum`` compensates)."""
    if len(model) == len(measured):
        squares = [_square(f - y) for f, y in zip(model, measured)]
    else:
        squares = [min(_square(f - y) for f in model) for y in measured]
    sq = 0.0
    for square in squares:
        sq += square
    return math.sqrt(sq / len(measured))


def test_coarse_scan_residuals_match_scalar_residual():
    # the coarse scan's one array call and a golden-section step's 2S scalar
    # calls both give the misfit of the line list transition_lines builds
    rng = np.random.default_rng(99)
    for k in range(24):
        system, field, _ = random_stable_scenario(rng)
        n = int(rng.integers(0, 4))
        lines = [l.frequency_hz for l in transition_lines(system, field, n)]
        # every other draw drops a line, so lines match to the nearest model line
        measured = sorted(lines[1:] if k % 2 and len(lines) > 1 else lines)
        template = replace(system, omega=1.0)
        # |mbar| < 0.9 at system.omega, so every sector stays bound above it
        omegas = np.linspace(system.omega, system.omega * 3.0, 64).tolist()
        ladder = template.levels()
        upper, lower = np.array(ladder[1:]), np.array(ladder[:-1])
        scan = replace(template, omega=np.array(omegas)[:, None])
        got = _misfits(_pair_delta_e(scan, field, (upper, n), (lower, n)), measured)
        want = [
            scalar_misfit(
                [l.frequency_hz for l in transition_lines(replace(template, omega=w), field, n)],
                measured,
            )
            for w in omegas
        ]
        assert np.array_equal(bits(got), bits(want))
        assert not any(math.isnan(v) for v in want)
        for w, value in list(zip(omegas, want))[::9]:
            step = replace(template, omega=w)
            row = [
                _pair_delta_e(step, field, (a, n), (b, n)) for a, b in zip(ladder[1:], ladder)
            ]
            assert np.array_equal(bits(_misfits(np.array([row]), measured)), bits([value]))


def scalar_bisection(system, field, level_a, level_b, lo, hi, f_lo, g_scale):
    """One bracket bisected point by point, with crossing_scan's stop rule,
    which the step after MAX_BISECTION_STEPS still applies to its flag."""
    for step in range(spectroscopy.MAX_BISECTION_STEPS + 1):
        mid = 0.5 * (lo + hi)
        at_mid = replace(field, gbar=mid)
        f_mid = _pair_delta_e(system, at_mid, level_a, level_b)
        e_a, e_b = energy_level(system, at_mid, *level_a), energy_level(system, at_mid, *level_b)
        width_ok = hi - lo <= 1e-10 * max(abs(lo), abs(hi), g_scale)
        converged = (width_ok and abs(e_a - e_b) <= 1e-10 * max(abs(e_a), abs(e_b))) or f_mid == 0.0
        if converged or step == spectroscopy.MAX_BISECTION_STEPS:
            return CrossingPoint(mid, level_a, level_b, e_a, hi - lo, converged)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def scalar_crossing_scan(system, field, g_lo, g_hi, levels, steps):
    """crossing_scan over a range inside every sector's stability interval,
    one scalar call per grid point and bisection step."""
    gs = [g_lo + (g_hi - g_lo) * i / steps for i in range(steps + 1)]
    g_scale = max(abs(g_lo), abs(g_hi))
    at = [replace(field, gbar=g) for g in gs]
    crossings, degenerate = [], []
    for i, level_a in enumerate(levels):
        for level_b in levels[i + 1:]:
            pair = (level_a, level_b)
            ds = [_pair_delta_e(system, fld, level_a, level_b) for fld in at]
            if all(d == 0.0 for d in ds):
                degenerate.append(pair)
                continue
            if ds[0] == 0.0:
                e_a = energy_level(system, at[0], *level_a)
                crossings.append(CrossingPoint(gs[0], *pair, e_a, 0.0))
            for k in range(steps):
                d_a, d_b = ds[k], ds[k + 1]
                if d_a != 0.0 and d_b == 0.0:
                    e_a = energy_level(system, at[k + 1], *level_a)
                    crossings.append(CrossingPoint(gs[k + 1], *pair, e_a, 0.0))
                if d_a == 0.0 or d_b == 0.0:
                    continue
                if (d_a > 0.0) != (d_b > 0.0):
                    crossings.append(
                        scalar_bisection(system, field, *pair, gs[k], gs[k + 1], d_a, g_scale)
                    )
    crossings.sort(key=lambda c: (c.gbar, c.level_a, c.level_b))
    return crossings, degenerate


def crossing_fields(crossings):
    """A crossing list as comparable tuples, every float as its raw bits."""
    return [
        (int(bits(c.gbar)), c.level_a, c.level_b, int(bits(c.energy)),
         int(bits(c.bracket_width)), c.converged)
        for c in crossings
    ]


def test_crossing_scans_and_lines_match_scalar_calls(monkeypatch):
    rng = np.random.default_rng(8)
    closed = landed = unconverged = degenerate_pairs = 0
    for k in range(32):
        system, field, _ = random_stable_scenario(
            rng, zero_b0=bool(k % 2), spin_choices=(0.5, 1.0, 1.5, 2.0, 2.5)
        )
        if k % 8 == 3:  # b0 = g = 0 at the trap minimum: equal-n levels meet at gbar = 0
            system, field = replace(system, offset=0.0), replace(field, b0=0.0, g=0.0)
        if k % 8 == 5:  # no spin coupling: equal-n levels coincide, others run parallel
            system = replace(system, gamma=0.0)
        if k % 8 == 7:  # 1 - mbar rounds to 1 near gbar = 0: equal-n pairs stay at 0 there
            system = SpinSystem(mass=1.0, gamma=1.0, spin=system.spin, omega=1.0)
            field = FieldProfile(0.0, 0.0, 0.0)
        n_max = int(rng.integers(0, 4))
        levels = [(m, n) for m in system.levels() for n in range(n_max + 1)]
        rng.shuffle(levels)
        levels = levels[:10]
        steps = int(2 ** rng.uniform(4.0, 8.0))
        crit = gbar_critical(system) if system.gamma else abs(field.gbar)
        g_lo, g_hi = sorted(0.95 * crit * rng.uniform(-1.0, 1.0, 2))
        if k % 8 == 3:
            g_hi = max(-g_lo, g_hi)
            g_lo, steps = -g_hi, 2 * (steps // 2)  # gbar = 0 on the grid
        if k % 8 == 7:
            g_lo, g_hi = -2e18, 2e18
        cap = (5, 20, 200)[k % 3]  # a cap below the steps a bracket needs leaves it open
        monkeypatch.setattr(spectroscopy, "MAX_BISECTION_STEPS", cap)

        got = crossing_scan(system, field, (g_lo, g_hi), levels, steps)
        want, degenerate = scalar_crossing_scan(system, field, g_lo, g_hi, levels, steps)
        assert crossing_fields(got.crossings) == crossing_fields(want)
        assert list(got.degenerate_pairs) == degenerate
        closed += sum(c.converged and c.bracket_width > 0.0 for c in want)
        landed += sum(c.bracket_width == 0.0 for c in want)
        unconverged += sum(not c.converged for c in want)
        degenerate_pairs += len(degenerate)

        for rule in spectroscopy.SELECTION_RULES:
            m = system.levels()[-1]
            lines = transition_lines(system, field, n_max, rule, m=m, n_max=n_max)
            if rule == "deltaM1_fixed_n":
                ladder = system.levels()
                pairs = [((up, n_max), (down, n_max)) for down, up in zip(ladder, ladder[1:])]
            elif rule == "deltaN1_fixed_M":
                pairs = [((m, j + 1), (m, j)) for j in range(n_max + 1)]
            else:
                every = [(mq, j) for mq in system.levels() for j in range(n_max + 1)]
                pairs = [(a, b) for i, a in enumerate(every) for b in every[i + 1:]]
            magnitudes = [
                de if de >= 0.0 else -de
                for de in (_pair_delta_e(system, field, a, b) for a, b in pairs)
            ]
            assert sorted(bits([l.delta_e for l in lines]).tolist()) == sorted(
                bits(magnitudes).tolist()
            )
            assert sorted(bits([l.frequency_hz for l in lines]).tolist()) == sorted(
                bits([de / (TWO_PI * HBAR) for de in magnitudes]).tolist()
            )
    # every kind of grid finding and both ends of the stop rule were reached
    assert min(closed, landed, unconverged, degenerate_pairs) > 5

    # a bracket that freezes at one ulp stops there; the scalar bisection runs
    # on to MAX_BISECTION_STEPS without moving and reports the same point
    monkeypatch.setattr(spectroscopy, "MAX_BISECTION_STEPS", 200)
    system, field, (g_lo, g_hi), levels, steps = crossing_scan_args(STEEP_CROSSINGS)
    got = crossing_scan(system, field, (g_lo, g_hi), levels, steps)
    want, degenerate = scalar_crossing_scan(system, field, g_lo, g_hi, levels, steps)
    assert crossing_fields(got.crossings) == crossing_fields(want)
    assert list(got.degenerate_pairs) == degenerate
    assert [c.converged for c in want].count(False) == 1


def test_crossing_rounds_match_scalar_bisection_at_their_boundaries(monkeypatch):
    # bisection caps that end brackets inside a round (1 and 7 steps in the
    # first of 20, 33 in the second) and a grid cut into one pair row per
    # kernel call leave every crossing bit-equal to the point-by-point scan
    assert spectroscopy.BISECTION_ROUND_STEPS == 20
    rng = np.random.default_rng(21)
    scans = [crossing_scan_args(STEEP_CROSSINGS)]
    while len(scans) < 5:
        system, field, _ = random_stable_scenario(rng, spin_choices=(1.0, 1.5, 2.5))
        levels = [(m, n) for m in system.levels() for n in range(3)]
        rng.shuffle(levels)
        g_lo, g_hi = sorted(0.95 * gbar_critical(system) * rng.uniform(-1.0, 1.0, 2))
        scans.append((system, field, (g_lo, g_hi), levels[:8], int(2 ** rng.uniform(4.0, 7.0))))
    found = 0
    for cap, block in ((1, 2**13), (7, 2**13), (33, 2**13), (200, 1)):
        monkeypatch.setattr(spectroscopy, "MAX_BISECTION_STEPS", cap)
        monkeypatch.setattr(spectroscopy, "SCAN_BLOCK_POINTS", block)
        for system, field, (g_lo, g_hi), levels, steps in scans:
            got = crossing_scan(system, field, (g_lo, g_hi), levels, steps)
            want, degenerate = scalar_crossing_scan(system, field, g_lo, g_hi, levels, steps)
            assert crossing_fields(got.crossings) == crossing_fields(want)
            assert list(got.degenerate_pairs) == degenerate
            found += len(want)
    assert found > 100


def test_crossing_scan_kernel_calls_stay_within_a_block(monkeypatch):
    # with blocks of 64 values, no pair-kernel or energy_level call of the
    # figure-1 scan evaluates more than max(64, one grid row) values, bisection
    # rounds included, and the crossings keep the bits of the unblocked scan
    scenario = figure1_scenario()
    args = (scenario.system, scenario.field, (scenario.gbar_min, scenario.gbar_max),
            scenario.all_levels(), scenario.scan_steps)
    want = crossing_scan(*args)
    sizes = {}

    def recording(name, kernel):
        def call(*call_args):
            result = kernel(*call_args)
            sizes.setdefault(name, []).append(np.size(result))
            return result
        return call

    for name in ("_pair_delta_e", "_pair_from_parts", "energy_level"):
        monkeypatch.setattr(spectroscopy, name, recording(name, getattr(spectroscopy, name)))
    monkeypatch.setattr(spectroscopy, "SCAN_BLOCK_POINTS", 64)
    got = crossing_scan(*args)
    assert crossing_fields(got.crossings) == crossing_fields(want.crossings)
    assert list(got.degenerate_pairs) == list(want.degenerate_pairs)
    assert len(want.crossings) > 64 // spectroscopy.BISECTION_ROUND_STEPS  # several chunks
    assert sorted(sizes) == ["_pair_delta_e", "_pair_from_parts", "energy_level"]
    assert max(max(values) for values in sizes.values()) <= max(64, scenario.scan_steps + 1)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_identify_frequency(lines, template, field, n, bracket, scan_points=512):
    """identify_frequency one point at a time: the coarse scan and every
    golden-section step each fit 2S scalar pair-kernel lines through
    ``spectroscopy._misfits``.  Returns (omega, rms, the steps each refined
    basin took, the ties fc == fd met)."""
    measured = sorted(lines)
    floor = math.sqrt(2.0 * abs(template.gamma * field.gbar) * HBAR * template.spin / template.mass)
    lo, hi = max(bracket[0], floor * (1.0 + 1e-9)), bracket[1]
    ladder = template.levels()

    def residual(omega):
        step = replace(template, omega=omega)
        row = [_pair_delta_e(step, field, (a, n), (b, n)) for a, b in zip(ladder[1:], ladder)]
        return float(spectroscopy._misfits(np.array([row]), measured)[0])

    xs = [lo + (hi - lo) * i / (scan_points - 1) for i in range(scan_points)]
    fs = [residual(x) for x in xs]
    basins = [i for i in range(1, len(xs) - 1) if fs[i] <= fs[i - 1] and fs[i] <= fs[i + 1]]
    basins.sort(key=fs.__getitem__)
    estimate = rms = None
    steps, ties = [], 0
    for i in basins[:3]:
        a, b = xs[i - 1], xs[i + 1]
        c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        fc, fd = residual(c), residual(d)
        steps.append(0)
        while (b - a) > 1e-10 * max(abs(a), abs(b)):
            steps[-1] += 1
            ties += fc == fd
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                fc = residual(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                fd = residual(d)
        value = residual(0.5 * (a + b))
        if rms is None or value < rms:
            estimate, rms = 0.5 * (a + b), value
    return estimate, rms, steps, ties


def test_golden_rounds_match_the_scalar_search(monkeypatch):
    # rounds of 1 to 5 steps end their searches inside a round and at its
    # end; misfits floored at a plateau make the comparisons meet exact ties
    # fc == fd, which step toward c like the scalar loop
    rng = np.random.default_rng(5)
    misfits = spectroscopy._misfits
    cases = []
    for k in range(12):
        system, field, _ = random_stable_scenario(rng)
        n = int(rng.integers(0, 3))
        lines = [l.frequency_hz for l in transition_lines(system, field, n)]
        floor = 0.0 if k % 3 else 1e-4 * max(lines)
        cases.append((lines, replace(system, omega=1.0), field, n,
                       (system.omega / 2.0, system.omega * 2.0), floor))
    ends, ties = set(), 0
    for lines, template, field, n, bracket, floor in cases:
        monkeypatch.setattr(
            spectroscopy, "_misfits", lambda de, measured: np.maximum(misfits(de, measured), floor)
        )
        estimate, rms, steps, tied = scalar_identify_frequency(lines, template, field, n, bracket)
        ties += tied
        for depth in range(1, 6):
            monkeypatch.setattr(spectroscopy, "GOLDEN_ROUND_STEPS", depth)
            got = identify_frequency(lines, template, field, n, bracket)
            assert bits([got.omega_estimate, got.residual_rms_hz]).tolist() == bits(
                [estimate, rms]
            ).tolist()
            # the first round takes depth - 1 steps and every later one depth
            ends.update((step - depth + 1) % depth == 0 for step in steps)
    assert ends == {True, False} and ties > 20


def test_inversion_blocks_match_the_scalar_search_on_nearest_lines(monkeypatch):
    # 2S - 1 or 2S + 1 measured lines are each matched to the nearest model
    # line, 2S x lines values an omega; blocks of 1, 7 and 100 omegas split
    # the coarse scan and the golden rounds, and every misfit and the
    # estimate keep the bits of the point-by-point search
    rng = np.random.default_rng(31)
    misfits, shapes = spectroscopy._misfits, []

    def recording(delta_e, measured):
        shapes.append(delta_e.shape)
        return misfits(delta_e, measured)

    monkeypatch.setattr(spectroscopy, "_misfits", recording)
    for k in range(8):
        system, field, _ = random_stable_scenario(rng)
        n = int(rng.integers(0, 3))
        lines = [l.frequency_hz for l in transition_lines(system, field, n)]
        measured = lines[1:] if k % 2 and len(lines) > 1 else lines + lines[:1]
        args = (measured, replace(system, omega=1.0), field, n,
                (system.omega / 2.0, system.omega * 2.0))
        estimate, rms, _, _ = scalar_identify_frequency(*args)
        width = len(lines) * len(measured)
        for rows in (1, 7, 100):
            monkeypatch.setattr(spectroscopy, "SCAN_BLOCK_POINTS", (rows + 1) * width - 1)
            shapes.clear()
            got = identify_frequency(*args)
            assert bits([got.omega_estimate, got.residual_rms_hz]).tolist() == bits(
                [estimate, rms]
            ).tolist()
            assert max(shapes) == (rows, len(lines))
            assert len(shapes) > 512 // rows


#: SHA-256 of the default ``figure1`` outputs.  The scans are pinned to the
#: bytes the point-by-point loops wrote; a changed digest must be explained
#: in CHANGES.md.
FIGURE1_SHA256 = {
    "figure1_levels.csv": "36f4fbf9b3da9e2265c1621ec4b5d2dbe5616b9f975164fbcf2fdf5201c0decf",
    "figure1_crossings.csv": "93a5ddf15541161abe4545833af91f71f7f9c6df619555ac472085ccb663afe2",
}


def test_figure1_outputs_match_pinned_digests(tmp_path, capsys):
    assert run(["figure1", "--out", str(tmp_path)]) == 0
    for name, digest in FIGURE1_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
