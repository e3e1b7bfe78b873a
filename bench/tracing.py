"""Per-layer spans and counts, taken from outside the program.

The tracer replaces module attributes of ``parabolic_mr`` with wrappers that
open a span around the original function.  Python looks module globals up
at call time, so wrapping ``spectroscopy.transition_lines`` catches the calls
``identify_frequency`` makes, and wrapping every module's own binding of an
imported name catches the calls made from each module.  A module or name
that no longer exists is skipped, and the metrics built on it report
``None``; so do those of a span whose arguments no longer fit its observer.

Self time is a span's duration minus the part of it that child spans cover.
Spans opened on a worker thread (the CLI ``validate`` pool) hang under the
innermost open span of the main thread; they can overlap each other, so
their covered time is the union of their intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from _thread import get_ident
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter

#: Traced layer spans: metric -> module bindings that route to the function.
#: ``oracle.validate_levels`` and ``oracle.sector_solve`` are not reported on
#: their own; they keep their time out of their callers' self time and give
#: the refinement and convergence-error counts.
SPANS = {
    "core.energy_level": (
        ("core", "energy_level"), ("spectroscopy", "energy_level"),
        ("oracle", "energy_level"), ("cli", "energy_level"),
    ),
    "core.scaled_spin_number": (
        ("core", "scaled_spin_number"), ("spectroscopy", "scaled_spin_number"),
        ("oracle", "scaled_spin_number"), ("cli", "scaled_spin_number"),
    ),
    "spectroscopy.transition_lines": (
        ("spectroscopy", "transition_lines"), ("cli", "transition_lines"),
    ),
    "spectroscopy.identify_frequency": (
        ("spectroscopy", "identify_frequency"), ("cli", "identify_frequency"),
    ),
    "spectroscopy.pair_delta_e": (("spectroscopy", "_pair_delta_e"),),
    "spectroscopy.crossing_scan": (
        ("spectroscopy", "crossing_scan"), ("cli", "crossing_scan"),
    ),
    "oracle.validate_levels": (("oracle", "validate_levels"), ("cli", "validate_levels")),
    "oracle.sector_solve": (("oracle", "converged_spectrum"),),
    "oracle.matrix_build": (("oracle", "build_sector_hamiltonian"),),
    "oracle.eigensolve": (("oracle", "lowest_eigenvalues"),),
    "cli.run": (("cli", "run"),),
    "cli.load_config": (("cli", "load_config"),),
    "cli.write": (("cli", "write_csv"), ("cli", "write_json")),
}


def _grid_evals(bound, result):
    """Pair evaluations a crossing scan makes on its grid, before bisection."""
    n_levels = len(list(bound.arguments["levels"]))
    return {"crossing_scan.grid_evals": n_levels * (n_levels - 1) // 2
            * (bound.arguments["steps"] + 1)}


def _matrix_size(bound, result):
    """Grid points of one sector matrix (its dimension)."""
    matrix = getattr(result, "diagonal", result)
    return {"oracle.grid_points": len(matrix)}


#: Counts read off a span's arguments and result after it returns.
OBSERVERS = {
    "spectroscopy.crossing_scan": _grid_evals,
    "oracle.matrix_build": _matrix_size,
}


# A frame is a list, cheaper to build than an object:
# [metric, parent frame, parent on another thread, start, same-thread child
#  time (children run one after another, so durations add), intervals of
#  children on other threads (these may overlap)].
_METRIC, _PARENT, _FOREIGN, _START, _CHILD, _OVERLAP = range(6)
_FOREIGN_LOCK = threading.Lock()


class _Stats:
    def __init__(self):
        self.edges = Counter()  # (metric, parent metric) -> calls
        self.self_s = Counter()
        self.extra = Counter()
        self.errors = Counter()  # (metric, exception class name) -> raised


def _union(intervals):
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._main_stats = _Stats()
        self._all_stats = [self._main_stats]
        self._patched = []
        self.present = set()  # metrics with at least one wrapped binding
        self.broken = set()  # observers whose arguments no longer fit

    def _enter(self, metric):
        if get_ident() == self._main_ident:
            stack, stats = self._main_stack, self._main_stats
        else:
            state = getattr(self._local, "state", None)
            if state is None:
                state = self._local.state = ([], _Stats())
                self._all_stats.append(state[1])
            stack, stats = state
        if stack:
            frame = [metric, stack[-1], False, 0.0, 0.0, None]
        else:  # first span on a worker thread: hang it under the main thread
            main = self._main_stack
            frame = [metric, main[-1] if main else None, True, 0.0, 0.0, None]
        stack.append(frame)
        frame[_START] = _clock()
        return stack, stats, frame

    @staticmethod
    def _exit(stack, stats, frame):
        end = _clock()
        stack.pop()
        duration = end - frame[_START]
        covered = frame[_CHILD]
        if frame[_OVERLAP]:
            covered += _union(frame[_OVERLAP])
        metric, parent = frame[_METRIC], frame[_PARENT]
        stats.self_s[metric] += duration - covered
        if parent is None:
            stats.edges[metric, None] += 1
            return
        stats.edges[metric, parent[_METRIC]] += 1
        if frame[_FOREIGN]:
            with _FOREIGN_LOCK:  # several workers may close under one parent
                if parent[_OVERLAP] is None:
                    parent[_OVERLAP] = []
                parent[_OVERLAP].append((frame[_START], end))
        else:
            parent[_CHILD] += duration

    @contextmanager
    def span(self, metric):
        stack, stats, frame = self._enter(metric)
        try:
            yield
        finally:
            self._exit(stack, stats, frame)

    def _wrapper(self, metric, fn):
        observe = OBSERVERS.get(metric)
        signature = inspect.signature(fn) if observe else None
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats, frame = enter(metric)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stats.errors[metric, type(exc).__name__] += 1
                raise
            finally:
                leave(stack, stats, frame)
            if observe is not None and metric not in self.broken:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    stats.extra.update(observe(bound, result))
                except (KeyError, TypeError, AttributeError):
                    self.broken.add(metric)
            return result

        return wrapper

    def install(self):
        for metric, bindings in SPANS.items():
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(f"parabolic_mr.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                setattr(module, attr, self._wrapper(metric, fn))
                self._patched.append((module, attr, fn))
                self.present.add(metric)

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def totals(self):
        """Merged (calls, self_s, extra, errors, edges) over every thread."""
        calls, self_s, extra, errors, edges = Counter(), Counter(), Counter(), Counter(), Counter()
        for stats in self._all_stats:
            for (metric, parent), n in stats.edges.items():
                calls[metric] += n
                edges[metric, parent] += n
            self_s.update(stats.self_s)
            extra.update(stats.extra)
            errors.update(stats.errors)
        return calls, self_s, extra, errors, edges
