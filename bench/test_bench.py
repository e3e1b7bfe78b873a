"""Tests of the benchmark harness itself.  Run with ``python -m pytest bench``.

They check that inputs follow the seed, that every per-op checker rejects a
wrong answer, that the tracer survives vanished internals, and that the
smoke mode passes.  They gate no timing.
"""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import parabolic_mr.spectroscopy as pm_spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from parabolic_mr.errors import ConvergenceError  # noqa: E402


def test_smoke_mode_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_inputs_follow_the_seed():
    first = workloads.crossings_ops(7, 1)[0].run()
    again = workloads.crossings_ops(7, 1)[0].run()
    other = workloads.crossings_ops(8, 1)[0].run()
    assert first == again
    assert first != other


def test_invert_check_rejects_a_wrong_omega():
    op = workloads.invert_ops(0, 1)[0]
    result = op.run()
    assert op.check(result, None) is None
    assert op.check(replace(result, omega_estimate=result.omega_estimate * (1 + 1e-5)), None)
    assert op.check(replace(result, identifiable=False), None)
    assert op.check(None, RuntimeError("boom"))


def test_validate_check_rejects_a_wrong_level():
    op = next(op for op in workloads.validate_ops(0, 8) if op.kind == "k5")
    report = op.run()
    assert op.check(report, None) is None
    bad = report.records[0]
    records = (replace(bad, numeric_j=bad.numeric_j * (1 + 1e-6)),) + report.records[1:]
    assert op.check(replace(report, records=records), None)
    assert op.check(replace(report, records=report.records[1:]), None)


def test_crossings_check_rejects_a_false_crossing():
    op = workloads.crossings_ops(0, 1)[0]
    result = op.run()
    assert op.check(result, None) is None
    moved = replace(result.crossings[0], gbar=result.crossings[0].gbar * 1.001)
    assert op.check(replace(result, crossings=(moved,) + result.crossings[1:]), None)
    assert op.check(replace(result, crossings=()), None)


def test_cli_check_rejects_changed_bytes_and_wrong_codes(tmp_path):
    ops = workloads.cli_ops(0, str(tmp_path), size=workloads.CLI_CONFIGS // 2)
    op = next(op for op in ops if op.kind == "spectrum")
    assert op.check(*run._execute(op)) is None  # records the reference bytes
    assert op.check(*run._execute(op)) is None
    result = op.run()
    path = tmp_path / op.ident / "levels.csv"
    path.write_bytes(path.read_bytes() + b"\n")
    assert op.check(result, None) == "output bytes differ from the warm-up pass"
    bad = next(op for op in ops if op.kind == "bad-unknown-key")
    assert bad.check(*run._execute(bad)) is None
    assert bad.check((0, ""), None)


def test_known_defects_are_limited_to_the_probes(tmp_path):
    error = ConvergenceError("stalled")
    for op in workloads.validate_ops(0, 8):
        assert not op.known_defect(None, error)
    (probe,) = workloads.defect_probes("validate", str(tmp_path))
    assert probe.known_defect(None, error)
    for op in workloads.cli_ops(0, str(tmp_path), size=workloads.CLI_CONFIGS // 2):
        assert not op.known_defect(None, OverflowError("inf"))
        assert not op.known_defect((3, "ERROR 3: x"), None)
    overflow, nan = workloads.defect_probes("cli", str(tmp_path))
    assert overflow.known_defect(None, OverflowError("inf"))
    assert not overflow.known_defect((3, "ERROR 3: x"), None)
    assert nan.known_defect((3, "ERROR 3: x"), None)
    for op in workloads.invert_ops(0, 20):
        assert not op.known_defect(None, ConvergenceError("not an inversion failure"))


def test_cli_probes_reproduce_or_pass(tmp_path):
    status = run.probe_defects("cli", str(tmp_path))
    assert sorted(status) == ["cli-defect-invert-nan", "cli-defect-spin-infinity"]
    assert set(status.values()) <= {"reproduced", "fixed"}


def test_tracer_counts_spans_and_restores():
    op = workloads.crossings_ops(0, 1)[0]
    original = pm_spec._pair_delta_e
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            op.run()
    finally:
        tracer.restore()
    assert pm_spec._pair_delta_e is original
    calls, self_s, extra, errors, edges = tracer.totals()
    assert calls["spectroscopy.crossing_scan"] == 1
    grid = extra["crossing_scan.grid_evals"]
    assert op.kind == "S=1,n_max=3,steps=64"
    assert grid == 66 * 65  # twelve levels, 64 steps
    assert edges["spectroscopy.pair_delta_e", "spectroscopy.crossing_scan"] > grid
    assert all(value >= -1e-9 for value in self_s.values())


def test_traced_counts_repeat_exactly():
    ops = workloads.invert_ops(0, 4)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tally, _ = run.run_cycles(ops, 0.0, tracer)
        finally:
            tracer.restore()
        assert tally.correct == len(ops)
        counts.append(dict(tracer.totals()[0]))
    assert counts[0] == counts[1]
    assert counts[0]["spectroscopy.transition_lines"] > 0


def test_vanished_names_report_none(monkeypatch):
    monkeypatch.delattr(pm_spec, "_pair_delta_e")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tally, written = run.run_cycles(workloads.crossings_ops(0, 1), 0.0, tracer)
    finally:
        tracer.restore()
    assert tally.correct == 0  # crossing_scan itself needs the deleted helper
    metrics = run.per_layer(tracer, tally.attempted, written, {}, 0.0, {})
    assert metrics["spectroscopy.pair_delta_e.calls"][0] is None
    assert metrics["spectroscopy.bisection_evals"][0] is None
    assert metrics["spectroscopy.crossing_scan.self_s"][0] is not None


@pytest.mark.parametrize("trace", [0, 1])
def test_schema_check_catches_a_missing_metric(trace):
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    assert run.check_schema(result, trace)
