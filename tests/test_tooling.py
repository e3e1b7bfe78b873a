"""Repository-level checks: the runtime dependency set, the module entry point
and the benchmark harness."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, parabolic_mr; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point_help_and_bad_subcommand():
    # main() parses with the parser built when the cli module is imported
    proc = subprocess.run(
        [sys.executable, "-m", "parabolic_mr", "--help"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: parabolic-mr")
    proc = subprocess.run(
        [sys.executable, "-m", "parabolic_mr", "nosuch"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr


def test_benchmark_smoke_mode_passes():
    # every workload's op checks and result schema, untraced and traced
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
