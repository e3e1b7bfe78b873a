#!/usr/bin/env python3
"""Benchmark of parabolic-mr: one workload per run, closed loop, one client.

    python3 bench/run.py --workload invert --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run it from anywhere; it imports the package from ``src/`` next to this
directory and fails (exit 2, no result) when that is missing.  All inputs
are generated from ``--seed`` before timing starts.  The last line of
standard output is the result JSON; the line before it is the full run
record (metadata, failures, defect probes, CLI output digests), also written to
``bench/out/``.  See ``bench/README.md`` for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh-interpreter set-up measurements per untraced run, after one
#: unmeasured probe that primes the bytecode cache.
SETUP_PROBES = 7
IMPORT_PROBES = 3
#: p90 needs at least 10 samples beyond it.
MIN_OPS = 100
#: A run stops starting ops after this long, whatever MIN_OPS says.
HARD_LIMIT_S = 140.0

#: Ops in the fixed list the traced run repeats: one schedule block each (for
#: validate the block plus the two tol=1e-10 ops).
TRACE_OPS = {"invert": 20, "validate": 22, "crossings": 20, "cli": 48}
#: Ops the smoke mode runs per workload: every op kind at least once.
SMOKE_OPS = {"invert": 8, "validate": 8, "crossings": 8, "cli": 48}

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "PARABOLIC_MR_THREADS",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package source, bad probe)."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_package():
    if not os.path.isfile(os.path.join(SRC, "parabolic_mr", "__init__.py")):
        raise SetupError(f"no package source at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import parabolic_mr

    if os.path.dirname(os.path.dirname(os.path.abspath(parabolic_mr.__file__))) != SRC:
        raise SetupError(f"imported parabolic_mr from {parabolic_mr.__file__}, not {SRC}")
    return parabolic_mr


# ------------------------------------------------------------------ probes


def setup_probe(workload, workdir):
    """Child process: time ``import parabolic_mr`` plus the warm-up op.  The
    main process runs and checks the same op again in its warm-up."""
    start = time.perf_counter()
    import_package()
    import workloads

    try:
        workloads.warmup(workload, workdir).run()
    except Exception:  # reported by the main process's warm-up check
        pass
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload, workdir, probes):
    """Median set-up time over ``probes`` fresh interpreters."""
    values = []
    for i in range(probes + 1):  # the first probe only primes the bytecode cache
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload,
             "--workdir", workdir],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=60,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def _importtime_breakdown():
    """Seconds to import parabolic_mr, and the parts spent importing scipy and
    numpy: the cumulative time of their outermost import entries, which
    includes whatever those imports pulled in for the first time (numpy
    modules first imported by scipy count as scipy)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import parabolic_mr"],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=60,
    )
    if proc.returncode != 0:
        raise SetupError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    entries = []  # (depth, top-level package, cumulative us), children first
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header, or not an importtime line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip().split(".")[0], int(fields[1])))
    totals = {"parabolic_mr": 0, "scipy": 0, "numpy": 0}
    parents = []  # enclosing packages of the current entry, walking parents first
    for depth, package, cumulative in reversed(entries):
        del parents[depth:]
        if package == "parabolic_mr" and depth == 0:
            totals[package] += cumulative
        elif package in ("scipy", "numpy") and not {"scipy", "numpy"} & set(parents):
            totals[package] += cumulative
        parents.append(package)
    if not totals["parabolic_mr"]:
        raise SetupError("importtime output has no parabolic_mr entry")
    return {f"import.{'total' if key == 'parabolic_mr' else key}_s": value / 1e6
            for key, value in totals.items()}


def measure_imports(probes):
    samples = [_importtime_breakdown() for _ in range(probes)]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------- running


def _execute(op):
    try:
        return op.run(), None
    except Exception as err:  # counted as a failed op
        return None, err


class Tally:
    """Outcome of a sequence of ops: latencies, failures, and their kinds."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.correct = 0
        self.failures = {}  # ident -> (reason, known defect)
        self.elapsed = 0.0

    def add(self, op, seconds, result, exc):
        reason = op.check(result, exc)
        self.attempted += 1
        if reason is None:
            self.correct += 1
            self.latencies.append(seconds)
        else:
            self.latencies.append(math.inf)
            self.failures[op.ident] = (reason, bool(op.known_defect(result, exc)))

    @property
    def failed(self):
        return self.attempted - self.correct

    @property
    def unexpected(self):
        return sorted(ident for ident, (_, known) in self.failures.items() if not known)

    def percentile_ms(self, q):
        """Nearest-rank percentile; a failed op counts as never finishing,
        reported as the whole measured interval."""
        ordered = sorted(self.latencies)
        value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
        return 1000.0 * (value if math.isfinite(value) else self.elapsed)


def run_timed(ops, seconds, min_ops):
    """Closed loop over ``ops`` until ``seconds`` have passed and at least
    ``min_ops`` ops ran."""
    tally = Tally()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if (now >= deadline and tally.attempted >= min_ops) or now - start > HARD_LIMIT_S:
            break
        op = ops[i % len(ops)]
        i += 1
        t0 = time.perf_counter()
        result, exc = _execute(op)
        tally.add(op, time.perf_counter() - t0, result, exc)
    tally.elapsed = time.perf_counter() - start
    return tally


def run_cycles(ops, seconds, tracer=None):
    """Repeat the whole list ``ops`` until ``seconds`` have passed (at least
    once).  With a tracer, each op runs inside a root span."""
    tally = Tally()
    written = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            t0 = time.perf_counter()
            if tracer is None:
                result, exc = _execute(op)
            else:
                with tracer.span("op"):
                    result, exc = _execute(op)
            tally.add(op, time.perf_counter() - t0, result, exc)
            written += getattr(op, "written", 0)
        if time.perf_counter() - start >= seconds:
            break
    tally.elapsed = time.perf_counter() - start
    return tally, written


def warm(workload, ops, workdir):
    """Untimed warm-up: the workload's warm-up op, and for cli one pass over
    every config to record the reference output bytes."""
    import workloads

    extra = workloads.warmup(workload, workdir)
    result, exc = _execute(extra)
    problems = []
    reason = extra.check(result, exc)
    if reason is not None:
        problems.append(f"{extra.ident}: {reason}")
    if workload == "cli":
        for op in ops:
            result, exc = _execute(op)
            reason = op.check(result, exc)
            if reason is not None and not op.known_defect(result, exc):
                problems.append(f"{op.ident}: {reason}")
    return problems


def probe_defects(workload, workdir):
    """Run the workload's defect probes once, untimed.  Returns ident ->
    "reproduced" (the documented failure), "fixed" (the op now passes) or
    "unexpected: <reason>" (it fails some other way)."""
    import workloads

    status = {}
    for op in workloads.defect_probes(workload, workdir):
        result, exc = _execute(op)
        reason = op.check(result, exc)
        if reason is None:
            status[op.ident] = "fixed"
        elif op.known_defect(result, exc):
            status[op.ident] = "reproduced"
        else:
            status[op.ident] = f"unexpected: {reason}"
    return status


# ---------------------------------------------------------------- metrics


def end_to_end(tally, setup_s):
    return {
        "ops_per_s": (tally.correct / tally.elapsed, "1/s"),
        "latency_p50_ms": (tally.percentile_ms(0.50), "ms"),
        "latency_p90_ms": (tally.percentile_ms(0.90), "ms"),
        "success_rate": (tally.correct / tally.attempted, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, n_ops, written, imports, overhead, defects):
    """Per-op layer metrics; ``None`` where a traced name has vanished.
    ``defects`` is the defect-probe status of the run (not per op)."""
    calls, self_s, extra, errors, edges = tracer.totals()

    def per_op(value, *spans):
        if any(span not in tracer.present or span in tracer.broken for span in spans):
            return None
        return value / n_ops

    def count(span):
        return per_op(calls[span], span), "count"

    def self_time(span):
        return per_op(self_s[span], span), "s"

    pair, scan = "spectroscopy.pair_delta_e", "spectroscopy.crossing_scan"
    build, solve = "oracle.matrix_build", "oracle.sector_solve"
    return {
        **{name: (value, "s") for name, value in imports.items()},
        "core.energy_level.calls": count("core.energy_level"),
        "core.energy_level.self_s": self_time("core.energy_level"),
        "core.scaled_spin_number.calls": count("core.scaled_spin_number"),
        "spectroscopy.transition_lines.calls": count("spectroscopy.transition_lines"),
        "spectroscopy.transition_lines.self_s": self_time("spectroscopy.transition_lines"),
        "spectroscopy.identify_frequency.self_s": self_time("spectroscopy.identify_frequency"),
        "spectroscopy.pair_delta_e.calls": count(pair),
        "spectroscopy.crossing_scan.self_s": self_time(scan),
        "spectroscopy.bisection_evals": (
            per_op(edges[pair, scan] - extra["crossing_scan.grid_evals"], pair, scan), "count"),
        "oracle.matrix_build.calls": count(build),
        "oracle.matrix_build.self_s": self_time(build),
        "oracle.eigensolve.calls": count("oracle.eigensolve"),
        "oracle.eigensolve.self_s": self_time("oracle.eigensolve"),
        "oracle.grid_points": (per_op(extra["oracle.grid_points"], build), "count"),
        "oracle.refinements": (per_op(calls[build] - calls[solve], build, solve), "count"),
        "oracle.convergence_errors": (
            per_op(errors[solve, "ConvergenceError"], solve), "count"),
        "cli.run.self_s": self_time("cli.run"),
        "cli.load_config.self_s": self_time("cli.load_config"),
        "cli.write.self_s": self_time("cli.write"),
        "cli.bytes_written": (written / n_ops, "bytes"),
        "trace.overhead_frac": (overhead, "fraction"),
        "defects.reproduced": (
            sum(status == "reproduced" for status in defects.values()), "count"),
    }


# ---------------------------------------------------------------- metadata


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist):
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_metadata(args):
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    return {
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# ------------------------------------------------------------------- main


def measure(workload, seed, seconds, trace, *, setup_probes=SETUP_PROBES,
            import_probes=IMPORT_PROBES, min_ops=MIN_OPS, trace_ops=None):
    """One benchmark run; returns (result, record)."""
    import_package()
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        if not trace:
            setup_s = measure_setup(workload, workdir, setup_probes)
        else:
            imports = measure_imports(import_probes)
        ops = workloads.build(workload, seed, workdir)
        problems = warm(workload, ops, workdir)
        if trace:
            fixed = ops[: trace_ops or TRACE_OPS[workload]]
            plain, _ = run_cycles(fixed, seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tally, written = run_cycles(fixed, seconds / 2.0, tracer)
            finally:
                tracer.restore()
            overhead = None  # undefined when no op succeeds
            if plain.correct and tally.correct:
                overhead = 1.0 - (tally.correct / tally.elapsed) / (plain.correct / plain.elapsed)
            defects = probe_defects(workload, workdir)
            metrics = per_layer(tracer, tally.attempted, written, imports, overhead, defects)
            unexpected = plain.unexpected + tally.unexpected
        else:
            tally = run_timed(ops, seconds, min_ops)
            metrics = end_to_end(tally, setup_s)
            defects = probe_defects(workload, workdir)
            unexpected = tally.unexpected
        unexpected += [ident for ident, status in defects.items()
                       if status.startswith("unexpected")]
        digests = {op.ident: op.digests() for op in ops if hasattr(op, "digests")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems and not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    kinds = {op.ident: op.kind for op in ops}
    record = {
        "result": result,
        "warmup_problems": problems,
        "baseline_defects": defects,
        "failures": {ident: {"kind": kinds.get(ident), "reason": reason, "known_defect": known}
                     for ident, (reason, known) in sorted(tally.failures.items())},
        "elapsed_s": tally.elapsed,
        "cli_output_sha256": digests or None,
    }
    return result, record


def check_schema(result, trace):
    """Problems with a result line against BENCHMARK.json (empty when valid)."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            problems.append(f"{key} is not an integer")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in declared):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        value = got.get("value")
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        if not finite and not (trace and value is None):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def smoke():
    """A handful of ops per workload (SMOKE_OPS), untraced and traced: checks
    the per-op correctness checks and the result schema.  Gates no timing."""
    import workloads

    failed = False
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, record = measure(workload, 0, 0.0, trace, setup_probes=1, import_probes=1,
                                     min_ops=SMOKE_OPS[workload],
                                     trace_ops=SMOKE_OPS[workload])
            problems = check_schema(result, trace)
            if not result["correct"]:
                problems.append(f"incorrect: {record['failures']} {record['warmup_problems']} "
                                f"{record['baseline_defects']}")
            failed = failed or bool(problems)
            print(f"smoke {workload} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} " + ("OK" if not problems else f"FAIL {problems}"))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("invert", "validate", "crossings", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-check, no timing")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.setup_probe, args.workdir)
            return 0
        if args.smoke:
            import_package()
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    record["meta"] = run_metadata(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
