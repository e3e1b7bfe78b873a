"""Repository-level checks: the runtime dependency set, the public surface
and result fields, where numpy's error state is set, how a failing property
test reports, where dissociation is decided and mbar derived, what the
oracle imports, that core alone holds the closed-form algebra, the argument
checks of a crossing scan and of a scenario, the kernel calls of a scan and
of an inversion, the one line misfit and the one bounded evaluation path of
the inversion, the one scan grid and one squaring, the CLI's one writer and
one error line, the README's config-key table and library quickstart, the
module entry point, the demo scripts and the benchmark harness and tracer."""

import ast
import glob
import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
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


def test_public_names_are_pinned():
    # the public surface changes only on purpose: edit this list with it
    import parabolic_mr

    assert sorted(parabolic_mr.__all__) == sorted([
        "ELECTRON_MASS", "GAMMA_ELECTRON", "HBAR", "oscillator_length",
        "DerivedParams", "EnergyDecomposition", "FieldProfile",
        "SpinSystem", "effective_frequency", "eigenfunction",
        "eigenfunction_center", "energy_decomposition", "energy_level",
        "gbar_critical", "oscillator_wavefunction",
        "scaled_spin_number", "stability_check",
        "ConvergenceError", "DissociationError", "InversionError", "PhysicsError",
        "UnidentifiableError",
        "ValidationReport", "converged_spectrum", "validate_levels",
        "CrossingPoint", "CrossingScanResult", "InversionResult",
        "TransitionLine", "crossing_scan", "identify_frequency", "transition_lines",
        "__version__",
    ])
    assert all(hasattr(parabolic_mr, name) for name in parabolic_mr.__all__)


def test_public_result_fields_are_pinned():
    # a result's fields change only on purpose: edit this table with them.
    # ValidationReport.converged, which the benchmark reads, is a class
    # constant, since an unconverged sector raises
    import dataclasses

    import parabolic_mr
    from parabolic_mr import oracle

    classes = [getattr(parabolic_mr, name) for name in (
        "CrossingScanResult", "CrossingPoint", "TransitionLine", "InversionResult",
        "ValidationReport",
    )] + [oracle.LevelRecord, oracle.SectorConvergence]
    assert {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in classes} == {
        "CrossingScanResult": ["crossings", "degenerate_pairs"],
        "CrossingPoint": ["gbar", "level_a", "level_b", "energy", "bracket_width", "converged"],
        "TransitionLine": ["m_from", "n_from", "m_to", "n_to", "delta_e", "frequency_hz"],
        "InversionResult": [
            "omega_estimate", "residual_rms_hz", "bracket", "identifiable", "reason",
        ],
        "ValidationReport": ["records", "sectors", "tolerance", "max_rel_error"],
        "LevelRecord": ["m_quantum", "n", "analytic_j", "numeric_j", "rel_error", "scale_j"],
        "SectorConvergence": ["m_quantum", "grid", "margin", "refinements"],
    }
    assert parabolic_mr.ValidationReport.converged is True


def _module_trees():
    """The parsed source of each package module, by module name."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "parabolic_mr", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.splitext(os.path.basename(path))[0]] = ast.parse(fh.read())
    return trees


def test_floating_point_policy_is_stated_once_per_function():
    # a function whose docs promise silence or a ValueError past the doubles
    # ignores every numpy error state once, around its whole evaluation, as a
    # Python float does, and then checks its result; no other line does
    def sites(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate":
            yield owner, ast.unparse(node)
        for child in ast.iter_child_nodes(node):
            yield from sites(child, owner)

    found = sorted(
        (module, *site) for module, tree in _module_trees().items() for site in sites(tree, None)
    )
    assert found == [
        (module, owner, "np.errstate(all='ignore')")
        for module, owner in [
            ("core", "__post_init__"),  # SpinSystem's
            ("core", "_square"),
            ("core", "energy_level"),
            ("core", "oscillator_wavefunction"),
            ("core", "scaled_spin_number"),
            ("oracle", "build_sector_hamiltonian"),
            ("oracle", "converged_spectrum"),
            ("spectroscopy", "_scan_grid"),
            ("spectroscopy", "crossing_scan"),
            ("spectroscopy", "identify_frequency.misfits"),
            ("spectroscopy", "transition_lines"),
        ]
    ]


def test_failing_property_test_shows_its_example(tmp_path):
    # under the suite's warnings-as-errors setting, a failing hypothesis test
    # reports its falsifying example rather than an internal error
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "-p", "no:cacheprovider", "test_fails.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output


def test_dissociation_error_raised_in_three_places():
    # one rule for the closed forms (core._require_bound), one check of the
    # oracle's own (kept apart so the oracle stays independent), and the
    # crossing scan's refusal of a range with no bound stretch at all
    sites = []
    for module, tree in _module_trees().items():
        owner = {}
        for top in tree.body:
            for node in ast.walk(top):
                owner[node] = getattr(top, "name", None)
        sites.extend(
            (module, owner[node])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DissociationError"
        )
    assert sorted(sites) == [
        ("core", "_require_bound"),
        ("oracle", "_bound_mbar"),
        ("spectroscopy", "crossing_scan"),
    ]


def test_one_sector_rule_and_an_oracle_apart_from_it():
    # the closed forms refuse an unbound sector only where they derive its
    # mbar and sqrt(1 - mbar) (core._sector), over one level or an array of
    # them; they read omega^2 as squared once by SpinSystem; and the oracle
    # takes from core only the types, the M and n checks and the energy it checks
    trees = _module_trees()
    callers = [
        (module, getattr(top, "name", None))
        for module, tree in trees.items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_require_bound"
    ]
    assert sorted(callers) == [("core", "_sector")]
    squares = [
        (module, node.lineno)
        for module in ("core", "spectroscopy")
        for node in ast.walk(trees[module])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and getattr(node.left, "attr", getattr(node.left, "id", None)) == "omega"
    ]
    assert squares == []
    imported = [
        alias.name
        for node in ast.walk(trees["oracle"])
        if isinstance(node, ast.ImportFrom) and node.module == "core"
        for alias in node.names
    ]
    assert sorted(imported) == [
        "FieldProfile", "SpinSystem", "_projection", "_require_int", "energy_level"
    ]


def test_core_owns_the_closed_form_algebra():
    # the pair kernel sits beside energy_level in core, and spectroscopy
    # builds on it without the sector algebra: it imports none of its parts
    # and reads no parameter the algebra needs, only a system's spin and levels
    trees = _module_trees()
    defined = {
        module: {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
        for module, tree in trees.items()
    }
    kernel = {"_level_parts", "_pair_from_parts", "energy_level"}
    assert kernel <= defined["core"]
    assert not kernel & defined["spectroscopy"]
    algebra = {"_sector", "_mbar", "_field_at_offset", "_gradient_at_offset"}
    readers = sorted(
        (module, name)
        for module, tree in trees.items() if module != "core"
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [getattr(node, "id", getattr(node, "attr", None))]
        )
        if name in algebra
    )
    assert readers == []
    parameters = {"gamma", "mass", "omega", "offset", "b0", "_omega_squared"}
    read = sorted(
        (node.attr, node.lineno) for node in ast.walk(trees["spectroscopy"])
        if isinstance(node, ast.Attribute) and node.attr in parameters
    )
    assert read == []


def test_crossing_points_are_built_in_one_place():
    # grid zeros, converged, frozen and step-capped brackets all close in the
    # bisection loop, and nothing but the return follows that loop
    trees = _module_trees()
    builders = [
        (module, getattr(top, "name", None))
        for module, tree in trees.items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CrossingPoint"
    ]
    assert builders == [("spectroscopy", "_bisect_crossings")]
    (bisect,) = [
        top for top in trees["spectroscopy"].body
        if getattr(top, "name", None) == "_bisect_crossings"
    ]
    assert [type(node) for node in bisect.body[-2:]] == [ast.For, ast.Return]


def test_inversion_has_one_line_misfit():
    # the coarse scan and every golden-section step fit line energies from
    # the pair kernel through one misfit, the only squaring in spectroscopy,
    # and build no TransitionLine on the way
    tree = _module_trees()["spectroscopy"]

    def called(top):
        return {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
        }

    tops = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert not called(tops["identify_frequency"]) & {"transition_lines", "_make_line"}
    assert [name for name, top in tops.items() if "_square" in called(top)] == ["_misfits"]


def test_inversion_evaluates_through_one_bounded_path():
    # spectroscopy bounds its kernel calls by one block constant, and the
    # inversion's coarse scan and golden rounds reach the kernel and the
    # misfit only through its one closure, which blocks them by that constant
    tree = _module_trees()["spectroscopy"]
    constants = [
        target.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    ]
    assert [name for name in constants if "BLOCK" in name] == ["SCAN_BLOCK_POINTS"]
    (inversion,) = [top for top in tree.body if getattr(top, "name", None) == "identify_frequency"]
    closures = [node for node in ast.walk(inversion) if node is not inversion
                and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert [node.name for node in closures] == ["misfits"]

    def kernel_calls(top):
        return sorted(
            name for node in ast.walk(top) if isinstance(node, ast.Call)
            for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
            if name in ("_level_parts", "_pair_from_parts", "_pair_delta_e", "_misfits")
        )

    assert kernel_calls(inversion) == kernel_calls(closures[0]) == [
        "_level_parts", "_misfits", "_pair_from_parts"
    ]
    assert "SCAN_BLOCK_POINTS" in {node.id for node in ast.walk(inversion)
                                   if isinstance(node, ast.Name)}


def test_inversion_checks_its_system_once(monkeypatch):
    # the README quickstart inversion checks its template once, at the bracket
    # ends, and derives every omega block from that checked pair
    from parabolic_mr import FieldProfile, SpinSystem, identify_frequency, transition_lines

    system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1.1e5, offset=2e-6)
    field = FieldProfile(b0=0.0, g=0.002, gbar=40.0)
    lines = [l.frequency_hz for l in transition_lines(system, field, n=1)]
    checks = []

    def counting(self, _check=SpinSystem.__post_init__):
        checks.append(self.omega)
        _check(self)

    monkeypatch.setattr(SpinSystem, "__post_init__", counting)
    result = identify_frequency(lines, system, field, 1, bracket=(5e4, 6e5))
    assert repr(result.omega_estimate) == "109999.99999829027"
    assert len(checks) == 1 and checks[0].shape == (2,)


def test_scan_conventions_are_written_once():
    # the crossing scan, the inversion's coarse scan and the figure-1 level
    # table take their points from one grid helper, and no other function
    # builds a grid over a range; core._square squares an array without a
    # Python loop and saturates to inf itself, so no caller catches its
    # OverflowError (cli._number's float() of a huge integer is the other)
    trees = _module_trees()

    def tops():
        return [(module, top) for module, tree in trees.items()
                for top in tree.body if isinstance(top, ast.FunctionDef)]

    def names(nodes):
        return {getattr(n.func, "id", getattr(n.func, "attr", None))
                for n in nodes if isinstance(n, ast.Call)}

    callers = sorted((module, top.name) for module, top in tops()
                     if "_scan_grid" in names(ast.walk(top)))
    assert callers == [
        ("cli", "_cmd_figure1"), ("spectroscopy", "crossing_scan"),
        ("spectroscopy", "identify_frequency"),
    ]
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def builds_grid(node):
        # a division over range(): in a comprehension, or numpy's arange
        if isinstance(node, comprehensions):
            return any(
                isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "range"
                for gen in node.generators
            ) and any(isinstance(part, ast.Div) for part in ast.walk(node))
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and (
            "arange" in names(ast.walk(node)))

    grids = [(module, top.name) for module, top in tops()
             for node in ast.walk(top) if builds_grid(node)]
    assert grids == [("spectroscopy", "_scan_grid")]
    catching = sorted(
        (module, top.name) for module, top in tops() for node in ast.walk(top)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and "OverflowError" in ast.unparse(node.type)
    )
    assert catching == [("cli", "_number"), ("core", "_square")]
    (square,) = [top for module, top in tops() if module == "core" and top.name == "_square"]
    assert not [node for node in ast.walk(square)
                if isinstance(node, (ast.For, ast.While) + comprehensions)]
    assert "float_power" in names(ast.walk(square))


def test_cli_has_one_writer_and_one_error_line():
    # every subcommand hands its files to one writer, which makes --out and
    # prints the one "wrote" line; run prints the only ERROR line, and a
    # validation mismatch reaches it as an exception mapped to exit 1
    tree = _module_trees()["cli"]
    owner = {}  # node -> name of the top-level def, class or assignment holding it
    for top in tree.body:
        name = getattr(top, "name", None)
        if isinstance(top, ast.Assign):
            name = getattr(top.targets[0], "id", None)
        for node in ast.walk(top):
            owner[node] = name
    assert "_emit" not in {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    makedirs = [n for n in calls if getattr(n.func, "attr", None) == "makedirs"]
    assert [owner[n] for n in makedirs] == ["_write"]
    prints = [n for n in calls if getattr(n.func, "id", None) == "print"]
    to_stderr = [n for n in prints if any(k.arg == "file" for k in n.keywords)]
    assert [owner[n] for n in to_stderr] == ["run"]
    assert ast.unparse(to_stderr[0].keywords[0].value) == "sys.stderr"
    leading = [n.args[0].values[0] if isinstance(n.args[0], ast.JoinedStr) else n.args[0]
               for n in prints]
    wrote = [n for n, text in zip(prints, leading) if str(text.value).startswith("wrote ")]
    assert [owner[n] for n in wrote] == ["_write"] and len(prints) == 2
    uses = [
        owner[node] for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "EXIT_VALIDATION_FAILED"
        and isinstance(node.ctx, ast.Load)
    ]
    assert uses == ["_ERROR_EXITS"]


def test_scenario_checks_projections_once_per_key(monkeypatch):
    # Scenario checks the M of ``levels`` in one array call and ``fixed_m``
    # in another, however many levels a config lists
    from parabolic_mr import cli
    from parabolic_mr.core import FieldProfile, SpinSystem

    checked = []

    def counting(system, m):
        checked.append(m)
        return projection(system, m)

    projection = cli._projection
    monkeypatch.setattr(cli, "_projection", counting)
    system = SpinSystem(mass=1e-26, gamma=5e10, spin=1.5, omega=2e5)
    levels = tuple((m, n) for m in system.levels() for n in range(3))
    cli.Scenario(system, FieldProfile(0.0, 0.002, 10.0), levels=levels, fixed_m=0.5)
    assert [m.tolist() for m in checked] == [[m for m, _ in levels], [0.5]]


def test_crossing_scan_checks_projections_once_per_scan(monkeypatch):
    # the scan checks the levels' M in one array call, and bisection checks
    # none of its steps: only the energies of tested brackets go through
    # energy_level and its check
    from parabolic_mr import core, spectroscopy
    from parabolic_mr.cli import figure1_scenario

    scenario = figure1_scenario()
    levels = scenario.all_levels()
    checked = []

    def counting(system, m):
        checked.append(m)
        return projection(system, m)

    projection = core._projection
    monkeypatch.setattr(core, "_projection", counting)
    monkeypatch.setattr(spectroscopy, "_projection", counting)

    def scan():
        checked.clear()
        result = spectroscopy.crossing_scan(
            scenario.system, scenario.field, (scenario.gbar_min, scenario.gbar_max),
            levels, steps=scenario.scan_steps,
        )
        return result, len(checked)

    result, count = scan()
    assert len(result.crossings) == 39 and all(c.converged for c in result.crossings)
    assert count <= 3 * len(levels) + 2 * len(result.crossings)
    # no bracket closes within 10 or 20 steps: the count is the scan's call,
    # plus the last step's evaluation of the open brackets' energies, one per
    # level of each pair
    counts = []
    for cap in (10, 20):
        monkeypatch.setattr(spectroscopy, "MAX_BISECTION_STEPS", cap)
        result, count = scan()
        assert not any(c.converged for c in result.crossings)
        counts.append(count)
    assert counts == [1 + 2] * 2


def test_search_work_counts_are_pinned(monkeypatch):
    # the kernel calls of the default figure-1 scan and of the README
    # quickstart inversion, exact and host-independent: a change in them is a
    # change in work that the change log must explain.  Run step by step, the
    # scan made 41 pair-kernel and 8 energy_level calls, the inversion 127
    # pair-kernel and 43 _misfits calls.
    from parabolic_mr import FieldProfile, SpinSystem, spectroscopy, transition_lines
    from parabolic_mr.cli import figure1_scenario

    calls = {}
    for name in ("_pair_from_parts", "energy_level", "_misfits"):
        def counting(*args, _name=name, _kernel=getattr(spectroscopy, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _kernel(*args)

        monkeypatch.setattr(spectroscopy, name, counting)

    scenario = figure1_scenario()
    result = spectroscopy.crossing_scan(
        scenario.system, scenario.field, (scenario.gbar_min, scenario.gbar_max),
        scenario.all_levels(), steps=scenario.scan_steps,
    )
    # 66 pairs x 257 points in 3 grid blocks, 2 bisection rounds; one
    # energy_level pair
    assert len(result.crossings) == 39
    assert calls == {"_pair_from_parts": 3 + 2, "energy_level": 0 + 2}

    system = SpinSystem(mass=2e-26, gamma=8e10, spin=1.5, omega=1.1e5, offset=2e-6)
    field = FieldProfile(b0=0.0, g=0.002, gbar=40.0)
    lines = [l.frequency_hz for l in transition_lines(system, field, n=1)]
    calls.clear()
    result = spectroscopy.identify_frequency(lines, system, field, 1, bracket=(5e4, 6e5))
    assert abs(result.omega_estimate - system.omega) < 1e-9 * system.omega
    # the coarse scan and 10 golden-section rounds
    assert calls == {"_pair_from_parts": 1 + 10, "_misfits": 1 + 10}


def test_readme_key_table_mirrors_config_schema():
    # every config key the parser accepts has one row in the README's table
    from parabolic_mr import cli

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| key | type | default | range | unit |")
    documented = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        documented += re.findall(r"`(\w+)`", line.split("|")[1])
    assert sorted(documented) == sorted(cli._SCHEMA)


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


def test_benchmark_tracer_bindings_resolve():
    # a traced name that vanished would make its per-layer metrics read null
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for metric, bindings in tracing.SPANS.items():
        resolved = [
            callable(getattr(importlib.import_module(f"parabolic_mr.{module}"), attr, None))
            for module, attr in bindings
        ]
        assert any(resolved), metric


def test_traced_benchmark_reports_every_layer():
    # a traced run of the validate and cli workloads over the whole block of
    # ops a traced benchmark run repeats (TRACE_OPS) reports every per-layer
    # value as a finite number, no null or NaN, and prints nothing else
    script = (
        "import json, sys\n"
        "sys.path.insert(0, 'bench')\n"
        "import run\n"
        "for workload in ('validate', 'cli'):\n"
        "    result, _ = run.measure(workload, 0, 0.0, 1, import_probes=1,\n"
        "                            trace_ops=run.TRACE_OPS[workload])\n"
        "    assert result['attempted'] == run.TRACE_OPS[workload], result\n"
        "    print(json.dumps(result))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr[-4000:]

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    results = [json.loads(line, parse_constant=refuse) for line in proc.stdout.splitlines()]
    assert len(results) == 2
    for result in results:
        assert result["correct"] and result["failed"] == 0, result
        for name, metric in result["metrics"].items():
            value = metric["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def run_python(*args):
    """A fresh interpreter run with ``args`` on the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )


def run_script(name, *args):
    """A demo script run in a fresh interpreter on the package in src/."""
    return run_python(os.path.join(ROOT, "scripts", name), *args)


def test_readme_library_quickstart_runs():
    # the quickstart's one python block runs as printed, and its inversion
    # recovers system.omega to the 1e-10 relative the README claims
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    check = "print(repr(abs(result.omega_estimate - system.omega) / system.omega))\n"
    proc = run_python("-c", block + check)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) <= 1e-10


def test_figure1_demo_writes_the_pinned_figure(tmp_path):
    from test_bit_identity import FIGURE1_SHA256

    proc = run_script("figure1_demo.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    } == FIGURE1_SHA256


#: The mixture demo's stdout: its estimates come from ``identify_frequency``.
MIXTURE_DEMO_STDOUT = """\
line positions (n = 1 sublevel spectrum, Hz):
  species A: 53.001, 53.003, 53.005
  species B: 52.981, 52.982, 52.982

inversion over bracket (5e4, 6e5) rad/s:
  species A: omega_hat = 110000 rad/s (true 110000, relative error 1.55e-11)
  species B: omega_hat = 270000 rad/s (true 270000, relative error 7.83e-10)

uniform field control: identifiable = False (unidentifiable: homogeneous field)
"""


def test_mixture_demo_prints_the_pinned_estimates():
    proc = run_script("mixture_identification_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == MIXTURE_DEMO_STDOUT
