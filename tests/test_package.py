"""The installed surface: a cheap import and the demo scripts."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_neither_optimizer_nor_integrator():
    proc = run_python(
        "-c",
        "import sys, obsphase; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_distance_refines_without_scipy_optimize():
    # d = 3 and 4 Haar pairs are refined by a descent that obspace runs
    # itself
    proc = run_python(
        "-c",
        "import sys, numpy as np\n"
        "import obsphase.obspace as obspace\n"
        "from obsphase import OrthDecomposition, distance_DW\n"
        "runs = []\n"
        "refine = obspace._refine\n"
        "obspace._refine = lambda *a, **k: runs.append(1) or refine(*a, **k)\n"
        "rng = np.random.default_rng(21)\n"
        "def frame(d):\n"
        "    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))\n"
        "    return OrthDecomposition(q)\n"
        "for d in (3, 4):\n"
        "    distance_DW(frame(d), frame(d))\n"
        "print(len(runs) > 0, 'scipy.optimize' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True False"


def test_distance_between_one_level_decompositions_is_zero():
    # in a child process, so that a search that never ends fails by the
    # timeout instead of hanging the suite
    proc = run_python(
        "-c",
        "import numpy as np\n"
        "from obsphase import OrthDecomposition, distance_DW\n"
        "print(distance_DW(OrthDecomposition(np.eye(1)), OrthDecomposition(np.array([[1j]]))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.0"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_script_runs(path):
    proc = run_python(str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_benchmark_tracer_finds_every_name_it_wraps():
    # the tracer replaces obsphase names by attribute (cli.horizontal_lift,
    # phases.dynamical_phase, ...): one that a change removes breaks every
    # traced benchmark run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmark")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _names_used(path):
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_has_a_caller_besides_the_unit_tests():
    # the package exports what the pipeline, the demos and the benchmark
    # use; a name that only the tests call lives in tests/support.py
    package = ROOT / "src" / "obsphase"
    init = package / "__init__.py"
    exported = {
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    callers = [p for p in package.glob("*.py") if p != init]
    callers += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")]
    used = set().union(*map(_names_used, callers))
    assert sorted(exported - used) == []


# a definition no caller outside the tests names, and why it stays in src/
UNCALLED_DEFINITIONS = {
    # criterion 7 calls it as a method of a schedule, so moving it to
    # tests/support.py would edit an acceptance test's body
    "hamiltonians.HamiltonianSchedule.shifted",
}


def _definitions(node, prefix):
    """(qualified name, name) of every function, method and class under
    node, nested ones included; dunder methods are called by Python itself."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{child.name}"
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield qualified, child.name
            yield from _definitions(child, qualified)
        else:
            yield from _definitions(child, prefix)


def test_every_definition_has_a_caller_besides_the_unit_tests():
    # a function, method or class of src/obsphase is named by the pipeline,
    # the demos or the benchmark; one that only the tests use lives in
    # tests/support.py (the package's re-exports in __init__.py do not count)
    package = ROOT / "src" / "obsphase"
    callers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    callers += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")]
    used = set().union(*map(_names_used, callers))
    uncalled = {
        qualified
        for path in package.glob("*.py")
        for qualified, name in _definitions(ast.parse(path.read_text()), path.stem)
        if name not in used
    }
    assert sorted(uncalled) == sorted(UNCALLED_DEFINITIONS)
