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
    # the package exports what the pipeline, the demos, the benchmark and
    # the acceptance tests use; a name that only the other tests call
    # lives in tests/support.py
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
    callers.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_names_used, callers))
    assert sorted(exported - used) == []

