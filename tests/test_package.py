"""The installed surface: a cheap import and the demo scripts."""

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
