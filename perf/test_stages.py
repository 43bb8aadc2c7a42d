"""Stage timings of the phase pipeline on the rotating field at 32768 steps.

    python -m pytest perf/test_stages.py --benchmark-json=BENCH_<n>.json

The fixture is the accuracy ladder's rotating field, (w0, w1, w) =
(1, 3, 2) over one period 2 pi / w with its cyclic observable, at the
step count where both phase routes are within 1e-8 of the closed form.
Each stage runs alone on inputs built once with the public obsphase API:
schedule sampling, step exponentials, the two stages of the blocked
prefix product that a solve runs and the third that forms the running
products, the cyclicity check, the dynamical integral, and the lift with
its holonomy; the last test times one whole solve + geometric_phases.
pytest-benchmark runs each many times and reports their spread. The
suite is not collected by the default test run (testpaths = tests).
"""

import numpy as np
import pytest

from obsphase import (
    Propagator,
    detect_cyclic,
    dynamical_phase,
    from_observable,
    geometric_phases,
    holonomy,
    horizontal_lift,
    lift_from_propagator,
    make_rotating,
    sigma_x,
    sigma_z,
    solve,
)
from obsphase.linalg import expm_skew_many

STEPS = 32768
W0, W1, W = 1.0, 3.0, 2.0


@pytest.fixture(scope="module")
def rotating():
    """Schedule, period, cyclic observable, midpoint samples and steps."""
    h, T = make_rotating(W0, W1, W), 2 * np.pi / W
    # stationary in the rotating frame: the eigenvectors of H_rot
    X0 = -(W0 * sigma_x + (W1 + W) * sigma_z) / np.hypot(W0, W1 + W)
    grid = np.linspace(0.0, T, STEPS + 1)
    dt = T / STEPS
    mids = grid[:-1] + dt / 2
    H_mid = h.eval(mids)
    S = expm_skew_many(H_mid, dt)
    p = solve(h, T, STEPS)
    return {"h": h, "T": T, "X0": X0, "grid": grid, "dt": dt, "mids": mids,
            "H_mid": H_mid, "S": S, "p": p, "obs": from_observable(X0)}


def test_sampling(benchmark, rotating):
    benchmark(rotating["h"].eval, rotating["mids"])


def test_step_exponentials(benchmark, rotating):
    benchmark(expm_skew_many, rotating["H_mid"], rotating["dt"])


def test_prefix_blocks(benchmark, rotating):
    # the in-block prefixes and the chained block totals, as solve runs them
    benchmark(Propagator, rotating["grid"], step_unitaries=rotating["S"])


def test_prefix_apply(benchmark, rotating):
    # each block's prefixes applied to its incoming product: the stack of
    # running products, formed on first access
    def fresh():
        return (Propagator(rotating["grid"], step_unitaries=rotating["S"]),), {}

    benchmark.pedantic(lambda p: p.unitaries, setup=fresh, rounds=30)


def test_cyclicity_check(benchmark, rotating):
    benchmark(detect_cyclic, rotating["p"], rotating["X0"])


def test_dynamical_integral(benchmark, rotating):
    benchmark(dynamical_phase, rotating["h"], rotating["obs"].vectors, rotating["T"], STEPS)


def test_lift_and_holonomy(benchmark, rotating):
    p, obs = rotating["p"], rotating["obs"]
    benchmark(lambda: holonomy(horizontal_lift(lift_from_propagator(p, obs))))


def test_solve_and_phases(benchmark, rotating):
    h, T, X0 = rotating["h"], rotating["T"], rotating["X0"]
    report = benchmark(lambda: geometric_phases(solve(h, T, STEPS), h, X0))
    assert report.cross_residual <= 1e-8
