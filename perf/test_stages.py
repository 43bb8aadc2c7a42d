"""Stage timings of the phase pipeline on the rotating field at 32768 steps.

    python -m pytest perf/test_stages.py --benchmark-json=BENCH_<n>.json

The fixture is the accuracy ladder's rotating field, (w0, w1, w) =
(1, 3, 2) over one period 2 pi / w with its cyclic observable, at the
step count where both phase routes are within 1e-8 of the closed form.
Each stage runs alone on inputs built once with the public obsphase API:
schedule sampling, step exponentials, the fold to U(T, 0) of a given step
stack, the stack of running products that a curve reads, one whole solve
(all of the above but the running products, chunk by chunk, plus the
integral of h), the cyclicity check, the dynamical integral (read off
the integral matrix the solve summed, as a phase report takes it), and
the lift with its holonomy; the next test times one whole solve +
geometric_phases. The last stage is the observable-space metric,
distance_DW, on the first Haar pair of default_rng(53), (21) and (22) at
d = 2, 3 and 4: no propagation; d = 2 is a closed form, and d = 3 and 4
are all pairing bounds, aligned points and the BFGS refine.
pytest-benchmark runs each many times and reports their spread. The
suite is not collected by the default test run (testpaths = tests).
"""

import numpy as np
import pytest

from obsphase import (
    OrthDecomposition,
    Propagator,
    detect_cyclic,
    distance_DW,
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
    # building a Propagator folds its steps to U(T, 0), as solve runs it:
    # 16-step blocks multiplied out, then the fold recursing on their totals
    benchmark(Propagator, rotating["grid"], step_unitaries=rotating["S"])


def test_prefix_apply(benchmark, rotating):
    # the stack of running products, formed on first access: the same
    # recursion, whose block ends are the running products of the block
    # totals one level up, with each block's prefixes applied to its
    # incoming product
    def fresh():
        return (Propagator(rotating["grid"], step_unitaries=rotating["S"]),), {}

    benchmark.pedantic(lambda p: p.unitaries, setup=fresh, rounds=30)


def test_solve(benchmark, rotating):
    # the streamed solve: sampled, exponentiated, folded and integrated in
    # chunks, with only the step stack N long
    benchmark(solve, rotating["h"], rotating["T"], STEPS)


def test_cyclicity_check(benchmark, rotating):
    benchmark(detect_cyclic, rotating["p"], rotating["X0"])


def test_dynamical_integral(benchmark, rotating):
    # Re <f_n|G|f_n> on the integral G the solve summed from its samples
    benchmark(dynamical_phase, rotating["obs"].vectors, rotating["p"].integral)


def test_lift_and_holonomy(benchmark, rotating):
    p, obs = rotating["p"], rotating["obs"]
    benchmark(lambda: holonomy(horizontal_lift(lift_from_propagator(p, obs))))


def test_solve_and_phases(benchmark, rotating):
    h, T, X0 = rotating["h"], rotating["T"], rotating["X0"]
    report = benchmark(lambda: geometric_phases(solve(h, T, STEPS), h, X0))
    assert report.cross_residual <= 1e-8


def _haar_pair(seed, d):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        frames.append(OrthDecomposition(q * (np.diag(r) / np.abs(np.diag(r)))[None, :]))
    return frames


@pytest.mark.parametrize("d, seed", [(2, 53), (3, 21), (4, 22)], ids=["d2", "d3", "d4"])
def test_distance_DW(benchmark, d, seed):
    O, O2 = _haar_pair(seed, d)
    benchmark(distance_DW, O, O2)
