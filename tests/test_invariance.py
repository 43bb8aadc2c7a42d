"""The paper's invariances of the geometric phase, on the library's one
implementation of them (phases.invariance_residuals and multiset_gap):
reparameterization of the cycle, the gauge at the start of the lift and
the reference frame the holonomy is read in."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsphase.bundle import holonomy, horizontal_lift, lift_from_propagator
from obsphase.cli import main
from obsphase.gates import rotating_problem, tilted_observable
from obsphase.hamiltonians import make_constant_z, make_warped
from obsphase.obspace import GaugeElement
from obsphase.phases import _haar_frame, geometric_phases, invariance_residuals, multiset_gap
from obsphase.propagation import solve

TWO_PI = 2 * np.pi
DEMOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


@functools.lru_cache(maxsize=None)
def _rotating_run():
    h, T, X0, steps = rotating_problem(1.0, 3.0, 2.0, 2048)
    p = solve(h, T, steps=steps)
    return p, h, geometric_phases(p, h, X0)


def _betas(p, obs, **kwargs):
    return holonomy(horizontal_lift(lift_from_propagator(p, obs, **kwargs))).betas


@settings(max_examples=10, deadline=None)
@given(a=st.floats(-0.9, 0.9), k=st.sampled_from([1, 2, 3]))
def test_beta_is_invariant_under_monotone_warps(a, k):
    # u -> u + a T sin(2 pi k u / T) / (2 pi k) fixes 0 and T and has
    # derivative 1 + a cos(2 pi k u / T) > 0 for |a| < 1
    p, h, report = _rotating_run()
    T, w = p.duration, TWO_PI * k / p.duration
    warped = make_warped(
        h,
        lambda u: u + a * np.sin(w * u) / w,
        lambda u: 1.0 + a * np.cos(w * u),
        T,
    )
    betas = _betas(solve(warped, T, steps=p.steps), report.lift.reference)
    assert multiset_gap(report.holonomy_beta, betas) <= 1e-5


@settings(max_examples=10, deadline=None)
@given(
    perm=st.permutations([0, 1]),
    phases=st.lists(st.floats(0.0, TWO_PI), min_size=2, max_size=2),
)
def test_beta_is_invariant_under_the_starting_gauge(perm, phases):
    p, _, report = _rotating_run()
    obs = report.lift.reference
    start = GaugeElement(perm=tuple(perm), phases=tuple(phases)).in_frame(obs)
    assert multiset_gap(report.holonomy_beta, _betas(p, obs, start=start)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_beta_is_invariant_under_the_reference_frame(seed):
    p, _, report = _rotating_run()
    frame = _haar_frame(np.random.default_rng(seed), 2)
    betas = _betas(p, report.lift.reference, reference=frame)
    assert multiset_gap(report.holonomy_beta, betas) <= 1e-12


def test_run_writes_the_library_residuals(tmp_path):
    path = DEMOS / "constant-field.json"
    sc = json.loads(path.read_text())
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / f"{sc['name']}-report.json").read_text())["residuals"]

    params = sc["params"]
    h, T = make_constant_z(params["mu_B"]), TWO_PI / abs(params["mu_B"])
    p = solve(h, T, steps=params["steps"])
    report = geometric_phases(p, h, tilted_observable(params["phi"]))
    gaps = invariance_residuals(p, h, report, sc["checks"])
    assert list(gaps) == sc["checks"]
    for check, gap in gaps.items():
        assert float(f"{gap:.12g}") == written[check.replace("-", "_")]


def test_an_unknown_check_is_rejected():
    p, h, report = _rotating_run()
    with pytest.raises(ValueError, match="gauge_start"):
        invariance_residuals(p, h, report, ["gauge_start"])
