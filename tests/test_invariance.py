"""The paper's invariances of the geometric phase, on the library's one
implementation of them (phases.invariance_residuals and multiset_gap):
reparameterization of the cycle, the gauge at the start of the lift and
the reference frame the holonomy is read in."""

import functools
import json
import time
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
from support import multiset_gap as multiset_gap_by_every_pairing

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


# ------------------------------------------------ the gap between two multisets

# phases in [0, 2pi): anywhere, on a lattice that makes ties, or at the
# ends of the branch
_PHASES = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.integers(0, 7).map(lambda k: k * np.pi / 4),
    st.sampled_from([0.0, 5e-324, 1e-16, np.pi, np.nextafter(TWO_PI, 0.0)]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(1, 6))
def test_multiset_gap_is_the_search_over_every_pairing(data, d):
    a = np.array(data.draw(st.lists(_PHASES, min_size=d, max_size=d)))
    if data.draw(st.booleans()):
        b = np.array(data.draw(st.lists(_PHASES, min_size=d, max_size=d)))
    else:  # a permuted copy, moved by a little or not at all
        moved = a[data.draw(st.permutations(range(d)))] + data.draw(st.floats(-1e-3, 1e-3))
        b = moved % TWO_PI
        b[b == TWO_PI] = 0.0
    assert multiset_gap(a, b) == multiset_gap_by_every_pairing(a, b)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(1, 6))
def test_multiset_gap_of_unreduced_phases_is_the_search_over_every_pairing(data, d):
    # both searches read the same distances off the given values; rounding
    # can order two near-tied phases differently mod 2pi than their
    # distances do, which moves the result by a rounding of one distance
    reals = st.floats(-30.0, 30.0)
    a = np.array(data.draw(st.lists(reals, min_size=d, max_size=d)))
    if data.draw(st.booleans()):
        b = np.array(data.draw(st.lists(reals, min_size=d, max_size=d)))
    else:  # a permuted copy, each phase moved by 2 pi k
        k = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
        b = a[data.draw(st.permutations(range(d)))] + TWO_PI * k
    ulp = np.spacing(max(np.abs(a).max(), np.abs(b).max(), TWO_PI))
    assert abs(multiset_gap(a, b) - multiset_gap_by_every_pairing(a, b)) <= 4 * ulp


def test_multiset_gap_needs_no_pairing_search():
    # 9! = 362880 pairings took about 6 s; 9 cyclic shifts take microseconds
    rng = np.random.default_rng(9)
    a, b = rng.uniform(0.0, TWO_PI, 9), rng.uniform(0.0, TWO_PI, 9)
    start = time.process_time()
    multiset_gap(a, b)
    assert time.process_time() - start < 0.5
