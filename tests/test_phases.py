import functools
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import obsphase.obspace as obspace
import obsphase.phases as phases
import obsphase.propagation as propagation
from obsphase.errors import (
    CrossCheckError,
    DegenerateSpectrumError,
    NotCyclicError,
)
from obsphase.bundle import holonomy, horizontal_lift, lift_from_propagator
from obsphase.gates import rotating_problem
from obsphase.hamiltonians import (
    HamiltonianSchedule,
    make_constant_z,
    make_rotating,
    make_tabulated,
    make_two_loop,
)
from obsphase.linalg import sigma_x, sigma_z
from obsphase.obspace import from_observable
from obsphase.phases import (
    CYCLIC_TOL,
    circular_distance,
    detect_cyclic,
    geometric_phases,
    wrap_angle,
)
from obsphase.propagation import solve
from test_bundle import _cyclic_d3_drive
from support import (
    dynamical_phase,
    exact_constant_propagator,
    exact_rotating_propagator,
    make_zero,
    normalize,
)

TWO_PI = 2 * np.pi

# frozen against an independent adaptive-ODE / adaptive-quadrature run
# (frame order: ascending eigenvalues of the initial observable)
ROTATING_FIXTURES = {
    (1.0, 0.0, 2.0): {
        "theta": [5.912370595, 0.370814712],
        "gamma": [0.0, 0.0],
        "beta": [5.912370595, 0.370814712],
    },
    (1.0, 3.0, 2.0): {
        "theta": [1.415256839, 4.867928469],
        "gamma": [-4.620877571, 4.620877571],
        "beta": [6.036134409, 0.247050898],
    },
    (2.0, 1.0, 4.0): {
        "theta": [5.195279412, 1.087905896],
        "gamma": [-0.729223888, 0.729223888],
        "beta": [5.924503299, 0.358682008],
    },
}


def rotating_observable(w0, w1, w):
    r = np.hypot(w0, w1 + w)
    phi = 2 * np.arctan(w0 / (w1 + w + r))
    return -(np.sin(phi) * sigma_x + np.cos(phi) * sigma_z), phi, r


def constant_observable(phi):
    return -(np.sin(phi) * sigma_x + np.cos(phi) * sigma_z)


def test_wrap_and_distance():
    assert abs(wrap_angle(-0.1) - (TWO_PI - 0.1)) < 1e-15
    assert abs(circular_distance(0.05, TWO_PI - 0.05) - 0.1) < 1e-15
    assert np.allclose(circular_distance([0.0, np.pi], [0.0, np.pi]), 0.0)


def test_wrap_angle_never_returns_two_pi():
    # x % 2pi rounds up to 2pi itself for x in about (-4.4e-16, 0)
    for x in (-1e-16, -4e-16, -5e-324, -0.0):
        assert wrap_angle(x) == 0.0
    wrapped = wrap_angle([-1e-16, -0.1, TWO_PI])
    assert wrapped.tolist() == [0.0, TWO_PI - 0.1, 0.0]
    assert wrap_angle is obspace.wrap_angle


def test_detect_cyclic_constant_field():
    p = exact_constant_propagator(1.0, TWO_PI, steps=1024)
    cyc = detect_cyclic(p, constant_observable(np.pi / 3))
    assert cyc.is_cyclic
    assert cyc.permutation == (0, 1)
    assert np.allclose(cyc.thetas, [np.pi, np.pi], atol=1e-9)
    assert cyc.residual < 1e-12


def test_detect_cyclic_partial_period():
    p = exact_constant_propagator(1.0, 0.7 * TWO_PI, steps=1024)
    cyc = detect_cyclic(p, constant_observable(np.pi / 3))
    assert not cyc.is_cyclic
    assert cyc.residual > 1e-3


def test_detect_cyclic_rotating_frozen():
    for (w0, w1, w), fix in ROTATING_FIXTURES.items():
        p = exact_rotating_propagator(w0, w1, w, TWO_PI / w, steps=512)
        cyc = detect_cyclic(p, rotating_observable(w0, w1, w)[0])
        assert cyc.is_cyclic
        assert np.allclose(cyc.thetas, fix["theta"], atol=1e-8)


def test_detect_cyclic_swap_permutation():
    hx = make_tabulated([0.0, np.pi], [sigma_x / 2, sigma_x / 2])
    p = solve(hx, np.pi, steps=128)
    cyc = detect_cyclic(p, sigma_z)
    assert not cyc.is_cyclic
    assert cyc.permutation == (1, 0)
    assert cyc.residual < 1e-9  # the frame does come back, just swapped


def test_detect_cyclic_rejects_degenerate():
    p = exact_constant_propagator(1.0, TWO_PI, steps=64)
    with pytest.raises(DegenerateSpectrumError):
        detect_cyclic(p, np.eye(2))


def test_dynamical_phase_constant_field():
    phi = 0.8
    h = make_constant_z(1.0)
    psi = np.array([np.cos(phi / 2), np.sin(phi / 2)])
    got = dynamical_phase(h, psi, TWO_PI, steps=256)
    assert abs(got - (-np.pi * np.cos(phi))) < 1e-12


def test_dynamical_phase_zero():
    psi = normalize(np.array([1.0, 1.0j]))
    assert dynamical_phase(make_zero(2), psi, 2.0, steps=64) == 0.0


def test_dynamical_phase_rotating_closed_form():
    w0, w1, w = 1.0, 3.0, 2.0
    h = make_rotating(w0, w1, w)
    X0, phi, r = rotating_observable(w0, w1, w)
    psi = np.array([np.cos(phi / 2), np.sin(phi / 2)])
    sx, sy, sz = np.sin(phi), 0.0, np.cos(phi)
    for T in (1.1, TWO_PI / w):
        expect = -0.5 * (
            w0 * sx * np.sin(w * T) / w
            + w0 * sy * (1 - np.cos(w * T)) / w
            + w1 * sz * T
        )
        got = dynamical_phase(h, psi, T, steps=2048)
        assert abs(got - expect) < 1e-9


def test_dynamical_phase_requires_even_steps():
    with pytest.raises(ValueError):
        dynamical_phase(make_zero(2), np.array([1.0, 0.0]), 1.0, steps=7)


def test_two_loop_dynamical_cancellation():
    w0, w1, w = 1.0, 3.0, 2.0
    T = TWO_PI / w
    h2 = make_two_loop(make_rotating(w0, w1, w), T)
    X0, _, _ = rotating_observable(w0, w1, w)
    rng = np.random.default_rng(37)
    kets = [
        np.array([np.cos(0.1), np.sin(0.1)], dtype=complex),
        normalize(rng.normal(size=2) + 1j * rng.normal(size=2)),
    ]
    for psi in kets:
        assert abs(dynamical_phase(h2, psi, 2 * T, steps=4096)) < 1e-8


def test_quadrature_fourth_order():
    h = make_rotating(1.0, 3.0, 2.0)
    psi = np.array([np.cos(0.3), np.sin(0.3)])
    g = [dynamical_phase(h, psi, 1.1, steps=n) for n in (32, 64, 128)]
    ratio = abs(g[1] - g[0]) / abs(g[2] - g[1])
    assert 12.0 <= ratio <= 20.0


def test_geometric_phases_constant_field():
    h = make_constant_z(1.0)
    p = solve(h, TWO_PI, steps=4096)
    rep = geometric_phases(p, h, constant_observable(np.pi / 3))
    assert np.allclose(rep.theta, [np.pi, np.pi], atol=1e-9)
    assert circular_distance(rep.beta[0], 3 * np.pi / 2) < 1e-6
    assert circular_distance(rep.beta[1], np.pi / 2) < 1e-6
    assert rep.cross_residual < 1e-5
    assert rep.closure_permutation == (0, 1)
    assert np.allclose(wrap_angle(rep.beta_raw), rep.beta, atol=1e-12)

    rep2 = geometric_phases(p, h, constant_observable(np.pi / 2))
    assert circular_distance(rep2.beta[0], np.pi) < 1e-6
    assert circular_distance(rep2.beta[1], np.pi) < 1e-6


def test_geometric_phases_rotating_frozen():
    for (w0, w1, w), fix in ROTATING_FIXTURES.items():
        h = make_rotating(w0, w1, w)
        T = TWO_PI / w
        p = solve(h, T, steps=8192)
        X0, phi, r = rotating_observable(w0, w1, w)
        rep = geometric_phases(p, h, X0)
        assert np.max(circular_distance(rep.theta, fix["theta"])) < 1e-6
        assert np.max(np.abs(rep.gamma - fix["gamma"])) < 1e-6
        assert np.max(circular_distance(rep.beta, fix["beta"])) < 1e-6
        # closed form: beta = pi -/+ (pi/w)(r - w1 cos phi) in frame order
        closed = wrap_angle(
            np.pi + np.array([-1.0, 1.0]) * (np.pi / w) * (r - w1 * np.cos(phi))
        )
        assert np.max(circular_distance(rep.beta, closed)) < 1e-6


def test_qubit_sum_rule():
    # the two geometric phases of a qubit loop cancel mod 2 pi
    for (w0, w1, w) in ROTATING_FIXTURES:
        h = make_rotating(w0, w1, w)
        p = solve(h, TWO_PI / w, steps=4096)
        rep = geometric_phases(p, h, rotating_observable(w0, w1, w)[0])
        assert circular_distance(rep.beta[0] + rep.beta[1], 0.0) < 2e-6


def test_cross_route_random_parameters():
    rng = np.random.default_rng(101)
    for _ in range(3):
        w0 = rng.uniform(0.5, 2.0)
        w1 = rng.uniform(0.0, 3.0)
        w = rng.uniform(1.5, 4.0)
        h = make_rotating(w0, w1, w)
        p = solve(h, TWO_PI / w, steps=8192)
        rep = geometric_phases(p, h, rotating_observable(w0, w1, w)[0])
        assert rep.cross_residual <= 1e-5


def test_phase_convention_invariance():
    w0, w1, w = 1.0, 3.0, 2.0
    h = make_rotating(w0, w1, w)
    p = exact_rotating_propagator(w0, w1, w, TWO_PI / w, steps=512)
    X0, phi, _ = rotating_observable(w0, w1, w)
    psi = np.array([np.cos(phi / 2), np.sin(phi / 2)], dtype=complex)
    V = p.final().conj().T
    for alpha in (0.4, 2.9):
        rot = np.exp(1j * alpha) * psi
        assert abs(np.angle(rot.conj() @ V @ rot) - np.angle(psi.conj() @ V @ psi)) < 1e-12
        assert (
            abs(
                dynamical_phase(h, rot, 1.3, steps=64)
                - dynamical_phase(h, psi, 1.3, steps=64)
            )
            < 1e-12
        )


def test_geometric_phases_not_cyclic():
    h = make_constant_z(1.0)
    p = solve(h, 0.7 * TWO_PI, steps=1024)
    with pytest.raises(NotCyclicError):
        geometric_phases(p, h, constant_observable(np.pi / 3))


def test_not_cyclic_error_carries_the_failed_check():
    h = make_constant_z(1.0)
    p = solve(h, 0.7 * TWO_PI, steps=1024)
    X0 = constant_observable(np.pi / 3)
    with pytest.raises(NotCyclicError) as err:
        geometric_phases(p, h, X0)
    check = err.value.check
    assert not check.is_cyclic
    assert check.residual == detect_cyclic(p, X0).residual
    assert f"residual {check.residual:.3e}," in str(err.value)


def test_geometric_phases_cross_check_guard():
    # gamma is read off p.integral, so a schedule that does not match the
    # propagator cannot corrupt it; the check that h gives p's samples at
    # 9 spread midpoints (_require_solved_from) refuses it first
    w0, w1, w = 1.0, 3.0, 2.0
    p = solve(make_rotating(w0, w1, w), TWO_PI / w, steps=2048)
    wrong_h = make_rotating(1.0, 0.0, 2.0)
    with pytest.raises(CrossCheckError):
        geometric_phases(p, wrong_h, rotating_observable(w0, w1, w)[0])



def test_a_nan_cross_gap_fails_the_cross_check(monkeypatch):
    # a NaN gap must fail the check, though NaN > tol is False, and the
    # step-count hint must not take the log of NaN
    w0, w1, w = 1.0, 3.0, 2.0
    h = make_rotating(w0, w1, w)
    p = solve(h, TWO_PI / w, steps=2048)
    monkeypatch.setattr(phases, "circular_distance", lambda a, b: np.full(len(a), np.nan))
    with pytest.raises(CrossCheckError, match="max gap nan") as err:
        geometric_phases(p, h, rotating_observable(w0, w1, w)[0])
    assert "predicts" not in str(err.value)

def per_point_dynamical_phase(h, psi, T, steps):
    """Reference: one eval per Simpson node and scipy's simpson, on the
    same segments and with the same one-sided nudge at cuts."""
    cuts = [b for b in h.breakpoints if 0.0 < b < T]
    edges = [0.0] + cuts + [T]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(2, 2 * round(steps * (b - a) / (2 * T)))
        t = np.linspace(a, b, n + 1)
        where = t.copy()
        if a in cuts:
            where[0] = a + 1e-9 * (b - a)
        if b in cuts:
            where[-1] = b - 1e-9 * (b - a)
        y = np.array([np.real(psi.conj() @ h.eval(s) @ psi) for s in where])
        total += scipy.integrate.simpson(y, x=t)
    return float(total)


def test_dynamical_phase_matches_per_point_simpson():
    w0, w1, w = 1.0, 3.0, 2.0
    T = TWO_PI / w
    rng = np.random.default_rng(41)
    A = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    tab_times = np.array([0.0, 0.3, 1.1, 1.2, 2.5, 3.0])
    cases = [
        # jumps at T; stopping at 1.5 T keeps the two loops from cancelling
        (make_two_loop(make_rotating(w0, w1, w), T), 1.5 * T),
        (make_tabulated(tab_times, A + np.conj(np.swapaxes(A, 1, 2))), 3.0),
    ]
    kets = [
        np.array([np.cos(0.4), np.sin(0.4)], dtype=complex),
        normalize(rng.normal(size=2) + 1j * rng.normal(size=2)),
    ]
    for h, duration in cases:
        for psi in kets:
            for steps in (64, 4096):
                got = dynamical_phase(h, psi, duration, steps)
                want = per_point_dynamical_phase(h, psi, duration, steps)
                assert abs(got - want) <= 1e-12


def test_dynamical_phase_of_a_frame_samples_each_piece_once(monkeypatch):
    # a frame gives each column's integral bit for bit, with one schedule
    # evaluation per smooth piece for all levels
    w0, w1, w = 1.0, 3.0, 2.0
    T = TWO_PI / w
    h = make_two_loop(make_rotating(w0, w1, w), T)
    F = from_observable(rotating_observable(w0, w1, w)[0]).vectors
    per_ket = [dynamical_phase(h, F[:, n], 1.5 * T, 256) for n in range(2)]
    calls = []
    original = HamiltonianSchedule.eval

    def counted(self, t):
        calls.append(1)
        return original(self, t)

    monkeypatch.setattr(HamiltonianSchedule, "eval", counted)
    got = dynamical_phase(h, F, 1.5 * T, 256)
    assert got.tolist() == per_ket
    assert len(calls) == 2  # the jump at T splits [0, 1.5 T] in two


def test_geometric_phases_integrates_all_levels_in_one_call(monkeypatch):
    calls = []
    original = phases.dynamical_phase

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(phases, "dynamical_phase", counted)
    h = make_constant_z(1.0)
    rep = geometric_phases(solve(h, TWO_PI, steps=1024), h, constant_observable(np.pi / 3))
    assert len(calls) == 1
    assert rep.lift.steps == 1024


def test_geometric_phases_builds_the_eigenframe_once(monkeypatch):
    calls = []
    original = phases.from_observable

    def counted(X):
        calls.append(1)
        return original(X)

    monkeypatch.setattr(phases, "from_observable", counted)
    h = make_constant_z(1.0)
    X0 = constant_observable(np.pi / 3)
    rep = geometric_phases(solve(h, TWO_PI, steps=1024), h, X0)
    assert len(calls) == 1
    # detect_cyclic's frame is the one the lift and gamma were read in
    assert np.array_equal(rep.lift.reference.vectors, original(X0).vectors)


@functools.lru_cache(maxsize=None)
def _rotating_run():
    h, T, X0, steps = rotating_problem(1.0, 3.0, 2.0, 2048)
    p = solve(h, T, steps=steps)
    return p, h, X0, geometric_phases(p, h, X0)


@settings(max_examples=20, deadline=None)
@given(exponent=st.floats(-12.0, 12.0))
def test_scaled_observable_gives_the_same_frame_and_phases(exponent):
    # the eigen-gap test is relative to ||X||_2, so c X0 is as good an
    # observable as X0 for every c > 0
    p, h, X0, want = _rotating_run()
    c = 10.0**exponent
    F = from_observable(c * X0).vectors
    assert np.max(np.abs(F - from_observable(X0).vectors)) <= 1e-14
    got = geometric_phases(p, h, c * X0)
    assert np.max(circular_distance(got.beta, want.beta)) <= 1e-12
    assert np.max(circular_distance(got.holonomy_beta, want.holonomy_beta)) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(
    w0=st.floats(0.1, 2.0),
    w1=st.floats(-2.0, 2.0),
    w=st.floats(0.5, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_qubit_betas_pair_to_zero_on_both_routes(w0, w1, w, sign):
    # a traceless H keeps U(T) in SU(2), so theta_1 + theta_2 = 0, and
    # gamma_1 + gamma_2 integrates tr H = 0: beta_1 + beta_2 = 0 mod 2pi
    # on the phase-difference route and, independently, on the holonomy
    # route. The routes differ from each other by O(dt^2) at 512 steps,
    # more than geometric_phases' cross-check allows, so each is read
    # on its own.
    h, T, X0, steps = rotating_problem(w0, w1, sign * w, 512)
    p = solve(h, T, steps=steps)
    cyc = detect_cyclic(p, X0, CYCLIC_TOL)
    assert cyc.is_cyclic
    beta = cyc.thetas - phases.dynamical_phase(cyc.frame.vectors, p.integral)
    hol = holonomy(horizontal_lift(lift_from_propagator(p, cyc.frame)), tol=CYCLIC_TOL)
    assert circular_distance(beta.sum(), 0.0) <= 1e-11
    assert circular_distance(hol.betas.sum(), 0.0) <= 1e-11


# ------------------------------------------- the dynamical integral from samples


def _ladder_problems():
    """The rotating, constant and triangle fixtures of the accuracy ladder:
    (schedule, duration, observable)."""
    w0, w1, w = 1.0, 3.0, 2.0
    times, f = np.array([0.0, np.pi, TWO_PI]), np.array([0.0, 2.0, 0.0])
    triangle = make_tabulated(times, [-(fk / 2) * sigma_z for fk in f])
    return [
        (make_rotating(w0, w1, w), TWO_PI / w, rotating_observable(w0, w1, w)[0]),
        (make_constant_z(1.0), TWO_PI, constant_observable(np.pi / 3)),
        (triangle, TWO_PI, constant_observable(1.0)),
    ]


@pytest.mark.parametrize("steps", [4096, 32768])
def test_the_sample_route_agrees_with_simpson_on_the_ladder_fixtures(steps):
    for h, T, X0 in _ladder_problems():
        p = solve(h, T, steps=steps)
        F = from_observable(X0).vectors
        got = dynamical_phase(h, F, T, steps, p.integral)
        assert np.max(np.abs(got - dynamical_phase(h, F, T, steps))) <= 1e-13


def test_the_sample_route_is_fourth_order():
    # the closed form of test_dynamical_phase_rotating_closed_form; over a
    # whole period the end corrections cancel to higher order still
    w0, w1, w = 1.0, 3.0, 2.0
    h = make_rotating(w0, w1, w)
    _, phi, _ = rotating_observable(w0, w1, w)
    psi = np.array([np.cos(phi / 2), np.sin(phi / 2)])
    for T, rate in ((1.1, (14.0, 17.0)), (TWO_PI / w, (14.0, np.inf))):
        expect = -0.5 * (w0 * np.sin(phi) * np.sin(w * T) / w + w1 * np.cos(phi) * T)
        errors = [
            abs(dynamical_phase(h, psi, T, n, solve(h, T, steps=n).integral) - expect)
            for n in (32, 64, 128, 256, 512, 1024, 2048)
        ]
        for coarse, fine in zip(errors[:-1], errors[1:]):
            if fine < 1e-13:  # rounding
                break
            assert rate[0] <= coarse / fine <= rate[1]
        assert errors[-1] < 1e-13


def test_pieces_are_cut_at_kinks_on_nodes_and_short_ones_take_the_plain_sum():
    # a piecewise-linear drive whose kinks all sit on grid nodes, with
    # pieces of 1, 2 and more steps: the midpoint rule is exact on each
    # piece, so the sample route gives the exact integral; end corrections
    # that read across a kink would not
    rng = np.random.default_rng(3)
    T, steps = 2.0, 64
    dt = T / steps
    times = np.array([0.0, dt, 3 * dt, 16 * dt, 40 * dt, 42 * dt, T])
    A = rng.normal(size=(len(times), 3, 3)) + 1j * rng.normal(size=(len(times), 3, 3))
    h = make_tabulated(times, A + np.conj(np.swapaxes(A, 1, 2)))
    F = from_observable(h.eval(0.3 * T)).vectors
    y = np.einsum("in,kij,jn->kn", F.conj(), h.eval(times), F).real
    exact = ((y[1:] + y[:-1]) / 2 * np.diff(times)[:, None]).sum(axis=0)
    p = solve(h, T, steps=steps)
    assert np.max(np.abs(dynamical_phase(h, F, T, steps, p.integral) - exact)) <= 1e-13
    # the same table, its kinks known to the schedule only as smooth
    # times, misses the exact value by the kinks' O(dt^2)
    uncut = HamiltonianSchedule(dim=3, kind="Tabulated", domain=h.domain, fn=h.fn)
    q = solve(uncut, T, steps=steps)
    assert np.max(np.abs(dynamical_phase(uncut, F, T, steps, q.integral) - exact)) > 1e-6


def test_the_integral_route_refuses_an_integral_of_the_wrong_dimension():
    h = make_constant_z(1.0)
    p = solve(h, 1.0, steps=16)
    with pytest.raises(ValueError, match=r"need a 3 x 3 integral for kets of 3 entries, got \(2, 2\)"):
        dynamical_phase(h, np.array([1.0, 0.0, 0.0]), 1.0, 16, p.integral)


# ------------------------------------------------------- the streamed solve


def test_a_phase_report_holds_one_stack_of_steps():
    # solve walks the grid in chunks and keeps only the step unitaries N
    # long; the report adds the lift's gauge phases and chunk temporaries
    w0, w1, w = 1.0, 3.0, 2.0
    h, X0, steps = make_rotating(w0, w1, w), rotating_observable(w0, w1, w)[0], 65536
    tracemalloc.start()
    try:
        geometric_phases(solve(h, TWO_PI / w, steps=steps), h, X0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * steps * 2**2


def _cut_d3_drive(steps):
    # a tabulated d = 3 drive whose kinks sit on grid nodes at both ends of
    # the 4096-step chunk boundary, and an observable it returns
    rng = np.random.default_rng(29)
    T, knots = 2.0, np.array([0, 5, 3000, 4095, steps])
    A = rng.normal(size=(len(knots), 3, 3)) + 1j * rng.normal(size=(len(knots), 3, 3))
    h = make_tabulated(T * knots / steps, A + np.conj(np.swapaxes(A, 1, 2)))
    V = np.linalg.qr(np.linalg.eig(solve(h, T, steps=steps).final())[1])[0]
    return h, T, V @ np.diag([1.0, 2.0, 3.5]) @ V.conj().T


@pytest.mark.parametrize("steps", [4097, 12289])
@pytest.mark.parametrize("drive", ["rotating", "tabulated-d3"])
def test_chunk_boundaries_move_no_bit(monkeypatch, steps, drive):
    # the fold keeps its 16-step blocks and the gauge its running sum
    # whatever the chunk length; gamma sums in another order
    if drive == "rotating":
        w0, w1, w = 1.0, 3.0, 2.0
        h, T, X0 = make_rotating(w0, w1, w), TWO_PI / w, rotating_observable(w0, w1, w)[0]
    else:
        h, T, X0 = _cut_d3_drive(steps)
    runs = []
    for chunk in (16, 2**16):
        monkeypatch.setattr(propagation, "_CHUNK", chunk)
        p = solve(h, T, steps=steps)
        runs.append((p.final(), geometric_phases(p, h, X0)))
    (final, rep), (final_whole, rep_whole) = runs
    for a, b in ((final, final_whole), (rep.theta, rep_whole.theta),
                 (rep.holonomy_beta, rep_whole.holonomy_beta), (rep.lift.gauge, rep_whole.lift.gauge)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert np.max(np.abs(rep.gamma - rep_whole.gamma)) <= 1e-13


def test_geometric_phases_reads_gamma_off_the_solve(monkeypatch):
    # the dynamical integral evaluates no schedule; the one evaluation
    # left is the check that h gives the propagator's samples
    w0, w1, w = 1.0, 3.0, 2.0
    h = make_rotating(w0, w1, w)
    p = solve(h, TWO_PI / w, steps=1001)  # odd: no Simpson panels involved
    calls = []
    original = HamiltonianSchedule.eval
    monkeypatch.setattr(HamiltonianSchedule, "eval", lambda self, t: calls.append(np.size(t)) or original(self, t))
    rep = geometric_phases(p, h, rotating_observable(w0, w1, w)[0])
    assert calls == [9]
    want = ROTATING_FIXTURES[(w0, w1, w)]["gamma"]
    assert np.max(np.abs(rep.gamma - want)) < 1e-8


# ------------------------- theta = gamma + beta under a level-diagonal drive


def _d3_drive(steps):
    """(schedule, propagator, observable) of test_bundle's _cyclic_d3_drive;
    geometric_phases refuses a schedule the propagator was not solved from."""
    p, obs = _cyclic_d3_drive(steps)
    rng = np.random.default_rng(29)
    A = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    h = make_tabulated(np.linspace(0.0, 2.0, 5), A + np.conj(np.swapaxes(A, 1, 2)))
    return h, p, obs.vectors @ np.diag([1.0, 2.0, 3.5]) @ obs.vectors.conj().T


@functools.cache
def _split_fixture(name):
    """(schedule, propagator, observable, phase report) of a cyclic run at
    4096 steps."""
    if name == "rotating":
        h, T, X0, steps = rotating_problem(1.0, 3.0, 2.0, 4096)
        p = solve(h, T, steps=steps)
    elif name == "constant":
        h, X0 = make_constant_z(1.0), constant_observable(np.pi / 3)
        p = solve(h, TWO_PI, steps=4096)
    else:
        h, p, X0 = _d3_drive(4096)
    return h, p, X0, geometric_phases(p, h, X0)


def _level_diagonal_drive(h, T, F, a, b):
    """(h', alpha(T)) for h' = E^dag h E + sum_n alpha_n' |f_n><f_n| with
    E = sum_n e^{i alpha_n} |f_n><f_n|, the f_n the columns of F and

        alpha_n(t) = sum_m a_nm sin(k_m t) + b_nm (1 - cos(k_m t)),

    k_m = (m - 1/2) pi / T, so alpha(0) = 0; the modes are not periodic
    on [0, T], so no quadrature integrates alpha' exactly by symmetry.
    h' keeps the jumps and kinks of h."""
    k = (np.arange(1, a.shape[1] + 1) - 0.5) * np.pi / T

    def alpha(t):
        kt = np.multiply.outer(t, k)
        return np.sin(kt) @ a.T + (1 - np.cos(kt)) @ b.T

    def fn(t):
        kt = np.multiply.outer(t, k)
        rate = (k * np.cos(kt)) @ a.T + (k * np.sin(kt)) @ b.T
        E = (F * np.exp(1j * alpha(t))[:, None, :]) @ F.conj().T
        return np.conj(np.swapaxes(E, 1, 2)) @ h.fn(t) @ E + (F * rate[:, None, :]) @ F.conj().T

    drive = HamiltonianSchedule(h.dim, h.kind, h.domain, fn, h.breakpoints, h.kinks)
    return drive, alpha(np.array([T]))[0]


@pytest.mark.parametrize("fixture", ["rotating", "constant", "tabulated-d3"])
@settings(max_examples=10, deadline=None)
@given(modes=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_a_level_diagonal_drive_moves_gamma_and_theta_and_not_beta(fixture, modes):
    # the paper's split theta = gamma + beta: E(t) commutes with X0 and
    # E(0) = I, so h' evolves as U'(t) = E(t)^dag U(t) and X(t) = U^dag X0 U
    # is the same curve. gamma_n and theta_n both move by alpha_n(T), and
    # the geometric part stays put on both routes
    h, p, X0, want = _split_fixture(fixture)
    F, T = want.lift.reference.vectors, p.duration
    d = len(F)
    a, b = np.reshape(modes[: 2 * d], (d, 2)), np.reshape(modes[2 * d : 4 * d], (d, 2))
    h2, shift = _level_diagonal_drive(h, T, F, a, b)
    got = geometric_phases(solve(h2, T, steps=p.steps), h2, X0)
    # <f_n|h'|f_n> = <f_n|h|f_n> + alpha_n' at every sample, so gamma moves
    # by the fourth-order quadrature of alpha_n' alone (measured within 1.1e-13)
    assert np.max(np.abs(got.gamma - want.gamma - shift)) <= 1e-12
    # each run carries the midpoint exponential's O(dt^2) error, allowed as
    # width^3 T dt^2 / 12 with width the largest spread of either spectrum
    # (measured at most 0.05 of it)
    grid = np.linspace(0.0, T, 257)
    width = max(np.ptp(np.linalg.eigvalsh(s.eval(grid)), axis=1).max() for s in (h, h2))
    allowance = width**3 * T * (T / p.steps) ** 2 / 12
    assert np.max(circular_distance(got.theta - want.theta, shift)) <= allowance
    assert np.max(circular_distance(got.beta, want.beta)) <= allowance
    assert np.max(circular_distance(got.holonomy_beta, want.holonomy_beta)) <= allowance
