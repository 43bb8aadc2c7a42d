import numpy as np
import pytest
import scipy.integrate

from obsphase.bundle import (
    holonomy,
    horizontal_lift,
    lift_from_propagator,
)
from obsphase.errors import NotClosedError, NotUnitaryError
from obsphase.hamiltonians import make_quadratic_warp, make_rotating, make_tabulated
from obsphase.linalg import sigma_x, sigma_z
from obsphase.obspace import (
    OrthDecomposition,
    fiber_contains,
    from_observable,
)
from obsphase.propagation import solve
from support import (
    base_at,
    connection_eval,
    exact_constant_propagator,
    exact_rotating_propagator,
    haar_frame,
    make_zero,
    projector,
    random_gauge,
)

TWO_PI = 2 * np.pi


def half_angle_frame(phi):
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    return OrthDecomposition(np.array([[c, -s], [s, c]], dtype=complex))


def circ_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def multiset_gap(a, b):
    # d=2 only: best pairing of two phase multisets
    straight = max(circ_dist(a[0], b[0]), circ_dist(a[1], b[1]))
    crossed = max(circ_dist(a[0], b[1]), circ_dist(a[1], b[0]))
    return min(straight, crossed)


def rotating_observable(w0, w1, w):
    r = np.hypot(w0, w1 + w)
    phi = 2 * np.arctan(w0 / (w1 + w + r))
    return -(np.sin(phi) * sigma_x + np.cos(phi) * sigma_z), phi, r


def test_connection_vertical_vectors_reproduce():
    rng = np.random.default_rng(3)
    O0 = haar_frame(rng)
    P = haar_frame(rng).vectors
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    F = O0.vectors
    D = (F * c[None, :]) @ F.conj().T
    assert np.allclose(connection_eval(P, P @ D, O0), D, atol=1e-12)


def test_connection_zero_diagonal():
    O0 = from_observable(sigma_z)
    Q = np.array([[0.0, 2.0], [-1.0j, 0.0]])
    assert np.allclose(connection_eval(np.eye(2), Q, O0), 0.0)


def test_connection_gauge_transform():
    # right-translating by diagonal phases conjugates the connection
    rng = np.random.default_rng(9)
    O0 = haar_frame(rng)
    F = O0.vectors
    P = haar_frame(rng).vectors
    Q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    G = (F * np.exp(1j * rng.uniform(0, TWO_PI, 2))[None, :]) @ F.conj().T
    lhs = connection_eval(P @ G, Q @ G, O0)
    rhs = G.conj().T @ connection_eval(P, Q, O0) @ G
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_connection_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        connection_eval(2 * np.eye(2), np.eye(2), from_observable(sigma_z))


def test_lift_constant_field_base_curve():
    phi = 0.8
    p = exact_constant_propagator(1.0, TWO_PI, steps=256)
    obs = half_angle_frame(phi)
    lift = lift_from_propagator(p, obs)
    assert np.allclose(lift.unitaries[0], np.eye(2), atol=1e-12)
    for k in (0, 37, 128):
        t = p.grid[k]
        P0 = projector(base_at(lift, k), 0)
        # the projected curve keeps diagonal entries and rotates the
        # off-diagonal at the field frequency
        assert abs(P0[0, 0] - np.cos(phi / 2) ** 2) < 1e-12
        assert abs(P0[0, 1] - 0.5 * np.sin(phi) * np.exp(-1j * t)) < 1e-12
        assert fiber_contains(lift.unitaries[k], base_at(lift, k), obs)


def test_lift_zero_schedule_constant():
    p = solve(make_zero(2), 1.0, steps=16)
    obs = half_angle_frame(0.5)
    lift = lift_from_propagator(p, obs)
    assert np.allclose(lift.unitaries, lift.unitaries[0][None], atol=1e-14)


def test_lift_reference_and_start():
    rng = np.random.default_rng(11)
    p = exact_rotating_propagator(1.0, 3.0, 2.0, np.pi, steps=64)
    obs = from_observable(rotating_observable(1.0, 3.0, 2.0)[0])
    ref = haar_frame(rng)
    lift = lift_from_propagator(p, obs, reference=ref)
    # the starting unitary carries the reference frame onto the initial frame
    assert np.allclose(lift.unitaries[0] @ ref.vectors, obs.vectors, atol=1e-12)
    g = random_gauge(rng, 2)
    W = obs.vectors @ ref.vectors.conj().T
    lift2 = lift_from_propagator(p, obs, reference=ref, start=W @ g.in_frame(ref))
    assert fiber_contains(lift2.unitaries[0], obs, ref)
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    with pytest.raises(ValueError):
        lift_from_propagator(p, from_observable(sigma_z), start=H)


def test_horizontal_lift_constant_field_phases():
    # relative to the raw lift, each level accumulates the opposite of
    # its dynamical phase: exp(+/- i t cos(phi) / 2) at mu_B = 1
    phi = 1.1
    p = exact_constant_propagator(1.0, TWO_PI, steps=4096)
    obs = half_angle_frame(phi)
    hor = horizontal_lift(lift_from_propagator(p, obs))
    raw = lift_from_propagator(p, obs)
    for k in (512, 2048, 4096):
        t = p.grid[k]
        rel = obs.vectors.conj().T @ raw.unitaries[k].conj().T @ hor.unitaries[k] @ obs.vectors
        assert abs(rel[0, 0] - np.exp(1j * t * np.cos(phi) / 2)) < 1e-5
        assert abs(rel[1, 1] - np.exp(-1j * t * np.cos(phi) / 2)) < 1e-5


def test_horizontal_lift_idempotent():
    p = exact_rotating_propagator(1.0, 0.0, 2.0, np.pi, steps=512)
    obs = from_observable(rotating_observable(1.0, 0.0, 2.0)[0])
    hor = horizontal_lift(lift_from_propagator(p, obs))
    again = horizontal_lift(hor)
    assert np.max(np.abs(again.unitaries - hor.unitaries)) < 1e-12


def test_parallel_vectors_carry_dynamical_phase():
    # along the horizontal lift, each frame vector equals the moving
    # eigenvector times exp(-i integral of the energy expectation)
    w0, w1, w = 1.0, 3.0, 2.0
    T = np.pi
    steps = 16384
    p = exact_rotating_propagator(w0, w1, w, T, steps=steps)
    X0, phi, r = rotating_observable(w0, w1, w)
    obs = from_observable(X0)
    h = make_rotating(w0, w1, w)
    hor = horizontal_lift(lift_from_propagator(p, obs))
    for k in (steps // 4, steps):
        t = p.grid[k]
        for n in range(2):
            psi = obs.vectors[:, n]
            gamma = scipy.integrate.quad(
                lambda s: np.real(psi.conj() @ h.eval(s) @ psi), 0.0, t, limit=200
            )[0]
            moving = p.unitaries[k].conj().T @ psi
            got = hor.unitaries[k] @ obs.vectors[:, n]
            assert np.linalg.norm(got - np.exp(-1j * gamma) * moving) < 1e-7


def test_holonomy_trivial_loop():
    p = solve(make_zero(2), 1.0, steps=64)
    obs = half_angle_frame(0.9)
    res = holonomy(horizontal_lift(lift_from_propagator(p, obs)))
    assert res.permutation == (0, 1)
    assert np.allclose(res.betas, 0.0, atol=1e-12)


def test_holonomy_constant_field():
    for phi in (np.pi / 6, np.pi / 3):
        p = exact_constant_propagator(1.0, TWO_PI, steps=4096)
        res = holonomy(horizontal_lift(lift_from_propagator(p, half_angle_frame(phi))))
        assert res.permutation == (0, 1)
        assert circ_dist(res.betas[0], np.pi * (1 + np.cos(phi))) < 1e-6
        assert circ_dist(res.betas[1], np.pi * (1 - np.cos(phi))) < 1e-6


def test_holonomy_floor_admits_the_rounding_of_a_long_lift():
    # at 32768 steps the closing alignment falls short of 1 by 4.7e-13, a
    # rounding error; a tol below it is read as the 1e-9 floor
    w0, w1, w = 1.0, 3.0, 2.0
    p = solve(make_rotating(w0, w1, w), np.pi, steps=32768)
    hor = horizontal_lift(lift_from_propagator(p, from_observable(rotating_observable(w0, w1, w)[0])))
    res = holonomy(hor, tol=1e-15)
    assert res.permutation == (0, 1)
    assert 1e-15 < 1 - res.min_alignment < 1e-9


def test_holonomy_rotating_field():
    # frozen against an independent adaptive-ODE / quadrature run:
    # betas (frame order) 5.912370595, 0.370814712
    w0, w1, w = 1.0, 0.0, 2.0
    T = np.pi
    p = exact_rotating_propagator(w0, w1, w, T, steps=8192)
    obs = from_observable(rotating_observable(w0, w1, w)[0])
    res = holonomy(horizontal_lift(lift_from_propagator(p, obs)))
    assert circ_dist(res.betas[0], 5.912370595) < 1e-6
    assert circ_dist(res.betas[1], 0.370814712) < 1e-6
    r = np.sqrt(5.0)
    assert circ_dist(res.betas[0], (np.pi - np.pi * r / w) % TWO_PI) < 1e-6
    assert circ_dist(res.betas[1], (np.pi + np.pi * r / w) % TWO_PI) < 1e-6


def test_holonomy_open_curve_rejected():
    w0, w1, w = 1.0, 0.0, 2.0
    p = exact_rotating_propagator(w0, w1, w, np.pi / 2, steps=512)
    obs = from_observable(rotating_observable(w0, w1, w)[0])
    with pytest.raises(NotClosedError):
        holonomy(horizontal_lift(lift_from_propagator(p, obs)))


def test_holonomy_swap_closure_reported():
    # a half-turn about x maps the z decomposition to itself with the
    # two projectors exchanged: legal closure, permutation metadata
    hx = make_tabulated([0.0, np.pi], [sigma_x / 2, sigma_x / 2])
    p = solve(hx, np.pi, steps=512)
    res = holonomy(horizontal_lift(lift_from_propagator(p, from_observable(sigma_z))))
    assert res.permutation == (1, 0)
    assert res.min_alignment > 1 - 1e-9


def test_horizontality_residual_first_order():
    w0, w1, w = 1.0, 3.0, 2.0
    T = np.pi
    obs = from_observable(rotating_observable(w0, w1, w)[0])

    def residual(steps):
        p = exact_rotating_propagator(w0, w1, w, T, steps=steps)
        hor = horizontal_lift(lift_from_propagator(p, obs))
        dt = T / steps
        worst = 0.0
        for k in range(0, steps, steps // 16):
            Q = (hor.unitaries[k + 1] - hor.unitaries[k]) / dt
            worst = max(
                worst, np.linalg.norm(connection_eval(hor.unitaries[k], Q, obs))
            )
        return worst

    r1, r2 = residual(256), residual(512)
    # halving the step should halve the residual (first order)
    assert 0.7 <= np.log2(r1 / r2) <= 1.3


def test_invariance_under_reparameterization():
    w0, w1, w = 1.0, 3.0, 2.0
    T = np.pi
    h = make_rotating(w0, w1, w)
    obs = from_observable(rotating_observable(w0, w1, w)[0])
    base = holonomy(
        horizontal_lift(lift_from_propagator(solve(h, T, steps=16384), obs))
    )
    warped = holonomy(
        horizontal_lift(
            lift_from_propagator(solve(make_quadratic_warp(h, T), T, steps=16384), obs)
        )
    )
    assert multiset_gap(base.betas, warped.betas) < 1e-6


def test_invariance_under_gauge_start():
    rng = np.random.default_rng(23)
    w0, w1, w = 1.0, 3.0, 2.0
    p = exact_rotating_propagator(w0, w1, w, np.pi, steps=4096)
    obs = from_observable(rotating_observable(w0, w1, w)[0])
    base = holonomy(horizontal_lift(lift_from_propagator(p, obs)))
    for _ in range(3):
        g = random_gauge(rng, 2)
        shifted = holonomy(
            horizontal_lift(lift_from_propagator(p, obs, start=g.in_frame(obs)))
        )
        assert multiset_gap(base.betas, shifted.betas) < 1e-9


def test_invariance_under_measurement_point():
    rng = np.random.default_rng(29)
    w0, w1, w = 1.0, 3.0, 2.0
    p = exact_rotating_propagator(w0, w1, w, np.pi, steps=8192)
    obs = from_observable(rotating_observable(w0, w1, w)[0])
    base = holonomy(horizontal_lift(lift_from_propagator(p, obs)))
    for _ in range(3):
        ref = haar_frame(rng)
        moved = holonomy(horizontal_lift(lift_from_propagator(p, obs, reference=ref)))
        assert multiset_gap(base.betas, moved.betas) < 1e-6


# ------------------------------- the step-read holonomy against the frames


def frame_overlap_holonomy(p, obs, reference=None, start=None):
    """The holonomy as read before the step unitaries were used: the
    transported frames U_k^dag W R from the running products, the phases
    of consecutive overlaps, and the closure of the corrected last frame
    on the first. Returns (betas in frame order, gauge phases g)."""
    R = (obs if reference is None else reference).vectors
    W = obs.vectors @ R.conj().T if start is None else start
    frames = np.conj(np.swapaxes(p.unitaries, 1, 2)) @ W @ R
    delta = np.angle(np.einsum("kin,kin->kn", frames[:-1].conj(), frames[1:]))
    g = np.zeros((p.steps + 1, obs.dim))
    g[1:] = -np.cumsum(delta, axis=0)
    M = frames[0].conj().T @ (frames[-1] * np.exp(1j * g[-1]))
    perm = np.argmax(np.abs(M), axis=0)
    assert sorted(perm) == list(range(obs.dim))
    return np.angle(M[perm, np.arange(obs.dim)]) % TWO_PI, g


def _cyclic_d3_drive(steps):
    # a non-commuting spin-1-sized drive; the observable is a function of
    # U(T, 0), so it returns
    rng = np.random.default_rng(29)
    A = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    h = make_tabulated(np.linspace(0.0, 2.0, 5), A + np.conj(np.swapaxes(A, 1, 2)))
    p = solve(h, 2.0, steps=steps)
    V = np.linalg.qr(np.linalg.eig(p.final())[1])[0]
    return p, from_observable(V @ np.diag([1.0, 2.0, 3.5]) @ V.conj().T)


@pytest.mark.parametrize("fixture", ["rotating-8192", "tabulated-d3-1024"])
def test_step_read_holonomy_matches_the_frame_overlaps(fixture):
    rng = np.random.default_rng(31)
    if fixture == "rotating-8192":
        w0, w1, w = 1.0, 3.0, 2.0
        p = solve(make_rotating(w0, w1, w), TWO_PI / w, steps=8192)
        obs = from_observable(rotating_observable(w0, w1, w)[0])
    else:
        p, obs = _cyclic_d3_drive(1024)
    ref = haar_frame(rng, obs.dim)
    g = random_gauge(rng, obs.dim)
    W = obs.vectors @ ref.vectors.conj().T @ g.in_frame(ref)
    for kwargs in ({}, {"reference": ref}, {"start": g.in_frame(obs)}, {"reference": ref, "start": W}):
        hor = horizontal_lift(lift_from_propagator(p, obs, **kwargs))
        got = holonomy(hor, tol=1e-9)
        want, gauge = frame_overlap_holonomy(p, obs, **kwargs)
        gaps = np.abs(got.betas - want) % TWO_PI
        assert np.max(np.minimum(gaps, TWO_PI - gaps)) <= 1e-12
        assert np.max(np.abs(hor.gauge - gauge)) <= 1e-12
