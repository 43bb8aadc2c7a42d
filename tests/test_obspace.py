import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import obsphase.obspace as obspace
from obsphase.errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
)
from obsphase.linalg import sigma_x, sigma_z
from obsphase.obspace import (
    GaugeElement,
    OrthDecomposition,
    distance_DW,
    fiber_contains,
    from_observable,
    match_columns,
)
from support import (
    NotGaugeError,
    _haar_frame,
    bloch_chart,
    compose,
    decompositions_equal,
    expm_skew,
    gauge_from_unitary,
    haar_frame,
    inverse,
    projector,
    random_gauge,
)


def half_angle_frame(phi):
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    return OrthDecomposition(np.array([[c, -s], [s, c]], dtype=complex))


def dw_closed_form(O, O2):
    # exact d=2 minimum: for each pairing the best ||I - U|| is
    # 2 sin(arccos(min(1, (|v_1|+|v_2|)/2)) / 2) with v_n the paired overlaps
    A = O.vectors.conj().T @ O2.vectors
    best = np.inf
    for sigma in ((0, 1), (1, 0)):
        s = (abs(A[0, sigma[0]]) + abs(A[1, sigma[1]])) / 2
        best = min(best, 2 * np.sin(np.arccos(min(1.0, s)) / 2))
    return best


def _worst_level_gap(B, e0, e1):
    # max_n |1 - lambda_n| of B diag(e0, e1), with the 2x2 eigenvalues in
    # closed form; e0, e1 are phase factors of any broadcastable shapes
    a, b = B[0, 0] * e0, B[0, 1] * e1
    c, d = B[1, 0] * e0, B[1, 1] * e1
    tr, det = a + d, a * d - b * c
    disc = np.sqrt(tr * tr - 4 * det + 0j)
    return np.maximum(np.abs(1 - (tr + disc) / 2), np.abs(1 - (tr - disc) / 2))


def dw_brute_force(O, O2, grid=1024):
    # dense scan over both pairings and a grid x grid phase lattice, then
    # nested refinement of every lattice cell that can still hold the
    # minimum. The objective is 1-Lipschitz in max_n |dtheta_n|: the
    # unitary A D(theta) moves by at most that in operator norm, and its
    # eigenvalues move no further (Bauer-Fike). A cell of width w around a
    # point of value v thus holds nothing below v - w/2; cells with
    # v - w/2 above the best value seen are dropped, the rest split in
    # four until w/2 <= 1e-8. The result overshoots the minimum by <= 1e-8.
    A = O.vectors.conj().T @ O2.vectors
    h = 2 * np.pi / grid
    th = np.arange(grid) * h
    e = np.exp(1j * th)
    pairings = [A[:, list(sigma)] for sigma in ((0, 1), (1, 0))]
    lattices = [_worst_level_gap(B, e[:, None], e[None, :]) for B in pairings]
    best = min(float(val.min()) for val in lattices)
    for B, val in zip(pairings, lattices):
        i, j = np.nonzero(val <= best + h / 2)
        t0, t1, w = th[i], th[j], h
        while t0.size and w / 2 > 1e-8:
            w /= 2
            t0 = (t0[:, None] + np.array([-1, -1, 1, 1]) * w / 2).ravel()
            t1 = (t1[:, None] + np.array([-1, 1, -1, 1]) * w / 2).ravel()
            val = _worst_level_gap(B, np.exp(1j * t0), np.exp(1j * t1))
            best = min(best, float(val.min()))
            keep = val <= best + w / 2
            t0, t1 = t0[keep], t1[keep]
    return best


def test_frame_validation():
    with pytest.raises(ValueError):
        OrthDecomposition(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        OrthDecomposition(np.ones((2, 3)))
    O = OrthDecomposition(np.eye(2))
    assert np.allclose(projector(O, 1), np.diag([0.0, 1.0]))


def test_from_observable():
    O = from_observable(sigma_z)
    assert np.allclose(O.vectors[:, 0], [0.0, 1.0])
    assert np.allclose(O.vectors[:, 1], [1.0, 0.0])
    phi = 0.7
    n = np.array([np.sin(phi), 0.0, np.cos(phi)])
    X0 = -(n[0] * sigma_x + n[2] * sigma_z)
    O2 = from_observable(X0)
    assert np.allclose(O2.vectors, half_angle_frame(phi).vectors, atol=1e-12)
    with pytest.raises(DegenerateSpectrumError):
        from_observable(np.eye(2))


def test_from_observable_gap_is_relative_to_the_norm():
    for c in (1e-10, 1e-8, 1e8):
        assert np.array_equal(from_observable(c * sigma_z).vectors, from_observable(sigma_z).vectors)
    for X in (np.zeros((2, 2)), np.eye(2), 1e-10 * np.eye(3)):
        with pytest.raises(DegenerateSpectrumError):
            from_observable(X)


@pytest.mark.parametrize("X", [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, -1.0]]])
def test_from_observable_tests_hermiticity_before_the_norm(X):
    # the 2-norm came first, and an SVD of a NaN matrix does not converge
    with pytest.raises(NotHermitianError):
        from_observable(np.array(X, dtype=complex))


def scaled_observable_fixture():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return Q @ np.diag([-1.0, 0.2, 1.0]) @ Q.conj().T


@pytest.mark.parametrize("k", [-12, -6, 6, 12])
def test_from_observable_hermiticity_is_relative_to_the_norm(k):
    # X's rounding asymmetry is 9.3e-17 at scale 1; an absolute 1e-10
    # test rejected 1e12 X
    X = scaled_observable_fixture()
    F = from_observable(10.0**k * X).vectors
    assert np.max(np.abs(F - from_observable(X).vectors)) <= 1e-14


def test_decomposition_equality_ignores_order_and_phase():
    rng = np.random.default_rng(21)
    O = haar_frame(rng)
    swapped = OrthDecomposition(O.vectors[:, ::-1] * np.exp(1j * np.array([0.3, 2.2])))
    assert decompositions_equal(O, swapped)
    assert not decompositions_equal(from_observable(sigma_z), from_observable(sigma_x))


def test_match_columns():
    perm, amps, ok = match_columns(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=1e-9)
    assert ok and list(perm) == [1, 0]
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    _, _, ok = match_columns(H, tol=1e-2)
    assert not ok


def test_gauge_element_unitary_and_compose():
    g = GaugeElement(perm=(1, 2, 0), phases=(0.1, 0.2, 0.3))
    U = g.as_unitary()
    assert abs(U[1, 0] - np.exp(0.1j)) < 1e-15
    assert abs(U[2, 1] - np.exp(0.2j)) < 1e-15
    assert abs(U[0, 2] - np.exp(0.3j)) < 1e-15
    rng = np.random.default_rng(5)
    for _ in range(8):
        a, b = random_gauge(rng, 4), random_gauge(rng, 4)
        assert np.allclose(
            compose(a, b).as_unitary(), a.as_unitary() @ b.as_unitary(), atol=1e-12
        )
        assert np.allclose(
            compose(a, inverse(a)).as_unitary(), np.eye(4), atol=1e-12
        )
    with pytest.raises(ValueError):
        GaugeElement(perm=(0, 0), phases=(0.0, 0.0))


def test_gauge_from_unitary_roundtrip():
    rng = np.random.default_rng(17)
    g = random_gauge(rng, 3)
    back = gauge_from_unitary(g.as_unitary())
    assert back.perm == g.perm
    assert np.allclose(back.phases, g.phases, atol=1e-12)
    with pytest.raises(NotGaugeError):
        gauge_from_unitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
    with pytest.raises(NotUnitaryError):
        gauge_from_unitary(2 * np.eye(2))


def test_fiber_contains():
    O0 = from_observable(sigma_z)
    assert fiber_contains(np.eye(2), O0, O0)
    rng = np.random.default_rng(2)
    g = random_gauge(rng, 2)
    assert fiber_contains(g.in_frame(O0), O0, O0)
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert not fiber_contains(H, O0, O0)
    O = haar_frame(rng)
    W = O.vectors @ O0.vectors.conj().T
    assert fiber_contains(W, O, O0)
    with pytest.raises(NotUnitaryError):
        fiber_contains(2 * np.eye(2), O0, O0)


def test_fibers_are_gauge_torsors():
    rng = np.random.default_rng(31)
    O0 = from_observable(sigma_z)
    for _ in range(10):
        O = haar_frame(rng)
        W = O.vectors @ O0.vectors.conj().T
        U = W @ random_gauge(rng, 2).in_frame(O0)
        V = W @ random_gauge(rng, 2).in_frame(O0)
        assert fiber_contains(U, O, O0) and fiber_contains(V, O, O0)
        gauge_from_unitary(U.conj().T @ V)  # must not raise


def test_distance_zero_iff_equal():
    rng = np.random.default_rng(41)
    O = haar_frame(rng)
    same = OrthDecomposition(O.vectors[:, ::-1] * np.exp(1j * np.array([1.1, 0.4])))
    assert distance_DW(O, O) < 1e-9
    assert distance_DW(O, same) < 1e-9
    other = haar_frame(rng)
    assert distance_DW(O, other) > 1e-3


def test_distance_z_vs_x_brute_force():
    # the z/x value is 2 sin(pi/8); the optimum lies on the 1024-grid,
    # so the dense scan hits it essentially exactly
    Oz, Ox = from_observable(sigma_z), from_observable(sigma_x)
    exact = 2 * np.sin(np.pi / 8)
    assert abs(dw_brute_force(Oz, Ox) - exact) < 1e-9
    assert abs(distance_DW(Oz, Ox) - exact) < 1e-6
    assert abs(dw_closed_form(Oz, Ox) - exact) < 1e-15


def test_distance_matches_closed_form_random():
    rng = np.random.default_rng(53)
    for _ in range(10):
        O, O2 = haar_frame(rng), haar_frame(rng)
        assert abs(distance_DW(O, O2) - dw_closed_form(O, O2)) < 1e-6


def test_brute_force_matches_closed_form_random():
    # criterion 8 holds distance_DW to this oracle at 1e-4, which means
    # something only while the oracle itself finds the exact minimum
    rng = np.random.default_rng(83)
    for _ in range(10):
        O, O2 = haar_frame(rng), haar_frame(rng)
        assert abs(dw_brute_force(O, O2) - dw_closed_form(O, O2)) < 1e-8


def test_distance_symmetry():
    rng = np.random.default_rng(61)
    for _ in range(5):
        O, O2 = haar_frame(rng), haar_frame(rng)
        assert abs(distance_DW(O, O2) - distance_DW(O2, O)) < 1e-12


def test_distance_triangle_inequality():
    rng = np.random.default_rng(71)
    for _ in range(5):
        a, b, c = haar_frame(rng), haar_frame(rng), haar_frame(rng)
        assert distance_DW(a, c) <= distance_DW(a, b) + distance_DW(b, c) + 1e-6


def test_distance_dimension_check():
    with pytest.raises(DimensionMismatchError):
        distance_DW(from_observable(sigma_z), OrthDecomposition(np.eye(3)))


def test_bloch_chart():
    assert np.allclose(bloch_chart(from_observable(sigma_z)), [0.0, 0.0, 1.0])
    phi = 0.9
    O = half_angle_frame(phi)
    assert np.allclose(bloch_chart(O), [np.sin(phi), 0.0, np.cos(phi)], atol=1e-12)
    swapped = OrthDecomposition(O.vectors[:, ::-1])
    assert np.allclose(bloch_chart(O), bloch_chart(swapped), atol=1e-12)
    south = half_angle_frame(np.pi - 0.2)  # projector(0) points below the equator
    n = bloch_chart(south)
    assert n[2] >= 0
    with pytest.raises(DimensionMismatchError):
        bloch_chart(OrthDecomposition(np.eye(3)))


def test_distance_to_own_gauge_copy_is_zero():
    # a frame against a permuted and rephased copy of itself: the aligned
    # point meets the pairing's bound, so the value is exact to 1e-12
    for d, pairs in ((3, 6), (4, 1)):
        rng = np.random.default_rng(5)
        for _ in range(pairs):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            F = q * np.exp(-1j * np.angle(np.diag(r)))
            G = F[:, rng.permutation(d)] * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            assert distance_DW(OrthDecomposition(F), OrthDecomposition(G)) <= 1e-12


def _gauge_pair(rng, d):
    # a frame and a permuted, rephased copy of it, built as in the test above
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    F = q * np.exp(-1j * np.angle(np.diag(r)))
    G = F[:, rng.permutation(d)] * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    return OrthDecomposition(F), OrthDecomposition(G)


def test_a_near_gauge_copy_reaches_its_distance_from_the_aligned_point():
    # a gauge copy turned by exp(-i eps H), |H| = 1: the aligned point is
    # no longer certified, and a refine started from a coarse grid minimum
    # stalled at a kink far above it (0.011 on the fifth d = 3 pair, 0.055
    # on the sixth d = 4 pair); refining the aligned point reaches a value
    # at most that point's and at most ||I - exp(-i eps H)||
    for d, pairs, eps in ((3, 5, 1e-9), (4, 6, 1e-10)):
        rng = np.random.default_rng(5)
        for _ in range(pairs):
            O, O2 = _gauge_pair(rng, d)
            H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (H + H.conj().T) / 2
        U = expm_skew(H / np.linalg.norm(H, 2), eps)
        turned = OrthDecomposition(U @ O2.vectors)
        A = O.vectors.conj().T @ turned.vectors
        A = A[:, np.argmax(np.abs(A), axis=1)]
        aligned = -np.angle(np.diag(A))
        value = distance_DW(O, turned)
        assert value <= obspace._objective_at(A, aligned[1:] - aligned[0])
        assert value <= np.linalg.norm(np.eye(d) - U, 2)


def unpruned_distance(O, O2):
    # every pairing refined from its aligned point, with no lower bound
    # to prune on or to certify against
    ka, kb = np.round(O.vectors, 10).tobytes(), np.round(O2.vectors, 10).tobytes()
    if kb < ka:
        O, O2 = O2, O
    A = O.vectors.conj().T @ O2.vectors
    d = O.dim
    return min(
        obspace._min_over_phases(A[:, list(sigma)], -np.inf)
        for sigma in permutations(range(d))
    )


def test_pruning_returns_the_unpruned_minimum_bit_for_bit():
    for d, seed, pairs in ((3, 21, 4), (4, 22, 1)):
        rng = np.random.default_rng(seed)
        for _ in range(pairs):
            O, O2 = haar_frame(rng, d), haar_frame(rng, d)
            assert distance_DW(O, O2) == unpruned_distance(O, O2)


def test_d2_and_gauge_copies_need_no_search(monkeypatch):
    def no_search(A, start):
        raise AssertionError("the phase-aligned point should have been certified")

    monkeypatch.setattr(obspace, "_refine", no_search)
    rng = np.random.default_rng(53)
    for _ in range(10):
        O, O2 = haar_frame(rng), haar_frame(rng)
        assert abs(distance_DW(O, O2) - dw_closed_form(O, O2)) <= 1e-12
    for d, pairs in ((3, 6), (4, 1)):
        rng = np.random.default_rng(5)
        for _ in range(pairs):
            assert distance_DW(*_gauge_pair(rng, d)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    perm=st.permutations([0, 1]),
    phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=2, max_size=2),
)
def test_d2_distance_properties(seed, perm, phases):
    rng = np.random.default_rng(seed)
    F, G = haar_frame(rng), haar_frame(rng)
    D = distance_DW(F, G)
    assert distance_DW(G, F) == D
    assert abs(D - dw_closed_form(F, G)) <= 1e-12
    G_copy = OrthDecomposition(G.vectors[:, list(perm)] * np.exp(1j * np.array(phases)))
    assert abs(distance_DW(F, G_copy) - D) <= 1e-12


def test_d2_frames_1e9_apart_need_no_search(monkeypatch):
    def no_search(A, start):
        raise AssertionError("the phase-aligned point should have been certified")

    monkeypatch.setattr(obspace, "_refine", no_search)
    # half-angle frames phi apart are 2 sin(phi / 4) apart; the bound
    # sqrt(2 - 2|A_nn|) would read 0 here, far below the aligned value
    phi = 1e-9
    D = distance_DW(half_angle_frame(0.0), half_angle_frame(phi))
    assert abs(D - 2 * np.sin(phi / 4)) <= 1e-15


def _spectral_reduction_holds(A, rel):
    # the global phase only turns the spectrum of A D(theta), so a dense
    # scan of it reaches the closed form within half the scan step, and
    # never goes below it
    scan = 4096
    lam = np.linalg.eigvals(A * np.exp(1j * np.concatenate([[0.0], rel]))[None, :])
    turns = np.exp(1j * np.arange(scan) * 2 * np.pi / scan)
    scanned = float(np.min(np.max(np.abs(1 - turns[:, None] * lam[None, :]), axis=1)))
    reduced = float(obspace._eig_objective(A, rel))
    assert reduced <= scanned + 1e-12
    assert reduced >= scanned - np.pi / scan - 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([3, 4]))
def test_global_phase_in_closed_form_matches_a_dense_scan(seed, d):
    rng = np.random.default_rng(seed)
    A = haar_frame(rng, d).vectors
    _spectral_reduction_holds(A, rng.uniform(0.0, 2 * np.pi, d - 1))


def test_global_phase_in_closed_form_across_minus_pi():
    # a spectrum in a narrow arc around -1, split by the branch cut of
    # np.angle: the widest gap lies inside the sorted angles, not across -pi
    for angles in ([np.pi - 0.1, -np.pi + 0.05, np.pi - 0.02], [3.0, -3.1, 2.9, -2.95]):
        A = np.diag(np.exp(1j * np.array(angles)))
        rel = np.zeros(len(angles) - 1)
        _spectral_reduction_holds(A, rel)
        w = max(a % (2 * np.pi) for a in angles) - min(a % (2 * np.pi) for a in angles)
        assert abs(float(obspace._eig_objective(A, rel)) - 2 * np.sin(w / 4)) <= 1e-15


def _bottleneck_lower_bound(A):
    # min over pairings of max_n sqrt(2 - 2|A_{n, sigma(n)}|), found as the
    # smallest threshold whose admissible entries hold a perfect matching.
    # 2 - 2|A_nm| is taken as 2 r / (1 + |A_nm|), r = 1 - |A_nm|^2 summed
    # over the rest of column m: where |A_nm| rounds near 1, 2 - 2|A_nm|
    # keeps no digits (one ulp below 1 already reads 1.5e-8)
    m = np.abs(A)
    cost = np.sqrt(2 * ((1 - np.eye(len(m))) @ m**2) / (1 + m))
    for t in np.unique(cost):
        rows, cols = linear_sum_assignment(cost > t)
        if not (cost[rows, cols] > t).any():
            return float(t)


@pytest.mark.parametrize("d", [5, 8])
def test_greedy_pairing_beyond_d4(d):
    rng = np.random.default_rng(3)
    for _ in range(2):
        O, O2 = haar_frame(rng, d), haar_frame(rng, d)
        A = O.vectors.conj().T @ O2.vectors
        sigma = obspace._greedy_pairing(np.abs(A))
        assert sorted(sigma) == list(range(d))
        B = A[:, list(sigma)]
        U = B * np.exp(-1j * np.angle(np.diag(B)))[None, :]
        aligned = np.linalg.norm(np.eye(d) - U, 2)
        start = time.process_time()
        D = distance_DW(O, O2)
        assert time.process_time() - start < 1.0
        assert _bottleneck_lower_bound(A) - 1e-12 <= D <= aligned + 1e-12


# the least value found, for the first 10 default_rng(21) pairs at d = 3
# and the first 2 default_rng(22) pairs at d = 4 (haar_frame), by 24
# random Nelder-Mead starts per pairing over all d phases on
# max_n |1 - lambda_n|, and by a compass search from the phase-aligned
# point of each pairing
BEST_KNOWN = {
    3: (21, [0.5456531639467074, 0.9558761987677812, 0.914954377733499, 0.9190404174862216,
             0.9558296731230261, 0.6819227259461468, 0.8174071098344009, 0.6487843975658748,
             0.7992317402050599, 0.7647120771875136]),
    4: (22, [0.9674359693959713, 0.9872036053796432]),
}


@pytest.mark.parametrize("d", [3, 4])
def test_distance_at_or_below_the_best_known_values(d):
    seed, table = BEST_KNOWN[d]
    rng = np.random.default_rng(seed)
    for k, best in enumerate(table):
        O, O2 = haar_frame(rng, d), haar_frame(rng, d)
        D = distance_DW(O, O2)
        assert D <= best + 1e-9, (k, D, best)
        assert D >= _bottleneck_lower_bound(O.vectors.conj().T @ O2.vectors) - 1e-12, k


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([3, 4]),
    kind=st.sampled_from(["haar", "turned"]),
    log_eps=st.floats(-10.0, 0.0),
)
def test_distance_is_at_most_the_least_aligned_point(seed, d, kind, log_eps):
    # a Haar pair, or a gauge copy turned by exp(-i eps H), |H| = 1; the
    # aligned point of pairing sigma makes the diagonal of A_sigma D real
    # positive, and no pairing returns more than its aligned value
    rng = np.random.default_rng(seed)
    if kind == "haar":
        O, O2 = haar_frame(rng, d), haar_frame(rng, d)
    else:
        O, G = _gauge_pair(rng, d)
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (H + H.conj().T) / 2
        O2 = OrthDecomposition(expm_skew(H / np.linalg.norm(H, 2), 10.0**log_eps) @ G.vectors)
    A = O.vectors.conj().T @ O2.vectors
    aligned = min(
        np.linalg.norm(np.eye(d) - B * np.exp(-1j * np.angle(np.diag(B))), 2)
        for B in (A[:, list(sigma)] for sigma in permutations(range(d)))
    )
    D = distance_DW(O, O2)
    assert D <= aligned + 1e-15
    assert D >= _bottleneck_lower_bound(A) - 1e-12


def test_distance_at_d14_refines_from_the_aligned_point():
    # refining from the arbitrary theta = 0 reached 1.7696 on this pair,
    # and the phase-aligned start reaches 1.6796
    rng = np.random.default_rng(3)
    O, O2 = _haar_frame(rng, 14), _haar_frame(rng, 14)
    D = distance_DW(O, O2)
    assert D < 1.7696340861304944 - 0.05
    assert D >= _bottleneck_lower_bound(O.vectors.conj().T @ O2.vectors) - 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_objective_at_one_point_is_the_batched_objective_bit_for_bit(seed, d):
    rng = np.random.default_rng(seed)
    A = haar_frame(rng, d).vectors
    rels = rng.uniform(-2 * np.pi, 2 * np.pi, (4, d - 1))
    batched = obspace._eig_objective(A, rels)
    for rel, value in zip(rels, batched):
        at = obspace._objective_at(A, rel)
        assert type(at) is float
        assert at == float(obspace._eig_objective(A, rel)) == float(value)


def _ordered_pair_bound(O, O2):
    # the d = 2 closed form of the pair in distance_DW's order: the smaller
    # of the two pairings' bounds, each sqrt(2 - 2|A_nm|) written as
    # sqrt(2 r / (1 + |A_nm|)) with r = |A_{n, 1 - m}|^2 the rest of row n
    def key(F):
        return np.round(F.vectors, 10).tobytes(), F.vectors.tobytes()

    if key(O2) < key(O):
        O, O2 = O2, O
    overlaps = np.abs(O.vectors.conj().T @ O2.vectors)
    bounds = np.sqrt(2 * overlaps[:, ::-1] ** 2 / (1 + overlaps))
    return float(min(max(bounds[0, 0], bounds[1, 1]), max(bounds[0, 1], bounds[1, 0])))


def test_d2_distance_needs_no_eigen_solve_and_no_search(monkeypatch):
    def boom(*args):
        raise AssertionError("d = 2 is answered in closed form")

    monkeypatch.setattr(np.linalg, "eigvals", boom)
    monkeypatch.setattr(obspace, "_objective_at", boom)
    monkeypatch.setattr(obspace, "_min_over_phases", boom)
    rng = np.random.default_rng(53)
    for _ in range(10):
        O, O2 = haar_frame(rng), haar_frame(rng)
        assert abs(distance_DW(O, O2) - dw_closed_form(O, O2)) <= 1e-12


def _d2_pair(seed, kind):
    # a Haar pair, a frame and a permuted, rephased copy, or a frame and
    # one turned by a tiny angle (where sqrt(2 - 2|A_nn|) would lose its digits)
    rng = np.random.default_rng(seed)
    F = haar_frame(rng)
    if kind == "haar":
        return F, haar_frame(rng)
    if kind == "gauge":
        G = F.vectors[:, rng.permutation(2)] * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        return F, OrthDecomposition(G)
    phi = 10.0 ** rng.uniform(-12, -4)
    return F, OrthDecomposition(half_angle_frame(phi).vectors @ F.vectors)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["haar", "gauge", "near"]))
def test_d2_distance_is_the_same_float_in_both_orders(seed, kind):
    O, O2 = _d2_pair(seed, kind)
    D = distance_DW(O, O2)
    assert type(D) is float
    assert distance_DW(O2, O) == D


@pytest.mark.parametrize("kind", ["haar", "gauge", "near"])
def test_d2_distance_is_the_closed_form_of_the_ordered_pair(kind):
    for seed in range(100):
        O, O2 = _d2_pair(seed, kind)
        assert distance_DW(O, O2) == _ordered_pair_bound(O, O2)


# distance_DW on the first 5 default_rng(21) pairs at d = 3 and the first
# 2 default_rng(22) pairs at d = 4 (haar_frame), bit for bit: the aligned
# start, descent and pruning search, which the d = 2 closed form leaves alone
PINNED_D3_D4 = {
    3: (21, ["0x1.175fd9fc38569p-1", "0x1.e9689ae976ff5p-1", "0x1.d474e67365130p-1",
             "0x1.d68c77319c6bdp-1", "0x1.e96281c53833ap-1"]),
    4: (22, ["0x1.ef53c4730f3c6p-1", "0x1.f972c03f329dap-1"]),
}


@pytest.mark.parametrize("d", [3, 4])
def test_distance_keeps_its_floats_at_d3_and_d4(d):
    seed, table = PINNED_D3_D4[d]
    rng = np.random.default_rng(seed)
    for k, pinned in enumerate(table):
        O, O2 = haar_frame(rng, d), haar_frame(rng, d)
        assert distance_DW(O, O2).hex() == pinned, k
        assert distance_DW(O2, O).hex() == pinned, k


def test_a_refine_makes_at_most_80_eigen_solves(monkeypatch):
    # one eig per step of the descent, on the pinned pairs in both orders
    solves, per_refine = [0], []

    def counted(f):
        def call(*args):
            solves[0] += 1
            return f(*args)

        return call

    refine = obspace._refine

    def counted_refine(A, start):
        before = solves[0]
        value = refine(A, start)
        per_refine.append(solves[0] - before)
        return value

    monkeypatch.setattr(np.linalg, "eig", counted(np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals))
    monkeypatch.setattr(obspace, "_refine", counted_refine)
    for d, (seed, table) in PINNED_D3_D4.items():
        rng = np.random.default_rng(seed)
        for _ in table:
            O, O2 = haar_frame(rng, d), haar_frame(rng, d)
            distance_DW(O, O2)
            distance_DW(O2, O)
    assert per_refine and max(per_refine) <= 80, per_refine


def _count_eigen_solves(monkeypatch):
    # a one-element list that counts the np.linalg.eig and eigvals calls
    solves = [0]

    def counted(f):
        def call(*args):
            solves[0] += 1
            return f(*args)

        return call

    monkeypatch.setattr(np.linalg, "eig", counted(np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals))
    return solves


def test_a_call_makes_at_most_12_eigen_solves_at_d3_and_60_at_d4(monkeypatch):
    # the mean over the first 40 d = 3 and the first 20 d = 4
    # default_rng(2024) pairs, one generator per d: a descent that runs on
    # after the predicted decrease of w is below its rounding spends about
    # 16 and 75
    solves = _count_eigen_solves(monkeypatch)
    for d, pairs, budget in ((3, 40, 12), (4, 20, 60)):
        rng = np.random.default_rng(2024)
        solves[0] = 0
        for _ in range(pairs):
            distance_DW(haar_frame(rng, d), haar_frame(rng, d))
        assert solves[0] / pairs <= budget, (d, solves[0] / pairs)


def test_a_near_gauge_copy_makes_at_most_60_eigen_solves(monkeypatch):
    # a gauge copy turned by exp(-i eps H), |H| = 1, has w ~ eps at its
    # minimum, far below the 1e-16 to which eig reads an eigen-angle: a
    # descent that backtracks until the predicted decrease is below half
    # an ulp of w itself wanders on that rounding, 330 to 2700 solves a
    # call on these pairs, where about 35 reach the same value
    solves = _count_eigen_solves(monkeypatch)
    for d in (3, 4):
        for eps in (1e-6, 1e-9):
            rng = np.random.default_rng(6)
            solves[0] = 0
            for _ in range(10):
                O, O2 = _gauge_pair(rng, d)
                H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                H = (H + H.conj().T) / 2
                U = expm_skew(H / np.linalg.norm(H, 2), eps)
                distance_DW(O, OrthDecomposition(U @ O2.vectors))
            assert solves[0] / 10 <= 60, (d, eps, solves[0] / 10)


def _near_degenerate_overlap(seed, d, kind):
    # a permuted ("monomial") or plain diagonal A with phases that are
    # multiples of 2 pi / n, so that A D(theta) has double or triple
    # eigenvalues at some points of that lattice (a diagonal A makes it
    # scalar at one); or a monomial A turned by exp(i eps H), which splits
    # those roots by about eps
    rng = np.random.default_rng(seed)
    n = {3: 8, 4: 4}[d]
    perm = np.arange(d) if kind == "diagonal" else rng.permutation(d)
    A = np.eye(d)[:, perm] * np.exp(2j * np.pi / n * rng.integers(0, n, d))
    if kind == "near":
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w, V = np.linalg.eigh(H + H.conj().T)
        A = (V * np.exp(1j * 10.0 ** rng.uniform(-12, -3) * w)) @ V.conj().T @ A
    return A


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([3, 4]),
    kind=st.sampled_from(["monomial", "diagonal", "near"]),
)
@example(seed=0, d=3, kind="diagonal")
@example(seed=0, d=4, kind="diagonal")
def test_distance_on_near_degenerate_overlaps(seed, d, kind):
    # O = F and O2 = F A, so that A is the overlap of the pair
    A = _near_degenerate_overlap(seed, d, kind)
    F = haar_frame(np.random.default_rng(seed), d).vectors
    O, O2 = OrthDecomposition(F), OrthDecomposition(F @ A)
    D = distance_DW(O, O2)
    assert np.isfinite(D)
    assert distance_DW(O2, O) == D
    assert D >= _bottleneck_lower_bound(A) - 1e-12


# distance_DW on the first 6 default_rng(3) pairs (_haar_frame) at d = 14,
# 15, 16, 14, 15, 16, as a Nelder-Mead refine returned it when it stopped
# at its iteration cap, short of a local minimum
NELDER_MEAD_STALLS = (1.679626086814576, 1.7309206253914156, 1.7384668315259624,
                      1.5828042829029183, 1.7386464910877093, 1.656924915756604)


def test_distance_from_d14_descends_below_where_nelder_mead_stalled():
    rng = np.random.default_rng(3)
    for d, stalled in zip((14, 15, 16, 14, 15, 16), NELDER_MEAD_STALLS):
        O, O2 = _haar_frame(rng, d), _haar_frame(rng, d)
        start = time.process_time()
        D = distance_DW(O, O2)
        assert time.process_time() - start < 1.0, d
        assert D <= stalled - 5e-3, (d, D, stalled)
