import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsphase.errors import DegenerateSpectrumError, NotHermitianError
from obsphase.linalg import (
    HERMITICITY_TOL,
    _asymmetry,
    expm_skew,
    expm_skew_many,
    is_hermitian,
    is_unitary,
    matmul_stack,
    require_hermitian,
    sigma_x,
    sigma_y,
    sigma_z,
)
from obsphase.obspace import from_observable
from support import ident2, normalize, operator_norm


def random_hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (A + A.conj().T) / 2


def test_pauli_algebra():
    assert np.allclose(sigma_x @ sigma_x, ident2)
    assert np.allclose(sigma_y @ sigma_y, ident2)
    assert np.allclose(sigma_z @ sigma_z, ident2)
    assert np.allclose(sigma_x @ sigma_y - sigma_y @ sigma_x, 2j * sigma_z)


def test_predicates():
    assert is_hermitian(sigma_y)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_unitary(expm_skew(sigma_x, 0.3))
    assert not is_unitary(2 * ident2)


def test_normalize():
    v = normalize(np.array([3.0, 4.0j]))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        normalize(np.zeros(3))


def frame_values(X, F):
    """The diagonal of F^dagger X F: the eigenvalues in the frame's order."""
    return np.real(np.diag(F.conj().T @ X @ F))


def test_fix_phase_tie_goes_to_lowest_index():
    # both components of each sigma_y eigenvector have magnitude 1/sqrt(2),
    # so the first one is made real positive
    F = from_observable(sigma_y).vectors
    assert np.allclose(F, np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2), atol=1e-15)


def test_eig_sigma_z():
    F = from_observable(sigma_z).vectors
    assert np.allclose(frame_values(sigma_z, F), [-1.0, 1.0])
    assert np.allclose(F[:, 0], [0.0, 1.0])
    assert np.allclose(F[:, 1], [1.0, 0.0])


def test_eig_sigma_x_phase_convention():
    F = from_observable(sigma_x).vectors
    s = 1 / np.sqrt(2)
    assert np.allclose(F[:, 0], [s, -s])
    assert np.allclose(F[:, 1], [s, s])


def test_eig_qubit_field():
    # H = -(w0 sx + (w1+w) sz)/2 at w0=1, w1=3, w=2: spectrum +/- sqrt(26)/2,
    # and the (cos, sin) half-angle vector belongs to the LOWER eigenvalue
    H = -0.5 * (sigma_x + 5 * sigma_z)
    F = from_observable(H).vectors
    half_r = 2.5495097567963922
    assert np.allclose(frame_values(H, F), [-half_r, half_r], atol=1e-12)
    phi = 2 * np.arctan(1 / (5 + np.sqrt(26.0)))
    lo = np.array([np.cos(phi / 2), np.sin(phi / 2)])
    hi = np.array([-np.sin(phi / 2), np.cos(phi / 2)])
    assert np.allclose(F[:, 0], lo, atol=1e-12)
    assert np.allclose(F[:, 1], hi, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        from_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_degenerate_flagged():
    with pytest.raises(DegenerateSpectrumError, match=r"eigen-gap 0\.000e\+00, not above 1e-09 times its norm"):
        from_observable(np.eye(3))


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 8):
        H = random_hermitian(rng, d)
        F = from_observable(H).vectors
        values = frame_values(H, F)
        R = F @ np.diag(values) @ F.conj().T
        assert np.linalg.norm(R - H) < 1e-8
        assert np.linalg.norm(F.conj().T @ F - np.eye(d)) < 1e-12
        assert np.all(np.diff(values) > 0)
        assert np.allclose(values, np.linalg.eigvalsh(H), atol=1e-12)


def test_expm_skew_closed_forms():
    assert np.allclose(expm_skew(sigma_z, np.pi), -ident2, atol=1e-14)
    assert np.allclose(expm_skew(sigma_x, np.pi / 2), -1j * sigma_x, atol=1e-14)
    assert np.allclose(expm_skew(sigma_z, 0.7), np.diag(np.exp([-0.7j, 0.7j])), atol=1e-14)


def test_expm_skew_group_law():
    rng = np.random.default_rng(3)
    H = random_hermitian(rng, 5)
    U = expm_skew(H, 0.4) @ expm_skew(H, 1.1)
    assert np.allclose(U, expm_skew(H, 1.5), atol=1e-12)
    assert is_unitary(U, tol=1e-12)


def test_expm_skew_many_matches_loop():
    rng = np.random.default_rng(5)
    Hs = np.stack([random_hermitian(rng, 3) for _ in range(6)])
    batch = expm_skew_many(Hs, 0.25)
    for k in range(6):
        assert np.allclose(batch[k], expm_skew(Hs[k], 0.25), atol=1e-13)
    with pytest.raises(NotHermitianError):
        expm_skew_many(np.array([[[0.0, 1.0], [0.0, 0.0]]]), 1.0)


def test_operator_norm():
    assert abs(operator_norm(np.diag([0.0, 2.0])) - 2.0) < 1e-14
    assert abs(operator_norm(np.array([[0.0, 3.0], [0.0, 0.0]])) - 3.0) < 1e-14
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(operator_norm(A) - np.linalg.svd(A, compute_uv=False)[0]) < 1e-12


def test_expm_skew_many_rejects_nan_generators():
    Hs = np.stack([sigma_x, np.full((2, 2), np.nan)]).astype(complex)
    with pytest.raises(NotHermitianError):
        expm_skew_many(Hs, 0.5)


def test_hermiticity_is_one_relative_test_on_a_matrix_or_a_stack():
    rng = np.random.default_rng(11)
    H = random_hermitian(rng, 3)
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1e-9 * np.linalg.norm(H)
    for c in (1e-200, 1e-12, 1.0, 1e12, 1e200):
        assert is_hermitian(c * H) is True
        assert is_hermitian(c * (H + skew)) is False
    stack = np.stack([H, H + skew, np.full((3, 3), np.nan), np.zeros((3, 3))])
    assert is_hermitian(stack).tolist() == [True, False, False, True]
    # a caller may still ask for a tighter test
    assert not is_hermitian(H + 1e-2 * skew, tol=1e-12)


def test_checks_name_the_shared_tolerance_and_refuse_nan():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    for check in (from_observable, lambda H: expm_skew(H, 1.0), lambda H: expm_skew_many([H], 1.0)):
        with pytest.raises(NotHermitianError, match=r"within 1e-10 of its largest entry \(deviation 1\)"):
            check(bad)
    # the message gives the deviation relative to the largest entry
    with pytest.raises(NotHermitianError, match=r"generator 1 .* \(deviation 1e-08\)"):
        expm_skew_many(np.stack([sigma_x, 1e6 * (sigma_x + 1e-8j * bad)]), 1.0)
    assert not is_unitary(np.full((2, 2), np.nan))
    # the unitarity default is the 1e-8 every caller in the package uses
    assert is_unitary(expm_skew(sigma_x, 0.3) * (1 + 1e-9))
    assert not is_unitary(expm_skew(sigma_x, 0.3) * (1 + 1e-7))


def eigh_expm_many(Hs, s):
    """The eigendecomposition formula expm_skew_many uses at d != 2, kept
    as the reference for the qubit closed form."""
    w, V = np.linalg.eigh(Hs)
    return np.einsum("kij,kj,klj->kil", V, np.exp(-1j * s * w), V.conj())


def max_drift(Us):
    gram = np.conj(np.swapaxes(Us, -1, -2)) @ Us
    return float(np.max(np.abs(gram - np.eye(Us.shape[-1]))))


@pytest.mark.parametrize("c", [1e-150, 1e-8, 1.0, 1e8, 1e150])
def test_qubit_closed_form_matches_the_eigh_formula(c):
    rng = np.random.default_rng(41)
    random = [random_hermitian(rng, 2) for _ in range(256)]
    # zero, scalar and diagonal generators: r = 0 or H_10 = 0
    special = [0 * ident2, 0.7 * ident2, -1.3 * ident2, np.diag([0.4, -2.0]), sigma_x, sigma_y]
    Hs = c * np.stack(random + special).astype(complex)
    for s in (1 / c, -1 / c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U = expm_skew_many(Hs, s)
        R = eigh_expm_many(Hs, s)
        assert np.max(np.abs(U - R)) <= 1e-14
        assert max_drift(U) <= max_drift(R)


@pytest.mark.parametrize(
    "shape_a, shape_b", [((1000, 2, 2), (2, 2)), ((31, 32, 2, 2), (31, 1, 2, 2))]
)
def test_qubit_stack_product_matches_matmul(shape_a, shape_b):
    rng = np.random.default_rng(43)
    A = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
    B = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
    P, R = matmul_stack(A, B), A @ B
    assert P.shape == R.shape
    scale = np.abs(R).max(axis=(-2, -1))
    assert np.all(np.abs(P - R).max(axis=(-2, -1)) <= 1e-15 * scale)


@pytest.mark.parametrize("d", [3, 4])
def test_larger_stacks_keep_eigh_and_matmul_bit_for_bit(d):
    rng = np.random.default_rng(47)
    Hs = np.stack([random_hermitian(rng, d) for _ in range(64)])
    assert np.array_equal(expm_skew_many(Hs, 0.3), eigh_expm_many(Hs, 0.3))
    A = expm_skew_many(Hs, 0.3)
    assert np.array_equal(matmul_stack(A, A[0]), A @ A[0])
    assert np.array_equal(matmul_stack(A[None], A[:, None]), A[None] @ A[:, None])


def test_normalize_refuses_a_nan_vector():
    # NaN fails every comparison, so a NaN norm must fail the zero test
    with pytest.raises(ValueError):
        normalize(np.array([np.nan, 1.0]))


def test_eig_flag_and_frame_do_not_depend_on_the_scale():
    # the degeneracy tolerance is GAP_TOL * ||H||_2, so c H is read like
    # H: an absolute 1e-9 would call every spectrum of 1e-12 H degenerate
    rng = np.random.default_rng(5)
    H = random_hermitian(rng, 4)
    Q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    D = Q @ np.diag([1.0, 1.0, 2.0]) @ Q.conj().T
    D = (D + D.conj().T) / 2
    ref = from_observable(H).vectors
    for c in 10.0 ** np.arange(-12, 13, 3):
        assert np.allclose(from_observable(c * H).vectors, ref, atol=1e-10), c
        with pytest.raises(DegenerateSpectrumError):
            from_observable(c * D)
    with pytest.raises(DegenerateSpectrumError):
        from_observable(np.zeros((2, 2)))


def test_a_near_degenerate_observable_reports_a_non_negative_gap():
    # eigh's values ascend, so the smallest gap it reports is never
    # negative, even where rounding splits the close pair either way
    rng = np.random.default_rng(2)
    for _ in range(200):
        Q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        X = Q @ np.diag([1.0, 1.0 + 1e-12, 3.0]) @ Q.conj().T
        with pytest.raises(DegenerateSpectrumError, match=r"eigen-gap \d\.\d{3}e[+-]\d+, not above"):
            from_observable((X + X.conj().T) / 2)


# multiples of the tolerance for the perturbation of one entry, on both
# sides of the edge, and the values planted in a real or imaginary part
EDGES = (0.0, 0.5, 1 - 2**-20, 1.0, 1 + 2**-20, 2.0)
PLANTED = (np.nan, np.inf, -np.inf, 0.0, -0.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 2, 3, 4]),
    n=st.integers(1, 6),
    exponents=st.lists(st.integers(-300, 300), min_size=6, max_size=6),
    edges=st.lists(st.sampled_from(EDGES), min_size=6, max_size=6),
    planted=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3), st.booleans(), st.sampled_from(PLANTED)),
        max_size=3,
    ),
)
def test_stack_screen_reads_every_matrix_like_the_generic_rule(seed, d, n, exponents, edges, planted):
    # d = 2 stacks are screened entry by entry; every verdict, the first
    # matrix named and its deviation text must be those of the generic
    # rule applied to one matrix at a time (d = 3 and 4 use that rule)
    rng = np.random.default_rng(seed)
    Hs = np.stack([random_hermitian(rng, d) * 10.0 ** exponents[k] for k in range(n)])
    for k in range(n):
        i, j = rng.integers(d, size=2)
        Hs[k, i, j] += edges[k] * HERMITICITY_TOL * np.abs(Hs[k]).max() * rng.choice([1, -1, 1j, -1j])
    for k, i, j, imaginary, value in planted:
        part = Hs.imag if imaginary else Hs.real
        part[k % n, i % d, j % d] = value
    with np.errstate(all="ignore"):
        want = [bool(_asymmetry(M) <= HERMITICITY_TOL * np.abs(M).max() and np.isfinite(M).all()) for M in Hs]
        assert is_hermitian(Hs).tolist() == want
        if all(want):
            require_hermitian(Hs, "generator")
            return
        k = want.index(False)
        text = (
            f"generator {k} is not Hermitian within 1e-10 of its largest entry "
            f"(deviation {_asymmetry(Hs[k]) / np.abs(Hs[k]).max():.3g})"
        )
        with pytest.raises(NotHermitianError) as raised:
            require_hermitian(Hs, "generator")
    assert str(raised.value) == text


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.diag([complex(np.nan, np.inf), 1.0]),
        np.diag([complex(0.0, np.inf), 1.0]),
        np.array([[np.inf, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]),
    ],
    ids=["off-diagonal-inf", "nan-inf-diagonal", "imaginary-inf-diagonal", "d3-inf-diagonal"],
)
def test_a_non_finite_matrix_is_never_hermitian(M):
    # an infinite entry makes the scale infinite too, so the relative
    # bound alone passes an infinite deviation; the suite turns any numpy
    # warning from the test or from its message into an error
    assert not is_hermitian(M)
    stack = np.stack([np.eye(len(M)), M, M])
    assert is_hermitian(stack).tolist() == [True, False, False]
    with pytest.raises(NotHermitianError, match=r"generator 1 .*\(deviation nan\)$"):
        require_hermitian(stack, "generator")
