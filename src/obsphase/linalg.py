"""Dense complex linear algebra for small Hilbert spaces.

Everything in this package works with plain numpy arrays: operators are
(d, d) complex matrices, state vectors ("kets") are length-d complex
vectors. Dimensions stay small (d <= 16), so dense eigendecompositions
are used, except on stacks of qubit (2 x 2) matrices: there the step
exponentials have a closed form and the products are written out entry
by entry, since numpy would call LAPACK or BLAS once per 2 x 2 matrix.
The Hermiticity test of such a stack also reads it entry by entry, as
four 1-d arrays: a reduction over two trailing axes of length 2 costs
several times the arithmetic it reduces. The verdicts are the same bits
as those of the generic rule, one matrix at a time.
"""

import numpy as np

from .errors import NotHermitianError

# Pauli matrices, used all over the qubit fixtures.
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITICITY_TOL = 1e-10


def is_hermitian(H, tol=HERMITICITY_TOL):
    """True iff H is finite and max|H - H^dagger| <= tol * max|H| over
    the entries: the package's one Hermiticity test. c H passes iff H
    does (c > 0), a NaN or an infinity fails, and a stack over the last
    two axes gives one bool per matrix. Where H - H^dagger meets
    inf - inf the deviation is NaN, which fails without a numpy
    warning."""
    H = np.asarray(H, dtype=complex)
    if H.ndim > 2 and H.shape[-2:] == (2, 2):
        # the entries of |H - H^dagger| (its (0, 1) entry equals its (1, 0)
        # one) and of |H|, maximized as four 1-d arrays: a reduction over
        # the two small trailing axes costs several times this arithmetic
        h00, h01, h10, h11 = H[..., 0, 0], H[..., 0, 1], H[..., 1, 0], H[..., 1, 1]
        with np.errstate(invalid="ignore"):
            asymmetry = np.maximum(
                np.maximum(np.abs(h00 - h00.conj()), np.abs(h11 - h11.conj())), np.abs(h10 - h01.conj())
            )
        scale = np.maximum(np.maximum(np.abs(h00), np.abs(h01)), np.maximum(np.abs(h10), np.abs(h11)))
        return _within(asymmetry, tol, scale)
    ok = _within(_asymmetry(H), tol, np.abs(H).max(axis=(-2, -1)))
    return bool(ok) if ok.ndim == 0 else ok


def _within(asymmetry, tol, scale):
    # an infinite entry makes the scale infinite, which no bound relative
    # to it can catch
    return (asymmetry <= tol * scale) & (scale < np.inf)


def _asymmetry(H):
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN, which fails every comparison
        return np.abs(H - np.swapaxes(H, -1, -2).conj()).max(axis=(-2, -1))


def require_hermitian(H, what):
    """Raise NotHermitianError naming the first matrix of H (what, or
    "what k" in a stack) that fails is_hermitian, and its deviation."""
    H = np.asarray(H, dtype=complex)
    bad = np.flatnonzero(np.logical_not(is_hermitian(H)))
    if bad.size:
        M = H.reshape(-1, *H.shape[-2:])[bad[0]]
        name = f"{what} {bad[0]}" if H.ndim > 2 else what
        with np.errstate(invalid="ignore"):  # inf / inf reads as a NaN deviation
            deviation = _asymmetry(M) / np.abs(M).max()
        raise NotHermitianError(
            f"{name} is not Hermitian within {HERMITICITY_TOL:g} of its largest entry "
            f"(deviation {deviation:.3g})"
        )


def is_unitary(U, tol=1e-8):
    """True iff ||U^dagger U - I||_F <= tol; a NaN fails it."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    return bool(np.linalg.norm(U.conj().T @ U - np.eye(d)) <= tol)


def expm_skew_many(Hs, s):
    """exp(-i s H_k), batched, for a stack that passes is_hermitian.

    At d = 2 it is the closed form

        exp(-i s H) = e^{-i s a0} (cos(s r) I - i s sinc(s r) (H - a0 I)),

    a0 = (H_00 + H_11)/2, r = hypot((H_00 - H_11)/2, |H_10|), which reads
    H as eigh does (the real diagonal and the lower triangle) and stays
    finite for r = 0 and for any scale of H with s H of order one. Other
    d go through the eigendecomposition of H.
    """
    Hs = np.asarray(Hs, dtype=complex)
    require_hermitian(Hs, "generator")
    if Hs.shape[-1] != 2:
        w, V = np.linalg.eigh(Hs)
        phase = np.exp(-1j * s * w)
        return np.einsum("kij,kj,klj->kil", V, phase, V.conj())
    h00, h11, h10 = Hs[..., 0, 0].real, Hs[..., 1, 1].real, Hs[..., 1, 0]
    a0, z = (h00 + h11) / 2, (h00 - h11) / 2
    r = np.hypot(z, np.abs(h10))
    phase = np.exp(-1j * s * a0)
    c = np.cos(s * r) * phase
    k = -1j * s * np.sinc(s * r / np.pi) * phase  # -i sin(s r)/r, finite at r = 0
    U = np.empty(Hs.shape, dtype=complex)
    U[..., 0, 0] = c + k * z
    U[..., 1, 1] = c - k * z
    U[..., 1, 0] = k * h10
    U[..., 0, 1] = k * h10.conj()
    return U


def frame_pairs(f):
    """The (d^2, m) matrix of conj(f_in) f_jn, row i d + j, for kets f
    (d, m) as columns: what frame_diagonals reads them through."""
    d = f.shape[0]
    return (f.conj()[:, None, :] * f[None, :, :]).reshape(d * d, -1)


def frame_diagonals(Ms, pairs):
    """<f_n|M_k|f_n> for a stack Ms (N, d, d) and pairs = frame_pairs(f),
    shape (N, m): sum_ij M_k,ij conj(f_in) f_jn, as one (N, d^2) @
    (d^2, m) product."""
    return Ms.reshape(-1, pairs.shape[0]) @ pairs


def matmul_stack(A, B):
    """A @ B over stacks of square matrices. At d = 2 the product is
    written out, which rounds like BLAS to about 1e-16 relative but does
    not call it once per matrix; other d use @."""
    if A.shape[-2:] != (2, 2) or B.shape[-2:] != (2, 2):
        return A @ B
    return A[..., :, 0, None] * B[..., None, 0, :] + A[..., :, 1, None] * B[..., None, 1, :]
