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
from dataclasses import dataclass

from .errors import NotHermitianError

# Pauli matrices and the 2x2 identity, used all over the qubit fixtures.
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ident2 = np.eye(2, dtype=complex)

HERMITICITY_TOL = 1e-10
GAP_TOL = 1e-9

# amplitudes below this count as zero when picking reference components
_AMP_EPS = 1e-12


def is_hermitian(H, tol=HERMITICITY_TOL):
    """True iff max|H - H^dagger| <= tol * max|H| over the entries: the
    package's one Hermiticity test. c H passes iff H does (c > 0), a NaN
    fails, and a stack over the last two axes gives one bool per matrix."""
    H = np.asarray(H, dtype=complex)
    if H.ndim > 2 and H.shape[-2:] == (2, 2):
        # the entries of |H - H^dagger| (its (0, 1) entry equals its (1, 0)
        # one) and of |H|, maximized as four 1-d arrays: a reduction over
        # the two small trailing axes costs several times this arithmetic
        h00, h01, h10, h11 = H[..., 0, 0], H[..., 0, 1], H[..., 1, 0], H[..., 1, 1]
        asymmetry = np.maximum(
            np.maximum(np.abs(h00 - h00.conj()), np.abs(h11 - h11.conj())), np.abs(h10 - h01.conj())
        )
        scale = np.maximum(np.maximum(np.abs(h00), np.abs(h01)), np.maximum(np.abs(h10), np.abs(h11)))
        return asymmetry <= tol * scale
    ok = _asymmetry(H) <= tol * np.abs(H).max(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def _asymmetry(H):
    return np.abs(H - np.swapaxes(H, -1, -2).conj()).max(axis=(-2, -1))


def require_hermitian(H, what):
    """Raise NotHermitianError naming the first matrix of H (what, or
    "what k" in a stack) that fails is_hermitian, and its deviation."""
    H = np.asarray(H, dtype=complex)
    bad = np.flatnonzero(np.logical_not(is_hermitian(H)))
    if bad.size:
        M = H.reshape(-1, *H.shape[-2:])[bad[0]]
        name = f"{what} {bad[0]}" if H.ndim > 2 else what
        raise NotHermitianError(
            f"{name} is not Hermitian within {HERMITICITY_TOL:g} of its largest entry "
            f"(deviation {_asymmetry(M) / np.abs(M).max():.3g})"
        )


def is_unitary(U, tol=1e-8):
    """True iff ||U^dagger U - I||_F <= tol; a NaN fails it."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    return bool(np.linalg.norm(U.conj().T @ U - np.eye(d)) <= tol)


def normalize(psi):
    """Return psi / ||psi||; ValueError on a (near-)zero or non-finite norm."""
    psi = np.asarray(psi, dtype=complex)
    n = np.linalg.norm(psi)
    if not 1e-300 <= n < np.inf:
        raise ValueError(f"cannot normalize a vector of norm {n:g}")
    return psi / n


def fix_phase(v):
    """Rotate v by a global phase so its largest-magnitude component is
    real and positive. Ties go to the lowest index."""
    v = np.asarray(v, dtype=complex)
    m = np.abs(v)
    j = int(np.argmax(m > m.max() - _AMP_EPS))
    ph = v[j] / abs(v[j])
    return v / ph


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    values    -- eigenvalues, ascending
    vectors   -- orthonormal eigenvectors as columns, vectors[:, n] <-> values[n],
                 each with its largest-magnitude component real positive
    degenerate -- True unless the smallest gap exceeds GAP_TOL * ||H||_2
    min_gap   -- smallest gap between consecutive eigenvalues (inf for d = 1)
    """

    values: np.ndarray
    vectors: np.ndarray
    degenerate: bool
    min_gap: float

    @property
    def dim(self):
        return len(self.values)


def hermitian_eig(H):
    """Eigendecomposition of a Hermitian matrix with a fixed convention.

    Eigenvalues are sorted ascending; ties, closer than GAP_TOL * ||H||_2,
    are broken by descending magnitude of the first nonzero amplitude of
    the (phase-fixed) eigenvector. Each eigenvector is rotated so its
    largest-magnitude component is real positive. So the output is
    deterministic, and c H gives the frame and flag of H for every c > 0.

    Raises NotHermitianError unless is_hermitian(H). A spectrum with a
    tie is allowed here and only flagged (degenerate, also for a zero
    matrix); callers that need a simple spectrum check the flag.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    require_hermitian(H, "matrix")  # before the norm, which fails on a NaN
    gap_tol = GAP_TOL * np.linalg.norm(H, 2)
    values, vectors = np.linalg.eigh(H)
    vectors = np.column_stack([fix_phase(vectors[:, n]) for n in range(len(values))])

    # break ties (eigenvalues closer than gap_tol) by descending
    # |first nonzero amplitude|; clusters, not exact equality, because
    # eigh splits exact degeneracies by rounding noise
    def first_amp(n):
        v = np.abs(vectors[:, n])
        nz = np.nonzero(v > _AMP_EPS)[0]
        return v[nz[0]] if len(nz) else 0.0

    k = 0
    while k < len(values):
        j = k + 1
        while j < len(values) and values[j] - values[j - 1] < gap_tol:
            j += 1
        if j - k > 1:
            sub = sorted(range(k, j), key=lambda n: -first_amp(n))
            values[k:j] = values[sub]
            vectors[:, k:j] = vectors[:, sub]
        k = j

    min_gap = float(np.min(np.diff(values))) if len(values) > 1 else np.inf
    return EigenDecomposition(values, vectors, not min_gap > gap_tol, min_gap)


def expm_skew(H, s):
    """exp(-i s H) for Hermitian H, via the eigendecomposition of H.

    The result is unitary to machine precision by construction. H must
    pass is_hermitian (NotHermitianError otherwise).
    """
    H = np.asarray(H, dtype=complex)
    require_hermitian(H, "generator")
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * s * w)) @ V.conj().T


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


def matmul_stack(A, B):
    """A @ B over stacks of square matrices. At d = 2 the product is
    written out, which rounds like BLAS to about 1e-16 relative but does
    not call it once per matrix; other d use @."""
    if A.shape[-2:] != (2, 2) or B.shape[-2:] != (2, 2):
        return A @ B
    return A[..., :, 0, None] * B[..., None, 0, :] + A[..., :, 1, None] * B[..., None, 1, :]


def operator_norm(A):
    """Largest singular value of A, computed as sqrt(max eig(A^dagger A))."""
    A = np.asarray(A, dtype=complex)
    ev = np.linalg.eigvalsh(A.conj().T @ A)
    return float(np.sqrt(max(ev[-1], 0.0)))
