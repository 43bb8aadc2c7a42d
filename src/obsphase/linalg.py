"""Dense complex linear algebra for small Hilbert spaces.

Everything in this package works with plain numpy arrays: operators are
(d, d) complex matrices, state vectors ("kets") are length-d complex
vectors. Dimensions stay small (d <= 16), so dense eigendecompositions
are used throughout.
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


def is_hermitian(H, tol=1e-12):
    """True iff ||H - H^dagger||_F <= tol."""
    H = np.asarray(H, dtype=complex)
    return bool(np.linalg.norm(H - H.conj().T) <= tol)


def is_unitary(U, tol=1e-10):
    """True iff ||U^dagger U - I||_F <= tol."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    return bool(np.linalg.norm(U.conj().T @ U - np.eye(d)) <= tol)


def normalize(psi):
    """Return psi / ||psi||. Raises ValueError on (near-)zero input."""
    psi = np.asarray(psi, dtype=complex)
    n = np.linalg.norm(psi)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
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
    degenerate -- True when the smallest spectral gap is below gap_tol
    min_gap   -- smallest gap between consecutive eigenvalues (inf for d = 1)
    """

    values: np.ndarray
    vectors: np.ndarray
    degenerate: bool
    min_gap: float

    @property
    def dim(self):
        return len(self.values)


def hermitian_eig(H, tol=HERMITICITY_TOL, gap_tol=GAP_TOL):
    """Eigendecomposition of a Hermitian matrix with a fixed convention.

    Eigenvalues are sorted ascending; exact ties are broken by descending
    magnitude of the first nonzero amplitude of the (phase-fixed)
    eigenvector. Each eigenvector is rotated so its largest-magnitude
    component is real positive, which makes the output deterministic.

    Raises NotHermitianError if ||H - H^dagger||_F > tol. A spectrum whose
    smallest gap falls below gap_tol is allowed here and only flagged;
    callers that need a simple spectrum check the flag.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not is_hermitian(H, tol):
        raise NotHermitianError(
            f"matrix is not Hermitian within {tol:g} "
            f"(deviation {np.linalg.norm(H - H.conj().T):.3e})"
        )
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
    return EigenDecomposition(values, vectors, bool(min_gap < gap_tol), min_gap)


def expm_skew(H, s, tol=HERMITICITY_TOL):
    """exp(-i s H) for Hermitian H, via the eigendecomposition of H.

    The result is unitary to machine precision by construction.
    """
    H = np.asarray(H, dtype=complex)
    if not is_hermitian(H, tol):
        raise NotHermitianError("expm_skew needs a Hermitian generator")
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * s * w)) @ V.conj().T


def expm_skew_many(Hs, s, tol=HERMITICITY_TOL):
    """exp(-i s H_k) for a stack of Hermitian matrices, batched."""
    Hs = np.asarray(Hs, dtype=complex)
    dev = np.linalg.norm(Hs - np.conj(np.swapaxes(Hs, -1, -2)), axis=(-2, -1))
    if not np.all(dev <= tol):  # a NaN deviation fails the test too
        raise NotHermitianError(
            f"batch contains a non-Hermitian generator (worst deviation {dev.max():.3e})"
        )
    w, V = np.linalg.eigh(Hs)
    phase = np.exp(-1j * s * w)
    return np.einsum("kij,kj,klj->kil", V, phase, V.conj())


def operator_norm(A):
    """Largest singular value of A, computed as sqrt(max eig(A^dagger A))."""
    A = np.asarray(A, dtype=complex)
    ev = np.linalg.eigvalsh(A.conj().T @ A)
    return float(np.sqrt(max(ev[-1], 0.0)))
