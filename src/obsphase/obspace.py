"""The observable space: complete orthonormal decompositions, the gauge
group of a reference decomposition, fiber membership, the distance
between decompositions, and the Bloch chart for qubits.

A decomposition is stored as an orthonormal frame (matrix of column
vectors), but its identity is the unordered set of rank-1 projectors:
ordering and per-vector phases never matter for equality.
"""

import numpy as np
from dataclasses import dataclass
from itertools import permutations

import scipy  # scipy.optimize loads on first use, not at import

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotGaugeError,
    NotUnitaryError,
)
from .linalg import GAP_TOL, hermitian_eig, is_unitary, sigma_x, sigma_y, sigma_z

TWO_PI = 2 * np.pi


@dataclass(frozen=True)
class OrthDecomposition:
    """A point of the observable space: d orthonormal rank-1 projectors.

    vectors holds the frame as columns; vectors[:, n] is the n-th ket.
    """

    vectors: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=complex)
        if V.ndim != 2 or V.shape[0] != V.shape[1]:
            raise DimensionMismatchError(f"frame must be square, got {V.shape}")
        if not is_unitary(V, 1e-10):
            raise ValueError("frame is not orthonormal within 1e-10")
        object.__setattr__(self, "vectors", V)

    @property
    def dim(self):
        return self.vectors.shape[0]

    def projector(self, n):
        v = self.vectors[:, n]
        return np.outer(v, v.conj())


def wrap_angle(x):
    """Map angles to the principal branch [0, 2pi).

    x % 2pi rounds up to 2pi itself for x in about (-4.4e-16, 0); such
    an angle is 0.
    """
    w = np.asarray(x) % TWO_PI
    return np.where(w == TWO_PI, 0.0, w)[()]  # [()]: a scalar for a scalar


def from_observable(X):
    """Eigenframe of a non-degenerate Hermitian observable.

    The frame inherits the eigensolver's ordering and phase conventions,
    so the same observable always yields the same frame. X must pass
    is_hermitian, and an eigen-gap at most GAP_TOL * ||X||_2 is
    degenerate: c X gives the frame of X for every c > 0, and a zero or
    identity observable is rejected.
    """
    rel_tol = GAP_TOL * np.linalg.norm(X, 2)
    dec = hermitian_eig(X, gap_tol=rel_tol)
    if dec.min_gap <= rel_tol:
        raise DegenerateSpectrumError(
            f"observable has eigen-gap {dec.min_gap:.3e}, not above "
            f"{GAP_TOL:g} times its norm"
        )
    return OrthDecomposition(vectors=dec.vectors)


def match_columns(M, tol):
    """Column-to-row assignment of a near gauge-diagonal unitary overlap.

    For each column n picks the row with the largest magnitude. Returns
    (perm, amps, ok) where ok means every amplitude >= 1 - tol and the
    assignment is injective.
    """
    M = np.asarray(M)
    perm = np.argmax(np.abs(M), axis=0)
    amps = np.abs(M[perm, np.arange(M.shape[1])])
    ok = bool(len(set(perm.tolist())) == M.shape[1] and np.all(amps >= 1 - tol))
    return perm, amps, ok


def decompositions_equal(a: OrthDecomposition, b: OrthDecomposition, tol=1e-8):
    """Projector-set equality: same unordered projectors within tol."""
    if a.dim != b.dim:
        return False
    perm, amps, ok = match_columns(b.vectors.conj().T @ a.vectors, tol)
    return ok


@dataclass(frozen=True)
class GaugeElement:
    """An element of the gauge group of a reference frame: a permutation
    combined with per-level phases,

        as_unitary() = sum_n e^{i theta_n} |e_{perm(n)}><e_n|

    written here in the computational basis; conjugate with in_frame for
    any other reference frame.
    """

    perm: tuple
    phases: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm} is not a permutation")
        if len(self.phases) != len(self.perm):
            raise ValueError("need one phase per level")
        object.__setattr__(
            self, "phases", tuple(wrap_angle(np.array(self.phases, float)).tolist())
        )

    @property
    def dim(self):
        return len(self.perm)

    def as_unitary(self):
        U = np.zeros((self.dim, self.dim), dtype=complex)
        for n in range(self.dim):
            U[self.perm[n], n] = np.exp(1j * self.phases[n])
        return U

    def in_frame(self, frame: OrthDecomposition):
        F = frame.vectors
        return F @ self.as_unitary() @ F.conj().T

    def compose(self, other):
        """Group product: as_unitary(self.compose(g)) = self U g U."""
        perm = tuple(self.perm[other.perm[n]] for n in range(self.dim))
        phases = tuple(
            other.phases[n] + self.phases[other.perm[n]] for n in range(self.dim)
        )
        return GaugeElement(perm=perm, phases=phases)

    def inverse(self):
        inv = [0] * self.dim
        for n in range(self.dim):
            inv[self.perm[n]] = n
        return GaugeElement(
            perm=tuple(inv), phases=tuple(-self.phases[inv[n]] for n in range(self.dim))
        )

    @staticmethod
    def identity(dim):
        return GaugeElement(perm=tuple(range(dim)), phases=(0.0,) * dim)


def gauge_from_unitary(U, tol=1e-8):
    """Recognize a gauge unitary (permutation times phases) or raise NotGauge."""
    U = np.asarray(U, dtype=complex)
    if not is_unitary(U):
        raise NotUnitaryError("gauge candidates must be unitary")
    perm, amps, ok = match_columns(U, tol)
    if not ok:
        raise NotGaugeError(
            f"matrix is not within {tol:g} of a permutation-phase unitary "
            f"(worst alignment {amps.min():.3e})"
        )
    phases = tuple(np.angle(U[perm, np.arange(len(perm))]).tolist())
    return GaugeElement(perm=tuple(int(p) for p in perm), phases=phases)


def random_gauge(rng, dim):
    perm = tuple(int(p) for p in rng.permutation(dim))
    phases = tuple(rng.uniform(0.0, TWO_PI, size=dim))
    return GaugeElement(perm=perm, phases=phases)


def fiber_contains(U, O: OrthDecomposition, O0: OrthDecomposition, tol=1e-8):
    """Whether U maps the reference frame O0 onto the decomposition O.

    True iff each U|e_n> lies, up to phase, on a distinct frame vector
    of O: this is membership in the fiber over O with reference O0.
    """
    U = np.asarray(U, dtype=complex)
    if not is_unitary(U):
        raise NotUnitaryError("fiber candidates must be unitary")
    M = O.vectors.conj().T @ U @ O0.vectors
    _, _, ok = match_columns(M, tol)
    return ok


# -- distance on the observable space ---------------------------------------

# coarse-grid resolution per phase angle; full grids beyond d = 3 are
# unaffordable, so the refinement does the heavy lifting there
_GRID_POINTS = {2: 64, 3: 16}


def _eig_objective(A, thetas):
    # ||I - U|| for unitary U equals max_j |1 - lambda_j(U)|, and the
    # spectrum of U = P' D P^dag equals that of A D with A = P^dag P'
    lam = np.linalg.eigvals(A * np.exp(1j * np.asarray(thetas))[None, :])
    return float(np.max(np.abs(1.0 - lam)))


def _refine(A, start):
    res = scipy.optimize.minimize(
        lambda th: _eig_objective(A, th),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000},
    )
    return float(res.fun)


def _min_over_phases(A, grid_points, bound):
    # the phase-aligned point puts |A_nn| on the diagonal of U; where its
    # value meets the pairing's lower bound it is the minimum (always at
    # d = 2, and for a gauge copy at any d), and nothing is searched
    aligned = -np.angle(np.diag(A))
    at_aligned = _eig_objective(A, aligned)
    if at_aligned <= bound + 1e-12:
        return at_aligned
    d = A.shape[0]
    angles = np.arange(grid_points) * TWO_PI / grid_points
    mesh = np.meshgrid(*([angles] * d), indexing="ij")
    thetas = np.stack([m.ravel() for m in mesh], axis=-1)
    stack = A[None, :, :] * np.exp(1j * thetas)[:, None, :]
    lam = np.linalg.eigvals(stack)
    vals = np.max(np.abs(1.0 - lam), axis=1)
    best = int(np.argmin(vals))
    out = min(float(vals[best]), _refine(A, thetas[best]))
    # refining the aligned point as well can only lower what the grid
    # start reached
    if at_aligned < out:
        out = min(out, _refine(A, aligned))
    return out


def distance_DW(O: OrthDecomposition, O2: OrthDecomposition):
    """Distance between decompositions: the minimum of ||I - U|| over all
    unitaries U carrying the frame of O onto the frame of O2, i.e. over
    every pairing of levels and every choice of per-level phases.

    Pairing sigma is bounded below by max_n sqrt(2 - 2 |A_{n, sigma(n)}|),
    A the overlap matrix, since ||(I - U) e_n||^2 = 2 - 2 Re U_nn. The
    pairings are visited in ascending bound, and the search stops at the
    first whose bound is at or above the best value found: no pairing
    skipped could return less. Each pairing first tries the
    phase-aligned point; if its value is within 1e-12 of the bound it
    is the pairing's minimum. That holds at d = 2 and for a permuted and
    rephased copy at any d, so both are exact to 1e-12. Otherwise the
    pairing is refined by Nelder-Mead from the minimum of a coarse phase
    grid, and again from the phase-aligned point when that lies below
    the first result. For d >= 3 the refinement can stall on the kinked
    objective, so on generic pairs the result is an upper bound that may
    sit above the minimum; for d > 4 only the max-overlap pairing is
    searched.
    """
    if O.dim != O2.dim:
        raise DimensionMismatchError("decompositions live in different dimensions")
    d = O.dim
    # the minimum is symmetric in the arguments (U <-> U^dag preserves
    # singular values of I - U); order the pair so both call orders run
    # the identical computation and return identical floats
    ka, kb = np.round(O.vectors, 10).tobytes(), np.round(O2.vectors, 10).tobytes()
    if kb < ka:
        O, O2 = O2, O
    A = O.vectors.conj().T @ O2.vectors
    if d <= 4:
        perms = permutations(range(d))
    else:
        p, _, _ = match_columns(A, tol=2.0)
        perms = [tuple(int(x) for x in np.argsort(p))]
    overlaps = np.abs(A)
    # 2 - 2|A_nm| = 2 r_nm / (1 + |A_nm|), with r_nm = 1 - |A_nm|^2 summed
    # over the rest of row n: no subtraction, so the bound keeps its
    # digits when |A_nm| rounds to 1
    rest = overlaps**2 @ (1 - np.eye(d))
    pair_bounds = np.sqrt(2 * rest / (1 + overlaps))
    bounded = sorted((float(pair_bounds[range(d), sigma].max()), sigma) for sigma in perms)
    grid_points = _GRID_POINTS.get(d, 8)
    best = np.inf
    for bound, sigma in bounded:
        if bound >= best:
            break
        best = min(best, _min_over_phases(A[:, list(sigma)], grid_points, bound))
    return best


def bloch_chart(O: OrthDecomposition):
    """Bloch-sphere chart of a qubit decomposition.

    Returns the axis n with |+n><+n|, |-n><-n| the two projectors, as
    the representative with n_z >= 0 (ties: n_x >= 0, then n_y >= 0),
    realizing the quotient of the sphere by the antipodal map.
    """
    if O.dim != 2:
        raise DimensionMismatchError("the Bloch chart needs dim 2")
    P = O.projector(0)
    n = np.array(
        [np.real(np.trace(sigma_x @ P)), np.real(np.trace(sigma_y @ P)),
         np.real(np.trace(sigma_z @ P))]
    )
    eps = 1e-12
    if n[2] < -eps or (abs(n[2]) <= eps and (n[0] < -eps or (abs(n[0]) <= eps and n[1] < 0))):
        n = -n
    return n
