"""The observable space: complete orthonormal decompositions, the gauge
group of a reference decomposition, fiber membership and the distance
between decompositions.

A decomposition is stored as an orthonormal frame (matrix of column
vectors), but its identity is the unordered set of rank-1 projectors:
ordering and per-vector phases never matter for equality.
"""

import math

import numpy as np
from dataclasses import dataclass
from itertools import permutations

# unused here: benchmark/tracing.py wraps obspace.scipy.optimize.minimize,
# and the tests install that tracer
import scipy

from .errors import DegenerateSpectrumError, DimensionMismatchError, NotUnitaryError
from .linalg import is_unitary, require_hermitian

TWO_PI = 2 * np.pi
GAP_TOL = 1e-9

# amplitudes within this of the largest count as tied for the phase reference
_AMP_EPS = 1e-12


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


def wrap_angle(x):
    """Map angles to the principal branch [0, 2pi).

    x % 2pi rounds up to 2pi itself for x in about (-4.4e-16, 0); such
    an angle is 0.
    """
    w = np.asarray(x) % TWO_PI
    return np.where(w == TWO_PI, 0.0, w)[()]  # [()]: a scalar for a scalar


def from_observable(X):
    """Eigenframe of a non-degenerate Hermitian observable.

    The kets are eigh's eigenvectors in ascending order of eigenvalue,
    each rotated so that its largest-magnitude component (ties: the
    lowest index) is real positive, so the same observable always yields
    the same frame. X must be square and pass is_hermitian
    (NotHermitianError). Every eigen-gap must exceed GAP_TOL * ||X||_2
    (DegenerateSpectrumError): c X gives the frame of X for every c > 0,
    and a zero or identity observable is rejected.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    require_hermitian(X, "matrix")  # first: a NaN would fail the gap test as degenerate
    values, vectors = np.linalg.eigh(X)
    kets = []
    for v in vectors.T:
        # one scalar phase per column: a vectorized division rounds some
        # frames differently in the last bit
        m = np.abs(v)
        j = int(np.argmax(m > m.max() - _AMP_EPS))
        kets.append(v / (v[j] / abs(v[j])))
    gap = float(np.min(np.diff(values))) if len(values) > 1 else np.inf
    if not gap > GAP_TOL * np.abs(values).max():  # ||X||_2 of a Hermitian X
        raise DegenerateSpectrumError(
            f"observable has eigen-gap {gap:.3e}, not above {GAP_TOL:g} times its norm"
        )
    return OrthDecomposition(vectors=np.column_stack(kets))


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


def fiber_contains(U, O: OrthDecomposition, O0: OrthDecomposition):
    """Whether U maps the reference frame O0 onto the decomposition O.

    True iff each U|e_n> lies, up to phase, on a distinct frame vector
    of O, with overlap amplitude at least 1 - 1e-8: this is membership
    in the fiber over O with reference O0.
    """
    U = np.asarray(U, dtype=complex)
    if not is_unitary(U):
        raise NotUnitaryError("fiber candidates must be unitary")
    M = O.vectors.conj().T @ U @ O0.vectors
    _, _, ok = match_columns(M, 1e-8)
    return ok


# -- distance on the observable space ---------------------------------------

def _eig_objective(A, thetas):
    # ||I - U|| for unitary U equals max_j |1 - lambda_j(U)|, and the
    # spectrum of U = P' D P^dag equals that of A D with A = P^dag P'.
    # The global phase turns the spectrum rigidly and is best where it
    # centres on 1 the smallest arc holding it, so the value is
    # 2 sin(w / 4) with w that arc's width, from LAPACK's eigenvalues.
    # thetas holds the d - 1 relative phases (theta_0 = 0) over its last
    # axis, for a stack of points or a single one
    thetas = np.asarray(thetas, dtype=float)
    full = np.concatenate([np.zeros(thetas.shape[:-1] + (1,)), thetas], axis=-1)
    # w is 2 pi less the widest gap between neighbouring eigen-angles, or
    # max - min when that gap spans -pi (taken so, a narrow arc around 1
    # keeps its digits)
    phi = np.sort(np.angle(np.linalg.eigvals(A * np.exp(1j * full)[..., None, :])), axis=-1)
    inner = (phi[..., 1:] - phi[..., :-1]).max(axis=-1)
    return 2 * np.sin(np.minimum(phi[..., -1] - phi[..., 0], TWO_PI - inner) / 4)


def _objective_at(A, rel):
    # _eig_objective at one point, as a float
    return float(_eig_objective(A, rel))


# the refine's descent takes at most this many steps: it ends within 90 on
# perf/distance_drift.py's d <= 8 pairs; a kink stall (d >= 14) runs to it
_REFINE_STEPS = 200


def _arc_width(A, rel):
    # the arc width w that _objective_at reads, from one eig, and its
    # gradient in the relative phases: with the widest gap running from
    # phi_a up to phi_b, w = phi_a - phi_b (mod 2 pi), and each eigen-angle
    # of the unitary A D(theta) moves as d phi_j / d theta_n = |V_nj|^2,
    # V its unit eigenvectors
    full = np.zeros(len(A))
    full[1:] = rel
    lam, V = np.linalg.eig(A * np.exp(1j * full))
    phi = np.arctan2(lam.imag, lam.real)
    order = np.argsort(phi)
    p = phi[order]
    gaps = p[1:] - p[:-1]
    k = int(np.argmax(gaps))
    if p[-1] - p[0] <= TWO_PI - gaps[k]:
        w, a, b = p[-1] - p[0], order[-1], order[0]
    else:
        w, a, b = TWO_PI - gaps[k], order[k], order[k + 1]
    weights = V.real**2 + V.imag**2
    return w, weights[1:, a] - weights[1:, b]


def _refine(A, start):
    # BFGS descent of the arc width (Nocedal & Wright, Numerical
    # Optimization, 2006, ch. 6) with Armijo backtracking, from start,
    # which holds all d phases (only their differences from the first
    # count). A step tries lengths t only while -t (g . p) exceeds half an
    # ulp of max(w, 1) (eig reads a unitary's eigen-angles no finer), and
    # one that finds no t, as for g = 0, an ascent or a NaN slope, ends the
    # descent. It returns 2 sin(w / 4) with the w its last accepted step's
    # eig gave (bitwise equal to eigvals' on the 1200 unitaries tried;
    # another LAPACK build may move the last bit)
    start = np.asarray(start, dtype=float)
    x = start[1:] - start[0]
    w, g = _arc_width(A, x)
    H = None
    for _ in range(_REFINE_STEPS):
        p = -g if H is None else -H @ g
        slope = g @ p
        t = 1.0
        while -t * slope > max(w, 1.0) * 2**-53:
            w1, g1 = _arc_width(A, x + t * p)
            if w1 <= w + 1e-4 * t * slope:
                break
            t /= 2
        else:
            break
        s, y = t * p, g1 - g
        sy = s @ y
        if sy > 0:
            if H is None:  # the first inverse-Hessian guess, scaled as in (6.20)
                H = np.eye(len(x)) * (sy / (y @ y))
            Hy = H @ y
            H += ((sy + y @ Hy) * np.outer(s, s) / sy - np.outer(Hy, s) - np.outer(s, Hy)) / sy
        x, w, g = x + s, w1, g1
    return float(2 * np.sin(w / 4))


def _min_over_phases(A, bound):
    # the phase-aligned point puts |A_nn| on the diagonal of U; where its
    # value meets the pairing's lower bound it is the minimum (for a gauge
    # copy at any d), and nothing is searched; otherwise the descent starts
    # there, and the result is never above it
    aligned = -np.angle(np.diag(A))
    at_aligned = _objective_at(A, aligned[1:] - aligned[0])
    if at_aligned <= bound + 1e-12:
        return at_aligned
    return min(at_aligned, _refine(A, aligned))


def _greedy_pairing(overlaps):
    # the largest remaining overlap pairs its row and column, until every
    # row is used: always a permutation, sigma[n] the column of row n
    free = overlaps.copy()
    sigma = [0] * len(free)
    for _ in sigma:
        n, m = np.unravel_index(np.argmax(free), free.shape)
        sigma[n] = int(m)
        free[n, :] = free[:, m] = -1.0
    return tuple(sigma)


def distance_DW(O: OrthDecomposition, O2: OrthDecomposition):
    """Distance between decompositions: the minimum of ||I - U|| over all
    unitaries U carrying the frame of O onto the frame of O2, i.e. over
    every pairing of levels and every choice of per-level phases.

    Pairing sigma is bounded below by max_n sqrt(2 - 2 |A_{n, sigma(n)}|),
    A the overlap matrix, since ||(I - U) e_n||^2 = 2 - 2 Re U_nn. At
    d = 2 the bound is attained: with the phases that make the diagonal
    of U real positive, its eigenvalues are |A_00| +- i |A_01|. So there
    the distance is the smaller of the two pairings' bounds, taken in
    closed form from |A| with no eigen-solve and no search; at d = 1 the
    distance is 0. For d >= 3 the pairings are visited in ascending
    bound, and the search stops at the first whose bound is at or above
    the best value found: no pairing skipped could return less. For
    d > 4 one pairing is searched, chosen greedily: the largest remaining
    |A_nm| pairs row n with column m, until every row is used.

    Within a pairing only the d - 1 relative phases are searched. The
    global phase turns the spectrum of U rigidly, and the best one
    centres on 1 the smallest arc of the unit circle that holds it, so
    for fixed relative phases ||I - U|| = 2 sin(w / 4), w that arc's
    width. Each pairing first tries the phase-aligned point; if its value
    is within 1e-12 of the bound it is the pairing's minimum. That holds
    for a permuted and rephased copy at any d, so such a copy is exact to
    1e-12. Otherwise the descent starts from that point, one start rule
    for every d >= 3, and the pairing returns the smaller of the refined
    and the aligned value, so no pairing returns more than its aligned
    value. The refine is a BFGS descent of w with Armijo backtracking.
    Each step takes w and its gradient from one eigen-solve, since an
    eigen-angle of U moves with the relative phase theta_n at the rate
    |V_nj|^2, V the unit eigenvectors. It ends at the first step with no
    Armijo-accepted length whose predicted decrease exceeds half an ulp
    of max(w, 1), the finest w the eigen-angles resolve, or after 200
    steps, and returns 2 sin(w / 4) with the w its last accepted step
    read, so it solves no point twice: every value at d >= 3 comes from
    LAPACK's eigenvalues, and no call loads scipy.optimize. Where
    eigen-angles tie at an end of the arc, w has a kink and the descent
    can stall there, short of a local minimum: from d = 14 on it does so
    on the pairs measured.

    For d >= 3 the result is an upper bound in principle, since the
    descent is local. Against fixed stopping thresholds (1e-12 on the
    gradient, 1e-13 on the step) this stop moved no value by more than
    2.8e-15 on the 851 pairs of perf/distance_drift.py (d = 3 to 16),
    3e-14 on 1982 Haar pairs at d = 3 to 10 and 1.1e-14 on 1080 near,
    permuted near, real orthogonal and Fourier-turned pairs at d = 3 to
    5. Of 672 gauge copies turned by exp(-i eps H), |H| = 1, eps = 1e-12
    to 1e-1, d = 3 to 9, none returns more than ||I - exp(-i eps H)||.
    """
    if O.dim != O2.dim:
        raise DimensionMismatchError("decompositions live in different dimensions")
    d = O.dim
    # the minimum is symmetric in the arguments (U <-> U^dag preserves
    # singular values of I - U); order the pair so both call orders run
    # the identical computation and return identical floats. The key is
    # np.round(vectors, 10).tobytes(), taken on the float view: the real
    # and imaginary parts round alone, to the same bytes, at a third of
    # the cost. Frames that round alike are ordered by their exact bytes
    ka, kb = (np.ascontiguousarray(F.vectors).view(float).round(10).tobytes() for F in (O, O2))
    if (kb, O2.vectors.tobytes()) < (ka, O.vectors.tobytes()):
        O, O2 = O2, O
    A = O.vectors.conj().T @ O2.vectors
    if d == 1:  # one level: the phase that matches it makes U = I
        return 0.0
    if d == 2:
        # each pairing's bound is its minimum, so the smaller one is the
        # value; 2 - 2|A_nm| is written as pair_bounds below writes it
        (a, b), (c, e) = np.abs(A).tolist()

        def bound(m, r):  # sqrt(2 - 2 m) for overlap m, r the rest of its row
            return math.sqrt(2 * r / (1 + m))

        kept = max(bound(a, b * b), bound(e, c * c))
        swapped = max(bound(b, a * a), bound(c, e * e))
        return min(kept, swapped)
    overlaps = np.abs(A)
    sigmas = np.array(list(permutations(range(d))) if d <= 4 else [_greedy_pairing(overlaps)])
    # 2 - 2|A_nm| = 2 r_nm / (1 + |A_nm|), with r_nm = 1 - |A_nm|^2 summed
    # over the rest of row n: no subtraction, so the bound keeps its
    # digits when |A_nm| rounds to 1
    rest = overlaps**2 @ (1 - np.eye(d))
    pair_bounds = np.sqrt(2 * rest / (1 + overlaps))
    bounds = pair_bounds[np.arange(d), sigmas].max(axis=1).tolist()
    best = np.inf
    # ascending bound, ties in the order permutations() yields
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] >= best:
            break
        best = min(best, _min_over_phases(A[:, sigmas[k]], bounds[k]))
    return best
