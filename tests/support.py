"""Helpers that only the tests call: closed-form propagators, a few
schedules, seeded Haar frames and gauge elements, the paper's objects
that the pipeline never evaluates (the canonical connection, the
Heisenberg evolution, projector-set equality, the Bloch chart, the
projectors of a frame, the group product and inverse of gauge elements,
the gauge element a unitary is and whether two gates commute), and the
second routes the package's one route to a number is held to: the
single-matrix exponential by eigh (expm_skew), the dynamical integral by
Simpson's rule on freshly sampled h (dynamical_phase without an
integral) and the invariance gap by a search over every pairing
(multiset_gap). Not collected: the name has no test_ prefix.
"""

import itertools

import numpy as np

import obsphase.phases as phases
from obsphase.errors import (
    DimensionMismatchError,
    NotGaugeError,
    NotUnitaryError,
    ScheduleDomainError,
)
from obsphase.gates import GateSpec, u_phi_beta
from obsphase.hamiltonians import UNBOUNDED, HamiltonianSchedule
from obsphase.linalg import (
    expm_skew_many,
    is_unitary,
    matmul_stack,
    require_hermitian,
    sigma_x,
    sigma_y,
    sigma_z,
)
from obsphase.obspace import TWO_PI, GaugeElement, OrthDecomposition, match_columns
from obsphase.propagation import Propagator


ident2 = np.eye(2, dtype=complex)


# -- members the pipeline never calls ------------------------------------------


def projector(O: OrthDecomposition, n):
    """|f_n><f_n| for the n-th ket of a frame."""
    v = O.vectors[:, n]
    return np.outer(v, v.conj())


def compose(g: GaugeElement, other: GaugeElement):
    """Group product: as_unitary(compose(g, h)) = g U h U."""
    perm = tuple(g.perm[other.perm[n]] for n in range(g.dim))
    phases = tuple(other.phases[n] + g.phases[other.perm[n]] for n in range(g.dim))
    return GaugeElement(perm=perm, phases=phases)


def inverse(g: GaugeElement):
    inv = [0] * g.dim
    for n in range(g.dim):
        inv[g.perm[n]] = n
    return GaugeElement(perm=tuple(inv), phases=tuple(-g.phases[inv[n]] for n in range(g.dim)))


def gauge_from_unitary(U):
    """Recognize a gauge unitary (permutation times phases, each matched
    amplitude at least 1 - 1e-8) or raise NotGaugeError."""
    U = np.asarray(U, dtype=complex)
    if not is_unitary(U):
        raise NotUnitaryError("gauge candidates must be unitary")
    perm, amps, ok = match_columns(U, 1e-8)
    if not ok:
        raise NotGaugeError(
            "matrix is not within 1e-08 of a permutation-phase unitary "
            f"(worst alignment {amps.min():.3e})"
        )
    phases = tuple(np.angle(U[perm, np.arange(len(perm))]).tolist())
    return GaugeElement(perm=tuple(int(p) for p in perm), phases=phases)


def commutes(a: GateSpec, b: GateSpec):
    """Whether the two gates commute: ||[U_a, U_b]||_F <= 1e-9.

    Analytically this holds iff the tilt angles differ by a multiple of
    pi, or either beta is a multiple of pi.
    """
    Ua, Ub = u_phi_beta(a), u_phi_beta(b)
    return bool(np.linalg.norm(Ua @ Ub - Ub @ Ua) <= 1e-9)


def haar_frame(rng, d=2):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(A)
    lam = np.diag(R) / np.abs(np.diag(R))
    return OrthDecomposition(Q * lam[None, :])


def _haar_frame(rng, d):
    """A Haar frame drawn as standard normals and fixed by the phases of
    R's diagonal: other frames than haar_frame's from the same seed, which
    the d = 14 distance tables and the reference-frame property test read."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return OrthDecomposition(q * np.exp(-1j * np.angle(np.diag(r))))


def random_gauge(rng, dim):
    """A uniform permutation with uniform phases in [0, 2pi)."""
    perm = tuple(int(p) for p in rng.permutation(dim))
    phases = tuple(rng.uniform(0.0, TWO_PI, size=dim))
    return GaugeElement(perm=perm, phases=phases)


# -- second routes -------------------------------------------------------------


def expm_skew(H, s):
    """exp(-i s H) for Hermitian H, via the eigendecomposition of H.

    The result is unitary to machine precision by construction. H must
    pass is_hermitian (NotHermitianError otherwise).
    """
    H = np.asarray(H, dtype=complex)
    require_hermitian(H, "generator")
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * s * w)) @ V.conj().T


def multiset_gap(a, b):
    """phases.multiset_gap by trying every one of the d! pairings of the
    two phase multisets."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        best = min(best, float(np.max(phases.circular_distance(a, b[list(perm)]))))
    return best


def dynamical_phase(h: HamiltonianSchedule, psi, T, steps, integral=None):
    """The integral of t -> <psi| h(t) |psi> over [0, T], for a ket psi
    or a frame with the kets as columns (one integral per column).

    With integral, a d x d matrix G ~ int_0^T h dt, it is the package's
    phases.dynamical_phase(psi, integral), and h is not evaluated.

    Without it, composite Simpson on `steps` (even) intervals is
    applied piecewise between the schedule's jump points so that no
    panel straddles a discontinuity; each piece is sampled in one
    schedule evaluation for all kets and weighted
    (1, 4, 2, ..., 2, 4, 1) * dt / 3.
    """
    if integral is not None:
        return phases.dynamical_phase(psi, integral)
    psi = np.asarray(psi, dtype=complex)
    if steps % 2 != 0:
        raise ValueError("steps must be even for composite Simpson")
    kets = psi.reshape(len(psi), -1).T
    cuts = [b for b in h.breakpoints if 0.0 < b < T]
    edges = [0.0] + cuts + [T]
    totals = np.zeros(len(kets))
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(2, 2 * round(steps * (b - a) / (2 * T)))
        t = np.linspace(a, b, n + 1)
        # a segment endpoint sitting on a jump must take the one-sided
        # limit from inside the segment, not whichever branch eval picks
        where = t.copy()
        if a in cuts:
            where[0] = a + 1e-9 * (b - a)
        if b in cuts:
            where[-1] = b - 1e-9 * (b - a)
        Hs = h.eval(where)
        weights = np.ones(n + 1)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        for k, ket in enumerate(kets):
            y = np.einsum("i,kij,j->k", ket.conj(), Hs, ket).real
            totals[k] += (b - a) / n / 3 * (weights @ y)
    return totals if psi.ndim == 2 else float(totals[0])


# -- propagators ---------------------------------------------------------------


def _from_unitaries(grid, U):
    """The Propagator whose steps S_k = U_{k+1} U_k^dag carry U_0 = I
    through the given unitaries."""
    return Propagator(grid, matmul_stack(U[1:], np.conj(np.swapaxes(U[:-1], 1, 2))))


def closed_form_rotating(w0, w1, w, t):
    """Exact propagator of the rotating field at time t:

        U(t, 0) = exp(-i w t sigma_z / 2) exp(-i t H),
        H = -(1/2) w0 sigma_x - (1/2)(w1 + w) sigma_z.
    """
    H = -0.5 * w0 * sigma_x - 0.5 * (w1 + w) * sigma_z
    U = expm_skew_many(np.stack([sigma_z * (w / 2), H]), t)
    return U[0] @ U[1]


def exact_rotating_propagator(w0, w1, w, T, steps):
    """Propagator whose steps are those of the rotating-field closed form."""
    grid = np.linspace(0.0, T, steps + 1)
    return _from_unitaries(grid, np.stack([closed_form_rotating(w0, w1, w, t) for t in grid]))


def exact_constant_propagator(mu_B, T, steps):
    """Propagator of h = -(mu_B/2) sigma_z from the closed form
    U(t, 0) = exp(i mu_B t sigma_z / 2)."""
    grid = np.linspace(0.0, T, steps + 1)
    ph = np.exp(1j * mu_B * grid / 2)
    unitaries = np.zeros((steps + 1, 2, 2), dtype=complex)
    unitaries[:, 0, 0] = ph
    unitaries[:, 1, 1] = ph.conj()
    return _from_unitaries(grid, unitaries)


def inverse_at(p: Propagator, k):
    """U(0, t_k) = U(t_k, 0)^{-1}, i.e. the adjoint."""
    if not 0 <= k <= p.steps:
        raise IndexError(f"grid index {k} outside 0..{p.steps}")
    return p.unitaries[k].conj().T


def heisenberg_evolve(p: Propagator, X0, k):
    """Heisenberg evolution X(t_k) = U(0, t_k) X0 U(t_k, 0)."""
    X0 = np.asarray(X0, dtype=complex)
    if X0.shape != (p.dim, p.dim):
        raise DimensionMismatchError(
            f"observable shape {X0.shape} does not match dim {p.dim}"
        )
    require_hermitian(X0, "initial observable")
    U = p.unitaries[k]
    return U.conj().T @ X0 @ U


# -- schedules -----------------------------------------------------------------


def make_zero(dim):
    """The zero schedule (free evolution), defined for all t."""
    return HamiltonianSchedule(
        dim=dim,
        kind="Constant",
        domain=UNBOUNDED,
        fn=lambda t: np.zeros((len(t), dim, dim), dtype=complex),
    )


def make_reversed(inner, T):
    """Time- and field-reversed copy: eval(t) = -inner.eval(T - t) on [0, T]."""
    lo, hi = inner.domain
    if lo > 0 or hi < T:
        raise ScheduleDomainError("inner schedule does not cover [0, T]")
    return HamiltonianSchedule(
        dim=inner.dim,
        kind="Reversed",
        domain=(0.0, T),
        fn=lambda t: -inner.fn(T - t),
        breakpoints=tuple(sorted(T - b for b in inner.breakpoints if 0 < T - b < T)),
    )


def make_block_two_qubit(h0, h1):
    """Block-diagonal two-qubit schedule diag(h0(t), h1(t)).

    Basis order |00>, |01>, |10>, |11>: h0 drives the target when the
    control is |0>, h1 when it is |1>.
    """
    if h0.dim != 2 or h1.dim != 2:
        raise DimensionMismatchError("both blocks must be single-qubit schedules")
    lo = max(h0.domain[0], h1.domain[0])
    hi = min(h0.domain[1], h1.domain[1])

    def fn(t):
        H = np.zeros((len(t), 4, 4), dtype=complex)
        H[:, :2, :2] = h0.fn(t)
        H[:, 2:, 2:] = h1.fn(t)
        return H

    bps = sorted(set(h0.breakpoints) | set(h1.breakpoints))
    return HamiltonianSchedule(
        dim=4,
        kind="BlockDiag",
        domain=(lo, hi),
        fn=fn,
        breakpoints=tuple(b for b in bps if lo < b < hi),
    )


# -- linear algebra and the observable space -----------------------------------


def operator_norm(A):
    """Largest singular value of A, computed as sqrt(max eig(A^dagger A))."""
    A = np.asarray(A, dtype=complex)
    ev = np.linalg.eigvalsh(A.conj().T @ A)
    return float(np.sqrt(max(ev[-1], 0.0)))


def normalize(psi):
    """Return psi / ||psi||; ValueError on a (near-)zero or non-finite norm."""
    psi = np.asarray(psi, dtype=complex)
    n = np.linalg.norm(psi)
    if not 1e-300 <= n < np.inf:
        raise ValueError(f"cannot normalize a vector of norm {n:g}")
    return psi / n


def connection_eval(P, Q, O0: OrthDecomposition):
    """The canonical connection: the O0-diagonal part of P^{-1} Q,

        sum_n <f_n|P^dag Q|f_n> |f_n><f_n|.

    Vertical arguments Q = P D (D frame-diagonal) reproduce D.
    """
    P = np.asarray(P, dtype=complex)
    if not is_unitary(P):
        raise NotUnitaryError("connection base point must be unitary")
    F = O0.vectors
    c = np.einsum("in,ij,jn->n", F.conj(), P.conj().T @ np.asarray(Q, complex), F)
    return (F * c[None, :]) @ F.conj().T


def base_at(lift, k):
    """The decomposition that a lift projects to at grid[k]."""
    return OrthDecomposition(lift.unitaries[k] @ lift.reference.vectors)


def decompositions_equal(a: OrthDecomposition, b: OrthDecomposition):
    """Projector-set equality: same unordered projectors, each matched
    overlap amplitude at least 1 - 1e-8."""
    if a.dim != b.dim:
        return False
    _, _, ok = match_columns(b.vectors.conj().T @ a.vectors, 1e-8)
    return ok


def bloch_chart(O: OrthDecomposition):
    """Bloch-sphere chart of a qubit decomposition.

    Returns the axis n with |+n><+n|, |-n><-n| the two projectors, as
    the representative with n_z >= 0 (ties: n_x >= 0, then n_y >= 0),
    realizing the quotient of the sphere by the antipodal map.
    """
    if O.dim != 2:
        raise DimensionMismatchError("the Bloch chart needs dim 2")
    P = projector(O, 0)
    n = np.array(
        [np.real(np.trace(sigma_x @ P)), np.real(np.trace(sigma_y @ P)),
         np.real(np.trace(sigma_z @ P))]
    )
    eps = 1e-12
    if n[2] < -eps or (abs(n[2]) <= eps and (n[0] < -eps or (abs(n[0]) <= eps and n[1] < 0))):
        n = -n
    return n
