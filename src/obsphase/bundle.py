"""Lifts of observable-space curves and their holonomy.

A unitary evolution projects to a curve of decompositions O(t); a lift
assigns to each time a unitary carrying the reference frame onto O(t).
The canonical connection is the frame-diagonal part of P^{-1} dP, and
the horizontal lift is the unique lift along which that diagonal part
vanishes. For a closed base curve the horizontal lift ends a gauge
transformation away from its start; the phases of that gauge element
are the geometric phases.

Discretization: per step the connection increment of level n is
arg <f_n| Gamma_k^dag Gamma_{k+1} |f_n>, and the gauge correction
subtracts exactly that, making each transported overlap real positive.
This is midpoint-exact for the (diagonal) gauge ODE; the global phase
error is O(dt^2).
"""

import numpy as np
from dataclasses import dataclass

from .errors import NotClosedError, NotUnitaryError
from .linalg import is_unitary, matmul_stack
from .obspace import OrthDecomposition, fiber_contains, match_columns, wrap_angle
from .propagation import Propagator


@dataclass(frozen=True)
class LiftCurve:
    """A sampled lift: unitaries[k] maps the reference frame onto the
    decomposition at grid[k]."""

    grid: np.ndarray
    unitaries: np.ndarray
    reference: OrthDecomposition

    @property
    def dim(self):
        return self.unitaries.shape[1]

    @property
    def steps(self):
        return len(self.grid) - 1

    def base_at(self, k):
        """The projected decomposition at grid[k]."""
        return OrthDecomposition(self.unitaries[k] @ self.reference.vectors)


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


def lift_from_propagator(
    p: Propagator, obs: OrthDecomposition, reference=None, start=None
):
    """The Schrodinger lift of the curve traced by an initial observable.

    The curve is O(t_k) = frames {U(0, t_k) psi_n} with psi_n the frame
    of obs; the lift is Gamma_k = U(0, t_k) W, where W carries the
    reference frame onto that initial frame. reference defaults to obs
    itself (then W = I); start overrides W with any unitary in the fiber
    over obs, which is how a different gauge starting point is chosen.
    """
    if reference is None:
        reference = obs
    if start is None:
        W = obs.vectors @ reference.vectors.conj().T
    else:
        W = np.asarray(start, dtype=complex)
        if not fiber_contains(W, obs, reference):
            raise ValueError("start must lie in the fiber over the initial frame")
    adj = np.conj(np.swapaxes(p.unitaries, 1, 2))
    return LiftCurve(grid=p.grid, unitaries=matmul_stack(adj, W), reference=reference)


def horizontal_lift(raw: LiftCurve):
    """The horizontal lift with the same starting point.

    Right-multiplies each Gamma_k by frame-diagonal phases that cancel
    the accumulated connection increments.
    """
    F = raw.reference.vectors
    B = matmul_stack(raw.unitaries, F)  # columns: transported frame vectors
    overlaps = np.einsum("kin,kin->kn", B[:-1].conj(), B[1:])
    delta = np.angle(overlaps)
    g = np.zeros((len(raw.grid), raw.dim))
    g[1:] = -np.cumsum(delta, axis=0)
    B *= np.exp(1j * g)[:, None, :]  # in place: one stack fewer at the peak
    corrected = matmul_stack(B, F.conj().T)
    return LiftCurve(grid=raw.grid, unitaries=corrected, reference=raw.reference)


@dataclass(frozen=True)
class HolonomyResult:
    """Geometric phases in [0, 2pi) plus the closure permutation.

    permutation[n] = m means the final frame vector over level n returns
    onto the initial frame vector of level m; the identity permutation is
    the ordinary cyclic case, and betas are reported against the matched
    pairing either way.
    """

    betas: np.ndarray
    permutation: tuple
    min_alignment: float


def holonomy(hor: LiftCurve, tol=1e-6):
    """Read the geometric phases off the end of a horizontal lift.

    Requires the base curve to close: the holonomy element (relating the
    end of the lift to its start) must match the start frame one-to-one
    with every alignment at least 1 - max(tol, 1e-9). The floor keeps a
    tighter tol from failing on the rounding of a long lift.
    """
    F = hor.reference.vectors
    psi0 = hor.unitaries[0] @ F
    M = psi0.conj().T @ (hor.unitaries[-1] @ F)
    perm, amps, ok = match_columns(M, max(tol, 1e-9))
    if not ok:
        raise NotClosedError(
            "base curve does not close within tolerance: final projectors do "
            f"not match the initial ones one-to-one (worst alignment "
            f"{amps.min():.6f})"
        )
    betas = wrap_angle(np.angle(M[perm, np.arange(hor.dim)]))
    return HolonomyResult(
        betas=betas,
        permutation=tuple(int(m) for m in perm),
        min_alignment=float(amps.min()),
    )
