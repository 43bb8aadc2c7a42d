"""Lifts of observable-space curves and their holonomy.

A unitary evolution projects to a curve of decompositions O(t); a lift
assigns to each time a unitary carrying the reference frame onto O(t).
The canonical connection is the frame-diagonal part of P^{-1} dP, and
the horizontal lift is the unique lift along which that diagonal part
vanishes. For a closed base curve the horizontal lift ends a gauge
transformation away from its start; the phases of that gauge element
are the geometric phases.

Discretization: the lift at t_k is Gamma_k = U(0, t_k) W, which carries
each reference vector onto a transported frame vector U_k^dag f_n, with
f = W R the frame of the initial observable. The connection increment
of level n over step k is the phase of the overlap of neighbouring
transported vectors,

    <f_n| U_k U_{k+1}^dag |f_n> = <f_n| S_k^dag |f_n>,

with S_k = U_{k+1} U_k^dag the step unitary. So it is read in the fixed
initial frame, from the steps alone, and the horizontal lift is the raw
one times the gauge phases g_{k,n} = sum_{j<k} arg <f_n|S_j|f_n>, which
make each transported overlap real positive: the Aharonov-Anandan phase
(Phys. Rev. Lett. 58, 1593, 1987), summed step by step. This is
midpoint-exact for the (diagonal) gauge ODE; the global phase error is
O(dt^2). The increment depends on the projectors |f_n><f_n| only, so a
gauge start or another reference frame moves it by rounding alone. The
holonomy needs U(T, 0) and g_N only; neither the running products U_k
nor the lift's unitaries are formed unless they are read, and
LiftCurve.pieces forms them a piece at a time, so a curve is written
without either stack.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NotClosedError
from .linalg import frame_diagonals, frame_pairs, matmul_stack
from .obspace import CYCLIC_TOL, OrthDecomposition, fiber_contains, matched_phases
from .propagation import Propagator, chunks


@dataclass(frozen=True, eq=False)
class LiftCurve:
    """A sampled lift over a propagator's grid: unitaries[k] maps the
    reference frame onto the decomposition at grid[k].

    frame holds f = W R, the initial frame vectors that the lift carries
    the reference vectors onto, as columns, and gauge the (N + 1) x d
    phases g of Gamma_k = U(0, t_k) f e^{i g_k} R^dag: zero for the raw
    lift U(0, t_k) W, the accumulated increments for the horizontal one.
    """

    propagator: Propagator
    frame: np.ndarray
    reference: OrthDecomposition
    gauge: np.ndarray

    @property
    def grid(self):
        return self.propagator.grid

    @property
    def dim(self):
        return self.frame.shape[1]

    @property
    def steps(self):
        return self.propagator.steps

    def pieces(self):
        """The unitaries, one piece of the propagator's running products at
        a time (Propagator.pieces)."""
        a = 0
        for U in self.propagator.pieces():
            moved = matmul_stack(np.conj(np.swapaxes(U, 1, 2)), self.frame)
            moved *= np.exp(1j * self.gauge[a : a + len(U)])[:, None, :]
            a += len(U)
            yield matmul_stack(moved, self.reference.vectors.conj().T)

    @cached_property
    def unitaries(self):
        return np.concatenate(list(self.pieces()))


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
    frame = W @ reference.vectors
    return LiftCurve(p, frame, reference, gauge=np.zeros((p.steps + 1, obs.dim)))


def horizontal_lift(raw: LiftCurve):
    """The horizontal lift with the same starting point: the raw lift
    right-multiplied by the frame-diagonal phases g_k that cancel the
    accumulated connection increments (see the module docstring)."""
    S = raw.propagator.step_unitaries
    pairs = frame_pairs(raw.frame)
    g = np.zeros((raw.steps + 1, raw.dim))
    for a, b in chunks(raw.steps):
        increments = np.angle(frame_diagonals(S[a:b], pairs))
        # after the first chunk the running sum starts from the gauge the
        # chunk before ended on, so the floats are those of one cumsum
        if a:
            increments[0] += g[a]
        np.cumsum(increments, axis=0, out=g[a + 1 : b + 1])
    return replace(raw, gauge=g)


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


def holonomy(hor: LiftCurve, tol=CYCLIC_TOL):
    """Read the geometric phases off the end of a horizontal lift.

    The holonomy element in the initial frame is M = f^dag U(T, 0)^dag f
    e^{i g_N}, from the final unitary and the last gauge phases alone.
    Requires the base curve to close: the holonomy element (relating the
    end of the lift to its start) must match the start frame one-to-one
    with every alignment at least 1 - max(tol, 1e-9). The floor keeps a
    tighter tol from failing on the rounding of a long lift.
    """
    f = hor.frame
    M = (f.conj().T @ hor.propagator.final().conj().T @ f) * np.exp(1j * hor.gauge[-1])
    betas, perm, amps, ok = matched_phases(M, max(tol, 1e-9))
    if not ok:
        raise NotClosedError(
            "base curve does not close within tolerance: final projectors do "
            f"not match the initial ones one-to-one (worst alignment "
            f"{amps.min():.6f})"
        )
    return HolonomyResult(betas=betas, permutation=perm, min_alignment=float(amps.min()))
