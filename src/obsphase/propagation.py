"""Propagators U(t, 0) of the time-dependent Schrodinger equation

    i dU/dt = h(t) U,   U(0, 0) = I.

The integrator is the midpoint-exponential (second-order Magnus) update

    U_{k+1} = exp(-i dt h(t_k + dt/2)) U_k,

which is exactly unitary per step, so no re-orthogonalization policy is
needed; the global error is O(dt^2). U(0, t) is always the adjoint of
U(t, 0), never separately integrated.

The schedule is sampled at all midpoints in one call, and a propagator
is held as its step unitaries S_k = U_{k+1} U_k^dag and those midpoint
samples, which is all the phase extraction reads: the holonomy comes
from <f_n|S_k|f_n> in the initial frame (see obsphase.bundle), the
dynamical integral from <f_n|h(t_k + dt/2)|f_n> (see obsphase.phases),
and the cyclicity check from U(T, 0) alone. U(T, 0) is a nested
sequential fold: the steps are cut into blocks of 16, each block is
multiplied out in order (all blocks at once, one step position at a
time), and the block totals are folded the same way, level after level,
until one product is left. That is 15 batched products per level
over N/16, N/256, ... matrices, each held as d^2 contiguous entry
columns, so no LAPACK or BLAS call is made per small matrix. A
Propagator folds its steps when built; the running products U_k are
formed only on first access to Propagator.unitaries, by the same fold
kept at every level: inside a block each prefix is applied to the
running product coming into the block, and the block ends are the
running products one level up. So the last of them is final() bit for
bit. For qubits the step exponentials take a closed form
(linalg.expm_skew_many). The products are associated differently from
the sequential U_{k+1} = S_k U_k; on the rotating field that moves U_k
by rounding only, about 4e-14 at N = 4096 and 1.5e-13 at N = 65536,
far below the O(dt^2) error.
"""

from functools import cached_property

import numpy as np

from .errors import ScheduleDomainError
from .hamiltonians import HamiltonianSchedule
from .linalg import expm_skew, expm_skew_many, sigma_x, sigma_z

DEFAULT_STEPS = 4096

# steps multiplied out in order before their product joins the next level
_BLOCK = 16


class Propagator:
    """Sampled family U(t_k, 0) on a uniform grid t_0 = 0 ... t_N = T,
    built from the N step unitaries S_k = U_{k+1} U_k^dag that solve
    produces, and folded to U(T, 0) when built. samples, when given, is
    the (N, d, d) stack of h at the step midpoints the steps were
    taken from; solve passes it, and the dynamical integral reads it.
    """

    def __init__(self, grid, step_unitaries, samples=None):
        self.grid = grid
        self.step_unitaries = step_unitaries
        self.samples = samples
        self.dim = step_unitaries.shape[1]
        self._final = _fold_levels(step_unitaries)[-1][:, :, -1, 0].copy()

    @property
    def steps(self):
        return len(self.grid) - 1

    @property
    def duration(self):
        return float(self.grid[-1])

    @cached_property
    def unitaries(self):
        return _prefix_products(self.step_unitaries)

    def final(self):
        """U(T, 0): the same floats as unitaries[-1], without forming them."""
        return self._final.copy()


def grid_node(t, dt):
    """The index of the uniform grid node (spacing dt) within 1e-9 of a
    step of t, or None when t lies between nodes."""
    k = round(t / dt)
    return k if abs(t / dt - k) <= 1e-9 else None


def solve(h: HamiltonianSchedule, T, steps=DEFAULT_STEPS):
    """Integrate U(t, 0) over [0, T] with a uniform grid of `steps` intervals.

    Jump discontinuities of the schedule must land on grid points (to
    1e-9 of a step, grid_node), so every step integrates a smooth piece;
    otherwise the local midpoint error drops to first order.
    """
    if steps < 8:
        raise ValueError("steps must be at least 8")
    if T <= 0:
        raise ValueError("T must be positive")
    lo, hi = h.domain
    if lo > 0 or hi < T:
        raise ScheduleDomainError(
            f"[0, {T:g}] is not inside the schedule domain [{lo:g}, {hi:g}]"
        )
    dt = T / steps
    for b in h.breakpoints:
        if 0 < b < T and grid_node(b, dt) is None:
            raise ScheduleDomainError(
                f"schedule jump at t={b:g} does not land on the grid; "
                f"choose steps so that T/steps divides it"
            )
    grid = np.linspace(0.0, T, steps + 1)
    mids = grid[:-1] + dt / 2
    H_mid = h.eval(mids)
    if not np.isfinite(H_mid).all():
        finite = np.isfinite(H_mid).all(axis=(1, 2))
        raise ScheduleDomainError(
            f"schedule is not finite at t={mids[np.argmin(finite)]:g}"
        )
    return Propagator(grid, expm_skew_many(H_mid, dt), H_mid)


def _column_product(A, B):
    """A @ B for matrices held as entry columns, A[i, j, ...] and
    B[i, j, ...] (broadcast over the trailing axes)."""
    out = A[:, 0, None] * B[None, 0]
    for j in range(1, A.shape[1]):
        out += A[:, j, None] * B[None, j]
    return out


def _block_prefixes(S):
    """The running products inside blocks of L = min(16, n) consecutive
    matrices of a stack S (n, d, d), as entry columns C (d, d, L, nb):
    C[:, :, r, q] = S[qL + r] ... S[qL], with identities past the last."""
    n, d = S.shape[0], S.shape[-1]
    L = min(_BLOCK, n)
    full, tail = divmod(n, L)
    C = np.empty((d, d, L, full + (tail > 0)), dtype=complex)
    blocks = C.transpose(3, 2, 0, 1)
    blocks[:full] = S[: full * L].reshape(full, L, d, d)
    if tail:
        blocks[full, :tail] = S[full * L:]
        blocks[full, tail:] = np.eye(d)
    for r in range(1, L):
        C[:, :, r] = _column_product(C[:, :, r], C[:, :, r - 1])
    return C


def _fold_levels(S):
    """_block_prefixes of S, of its block totals, and so on, up to the
    level with a single block, whose total is the product of all of S."""
    levels = [_block_prefixes(S)]
    while levels[-1].shape[-1] > 1:
        levels.append(_block_prefixes(levels[-1][:, :, -1].transpose(2, 0, 1)))
    return levels


def _prefix_products(S):
    """[I, S_0, S_1 S_0, ..., S_{N-1} ... S_0] in the association of the
    fold (see the module docstring), so the last is its product bit for
    bit."""
    d = S.shape[-1]
    levels = _fold_levels(S)
    counts = [len(S)] + [C.shape[-1] for C in levels[:-1]]
    P = levels[-1][:, :, -1].transpose(2, 0, 1)
    for C, n in zip(reversed(levels), reversed(counts)):
        # P holds the running products over this level's block totals: each
        # block's prefixes are applied to the product coming into the block,
        # one step position at a time, and the block ends are P itself
        L, nb = C.shape[2:]
        incoming = np.ascontiguousarray(P[:-1].transpose(1, 2, 0))
        for r in range(L - 1):
            C[:, :, r, 1:] = _column_product(C[:, :, r, 1:], incoming)
        C[:, :, -1] = P.transpose(1, 2, 0)
        buf = np.empty((1 + nb * L, d, d), dtype=complex)
        buf[1:].reshape(nb, L, d, d)[:] = C.transpose(3, 2, 0, 1)
        last, P = P[-1], buf[1 : n + 1]
        P[-1] = last  # a short last block ends where the level above does
    buf[0] = np.eye(d)
    return buf[: len(S) + 1]


def closed_form_rotating(w0, w1, w, t):
    """Exact propagator of the rotating field at time t:

        U(t, 0) = exp(-i w t sigma_z / 2) exp(-i t H),
        H = -(1/2) w0 sigma_x - (1/2)(w1 + w) sigma_z.
    """
    H = -0.5 * w0 * sigma_x - 0.5 * (w1 + w) * sigma_z
    return expm_skew(sigma_z, w * t / 2) @ expm_skew(H, t)
