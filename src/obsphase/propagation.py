"""Propagators U(t, 0) of the time-dependent Schrodinger equation

    i dU/dt = h(t) U,   U(0, 0) = I.

The integrator is the midpoint-exponential (second-order Magnus) update

    U_{k+1} = exp(-i dt h(t_k + dt/2)) U_k,

which is exactly unitary per step, so no re-orthogonalization policy is
needed; the global error is O(dt^2). U(0, t) is always the adjoint of
U(t, 0), never separately integrated.

The schedule is sampled at all midpoints in one call, and a propagator
is held as its step unitaries S_k = U_{k+1} U_k^dag, which is all the
phase extraction reads: the holonomy comes from <f_n|S_k|f_n> in the
initial frame (see obsphase.bundle), and the cyclicity check from U(T, 0)
alone. The running products U_k are a blocked prefix product (Blelloch
1990, "Prefix sums and their applications"): the steps are cut into
about sqrt(N) blocks of about sqrt(N) steps, the prefixes inside every
block are built at once, the block totals are chained, and each block's
prefixes are applied to its incoming product. That is about 2 sqrt(N)
batched matrix products instead of N single ones. A Propagator runs the
first two stages when built, and final() reads U(T, 0) off them: the same
floats as the last running product. The third stage, which writes the
stack of N + 1 unitaries, runs only on first access to
Propagator.unitaries. For qubits the step exponentials take a closed
form and the batched products are written out entry by entry
(linalg.expm_skew_many, linalg.matmul_stack), so no LAPACK or BLAS call
is made per 2 x 2 matrix. The products are associated differently from
the sequential U_{k+1} = S_k U_k; on the rotating field that moves U_k
by rounding only, about 1e-14 at N = 8192 and 1e-13 at N = 32768, far
below the O(dt^2) error.
"""

import math
from functools import cached_property

import numpy as np

from .errors import ScheduleDomainError
from .hamiltonians import HamiltonianSchedule
from .linalg import expm_skew, expm_skew_many, matmul_stack, sigma_x, sigma_z

DEFAULT_STEPS = 4096


class Propagator:
    """Sampled family U(t_k, 0) on a uniform grid t_0 = 0 ... t_N = T,
    built from the N step unitaries S_k = U_{k+1} U_k^dag that solve
    produces, with the first two stages of their blocked prefix product.
    """

    def __init__(self, grid, step_unitaries):
        self.grid = grid
        self.step_unitaries = step_unitaries
        self.dim = step_unitaries.shape[1]
        self._blocks = _block_prefixes(step_unitaries)

    @property
    def steps(self):
        return len(self.grid) - 1

    @property
    def duration(self):
        return float(self.grid[-1])

    @cached_property
    def unitaries(self):
        return _prefix_products(*self._blocks, self.steps)

    def final(self):
        """U(T, 0): the same floats as unitaries[-1], without forming them."""
        local, incoming = self._blocks
        b, j = divmod(self.steps - 1, local.shape[1])
        return matmul_stack(local[b, j], incoming[b])


def solve(h: HamiltonianSchedule, T, steps=DEFAULT_STEPS):
    """Integrate U(t, 0) over [0, T] with a uniform grid of `steps` intervals.

    Jump discontinuities of the schedule must land on grid points, so
    every step integrates a smooth piece; otherwise the local midpoint
    error drops to first order.
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
        if 0 < b < T and abs(b / dt - round(b / dt)) > 1e-9:
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
    return Propagator(grid, expm_skew_many(H_mid, dt))


def _block_prefixes(S):
    """The first two stages of the blocked prefix product of a stack of N
    steps (see the module docstring): the prefixes inside every block,
    shape (B, L, d, d) with identities past the last step, and the
    product coming into each block, shape (B, d, d)."""
    N, d = S.shape[0], S.shape[1]
    L = math.isqrt(N - 1) + 1  # ceil(sqrt(N)) steps per block
    B = -(-N // L)
    local = np.empty((B, L, d, d), dtype=complex)
    flat = local.reshape(B * L, d, d)
    flat[:N] = S
    flat[N:] = np.eye(d)
    for j in range(1, L):
        local[:, j] = matmul_stack(local[:, j], local[:, j - 1])
    incoming = np.empty((B, d, d), dtype=complex)
    incoming[0] = np.eye(d)
    for b in range(1, B):
        incoming[b] = local[b - 1, -1] @ incoming[b - 1]
    return local, incoming


def _prefix_products(local, incoming, N):
    """[I, S_0, S_1 S_0, ..., S_{N-1} ... S_0]: each block's prefixes
    applied to its incoming product."""
    d = local.shape[-1]
    unitaries = np.empty((N + 1, d, d), dtype=complex)
    unitaries[0] = np.eye(d)
    unitaries[1:] = matmul_stack(local, incoming[:, None]).reshape(-1, d, d)[:N]
    return unitaries


def closed_form_rotating(w0, w1, w, t):
    """Exact propagator of the rotating field at time t:

        U(t, 0) = exp(-i w t sigma_z / 2) exp(-i t H),
        H = -(1/2) w0 sigma_x - (1/2)(w1 + w) sigma_z.
    """
    H = -0.5 * w0 * sigma_x - 0.5 * (w1 + w) * sigma_z
    return expm_skew(sigma_z, w * t / 2) @ expm_skew(H, t)
