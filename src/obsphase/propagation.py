"""Propagators U(t, 0) of the time-dependent Schrodinger equation

    i dU/dt = h(t) U,   U(0, 0) = I.

The integrator is the midpoint-exponential (second-order Magnus) update

    U_{k+1} = exp(-i dt h(t_k + dt/2)) U_k,

which is exactly unitary per step, so no re-orthogonalization policy is
needed; the global error is O(dt^2). U(0, t) is always the adjoint of
U(t, 0), never separately integrated.

The schedule is sampled at all midpoints in one call, and a solved
propagator keeps the step unitaries S_k = U_{k+1} U_k^dag, which is all
the phase extraction reads: the holonomy comes from <f_n|S_k|f_n> in the
initial frame (see obsphase.bundle), and the cyclicity check from U(T, 0)
alone. The running products U_k are a blocked prefix product (Blelloch
1990, "Prefix sums and their applications"): the steps are cut into
about sqrt(N) blocks of about sqrt(N) steps, the prefixes inside every
block are built at once, the block totals are chained, and each block's
prefixes are applied to its incoming product. That is about 2 sqrt(N)
batched matrix products instead of N single ones. solve runs the first
two stages, and Propagator.final() reads U(T, 0) off them: the same
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

from .errors import DimensionMismatchError, ScheduleDomainError
from .hamiltonians import HamiltonianSchedule
from .linalg import expm_skew, expm_skew_many, matmul_stack, require_hermitian, sigma_x, sigma_z

DEFAULT_STEPS = 4096


class Propagator:
    """Sampled family U(t_k, 0) on a uniform grid t_0 = 0 ... t_N = T.

    Built from the N step unitaries S_k = U_{k+1} U_k^dag (solve), with
    the first two stages of their blocked prefix product, or from the
    N + 1 unitaries themselves (the exact_* samplers); the other stack
    is derived on first access and kept.
    """

    def __init__(self, grid, *, step_unitaries=None, unitaries=None):
        if (step_unitaries is None) == (unitaries is None):
            raise ValueError("give either the step unitaries or the unitaries")
        self.grid = grid
        if unitaries is None:
            self.step_unitaries = step_unitaries
            self._blocks = _block_prefixes(step_unitaries)
        else:
            self.unitaries = unitaries
        self.dim = (step_unitaries if unitaries is None else unitaries).shape[1]

    @property
    def steps(self):
        return len(self.grid) - 1

    @property
    def duration(self):
        return float(self.grid[-1])

    @cached_property
    def unitaries(self):
        return _prefix_products(*self._blocks, self.steps)

    @cached_property
    def step_unitaries(self):
        U = self.unitaries
        return matmul_stack(U[1:], np.conj(np.swapaxes(U[:-1], 1, 2)))

    def at(self, k):
        return self.unitaries[k]

    def final(self):
        """U(T, 0): the same floats as unitaries[-1], without forming them."""
        if "unitaries" in self.__dict__:
            return self.unitaries[-1]
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
    finite = np.isfinite(H_mid).all(axis=(1, 2))
    if not finite.all():
        raise ScheduleDomainError(
            f"schedule is not finite at t={mids[np.argmin(finite)]:g}"
        )
    return Propagator(grid, step_unitaries=expm_skew_many(H_mid, dt))


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


def exact_rotating_propagator(w0, w1, w, T, steps=DEFAULT_STEPS):
    """Propagator sampled from the rotating-field closed form."""
    grid = np.linspace(0.0, T, steps + 1)
    unitaries = np.stack([closed_form_rotating(w0, w1, w, t) for t in grid])
    return Propagator(grid, unitaries=unitaries)


def exact_constant_propagator(mu_B, T, steps=DEFAULT_STEPS):
    """Propagator of h = -(mu_B/2) sigma_z: U(t, 0) = exp(i mu_B t sigma_z / 2)."""
    grid = np.linspace(0.0, T, steps + 1)
    ph = np.exp(1j * mu_B * grid / 2)
    unitaries = np.zeros((steps + 1, 2, 2), dtype=complex)
    unitaries[:, 0, 0] = ph
    unitaries[:, 1, 1] = ph.conj()
    return Propagator(grid, unitaries=unitaries)


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
