"""Propagators U(t, 0) of the time-dependent Schrodinger equation

    i dU/dt = h(t) U,   U(0, 0) = I.

The integrator is the midpoint-exponential (second-order Magnus) update

    U_{k+1} = exp(-i dt h(t_k + dt/2)) U_k,

which is exactly unitary per step, so no re-orthogonalization policy is
needed; the global error is O(dt^2). U(0, t) is always the adjoint of
U(t, 0), never separately integrated.

solve walks the grid in chunks of 4096 steps, and handles each chunk
while it is in cache: its midpoints are sampled in one call, screened,
exponentiated into the step stack, folded to their block totals, and
added into the integral G ~ int_0^T h dt. A propagator is held as its
step unitaries S_k = U_{k+1} U_k^dag, its fold levels, the d x d matrix
G and h at 9 spread midpoints, which is all the phase extraction reads:
the holonomy comes from <f_n|S_k|f_n> in the initial frame (see
obsphase.bundle), the dynamical integral from <f_n|G|f_n>, since it is
linear in h (see obsphase.phases), and the cyclicity check from U(T, 0),
the last fold level, alone. Only the step stack is N long. U(T, 0) is a
recursive sequential fold: the steps are cut into blocks of 16, each
block is multiplied out in order (all blocks at once, one step position
at a time), and the fold recurses on the block totals until one block is
left. That is 15 batched products per level over N/16, N/256, ...
matrices, each held as d^2 contiguous entry columns, so no LAPACK or
BLAS call is made per small matrix; the levels, N/15 matrices in all,
are kept. The chunk length is a multiple of the block, so no block
straddles two chunks, and the blocks are those of the whole grid: the
fold gives the same floats whatever the chunk length. A Propagator built
from given step unitaries folds them when built. The running products
U_k are formed only when read, from the levels: the block ends are the
running products of the block totals, one level up, and inside a block
each prefix is applied to the running product coming into the block. So
a read multiplies each step into its block's prefixes once, forms no
block total again, and its last product is final() bit for bit.
Propagator.pieces forms them 1024 steps at a time, so a reader that
takes one piece at a time holds one stack, the steps;
Propagator.unitaries joins the pieces. For qubits the step exponentials
take a closed form (linalg.expm_skew_many). The products are associated
differently from the sequential U_{k+1} = S_k U_k; on the rotating field
that moves U_k by rounding only, about 4e-14 at N = 4096 and 1.5e-13 at
N = 65536, far below the O(dt^2) error.
"""

from functools import cached_property

import numpy as np

from .errors import CrossCheckError, NotHermitianError, ScheduleDomainError
from .hamiltonians import HamiltonianSchedule
from .linalg import expm_skew_many, is_hermitian

DEFAULT_STEPS = 4096

# steps multiplied out in order before their product joins the next level
_BLOCK = 16
# steps that solve samples, exponentiates, folds and integrates at a time;
# a multiple of _BLOCK, so no block straddles two chunks
_CHUNK = 4096
# steps whose running products Propagator.pieces forms at a time; a
# multiple of _BLOCK, and a quarter of a chunk, so that a curve's pieces
# stay small beside the step stack of a deck of a few thousand steps
_PIECE = 1024


class Propagator:
    """Sampled family U(t_k, 0) on a uniform grid t_0 = 0 ... t_N = T,
    built from the N step unitaries S_k = U_{k+1} U_k^dag.

    It keeps the fold levels of the steps (see the module docstring):
    the totals of their 16-step blocks, (N / 16, d, d), then the totals
    of each level's blocks in turn, down to U(T, 0), (1, d, d). solve
    passes what it formed on the way: levels, from the block totals of
    its chunks; integral, the d x d matrix G ~ int_0^T h dt by the
    end-corrected midpoint rule (see solve); and spread_samples, h_k at
    the 9 steps spread_steps(N). A propagator built from given step
    unitaries folds them here and has neither G nor the samples.
    """

    def __init__(self, grid, step_unitaries, levels=None, integral=None, spread_samples=None):
        self.grid = grid
        self.step_unitaries = step_unitaries
        self.integral = integral
        self.spread_samples = spread_samples
        self.dim = step_unitaries.shape[1]
        self._levels = _fold(_block_totals(step_unitaries)) if levels is None else levels

    @property
    def steps(self):
        return len(self.grid) - 1

    @property
    def duration(self):
        return float(self.grid[-1])

    def pieces(self):
        """The running products U_k = U(t_k, 0), k = 0 ... N, _PIECE steps
        at a time: U_0 ... U_b for the steps [0, b) of the first piece,
        then U_{a+1} ... U_b for those [a, b) of each later one."""
        return _prefix_products(self.step_unitaries, self._levels)

    @cached_property
    def unitaries(self):
        return np.concatenate(list(self.pieces()))

    def final(self):
        """U(T, 0): the same floats as unitaries[-1], without forming them."""
        return self._levels[-1][0].copy()

    def require_solved_from(self, h):
        """Raise CrossCheckError unless h gives the kept midpoint samples, to
        1e-12 of their largest entry, at the 9 steps spread_steps(N)."""
        want = self.spread_samples
        if want is None:
            raise CrossCheckError("the propagator keeps no midpoint samples to check the schedule "
                                  "against: it was built from given step unitaries, not solved")
        gap = np.abs(h.eval(_midpoints(self.grid, spread_steps(self.steps))) - want).max()
        if not gap <= 1e-12 * np.abs(want).max():
            raise CrossCheckError(f"the schedule differs from the samples the propagator was solved "
                                  f"from by up to {gap:.3e} at 9 spread midpoints")


def grid_node(t, dt):
    """The index of the uniform grid node (spacing dt) within 1e-9 of a
    step of t, or None when t lies between nodes."""
    k = round(t / dt)
    return k if abs(t / dt - k) <= 1e-9 else None


def chunks(steps):
    """The step ranges (a, b) that solve works through one at a time:
    _CHUNK steps each, the last one shorter."""
    return [(a, min(a + _CHUNK, steps)) for a in range(0, steps, _CHUNK)]


def spread_steps(steps):
    """The 9 steps, spread over the grid, whose midpoint samples a solved
    Propagator keeps (spread_samples): the floors of k (steps - 1) / 8."""
    return [k * (steps - 1) // 8 for k in range(9)]


def _midpoints(grid, k):
    """The midpoints of the steps k of a uniform grid, where solve samples h."""
    return grid[k] + grid[-1] / (len(grid) - 1) / 2


def solve(h: HamiltonianSchedule, T, steps=DEFAULT_STEPS):
    """Integrate U(t, 0) over [0, T] with a uniform grid of `steps` intervals.

    Jump discontinuities of the schedule must land on grid points (to
    1e-9 of a step, grid_node), so every step integrates a smooth piece;
    otherwise the local midpoint error drops to first order.

    The grid is walked in chunks of _CHUNK steps. Each chunk's midpoint
    samples h_k are checked to be finite (ScheduleDomainError, as when
    the integral so far overflows, or a step exponential exp(-i dt h_k)
    because dt h_k does), exponentiated into the step stack, folded to
    their block totals, and added into the integral

        G = dt sum_k h_k + (dt/24) sum_pieces [(2 h_{e-1} - 3 h_{e-2} + h_{e-3})
                                             + (2 h_s - 3 h_{s+1} + h_{s+2})],

    the midpoint rule with end corrections (Davis & Rabinowitz, Methods
    of Numerical Integration, 1984) on the pieces [s, e) cut at the
    breakpoints and kinks of h that fall on grid nodes: fourth order on
    a smooth piece of e - s >= 3 steps; a shorter piece takes the plain
    sum. Only the step stack is N long.
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
    d, L = h.dim, min(_BLOCK, steps)
    spread = spread_steps(steps)
    ends, weights = _end_corrections(h, T, steps)
    # the samples kept past their chunk: the spread ones, then those the
    # end corrections weigh
    keep = spread + ends
    kept = np.empty((len(keep), d, d), dtype=complex)
    S = None if steps <= _CHUNK else np.empty((steps, d, d), dtype=complex)
    block_totals = np.empty((d, d, -(-steps // L)), dtype=complex)
    total = np.zeros(d * d, dtype=complex)
    for a, b in chunks(steps):
        mids = _midpoints(grid, slice(a, b))
        H = np.asarray(h.eval(mids), dtype=complex)
        # a matrix product sums the stack faster, and with less rounding,
        # than a reduction along its first axis; read as reals it needs
        # no complex weights. A non-finite sample makes the integral so
        # far non-finite: only then is the stack screened sample by
        # sample, and if every sample is finite, the integral itself has
        # overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            total += (np.ones(b - a) @ H.reshape(b - a, d * d).view(float)).view(complex)
            finite_integral = np.isfinite(dt * total).all()
        if not finite_integral:
            finite = np.isfinite(H).all(axis=(1, 2))
            if not finite.all():
                raise ScheduleDomainError(
                    f"schedule is not finite at t={mids[np.argmin(finite)]:g}"
                )
            raise ScheduleDomainError(f"the integral of the schedule overflows by t={grid[b]:g}")
        for i, k in enumerate(keep):
            if a <= k < b:
                kept[i] = H[k - a]
        # dt h may overflow where the integral does not (the sum of a
        # turning field cancels): its exponential is then not finite, and
        # nor are the block totals it is folded into, which are screened
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                U = expm_skew_many(H, dt)
            except NotHermitianError as e:
                # the screen counts generators from the chunk's start: name the step
                k = np.flatnonzero(~is_hermitian(H))[0]
                raise NotHermitianError(str(e).replace(f"generator {k} ", f"generator {a + k} ", 1)) from None
            del H  # the samples are read: free them before the fold allocates
            totals = _block_prefixes(U, L)[:, :, -1]
        if not np.isfinite(totals).all():
            k = np.argmin(np.isfinite(U).all(axis=(1, 2)))
            raise ScheduleDomainError(f"the step exponential of the schedule overflows at t={mids[k]:g}")
        if S is None:
            S = U  # one chunk: the exponentials are the stack
        else:
            S[a:b] = U
        block_totals[:, :, a // L : -(-b // L)] = totals
    total += weights @ kept[len(spread) :].reshape(len(ends), d * d)
    return Propagator(grid, S, levels=_fold(block_totals.transpose(2, 0, 1)),
                      integral=dt * total.reshape(d, d), spread_samples=kept[: len(spread)])


def _end_corrections(h, T, steps):
    """The steps and weights of the end corrections of solve's midpoint
    rule: (2, -3, 1)/24 from each end of every piece of at least 3 steps."""
    dt = T / steps
    cuts = {0, steps}
    for t in h.breakpoints + h.kinks:
        if 0 < t < T and (k := grid_node(t, dt)) is not None:
            cuts.add(k)
    edges = sorted(cuts)
    ends, weights = [], []
    for s, e in zip(edges[:-1], edges[1:]):
        if e - s >= 3:
            ends += [s, s + 1, s + 2, e - 1, e - 2, e - 3]
            weights += [2 / 24, -3 / 24, 1 / 24] * 2
    return ends, np.array(weights)


def _column_product(A, B):
    """A @ B for matrices held as entry columns, A[i, j, ...] and
    B[i, j, ...] (broadcast over the trailing axes)."""
    out = A[:, 0, None] * B[None, 0]
    for j in range(1, A.shape[1]):
        out += A[:, j, None] * B[None, j]
    return out


def _block_prefixes(S, L):
    """The running products inside blocks of L consecutive matrices of a
    stack S (n, d, d), as entry columns C (d, d, L, nb):
    C[:, :, r, q] = S[qL + r] ... S[qL], with identities past the last."""
    n, d = S.shape[0], S.shape[-1]
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


def _block_totals(S):
    """The totals of the blocks of min(16, n) of a stack S (n, d, d), as
    (n / 16, d, d), copied out so that the block prefixes can be freed."""
    return _block_prefixes(S, min(_BLOCK, len(S)))[:, :, -1].transpose(2, 0, 1).copy()


def _fold(totals):
    """The fold levels of a stack from its block totals: those, then their
    block totals, and so on down to S_{n-1} ... S_0, as (1, d, d)."""
    return [totals] + (_fold(_block_totals(totals)) if len(totals) > 1 else [])


def _prefix_products(S, levels):
    """[I, S_0, S_1 S_0, ..., S_{N-1} ... S_0] in the association of the
    fold (see the module docstring), so the last is the last fold level
    bit for bit: a generator of the pieces that Propagator.pieces names."""

    def running(S, levels):
        # the same for a stack S (n, d, d) and its fold levels, _PIECE
        # steps at a time, recursing on its block totals
        n, d = S.shape[0], S.shape[-1]
        L = min(_BLOCK, n)
        # the running products at the block ends (n / L long): the one
        # block's total, or those of the block totals, one level up, joined
        ends = levels[0]
        if len(ends) > 1:
            ends = np.concatenate(list(running(ends, levels[1:])))[1:]
        for a in range(0, n, _PIECE):
            b = min(a + _PIECE, n)
            C = _block_prefixes(S[a:b], L)
            q, nb = a // L, C.shape[-1]
            # each block's prefixes applied to the product coming into it,
            # all step positions at once; the first block has none
            first = int(a == 0)
            incoming = ends[q + first - 1 : q + nb - 1].transpose(1, 2, 0)[:, :, None]
            C[:, :, :-1, first:] = _column_product(C[:, :, :-1, first:], incoming)
            C[:, :, -1] = ends[q : q + nb].transpose(1, 2, 0)
            P = np.empty((first + b - a, d, d), dtype=complex)
            P[:first] = np.eye(d)
            P[first:] = C.transpose(3, 2, 0, 1).reshape(nb * L, d, d)[: b - a]
            P[-1] = ends[q + nb - 1]  # a short last block ends where the level above does
            yield P

    return running(S, levels)
