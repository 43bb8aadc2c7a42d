"""Time-dependent Hamiltonians as evaluatable schedules.

A schedule is a closed object mapping times to Hermitian matrices, so
that integrators can choose their own grids. It is evaluated on arrays:
fn takes n times and returns the (n, d, d) stack, so a whole grid is
sampled in one call. Preset factories cover the constant and rotating
qubit fields, and combinators build the reversed and two-loop protocols
from any inner schedule.

Conventions: only the products omega_i = mu*B_i enter (mu and B are
never stored separately); all frequencies in rad/time.
"""

import numpy as np
from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    ScheduleDomainError,
    ZeroFieldError,
    ZeroFrequencyError,
)
from .linalg import require_hermitian, sigma_x, sigma_y, sigma_z

UNBOUNDED = (-np.inf, np.inf)

# domain slack for endpoint evaluation
_EDGE = 1e-12


@dataclass(frozen=True)
class HamiltonianSchedule:
    """A piecewise-smooth map t -> Hermitian (dim, dim) matrix.

    kind       -- one of Constant, RotatingField, Reversed, TwoLoop,
                  BlockDiag, Tabulated, Warped
    domain     -- (t_start, t_end); evaluation outside raises
    fn         -- takes a 1-d array of n times inside the domain and
                  returns the (n, dim, dim) stack of matrices
    breakpoints -- interior times where eval jumps; integrators must
                  align their grids on these
    """

    dim: int
    kind: str
    domain: tuple
    fn: callable = None
    breakpoints: tuple = ()

    def eval(self, t):
        """h(t) as a (dim, dim) matrix for a scalar t, or as the
        (n, dim, dim) stack for a 1-d array of n times."""
        ts = np.asarray(t, dtype=float)
        lo, hi = self.domain
        outside = ~((lo - _EDGE <= ts) & (ts <= hi + _EDGE))
        if np.any(outside):
            raise ScheduleDomainError(
                f"t={ts.flat[np.argmax(outside)]:g} outside schedule domain [{lo:g}, {hi:g}]"
            )
        if ts.ndim == 0:
            return self.fn(ts.reshape(1))[0]
        return self.fn(ts)

    def shifted(self, t0):
        """Schedule u -> eval(u + t0), domain moved accordingly."""
        lo, hi = self.domain
        return HamiltonianSchedule(
            dim=self.dim,
            kind="Warped",
            domain=(lo - t0, hi - t0),
            fn=lambda u: self.fn(u + t0),
            breakpoints=tuple(b - t0 for b in self.breakpoints),
        )


def make_constant_z(mu_B):
    """Homogeneous field along z: h = -(mu_B/2) sigma_z, defined for all t."""
    if mu_B == 0:
        raise ZeroFieldError("constant-field schedule needs mu_B != 0")
    H = -(mu_B / 2) * sigma_z
    return HamiltonianSchedule(
        dim=2,
        kind="Constant",
        domain=UNBOUNDED,
        fn=lambda t: np.tile(H, (len(t), 1, 1)),
    )


def make_rotating(w0, w1, w):
    """Rotating background field:

        h(t) = -(1/2)(w0 sigma_x cos wt + w0 sigma_y sin wt + w1 sigma_z)

    with period 2 pi / |w|.
    """
    if w == 0:
        raise ZeroFrequencyError("rotating-field schedule needs w != 0")

    def fn(t):
        wt = w * t[:, None, None]
        return -0.5 * (w0 * np.cos(wt) * sigma_x + w0 * np.sin(wt) * sigma_y + w1 * sigma_z)

    return HamiltonianSchedule(
        dim=2,
        kind="RotatingField",
        domain=UNBOUNDED,
        fn=fn,
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


def make_two_loop(inner, T):
    """First traverse inner over [0, T], then its reversed copy on [T, 2T]:

        eval(t) = inner(t)        for t in [0, T)
                = -inner(2T - t)  for t in [T, 2T]

    The join at t = T is generally a jump, so T is a breakpoint.
    """
    lo, hi = inner.domain
    if lo > 0 or hi < T:
        raise ScheduleDomainError("inner schedule does not cover [0, T]")

    def fn(t):
        first = t < T
        H = np.empty((len(t), inner.dim, inner.dim), dtype=complex)
        H[first] = inner.fn(t[first])
        H[~first] = -inner.fn(2 * T - t[~first])
        return H

    inner_bps = [b for b in inner.breakpoints if 0 < b < T]
    bps = sorted(inner_bps + [T] + [2 * T - b for b in inner_bps])
    return HamiltonianSchedule(
        dim=inner.dim,
        kind="TwoLoop",
        domain=(0.0, 2 * T),
        fn=fn,
        breakpoints=tuple(bps),
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


def make_tabulated(times, samples):
    """Entrywise linear interpolation of Hermitian samples.

    times must be strictly increasing; each sample must pass is_hermitian
    (NotHermitianError names the first that fails). Their Hermitian parts
    (H + H^dagger) / 2 are interpolated, so H(t) is exactly Hermitian even
    where a blend of two samples is small.
    """
    times = np.asarray(times, dtype=float)
    samples = np.asarray(samples, dtype=complex)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need at least two samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    if samples.shape[0] != len(times) or samples.shape[1] != samples.shape[2]:
        raise DimensionMismatchError(
            f"samples shape {samples.shape} does not match {len(times)} times"
        )
    require_hermitian(samples, "sample")
    samples = (samples + np.swapaxes(samples, -1, -2).conj()) / 2

    def fn(t):
        k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
        lam = np.clip((t - times[k]) / (times[k + 1] - times[k]), 0.0, 1.0)[:, None, None]
        return (1 - lam) * samples[k] + lam * samples[k + 1]

    return HamiltonianSchedule(
        dim=samples.shape[1],
        kind="Tabulated",
        domain=(float(times[0]), float(times[-1])),
        fn=fn,
    )


def make_warped(inner, warp, dwarp, duration, breakpoints=()):
    """Time-reparameterized schedule h_w(u) = warp'(u) * inner(warp(u)).

    warp must be a monotone C^1 map [0, duration] -> inner.domain;
    warp and dwarp (its derivative) receive and return arrays of times.
    The propagator of h_w at u then equals the inner propagator at warp(u),
    which is what reparameterization invariance of the geometric phase
    is about. Jump locations of inner must be supplied as preimages in
    breakpoints (the natural warps used here are smooth over smooth
    schedules, so this is rarely needed).
    """
    return HamiltonianSchedule(
        dim=inner.dim,
        kind="Warped",
        domain=(0.0, duration),
        fn=lambda u: dwarp(u)[:, None, None] * inner.fn(warp(u)),
        breakpoints=tuple(breakpoints),
    )


def make_quadratic_warp(inner, T):
    """Quadratic time warp of inner over [0, T]: s(u) = u^2 / T, written
    as T (u/T)^2 so that u^2 cannot overflow for a T near the float range."""
    return make_warped(inner, lambda u: T * (u / T) ** 2, lambda u: 2 * (u / T), T)


def make_zero(dim):
    """The zero schedule (free evolution), defined for all t."""
    return HamiltonianSchedule(
        dim=dim,
        kind="Constant",
        domain=UNBOUNDED,
        fn=lambda t: np.zeros((len(t), dim, dim), dtype=complex),
    )
