"""End-to-end extraction of the geometric phases of a cyclic evolution.

For an initial observable X0 whose Heisenberg evolution closes at time
T, the total phase theta_n of each eigenstate splits as

    theta_n = gamma_n + beta_n   (mod 2pi),

with gamma_n the time integral of the energy expectation in the FIXED
initial eigenstate and beta_n the geometric remainder. beta_n is also,
independently, the holonomy of the horizontal lift of the projected
curve; geometric_phases computes both and cross-checks them.
"""

import math

import numpy as np
from dataclasses import dataclass

from .bundle import LiftCurve, holonomy, horizontal_lift, lift_from_propagator
from .errors import CrossCheckError, NotCyclicError
from .hamiltonians import HamiltonianSchedule
from .obspace import TWO_PI, OrthDecomposition, from_observable, match_columns, wrap_angle
from .propagation import Propagator

CYCLIC_TOL = 1e-6
CROSS_TOL = 1e-5


def circular_distance(a, b):
    """Distance on the circle, elementwise, in [0, pi]."""
    d = wrap_angle(np.abs(np.asarray(a) - np.asarray(b)))
    return np.minimum(d, TWO_PI - d)


@dataclass(frozen=True)
class CyclicityCheck:
    is_cyclic: bool
    thetas: np.ndarray
    permutation: tuple
    residual: float
    frame: OrthDecomposition  # the eigenframe of X0 the thetas were read in


def detect_cyclic(p: Propagator, X0, tol=CYCLIC_TOL):
    """Check whether X0 returns to itself under the Heisenberg evolution.

    Cyclic means every initial eigenstate is reproduced up to phase by
    U(0, T); the phases are the thetas. If the eigenframe instead comes
    back permuted, the evolution is reported non-cyclic with the
    permutation attached (the observable still closes as a decomposition,
    but no per-level total phase exists).
    """
    obs = from_observable(np.asarray(X0, dtype=complex))
    V = p.final().conj().T
    M = obs.vectors.conj().T @ V @ obs.vectors
    perm, amps, ok = match_columns(M, tol)
    thetas = wrap_angle(np.angle(M[perm, np.arange(obs.dim)]))
    identity = tuple(range(obs.dim))
    return CyclicityCheck(
        is_cyclic=bool(ok and tuple(int(m) for m in perm) == identity),
        thetas=thetas,
        permutation=tuple(int(m) for m in perm),
        residual=float(np.max(1.0 - amps)),
        frame=obs,
    )


def dynamical_phase(h: HamiltonianSchedule, psi, T, steps):
    """Simpson quadrature of t -> <psi| h(t) |psi> over [0, T].

    psi is a ket, or a frame with the kets as columns (as in
    OrthDecomposition.vectors), held fixed (the initial eigenvectors);
    a ket gives a float, a frame one integral per column. The quadrature
    is applied piecewise between the schedule's jump points so that no
    panel straddles a discontinuity; each piece is sampled in one
    schedule evaluation for all kets and weighted
    (1, 4, 2, ..., 2, 4, 1) * dt / 3.
    """
    if steps % 2 != 0:
        raise ValueError("steps must be even for composite Simpson")
    psi = np.asarray(psi, dtype=complex)
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


@dataclass(frozen=True)
class PhaseReport:
    """Per-level phase data of one cyclic evolution.

    theta, beta and holonomy_beta live in [0, 2pi); gamma and beta_raw
    (= theta - gamma before reduction) are unreduced reals. beta equals
    beta_raw mod 2pi by construction. lift is the horizontal lift that
    holonomy_beta was read from; its reference is the eigenframe of X0.
    """

    theta: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    beta_raw: np.ndarray
    holonomy_beta: np.ndarray
    cyclicity_residual: float
    cross_residual: float
    closure_permutation: tuple
    lift: LiftCurve

    @property
    def dim(self):
        return len(self.theta)


def geometric_phases(
    p: Propagator, h: HamiltonianSchedule, X0, tol=CYCLIC_TOL, cross_tol=CROSS_TOL
):
    """Full phase extraction with the holonomy cross-check.

    h must be the schedule the propagator was solved from (the dynamical
    integral reuses it; there is no resampling). Raises NotCyclic when
    the observable does not return, and CrossCheck when the two routes
    to beta disagree beyond cross_tol.
    """
    cyc = detect_cyclic(p, X0, tol)
    if not cyc.is_cyclic:
        raise NotCyclicError(
            f"observable does not return at T={p.duration:g}: "
            f"residual {cyc.residual:.3e}, permutation {cyc.permutation}"
        )
    obs = cyc.frame
    gamma = dynamical_phase(h, obs.vectors, p.duration, p.steps + (p.steps % 2))
    beta_raw = cyc.thetas - gamma
    beta = wrap_angle(beta_raw)

    lift = horizontal_lift(lift_from_propagator(p, obs))
    hol = holonomy(lift, tol=tol)
    gaps = circular_distance(beta, hol.betas)
    cross = float(np.max(gaps))
    if cross > cross_tol:
        # both routes carry the O(dt^2) step error, so each doubling of
        # the steps divides the gap by about 4
        doublings = max(1, math.ceil(math.log(cross / cross_tol, 4)))
        raise CrossCheckError(
            f"phase-difference route and holonomy route disagree: "
            f"max gap {cross:.3e} > {cross_tol:g} at {p.steps} steps "
            f"(beta {beta}, holonomy {hol.betas}); the O(dt^2) rate predicts "
            f"that {p.steps * 2**doublings} steps pass"
        )
    return PhaseReport(
        theta=cyc.thetas,
        gamma=gamma,
        beta=beta,
        beta_raw=beta_raw,
        holonomy_beta=hol.betas,
        cyclicity_residual=cyc.residual,
        cross_residual=cross,
        closure_permutation=hol.permutation,
        lift=lift,
    )
