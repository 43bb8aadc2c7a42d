"""End-to-end extraction of the geometric phases of a cyclic evolution.

For an initial observable X0 whose Heisenberg evolution closes at time
T, the total phase theta_n of each eigenstate splits as

    theta_n = gamma_n + beta_n   (mod 2pi),

with gamma_n the time integral of the energy expectation in the FIXED
initial eigenstate and beta_n the geometric remainder. beta_n is also,
independently, the holonomy of the horizontal lift of the projected
curve; geometric_phases computes both and cross-checks them.

A phase report samples the schedule once: gamma_n = Re <f_n|G|f_n> is
read off the integral G of h that the solve summed from the midpoint
samples it integrated (Propagator.integral), by the midpoint rule with
end corrections on the smooth pieces between the schedule's jumps and
grid-node kinks, so theta and gamma see the same values of h. That is
the package's one route to gamma; Simpson's rule on freshly sampled
nodes, the reference the tests hold it to, lives in tests/support.py.

The paper's invariances of beta (reparameterization of the cycle, the
gauge at the start of the lift, the reference frame) are checked in one
place, invariance_residuals, which the CLI's report checks call.
"""

import math

import numpy as np
from dataclasses import dataclass

from . import propagation
from .bundle import LiftCurve, holonomy, horizontal_lift, lift_from_propagator
from .errors import CrossCheckError, NotCyclicError
from .hamiltonians import HamiltonianSchedule, make_quadratic_warp
from .linalg import frame_diagonals, frame_pairs
from .obspace import (
    TWO_PI, GaugeElement, OrthDecomposition, from_observable, match_columns, wrap_angle
)

CYCLIC_TOL = 1e-6
CROSS_TOL = 1e-5


def circular_distance(a, b):
    """Distance on the circle, elementwise, in [0, pi]."""
    d = wrap_angle(np.abs(np.asarray(a) - np.asarray(b)))
    return np.minimum(d, TWO_PI - d)


def multiset_gap(a, b):
    """Smallest worst-case circular distance over pairings of the two
    phase multisets (levels may come back permuted). Around a circle,
    windows of equal width keep their order, so any pairing within a
    radius uncrosses into a cyclic shift of the sorted order: only the d
    shifts are tried, of phases sorted mod 2pi, with the distances taken
    on the given values."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    a, b, d = a[np.argsort(a % TWO_PI)], b[np.argsort(b % TWO_PI)], len(b)
    shifts = b[(np.arange(d)[:, None] + np.arange(d)) % d]
    return float(np.min(np.max(circular_distance(a, shifts), axis=1)))


@dataclass(frozen=True)
class CyclicityCheck:
    is_cyclic: bool
    thetas: np.ndarray
    permutation: tuple  # None when no one-to-one match of the frame exists
    residual: float  # 1 - the worst alignment, at least 0
    frame: OrthDecomposition  # the eigenframe of X0 the thetas were read in


def detect_cyclic(p: propagation.Propagator, X0, tol=CYCLIC_TOL):
    """Check whether X0 returns to itself under the Heisenberg evolution.

    Cyclic means every initial eigenstate is reproduced up to phase by
    U(0, T); the phases are the thetas. If the eigenframe instead comes
    back permuted, the evolution is reported non-cyclic with the
    permutation attached (the observable still closes as a decomposition,
    but no per-level total phase exists). When the best-aligned initial
    vectors repeat, no permutation matches, and permutation is None.
    """
    obs = from_observable(np.asarray(X0, dtype=complex))
    V = p.final().conj().T
    M = obs.vectors.conj().T @ V @ obs.vectors
    perm, amps, ok = match_columns(M, tol)
    thetas = wrap_angle(np.angle(M[perm, np.arange(obs.dim)]))
    matched = tuple(int(m) for m in perm)
    return CyclicityCheck(
        is_cyclic=bool(ok and matched == tuple(range(obs.dim))),
        thetas=thetas,
        permutation=matched if sorted(matched) == list(range(obs.dim)) else None,
        # an amplitude that rounds above 1 is no deficit; a NaN stays NaN
        residual=float(np.maximum(np.max(1.0 - amps), 0.0)),
        frame=obs,
    )


def dynamical_phase(psi, integral):
    """The integral of t -> <psi| h(t) |psi> over [0, T], read off the
    d x d matrix G ~ int_0^T h dt (Propagator.integral, which solve sums
    from the midpoint samples it integrated) as Re <psi|G|psi>, since it
    is linear in h.

    psi is a ket, or a frame with the kets as columns (as in
    OrthDecomposition.vectors), held fixed (the initial eigenvectors);
    a ket gives a float, a frame one integral per column.
    """
    psi = np.asarray(psi, dtype=complex)
    G, d = np.asarray(integral), len(psi)
    if G.shape != (d, d):
        raise ValueError(f"need a {d} x {d} integral for kets of {d} entries, got {G.shape}")
    totals = frame_diagonals(G[None], frame_pairs(psi.reshape(d, -1)))[0].real
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


def geometric_phases(p: propagation.Propagator, h: HamiltonianSchedule, X0, tol=CYCLIC_TOL):
    """Full phase extraction with the holonomy cross-check.

    p must come from solve(h, ...): gamma is read off the integral of h
    that the solve took from its midpoint samples. Raises NotCyclic when
    the observable does not return, and CrossCheck when h differs from
    the propagator's samples at its 9 spread midpoints
    or the two routes to beta disagree beyond CROSS_TOL; a
    NotCyclicError carries the failed CyclicityCheck as its check.
    """
    cyc = detect_cyclic(p, X0, tol)
    if not cyc.is_cyclic:
        if cyc.permutation is None:
            closure = (
                "no one-to-one match of the final eigenframe onto the initial one "
                f"was found (worst alignment {1.0 - cyc.residual:.6f})"
            )
        else:
            closure = f"permutation {cyc.permutation}"
        raise NotCyclicError(
            f"observable does not return at T={p.duration:g}: "
            f"residual {cyc.residual:.3e}, {closure}",
            cyc,
        )
    obs = cyc.frame
    _require_solved_from(p, h)
    gamma = dynamical_phase(obs.vectors, p.integral)
    beta_raw = cyc.thetas - gamma
    beta = wrap_angle(beta_raw)

    lift = horizontal_lift(lift_from_propagator(p, obs))
    hol = holonomy(lift, tol=tol)
    gaps = circular_distance(beta, hol.betas)
    cross = float(np.max(gaps))
    if not (cross <= CROSS_TOL):  # written so that a NaN gap fails
        msg = (
            f"phase-difference route and holonomy route disagree: "
            f"max gap {cross:.3e} > {CROSS_TOL:g} at {p.steps} steps "
            f"(beta {beta}, holonomy {hol.betas})"
        )
        if math.isfinite(cross):
            # both routes carry the O(dt^2) step error, so each doubling
            # of the steps divides the gap by about 4
            doublings = max(1, math.ceil(math.log(cross / CROSS_TOL, 4)))
            msg += f"; the O(dt^2) rate predicts that {p.steps * 2**doublings} steps pass"
        raise CrossCheckError(msg)
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


def _require_solved_from(p, h):
    """Raise CrossCheckError unless h gives p's midpoint samples, to 1e-12
    of their largest entry, at the 9 midpoints spread over the grid that p
    keeps."""
    k = propagation.spread_steps(p.steps)
    want = p.spread_samples
    # the midpoints as solve computed them
    gap = np.abs(h.eval(p.grid[k] + p.duration / p.steps / 2) - want).max()
    if not gap <= 1e-12 * np.abs(want).max():
        raise CrossCheckError(
            f"the schedule differs from the samples the propagator was solved from "
            f"by up to {gap:.3e} at 9 spread midpoints"
        )


def invariance_residuals(p, h, report: PhaseReport, checks, tol=CYCLIC_TOL):
    """{check: multiset_gap by which report.holonomy_beta moves}, in the order
    of checks, all from report's frame, of dimension d: "reparameterization"
    re-solves h under the quadratic warp of p's duration and steps,
    "gauge-start" lifts p from the gauge element that sends level n to
    (n + 1) mod d with phase n + 1 rad, and "reference-frame" reads the fiber
    in the d-point Fourier frame, F_jk = e^{2 pi i jk / d} / sqrt(d). The
    gauge and frame are fixed, so each residual depends on its own check
    alone, not on the others listed or their order."""
    obs = report.lift.reference
    d, n = obs.dim, np.arange(obs.dim)
    out = {}
    for check in checks:
        q, reference, start = p, None, None
        if check == "reparameterization":
            # through the module, so that a wrapped propagation.solve sees it
            q = propagation.solve(make_quadratic_warp(h, p.duration), p.duration, steps=p.steps)
        elif check == "gauge-start":
            start = GaugeElement(perm=tuple((n + 1) % d), phases=tuple(n + 1.0)).in_frame(obs)
        elif check == "reference-frame":
            reference = OrthDecomposition(np.exp(1j * TWO_PI / d * np.outer(n, n)) / np.sqrt(d))
        else:
            raise ValueError(f"unknown invariance check {check!r}")
        hor = horizontal_lift(lift_from_propagator(q, obs, reference=reference, start=start))
        out[check] = multiset_gap(report.holonomy_beta, holonomy(hor, tol=tol).betas)
    return out
