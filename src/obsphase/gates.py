"""Geometric gate synthesis.

A cyclic qubit observable tilted by angle phi from the z axis, together
with a geometric phase beta, determines the single-qubit gate

    U(phi, beta) = e^{i beta} P_+ + e^{-i beta} P_-
                 = cos(beta) I + i sin(beta) (sin(phi) sigma_x + cos(phi) sigma_z),

realized physically by the two-loop protocol that cancels all dynamical
phases. Two such gates on the blocks of a control qubit assemble the
geometric CNOT.
"""

import numpy as np
from dataclasses import dataclass

from .errors import DimensionMismatchError, DynamicalResidualError, NotUnitaryError
from .hamiltonians import make_rotating, make_two_loop
from .linalg import is_unitary, sigma_x, sigma_z
from .obspace import TWO_PI, match_columns, wrap_angle
from .phases import geometric_phases
from .propagation import DEFAULT_STEPS, solve


@dataclass(frozen=True)
class GateSpec:
    """Gate parameters: observable tilt phi and geometric phase beta (rad)."""

    phi: float
    beta: float


def u_phi_beta(spec: GateSpec):
    """The single-qubit geometric gate for the given spec; det = 1."""
    c2 = np.cos(spec.phi / 2) ** 2
    s2 = np.sin(spec.phi / 2) ** 2
    ep, em = np.exp(1j * spec.beta), np.exp(-1j * spec.beta)
    off = 1j * np.sin(spec.phi) * np.sin(spec.beta)
    return np.array(
        [[ep * c2 + em * s2, off], [off, ep * s2 + em * c2]], dtype=complex
    )


def two_qubit_gate(spec0: GateSpec, spec1: GateSpec):
    """Block gate diag(U(spec0), U(spec1)) in the basis |00>,|01>,|10>,|11>:
    spec0 acts on the target when the control is |0>, spec1 when |1>."""
    U = np.zeros((4, 4), dtype=complex)
    U[:2, :2] = u_phi_beta(spec0)
    U[2:, 2:] = u_phi_beta(spec1)
    return U


def cnot_equivalence(U):
    """Whether U = diag(I, e^{i alpha} sigma_x), i.e. a CNOT up to an
    overall phase on the flipped block, with each 2 x 2 block within
    1e-8 in Frobenius norm. Returns (equivalent, alpha)."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise DimensionMismatchError("cnot_equivalence expects a two-qubit gate")
    if not is_unitary(U):
        raise NotUnitaryError("gate must be unitary")
    alpha = float(wrap_angle(np.angle((U[2, 3] + U[3, 2]) / 2))) if abs(
        U[2, 3] + U[3, 2]
    ) > 1e-12 else 0.0
    target = np.exp(1j * alpha) * np.array([[0.0, 1.0], [1.0, 0.0]])
    blocks = (U[:2, :2] - np.eye(2), U[:2, 2:], U[2:, :2], U[2:, 2:] - target)
    return all(np.linalg.norm(b) <= 1e-8 for b in blocks), alpha


def cyclic_tilt(w0, w1, w):
    """Tilt from the z axis of the observable that one period of the
    rotating field returns to itself."""
    r = np.hypot(w0, w1 + w)
    return 2 * np.arctan2(w0, w1 + w + r)


def tilted_observable(phi):
    """The qubit observable -(sin(phi) sigma_x + cos(phi) sigma_z)."""
    return -(np.sin(phi) * sigma_x + np.cos(phi) * sigma_z)


def rotating_problem(w0, w1, w, steps, two_loop=False):
    """(schedule, duration, cyclic observable, steps) of one rotating-field
    loop, or of the loop followed by its time-and-field-reversed copy."""
    h, T = make_rotating(w0, w1, w), TWO_PI / abs(w)
    if two_loop:
        h, T = make_two_loop(h, T), 2 * T
        steps = int(steps) + int(steps) % 2  # the reversal point must sit on the grid
    return h, T, tilted_observable(cyclic_tilt(w0, w1, w)), int(steps)


def read_two_loop_gate(p, report, phi):
    """The gate U(2T, 0) of a solved double loop whose phase report must
    show cancelled dynamical phases, and its fitted GateSpec: tilt phi of
    the observable, and beta read from the gate's matched overlaps in the
    report's observable frame (the same phase reading detect_cyclic
    uses)."""
    worst = float(np.max(np.abs(report.gamma)))
    if not worst <= 1e-6:  # a NaN residual fails too
        raise DynamicalResidualError(
            f"dynamical phases failed to cancel over the double loop "
            f"(worst residual {worst:.3e})"
        )
    gate = p.final()
    F = report.lift.reference.vectors
    M = F.conj().T @ gate @ F
    perm, _, _ = match_columns(M, tol=1e-6)
    beta = float(wrap_angle(np.angle(M[perm[0], 0])))
    # rounding can leave the phase of an identity gate at -1e-15, which
    # wraps to just below 2pi; that phase is 0
    if TWO_PI - beta <= 1e-12:
        beta = 0.0
    return gate, GateSpec(phi=float(phi), beta=beta)


def two_loop_protocol(w0, w1, w, steps=DEFAULT_STEPS):
    """Drive the rotating-field loop and then its time-and-field-reversed
    copy, so every dynamical phase cancels, and read the resulting gate.

    Returns (gate, report, spec): the simulated U(2T, 0), the phase
    report of the double loop, and the fitted GateSpec (see
    read_two_loop_gate).
    """
    h, T, X0, steps = rotating_problem(w0, w1, w, steps, two_loop=True)
    p = solve(h, T, steps=steps)
    report = geometric_phases(p, h, X0)
    gate, spec = read_two_loop_gate(p, report, cyclic_tilt(w0, w1, w))
    return gate, report, spec
