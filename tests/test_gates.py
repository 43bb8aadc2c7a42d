import dataclasses

import numpy as np
import pytest

from obsphase.errors import DimensionMismatchError, DynamicalResidualError, NotUnitaryError
from obsphase.gates import (
    GateSpec,
    cnot_equivalence,
    read_two_loop_gate,
    rotating_problem,
    two_loop_protocol,
    two_qubit_gate,
    u_phi_beta,
)
from obsphase.linalg import sigma_x, sigma_z
from obsphase.phases import geometric_phases
from obsphase.propagation import Propagator, solve
from support import commutes


def circ_dist(a, b):
    d = (a - b) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


# ---------------------------------------------------------------- u_phi_beta


def test_untilted_quarter_gate_is_diag_i():
    U = u_phi_beta(GateSpec(phi=0.0, beta=np.pi / 2))
    assert np.allclose(U, np.diag([1j, -1j]), atol=1e-12)


def test_equator_quarter_gate_is_i_sigma_x():
    U = u_phi_beta(GateSpec(phi=np.pi / 2, beta=np.pi / 2))
    assert np.allclose(U, 1j * sigma_x, atol=1e-12)


def test_zero_beta_is_identity_for_any_tilt():
    for phi in [0.0, 0.3, np.pi / 2, 2.0, np.pi]:
        assert np.allclose(u_phi_beta(GateSpec(phi, 0.0)), np.eye(2), atol=1e-12)


def test_beta_pi_is_minus_identity():
    for phi in [0.0, 1.1, np.pi / 2]:
        assert np.allclose(u_phi_beta(GateSpec(phi, np.pi)), -np.eye(2), atol=1e-12)


def test_gate_is_special_unitary_on_grid():
    for phi in np.linspace(0, np.pi, 7):
        for beta in np.linspace(0, 2 * np.pi, 7):
            U = u_phi_beta(GateSpec(phi, beta))
            assert np.allclose(U @ U.conj().T, np.eye(2), atol=1e-12)
            assert abs(np.linalg.det(U) - 1) < 1e-12

def test_gate_is_rotation_about_tilted_axis():
    # cos(beta) I + i sin(beta) (sin(phi) sx + cos(phi) sz)
    phi, beta = 0.8, 1.7
    n_dot_sigma = np.sin(phi) * sigma_x + np.cos(phi) * sigma_z
    want = np.cos(beta) * np.eye(2) + 1j * np.sin(beta) * n_dot_sigma
    assert np.allclose(u_phi_beta(GateSpec(phi, beta)), want, atol=1e-12)


# ------------------------------------------------------------------ commutes


def test_distinct_tilts_with_generic_betas_do_not_commute():
    assert not commutes(GateSpec(0.0, np.pi / 2), GateSpec(np.pi / 2, np.pi / 2))


def test_gate_commutes_with_itself_and_with_minus_identity():
    a = GateSpec(0.9, 1.3)
    assert commutes(a, a)
    assert commutes(a, GateSpec(2.2, np.pi))


def test_commutation_criterion_on_grid():
    # commute iff the tilts differ by k*pi or either beta is k*pi
    def near_kpi(x):
        return circ_dist(2 * (x % np.pi), 0.0) < 2e-9 or (x % np.pi) < 1e-9 or (
            np.pi - (x % np.pi)
        ) < 1e-9

    phi_b, beta_b = 0.4, 0.7
    b = GateSpec(phi_b, beta_b)
    for dphi in np.linspace(0, 2 * np.pi, 21):
        for beta in np.linspace(0, 2 * np.pi, 21):
            a = GateSpec(phi_b + dphi, beta)
            expect = near_kpi(dphi) or near_kpi(beta) or near_kpi(beta_b)
            assert commutes(a, b) == expect, (dphi, beta)


# ------------------------------------------------------------- two-qubit gate


def test_block_gate_layout():
    U = two_qubit_gate(GateSpec(np.pi / 2, 0.0), GateSpec(np.pi / 2, np.pi / 2))
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = np.eye(2)
    want[2:, 2:] = 1j * sigma_x
    assert np.allclose(U, want, atol=1e-12)


def test_block_gate_preserves_control_populations():
    U = two_qubit_gate(GateSpec(0.3, 1.1), GateSpec(1.9, 0.4))
    P0 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    assert np.allclose(U @ P0 - P0 @ U, 0, atol=1e-12)
    assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-12)


# ---------------------------------------------------------- cnot_equivalence


def test_exact_cnot_is_equivalent_with_zero_phase():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    ok, alpha = cnot_equivalence(cnot)
    assert ok
    assert abs(alpha) < 1e-12


def test_geometric_block_gate_is_cnot_with_quarter_phase():
    U = two_qubit_gate(GateSpec(np.pi / 2, 0.0), GateSpec(np.pi / 2, np.pi / 2))
    ok, alpha = cnot_equivalence(U)
    assert ok
    assert abs(alpha - np.pi / 2) < 1e-12


def test_phase_gate_block_is_not_cnot():
    U = np.zeros((4, 4), dtype=complex)
    U[:2, :2] = np.eye(2)
    U[2:, 2:] = sigma_z
    ok, _ = cnot_equivalence(U)
    assert not ok


def test_cnot_equivalence_input_checks():
    with pytest.raises(DimensionMismatchError):
        cnot_equivalence(np.eye(2))
    with pytest.raises(NotUnitaryError):
        cnot_equivalence(np.eye(4) * 1.5)


# --------------------------------------------------------- two-loop protocol


def test_two_loop_cancels_everything():
    # The reversed second loop undoes the first one entirely: the
    # composite propagator is the identity, so the fitted beta vanishes
    # along with the dynamical phases. Checked here as the actual
    # behavior of the protocol.
    gate, report, spec = two_loop_protocol(1.0, 3.0, 2.0, steps=4096)
    assert np.linalg.norm(gate - np.eye(2)) < 1e-6
    assert np.max(np.abs(report.gamma)) < 1e-8
    assert circ_dist(spec.beta, 0.0) < 1e-6
    for t in report.theta:
        assert circ_dist(t, 0.0) < 1e-6

    # and in particular the fitted beta is nowhere near the single-loop
    # value -(pi/w) * sqrt(w0^2 + (w1+w)^2) for these parameters
    claimed = (-(np.pi / 2.0) * np.hypot(1.0, 5.0)) % (2 * np.pi)
    assert circ_dist(spec.beta, claimed) > 1.0


def test_two_loop_gate_matches_its_fitted_spec():
    gate, _, spec = two_loop_protocol(1.0, 0.0, 2.0, steps=4096)
    assert np.linalg.norm(gate - u_phi_beta(spec)) < 1e-6


def test_two_loop_tilt_angle_tracks_parameters():
    _, _, spec = two_loop_protocol(0.0, 1.0, 2.0, steps=512)
    assert abs(spec.phi) < 1e-12
    _, _, spec = two_loop_protocol(1.0, 3.0, 2.0, steps=512)
    r = np.hypot(1.0, 5.0)
    assert abs(spec.phi - 2 * np.arctan2(1.0, 5.0 + r)) < 1e-12


def test_two_loop_odd_step_request_is_rounded_up():
    gate, _, _ = two_loop_protocol(1.0, 0.0, 2.0, steps=511)
    assert np.linalg.norm(gate - np.eye(2)) < 1e-3


def test_identity_gate_reads_beta_zero_not_two_pi():
    # rounding leaves the identity gate's phase at about -1e-15, which
    # wraps to just below 2pi unless the library reads it as 0
    _, _, spec = two_loop_protocol(1.0, 3.0, 2.0, steps=8192)
    assert 0.0 <= spec.beta <= 1e-12


def test_a_gate_phase_just_below_zero_reads_beta_zero():
    # a matched phase of -1e-13 wraps to 2pi - 1e-13, within 1e-12 of 2pi,
    # so the gate is read as the identity
    _, report, _ = two_loop_protocol(1.0, 0.0, 2.0, steps=512)
    p = Propagator(np.array([0.0, 1.0]), (np.exp(-1e-13j) * np.eye(2))[None])
    _, spec = read_two_loop_gate(p, report, 0.0)
    assert spec.beta == 0.0


def test_a_nan_dynamical_phase_fails_the_cancellation_check():
    h, T, X0, steps = rotating_problem(1.0, 3.0, 2.0, 512, two_loop=True)
    p = solve(h, T, steps=steps)
    report = geometric_phases(p, h, X0)
    read_two_loop_gate(p, report, 0.0)
    with pytest.raises(DynamicalResidualError, match="worst residual nan"):
        read_two_loop_gate(p, dataclasses.replace(report, gamma=np.array([np.nan, 0.0])), 0.0)
