"""End-to-end checks of the package's headline guarantees, one test per
criterion. The terminal summary (see conftest) prints one PASS/FAIL line
for each.

Criterion 5 is asserted exactly as stated even though the library
computes something else, so that the discrepancy stays visible instead
of being quietly absorbed. At (w0, w1, w) = (1, 3, 2) it expects the
fitted phase -(pi/w) hypot(w0, w1 + w) = 4.5568 (mod 2pi). That is
neither single-loop geometric phase (beta = 0.2471, 6.0361, criterion 2)
nor either eigenphase (theta = 1.4153, 4.8679); it is theta_0 + pi. The
protocol's second loop is the time- and field-reversed copy of the
first, which is exactly U(T)^-1, so the gate is the identity
(|U(2T,0) - I| = 2.9e-13) and the fitted phase is 0. Three passing tests
pin that identity behaviour of the same call:
test_gates::test_two_loop_cancels_everything,
test_gates::test_two_loop_odd_step_request_is_rounded_up and
test_cli::test_two_loop_report_is_identity_gate. Criterion 5 cannot pass
unless one of them fails; which second loop, and which gate phase, is
meant waits on the paper's gate construction.

Criterion 8 checks distance_DW against a brute-force oracle that scans a
1024^2 phase lattice and then refines every cell that can still hold the
kinked minimum (test_obspace.dw_brute_force), so it resolves the metric
to 1e-8.

Everything the failing clause depends on is asserted first, so a FAIL
line points at the clause itself, not at broken machinery.
"""

import time

import numpy as np

from test_obspace import dw_brute_force, haar_frame
from obsphase.bundle import holonomy, horizontal_lift, lift_from_propagator
from obsphase.gates import (
    GateSpec,
    cnot_equivalence,
    two_loop_protocol,
    two_qubit_gate,
    u_phi_beta,
)
from obsphase.hamiltonians import make_constant_z, make_quadratic_warp, make_rotating
from obsphase.linalg import sigma_x, sigma_z
from obsphase.obspace import (
    distance_DW,
    fiber_contains,
    from_observable,
)
from obsphase.phases import circular_distance, geometric_phases, wrap_angle
from obsphase.propagation import solve
from support import closed_form_rotating, commutes, gauge_from_unitary, random_gauge

TWO_PI = 2 * np.pi


def tilt_observable(phi):
    return -(np.sin(phi) * sigma_x + np.cos(phi) * sigma_z)


def rotating_problem(w0, w1, w):
    r = np.hypot(w0, w1 + w)
    phi = 2 * np.arctan2(w0, w1 + w + r)
    return make_rotating(w0, w1, w), TWO_PI / w, tilt_observable(phi), r, phi


def multiset_gap(a, b):
    a, b = np.sort(wrap_angle(a)), np.sort(wrap_angle(b))
    direct = np.max(circular_distance(a, b))
    swapped = np.max(circular_distance(a, b[::-1]))
    return min(direct, swapped)


def test_criterion_1_constant_field_closed_form():
    for phi in (0.0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        tic = time.perf_counter()
        h = make_constant_z(1.0)
        p = solve(h, TWO_PI, steps=4096)
        r = geometric_phases(p, h, tilt_observable(phi))
        elapsed = time.perf_counter() - tic
        want = wrap_angle([np.pi * (1 + np.cos(phi)), np.pi * (1 - np.cos(phi))])
        assert np.max(circular_distance(r.beta, want)) < 1e-6, phi
        assert np.max(circular_distance(r.theta, [np.pi, np.pi])) < 1e-6, phi
        assert elapsed < 1.0, f"{elapsed:.2f} s at phi={phi}"


def test_criterion_2_rotating_field_closed_form():
    for w0, w1, w in ((1.0, 0.0, 2.0), (1.0, 3.0, 2.0), (2.0, 1.0, 4.0)):
        h, T, X0, r, phi = rotating_problem(w0, w1, w)
        p = solve(h, T, steps=8192)
        rep = geometric_phases(p, h, X0)
        want_theta = wrap_angle([np.pi - np.pi / w * r, np.pi + np.pi / w * r])
        assert np.max(circular_distance(rep.theta, want_theta)) < 1e-6, (w0, w1, w)
        # the axial-field term enters the geometric part with a minus
        # sign; the plus-sign variant disagrees with both routes as soon
        # as w1 != 0
        swing = np.pi / w * (r - w1 * np.cos(phi))
        want_beta = wrap_angle([np.pi - swing, np.pi + swing])
        assert np.max(circular_distance(rep.beta, want_beta)) < 1e-5, (w0, w1, w)


def test_criterion_3_holonomy_route_agreement():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        w0 = rng.uniform(0.2, 2.0)
        w1 = rng.uniform(-1.0, 2.5)
        w = rng.uniform(0.8, 3.0)
        h, T, X0, _, _ = rotating_problem(w0, w1, w)
        p = solve(h, T, steps=8192)
        rep = geometric_phases(p, h, X0)  # raises CrossCheckError above 1e-5
        gap = np.max(circular_distance(rep.beta, rep.holonomy_beta))
        worst = max(worst, gap)
    assert worst <= 1e-5, worst


def test_criterion_4_invariance_suite():
    h, T, X0, _, _ = rotating_problem(1.0, 3.0, 2.0)
    p = solve(h, T, steps=8192)
    base = geometric_phases(p, h, X0)
    obs = from_observable(X0)

    warped = make_quadratic_warp(h, T)
    pw = solve(warped, T, steps=16384)
    rw = geometric_phases(pw, warped, X0)
    assert multiset_gap(base.beta, rw.beta) < 1e-6

    g = random_gauge(np.random.default_rng(4), 2)
    shifted = holonomy(
        horizontal_lift(lift_from_propagator(p, obs, start=g.in_frame(obs)))
    )
    assert multiset_gap(base.holonomy_beta, shifted.betas) < 1e-6

    ref = haar_frame(np.random.default_rng(5))
    moved = holonomy(
        horizontal_lift(lift_from_propagator(p, obs, reference=ref))
    )
    assert multiset_gap(base.holonomy_beta, moved.betas) < 1e-6


def test_criterion_5_two_loop_gate_synthesis():
    w0, w1, w = 1.0, 3.0, 2.0
    gate, rep, fit = two_loop_protocol(w0, w1, w, steps=8192)
    # dynamical cancellation and reconstruction hold for the simulated
    # double loop
    assert np.max(np.abs(rep.gamma)) <= 1e-6
    assert np.linalg.norm(gate - u_phi_beta(fit)) <= 1e-6

    claimed = wrap_angle(-(np.pi / w) * np.hypot(w0, w1 + w))
    gap = float(circular_distance(fit.beta, claimed))
    assert gap <= 1e-5, (
        f"stated single-loop value {claimed:.9f} vs fitted beta {fit.beta:.9f} "
        f"(gap {gap:.3e}); the double loop composes to the identity "
        f"(|U(2T,0) - I| = {np.linalg.norm(gate - np.eye(2)):.2e}), so its "
        "eigenphases all vanish"
    )


def test_criterion_6_gate_identities():
    assert np.allclose(
        u_phi_beta(GateSpec(0.0, np.pi / 2)), np.diag([1j, -1j]), atol=1e-12
    )
    assert np.allclose(
        u_phi_beta(GateSpec(np.pi / 2, np.pi / 2)), 1j * sigma_x, atol=1e-12
    )
    assert not commutes(GateSpec(0.0, np.pi / 2), GateSpec(np.pi / 2, np.pi / 2))
    U = two_qubit_gate(GateSpec(np.pi / 2, 0.0), GateSpec(np.pi / 2, np.pi / 2))
    equivalent, alpha = cnot_equivalence(U)
    assert equivalent
    assert abs(alpha - np.pi / 2) < 1e-9


def test_criterion_7_propagator_properties():
    w0, w1, w = 1.0, 3.0, 2.0
    h = make_rotating(w0, w1, w)
    T = np.pi

    p = solve(h, T, steps=2000)
    drift = max(np.linalg.norm(U.conj().T @ U - np.eye(2)) for U in p.unitaries)
    assert drift <= 1e-12, drift

    first = solve(h, T / 2, steps=256)
    second = solve(h.shifted(T / 2), T / 2, steps=256)
    full = solve(h, T, steps=512)
    assert np.linalg.norm(second.final() @ first.final() - full.final()) <= 1e-8

    ref = closed_form_rotating(w0, w1, w, T)
    errs = [
        np.linalg.norm(solve(h, T, steps=n).final() - ref) for n in (256, 512, 1024)
    ]
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for rate in rates:
        assert 1.8 <= rate <= 2.2, rates


def test_criterion_8_observable_space_metric():
    rng = np.random.default_rng(31)
    O0 = from_observable(sigma_z)
    for _ in range(50):
        O = haar_frame(rng)
        W = O.vectors @ O0.vectors.conj().T
        U = W @ random_gauge(rng, 2).in_frame(O0)
        g = random_gauge(rng, 2)
        assert fiber_contains(U, O, O0)
        assert fiber_contains(U @ g.in_frame(O0), O, O0)  # gauge action stays in fiber
        gauge_from_unitary(O0.vectors.conj().T @ (U.conj().T @ (U @ g.in_frame(O0))) @ O0.vectors)

    rng = np.random.default_rng(7)
    diffs = []
    for _ in range(10):
        O, O2 = haar_frame(rng), haar_frame(rng)
        diffs.append(abs(dw_brute_force(O, O2) - distance_DW(O, O2)))
    table = ", ".join(f"{d:.2e}" for d in diffs)
    assert max(diffs) <= 1e-4, f"per-pair |oracle - distance_DW| = [{table}]"
