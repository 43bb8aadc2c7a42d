import warnings

import numpy as np
import pytest
import scipy.linalg

from obsphase import propagation
from obsphase.errors import (
    DimensionMismatchError,
    NotHermitianError,
    ScheduleDomainError,
)
from obsphase.hamiltonians import (
    HamiltonianSchedule,
    make_constant_z,
    make_rotating,
    make_tabulated,
    make_two_loop,
    make_warped,
)
from obsphase.linalg import expm_skew_many, sigma_x, sigma_y, sigma_z
from obsphase.propagation import solve
from support import (
    closed_form_rotating,
    exact_constant_propagator,
    exact_rotating_propagator,
    expm_skew,
    heisenberg_evolve,
    inverse_at,
    make_zero,
)


def test_constant_field_matches_closed_form():
    T = 2 * np.pi
    p = solve(make_constant_z(1.0), T, steps=10_000)
    q = exact_constant_propagator(1.0, T, steps=10_000)
    # the midpoint generator is the exact constant generator here
    for k in (0, 1, 2500, 10_000):
        assert np.linalg.norm(p.unitaries[k] - q.unitaries[k]) < 1e-8


def test_zero_schedule_gives_identity():
    p = solve(make_zero(3), 1.0, steps=16)
    assert np.allclose(p.unitaries, np.eye(3))


def test_rotating_matches_closed_form():
    p = solve(make_rotating(1.0, 0.0, 2.0), np.pi, steps=10_000)
    assert np.linalg.norm(p.final() - closed_form_rotating(1.0, 0.0, 2.0, np.pi)) < 1e-7


def test_closed_form_rotating_basics():
    assert np.allclose(closed_form_rotating(1.0, 3.0, 2.0, 0.0), np.eye(2))
    # w0 = 0: the two diagonal exponentials combine to exp(i t w1 sigma_z / 2)
    t, w1 = 0.9, 1.3
    U = closed_form_rotating(0.0, w1, 2.0, t)
    assert np.allclose(U, np.diag([np.exp(1j * w1 * t / 2), np.exp(-1j * w1 * t / 2)]))


def test_closed_form_rotating_vs_expm():
    # independent oracle: scipy expm of the two factors
    w0, w1, w, t = 1.0, 0.0, 2.0, np.pi
    H = -0.5 * w0 * sigma_x - 0.5 * (w1 + w) * sigma_z
    ref = scipy.linalg.expm(-1j * w * t / 2 * sigma_z) @ scipy.linalg.expm(-1j * t * H)
    assert np.linalg.norm(closed_form_rotating(w0, w1, w, t) - ref) < 1e-12
    ev = np.linalg.eigvalsh(H)
    assert np.allclose(ev, [-np.sqrt(5) / 2, np.sqrt(5) / 2])


def test_closed_form_rotating_vs_the_eigh_reference():
    # the batched step exponential against the single-matrix eigh route
    w0, w1, w = 1.0, 3.0, 2.0
    T = 2 * np.pi / w
    H = -0.5 * w0 * sigma_x - 0.5 * (w1 + w) * sigma_z
    for t in (0.0, 0.3, 1.1, T / 2, T):
        ref = expm_skew(sigma_z, w * t / 2) @ expm_skew(H, t)
        assert np.abs(closed_form_rotating(w0, w1, w, t) - ref).max() <= 1e-14


def test_unitarity_drift():
    p = solve(make_rotating(1.0, 3.0, 2.0), np.pi, steps=2000)
    drift = max(
        np.linalg.norm(U.conj().T @ U - np.eye(2)) for U in p.unitaries
    )
    assert drift <= 1e-12


def test_convergence_order_two():
    w0, w1, w = 1.0, 3.0, 2.0
    T = np.pi
    ref = closed_form_rotating(w0, w1, w, T)
    errs = []
    for steps in (256, 512, 1024):
        p = solve(make_rotating(w0, w1, w), T, steps=steps)
        errs.append(np.linalg.norm(p.final() - ref))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for r in rates:
        assert 1.8 <= r <= 2.2


def test_composition_law():
    h = make_rotating(1.0, 3.0, 2.0)
    T = np.pi
    full = solve(h, T, steps=512)
    first = solve(h, T / 2, steps=256)
    second = solve(h.shifted(T / 2), T / 2, steps=256)
    assert np.linalg.norm(second.final() @ first.final() - full.final()) < 1e-8


def test_two_loop_needs_aligned_grid():
    h2 = make_two_loop(make_rotating(1.0, 0.0, 2.0), np.pi)
    solve(h2, 2 * np.pi, steps=64)
    with pytest.raises(ScheduleDomainError):
        solve(h2, 2 * np.pi, steps=63)


@pytest.mark.parametrize("offset, aligned", [(1e-6, False), (1e-12, True)])
def test_jump_alignment_is_judged_to_1e_9_of_a_step(offset, aligned):
    # the two-loop reversal point at pi sits `offset` of a step past grid
    # node 32 of 64
    h2 = make_two_loop(make_rotating(1.0, 3.0, 2.0), np.pi)
    duration = 64 * np.pi / (32 + offset)
    if aligned:
        assert solve(h2, duration, steps=64).steps == 64
    else:
        with pytest.raises(ScheduleDomainError, match=r"jump at t=3\.14159"):
            solve(h2, duration, steps=64)


def test_solve_input_checks():
    h = make_constant_z(1.0)
    with pytest.raises(ValueError):
        solve(h, 1.0, steps=4)
    with pytest.raises(ValueError):
        solve(h, -1.0, steps=16)
    short = make_tabulated([0.0, 1.0], [np.zeros((2, 2))] * 2)
    with pytest.raises(ScheduleDomainError):
        solve(short, 2.0, steps=16)


def test_inverse_at():
    p = solve(make_rotating(1.0, 3.0, 2.0), np.pi, steps=64)
    assert np.allclose(inverse_at(p, 0), np.eye(2))
    for k in (7, 64):
        assert np.linalg.norm(inverse_at(p, k) @ p.unitaries[k] - np.eye(2)) < 1e-12
    with pytest.raises(IndexError):
        inverse_at(p, 65)
    # constant field: U(0, T/2) = exp(-i mu_B (T/2) sigma_z / 2)
    q = exact_constant_propagator(1.0, 2 * np.pi, steps=16)
    expect = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert np.allclose(inverse_at(q, 8), expect)


def test_heisenberg_evolve_constant_field():
    mu_B = 1.0
    p = exact_constant_propagator(mu_B, 2 * np.pi, steps=128)
    for k in (0, 9, 77):
        t = p.grid[k]
        X = heisenberg_evolve(p, sigma_x, k)
        assert np.linalg.norm(
            X - (np.cos(mu_B * t) * sigma_x + np.sin(mu_B * t) * sigma_y)
        ) < 1e-12


def test_heisenberg_evolve_properties():
    p = solve(make_rotating(1.0, 3.0, 2.0), np.pi, steps=256)
    X0 = sigma_x + 0.3 * sigma_z
    ev0 = np.sort(np.linalg.eigvalsh(X0))
    assert np.allclose(heisenberg_evolve(p, X0, 0), X0)
    assert np.allclose(heisenberg_evolve(p, np.eye(2), 200), np.eye(2))
    for k in (31, 256):
        X = heisenberg_evolve(p, X0, k)
        assert np.linalg.norm(X - X.conj().T) < 1e-10
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(X)) - ev0)) < 1e-9
    with pytest.raises(NotHermitianError):
        heisenberg_evolve(p, np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    with pytest.raises(DimensionMismatchError):
        heisenberg_evolve(p, np.eye(3), 1)


# ------------------------------------- blocked product and sampled stack


def sequential_propagator(h, T, steps):
    """Reference: one eval per midpoint and U_{k+1} = S_k U_k, step by step."""
    dt = T / steps
    mids = np.linspace(0.0, T, steps + 1)[:-1] + dt / 2
    step_U = expm_skew_many(np.stack([h.eval(t) for t in mids]), dt)
    unitaries = np.empty((steps + 1, h.dim, h.dim), dtype=complex)
    unitaries[0] = np.eye(h.dim)
    for k in range(steps):
        unitaries[k + 1] = step_U[k] @ unitaries[k]
    return unitaries


def unitarity_drift(unitaries):
    d = unitaries.shape[1]
    gram = np.conj(np.swapaxes(unitaries, 1, 2)) @ unitaries
    return float(np.max(np.linalg.norm(gram - np.eye(d), axis=(1, 2))))


@pytest.mark.parametrize("steps", [8, 9, 10, 8192])
def test_blocked_product_matches_sequential_loop(steps):
    rng = np.random.default_rng(29)
    A = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    tabulated = make_tabulated(np.linspace(0.0, 2.0, 5), A + np.conj(np.swapaxes(A, 1, 2)))
    for h, T in ((make_rotating(1.0, 3.0, 2.0), np.pi), (tabulated, 2.0)):
        blocked = solve(h, T, steps=steps).unitaries
        reference = sequential_propagator(h, T, steps)
        assert blocked.shape == reference.shape
        assert np.max(np.linalg.norm(blocked - reference, axis=(1, 2))) <= 1e-13
        # the same rounding, associated differently: drift within noise of the loop's
        assert unitarity_drift(blocked) <= 1.5 * unitarity_drift(reference) + 1e-15


def _random_d3_drive():
    rng = np.random.default_rng(29)
    A = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    return make_tabulated(np.linspace(0.0, 2.0, 5), A + np.conj(np.swapaxes(A, 1, 2))), 2.0


@pytest.mark.parametrize("steps", [8, 9, 10, 1001, 8192])
@pytest.mark.parametrize("final_first", [True, False], ids=["final-first", "stack-first"])
def test_final_is_the_last_running_product_bit_for_bit(steps, final_first):
    for h, T in ((make_rotating(1.0, 3.0, 2.0), np.pi), _random_d3_drive()):
        p = solve(h, T, steps=steps)
        if final_first:
            final = p.final()
            unitaries = p.unitaries
        else:
            unitaries = p.unitaries
            final = p.final()
        assert np.array_equal(final.view(np.uint64), unitaries[-1].view(np.uint64))


def test_a_solve_keeps_its_steps_and_forms_the_running_products_once(monkeypatch):
    import obsphase.propagation as propagation

    calls = []
    original = propagation._prefix_products
    monkeypatch.setattr(
        propagation, "_prefix_products", lambda *a: calls.append(1) or original(*a)
    )
    p = solve(make_rotating(1.0, 3.0, 2.0), np.pi, steps=100)
    p.final()
    assert calls == []
    assert p.unitaries is p.unitaries
    p.final()
    assert calls == [1]


@pytest.mark.parametrize(
    "drive", [lambda: (make_rotating(1.0, 3.0, 2.0), np.pi), _random_d3_drive], ids=["rotating", "tabulated-d3"]
)
def test_the_running_products_read_the_block_totals_solve_formed(monkeypatch, drive):
    # the pieces fold each step once, into its block's prefixes; the block
    # ends come from the N/16 totals solve kept, whose own running
    # products take N/16 + N/256 + ... more: at most 16 N / 15 in all
    h, T = drive()
    p = solve(h, T, steps=8192)
    received = []
    original = propagation._block_prefixes
    monkeypatch.setattr(
        propagation, "_block_prefixes", lambda S, L: received.append(len(S)) or original(S, L)
    )
    pieces = list(p.pieces())
    assert sum(map(len, pieces)) == 8193
    assert sum(received) <= -(-16 * 8192 // 15)


def test_explicit_unitaries_give_their_steps():
    q = exact_rotating_propagator(1.0, 3.0, 2.0, np.pi, steps=64)
    S = q.step_unitaries
    assert S.shape == (64, 2, 2)
    for k in (0, 31, 63):
        assert np.linalg.norm(S[k] @ q.unitaries[k] - q.unitaries[k + 1]) < 1e-14
    assert np.array_equal(q.final(), q.unitaries[-1])


def test_non_finite_schedule_samples_are_refused():
    h, T = make_rotating(1.0, 3.0, 2.0), np.pi
    # a derivative that is NaN past u = 1; the first midpoint there is 1.00629
    nan_tail = make_warped(h, lambda u: u, lambda u: np.where(u > 1.0, np.nan, 1.0), T)
    with pytest.raises(ScheduleDomainError, match=r"not finite at t=1\.006"):
        solve(nan_tail, T, steps=64)


@pytest.mark.parametrize(
    "h", [make_rotating(1.0, 1e308, 1e308), make_constant_z(1.7e308)], ids=["rotating", "constant"]
)
def test_an_integral_that_overflows_is_refused_without_a_warning(h):
    # every sample is finite, but the first chunk's sum of 4096 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScheduleDomainError, match=r"^the integral of the schedule overflows by t=0\.5$"):
            solve(h, 1.0, 8192)


@pytest.mark.parametrize("value", [complex(0.0, np.inf), complex(0.0, -np.inf), complex(0.0, np.nan)])
@pytest.mark.parametrize(
    "planted, named", [((37,), "1.84078"), ((63, 0), "0.0245437"), ((63,), "3.11705"), ((37, 12), "0.613592")]
)
def test_a_non_finite_imaginary_part_alone_is_refused(value, planted, named):
    # the stack passes the screen only when all of it is finite; the
    # message names the first midpoint that is not
    h, T = make_rotating(1.0, 3.0, 2.0), np.pi

    def fn(t):
        H = h.fn(t)
        H[list(planted), 0, 1] = value  # the 64 midpoints come in one call
        return H

    planted_h = HamiltonianSchedule(dim=2, kind="RotatingField", domain=h.domain, fn=fn)
    with pytest.raises(ScheduleDomainError, match=rf"not finite at t={named}$"):
        solve(planted_h, T, steps=64)


def test_a_non_hermitian_sample_past_the_first_chunk_is_named_by_its_step(monkeypatch):
    # the midpoints past t = 2 fail the screen; the first is step 41, in
    # the third chunk of 16
    monkeypatch.setattr(propagation, "_CHUNK", 16)
    h, T = make_rotating(1.0, 3.0, 2.0), np.pi

    def fn(t):
        H = h.fn(t)
        H[t > 2.0, 0, 1] += 1.0
        return H

    bent = HamiltonianSchedule(dim=2, kind="RotatingField", domain=h.domain, fn=fn)
    with pytest.raises(NotHermitianError, match=r"^generator 41 is not Hermitian"):
        solve(bent, T, steps=64)


def test_a_schedule_of_real_matrices_solves_as_its_complex_copy():
    # fn may return a float stack; solve reads it as complex, as the step
    # exponentials always did
    def real(t):
        return np.repeat(np.array([[[1.0, 0.5], [0.5, -1.0]]]), len(t), axis=0)

    as_real = HamiltonianSchedule(dim=2, kind="Constant", domain=(0.0, 3.0), fn=real)
    as_complex = HamiltonianSchedule(dim=2, kind="Constant", domain=(0.0, 3.0), fn=lambda t: real(t) + 0j)
    p, q = solve(as_real, 2.0, steps=100), solve(as_complex, 2.0, steps=100)
    assert np.array_equal(p.final(), q.final())
    assert np.array_equal(p.integral, q.integral)


def test_qubit_solves_call_no_eigh(monkeypatch):
    # d = 2 steps take the closed form; larger d one batched eigh per solve
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a[0].shape) or eigh(*a, **kw))
    solve(make_rotating(1.0, 3.0, 2.0), np.pi, steps=1024)
    assert calls == []
    rng = np.random.default_rng(29)
    A = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    tabulated = make_tabulated(np.linspace(0.0, 2.0, 5), A + np.conj(np.swapaxes(A, 1, 2)))
    solve(tabulated, 2.0, steps=1024)
    assert calls == [(1024, 3, 3)]


@pytest.mark.parametrize("steps", [17, 255, 257, 4097, 65537])
def test_final_is_the_last_running_product_at_every_fold_depth(steps):
    # 16-step blocks with a short last block, folded one to four levels
    # deep; final() folds without the stack and still ends on its floats
    for h, T in ((make_rotating(1.0, 3.0, 2.0), np.pi), _random_d3_drive()):
        p = solve(h, T, steps=steps)
        final = p.final()
        unitaries = p.unitaries
        assert unitaries.shape == (steps + 1, p.dim, p.dim)
        assert np.array_equal(final.view(np.uint64), unitaries[-1].view(np.uint64))
        assert np.array_equal(unitaries[1], p.step_unitaries[0])
        k = steps // 2
        assert np.linalg.norm(unitaries[k + 1] - p.step_unitaries[k] @ unitaries[k]) <= 1e-14



@pytest.mark.parametrize("steps", [4097, 8193, 65537])
def test_the_levels_solve_keeps_are_the_fold_of_its_step_stack(steps):
    # solve folds each chunk's block totals as it goes; a Propagator built
    # from the same steps folds them whole: several chunks, a short last
    # one, and the same running products and final() bit for bit
    for h, T in ((make_rotating(1.0, 3.0, 2.0), np.pi), _random_d3_drive()):
        p = solve(h, T, steps=steps)
        q = propagation.Propagator(p.grid, p.step_unitaries)
        assert np.array_equal(q.final().view(np.uint64), p.final().view(np.uint64))
        assert np.array_equal(q.unitaries.view(np.uint64), p.unitaries.view(np.uint64))

def test_a_solve_keeps_its_midpoint_samples():
    # the integral of h by the end-corrected midpoint rule on the samples
    # the steps were taken from, and those samples at the 9 spread steps
    h, T, steps = make_rotating(1.0, 3.0, 2.0), np.pi, 64
    p = solve(h, T, steps=steps)
    dt = T / steps
    H = h.eval(p.grid[:-1] + dt / 2)
    ends = (2 * H[-1] - 3 * H[-2] + H[-3]) + (2 * H[0] - 3 * H[1] + H[2])
    rule = dt * H.sum(axis=0) + dt / 24 * ends
    assert np.max(np.abs(p.integral - rule)) <= 1e-14
    assert np.array_equal(p.spread_samples, H[np.linspace(0, steps - 1, 9).astype(int)])


def test_an_integral_that_overflows_only_times_dt_is_refused_without_a_warning():
    # 64 samples of 5e304 sum to a finite 3.2e306, but dt = 15625 times
    # that (the integral) and dt h (the step exponential) overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScheduleDomainError, match=r"^the integral of the schedule overflows by t=1e\+06$"):
            solve(make_constant_z(1e305), 1e6, 64)


def _turning_field(dim, big_from):
    # |h_10| = 5e306 from t = big_from on (1 before), turning once every 16
    # steps of 64: the sum over each 16 steps cancels and stays finite, but
    # dt h does not
    w = 2 * np.pi / 1024

    def fn(t):
        H = np.zeros((len(t), dim, dim), dtype=complex)
        H[:, 1, 0] = np.where(t < big_from, 1.0, 5e306) * np.exp(1j * w * t)
        H[:, 0, 1] = H[:, 1, 0].conj()
        return H

    return HamiltonianSchedule(dim=dim, kind="RotatingField", domain=(0.0, 4096.0), fn=fn)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("chunk, big_from, named", [(4096, 0.0, "32"), (16, 2048.0, "2080")])
def test_a_step_exponential_that_overflows_is_refused_by_its_time(monkeypatch, dim, chunk, big_from, named):
    # with chunks of 16, the first step of 5e306 is step 32, in the third chunk
    monkeypatch.setattr(propagation, "_CHUNK", chunk)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ScheduleDomainError, match=rf"^the step exponential of the schedule overflows at t={named}$"
        ):
            solve(_turning_field(dim, big_from), 4096.0, 64)
