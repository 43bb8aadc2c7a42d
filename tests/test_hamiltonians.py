import itertools

import numpy as np
import pytest

from obsphase.errors import (
    DimensionMismatchError,
    NotHermitianError,
    ScheduleDomainError,
    ZeroFieldError,
    ZeroFrequencyError,
)
from obsphase.hamiltonians import (
    make_constant_z,
    make_quadratic_warp,
    make_rotating,
    make_tabulated,
    make_two_loop,
    make_warped,
)
from obsphase.linalg import _asymmetry, sigma_x, sigma_y, sigma_z
from support import make_block_two_qubit, make_reversed, make_zero


def test_constant_z_values():
    h = make_constant_z(2.0)
    assert np.allclose(h.eval(0.7), -sigma_z)
    assert np.allclose(h.eval(0.0), h.eval(5.0))
    assert np.allclose(np.linalg.eigvalsh(make_constant_z(1.0).eval(0.0)), [-0.5, 0.5])


def test_constant_z_rejects_zero_field():
    with pytest.raises(ZeroFieldError):
        make_constant_z(0.0)


def test_rotating_at_zero():
    h = make_rotating(1.0, 0.0, 2.0)
    assert np.allclose(h.eval(0.0), -sigma_x / 2)


def test_rotating_periodicity():
    h = make_rotating(1.3, 0.4, 2.0)
    for t in (0.0, 0.31, 1.7):
        assert np.linalg.norm(h.eval(t) - h.eval(t + np.pi)) < 1e-12


def test_rotating_direct_substitution():
    h = make_rotating(1.0, 3.0, 2.0)
    assert np.allclose(h.eval(np.pi / 4), -(sigma_y + 3 * sigma_z) / 2)


def test_rotating_rejects_zero_frequency():
    with pytest.raises(ZeroFrequencyError):
        make_rotating(1.0, 0.0, 0.0)


def test_hermiticity_sampled():
    rng = np.random.default_rng(13)
    h1 = make_rotating(0.8, 1.1, 3.0)
    h2 = make_two_loop(h1, 2 * np.pi / 3.0)
    h3 = make_block_two_qubit(make_constant_z(1.0), h1)
    for t in rng.uniform(0.0, 2 * np.pi / 3.0, size=100):
        for h in (h1, h2, h3):
            H = h.eval(t)
            assert np.isfinite(H).all() and _asymmetry(H) <= 1e-12 * np.abs(H).max()


def test_reversed_operator_identity():
    h = make_rotating(1.0, 3.0, 2.0)
    T = np.pi
    r = make_reversed(h, T)
    for t in (0.0, 0.2, 1.1, T):
        assert np.array_equal(r.eval(t), -h.eval(T - t))


def test_two_loop_branches_and_breakpoint():
    h = make_rotating(1.0, 3.0, 2.0)
    T = np.pi
    h2 = make_two_loop(h, T)
    assert h2.domain == (0.0, 2 * T)
    assert h2.breakpoints == (T,)
    for t in (0.0, 0.4, T - 1e-9):
        assert np.array_equal(h2.eval(t), h.eval(t))
    for t in (T, T + 0.4, 2 * T):
        assert np.array_equal(h2.eval(t), -h.eval(2 * T - t))
    # the defining reversal relation h(t+T) = -h(T-t)
    for t in (0.0, 0.3, 1.2):
        assert np.allclose(h2.eval(t + T), -h2.eval(T - t - 1e-15), atol=1e-12)


def test_domain_checks():
    h = make_two_loop(make_rotating(1.0, 0.0, 2.0), np.pi)
    with pytest.raises(ScheduleDomainError):
        h.eval(-0.5)
    with pytest.raises(ScheduleDomainError):
        h.eval(2 * np.pi + 0.1)
    bounded = make_tabulated([0.0, 1.0], [np.eye(2), np.eye(2)])
    with pytest.raises(ScheduleDomainError):
        make_two_loop(bounded, 2.0)


def test_block_two_qubit():
    h = make_block_two_qubit(make_zero(2), make_constant_z(1.0))
    assert np.allclose(h.eval(0.3), np.diag([0.0, 0.0, -0.5, 0.5]))
    hc = make_constant_z(2.0)
    same = make_block_two_qubit(hc, hc)
    P0 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    H = same.eval(1.0)
    assert np.allclose(H @ P0, P0 @ H)
    with pytest.raises(DimensionMismatchError):
        make_block_two_qubit(make_zero(2), make_zero(3))


def test_shifted():
    h = make_rotating(1.0, 3.0, 2.0)
    s = h.shifted(0.7)
    for u in (0.0, 0.5, 2.0):
        assert np.array_equal(s.eval(u), h.eval(u + 0.7))
    h2 = make_two_loop(h, np.pi)
    s2 = h2.shifted(np.pi)
    assert s2.breakpoints == (0.0,)


def test_tabulated_interpolation():
    times = [0.0, 1.0, 3.0]
    samples = [np.zeros((2, 2)), sigma_z, 3 * sigma_z]
    h = make_tabulated(times, samples)
    assert np.allclose(h.eval(0.5), 0.5 * sigma_z)
    assert np.allclose(h.eval(2.0), 2.0 * sigma_z)
    assert np.allclose(h.eval(3.0), 3 * sigma_z)
    with pytest.raises(NotHermitianError):
        make_tabulated([0.0, 1.0], [np.array([[0.0, 1.0], [0.0, 0.0]])] * 2)
    with pytest.raises(ValueError):
        make_tabulated([0.0, 0.0], [np.eye(2)] * 2)


@pytest.mark.parametrize("d", [2, 3])
def test_an_infinite_sample_is_not_hermitian(d):
    # inf - inf in H - H^dagger is a NaN deviation: it fails the test
    # without a numpy warning, which the suite turns into an error
    sample = np.eye(d, dtype=complex)
    sample[0, 0] = np.inf
    with pytest.raises(NotHermitianError, match=r"sample 0 .*\(deviation nan\)"):
        make_tabulated([0.0, 1.0], [sample, np.eye(d)])


def test_warped_quadratic():
    h = make_rotating(1.0, 3.0, 2.0)
    T = np.pi
    w = make_quadratic_warp(h, T)
    assert w.domain == (0.0, T)
    for u in (0.1, 1.0, 2.5):
        assert np.allclose(w.eval(u), (2 * u / T) * h.eval(u * u / T))


def test_zero_schedule():
    h = make_zero(3)
    assert np.allclose(h.eval(12.3), np.zeros((3, 3)))


# ------------------------------------------------- array evaluation


def rotating_point(w0, w1, w, t):
    """Per-time reference of the rotating field."""
    return -0.5 * (
        w0 * np.cos(w * t) * sigma_x + w0 * np.sin(w * t) * sigma_y + w1 * sigma_z
    )


def rotating_stack(w0, w1, w, ts):
    """The rotating field's Pauli sum over an array of times, as one
    broadcast expression."""
    wt = w * ts[:, None, None]
    return -0.5 * (w0 * np.cos(wt) * sigma_x + w0 * np.sin(wt) * sigma_y + w1 * sigma_z)


# negative, tiny and zero values of w0, w1 and w (w = 0 is refused)
ROTATING_VALUES = (1.0, -1.0, 3.0, -2.5, 1e-300, -1e-300, 5e-324, 0.0, -0.0)


def test_rotating_entries_are_the_pauli_sum_bit_for_bit():
    # compared as bits, so the signs of zeros count too
    ts = np.concatenate([[0.0, -0.0, 5e-324, 1e-300], np.linspace(-7.0, 7.0, 61)])
    for w0, w1, w in itertools.product(ROTATING_VALUES, repeat=3):
        if w == 0:
            continue
        h = make_rotating(w0, w1, w)
        want = rotating_stack(w0, w1, w, ts).view(np.uint64)
        assert np.array_equal(h.eval(ts).view(np.uint64), want), (w0, w1, w)
        for t in (0.0, -0.0, 5e-324, 0.3, -1.7):
            want = rotating_point(w0, w1, w, t).view(np.uint64)
            assert np.array_equal(h.eval(t).view(np.uint64), want), (w0, w1, w, t)


def tabulated_point(times, samples, t):
    """Per-time reference of entrywise linear interpolation."""
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2))
    lam = min(max((t - times[k]) / (times[k + 1] - times[k]), 0.0), 1.0)
    return (1 - lam) * samples[k] + lam * samples[k + 1]


def every_schedule_kind():
    """(name, schedule, per-time reference, times inside the domain)."""
    w0, w1, w, T = 1.0, 3.0, 2.0, np.pi
    rot = make_rotating(w0, w1, w)
    rng = np.random.default_rng(17)
    A = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    samples = A + np.conj(np.swapaxes(A, 1, 2))
    tab_times = np.array([0.0, 0.4, 1.5, 2.0])
    ts = np.concatenate([np.linspace(0.0, T, 37), [T / 2, 0.4, 1.5]])
    ts2 = np.concatenate([np.linspace(0.0, 2 * T, 41), [T, T - 1e-9, T + 1e-9]])
    return [
        ("constant", make_constant_z(1.3), lambda t: -0.65 * sigma_z, ts),
        ("rotating", rot, lambda t: rotating_point(w0, w1, w, t), ts),
        ("reversed", make_reversed(rot, T), lambda t: -rotating_point(w0, w1, w, T - t), ts),
        (
            "two-loop",
            make_two_loop(rot, T),
            lambda t: rotating_point(w0, w1, w, t) if t < T
            else -rotating_point(w0, w1, w, 2 * T - t),
            ts2,
        ),
        (
            "block",
            make_block_two_qubit(make_constant_z(1.0), rot),
            lambda t: np.block(
                [[-0.5 * sigma_z, np.zeros((2, 2))],
                 [np.zeros((2, 2)), rotating_point(w0, w1, w, t)]]
            ),
            ts,
        ),
        (
            "tabulated",
            make_tabulated(tab_times, samples),
            lambda t: tabulated_point(tab_times, samples, t),
            np.concatenate([np.linspace(0.0, 2.0, 29), tab_times]),
        ),
        (
            "warped",
            make_quadratic_warp(rot, T),
            lambda u: (2 * u / T) * rotating_point(w0, w1, w, u * u / T),
            ts,
        ),
        ("shifted", rot.shifted(0.7), lambda u: rotating_point(w0, w1, w, u + 0.7), ts),
        ("zero", make_zero(3), lambda t: np.zeros((3, 3)), ts),
    ]


SCHEDULE_KINDS = every_schedule_kind()


@pytest.mark.parametrize("name, h, point, ts", SCHEDULE_KINDS, ids=[k[0] for k in SCHEDULE_KINDS])
def test_array_eval_matches_scalar_evals(name, h, point, ts):
    stack = h.eval(ts)
    assert stack.shape == (len(ts), h.dim, h.dim)
    scalar = np.stack([h.eval(t) for t in ts])
    assert scalar.shape == stack.shape
    assert np.max(np.abs(stack - scalar)) <= 1e-15
    assert np.max(np.abs(stack - np.stack([point(t) for t in ts]))) <= 1e-15


def test_array_eval_rejects_one_time_outside_the_domain():
    h = make_two_loop(make_rotating(1.0, 0.0, 2.0), np.pi)
    ts = np.linspace(0.0, 2 * np.pi, 9)
    ts[5] = 2 * np.pi + 0.25
    with pytest.raises(ScheduleDomainError, match="t=6.53"):
        h.eval(ts)
    ts[5] = np.nan
    with pytest.raises(ScheduleDomainError):
        h.eval(ts)


def test_warps_refuse_a_schedule_with_jumps():
    # a warp moves the jump at T off every uniform grid of the warped time
    h = make_two_loop(make_rotating(1.0, 3.0, 2.0), np.pi)
    with pytest.raises(ScheduleDomainError, match="jumps at t=3.14159"):
        make_warped(h, lambda u: u, np.ones_like, 2 * np.pi)
    with pytest.raises(ScheduleDomainError):
        make_quadratic_warp(h, 2 * np.pi)


def test_kinks_are_carried_like_breakpoints():
    # the interior sample times of a table are its kinks; the two-loop
    # mirrors them about T, a shift moves them, and a warp drops them
    tab = make_tabulated([0.0, 0.5, 1.5, 2.0], [sigma_z, sigma_x, sigma_y, sigma_z])
    assert tab.kinks == (0.5, 1.5) and tab.breakpoints == ()
    loop = make_two_loop(tab, 2.0)
    assert loop.kinks == (0.5, 1.5, 2.5, 3.5)
    assert loop.breakpoints == (2.0,)
    shifted = loop.shifted(0.5)
    assert shifted.kinks == (0.0, 1.0, 2.0, 3.0)
    assert shifted.breakpoints == (1.5,)
    assert make_quadratic_warp(tab, 2.0).kinks == ()
    assert make_rotating(1.0, 3.0, 2.0).kinks == ()
    # only the kinks inside (0, T) are mirrored
    assert make_two_loop(tab, 1.25).kinks == (0.5, 2.0)
