"""Reference values computed with numpy alone.

Nothing here imports obsphase: every figure the benchmark checks the
library against is derived again from the physics, so a fault in a
shared helper cannot make both sides agree.
"""

import itertools

import numpy as np

TWO_PI = 2 * np.pi
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def circular_gap(a, b):
    """Worst circular distance between two phase multisets, minimised
    over pairings (levels may be listed in any order)."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    if len(a) != len(b):
        return np.inf
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        d = np.abs(a - b[list(perm)]) % TWO_PI
        best = min(best, float(np.max(np.minimum(d, TWO_PI - d))))
    return best


def step_tolerance(omega, T, steps):
    """Error allowance for a second-order integrator: the midpoint rule
    loses about omega^3 dt^3 / 12 per step on a drive whose spectral
    width is omega, so about omega^3 T dt^2 / 12 over the loop. A floor
    of 1e-9 covers rounding over the product."""
    dt = T / steps
    return 1e-9 + omega**3 * T * dt**2 / 12


def kink_allowance(times, f, steps):
    """Extra error allowance of a piecewise-linear drive f sampled at
    times: a step or a Simpson panel that holds a kink where the slope
    jumps by s misses the drive's area by at most about s dt^2 / 8 each,
    so the phases by at most sum(s) dt^2 / 4."""
    slopes = np.diff(f) / np.diff(times)
    dt = times[-1] / steps
    return float(np.sum(np.abs(np.diff(slopes)))) * dt**2 / 4


def tilt_observable(phi, azimuth=0.0):
    """-(n . sigma) for the unit vector n at polar angle phi."""
    n = (np.sin(phi) * np.cos(azimuth), np.sin(phi) * np.sin(azimuth), np.cos(phi))
    return -(n[0] * SX + n[1] * SY + n[2] * SZ)


def whole_turn_betas(turns, phi):
    """A z drive h = -(f(t)/2) sigma_z whose area int f dt is 2 pi * turns
    returns every observable; seen through an observable tilted by phi
    the geometric phases are turns * pi (1 +- cos phi)."""
    return np.array([turns * np.pi * (1 + np.cos(phi)), turns * np.pi * (1 - np.cos(phi))]) % TWO_PI


def _expm_pauli(a):
    """exp(-i a . sigma) for a real 3-vector a."""
    a = np.asarray(a, dtype=float)
    n = np.linalg.norm(a)
    if n == 0:
        return np.eye(2, dtype=complex)
    k = (a[0] * SX + a[1] * SY + a[2] * SZ) / n
    return np.cos(n) * np.eye(2) - 1j * np.sin(n) * k


def rotating_betas(w0, w1, w):
    """Geometric phases of the rotating field over one period T = 2 pi / w.

    The cyclic states are the eigenvectors of the rotating-frame
    Hamiltonian -(w0 sigma_x + (w1 + w) sigma_z) / 2; theta comes from
    the exact propagator exp(-i w t sigma_z / 2) exp(-i t H) and
    gamma_n = -(w1 / 2) T <psi_n|sigma_z|psi_n>, because the rotating
    components average out over a period.
    """
    T = TWO_PI / w
    H = -0.5 * (w0 * SX + (w1 + w) * SZ)
    U = _expm_pauli((0, 0, w * T / 2)) @ _expm_pauli((-0.5 * w0 * T, 0, -0.5 * (w1 + w) * T))
    _, V = np.linalg.eigh(H)
    theta = np.angle(np.einsum("in,ij,jn->n", V.conj(), U.conj().T, V))
    gamma = -(w1 / 2) * T * np.real(np.einsum("in,ij,jn->n", V.conj(), SZ, V))
    return (theta - gamma) % TWO_PI


def rotating_width(w0, w1, w):
    """Spectral width of the rotating field seen by the integrator."""
    return np.hypot(w0, w1 + w) + abs(w)


def matrix_from_pairs(rows):
    """A complex matrix from rows of [re, im] pairs (the report format)."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def pairs_from_matrix(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def haar_frame(rng, d):
    """A Haar-random unitary, columns read as an orthonormal frame."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))


def gauge_copy(rng, F):
    """The same decomposition with its vectors permuted and rephased."""
    d = F.shape[1]
    return F[:, rng.permutation(d)] * np.exp(1j * rng.uniform(0, TWO_PI, d))


def distance_lower_bound(F, G):
    """A lower bound on min ||I - U|| over unitaries carrying frame F
    onto frame G: ||(I - U) f_n|| >= sqrt(2 - 2 |<f_n|g_sigma(n)>|) for
    every n, so the distance is at least min_sigma max_n of that."""
    A = np.abs(F.conj().T @ G)
    d = A.shape[0]
    return min(
        float(np.max(np.sqrt(np.maximum(0.0, 2 - 2 * A[np.arange(d), list(sigma)]))))
        for sigma in itertools.permutations(range(d))
    )


def _worst_level_gap(B, thetas):
    """max_n |1 - lambda_n(B diag(e^{i theta}))| for each row of thetas:
    ||I - U|| of the unitary with overlap B and those per-level phases."""
    lam = np.linalg.eigvals(B[None] * np.exp(1j * thetas)[:, None, :])
    return np.max(np.abs(1.0 - lam), axis=-1)


def distance_upper_bound(F, G):
    """An upper bound on the same minimum: the value of a feasible
    unitary. For each pairing sigma it starts from the phase-aligned
    unitary, whose phases make every overlap A_n sigma(n) real and
    positive, and lowers its value by a compass search over the 3^d - 1
    sign directions, halving the step from 0.5 to 1e-10. Every point
    visited is feasible, so the result never undershoots the minimum."""
    A = F.conj().T @ G
    d = A.shape[0]
    dirs = np.array([v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)], dtype=float)
    best = np.inf
    for sigma in itertools.permutations(range(d)):
        B = A[:, list(sigma)]
        theta = -np.angle(np.diag(B))
        value, step = float(_worst_level_gap(B, theta[None])[0]), 0.5
        while step > 1e-10:
            trial = theta + step * dirs
            values = _worst_level_gap(B, trial)
            k = int(np.argmin(values))
            if values[k] < value:
                theta, value = trial[k], float(values[k])
            else:
                step /= 2
        best = min(best, value)
    return best


def distance_d2(F, G):
    """Exact two-level distance: sqrt(2 - 2 c) with c the larger overlap
    modulus, since |A_00| = |A_11| and |A_01| = |A_10| in dimension 2."""
    A = np.abs(F.conj().T @ G)
    return float(np.sqrt(max(0.0, 2 - 2 * max(A[0, 0], A[0, 1]))))
