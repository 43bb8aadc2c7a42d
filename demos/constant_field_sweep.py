"""beta(phi) for a static z field watched through a tilted observable.

A constant drive -(mu_B/2) sz returns every observable to itself after
T = 2pi/mu_B. For the observable tilted by phi from the z axis the
geometric phases are pi(1 +- cos phi): the solid angle enclosed by the
traced circle on the sphere, halved. The sweep reproduces that curve.
"""

import numpy as np

from obsphase import geometric_phases, make_constant_z, solve
from obsphase.gates import tilted_observable

TWO_PI = 2 * np.pi


def main():
    h = make_constant_z(1.0)
    print(" phi/pi   beta_1      pi(1+cos)   beta_2      pi(1-cos)   route gap")
    for phi in np.linspace(0.0, np.pi, 13):
        X0 = tilted_observable(phi)
        rep = geometric_phases(solve(h, TWO_PI, steps=4096), h, X0)
        b1, b2 = rep.beta
        c1 = np.pi * (1 + np.cos(phi)) % TWO_PI
        c2 = np.pi * (1 - np.cos(phi)) % TWO_PI
        print(f" {phi / np.pi:5.3f}  {b1:10.6f}  {c1:10.6f}  "
              f"{b2:10.6f}  {c2:10.6f}  {rep.cross_residual:9.2e}")
    print()
    print("at phi = pi/2 the circle is a great circle: both solid angles")
    print("are 2pi and the two geometric phases coincide at pi")


if __name__ == "__main__":
    main()
