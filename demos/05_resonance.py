"""Resonant periodic orbits of a harmonically forced linear center.

With the rotation x' = (-x2, x1) every point is 2 pi periodic, so orbits
surviving a small forcing are picked out by the zeros of the resonance map
H(a, theta) over amplitude and phase.
"""

import numpy as np

from epsode import (builtin_system, orbit_amplitude, resonance_H,
                    resonance_initial_point, shoot, winding_number)

FORCING = "(1 - x1^2)*x2 + cos(t)"   # g(t, u, v) = (1 - u^2) v + cos t

rm = resonance_H(FORCING, (0.5, 3.5), (0.0, 2 * np.pi), grid=(12, 12))
for z in rm.zeros:
    print(f"zero of H: a = {z.a:.8f}, theta = {z.theta:.8f}, "
          f"det H' = {z.det:.4f}")

z = rm.zeros[0]
print(f"  theta vs pi/2: {abs(z.theta - np.pi / 2):.2e}")
print(f"  a vs root of a^3 - 4a - 4: {abs(z.a ** 3 - 4 * z.a - 4):.2e}")

box = rm.box(z, 0.2)
deg = winding_number(lambda P: rm.evaluate_many(P[:, 0], P[:, 1]), box,
                     n0=256)
print(f"degree of H around the zero: {deg.degree} "
      f"(sign of det H' = {int(np.sign(z.det))})")

# shoot for the actual orbit of the full system at small eps
e2 = builtin_system("e2-resonance")
seed = resonance_initial_point(z.a, z.theta)
res = shoot(e2, 1e-3, seed)
print(f"orbit at eps = 1e-3: xi* = {res.xi_star}, residual {res.residual:.2e}")
print(f"  amplitude {orbit_amplitude(res.orbit):.5f} vs predicted a0 {z.a:.5f}")
