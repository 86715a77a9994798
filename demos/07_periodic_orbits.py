"""Locating periodic orbits of the full system by period-map shooting."""

import numpy as np

from epsode import (PlanarRegion, builtin_system, eps_sweep,
                    equilibrium_candidates, flow_omega_dense,
                    melnikov_profile, pullback_membership, shoot)

# scalar attracting orbit: x' = -x + cos t has xi* = 1/2
e3 = builtin_system("e3-scalar")
res = shoot(e3, 1.0, [0.9])
print(f"scalar orbit: xi* = {res.xi_star[0]:.10f} "
      f"(exact 0.5), multiplier {res.multipliers[0].real:.6f}")

# at eps = 0 every cycle point is periodic and the period-map Jacobian is
# singular along the cycle; this is reported, not raised
e1 = builtin_system("e1-circle")
res0 = shoot(e1, 0.0, [1.0, 0.0])
print(f"eps = 0 cycle seed: residual {res0.residual:.2e}, "
      f"Jacobian singular: {res0.jacobian_singular}")

# for the constant drift the perturbed cycle period detunes from 2 pi, so
# the only 2 pi periodic solution is the equilibrium spawned near the
# origin; the sweep finds it through its equilibrium fallback
disk = PlanarRegion.circle(0.0, 0.0, 1.0, 512)
print("equilibria of the full field at eps = 1e-2:",
      equilibrium_candidates(e1, 1e-2, disk))
cycle = flow_omega_dense(e1, 0.0, e1.T, [1.0, 0.0])
prof = melnikov_profile(e1, cycle, np.linspace(0, e1.T, 9))
sw = eps_sweep(e1, disk, [1e-2, 5e-3, 2.5e-3], cycle=cycle, melnikov=prof)
for r in sw.results:
    print(f"  eps = {r.eps:g}: xi* = {r.xi_star}, residual {r.residual:.2e}, "
          f"inside admissible set: {r.in_region}, "
          f"distance to boundary {r.boundary_distance:.4f}")
print(f"distance-to-boundary slope across the sweep: {sw.slope:.4f} "
      f"(the orbits sit at the interior equilibrium, not near the cycle)")

# membership: the whole orbit must pull back into the region
orbit = sw.results[0].orbit
rep = pullback_membership(e1, orbit, disk, n_time=64)
print(f"pullback: {rep.summary()}")
