"""Existence conditions on the circle-cycle testbed.

The unperturbed field has an attracting unit-circle cycle whose points are
all 2 pi periodic, so the boundary-periodicity condition holds on the unit
disk.  The linear-response defect and its rotation number then decide
whether the perturbed system keeps a periodic solution inside.
"""

import numpy as np

from epsode import (PlanarRegion, builtin_system, check_A0, check_A1,
                    check_A2, flow_omega_dense, floquet_condition_A3,
                    melnikov_profile)

e1 = builtin_system("e1-circle")
disk = PlanarRegion.circle(0.0, 0.0, 1.0, 512)

print(check_A0(e1, disk).summary())
print(check_A0(e1, PlanarRegion.circle(0, 0, 0.5, 256)).summary())

rep = check_A1(e1, disk, boundary_samples=256)
print(rep.summary())
print(f"  worst grid point: s = {rep.witness['s']:.4f}, "
      f"xi = {rep.witness['point']}")

# the defect field on this boundary is radial with two sign changes, so its
# rotation number is genuinely undefined; the check reports the witness
print(check_A2(e1, disk, boundary_samples=256).summary())

cycle = flow_omega_dense(e1, 0.0, e1.T, [1.0, 0.0])
prof = melnikov_profile(e1, cycle)
print(f"cycle integral: M = {prof.values[0]:.6e} "
      f"(constant in theta, min |M| = {prof.min_abs:.3e})")
print(f"  closed form -(2/5)(e^(4 pi) - 1) = "
      f"{-(2 / 5) * (np.exp(4 * np.pi) - 1):.6e}")
print(prof.check_A3_1().summary())

flo = floquet_condition_A3(e1, cycle, theta_grid=np.linspace(0, e1.T, 9))
print(flo.summary())
print(f"  smallest gap {flo.margin:.6f} = 1 - e^(-4 pi), the other "
      f"multiplier e^(-4 pi) = {np.exp(-4 * np.pi):.3e}")
