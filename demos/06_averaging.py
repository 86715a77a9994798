"""Averaged slow dynamics and long-horizon verification.

For the scalar system x' = eps (-x + cos t) the averaged field is -z, the
slow solution is exp(-eps t), and the approximation error over [0, d/eps]
scales linearly with eps.
"""

import numpy as np

from epsode import (averaged_field, builtin_system, solve_averaged,
                    to_standard_form, verify_cauchy)

e3 = builtin_system("e3-scalar")

av = averaged_field(e3, r=2.0)
print(f"averaged field converged at n = {av.n_used} "
      f"(evaluator level n_eval = {av.n_eval})")
for xi in (0.5, 1.0, 1.5):
    print(f"  Phi({xi}) = {av(np.array([xi]))[0]:+.9f}   (exact {-xi})")

z, info = solve_averaged(av, [1.0], 1.0)
print(f"slow solution z(1) = {z.endpoint[0]:.9f}  (exact e^-1 = "
      f"{np.exp(-1):.9f}); Lipschitz estimate {info['lipschitz_estimate']:.3f}")

verdicts = verify_cauchy(e3, [1.0], 1.0, [0.01, 0.005],
                         averaged_field(e3, r=4.0), gamma_tol=0.1)
for v in verdicts:
    print(" ", v.summary())
print(f"error ratio between the two eps values: "
      f"{verdicts[0].sup_error / verdicts[1].sup_error:.3f}  (first order: 2)")

# reduction to slowly forced standard form; with a static unperturbed flow
# the pullback is the forcing itself
sf = to_standard_form(e3)
print(f"standard-form field at (0.7, [2]): {sf(0.7, [2.0])[0]:.9f} "
      f"(forcing value {e3.phi(0.7, [2.0])[0]:.9f})")

# the change of variable is 2 pi periodic exactly on periodic orbits of the
# unperturbed flow
e1 = builtin_system("e1-circle")
sf1 = to_standard_form(e1)
for z0 in ([1.0, 0.0], [0.5, 0.0]):
    warn, dev = sf1.warns(z0)
    print(f"pullback periodicity at {z0}: defect {dev:.2e}"
          + ("  -> WARNING: not periodic" if warn else ""))
