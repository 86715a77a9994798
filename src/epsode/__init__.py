"""Numerical toolkit for periodic orbits and averaging of periodically
forced ODE systems with a small parameter.

The library checks the hypotheses behind small-parameter existence
results for x' = eps*phi(t, x) + psi(t, x) (boundary periodicity,
nonvanishing linear-response defects, rotation numbers, Floquet
simplicity, weighted cycle integrals), builds the averaged slow field,
and closes the loop by locating the predicted periodic orbits and
verifying long-horizon approximations by direct numerical solution.
"""

__version__ = "0.1.0"

from .solver import (IntegratorConfig, DEFAULT_CONFIG, Trajectory,
                     IntegrationError, integrate, integrate_checkpoints,
                     gauss_legendre_panels)
from .expressions import (Expr, ParseError, EvalError, parse, differentiate,
                          to_string, evaluate, compile_expr, VectorExpr)
from .systems import (SystemDef, system_from_expressions,
                      system_from_callables, builtin_names, builtin_system)
from .variational import (flow_omega, flow_omega_dense, EtaSolution, eta,
                          DefectField, defect_many, defect_profile,
                          cycle_residual)
from .topology import (PlanarRegion, ProductRegion, DegreeReport,
                       winding_number, product_degree, contract,
                       accumulated_angle)
from .conditions import (HypothesisReport, check_A0, check_A1, check_A2,
                         floquet_condition_A3, MelnikovProfile,
                         melnikov_profile, compare_defect_degrees,
                         ResonanceMap, ResonanceZero,
                         resonance_H, resonance_initial_point)
from .averaging import (NoConvergenceError, AveragedField, averaged_field,
                        solve_averaged, CauchyVerdict, verify_cauchy,
                        StandardForm, to_standard_form)
from .periodic import (PeriodicOrbitResult, shoot, pullback_membership,
                       orbit_amplitude, equilibrium_candidates, SweepResult,
                       eps_sweep)

__all__ = [
    "__version__",
    # solver
    "IntegratorConfig", "DEFAULT_CONFIG", "Trajectory", "IntegrationError",
    "integrate", "integrate_checkpoints", "gauss_legendre_panels",
    # expressions
    "Expr", "ParseError", "EvalError", "parse", "differentiate", "to_string",
    "evaluate", "compile_expr", "VectorExpr",
    # systems
    "SystemDef", "system_from_expressions", "system_from_callables",
    "flow_omega", "flow_omega_dense", "builtin_names", "builtin_system",
    # variational
    "EtaSolution", "eta", "DefectField", "defect_many",
    "defect_profile", "cycle_residual",
    # topology
    "PlanarRegion", "ProductRegion", "DegreeReport", "winding_number",
    "product_degree", "contract", "accumulated_angle",
    # conditions
    "HypothesisReport", "check_A0", "check_A1", "check_A2",
    "floquet_condition_A3", "MelnikovProfile", "melnikov_profile",
    "compare_defect_degrees", "ResonanceMap", "ResonanceZero",
    "resonance_H", "resonance_initial_point",
    # averaging
    "NoConvergenceError", "AveragedField", "averaged_field", "solve_averaged",
    "CauchyVerdict", "verify_cauchy", "StandardForm", "to_standard_form",
    # periodic
    "PeriodicOrbitResult", "shoot", "pullback_membership", "orbit_amplitude",
    "equilibrium_candidates", "SweepResult", "eps_sweep",
]
