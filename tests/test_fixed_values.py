"""Values that no caller sets are fixed in the library, not parameters: a
signature that offers one again doubles the configurations nobody runs."""

import inspect

import pytest

from epsode import (averaging, conditions, periodic, solver, systems,
                    topology)

FIXED = {
    periodic.shoot: ("max_iter", "max_halvings", "stall_window",
                     "stall_factor", "singular_tol"),
    conditions.resonance_H: ("zero_tol", "dedupe_tol", "max_iter"),
    conditions.floquet_condition_A3: ("one_tol", "gap_tol"),
    conditions.compare_defect_degrees: ("lambda_grid",),
    periodic.equilibrium_candidates: ("n_grid", "tol", "max_iter"),
    periodic.orbit_amplitude: ("n",),
    topology.winding_number: ("residue_tol",),
    topology.PlanarRegion.polygon: ("star_center", "n_hint"),
    systems.SystemDef.check_periodicity: ("n_samples", "tol", "seed"),
    systems.system_from_callables: ("params",),
    averaging.StandardForm: ("periodicity_tol",),
    averaging.to_standard_form: ("periodicity_tol",),
    averaging.StandardForm.periodicity_defect: ("t_samples",),
    solver.gauss_legendre_panels: ("panels", "order"),
    solver.gauss_legendre_running: ("panels", "order"),
}


@pytest.mark.parametrize("fn", FIXED, ids=lambda fn: fn.__qualname__)
def test_fixed_values_are_not_parameters(fn):
    assert not set(FIXED[fn]) & set(inspect.signature(fn).parameters)


def test_a3_reports_its_fixed_tolerances(e1, e1_cycle):
    rep = conditions.floquet_condition_A3(e1, e1_cycle, [0.0])
    assert rep.tolerances == {"one_tol": 1e-6, "gap_tol": 1e-3}
