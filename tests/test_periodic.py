import numpy as np
import pytest

from epsode import (IntegratorConfig, PlanarRegion, eps_sweep,
                    equilibrium_candidates, integrate, pullback_membership,
                    melnikov_profile, orbit_amplitude, resonance_H,
                    resonance_initial_point, shoot, system_from_expressions,
                    variational)

TWO_PI = 2 * np.pi


def test_shoot_scalar_attracting_orbit(e3):
    # eps folded in: x' = -x + cos t has the periodic solution
    # (cos t + sin t)/2, so xi* = 1/2
    res = shoot(e3, 1.0, [0.9])
    assert res.converged
    assert abs(res.xi_star[0] - 0.5) <= 1e-8
    assert abs(res.multipliers[0] - np.exp(-TWO_PI)) <= 1e-8


def test_shoot_scalar_small_eps(e3):
    eps = 0.3
    res = shoot(e3, eps, [0.2])
    assert res.xi_star[0] == pytest.approx(eps ** 2 / (1 + eps ** 2),
                                           abs=1e-10)


def test_shoot_at_zero_eps_reports_singular_cycle(e1):
    res = shoot(e1, 0.0, [1.0, 0.0])
    assert res.converged          # the seed already closes up
    assert res.jacobian_singular  # unit multiplier direction
    assert res.residual <= 1e-9
    mus = sorted(np.abs(res.multipliers), reverse=True)
    assert abs(mus[0] - 1.0) <= 1e-6
    assert abs(mus[1] - np.exp(-4 * np.pi)) <= 1e-6


def test_unperturbed_period_map_fixes_the_cycle(e1):
    for ang in np.linspace(0, TWO_PI, 32, endpoint=False):
        xi = np.array([np.cos(ang), np.sin(ang)])
        end = integrate(e1.psi, 0.0, TWO_PI, xi).endpoint
        assert np.linalg.norm(end - xi) <= 1e-7


def test_singular_jacobian_is_reported_for_positive_eps():
    sysd = system_from_expressions("flat", 2, TWO_PI, ("1", "0"),
                                   ("0", "0"))
    res = shoot(sysd, 0.1, [0.0, 0.0])
    assert not res.converged and res.jacobian_singular
    assert res.failure.startswith("period-map Jacobian singular at eps=0.1")
    assert "smallest singular value" in res.failure


def test_newton_stall_reports_history(e1):
    # near the cycle the time-2pi map of the perturbed system has no fixed
    # point, so shooting from the cycle cannot converge
    res = shoot(e1, 1e-2, [1.0, 0.0])
    assert not res.converged and res.orbit is None
    assert res.failure.startswith("shooting Newton stalled (residuals ... ")
    assert len(res.residual_history) >= 3


def test_shoot_resonant_forced_center(e2):
    rm = resonance_H("(1 - x1^2)*x2 + cos(t)", (1.5, 3.0), (1.0, 2.2),
                     grid=(6, 6))
    z = rm.zeros[0]
    res = shoot(e2, 1e-3, resonance_initial_point(z.a, z.theta))
    assert res.converged and res.residual <= 1e-9
    assert orbit_amplitude(res.orbit) == pytest.approx(z.a, abs=0.05)


def test_membership_static_center():
    sysd = system_from_expressions("still", 2, TWO_PI, ("0", "0"),
                                   ("0", "0"))
    disk = PlanarRegion.circle(0, 0, 1, 128)
    orbit = integrate(sysd.psi, 0.0, TWO_PI, [0.2, 0.0])
    rep = pullback_membership(sysd, orbit, disk, n_time=32)
    assert rep.verdict == "holds"
    assert rep.margin == pytest.approx(0.8, abs=1e-3)
    outside = integrate(sysd.psi, 0.0, TWO_PI, [1.5, 0.0])
    rep = pullback_membership(sysd, outside, disk, n_time=32)
    assert rep.verdict == "fails"
    assert rep.witness["time"] == 0.0


def test_membership_pulls_back_a_rotating_orbit_in_one_run(e2, disk,
                                                            monkeypatch):
    # psi of e2 rotates, so every grid point pulls back to (0.5, 0)
    orbit = integrate(e2.psi, 0.0, TWO_PI, [0.5, 0.0])
    calls = []
    real = variational.integrate_checkpoints

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(variational, "integrate_checkpoints", counting)
    rep = pullback_membership(e2, orbit, disk)
    assert rep.verdict == "holds"
    assert rep.margin == pytest.approx(0.5, abs=1e-9)
    assert len(calls) == 1
    # off-centre, the margin also checks the angle of each pullback
    shifted = PlanarRegion.circle(0.3, 0.0, 1.0, 512)
    rep = pullback_membership(e2, orbit, shifted)
    assert rep.verdict == "holds"
    assert rep.margin == pytest.approx(0.8, abs=1e-9)


def test_membership_of_found_orbit(e1, disk):
    cands = equilibrium_candidates(e1, 1e-2, disk)
    assert cands, "autonomous field should have an interior equilibrium"
    res = shoot(e1, 1e-2, cands[0], region=disk)
    assert res.converged and res.in_region
    assert res.boundary_distance == pytest.approx(1.0, abs=0.02)


def test_converged_orbit_stable_under_tighter_integration(e2):
    rm = resonance_H("(1 - x1^2)*x2 + cos(t)", (1.5, 3.0), (1.0, 2.2),
                     grid=(4, 4))
    z = rm.zeros[0]
    res = shoot(e2, 1e-3, resonance_initial_point(z.a, z.theta),
                shoot_tol=1e-9)
    tight = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    end = integrate(e2.field(1e-3), 0.0, TWO_PI, res.xi_star, tight).endpoint
    assert np.linalg.norm(end - res.xi_star) <= 10 * 1e-9


def test_equilibrium_candidates_inside_region(e1, disk):
    cands = equilibrium_candidates(e1, 1e-2, disk)
    assert len(cands) == 1
    x = cands[0]
    assert np.linalg.norm(e1.field(1e-2)(0.0, x)) <= 1e-10
    assert np.allclose(x, [-0.005, 0.005], atol=1e-4)


def test_equilibrium_candidates_skip_forced_systems(e2):
    assert equilibrium_candidates(e2, 1e-3) == []


def test_sweep_on_drifting_cycle_finds_interior_orbits(e1, disk, e1_cycle,
                                                      monkeypatch):
    from epsode import periodic
    asked = []
    real = periodic.equilibrium_candidates

    def spy(sys, eps, region):
        asked.append(eps)
        return real(sys, eps, region)

    monkeypatch.setattr(periodic, "equilibrium_candidates", spy)
    prof = melnikov_profile(e1, e1_cycle, np.linspace(0, TWO_PI, 9))
    sw = eps_sweep(e1, disk, [1e-2, 5e-3], cycle=e1_cycle, melnikov=prof)
    # Newton stalls from the cycle point at 1e-2 and falls back to the
    # equilibria; at 5e-3 the continued seed converges, so none are sought
    assert asked == [1e-2]
    assert all(r.converged for r in sw.results)
    assert all(r.in_region for r in sw.results)
    assert all(r.residual <= 1e-9 for r in sw.results)
    # the orbits are interior equilibria, far from the cycle
    assert all(r.boundary_distance > 0.9 for r in sw.results)
    assert sw.slope is not None and abs(sw.slope) < 0.1


def test_sweep_does_not_count_an_orbit_outside_the_region():
    # e1's psi forced by (cos t, 0): from the star centre Newton overshoots
    # to the orbit near the cycle, at distance 0.5 outside the disk; the
    # orbit inside, near (-eps*0.6, eps*0.2), is too unstable (multiplier
    # e^{2 pi}) for single shooting, and no other start is left
    sysd = system_from_expressions(
        "e1-forced", 2, TWO_PI, ("cos(t)", "0"),
        ("-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)"))
    sw = eps_sweep(sysd, PlanarRegion.circle(0.0, 0.0, 0.5, 512), [1e-2])
    (r,) = sw.results
    assert r.converged and r.in_region is False and not r.found
    assert np.linalg.norm(r.xi_star - [-0.9962, 0.0019]) <= 1e-3
    assert r.failure.startswith("orbit outside the region")
    assert sw.found() == [] and sw.seed_kinds == ["given"]
    assert sw.slope is None


def test_sweep_records_a_flow_failure_and_keeps_the_other_rows():
    # x' = eps*x^2 + cos t - x: small eps keep an orbit near 1/2, at eps = 5
    # the flow from there escapes to infinity within the period
    sysd = system_from_expressions("quadratic", 1, TWO_PI, ("x1^2",),
                                   ("cos(t) - x1",))
    with_bad = eps_sweep(sysd, None, [0.05, 5.0, 0.1], seed=[0.0]).results
    without = eps_sweep(sysd, None, [0.05, 0.1], seed=[0.0]).results
    bad = with_bad.pop(1)
    assert (bad.eps, bad.converged) == (5.0, False)
    assert bad.failure.startswith("step failed")
    assert np.all(np.isnan(bad.xi_star)) and bad.residual == np.inf
    for a, b in zip(with_bad, without):
        assert a.converged and (a.eps, a.iterations, a.failure) == \
            (b.eps, b.iterations, b.failure)
        assert np.array_equal(a.xi_star, b.xi_star) and a.residual == b.residual
        assert a.residual_history == b.residual_history
        assert np.array_equal(a.multipliers, b.multipliers)


def _e1_dpsi(x):
    # Jacobian of e1's psi = (-x2 + x1 (1 - r^2), x1 + x2 (1 - r^2))
    x1, x2 = x
    q = 1 - x1 ** 2 - x2 ** 2
    return np.array([[q - 2 * x1 ** 2, -1 - 2 * x1 * x2],
                     [1 - 2 * x1 * x2, q - 2 * x2 ** 2]])


def test_sweep_predicts_along_the_branch_tangent(e1, disk, e1_cycle):
    # the orbits are equilibria of eps (1, 0) + psi, so the branch tangent
    # is -Dpsi(xi*)^-1 (1, 0), and one corrector step follows each
    # prediction (4 and 6 Newton steps from the last orbit itself)
    prof = melnikov_profile(e1, e1_cycle, np.linspace(0, TWO_PI, 65))
    sw = eps_sweep(e1, disk, [1e-2, 5e-3, 2.5e-3], cycle=e1_cycle,
                   melnikov=prof)
    assert all(r.converged and r.residual <= 1e-9 for r in sw.results)
    assert sw.seed_kinds == ["fallback", "predicted", "predicted"]
    xi = sw.results[0].xi_star
    tangent = -np.linalg.solve(_e1_dpsi(xi), [1.0, 0.0])
    assert np.abs(sw.seeds_used[1] - (xi - 5e-3 * tangent)).max() <= 1e-8
    assert sw.results[1].iterations <= 1 and sw.results[2].iterations <= 1
    for r in sw.results:
        assert np.array_equal(np.linalg.eigvals(r.monodromy), r.multipliers)


def test_failed_prediction_falls_back_to_the_last_orbit(monkeypatch):
    # x' = -(20 eps + log(x1 + 2)) has the stable equilibrium
    # exp(-20 eps) - 2 with tangent -20 exp(-20 eps); from eps 0.05 the
    # prediction for 0.15 lands below -2, where log is undefined
    from epsode import periodic
    sysd = system_from_expressions("log", 1, TWO_PI, ("-20",),
                                   ("-log(x1 + 2)",))
    tried = []
    real = periodic.shoot

    def spy(sys, eps, seed, **kwargs):
        tried.append(float(seed[0]))
        return real(sys, eps, seed, **kwargs)

    monkeypatch.setattr(periodic, "shoot", spy)
    sw = eps_sweep(sysd, None, [0.05, 0.15], seed=[0.0])
    xi_c = np.exp(-1.0) - 2
    assert [r.xi_star[0] for r in sw.results] == pytest.approx(
        [xi_c, np.exp(-3.0) - 2], abs=1e-9)
    assert tried[1] == pytest.approx(xi_c - 0.1 * 20 * np.exp(-1.0),
                                     abs=1e-8)
    assert tried[1] < -2
    assert tried[2:] == [sw.results[0].xi_star[0]]
    assert sw.seed_kinds == ["given", "continued"]
    assert sw.results[1].seed[0] == tried[2]


def test_singular_orbit_gives_no_tangent(e1, monkeypatch):
    # at eps = 0 the cycle point is a fixed point with a unit multiplier,
    # so no tangent is computed and 1e-2 starts from the orbit itself; the
    # disk of radius 2 holds the cycle, which the unit disk's boundary is
    from epsode import periodic
    runs = []
    real = periodic.flow_lanes

    def spy(*args, **kwargs):
        runs.append(kwargs.get("forcings", ()))
        return real(*args, **kwargs)

    monkeypatch.setattr(periodic, "flow_lanes", spy)
    sw = eps_sweep(e1, PlanarRegion.circle(0.0, 0.0, 2.0, 512), [0.0, 1e-2],
                   seed=[1.0, 0.0])
    assert sw.results[0].jacobian_singular
    assert all(forcings == () for forcings in runs)
    # the cycle point stalls at 1e-2, as from the given seed
    assert sw.seed_kinds == ["given", "fallback"]


def test_fixed_strategy_shoots_each_eps_on_its_own(e1, disk, e1_cycle):
    prof = melnikov_profile(e1, e1_cycle, np.linspace(0, TWO_PI, 9))
    eps_list = [1e-2, 5e-3]
    sw = eps_sweep(e1, disk, eps_list, seed_strategy="fixed", cycle=e1_cycle,
                   melnikov=prof)
    assert "predicted" not in sw.seed_kinds
    for eps, r in zip(eps_list, sw.results):
        alone = eps_sweep(e1, disk, [eps], cycle=e1_cycle,
                          melnikov=prof).results[0]
        assert np.array_equal(r.xi_star, alone.xi_star)
        assert r.residual_history == alone.residual_history


def test_sweep_empty_list(e1, disk):
    sw = eps_sweep(e1, disk, [])
    assert sw.results == [] and sw.slope is None


def test_eps_sweep_rejects_unknown_seed_strategy(e1, disk):
    with pytest.raises(ValueError, match="'continuation' or 'fixed'"):
        eps_sweep(e1, disk, [1e-2], seed_strategy="continuaton")


def test_sweep_amplitude_approaches_resonant_root(e2):
    rm = resonance_H("(1 - x1^2)*x2 + cos(t)", (1.5, 3.0), (1.0, 2.2),
                     grid=(4, 4))
    z = rm.zeros[0]
    seed = resonance_initial_point(z.a, z.theta)
    sw = eps_sweep(e2, None, [4e-3, 1e-3], seed=seed)
    amps = [orbit_amplitude(r.orbit) for r in sw.results]
    assert abs(amps[1] - z.a) < abs(amps[0] - z.a)
    assert abs(amps[1] - z.a) <= 0.05


def test_warm_start_direction_independence(e2):
    rm = resonance_H("(1 - x1^2)*x2 + cos(t)", (1.5, 3.0), (1.0, 2.2),
                     grid=(4, 4))
    z = rm.zeros[0]
    seed = resonance_initial_point(z.a, z.theta)
    down = eps_sweep(e2, None, [2e-3, 1e-3], seed=seed)
    up = eps_sweep(e2, None, [1e-3, 2e-3], seed=seed)
    by_eps_down = {r.eps: r.xi_star for r in down.results}
    by_eps_up = {r.eps: r.xi_star for r in up.results}
    for eps in (1e-3, 2e-3):
        assert np.linalg.norm(by_eps_down[eps] - by_eps_up[eps]) <= 1e-6
