import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from epsode import conditions
from epsode import (PlanarRegion, ProductRegion, check_A0, check_A1, check_A2,
                    defect_normal_profile, floquet_condition_A3,
                    gauss_legendre_panels, melnikov_profile, resonance_H,
                    resonance_initial_point, system_from_callables,
                    system_from_expressions, compare_defect_degrees,
                    winding_number)

TWO_PI = 2 * np.pi


def trivial_sys(phi, k=2):
    return system_from_expressions("t", k, TWO_PI, phi, ("0",) * k)


# ---------------------------------------------------------------- A0 -------

def test_a0_static_flow_holds(disk):
    rep = check_A0(trivial_sys(("1", "0")), disk, n_samples=64)
    assert rep.verdict == "holds" and rep.margin == 0.0


def test_a0_on_cycle_boundary(e1, disk):
    rep = check_A0(e1, disk)
    assert rep.verdict == "holds"
    assert rep.margin <= 1e-7


def test_a0_fails_inside_the_cycle(e1):
    small = PlanarRegion.circle(0, 0, 0.5, 256)
    rep = check_A0(e1, small)
    assert rep.verdict == "fails"
    assert rep.margin > 1e-3
    assert np.linalg.norm(rep.witness["point"]) == pytest.approx(0.5, abs=1e-6)


def test_a0_product_region_static_flow():
    sysd = system_from_expressions("t4", 4, TWO_PI, ("1", "0", "0", "1"),
                                   ("0", "0", "0", "0"))
    prod = ProductRegion([PlanarRegion.circle(0, 0, 1, 64),
                          PlanarRegion.circle(0, 0, 2, 64)])
    rep = check_A0(sysd, prod, n_samples=128)
    assert rep.verdict == "holds"


# ---------------------------------------------------------------- A1 -------

def test_a1_zero_forcing_fails(disk):
    rep = check_A1(trivial_sys(("0", "0")), disk, boundary_samples=32,
                   s_grid=np.linspace(0, TWO_PI, 5))
    assert rep.verdict == "fails"
    assert rep.margin <= 1e-12


def test_a1_holds_on_e1(e1, disk):
    rep = check_A1(e1, disk, boundary_samples=128)
    assert rep.verdict == "holds"
    assert rep.margin > 0


def test_a1_zero_average_forcing_fails(disk):
    rep = check_A1(trivial_sys(("cos(t)", "0")), disk, boundary_samples=32,
                   s_grid=np.linspace(0, TWO_PI, 5))
    assert rep.verdict == "fails"


# ---------------------------------------------------------------- A2 -------

def test_a2_linear_inward_forcing(disk):
    rep, deg = check_A2(trivial_sys(("-x1", "-x2")), disk,
                        boundary_samples=64)
    assert rep.verdict == "holds"
    assert deg.degree == 1


def test_a2_constant_forcing_fails(disk):
    rep, deg = check_A2(trivial_sys(("1", "0")), disk, boundary_samples=64)
    assert rep.verdict == "fails"
    assert deg.degree == 0


def test_a2_e1_defect_vanishes_on_boundary(e1, disk):
    # the defect field on the cycle is radial with two sign flips, so the
    # rotation number is undefined there and the check reports it
    rep, deg = check_A2(e1, disk, boundary_samples=128)
    assert rep.verdict == "inconclusive"
    assert deg is None
    p = rep.witness["point"]
    assert abs(2 * p[0] + p[1]) <= 1e-4  # flips sit on 2 cos a + sin a = 0


def test_a2_decoupled_product_system():
    sysd = system_from_expressions("t4", 4, TWO_PI,
                                   ("-x1", "-x2", "-x3", "-x4"),
                                   ("0", "0", "0", "0"))
    prod = ProductRegion([PlanarRegion.circle(0, 0, 1, 64),
                          PlanarRegion.circle(0, 0, 1, 64)])
    rep, deg = check_A2(sysd, prod, boundary_samples=64)
    assert rep.verdict == "holds"
    assert deg.degree == 1


def test_a2_coupled_product_system_is_not_holds():
    # psi = 0, so the defect is 2 pi phi = 2 pi (x1 - 0.5, x2, x3 - 4 x1, x4);
    # its only zero (0.5, 0, 2, 0) has |(x3, x4)| = 2, outside the product
    # of unit disks, so the degree there is 0 and "holds" would be false
    sysd = system_from_expressions("c4", 4, TWO_PI,
                                   ("x1 - 0.5", "x2", "x3 - 4*x1", "x4"),
                                   ("0", "0", "0", "0"))
    zero = np.linalg.solve([[1, 0, 0, 0], [0, 1, 0, 0], [-4, 0, 1, 0],
                            [0, 0, 0, 1]], [0.5, 0, 0, 0])
    assert np.hypot(*zero[2:]) > 1.0
    prod = ProductRegion([PlanarRegion.circle(0, 0, 1, 64),
                          PlanarRegion.circle(0, 0, 1, 64)])
    rep, deg = check_A2(sysd, prod, boundary_samples=64)
    assert rep.verdict == "inconclusive" and deg is None
    assert rep.witness["component"] == "phi3"
    assert rep.witness["variable"] == "x1"


def test_a2_opaque_system_on_product_region_is_inconclusive():
    sysd = system_from_callables("o4", 4, TWO_PI, lambda t, x: -x,
                                 lambda t, x: 0 * x)
    prod = ProductRegion([PlanarRegion.circle(0, 0, 1, 64),
                          PlanarRegion.circle(0, 0, 1, 64)])
    rep, deg = check_A2(sysd, prod, boundary_samples=64)
    assert rep.verdict == "inconclusive" and deg is None
    assert "opaque" in rep.witness["reason"]


# ------------------------------------------------------- flow failures ----

def test_flow_failure_is_inconclusive_with_the_error_as_witness(
        e1_cycle, monkeypatch):
    # x1' = x1^2 + 1 escapes to infinity at t = pi/4 from x1 = 1
    blowup = system_from_expressions("blow-up", 2, TWO_PI, ("1", "0"),
                                     ("x1^2 + 1", "x2"))
    disk = PlanarRegion.circle(0.0, 0.0, 1.0, 32)
    from epsode import variational
    real, calls = variational.defect_many, []

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(variational, "defect_many", counting)
    a2, degree = check_A2(blowup, disk, boundary_samples=32)
    # one failing round, and no second run of it to fill data
    assert degree is None and a2.data == {} and calls == [32]
    reports = [check_A0(blowup, disk, n_samples=32),
               check_A1(blowup, disk, [0.0, 1.0], boundary_samples=32), a2,
               # the e1 cycle closes up, so the flow fails only in the check
               floquet_condition_A3(blowup, e1_cycle, [0.0, 1.0])]
    for cond, rep in zip(("A0", "A1", "A2", "A3"), reports):
        assert (rep.condition, rep.verdict) == (cond, "inconclusive")
        assert list(rep.witness) == ["error"]
        assert rep.witness["error"].startswith("step failed")
        assert rep.summary().startswith(f"{cond} inconclusive (error=step")


# ------------------------------------------------------------------ A3_1 ----

@pytest.mark.parametrize("values, a3_tol, verdict", [
    ([3.0, -2.0, 5.0], 1e-8, "holds"),
    ([3.0, 1e-9, 5.0], 1e-8, "fails"),   # 1e-9 < 1e-8 * max(1, 5)
    ([0.5, 6e-9, 0.2], 1e-8, "fails"),   # the scale is at least 1
    ([0.5, 6e-9, 0.2], 5e-9, "holds"),
])
def test_a3_1_rule(values, a3_tol, verdict):
    thetas = np.array([0.0, 1.0, 2.0])
    values = np.array(values)
    prof = conditions.MelnikovProfile(thetas, values,
                                      float(np.min(np.abs(values))),
                                      (1.0, 1.0), 64, 8)
    rep = prof.check_A3_1(a3_tol)
    assert (rep.condition, rep.verdict) == ("A3_1", verdict)
    assert rep.margin == np.min(np.abs(values))
    assert rep.witness == {"theta": 1.0, "M": values[1]}  # smallest |M|


# ---------------------------------------------------------- cycle integral -

def test_melnikov_zero_forcing(e1, e1_cycle):
    sysd = system_from_expressions(
        "e1-z", 2, TWO_PI, ("0", "0"),
        ("-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)"))
    prof = melnikov_profile(sysd, e1_cycle, np.linspace(0, TWO_PI, 9))
    assert np.max(np.abs(prof.values)) <= 1e-9


def test_melnikov_constant_on_e1(e1, e1_cycle):
    prof = melnikov_profile(e1, e1_cycle)
    oracle, _ = quad(lambda t: np.exp(2 * t) * (-np.cos(t)), 0, TWO_PI,
                     limit=200)
    closed = -(2.0 / 5.0) * (np.exp(4 * np.pi) - 1)
    assert oracle == pytest.approx(closed, rel=1e-12)
    assert np.max(np.abs(prof.values - closed) / abs(closed)) <= 1e-6
    spread = np.max(np.abs(prof.values - prof.values[0]))
    assert spread <= 1e-8 * abs(prof.values[0])
    # quadrature nodes stop short of t = T, so the observed peak sits below
    assert prof.weight_range[1] == pytest.approx(np.exp(4 * np.pi), rel=5e-3)


class UnitCycle:
    """The e1 cycle (cos t, sin t) in closed form."""

    def eval(self, t):
        return np.stack([np.cos(t), np.sin(t)], axis=-1)


def test_melnikov_weight_is_running_quadrature(e1, monkeypatch):
    # div psi = 2 - 4 r^2 = -2 on the unit circle, so the weight is e^{2t}
    runs = []
    real = conditions.gauss_legendre_running

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(conditions, "gauss_legendre_running", spy)
    prof = melnikov_profile(e1, UnitCycle(), np.array([0.0]))
    nodes, _ = gauss_legendre_panels(0.0, TWO_PI, 64, 8)
    assert len(runs) == 1
    assert np.max(np.abs(np.exp(-runs[0]) / np.exp(2 * nodes) - 1)) <= 1e-12
    assert prof.weight_range == pytest.approx(
        (np.exp(2 * nodes[0]), np.exp(2 * nodes[-1])), rel=1e-12)


def test_melnikov_makes_no_dense_run(e1, e1_cycle, monkeypatch):
    from epsode import solver, variational

    def dense(*args, **kwargs):
        raise AssertionError("melnikov_profile ran a dense integration")

    for module in (solver, variational, conditions):
        monkeypatch.setattr(module, "integrate", dense, raising=False)
    prof = melnikov_profile(e1, e1_cycle, np.linspace(0, TWO_PI, 5))
    closed = -(2.0 / 5.0) * (np.exp(4 * np.pi) - 1)
    assert np.max(np.abs(prof.values - closed) / abs(closed)) <= 1e-6


def test_melnikov_divergence_free_weight(e2):
    from epsode import flow_omega_dense
    cycle = flow_omega_dense(e2, 0.0, TWO_PI, [1.5, 0.0])
    prof = melnikov_profile(e2, cycle, np.linspace(0, TWO_PI, 9))
    assert abs(prof.weight_range[0] - 1.0) <= 1e-12
    assert abs(prof.weight_range[1] - 1.0) <= 1e-12


def test_melnikov_scales_linearly_in_forcing(e1_cycle):
    psi = ("-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)")
    thetas = np.linspace(0, TWO_PI, 5)
    base = melnikov_profile(
        system_from_expressions("b", 2, TWO_PI, ("1", "0"), psi),
        e1_cycle, thetas)
    scaled = melnikov_profile(
        system_from_expressions("s", 2, TWO_PI, ("0.37", "0"), psi),
        e1_cycle, thetas)
    assert np.max(np.abs(scaled.values - 0.37 * base.values)
                  / np.abs(0.37 * base.values)) <= 1e-10


def test_melnikov_periodic_in_theta(e1, e1_cycle):
    prof = melnikov_profile(e1, e1_cycle, np.array([0.0, TWO_PI]))
    assert abs(prof.values[0] - prof.values[1]) \
        <= 1e-8 * (1 + abs(prof.values[0]))


def test_melnikov_requires_planar(e3, e1_cycle):
    with pytest.raises(ValueError, match="planar"):
        melnikov_profile(e3, e1_cycle)


def test_defect_normal_profile_matches_closed_form(e1, e1_cycle):
    s_grid, thetas, proj = defect_normal_profile(
        e1, e1_cycle, s_grid=np.array([0.0]),
        theta_grid=np.array([0.0, 1.0, 3.0]))
    # at s=0 the projection on the rotated velocity is -(radial defect)
    c = (1 - np.exp(-4 * np.pi)) / 5
    for j, th in enumerate(thetas):
        expect = -c * (2 * np.cos(th) + np.sin(th))
        assert proj[0, j] == pytest.approx(expect, abs=1e-7)


# ----------------------------------------------------- homotopy compare ----

def test_degree_comparison_identical_pair(disk):
    s1 = trivial_sys(("-x1", "-x2"))
    s2 = trivial_sys(("-x1", "-x2"))
    rep = compare_defect_degrees(s1, s2, disk, boundary_samples=64,
                           s_grid=np.linspace(0, TWO_PI, 5))
    assert rep.verdict == "holds"
    assert rep.degree_1 == rep.degree_2 == 1
    assert rep.min_defect == pytest.approx(TWO_PI, rel=1e-9)


def test_degree_comparison_scaled_pair(disk):
    rep = compare_defect_degrees(trivial_sys(("-x1", "-x2")),
                           trivial_sys(("-2*x1", "-2*x2")), disk,
                           boundary_samples=64,
                           s_grid=np.linspace(0, TWO_PI, 5))
    assert rep.verdict == "holds"
    assert (rep.degree_1, rep.degree_2) == (1, 1)


def test_degree_comparison_vanishing_homotopy_witness(disk):
    rep = compare_defect_degrees(trivial_sys(("1", "0")),
                           trivial_sys(("-x1", "-x2")), disk,
                           boundary_samples=64,
                           s_grid=np.linspace(0, TWO_PI, 5))
    assert rep.verdict == "inconclusive"
    assert rep.witness["lambda"] == pytest.approx(0.5)
    assert np.allclose(rep.witness["point"], [1.0, 0.0], atol=1e-12)
    assert rep.min_defect <= 1e-9


def test_degree_comparison_rejects_product_region_before_integrating(
        monkeypatch):
    from epsode import conditions
    calls = []
    real = conditions._defect_profiles

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(conditions, "_defect_profiles", counting)
    prod = ProductRegion([PlanarRegion.circle(0, 0, 1, 64)])
    with pytest.raises(ValueError, match="planar regions"):
        compare_defect_degrees(trivial_sys(("-x1", "-x2")),
                               trivial_sys(("1", "0")), prod,
                               boundary_samples=64,
                               s_grid=np.linspace(0, TWO_PI, 5))
    assert calls == []


def test_degree_comparison_rejects_mismatched_unperturbed_fields(disk):
    s1 = trivial_sys(("1", "0"))
    s2 = system_from_expressions("other", 2, TWO_PI, ("1", "0"),
                                 ("x1", "x2"))
    with pytest.raises(ValueError, match="unperturbed"):
        compare_defect_degrees(s1, s2, disk)


# ------------------------------------------------------------- resonance --

FORCING = "(1 - x1^2)*x2 + cos(t)"


def test_resonance_degenerate():
    rm = resonance_H("0", (0.5, 3.0), (0.0, TWO_PI), grid=(5, 5))
    assert rm.degenerate and rm.zeros == []


def test_resonance_zero_and_jacobian():
    rm = resonance_H(FORCING, (0.5, 3.5), (0.0, TWO_PI), grid=(8, 8))
    a0 = brentq(lambda a: a ** 3 - 4 * a - 4, 2.0, 3.0, xtol=1e-14)
    assert len(rm.zeros) == 1
    z = rm.zeros[0]
    assert z.theta == pytest.approx(np.pi / 2, abs=1e-6)
    assert z.a == pytest.approx(a0, abs=1e-6)
    assert z.det == pytest.approx(-np.pi ** 2 * (3 * a0 ** 2 / 4 - 1),
                                  abs=1e-4)
    # local degree over a small box equals the Jacobian sign
    box = rm.box(z)
    rep = winding_number(lambda P: rm.evaluate_many(P[:, 0], P[:, 1]), box,
                         n0=256)
    assert rep.degree == -1 == int(np.sign(z.det))


def test_resonance_closed_form_values():
    rm = resonance_H(FORCING, (0.5, 3.5), (0.0, TWO_PI), grid=(4, 4))
    for a, th in ((1.0, 0.5), (2.5, 2.0)):
        H = rm.evaluate((a, th))
        assert H[0] == pytest.approx(
            np.pi * (-a + a ** 3 / 4 - np.sin(th)), rel=1e-10, abs=1e-10)
        assert H[1] == pytest.approx(np.pi * np.cos(th), rel=1e-10, abs=1e-10)


def test_resonance_newton_batches_the_seeds(monkeypatch):
    # the 144 seeds run as lanes of one damped Newton, so each call of the
    # forcing covers many seeds; one Newton per seed makes about 16,000
    real, widths = conditions.ex.compile_expr, []

    def counting(*args, **kwargs):
        f = real(*args, **kwargs)

        def counted(t, x):
            widths.append(np.size(t))
            return f(t, x)

        return counted

    monkeypatch.setattr(conditions.ex, "compile_expr", counting)
    rm = resonance_H(FORCING, (0.5, 3.5), (0.0, TWO_PI), grid=(12, 12))
    assert len(rm.zeros) == 1
    assert len(widths) <= 2500
    assert max(widths) <= 144 * 64 * 8  # no call wider than the seed grid


def test_resonance_newton_stops_at_minimal_damping(monkeypatch):
    # with damping factors down to 2^-11 only, the lanes that end at
    # critical points of |H| stop after 12 halvings, not 30 (1,048 calls of
    # the Newton's fj on this grid)
    fj_calls, widths = [], []
    real_newton = conditions.damped_newton
    real_compile = conditions.ex.compile_expr

    def counting_newton(fj, *args, **kwargs):
        def counted(X, jacobian):
            fj_calls.append(len(X))
            return fj(X, jacobian)

        return real_newton(counted, *args, **kwargs)

    def counting_compile(*args, **kwargs):
        f = real_compile(*args, **kwargs)

        def counted(t, x):
            widths.append(np.size(t))
            return f(t, x)

        return counted

    monkeypatch.setattr(conditions, "damped_newton", counting_newton)
    monkeypatch.setattr(conditions.ex, "compile_expr", counting_compile)
    rm = resonance_H(FORCING, (0.5, 3.5), (0.0, TWO_PI), grid=(12, 12))
    assert len(rm.zeros) == 1
    assert len(fj_calls) <= 400
    # the reported cost agrees with the count made here; the scalar calls
    # are the periodicity probes, not quadrature
    quadrature = [w for w in widths if w > 1]
    assert rm.forcing_calls == len(quadrature)
    assert rm.quad_points == sum(quadrature)
    assert sum(rm.newton.values()) == 144 and rm.newton["converged"] >= 1


def test_resonance_lane_bits_do_not_depend_on_batch_width():
    rm = resonance_H(FORCING, (0.5, 3.5), (0.0, TWO_PI), grid=(4, 4))
    A, TH = (g.ravel() for g in np.meshgrid(
        np.linspace(0.5, 3.5, 12), np.linspace(0.0, TWO_PI, 12), indexing="ij"))
    full = rm.evaluate_many(A, TH)
    for i in range(len(A)):
        alone = rm.evaluate_many(A[i:i + 1], TH[i:i + 1])[0]
        assert np.array_equal(alone, full[i])
        for w in (2, 3, 5):
            s = min(i, len(A) - w)
            assert np.array_equal(
                alone, rm.evaluate_many(A[s:s + w], TH[s:s + w])[i - s])


def test_resonance_finds_the_three_zeros_of_a_weak_forcing():
    # H = pi (a^3/4 - a - 0.3 sin theta, 0.3 cos theta): zeros at theta =
    # pi/2 where a^3 - 4a - 1.2 = 0 and at theta = 3 pi/2 where
    # a^3 - 4a + 1.2 = 0, with det J = -0.3 pi^2 (3a^2/4 - 1) sin theta
    rm = resonance_H("(1 - x1^2)*x2 + 0.3*cos(t)", (0.2, 3.5), (0.0, TWO_PI))

    def cubic(c):
        return lambda a: a ** 3 - 4 * a + c

    want = [(brentq(cubic(1.2), 0.2, 1.0, xtol=1e-14), 1.5 * np.pi),
            (brentq(cubic(1.2), 1.0, 3.0, xtol=1e-14), 1.5 * np.pi),
            (brentq(cubic(-1.2), 2.0, 3.0, xtol=1e-14), 0.5 * np.pi)]
    assert len(rm.zeros) == 3
    for z, (a, th) in zip(rm.zeros, want):
        assert z.a == pytest.approx(a, abs=1e-8)
        assert z.theta == pytest.approx(th, abs=1e-8)
        assert np.sign(z.det) == -np.sign((0.75 * a * a - 1) * np.sin(th))


def test_resonance_seed_point():
    p = resonance_initial_point(2.0, np.pi / 2)
    assert np.allclose(p, [0.0, 2.0], atol=1e-15)


def test_defect_degree_matches_resonance_degree_up_to_orientation(e2, disk):
    # the polar chart (a, theta) -> (-a cos theta, a sin theta) reverses
    # orientation (det = -a < 0), so the defect degree over the image of the
    # box is minus the resonance-map degree over the box
    rm = resonance_H(FORCING, (1.8, 3.0), (1.0, 2.2), grid=(6, 6))
    z = rm.zeros[0]
    box = rm.box(z, half=0.2)
    rep_H = winding_number(lambda P: rm.evaluate_many(P[:, 0], P[:, 1]), box,
                           n0=256)

    def image_curve(u):
        pts = box.boundary_points(us=np.atleast_1d(u))
        return np.stack([-pts[:, 0] * np.cos(pts[:, 1]),
                         pts[:, 0] * np.sin(pts[:, 1])], axis=-1)

    image = PlanarRegion(curve=lambda u: image_curve(1.0 - np.atleast_1d(u)),
                         n_hint=512)
    from epsode import DefectField
    fld = DefectField(e2, 0.0)
    rep_D = winding_number(fld.eval_many, image, n0=128)
    assert rep_D.degree == -rep_H.degree
    assert abs(rep_D.degree) == 1
