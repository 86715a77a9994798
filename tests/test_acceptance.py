"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Derived constants are reproduced by their stated independent oracles before
being asserted against the implementation.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from epsode import (PlanarRegion, accumulated_angle, check_A0, check_A1,
                    check_A2, eps_sweep, eta, averaged_field, flow_omega,
                    flow_omega_dense, gauss_legendre_panels, melnikov_profile,
                    orbit_amplitude, product_degree, ProductRegion,
                    resonance_H, resonance_initial_point, shoot,
                    system_from_expressions, compare_defect_degrees,
                    verify_cauchy, winding_number, floquet_condition_A3)
from epsode.cli import run as cli_run
from epsode.expressions import differentiate, evaluate, parse, to_string
from epsode.variational import flow_lanes

TWO_PI = 2 * np.pi
E1_PSI = ("-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)")


class Criterion:
    def __init__(self, number, title, budget):
        self.number = number
        self.title = title
        self.budget = budget
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.title}]: {status} "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s)"
              + ("" if not self.failures else " :: " + "; ".join(self.failures)))
        assert elapsed <= self.budget, \
            f"criterion {self.number} exceeded its runtime budget"
        assert not self.failures, "; ".join(self.failures)


def test_criterion_1_melnikov_constant(e1, e1_cycle):
    crit = Criterion(1, "cycle integral constant", 2.0)
    # oracle first: adaptive quadrature of the closed-form integrand
    oracle, _ = quad(lambda t: np.exp(2 * t) * (-np.cos(t)), 0.0, TWO_PI,
                     limit=200)
    closed = -(2.0 / 5.0) * (np.exp(4 * np.pi) - 1.0)
    crit.check(abs(oracle - closed) / abs(closed) <= 1e-10,
               "quadrature oracle disagrees with the closed form")
    prof = melnikov_profile(e1, e1_cycle, np.linspace(0.0, TWO_PI, 65))
    rel = np.max(np.abs(prof.values - closed)) / abs(closed)
    crit.check(rel <= 1e-6, f"M relative error {rel:.3e} > 1e-6")
    spread = np.max(np.abs(prof.values - prof.values[0])) / abs(prof.values[0])
    crit.check(spread <= 1e-8, f"theta dependence {spread:.3e} > 1e-8")
    crit.finish()


def _e1_defect_zero_angles():
    """Angles a at which the anchor-0 defect of e1 vanishes on the unit cycle.

    Along the cycle theta' = 1 does not couple to the amplitude, so the
    tangential part of eta(T, 0, (cos a, sin a)) is -int_0^T sin(a + t) dt = 0
    and the radial part is int_0^T e^{-2(T - t)} cos(a + t) dt
    = (2 cos a + sin a)(1 - e^{-4 pi})/5, which changes sign once on each
    bracket.
    """
    def radial(a):
        return quad(lambda t: np.exp(-2 * (TWO_PI - t)) * np.cos(a + t),
                    0.0, TWO_PI, limit=200)[0]

    return [brentq(radial, lo, hi, xtol=1e-14)
            for lo, hi in ((-np.pi / 2, 0.0), (np.pi / 2, np.pi))]


def _e1_equilibrium(eps):
    """The only zero of eps*(1, 0) + psi in the plane, for small eps > 0.

    In polar form the drift adds eps cos(th) to r' = r(1 - r^2) and
    -eps sin(th)/r to th' = 1, so a zero has r = eps sin(th) and
    sin(th)(1 - r^2) + cos(th) = 0: no root on (0, pi/2], one on (pi/2, pi).
    """
    th = brentq(lambda th: np.sin(th) * (1 - (eps * np.sin(th)) ** 2)
                + np.cos(th), np.pi / 2, np.pi, xtol=1e-15)
    return eps * np.sin(th) * np.array([np.cos(th), np.sin(th)])


def _fmt(p):
    return "(" + ", ".join(f"{v:.9g}" for v in p) + ")"


def test_criterion_2_existence_loop_on_e1(e1, disk, e1_cycle):
    crit = Criterion(2, "existence loop on the cycle testbed", 30.0)
    # On e1 the existence hypotheses provably fail at the cycle: the defect
    # field vanishes at two boundary points (A2 undefined) and M(theta) has
    # no zeros, so no 2 pi orbit is born from the cycle and the only 2 pi
    # periodic solutions in the disk are the equilibria.  The loop must
    # report exactly that.  Oracles first.
    zero_angles = _e1_defect_zero_angles()
    tan_err = max(abs(np.tan(a) + 2.0) for a in zero_angles)
    crit.check(tan_err <= 1e-10,
               f"quadrature zeros miss tan a = -2 by {tan_err:.2e}")
    zeros = np.array([[np.cos(a), np.sin(a)] for a in zero_angles])
    eps_list = [1e-2, 5e-3, 2.5e-3]
    equilibria = [_e1_equilibrium(eps) for eps in eps_list]
    for eps, (x1, x2) in zip(eps_list, equilibria):
        q = 1 - x1 ** 2 - x2 ** 2
        miss = np.hypot(eps - x2 + x1 * q, x1 + x2 * q)
        crit.check(miss <= 1e-14,
                   f"eps {eps:g}: bisection equilibrium leaves field {miss:.2e}")

    a0 = check_A0(e1, disk)
    crit.check(a0.verdict == "holds" and a0.margin <= 1e-7,
               f"A0 {a0.verdict} margin {a0.margin:.3e}")
    # holds at grid resolution only: the s = 0 witness sits next to a zero
    a1 = check_A1(e1, disk)
    crit.check(a1.verdict == "holds" and a1.margin > 0,
               f"A1 {a1.verdict} min {a1.margin:.3e}")
    for n in (512, 1024):
        a2 = check_A2(e1, disk, boundary_samples=n)
        crit.check(a2.verdict == "inconclusive" and "degree" not in a2.witness,
                   f"A2 at {n} samples {a2.verdict} (degree "
                   f"{a2.witness.get('degree')}) although the closed-form "
                   f"defect vanishes at {_fmt(zeros[0])} and {_fmt(zeros[1])}")
        point = np.asarray(a2.witness.get("point", (np.nan, np.nan)))
        norm = a2.witness.get("norm", np.inf)
        tol = a2.tolerances["vanish_tol"]
        crit.check(norm <= tol,
                   f"A2 at {n} samples: witness norm {norm:.3e} above "
                   f"vanish_tol {tol:.1e}")
        # |radial'| = (1 - e^{-4 pi})/sqrt(5) at a zero, so a witness below
        # vanish_tol sits within ~2e-9 of it; 1e-7 leaves room for
        # integration error and still rejects a 1e-6 shift in any direction
        miss = np.min(np.linalg.norm(zeros - point, axis=1))
        crit.check(miss <= 1e-7,
                   f"A2 witness {_fmt(point)} at {n} samples is {miss:.2e} "
                   f"from the closed-form zero")
    prof = melnikov_profile(e1, e1_cycle, np.linspace(0.0, TWO_PI, 65))
    crit.check(prof.min_abs > 0,
               f"min |M| {prof.min_abs:.3e}, closed form |M| = "
               f"{(2.0 / 5.0) * (np.exp(4 * np.pi) - 1.0):.6e} everywhere")
    sw = eps_sweep(e1, disk, eps_list, cycle=e1_cycle, melnikov=prof)
    conv = [r for r in sw.results if r.converged]
    crit.check(len(conv) == 3, f"only {len(conv)}/3 eps values converged")
    crit.check(all(r.residual <= 1e-9 for r in conv), "residual > 1e-9")
    crit.check(all(r.in_region for r in conv), "orbit not in the admissible set")
    for r, eq in zip(sw.results, equilibria):
        miss = np.linalg.norm(r.xi_star - eq)
        crit.check(miss <= 1e-8,
                   f"eps {r.eps:g}: xi* {_fmt(r.xi_star)} is {miss:.2e} from "
                   f"the equilibrium {_fmt(eq)}")
    # the region is a 512-gon, so each distance to its boundary is about
    # cos(pi/512) (1 - r); the constant factor drops out of the log-log slope
    slope = np.polyfit(np.log(eps_list),
                       np.log([1 - np.linalg.norm(eq) for eq in equilibria]),
                       1)[0]
    crit.check(sw.slope is not None and abs(sw.slope - slope) <= 1e-6,
               f"distance-to-boundary slope {sw.slope} vs equilibrium "
               f"oracle {slope:.7f}")
    crit.finish()


def test_criterion_3_resonance_example(e2):
    crit = Criterion(3, "forced-center resonance example", 30.0)
    a0_oracle = brentq(lambda a: a ** 3 - 4 * a - 4, 2.0, 3.0, xtol=1e-14)
    crit.check(abs(a0_oracle - 2.3829) <= 1e-3,
               "bisection oracle far from the documented value")
    rm = resonance_H("(1 - x1^2)*x2 + cos(t)", (0.5, 3.5), (0.0, TWO_PI),
                     grid=(12, 12))
    crit.check(len(rm.zeros) == 1, f"{len(rm.zeros)} zeros found, expected 1")
    z = rm.zeros[0]
    crit.check(abs(z.theta - np.pi / 2) <= 1e-6,
               f"theta0 off by {abs(z.theta - np.pi / 2):.2e}")
    crit.check(abs(z.a - 2.3829) <= 1e-3, f"a0 = {z.a}")
    crit.check(abs(z.a - a0_oracle) <= 1e-8, "a0 disagrees with the oracle")
    det_expected = -np.pi ** 2 * (3 * z.a ** 2 / 4 - 1.0)
    crit.check(abs(z.det - det_expected) <= 1e-4,
               f"det H' = {z.det} vs {det_expected}")
    rep = winding_number(lambda P: rm.evaluate_many(P[:, 0], P[:, 1]),
                         rm.box(z, 0.2), n0=256)
    crit.check(abs(rep.degree) == 1 and rep.degree == int(np.sign(z.det)),
               f"box degree {rep.degree} vs sign(det) {int(np.sign(z.det))}")
    res = shoot(e2, 1e-3, resonance_initial_point(z.a, z.theta))
    crit.check(res.converged and res.residual <= 1e-9,
               f"shoot residual {res.residual:.2e}")
    amp = orbit_amplitude(res.orbit)
    crit.check(abs(amp - z.a) <= 0.05, f"orbit amplitude {amp} vs a0 {z.a}")
    crit.finish()


def test_criterion_4_static_flow_reduction(e3):
    crit = Criterion(4, "static-flow averaging consistency", 5.0)
    av = averaged_field(e3, r=2.0)
    nodes, weights = gauss_legendre_panels(0.0, TWO_PI)
    worst = 0.0
    for xi in av.samples:
        f0 = float(np.dot(weights,
                          [e3.phi(t, xi)[0] for t in nodes])) / TWO_PI
        worst = max(worst, abs(av(xi)[0] - f0))
    crit.check(worst <= 1e-6, f"averaged field vs direct average: {worst:.2e}")
    worst = 0.0
    for n in (1, 3):
        for xi in (1.3, -0.4):
            sol = eta(e3, 0.0, [xi], eval_times=[-n * TWO_PI])
            worst = max(worst, abs(sol.values[0][0] - xi * n * TWO_PI))
    crit.check(worst <= 1e-9, f"backward response vs closed form: {worst:.2e}")
    crit.finish()


def test_criterion_5_first_order_rate(e3):
    crit = Criterion(5, "first-order approximation rate", 20.0)
    verdicts = verify_cauchy(e3, [1.0], 1.0, [0.01, 0.005],
                             averaged_field(e3, r=4.0), gamma_tol=0.1)
    crit.check(all(v.verdict == "holds" for v in verdicts),
               "sup error above gamma tolerance 0.1")
    ratio = verdicts[0].sup_error / verdicts[1].sup_error
    crit.check(1.6 <= ratio <= 2.4, f"error ratio {ratio:.3f} not in [1.6, 2.4]")
    crit.finish()


def _complex_power_forcing(z, n, w):
    zr, zi = z
    powers = {
        1: ("x1", "x2"),
        2: ("(x1^2 - x2^2)", "(2*x1*x2)"),
        3: ("(x1^3 - 3*x1*x2^2)", "(3*x1^2*x2 - x2^3)"),
    }[n]
    re = f"{zr}*{powers[0]} - {zi}*{powers[1]} + {w}*cos(t)"
    im = f"{zi}*{powers[0]} + {zr}*{powers[1]}"
    return (re, im)


def test_criterion_6_homotopy_invariance(disk):
    crit = Criterion(6, "homotopy invariance of the defect degree", 20.0)
    # documented random family: scaled complex-power fields z * (x1 + i x2)^n
    # with both coefficients in the right half plane, plus a zero-average
    # time term; convex combinations stay nonvanishing on the circle because
    # the segment between the coefficients misses the origin
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(1, 4))
        pair = []
        for m in range(2):
            mod = rng.uniform(0.5, 2.0)
            ang = rng.uniform(-1.2, 1.2)
            w = round(rng.uniform(-1.0, 1.0), 3)
            zc = (round(mod * np.cos(ang), 6), round(mod * np.sin(ang), 6))
            pair.append(system_from_expressions(
                f"trial{trial}-{m}", 2, TWO_PI,
                _complex_power_forcing(zc, n, w), ("0", "0")))
        rep = compare_defect_degrees(pair[0], pair[1], disk, boundary_samples=64,
                               s_grid=np.linspace(0.0, TWO_PI, 5))
        crit.check(rep.verdict == "holds",
                   f"trial {trial}: verdict {rep.verdict}")
        degrees = rep.data.get("degrees")
        crit.check(degrees == (n, n),
                   f"trial {trial}: degrees {degrees} vs expected {n}")
    s1 = system_from_expressions("c1", 2, TWO_PI, ("1", "0"), ("0", "0"))
    s2 = system_from_expressions("c2", 2, TWO_PI, ("-x1", "-x2"), ("0", "0"))
    rep = compare_defect_degrees(s1, s2, disk, boundary_samples=64,
                           s_grid=np.linspace(0.0, TWO_PI, 5))
    crit.check(rep.verdict == "inconclusive",
               f"counter-pair verdict {rep.verdict}")
    crit.check(abs(rep.witness.get("lambda", -1) - 0.5) <= 1e-12,
               f"vanishing-homotopy witness {rep.witness}")
    crit.finish()


def test_criterion_7_floquet_multipliers(e1, e1_cycle):
    crit = Criterion(7, "Floquet multipliers and Liouville identity", 5.0)
    M = flow_lanes(e1, 0.0, TWO_PI, [1.0, 0.0], S=np.eye(2),
                   tangents=2)[1][0]
    mus = sorted(np.linalg.eigvals(M), key=lambda m: -abs(m))
    crit.check(abs(mus[0] - 1.0) <= 1e-6, f"|mu1 - 1| = {abs(mus[0] - 1):.2e}")
    crit.check(abs(mus[1] - np.exp(-4 * np.pi)) <= 1e-7,
               f"|mu2 - e^-4pi| = {abs(mus[1] - np.exp(-4 * np.pi)):.2e}")
    # Liouville: det M = exp(int trace Dpsi) on e1, on y' = y (e at the
    # equilibrium over period 1) and on psi = 0 (det M = 1)
    exp1 = system_from_expressions("exp", 1, 1.0, ("0",), ("x1",))
    still = system_from_expressions("still", 2, TWO_PI, ("0", "0"),
                                    ("0", "0"))
    liou = [floquet_condition_A3(sysd, flow_omega_dense(sysd, 0.0, sysd.T, x0),
                                 theta_grid=np.linspace(0.0, sysd.T, 9))
            .data["max_liouville_rel_err"]
            for sysd, x0 in ((exp1, [0.0]), (still, [0.3, 0.3]))]
    liou.append(floquet_condition_A3(e1, e1_cycle,
                                     theta_grid=np.linspace(0.0, TWO_PI, 9))
                .data["max_liouville_rel_err"])
    crit.check(max(liou) <= 1e-6,
               f"worst Liouville relative error {max(liou):.2e}")
    crit.finish()


def test_criterion_8_infrastructure(e1, e2, disk, tmp_path):
    crit = Criterion(8, "infrastructure properties", 60.0)

    # flow semigroup and inversion
    rng = np.random.default_rng(77)
    worst = 0.0
    for sysd in (e1, e2):
        for _ in range(4):
            xi = rng.uniform(-1.2, 1.2, 2)
            scale = 1e-8 * (1 + np.linalg.norm(xi))
            mid = flow_omega(sysd, 1.2, 0.0, xi)
            err1 = np.linalg.norm(flow_omega(sysd, 2.9, 1.2, mid)
                                  - flow_omega(sysd, 2.9, 0.0, xi)) / scale
            err2 = np.linalg.norm(flow_omega(sysd, 0.0, 2.9,
                                             flow_omega(sysd, 2.9, 0.0, xi))
                                  - xi) / scale
            worst = max(worst, err1, err2)
    crit.check(worst <= 1.0, f"flow identities off by {worst:.2f}x tolerance")

    # response affinity in the forcing
    phis = (("1", "0"), ("sin(t)*x2", "x1"))
    vals = []
    for phi in phis:
        sysd = system_from_expressions("aff", 2, TWO_PI, phi, E1_PSI)
        vals.append(eta(sysd, 0.5, [0.8, 0.1], [0.0, TWO_PI]).values)
    lam = 0.3
    mix = tuple(f"{lam}*({a}) + {1 - lam}*({b})"
                for a, b in zip(phis[0], phis[1]))
    sys_mix = system_from_expressions("affmix", 2, TWO_PI, mix, E1_PSI)
    vmix = eta(sys_mix, 0.5, [0.8, 0.1], [0.0, TWO_PI]).values
    aff_err = np.max(np.abs(vmix - (lam * vals[0] + (1 - lam) * vals[1])))
    crit.check(aff_err <= 1e-9, f"affinity error {aff_err:.2e}")

    # degree axioms at test scale
    def zsq(P):
        return np.stack([P[:, 0] ** 2 - P[:, 1] ** 2,
                         2 * P[:, 0] * P[:, 1]], axis=1)

    degs = {winding_number(
        lambda P, lam=lam: zsq(P) + lam * np.array([0.3, 0.0]),
        disk).degree for lam in np.linspace(0, 1, 5)}
    crit.check(degs == {2}, f"homotopy invariance broken: degrees {degs}")
    pts = disk.boundary_points(256)
    total = accumulated_angle(zsq(pts))
    crit.check(abs(accumulated_angle(zsq(pts)[::-1]) + total) <= 1e-12,
               "orientation reversal does not negate the angle sum")
    prod = ProductRegion([PlanarRegion.circle(0, 0, 1, 128),
                          PlanarRegion.circle(0, 0, 1, 128)])
    dprod = product_degree([zsq, lambda P: P], prod).degree
    crit.check(dprod == 2, f"product degree {dprod} != 2")

    poly = PlanarRegion.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    curve = PlanarRegion(curve=lambda u: poly.boundary_points(us=u),
                         star_center=(0.0, 0.0))
    crit.check(winding_number(zsq, poly).degree
               == winding_number(zsq, curve).degree,
               "degree changed under boundary re-parametrization")

    # parser round-trip and derivative-vs-finite-difference at 500 samples
    def random_expr(rg, depth=0):
        atoms = ["t", "x1", "x2", str(round(rg.uniform(-2, 2), 3))]
        if depth >= 3 or rg.uniform() < 0.3:
            return rg.choice(atoms)
        op = rg.choice(["+", "-", "*", "f", "p"])
        a = random_expr(rg, depth + 1)
        b = random_expr(rg, depth + 1)
        if op == "f":
            fn = rg.choice(["sin", "cos", "exp"])
            return f"exp(0.3*({a}))" if fn == "exp" else f"{fn}({a})"
        if op == "p":
            return f"({a})^{rg.integers(2, 4)}"
        return f"({a}) {op} ({b})"

    rg = np.random.default_rng(42)
    checked = 0
    worst_fd = 0.0
    while checked < 500:
        e = parse(random_expr(rg))
        e2_ = parse(to_string(e))
        var = rg.choice(["t", "x1", "x2"])
        d = differentiate(e, var)
        t = rg.uniform(-2, 2)
        x = rg.uniform(-2, 2, 2)
        base = evaluate(e, t, x)
        if evaluate(e2_, t, x) != pytest.approx(base, rel=1e-14, abs=1e-14):
            crit.check(False, f"round trip broke for {to_string(e)}")
            break
        h = 1e-6 * (1 + abs({"t": t, "x1": x[0], "x2": x[1]}[var]))

        def at(delta):
            tt, xx = t, x.copy()
            if var == "t":
                tt = t + delta
            else:
                xx[int(var[1]) - 1] += delta
            return evaluate(e, tt, xx)

        exact = evaluate(d, t, x)
        fd = (at(h) - at(-h)) / (2 * h)
        tol = 1e-6 * (1 + abs(base) + abs(exact))
        worst_fd = max(worst_fd, abs(exact - fd) / tol)
        checked += 1
    crit.check(worst_fd <= 1.0,
               f"derivative vs finite differences off by {worst_fd:.2f}x")

    # byte-identical CSV reruns through the command line
    cfg = tmp_path / "e1.cfg"
    cfg.write_text("[system]\nbuiltin = e1-circle\n\n"
                   "[cycle]\nseed = (1, 0)\n")
    f1, f2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    rc1 = cli_run(["melnikov", "--config", str(cfg), "--out", str(f1)])
    rc2 = cli_run(["melnikov", "--config", str(cfg), "--out", str(f2)])
    crit.check(rc1 == 0 and rc2 == 0, "melnikov command failed")
    crit.check(f1.read_bytes() == f2.read_bytes(),
               "CSV reruns are not byte-identical")
    crit.finish()


def _e2_averaged(xi):
    """Averaged field of e2 by quadrature: (1/2 pi) int R(-s) phi(s, R(s) xi)
    over one period, with R(s) the rotation that psi = (-x2, x1) generates
    (so phi_1 = 0 drops out)."""
    def comp(j):
        def integrand(s):
            c, sn = np.cos(s), np.sin(s)
            x1, x2 = c * xi[0] - sn * xi[1], sn * xi[0] + c * xi[1]
            f2 = (1 - x1 ** 2) * x2 + np.cos(s)
            return sn * f2 if j == 0 else c * f2
        return quad(integrand, 0.0, TWO_PI, epsabs=1e-12, epsrel=1e-10,
                    limit=200)[0] / TWO_PI
    return np.array([comp(0), comp(1)])


def test_criterion_9_positive_existence_loop_on_e2(e2):
    crit = Criterion(9, "positive existence loop on the forced center", 10.0)
    # psi is a rotation with period 2 pi, so Omega(2 pi, 0, xi) = xi (A0
    # holds with zero residual) and the defect at every anchor is 2 pi
    # Phi(xi), with Phi the averaged field.  Phi vanishes at (0, a0), a0 the
    # root of a^3 - 4a - 4, with index 1, so on a small disk around it A1
    # and A2 hold and the eps sweep must find orbits that approach (0, a0)
    # at rate eps.  Oracles first: brentq, quad, arctan2 and DOP853.
    a0 = brentq(lambda a: a ** 3 - 4 * a - 4, 2.0, 3.0, xtol=1e-14)
    center = resonance_initial_point(a0, np.pi / 2)
    crit.check(np.linalg.norm(center - (0.0, a0)) <= 1e-15,
               f"resonance point {_fmt(center)} is not (0, a0)")
    region = PlanarRegion.circle(0.0, a0, 0.3, 256)
    pts = region.boundary_points(512)
    avg = np.array([_e2_averaged(p) for p in pts])
    a1_oracle = TWO_PI * np.min(np.linalg.norm(avg, axis=1))
    turns = np.diff(np.arctan2(avg[:, 1], avg[:, 0]), append=np.arctan2(
        avg[0, 1], avg[0, 0]))
    winding = np.sum((turns + np.pi) % TWO_PI - np.pi) / TWO_PI
    crit.check(abs(winding - 1) <= 1e-9, f"arctan2 winding {winding}")
    eps_list = [1e-2, 5e-3, 2.5e-3]

    a0_rep = check_A0(e2, region)
    crit.check(a0_rep.verdict == "holds" and a0_rep.margin <= 1e-8,
               f"A0 {a0_rep.verdict} margin {a0_rep.margin:.3e}")
    a1 = check_A1(e2, region, boundary_samples=512)
    crit.check(a1.verdict == "holds"
               and abs(a1.margin - a1_oracle) <= 1e-6 * a1_oracle,
               f"A1 {a1.verdict} margin {a1.margin:.9g} vs 2 pi min |Phi| "
               f"{a1_oracle:.9g}")
    a2 = check_A2(e2, region, boundary_samples=256)
    crit.check(a2.verdict == "holds"
               and a2.witness.get("degree") == round(winding),
               f"A2 {a2.verdict} (degree {a2.witness.get('degree')}) vs "
               f"arctan2 winding {winding:.6f}")
    sw = eps_sweep(e2, region, eps_list)
    conv = [r for r in sw.results if r.converged and r.in_region]
    crit.check(len(conv) == 3, f"only {len(conv)}/3 eps values converged "
               "inside the region")
    for r in conv:
        def full(t, x, eps=r.eps):
            return [-x[1], eps * ((1 - x[0] ** 2) * x[1] + np.cos(t)) + x[0]]
        end = solve_ivp(full, (0.0, TWO_PI), r.xi_star, method="DOP853",
                        rtol=1e-13, atol=1e-13).y[:, -1]
        miss = np.linalg.norm(end - r.xi_star)
        crit.check(miss <= 1e-7, f"eps {r.eps:g}: xi* {_fmt(r.xi_star)} "
                   f"misses its DOP853 period map by {miss:.2e}")
    if len(conv) == 3:
        dist = [np.linalg.norm(r.xi_star - center) for r in conv]
        slope = np.polyfit(np.log(eps_list), np.log(dist), 1)[0]
        crit.check(0.95 <= slope <= 1.05,
                   f"|xi* - (0, a0)| scales as eps^{slope:.4f}")
    crit.finish()
