"""Independent reference values and output checks for the benchmark.

Nothing here imports epsode: every expected value comes from a closed form,
``scipy.integrate.quad``, ``scipy.integrate.solve_ivp`` (DOP853) or
``scipy.optimize.brentq``.  Checks read the parsed CSV data rows only, never
the ``#`` header lines, and return a list of failure messages (empty when
the output is correct).
"""

import math
import re

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi
# e^{-4 pi}: the non-unit Floquet multiplier of the e1 unit-circle cycle,
# whose radial linearisation r' = -2 (r - 1) contracts over one period.
E1_MU2 = math.exp(-4.0 * math.pi)
VANISH_TOL = 1e-9
SHOOT_TOL = 1e-9
GAMMA_TOL = 0.1


# -- parsing -----------------------------------------------------------------

def parse_csv(text):
    """Header and data rows of an epsode CSV, skipping ``#`` comment lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def data_rows(text):
    """The non-comment lines of a CSV, for run-to-run identity checks."""
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def _floats(rows, key):
    return np.array([float(r[key]) for r in rows])


# -- closed forms and quadratures -------------------------------------------

def e1_melnikov(phase):
    """M for the e1 cycle started at angle ``phase``, by adaptive quadrature.

    Along x0(t) = (cos(t + phase), sin(t + phase)) the divergence of psi is
    -2, so the weight is e^{2t}; phi = (1, 0) and perp(x0') = -x0, so the
    integrand is -e^{2t} cos(t + phase), the same for every theta.  At
    phase 0 the value is -(2/5)(e^{4 pi} - 1).
    """
    val, _ = quad(lambda t: -math.exp(2.0 * t) * math.cos(t + phase),
                  0.0, TWO_PI, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def e1_defect_radial(s, angle):
    """Radial period defect of e1 at anchor s and boundary angle ``angle``.

    In the frame co-rotating with the unit-circle flow the variational
    equation splits into w_r' = -2 w_r + cos(t + angle) and
    w_t' = -sin(t + angle); the tangential defect integrates to 0 and the
    radial one is (1 - e^{-4 pi}) e^{2s} (2 cos(s + a) + sin(s + a)) / 5.
    """
    return ((1.0 - E1_MU2) * np.exp(2.0 * s)
            * (2.0 * np.cos(s + angle) + np.sin(s + angle)) / 5.0)


def resonance_zero():
    """The zero (a0, pi/2) of the forced-center map for
    g = (1 - u^2) v + cos t: H = pi (a^3/4 - a - sin theta, cos theta)."""
    return brentq(lambda a: a ** 3 - 4.0 * a - 4.0, 2.0, 3.0, xtol=1e-14), \
        math.pi / 2.0


def e2_phi(t, x, lam=1.0):
    return np.array([0.0, (1.0 - x[0] ** 2) * x[1] + lam * math.cos(t)])


def e2_averaged(xi):
    """Averaged field of e2: (1/2 pi) int_0^{2 pi} R(-s) phi(s, R(s) xi) ds,
    with R(s) the rotation generated by psi = (-x2, x1)."""
    xi = np.asarray(xi, dtype=float)

    def comp(j):
        def integrand(s):
            c, sn = math.cos(s), math.sin(s)
            x = np.array([c * xi[0] - sn * xi[1], sn * xi[0] + c * xi[1]])
            f = e2_phi(s, x)
            back = (c * f[0] + sn * f[1], -sn * f[0] + c * f[1])
            return back[j]
        return quad(integrand, 0.0, TWO_PI, epsabs=1e-12, epsrel=1e-10,
                    limit=200)[0] / TWO_PI

    return np.array([comp(0), comp(1)])


def e1_field(eps):
    def f(t, x):
        r2 = x[0] ** 2 + x[1] ** 2
        return [eps - x[1] + x[0] * (1.0 - r2), x[0] + x[1] * (1.0 - r2)]
    return f


def e2_field(eps):
    def f(t, x):
        return [-x[1], x[0] + eps * ((1.0 - x[0] ** 2) * x[1] + math.cos(t))]
    return f


def reference_flow(field, t1, x0, t0=0.0):
    """State at t1 by scipy's DOP853 at tight tolerances."""
    sol = solve_ivp(field, (t0, t1), np.asarray(x0, dtype=float),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise ArithmeticError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


# -- per-command checks ------------------------------------------------------

def _expect_rows(rows, n, what):
    return [] if len(rows) == n else [f"{what}: {len(rows)} rows, want {n}"]


def check_a0(rc, stdout, csv):
    """A0 on e1 over the unit circle: the circle is a 2 pi cycle, so every
    boundary point returns to itself (residual 0 up to integration error)."""
    errs = [] if rc == 0 else [f"A0 exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    errs += _expect_rows(rows, 512, "A0")
    if rows:
        pts = np.column_stack([_floats(rows, "x1"), _floats(rows, "x2")])
        if np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) > 1e-12:
            errs.append("A0 boundary points off the unit circle")
        worst = float(np.max(_floats(rows, "residual")))
        if not worst <= 1e-7:
            errs.append(f"A0 residual {worst:.3e} > 1e-7")
    return errs


def check_a1(rc, stdout, csv, n_boundary=512):
    """A1 on e1: per anchor s, the smallest defect norm over the boundary
    grid, against the closed-form radial defect."""
    errs = [] if rc == 0 else [f"A1 exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    errs += _expect_rows(rows, 65, "A1")
    if rows:
        s = _floats(rows, "s")
        got = _floats(rows, "min_defect_norm")
        angles = TWO_PI * np.arange(n_boundary) / n_boundary
        want = np.abs(e1_defect_radial(s[:, None], angles[None, :])).min(axis=1)
        scale = np.exp(2.0 * s)
        bad = np.abs(got - want) > 1e-6 * want + 1e-9 * scale
        if np.any(bad):
            i = int(np.argmax(bad))
            errs.append(f"A1 min defect at s={s[i]:.4g}: {got[i]:.9g}, "
                        f"closed form {want[i]:.9g}")
        if not np.all(got >= 1e-6):
            errs.append("A1 defect norm below a1_tol")
    return errs


_WITNESS = re.compile(r"point=\[\s*([-+0-9.eE]+)[\s,]+([-+0-9.eE]+)\s*\],\s*"
                      r"norm=([-+0-9.eE]+)")


def check_a2(rc, stdout, csv):
    """A2 on e1 is documented as inconclusive: the defect field vanishes on
    the unit circle where 2 cos a + sin a = 0.  Success means exit 3 with a
    witness on the circle whose norm is below vanish_tol, and boundary
    field values matching the closed form."""
    errs = [] if rc == 3 else [f"A2 exit {rc}, want 3 (inconclusive)"]
    m = _WITNESS.search(stdout)
    if not m:
        errs.append("A2 printed no vanishing witness")
    else:
        p = np.array([float(m.group(1)), float(m.group(2))])
        norm = float(m.group(3))
        if abs(np.linalg.norm(p) - 1.0) > 1e-6:
            errs.append(f"A2 witness {p} is not on the unit circle")
        if not norm < VANISH_TOL:
            errs.append(f"A2 witness norm {norm:.3e} not below {VANISH_TOL}")
        a = math.atan2(p[1], p[0])
        if abs(2.0 * math.cos(a) + math.sin(a)) > 1e-6:
            errs.append(f"A2 witness {p} is not a zero of the closed form")
    _, rows = parse_csv(csv)
    errs += _expect_rows(rows, 512, "A2")
    if rows:
        pts = np.column_stack([_floats(rows, "x1"), _floats(rows, "x2")])
        vals = np.column_stack([_floats(rows, "F1"), _floats(rows, "F2")])
        rad = e1_defect_radial(0.0, np.arctan2(pts[:, 1], pts[:, 0]))
        dev = float(np.max(np.abs(vals - rad[:, None] * pts)))
        if not dev <= 1e-7:
            errs.append(f"A2 boundary field off the closed form by {dev:.3e}")
    return errs


def check_a3(rc, stdout, csv):
    """A3 on e1: multipliers 1 and e^{-4 pi} at every phase shift."""
    errs = [] if rc == 0 else [f"A3 exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    errs += _expect_rows(rows, 65, "A3")
    for r in rows:
        gap, dist = float(r["gap"]), float(r["dist_to_one"])
        if r["simple"] != "true" or dist > 1e-6 \
                or abs(gap - (1.0 - E1_MU2)) > 1e-6:
            errs.append(f"A3 row theta={r['theta']}: dist {dist:.3e}, "
                        f"gap {gap!r}, want 0 and {1.0 - E1_MU2!r}")
            break
    return errs


def check_melnikov(rc, stdout, csv, phase):
    """A3_1 on e1: M(theta) equals the quadrature value on every row."""
    errs = [] if rc == 0 else [f"melnikov exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    errs += _expect_rows(rows, 65, "melnikov")
    want = e1_melnikov(phase)
    for r in rows:
        got = float(r["M"])
        if not abs(got - want) <= 1e-6 * abs(want):
            errs.append(f"M({r['theta']}) = {got!r}, quadrature {want!r}")
            break
    return errs


def resonance_seed(csv):
    """Initial point of the first nondegenerate zero the resonance step
    printed, mapped through (a, theta) -> (-a cos theta, a sin theta)."""
    _, rows = parse_csv(csv)
    for r in rows:
        if float(r["detH"]) != 0.0:
            a, th = float(r["a"]), float(r["theta"])
            return -a * math.cos(th), a * math.sin(th)
    return None


def check_resonance(rc, stdout, csv):
    """Every zero printed is the brentq root (a0, pi/2)."""
    errs = [] if rc == 0 else [f"resonance exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    if not rows:
        errs.append("resonance printed no zero")
    a0, th0 = resonance_zero()
    for r in rows:
        a, th = float(r["a"]), float(r["theta"])
        if abs(a - a0) > 1e-8 or abs(th - th0) > 1e-6:
            errs.append(f"resonance zero ({a!r}, {th!r}), want ({a0!r}, {th0!r})")
        if float(r["detH"]) == 0.0 or int(r["local_degree"]) == 0:
            errs.append("resonance zero is degenerate")
    return errs


def _check_orbit_rows(rows, field_of_eps, what):
    errs = []
    for r in rows:
        eps = float(r["eps"])
        if r["converged"] != "true":
            errs.append(f"{what} eps={eps:g} did not converge")
            continue
        res = float(r["residual"])
        if not res <= SHOOT_TOL:
            errs.append(f"{what} eps={eps:g} residual {res:.3e} > {SHOOT_TOL}")
        xi = np.array([float(r["xi1"]), float(r["xi2"])])
        back = reference_flow(field_of_eps(eps), TWO_PI, xi)
        if np.linalg.norm(back - xi) > 1e-7:
            errs.append(f"{what} eps={eps:g}: xi* is not 2 pi periodic under "
                        f"DOP853 (miss {np.linalg.norm(back - xi):.3e})")
    return errs


def check_find_periodic(rc, stdout, csv):
    errs = [] if rc == 0 else [f"find-periodic exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    errs += _expect_rows(rows, 1, "find-periodic")
    return errs + _check_orbit_rows(rows, e2_field, "find-periodic")


def check_sweep(rc, stdout, csv, eps_list):
    errs = [] if rc == 0 else [f"sweep exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    errs += _expect_rows(rows, len(eps_list), "sweep")
    got = [float(r["eps"]) for r in rows]
    if got != list(eps_list):
        errs.append(f"sweep eps column {got}, want {list(eps_list)}")
    return errs + _check_orbit_rows(rows, e1_field, "sweep")


def check_average(rc, stdout, csv):
    """Averaged field values at the validation samples against quadrature."""
    errs = [] if rc == 0 else [f"average exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    errs += _expect_rows(rows, 17, "average")
    for r in rows:
        xi = (float(r["xi1"]), float(r["xi2"]))
        got = np.array([float(r["Phi1"]), float(r["Phi2"])])
        want = e2_averaged(xi)
        if not np.max(np.abs(got - want)) <= 1e-6 * (1.0 + np.max(np.abs(want))):
            errs.append(f"Phi{xi} = {got}, quadrature {want}")
            break
    return errs


def check_verify_cauchy(rc, stdout, csv, xi0, eps_list):
    """Averaging errors below gamma, first-order in eps, and the full
    solution matching DOP853 at the last reported time of each eps."""
    errs = [] if rc == 0 else [f"verify-cauchy exit {rc}, want 0"]
    _, rows = parse_csv(csv)
    sup = {}
    for eps in eps_list:
        mine = [r for r in rows if float(r["eps"]) == eps]
        if not mine:
            errs.append(f"verify-cauchy printed no rows for eps={eps:g}")
            continue
        x = np.array([[float(r["x1"]), float(r["x2"])] for r in mine])
        ap = np.array([[float(r["approx1"]), float(r["approx2"])] for r in mine])
        err = _floats(mine, "error")
        if np.max(np.abs(np.linalg.norm(x - ap, axis=1) - err)) > 1e-12:
            errs.append(f"verify-cauchy eps={eps:g}: error column is not "
                        "|x - approx|")
        sup[eps] = float(err.max())
        if not sup[eps] <= GAMMA_TOL:
            errs.append(f"verify-cauchy eps={eps:g}: error {sup[eps]:.4g} > "
                        f"gamma {GAMMA_TOL}")
        t_last = float(mine[-1]["t"])
        ref = reference_flow(e2_field(eps), t_last, xi0)
        if np.linalg.norm(ref - x[-1]) > 1e-6:
            errs.append(f"verify-cauchy eps={eps:g}: x({t_last:.6g}) off "
                        f"DOP853 by {np.linalg.norm(ref - x[-1]):.3e}")
    if len(sup) == 2:
        big, small = max(eps_list), min(eps_list)
        ratio = sup[big] / sup[small]
        if not 1.6 <= ratio <= 2.4:
            errs.append(f"verify-cauchy error ratio {ratio:.3f} outside "
                        "[1.6, 2.4]")
    return errs
