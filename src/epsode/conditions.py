"""Checks for the periodic-orbit existence conditions.

Each check returns a report with a verdict (holds / fails / inconclusive),
the worst-case witness and the margins, so results read as evidence at the
grid resolution used rather than proof.  Covered: boundary periodicity of
the unperturbed flow (A0), nonvanishing period defect (A1), the rotation
number of the defect field (A2), a simple unit Floquet multiplier (A3),
the weighted cycle integral driving the planar persistence condition
(A3_1), homotopy invariance of the defect degree, and the resonance map of
a harmonically forced linear center.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import expressions as ex
from .solver import (DEFAULT_CONFIG, IntegrationError, gauss_legendre_panels,
                     gauss_legendre_running)
from .systems import _lane_norms, damped_newton
from .topology import PlanarRegion, product_degree, winding_number
from .variational import (DefectField, _defect_profiles, _phase_points,
                          flow_lanes, cycle_residual, defect_profile,
                          lane_field)

__all__ = [
    "HypothesisReport", "check_A0", "check_A1", "check_A2",
    "floquet_condition_A3",
    "MelnikovProfile", "melnikov_profile", "compare_defect_degrees",
    "ResonanceZero", "ResonanceMap", "resonance_H", "resonance_initial_point",
]

_TRAP_START, _TRAP_CAP, _TRAP_TOL = 16, 512, 1e-13  # resonance_H's rule
_TRAP_SHIFT = (5 ** 0.5 - 1) / 2  # its check rule's offset, in node spacings
_A3_ONE_TOL, _A3_GAP_TOL = 1e-6, 1e-3  # A3's one_tol and gap_tol, reported


@dataclass
class HypothesisReport:
    """The one record of a yes/no answer: the condition checked, its
    verdict, the margin and where it is attained (the witness), and the
    grids, tolerances and data behind them."""
    condition: str
    verdict: str  # holds | fails | inconclusive
    margin: float
    witness: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def summary(self):
        if self.verdict == "holds":
            return f"{self.condition} holds (margin {self.margin:.6g})"
        w = ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"{self.condition} {self.verdict} ({w})"


def _flow(condition, run, **context):
    """``(run(), None)``, or ``(None, report)`` when the flow inside ``run``
    fails: the ``inconclusive`` report of ``condition`` with the failure as
    witness and ``context`` (grids, tolerances, data) as known so far."""
    try:
        return run(), None
    except IntegrationError as err:
        return None, HypothesisReport(condition, "inconclusive", np.inf,
                                      witness={"error": str(err)}, **context)


def _boundary_samples(region, n):
    """Boundary sample points for planar or product regions.

    For products, each factor boundary is paired with a coarse closure grid
    of the remaining factors (their boundaries at low resolution plus star
    centers), since the topological boundary of a product mixes factor
    boundaries with closures.
    """
    if isinstance(region, PlanarRegion):
        return region.boundary_points(n)
    factors = region.factors
    p = len(factors)
    per = max(16, n // max(1, p * 9))
    pieces = []
    for i, f in enumerate(factors):
        b = f.boundary_points(per)
        others = []
        for j, g in enumerate(factors):
            if j == i:
                continue
            closure = g.boundary_points(8)
            if g.star_center is not None:
                closure = np.vstack([closure, g.star_center])
            others.append((j, closure))
        combos = [b]
        idx = [i]
        for j, closure in others:
            combos = [np.repeat(c, len(closure), axis=0) for c in combos]
            combos.append(np.tile(closure, (len(combos[0]) // len(closure), 1)))
            idx.append(j)
        block = np.empty((len(combos[0]), 2 * p))
        for j, c in zip(idx, combos):
            block[:, 2 * j:2 * j + 2] = c
        pieces.append(block)
    return np.vstack(pieces)


def check_A0(sys, region, n_samples=512, a0_tol=1e-7, cfg=DEFAULT_CONFIG):
    """Boundary periodicity: Omega(T, 0, xi) = xi on the region boundary."""
    if n_samples < 16:
        raise ValueError("n_samples must be at least 16")
    pts = _boundary_samples(region, n_samples)
    n, k = pts.shape
    if k != sys.k:
        raise ValueError(f"region dimension {k} does not match system k={sys.k}")

    context = {"grids": {"n_samples": n}, "tolerances": {"a0_tol": a0_tol}}
    end, failed = _flow("A0", lambda: flow_lanes(sys, 0.0, sys.T, pts, cfg)[0],
                        **context)
    if failed:
        return failed
    rel = np.linalg.norm(end - pts, axis=1) / (1.0 + np.linalg.norm(pts, axis=1))
    worst = int(np.argmax(rel))
    verdict = "holds" if rel[worst] <= a0_tol else "fails"
    return HypothesisReport(
        "A0", verdict, float(rel[worst]),
        witness={"point": pts[worst], "residual": float(rel[worst])},
        data={"points": pts, "residuals": rel}, **context)


def check_A1(sys, region, s_grid=None, boundary_samples=512, a1_tol=1e-6,
             cfg=DEFAULT_CONFIG):
    """Nonvanishing period defect over the (anchor, boundary) grid."""
    s_grid = _phase_points(s_grid, sys.T, "s_grid")
    if boundary_samples < 1:
        raise ValueError("boundary_samples must be positive")
    pts = _boundary_samples(region, boundary_samples)
    context = {"grids": {"s_points": len(s_grid), "boundary_samples": len(pts)},
               "tolerances": {"a1_tol": a1_tol}}
    prof, failed = _flow("A1", lambda: defect_profile(sys, pts, s_grid, cfg),
                         data={"s_grid": s_grid}, **context)
    if failed:
        return failed
    norms = np.linalg.norm(prof, axis=2)
    si, pi = np.unravel_index(np.argmin(norms), norms.shape)
    mn = float(norms[si, pi])
    verdict = "holds" if mn >= a1_tol else "fails"
    return HypothesisReport(
        "A1", verdict, mn,
        witness={"s": float(s_grid[si]), "point": pts[pi], "norm": mn},
        data={"s_grid": s_grid, "min_norm_per_s": norms.min(axis=1)},
        **context)


def _block_coupling(sys):
    """Witness of the first component of phi or psi that reads a state
    variable outside its planar block, or None if the blocks decouple."""
    if sys.phi_exprs is None:
        return {"reason": "opaque callables cannot be split into blocks"}
    for name, vec in (("phi", sys.phi_exprs), ("psi", sys.psi_exprs)):
        for i, c in enumerate(vec.components):
            names = ex.free_names(c)
            for j in range(sys.k):
                if j // 2 != i // 2 and f"x{j + 1}" in names:
                    return {"reason": "the planar blocks are coupled",
                            "component": f"{name}{i + 1}",
                            "variable": f"x{j + 1}"}
    return None


def check_A2(sys, region, boundary_samples=512, vanish_tol=1e-9,
             cfg=DEFAULT_CONFIG):
    """Rotation number of the defect field at anchor 0 over the region.

    Since eta(0, 0, .) = 0 this is the rotation of eta(T, 0, .).  For a
    product region the field is sliced into coordinate pairs with the other
    factors pinned at their star centers.  That is exact only when
    components 2i and 2i+1 of phi and psi read no state variable but
    x(2i+1) and x(2i+2), so the verdict is ``inconclusive`` for any other
    system, with the first coupling as witness, and for opaque callables,
    whose variables cannot be read, and where the count stops, with the
    vanishing sample's ``point`` and ``norm`` or the failure as witness.
    On a planar region ``data`` holds the initial boundary grid
    (``points``) and the defect field there (``values``), unless the flow
    failed.
    """
    if boundary_samples < 1:
        raise ValueError("boundary_samples must be positive")
    fld = DefectField(sys, cfg)
    grids = {"boundary_samples": boundary_samples}
    tols = {"vanish_tol": vanish_tol}
    planar = isinstance(region, PlanarRegion)
    coupling = None if planar else _block_coupling(sys)
    if coupling:
        return HypothesisReport("A2", "inconclusive", 0.0, witness=coupling,
                                grids=grids, tolerances=tols)

    def degree():
        if planar:
            return winding_number(fld.eval_many, region, n0=boundary_samples,
                                  vanish_tol=vanish_tol)
        centers = np.concatenate([f.star_center for f in region.factors])

        def slice_field(P, i):
            full = np.tile(centers, (len(P), 1))
            full[:, 2 * i:2 * i + 2] = P
            return fld.eval_many(full)[:, 2 * i:2 * i + 2]

        return product_degree(
            [partial(slice_field, i=i) for i in range(len(region.factors))],
            region, n0=boundary_samples, vanish_tol=vanish_tol)

    report, failed = _flow("A2", degree, grids=grids, tolerances=tols)
    if failed:  # filling data would rerun the failing flow
        return failed
    if report.degree is None:
        w = report.witness
        witness = ({"point": w["point"], "norm": w["norm"],
                    "reason": "defect field vanishes on the boundary"}
                   if "norm" in w else {"reason": report.failure})
        hyp = HypothesisReport("A2", "inconclusive", 0.0, witness=witness,
                               grids=grids, tolerances=tols)
    else:
        hyp = HypothesisReport(
            "A2", "holds" if report.degree != 0 else "fails",
            float(abs(report.degree)),
            witness={"degree": report.degree,
                     "min_field_norm": report.min_field_norm},
            grids={**grids, "samples_used": report.samples_used},
            tolerances=tols)
    if planar:  # the first refinement round cached these values
        pts = region.boundary_points(boundary_samples)
        hyp.data = {"points": pts, "values": fld.eval_many(pts)}
    return hyp


def floquet_condition_A3(sys, cycle, theta_grid=None, cycle_tol=1e-6,
                         cfg=DEFAULT_CONFIG):
    """Check that 1 is a simple Floquet multiplier of the linearisation
    along every phase shift of the cycle.

    A phase holds when some multiplier is within ``one_tol`` of 1 and every
    other stays at least ``gap_tol`` away from 1.  For an autonomous
    unperturbed field the unit multiplier is structural, so the margin is
    the smallest gap; the witness is the phase of smallest gap among those
    that fail (all when none does).  ``data`` holds the per-phase arrays
    ``theta``, ``multipliers``, ``dist_to_one``, ``gap`` and ``simple``, and
    the worst Liouville determinant error ``max_liouville_rel_err`` (its
    trace integral on the fixed 64-panel, order-8 Gauss-Legendre rule).

    The linearisation along x0(t + theta) comes from integrating each
    phase-shifted cycle point as a lane from time 0, which equals it only
    when psi does not depend on t; other systems raise ``ValueError``.
    """
    if not sys.psi_autonomous:
        raise ValueError("the Floquet check integrates the cycle points from "
                         "time 0 and needs a psi that does not depend on t")
    res = cycle_residual(cycle, sys.T)
    if res > cycle_tol:
        raise ValueError(f"input trajectory is not {sys.T}-periodic "
                         f"(residual {res:.3e})")
    thetas = _phase_points(theta_grid, sys.T, "theta_grid")
    context = {"grids": {"theta_points": len(thetas)},
               "tolerances": {"one_tol": _A3_ONE_TOL, "gap_tol": _A3_GAP_TOL}}
    M, failed = _flow("A3", lambda: flow_lanes(
        sys, 0.0, sys.T, cycle.eval(np.mod(thetas, sys.T)), cfg,
        S=np.eye(sys.k), tangents=sys.k)[1], **context)
    if failed:
        return failed

    mus = np.linalg.eigvals(M)
    d1 = np.sort(np.abs(mus - 1.0), axis=1)
    dist = d1[:, 0]
    gap = d1[:, 1] if sys.k > 1 else np.full(len(thetas), np.inf)
    simple = (dist <= _A3_ONE_TOL) & (gap >= _A3_GAP_TOL)
    holds = bool(simple.all())
    worst = int(np.argmin(gap if holds else np.where(simple, np.inf, gap)))
    # psi is autonomous and the cycle T-periodic, so every phase shift has
    # the same Liouville trace integral
    nodes, weights = gauss_legendre_panels(0.0, sys.T)
    jac = lane_field(sys, nodes, cycle.eval(nodes), np.eye(sys.k),
                     tangents=sys.k)[1]
    liou = np.exp(float(np.dot(weights, np.trace(jac, axis1=1, axis2=2))))
    return HypothesisReport(
        "A3", "holds" if holds else "fails", float(gap.min()),
        witness={"theta": float(thetas[worst]),
                 "dist_to_one": float(dist[worst]), "gap": float(gap[worst])},
        data={"theta": thetas, "multipliers": mus, "dist_to_one": dist,
              "gap": gap, "simple": simple,
              "max_liouville_rel_err": float(np.max(
                  np.abs(np.linalg.det(M) - liou)) / liou)},
        **context)


# ---------------------------------------------------------------------------
# Cycle integral (planar persistence condition)
# ---------------------------------------------------------------------------

@dataclass
class MelnikovProfile:
    thetas: np.ndarray
    values: np.ndarray
    min_abs: float
    weight_range: tuple

    def argmax_abs(self):
        return float(self.thetas[int(np.argmax(np.abs(self.values)))])

    def check_A3_1(self, a3_tol=1e-8):
        """A3_1: M(theta) stays away from 0, that is min |M| exceeds
        ``a3_tol * max(1, max |M|)``; the witness is the phase of
        smallest |M|."""
        i = int(np.argmin(np.abs(self.values)))
        scale = max(1.0, float(np.max(np.abs(self.values))))
        return HypothesisReport(
            "A3_1", "holds" if self.min_abs > a3_tol * scale else "fails",
            self.min_abs,
            witness={"theta": float(self.thetas[i]),
                     "M": float(self.values[i])},
            grids={"theta_points": len(self.thetas)},
            tolerances={"a3_tol": a3_tol})


def melnikov_profile(sys, cycle, theta_grid=None, cycle_tol=1e-6):
    """Weighted cycle integral M(theta) of the forcing against the cycle
    normal.

    M(theta) = int_0^T exp(-int_0^t div psi dtau) <phi(t - theta, x0(t)),
    perp(x0'(t))> dt on the fixed 64-panel, order-8 Gauss-Legendre rule,
    with the inner integral at each node from :func:`gauss_legendre_running`
    on the same nodes; the cycle velocity is psi(t, x0(t)) exactly, never a
    difference quotient.
    """
    if sys.k != 2:  # the cycle normal perp(x0') needs a planar system
        raise ValueError("the cycle integral is defined for planar systems")
    res = cycle_residual(cycle, sys.T)
    if res > cycle_tol:
        raise ValueError(f"input trajectory is not {sys.T}-periodic "
                         f"(residual {res:.3e})")
    thetas = _phase_points(theta_grid, sys.T, "theta_grid")

    nodes, weights = gauss_legendre_panels(0.0, sys.T)
    xq = cycle.eval(nodes)
    vq, jac = lane_field(sys, nodes, xq, np.eye(2), tangents=2)
    perp = np.stack([-vq[:, 1], vq[:, 0]], axis=-1)  # quarter turn of x0'
    # the weight from the running quadrature of div psi = trace Dpsi
    wq = np.exp(-gauss_legendre_running(np.trace(jac, axis1=1, axis2=2),
                                        0.0, sys.T))

    values = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        fq = lane_field(sys, nodes - th, xq, forcings=(sys,))[1][:, :, 0]
        values[i] = float(np.dot(weights, wq * np.einsum("nd,nd->n", fq, perp)))
    return MelnikovProfile(thetas, values, float(np.min(np.abs(values))),
                           (float(wq.min()), float(wq.max())))


# ---------------------------------------------------------------------------
# Homotopy invariance of the defect degree
# ---------------------------------------------------------------------------

def compare_defect_degrees(sys1, sys2, region, s_grid=None,
                     boundary_samples=512, a1_tol=1e-6, cfg=DEFAULT_CONFIG):
    """Compare defect-field degrees of two forcings over one region.

    The defect is affine in the forcing, so the defect of the convex
    combination lam*phi1 + (1-lam)*phi2 is the same combination of the two
    endpoint defects; no additional integration is needed along the
    homotopy.  The ``homotopy`` report's margin is the smallest combined
    defect on the (lambda, s, boundary) grid, at its witness; below
    ``a1_tol`` the comparison is inconclusive, else it holds when the two
    degrees, ``data["degrees"]``, agree.  An endpoint whose count stops
    (lambda 1 for ``sys1``, 0 for ``sys2``) makes it inconclusive too, with
    the count's sample and failure as witness.
    """
    if not isinstance(region, PlanarRegion):
        raise ValueError("degree comparison implemented for planar regions")
    if sys1.k != sys2.k or abs(sys1.T - sys2.T) > 1e-12:
        raise ValueError("systems must share dimension and period")
    rng = np.random.default_rng(7)
    for _ in range(5):
        t = rng.uniform(0, sys1.T)
        x = rng.uniform(-1.5, 1.5, sys1.k)
        a, b = sys1.psi(t, x), sys2.psi(t, x)
        if np.max(np.abs(a - b)) > 1e-9 * (1 + np.max(np.abs(a))):
            raise ValueError("systems must share the unperturbed field")

    if s_grid is None:
        s_grid = np.linspace(0.0, sys1.T, 65)
    # a lambda costs no integration (see above), so the step can be 0.1
    lambdas = np.linspace(0.0, 1.0, 11)
    s_grid = np.asarray(s_grid, dtype=float)
    if not np.any(s_grid == 0.0):
        s_grid = np.concatenate([[0.0], s_grid])
    pts = _boundary_samples(region, boundary_samples)
    D1, D2 = _defect_profiles(sys1, (sys1, sys2), pts, s_grid, cfg)

    context = {"grids": {"lambda_points": len(lambdas),
                         "s_points": len(s_grid),
                         "boundary_samples": len(pts)},
               "tolerances": {"a1_tol": a1_tol}}
    min_defect = np.inf
    witness = {}
    for lam in lambdas:
        D = lam * D1 + (1.0 - lam) * D2
        norms = np.linalg.norm(D, axis=2)
        si, pi = np.unravel_index(np.argmin(norms), norms.shape)
        if norms[si, pi] < min_defect:
            min_defect = float(norms[si, pi])
            witness = {"lambda": float(lam), "s": float(s_grid[si]),
                       "point": pts[pi], "norm": float(norms[si, pi])}
    if min_defect < a1_tol:
        return HypothesisReport("homotopy", "inconclusive", min_defect,
                                witness, **context)

    s0 = int(np.nonzero(s_grid == 0.0)[0][0])
    degrees = []
    for lam, sysi, Di in ((1.0, sys1, D1), (0.0, sys2, D2)):
        fldi = DefectField(sysi, cfg)
        fldi.preseed(pts, Di[s0])
        rep = winding_number(fldi.eval_many, region, n0=len(pts))
        if rep.degree is None:
            return HypothesisReport(
                "homotopy", "inconclusive",
                min(min_defect, rep.min_field_norm),
                {"lambda": lam, "s": 0.0, **rep.witness,
                 "reason": rep.failure}, **context)
        degrees.append(rep.degree)
    verdict = "holds" if degrees[0] == degrees[1] else "fails"
    return HypothesisReport("homotopy", verdict, min_defect, witness,
                            data={"degrees": tuple(degrees)}, **context)


# ---------------------------------------------------------------------------
# Resonance map of the harmonically forced linear center
# ---------------------------------------------------------------------------

@dataclass
class ResonanceZero:
    """A zero of the N-node sum H_N; ``residual`` is |H_N| there, not |H|.
    The map's ``quad_error`` estimates |H_N - H|, so it bounds how far the
    zero can sit from a zero of H (1.4e-7 for ``abs(x2)*x2 + cos(t)`` at
    N = 512, against residuals near 1e-16)."""
    a: float
    theta: float
    residual: float
    det: float
    iterations: int


@dataclass
class ResonanceMap:
    """Zeros of H and what finding them cost: ``newton`` counts the seed
    lanes by final status, ``forcing_calls`` and ``quad_points`` the batched
    forcing evaluations and their points (a Jacobian pass evaluates g and
    its 3 partials in one call), ``quad_nodes`` and ``quad_error`` the N of
    the trapezoidal rule and its last max |Q_N - Q_{N/2}|, or at an N that
    passed, the larger of that and the shifted rule's difference."""
    evaluate: callable
    evaluate_many: callable
    zeros: list
    degenerate: bool
    newton: dict = field(default_factory=dict)
    forcing_calls: int = 0
    quad_points: int = 0
    quad_nodes: int = 0
    quad_error: float = 0.0

    def box(self, zero, half=0.2):
        """Axis-aligned box region around a zero in the (a, theta) plane."""
        a, th = zero.a, zero.theta
        return PlanarRegion.box((a - half, th - half), (a + half, th + half))


def resonance_initial_point(a, theta):
    """Initial state of the circle orbit indexed by amplitude and phase."""
    return np.array([-a * np.cos(theta), a * np.sin(theta)])


def _moving_jump(e):
    """The first ``sign(u)`` in ``e`` whose u depends on t, x1 or x2, or
    None."""
    if isinstance(e, ex.Call):
        if e.fn == "sign" and ex.free_names(e.arg) & {"t", "x1", "x2"}:
            return e
        return _moving_jump(e.arg)
    if isinstance(e, ex.Neg):
        return _moving_jump(e.child)
    if isinstance(e, ex.BinOp):
        return _moving_jump(e.left) or _moving_jump(e.right)
    return None


def resonance_H(g, a_range, theta_range, grid=(12, 12)):
    """Resonance map H(a, theta) for the forced linear center.

    ``g`` is a forcing expression in ``t`` and the slots ``x1`` (position
    u) and ``x2`` (velocity v); the components of H are the integrals of
    sin(tau) and cos(tau) times g(tau + theta, a cos tau, -a sin tau) over
    one period, by the trapezoidal rule (Trefethen and Weideman, SIAM
    Review 56, 2014) on N nodes fixed once per call.  From ``_TRAP_START``
    (16) N doubles, g being evaluated on the seed grid at the new midpoints
    only, until max |Q_2N - Q_N| <= ``_TRAP_TOL`` (1e-13) times (1 + max
    |Q_2N|) and Q_2N agrees as well with the 2N-node sum shifted by
    ``_TRAP_SHIFT`` of a spacing (nested sums alias the harmonics at
    multiples of 2N alike, the shifted one by other phases), or until
    N = ``_TRAP_CAP`` (512).  A kink in g, as from ``abs``, converges only
    algebraically, so up to the cap (see ``quad_error``).
    Zeros come from damped Newton over a seed grid, one lane per seed, and
    one more full Newton step from each zero found, kept unless |H| grows;
    each zero carries the residual and the determinant of the exact
    Jacobian, whose a-column integrates g_x1 cos tau - g_x2 sin tau and
    theta-column g_t on the same nodes and weights as H.  The residual is
    measured against that N-node sum, not against H; ``quad_error`` bounds
    how far the zero can sit from a zero of H.

    The line search makes at most 12 tries, so the damping factor stays
    above 2^-12 (Deuflhard's minimal damping factor): a seed whose step
    lowers |H| at none of 1, 1/2, ..., 2^-11 stops as ``no_descent``.  A
    seed crawling along a nearly singular J (towards a critical point of
    |H|, not a zero) stops early; a regular zero is still found whenever
    some seed reaches the neighbourhood where such damped steps descend.

    g must be continuous in t, x1 and x2, so a ``sign`` whose argument
    depends on them raises ``ValueError`` (``abs`` is fine): where a jump
    moves with a or theta, H' has a share from the jump that no pointwise
    partial of g carries, and the quadrature, a step function in the
    jump's position, does not see it either.  g must also be finite on the
    seed circles: at the first N whose sums are not all finite,
    ``ValueError`` names the first seed among them.  Its 2 pi periodicity in
    t is probed at 5 seeded points of the annulus the seed circles cover,
    at those where g is finite; ``ValueError`` names the first probe when
    g is finite at none of them.
    """
    expr = ex.parse(g) if isinstance(g, str) else g
    jump = _moving_jump(expr)
    if jump is not None:
        raise ValueError(f"forcing expression jumps at {ex.to_string(jump)}; "
                         "the resonance map needs g continuous in t, x1 "
                         "and x2")
    f = ex.compile_expr([expr], arrays=True)
    # g and its partials in t, u and v in one pass that shares subtrees
    f_jac = ex.compile_expr(
        [expr] + [ex.differentiate(expr, v) for v in ("t", "x1", "x2")],
        arrays=True)
    (a_lo, a_hi), (th_lo, th_hi) = a_range, theta_range
    if not (a_lo < a_hi and th_lo < th_hi):
        # the zeros are kept only inside the ranges, so an empty or reversed
        # one would drop every zero Newton finds
        raise ValueError(f"resonance ranges need lo < hi, not a_range="
                         f"{tuple(a_range)}, theta_range={tuple(theta_range)}")
    # the period is fixed at 2 pi for this construction; g is probed on the
    # annulus a_lo <= |x| <= a_hi that the seed circles cover
    rng = np.random.default_rng(3)
    t, r, phase = rng.uniform((0.0, a_lo, 0.0), (2 * np.pi, a_hi, 2 * np.pi),
                              (5, 3)).T
    u, v = r * np.cos(phase), r * np.sin(phase)
    with np.errstate(all="ignore"):  # the seeds name where g is needed
        a, b = np.array([[f(s, (x, y))[0] for s in (tt, tt + 2 * np.pi)]
                         for tt, x, y in zip(t, u, v)], dtype=float).T
    ok = np.isfinite(a) & np.isfinite(b)
    if not ok.any():
        raise ValueError(f"forcing expression is not finite at any of its "
                         f"{len(t)} periodicity probes, the first at "
                         f"t={t[0]:.6g}, x1={u[0]:.6g}, x2={v[0]:.6g}; the "
                         "resonance map needs g finite there to check that "
                         "it is 2 pi periodic in t")
    if np.any(np.abs(a - b)[ok] > 1e-9 * (1 + np.abs(a[ok]))):
        raise ValueError("forcing expression is not 2 pi periodic in t")

    cost = {"forcing_calls": 0, "quad_points": 0}

    def on_nodes(fn, P, N, offset=0.0):
        """The N nodes tau, shifted by ``offset`` spacings, and fn at the
        lanes P = (a, theta) (n, 2) on them, in one call."""
        cost["forcing_calls"] += 1
        cost["quad_points"] += len(P) * N
        tau = 2 * np.pi * (np.arange(N) + offset) / N
        tt = tau + P[:, 1:]
        with np.errstate(all="ignore"):  # a non-finite H is named instead
            ys = fn(tt, (P[:, :1] * np.cos(tau), -P[:, :1] * np.sin(tau)))
        return tau, [np.broadcast_to(y, tt.shape) for y in ys]

    def weigh(tau, y):
        # a sum per row, not a gemv, and N fixed for the call, so a lane's
        # bits depend neither on the batch nor on Newton's progress
        return 2 * np.pi / tau.size * np.stack(
            [np.einsum("ij,j->i", y, np.sin(tau)),
             np.einsum("ij,j->i", y, np.cos(tau))], axis=-1)

    def trapezoid(P, N, offset=0.0):
        tau, (y,) = on_nodes(f, P, N, offset)
        return weigh(tau, y)

    AA, TT = np.meshgrid(np.linspace(a_lo, a_hi, grid[0]),
                         np.linspace(th_lo, th_hi, grid[1]), indexing="ij")
    seeds = np.column_stack([AA.ravel(), TT.ravel()])

    def finite(Hs, N):
        """Hs, the N-node sums at the seeds, if all of them are finite."""
        bad = ~np.isfinite(Hs).all(axis=1)
        if bad.any():
            a, th = seeds[np.argmax(bad)]
            raise ValueError(f"forcing expression is not finite on the "
                             f"{N}-node circle of the seed a={a:.6g}, "
                             f"theta={th:.6g}; the resonance map needs g "
                             "finite on every seed circle")
        return Hs

    N, Hgrid = _TRAP_START, finite(trapezoid(seeds, _TRAP_START), _TRAP_START)
    while N < _TRAP_CAP:  # g at the new midpoints only
        N, prev, Hgrid = 2 * N, Hgrid, (Hgrid + trapezoid(seeds, N, 0.5)) / 2
        finite(Hgrid, N)
        quad_error = float(np.max(np.abs(Hgrid - prev)))
        tol = _TRAP_TOL * (1 + np.max(np.abs(Hgrid)))
        if quad_error <= tol:  # nested sums alias alike, shifted ones not
            quad_error = max(quad_error, float(np.max(np.abs(
                finite(trapezoid(seeds, N, _TRAP_SHIFT), N) - Hgrid))))
            if quad_error <= tol:
                break
    cost.update(quad_nodes=N, quad_error=quad_error)

    def fj(P, jacobian):
        """H at the lanes P = (a, theta) (n, 2) and, if asked, J (n, 2, 2),
        from one forcing call on the N nodes."""
        if not jacobian:
            return trapezoid(P, N), None
        tau, (fv, ft, fu, fw) = on_nodes(f_jac, P, N)
        fa = fu * np.cos(tau) - fw * np.sin(tau)
        return weigh(tau, fv), np.stack([weigh(tau, fa), weigh(tau, ft)],
                                        axis=-1)

    def H_many(A, TH):
        return trapezoid(np.column_stack([A, TH]).astype(float), N)

    def H(p):
        return trapezoid(np.asarray(p, dtype=float)[None], N)[0]

    scale = float(np.max(np.linalg.norm(Hgrid, axis=1)))
    if scale < 1e-10:
        return ResonanceMap(H, H_many, [], True, **cost)

    # damping factors down to 2^-11 only: no lane crawls along a singular J;
    # 40 steps bound a seed that converges to nothing; lanes stopped at one
    # zero agree far closer than the 1e-6 that tells two zeros apart
    run = damped_newton(fj, seeds, 1e-10 * max(1.0, scale), 40, halvings=12)
    picked = []  # the first converged lane in range at each zero
    for i, (p, s) in enumerate(zip(run.x, run.status)):
        if (s == "converged" and a_lo - 1e-9 <= p[0] <= a_hi + 1e-9
                and th_lo - 1e-9 <= p[1] <= th_hi + 1e-9
                and all(np.any(np.abs(run.x[j] - p) > 1e-6)
                        for j in picked)):
            picked.append(i)
    # the stop at 1e-10 leaves a zero's last digits to the seed ranges
    done = np.array([i for i in picked if not run.singular[i]], dtype=int)
    if done.size:
        V = fj(run.x[done], False)[0]
        C = run.x[done] + np.linalg.solve(run.jacobian[done],
                                          -V[..., None])[..., 0]
        VC, JC = fj(C, True)
        r = _lane_norms(VC)
        keep = r <= _lane_norms(V)
        kept = done[keep]
        run.x[kept], run.residual[kept] = C[keep], r[keep]
        run.jacobian[kept] = JC[keep]
        run.iterations[kept] += 1
    zeros = sorted((ResonanceZero(float(run.x[i, 0]), float(run.x[i, 1]),
                                  float(run.residual[i]),
                                  float(np.linalg.det(run.jacobian[i])),
                                  int(run.iterations[i])) for i in picked),
                   key=lambda z: (z.a, z.theta))
    status, count = np.unique(run.status, return_counts=True)
    return ResonanceMap(H, H_many, zeros, False,
                        dict(zip(status.tolist(), count.tolist())), **cost)
