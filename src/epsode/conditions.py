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
from .systems import damped_newton, fd_jacobian
from .topology import (FieldVanishesError, NonConvergentError, PlanarRegion,
                       product_degree, winding_number)
from .variational import (DefectField, _defect_profiles, _phase_points,
                          flow_lanes, cycle_residual, defect_profile,
                          lane_field)

__all__ = [
    "HypothesisReport", "check_A0", "check_A1", "check_A2",
    "floquet_condition_A3",
    "MelnikovProfile", "melnikov_profile", "defect_normal_profile",
    "DegreeComparisonReport", "compare_defect_degrees",
    "ResonanceZero", "ResonanceMap", "resonance_H", "resonance_initial_point",
]


@dataclass
class HypothesisReport:
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
    whose variables cannot be read.  On a planar region ``data`` holds the
    initial boundary grid (``points``) and the defect field there
    (``values``), unless the flow failed.  Returns ``(HypothesisReport,
    DegreeReport or None)``.
    """
    if boundary_samples < 1:
        raise ValueError("boundary_samples must be positive")
    fld = DefectField(sys, 0.0, cfg)
    grids = {"boundary_samples": boundary_samples}
    tols = {"vanish_tol": vanish_tol}
    planar = isinstance(region, PlanarRegion)
    coupling = None if planar else _block_coupling(sys)
    if coupling:
        return HypothesisReport("A2", "inconclusive", 0.0, witness=coupling,
                                grids=grids, tolerances=tols), None

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

    report = None
    try:
        report, failed = _flow("A2", degree, grids=grids, tolerances=tols)
        if failed:  # filling data would rerun the failing flow
            return failed, None
        verdict = "holds" if report.degree != 0 else "fails"
        hyp = HypothesisReport(
            "A2", verdict, float(abs(report.degree)),
            witness={"degree": report.degree,
                     "min_field_norm": report.min_field_norm},
            grids={**grids, "samples_used": report.samples_used},
            tolerances=tols)
    except FieldVanishesError as err:
        hyp = HypothesisReport(
            "A2", "inconclusive", 0.0,
            witness={"point": err.point, "norm": err.norm,
                     "reason": "defect field vanishes on the boundary"},
            grids=grids, tolerances=tols)
    except NonConvergentError as err:
        hyp = HypothesisReport(
            "A2", "inconclusive", 0.0, witness={"reason": str(err)},
            grids=grids, tolerances=tols)
    if planar:  # the first refinement round cached these values
        pts = region.boundary_points(boundary_samples)
        hyp.data = {"points": pts, "values": fld.eval_many(pts)}
    return hyp, report


def floquet_condition_A3(sys, cycle, theta_grid=None, one_tol=1e-6,
                         gap_tol=1e-3, cycle_tol=1e-6, cfg=DEFAULT_CONFIG,
                         panels=64, order=8):
    """Check that 1 is a simple Floquet multiplier of the linearisation
    along every phase shift of the cycle.

    A phase holds when some multiplier is within ``one_tol`` of 1 and every
    other stays at least ``gap_tol`` away from 1.  For an autonomous
    unperturbed field the unit multiplier is structural, so the margin is
    the smallest gap; the witness is the phase of smallest gap among those
    that fail (all when none does).  ``data`` holds the per-phase arrays
    ``theta``, ``multipliers``, ``dist_to_one``, ``gap`` and ``simple``, and
    the worst Liouville determinant error ``max_liouville_rel_err``.

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
               "tolerances": {"one_tol": one_tol, "gap_tol": gap_tol}}
    M, failed = _flow("A3", lambda: flow_lanes(
        sys, 0.0, sys.T, cycle.eval(np.mod(thetas, sys.T)), cfg,
        S=np.eye(sys.k), tangents=sys.k)[1], **context)
    if failed:
        return failed

    mus = np.linalg.eigvals(M)
    d1 = np.sort(np.abs(mus - 1.0), axis=1)
    dist = d1[:, 0]
    gap = d1[:, 1] if sys.k > 1 else np.full(len(thetas), np.inf)
    simple = (dist <= one_tol) & (gap >= gap_tol)
    holds = bool(simple.all())
    worst = int(np.argmin(gap if holds else np.where(simple, np.inf, gap)))
    # psi is autonomous and the cycle T-periodic, so every phase shift has
    # the same Liouville trace integral
    nodes, weights = gauss_legendre_panels(0.0, sys.T, panels, order)
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
    panels: int
    order: int

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
            grids={"theta_points": len(self.thetas), "panels": self.panels,
                   "order": self.order},
            tolerances={"a3_tol": a3_tol})


def _perp(v):
    """Counterclockwise quarter turn (u, v) -> (-v, u), row-wise."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def melnikov_profile(sys, cycle, theta_grid=None, panels=64, order=8,
                     cycle_tol=1e-6):
    """Weighted cycle integral M(theta) of the forcing against the cycle
    normal.

    M(theta) = int_0^T exp(-int_0^t div psi dtau) <phi(t - theta, x0(t)),
    perp(x0'(t))> dt on the fixed composite Gauss-Legendre grid, with the
    inner integral at each node from :func:`gauss_legendre_running` on the
    same nodes; the cycle velocity is psi(t, x0(t)) exactly, never a
    difference quotient.
    """
    if sys.k != 2:
        raise ValueError("the cycle integral is defined for planar systems")
    res = cycle_residual(cycle, sys.T)
    if res > cycle_tol:
        raise ValueError(f"input trajectory is not {sys.T}-periodic "
                         f"(residual {res:.3e})")
    thetas = _phase_points(theta_grid, sys.T, "theta_grid")

    nodes, weights = gauss_legendre_panels(0.0, sys.T, panels, order)
    xq = cycle.eval(nodes)
    vq, jac = lane_field(sys, nodes, xq, np.eye(2), tangents=2)
    perp = _perp(vq)
    # the weight from the running quadrature of div psi = trace Dpsi
    wq = np.exp(-gauss_legendre_running(np.trace(jac, axis1=1, axis2=2),
                                        0.0, sys.T, panels, order))

    values = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        fq = lane_field(sys, nodes - th, xq, forcings=(sys,))[1][:, :, 0]
        values[i] = float(np.dot(weights, wq * np.einsum("nd,nd->n", fq, perp)))
    return MelnikovProfile(thetas, values, float(np.min(np.abs(values))),
                           (float(wq.min()), float(wq.max())), panels, order)


def defect_normal_profile(sys, cycle, s_grid=None, theta_grid=None,
                          cfg=DEFAULT_CONFIG):
    """Projection <defect(s, x0(theta)), perp(x0'(theta))> on a grid.

    Diagnostic companion to :func:`melnikov_profile`: both quantities are
    exposed so their vanishing sets can be inspected side by side instead
    of assumed to coincide.
    """
    if s_grid is None:
        s_grid = np.linspace(0.0, sys.T, 17)
    if theta_grid is None:
        theta_grid = np.linspace(0.0, sys.T, 33)
    s_grid = np.asarray(s_grid, dtype=float)
    thetas = np.asarray(theta_grid, dtype=float)
    pts = cycle.eval(np.mod(thetas, sys.T))
    vel = lane_field(sys, thetas, pts)[0]
    normals = _perp(vel)
    prof = defect_profile(sys, pts, s_grid, cfg)
    proj = np.einsum("snd,nd->sn", prof, normals)
    return s_grid, thetas, proj


# ---------------------------------------------------------------------------
# Homotopy invariance of the defect degree
# ---------------------------------------------------------------------------

@dataclass
class DegreeComparisonReport:
    verdict: str  # holds | fails | inconclusive
    degree_1: int = None
    degree_2: int = None
    min_defect: float = np.inf
    witness: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)


def compare_defect_degrees(sys1, sys2, region, lambda_grid=None, s_grid=None,
                     boundary_samples=512, a1_tol=1e-6, cfg=DEFAULT_CONFIG):
    """Compare defect-field degrees of two forcings over one region.

    The defect is affine in the forcing, so the defect of the convex
    combination lam*phi1 + (1-lam)*phi2 is the same combination of the two
    endpoint defects; no additional integration is needed along the
    homotopy.  If the combined defect drops below ``a1_tol`` somewhere on
    the (lambda, s, boundary) grid the comparison is inconclusive and the
    witness is reported.
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

    if lambda_grid is None:
        lambda_grid = np.linspace(0.0, 1.0, 11)
    if s_grid is None:
        s_grid = np.linspace(0.0, sys1.T, 65)
    lambdas = np.asarray(lambda_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    if not np.any(s_grid == 0.0):
        s_grid = np.concatenate([[0.0], s_grid])
    pts = _boundary_samples(region, boundary_samples)
    D1, D2 = _defect_profiles(sys1, (sys1, sys2), pts, s_grid, cfg)

    grids = {"lambda_points": len(lambdas), "s_points": len(s_grid),
             "boundary_samples": len(pts)}
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
        return DegreeComparisonReport("inconclusive", min_defect=min_defect,
                              witness=witness, grids=grids)

    s0 = int(np.nonzero(s_grid == 0.0)[0][0])
    degrees = []
    for sysi, Di in ((sys1, D1), (sys2, D2)):
        fldi = DefectField(sysi, 0.0, cfg)
        fldi.preseed(pts, Di[s0])
        degrees.append(winding_number(fldi.eval_many, region,
                                      n0=len(pts)).degree)
    verdict = "holds" if degrees[0] == degrees[1] else "fails"
    return DegreeComparisonReport(verdict, degrees[0], degrees[1], min_defect,
                          witness, grids)


# ---------------------------------------------------------------------------
# Resonance map of the harmonically forced linear center
# ---------------------------------------------------------------------------

@dataclass
class ResonanceZero:
    a: float
    theta: float
    residual: float
    det: float
    iterations: int


@dataclass
class ResonanceMap:
    """Zeros of H and what finding them cost: ``newton`` counts the seed
    lanes by final status, ``forcing_calls`` and ``quad_points`` the batched
    forcing evaluations on the quadrature grid and their points, up to the
    return of :func:`resonance_H`."""
    evaluate: callable
    evaluate_many: callable
    zeros: list
    degenerate: bool
    a_range: tuple
    theta_range: tuple
    newton: dict = field(default_factory=dict)
    forcing_calls: int = 0
    quad_points: int = 0

    def box(self, zero, half=0.2):
        """Axis-aligned box region around a zero in the (a, theta) plane."""
        a, th = zero.a, zero.theta
        verts = [(a - half, th - half), (a + half, th - half),
                 (a + half, th + half), (a - half, th + half)]
        return PlanarRegion.polygon(verts)


def resonance_initial_point(a, theta):
    """Initial state of the circle orbit indexed by amplitude and phase."""
    return np.array([-a * np.cos(theta), a * np.sin(theta)])


def resonance_H(g, a_range, theta_range, grid=(12, 12), panels=64, order=8,
                zero_tol=1e-10, dedupe_tol=1e-6, max_iter=40):
    """Resonance map H(a, theta) for the forced linear center.

    ``g`` is a forcing expression in ``t`` and the slots ``x1`` (position
    u) and ``x2`` (velocity v); the components of H are the quadratures of
    sin(tau) and cos(tau) against g(tau + theta, a cos tau, -a sin tau)
    over one period.  Zeros come from damped Newton over a seed grid, one
    lane per seed; each carries the central-difference Jacobian determinant.

    The line search makes at most 12 tries, so the damping factor stays
    above 2^-12 (Deuflhard's minimal damping factor): a seed whose step
    lowers |H| at none of 1, 1/2, ..., 2^-11 stops as ``no_descent``.  A
    seed crawling along a nearly singular J (towards a critical point of
    |H|, not a zero) stops early; a regular zero is still found whenever
    some seed reaches the neighbourhood where such damped steps descend.
    """
    expr = ex.parse(g) if isinstance(g, str) else g
    f = ex.compile_expr(expr, arrays=True)
    rng = np.random.default_rng(3)
    for _ in range(5):  # the period is fixed at 2 pi for this construction
        t = rng.uniform(0, 2 * np.pi)
        u, v = rng.uniform(-2, 2, 2)
        a, b = f(t, (u, v)), f(t + 2 * np.pi, (u, v))
        if abs(a - b) > 1e-9 * (1 + abs(a)):
            raise ValueError("forcing expression is not 2 pi periodic in t")
    nodes, weights = gauss_legendre_panels(0.0, 2 * np.pi, panels, order)
    s_nodes = np.sin(nodes)
    c_nodes = np.cos(nodes)

    cost = {"forcing_calls": 0, "quad_points": 0}

    def H_many(A, TH):
        A = np.asarray(A, dtype=float)[:, None]
        TH = np.asarray(TH, dtype=float)[:, None]
        u = A * c_nodes[None, :]
        v = -A * s_nodes[None, :]
        tt = nodes[None, :] + TH
        fv = np.broadcast_to(f(tt, (u, v)), tt.shape)
        cost["forcing_calls"] += 1
        cost["quad_points"] += tt.size
        # a row-wise sum, not a gemv, so a lane's bits do not depend on
        # how many lanes share the call
        return np.stack([np.einsum("ij,j->i", fv * s_nodes[None, :], weights),
                         np.einsum("ij,j->i", fv * c_nodes[None, :], weights)],
                        axis=1)

    def H_lanes(P):
        return H_many(P[:, 0], P[:, 1])

    def H(p):
        return H_lanes(np.asarray(p, dtype=float)[None])[0]

    a_lo, a_hi = a_range
    th_lo, th_hi = theta_range
    As = np.linspace(a_lo, a_hi, grid[0])
    Ths = np.linspace(th_lo, th_hi, grid[1])
    AA, TT = np.meshgrid(As, Ths, indexing="ij")
    Hgrid = H_many(AA.ravel(), TT.ravel())
    scale = float(np.max(np.linalg.norm(Hgrid, axis=1)))
    if scale < 1e-10:
        return ResonanceMap(H, H_many, [], True, tuple(a_range),
                            tuple(theta_range), **cost)

    # damping factors down to 2^-11 only: no lane crawls along a singular J
    run = damped_newton(
        lambda P, jac: (H_lanes(P), jac and fd_jacobian(H_lanes, P, rel=1e-5)),
        np.column_stack([AA.ravel(), TT.ravel()]), zero_tol * max(1.0, scale),
        max_iter, halvings=12)
    zeros = []
    for p, r, J, it, s in zip(run.x, run.residual, run.jacobian,
                              run.iterations, run.status):
        if not (s == "converged" and a_lo - 1e-9 <= p[0] <= a_hi + 1e-9
                and th_lo - 1e-9 <= p[1] <= th_hi + 1e-9):
            continue
        if any(abs(z.a - p[0]) <= dedupe_tol and abs(z.theta - p[1]) <= dedupe_tol
               for z in zeros):
            continue
        zeros.append(ResonanceZero(float(p[0]), float(p[1]), float(r),
                                   float(np.linalg.det(J)), int(it)))
    zeros.sort(key=lambda z: (z.a, z.theta))
    status, count = np.unique(run.status, return_counts=True)
    return ResonanceMap(H, H_many, zeros, False, tuple(a_range),
                        tuple(theta_range),
                        dict(zip(status.tolist(), count.tolist())), **cost)
