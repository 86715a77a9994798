"""Periodic orbits of the full system by period-map shooting.

Newton iteration on P(xi) = x(T; 0, xi) - xi with the flow Jacobian from
the coupled variational run of the full field.  A sweep over decreasing
eps values follows the branch of orbits by Euler-Newton continuation,
records per-eps failures, and fits the convergence rate of the orbit's
distance to the reference boundary.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .conditions import HypothesisReport
from .solver import DEFAULT_CONFIG, IntegrationError, integrate
from .systems import damped_newton
from .topology import PlanarRegion
from .variational import augmented, flow_lanes, lane_field

__all__ = [
    "PeriodicOrbitResult", "shoot", "pullback_membership", "orbit_amplitude",
    "equilibrium_candidates", "SweepResult", "eps_sweep",
]


@dataclass
class PeriodicOrbitResult:
    eps: float
    seed: np.ndarray
    xi_star: np.ndarray
    residual: float
    iterations: int
    converged: bool
    multipliers: np.ndarray
    jacobian_singular: bool
    monodromy: np.ndarray = None
    orbit: object = None
    in_region: bool = None
    boundary_distance: float = None
    residual_history: list = field(default_factory=list)
    failure: str = None


def shoot(sys, eps, seed, cfg=DEFAULT_CONFIG, region=None, shoot_tol=1e-9):
    """Damped Newton on the period map from the given seed.

    Every way the iteration can end gives a :class:`PeriodicOrbitResult`
    at its last iterate, with the residual history; only a failed flow
    raises (:class:`IntegrationError`).  A result that did not converge
    names the status of :func:`damped_newton` in ``failure``: for a
    singular period-map Jacobian its smallest singular value, otherwise
    the last residuals.  At eps = 0 with a seed on a cycle the Jacobian is
    singular (unit multiplier) at a converged orbit; ``jacobian_singular``
    reports that.
    """
    eye = np.eye(sys.k)

    def period_map(X, jacobian):
        tangents = sys.k if jacobian else 0
        end, S = flow_lanes(sys, 0.0, sys.T, X, cfg, S=eye[:, :tangents],
                            eps=eps, tangents=tangents)
        return end - X, S - eye if jacobian else None

    # 25 steps and damping down to 2^-39 bound a seed that will not converge;
    # a unit multiplier leaves J singular only to integration accuracy, so
    # 1e-8; and a residual not 2% below its value 3 iterates back has stalled
    run = damped_newton(period_map, np.reshape(seed, (1, -1)), shoot_tol,
                        25, 40, 1e-8, (3, 0.98))
    status, history = run.status[0], run.history[0]
    xi, converged = run.x[0], status == "converged"
    monodromy = run.jacobian[0] + eye  # the period-map Jacobian at xi
    result = PeriodicOrbitResult(
        float(eps), np.asarray(seed, dtype=float), xi, float(run.residual[0]),
        int(run.iterations[0]), converged, np.linalg.eigvals(monodromy),
        bool(run.singular[0]), monodromy, residual_history=history)
    if status == "singular":
        sv = np.linalg.svd(run.jacobian[0], compute_uv=False)
        result.failure = (f"period-map Jacobian singular at eps={eps} "
                          f"(smallest singular value {sv[-1]:.3e})")
    elif not converged:
        tail = ", ".join(f"{r:.3e}" for r in history[-6:])
        result.failure = f"shooting Newton {status} (residuals ... {tail})"
    else:
        result.orbit = integrate(augmented(sys, 1, eps)[0], 0.0, sys.T, xi,
                                 cfg)
        if region is not None:
            result.in_region = pullback_membership(
                sys, result.orbit, region, cfg=cfg).verdict == "holds"
            result.boundary_distance = float(
                region.distance_to_boundary(xi[None, :])[0])
    return result


def pullback_membership(sys, orbit, region, n_time=256, cfg=DEFAULT_CONFIG):
    """Whether the flow pullback Omega(0, t, x(t)) stays inside the region.

    All grid points are pulled back to time 0 by one run of the unperturbed
    flow with per-lane start times (:func:`flow_lanes`).  A circle answers
    interior membership from its center and radius, other regions by the
    boundary winding number.  The ``membership`` report holds when every
    pullback is inside; its margin is then their smallest distance to the
    boundary, at the witness time, and otherwise 0, at the first time
    whose pullback is outside.
    """
    times = np.linspace(0.0, sys.T, n_time)
    pulls = flow_lanes(sys, times, 0.0, orbit.eval(times), cfg)[0]
    if isinstance(region, PlanarRegion):
        inside = region.winding_around(pulls) == 1
    else:
        inside = np.array([region.contains(p) for p in pulls])
    if np.all(inside):
        dist = region.distance_to_boundary(pulls)
        i = int(np.argmin(dist))
        return HypothesisReport("membership", "holds", float(dist[i]),
                                {"time": float(times[i])})
    i = int(np.argmin(inside))
    return HypothesisReport("membership", "fails", 0.0,
                            {"time": float(times[i])})


def orbit_amplitude(orbit):
    """max over the period of |x(t)|."""
    # 512 samples miss the max of a smooth |x(t)| by O((T/512)^2)
    times = np.linspace(orbit.t0, orbit.t1, 512)
    return float(np.max(np.linalg.norm(orbit.eval(times), axis=1)))


def equilibrium_candidates(sys, eps, region=None):
    """Equilibria of the full autonomous field (each is T-periodic for
    every T); used as shooting seeds when the period map stalls.

    Only meaningful for autonomous systems; returns an empty list
    otherwise.
    """
    if not sys.autonomous:
        return []
    if isinstance(region, PlanarRegion):
        pts = region.boundary_points(64)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        # the corners, edge midpoints and center of the bounding box
        axes = [np.linspace(lo[j], hi[j], 3) for j in range(2)]
        grid = np.meshgrid(*axes, indexing="ij")
        seeds = list(np.column_stack([g.ravel() for g in grid]))
        if region.star_center is not None:
            seeds.append(region.star_center)
    elif region is not None:
        seeds = [np.concatenate([f.star_center for f in region.factors])]
    else:
        seeds = [np.zeros(sys.k)]
    # f is evaluated, not integrated, so reaches 1e-12; 60 steps bound a seed
    run = damped_newton(
        lambda X, _: lane_field(sys, 0.0, X, np.eye(sys.k), eps=eps,
                                tangents=sys.k),
        np.array(seeds), 1e-12, 60)
    found = []
    for x in run.x[run.status == "converged"]:
        if (region is None or region.contains(x)) and \
                not any(np.linalg.norm(x - y) <= 1e-8 for y in found):
            found.append(x)
    return found


@dataclass
class SweepResult:
    results: list
    slope: float = None
    seeds_used: list = field(default_factory=list)
    seed_kinds: list = field(default_factory=list)

    def converged(self):
        return [r for r in self.results if r.converged]


def eps_sweep(sys, region, eps_list, seed_strategy="continuation", seed=None,
              cycle=None, melnikov=None, cfg=DEFAULT_CONFIG, shoot_tol=1e-9):
    """Shoot for periodic orbits over a list of eps values.

    Seeds: an explicit ``seed``; otherwise, with a cycle and its weighted
    integral profile, the cycle point where |M(theta)| peaks; otherwise the
    region star center.  ``seed_strategy`` "fixed" always starts from that
    seed.  "continuation" is Euler-Newton continuation (Allgower and Georg,
    *Numerical Continuation Methods*, ch. 2): after an orbit xi_c converges
    at eps_c and a later eps remains, one run with the forcing column gives
    dP/deps at xi_c, and the branch tangent is
    v = -(monodromy - I)^-1 dP/deps, the monodromy being the period-map
    Jacobian that :func:`shoot` keeps in ``PeriodicOrbitResult.monodromy``.
    Each later eps is then tried from the prediction
    xi_c + (eps - eps_c) v, then from xi_c itself.  No tangent is kept when
    the orbit's Jacobian is singular, v is not finite or its run fails;
    then eps starts from xi_c (from the seed until an orbit converges).
    When these starts do not converge or their flow fails, the sweep
    falls back to equilibria of the full field (for autonomous systems)
    and to the star center, skipping any start already tried at that eps,
    before recording a failure that names the last shot's ``failure`` or
    flow error.  ``seeds_used`` holds the start that converged (the first
    one tried for a failure) and ``seed_kinds`` its kind: "given",
    "predicted", "continued", "fallback", or "none" for a failure.  The
    rate fit regresses log distance-to-boundary of the found orbits on log
    eps.
    """
    if seed_strategy not in ("continuation", "fixed"):
        raise ValueError(f"seed_strategy must be 'continuation' or 'fixed', "
                         f"not {seed_strategy!r}")
    if seed is not None:
        current = np.atleast_1d(np.asarray(seed, dtype=float))
    elif cycle is not None and melnikov is not None:
        current = cycle.eval(melnikov.argmax_abs())
    elif cycle is not None:
        current = cycle.eval(0.0)
    elif region is not None and getattr(region, "star_center", None) is not None:
        current = region.star_center
    else:
        current = np.zeros(sys.k)

    def fallbacks(eps):  # built only when the seeds before them fail
        yield from equilibrium_candidates(sys, eps, region)
        if region is not None and getattr(region, "star_center", None) is not None:
            yield region.star_center

    def attempt_eps(eps, starts):
        tried, last_error = [], None
        tries = chain(starts, ((x, "fallback") for x in fallbacks(eps)))
        for attempt, kind in tries:
            attempt = np.asarray(attempt, dtype=float)
            if any(np.array_equal(attempt, x) for x in tried):
                continue
            tried.append(attempt)
            try:
                outcome = shoot(sys, eps, attempt, cfg=cfg, region=region,
                                shoot_tol=shoot_tol)
            except IntegrationError as err:
                last_error = err
                continue
            if outcome.converged:
                return outcome, attempt, kind
            last_error = outcome.failure
        first = np.asarray(starts[0][0], dtype=float)
        failed = PeriodicOrbitResult(
            eps=float(eps), seed=first,
            xi_star=np.full(sys.k, np.nan), residual=np.inf,
            iterations=0, converged=False,
            multipliers=np.full(sys.k, np.nan, dtype=complex),
            jacobian_singular=False,
            monodromy=np.full((sys.k, sys.k), np.nan),
            failure=str(last_error))
        return failed, first, "none"

    def tangent(orbit):
        """d xi*/d eps along the branch through a converged orbit, or None."""
        if orbit.jacobian_singular:
            return None
        try:
            dP = flow_lanes(sys, 0.0, sys.T, orbit.xi_star, cfg, eps=orbit.eps,
                            forcings=(sys,))[1][0, :, 0]
        except IntegrationError:
            return None
        v = -np.linalg.solve(orbit.monodromy - np.eye(sys.k), dP)
        return v if np.all(np.isfinite(v)) else None

    results, seeds_used, seed_kinds = [], [], []
    kind = "given"
    branch = None  # (eps_c, v) of the last converged orbit, xi_c = current
    for i, eps in enumerate(eps_list):
        starts = [(current, kind)]
        if branch is not None:
            eps_c, v = branch
            starts.insert(0, (current + (eps - eps_c) * v, "predicted"))
        outcome, used, used_kind = attempt_eps(eps, starts)
        results.append(outcome)
        seeds_used.append(used)
        seed_kinds.append(used_kind)
        if seed_strategy == "continuation" and outcome.converged:
            current, kind = outcome.xi_star, "continued"
            v = tangent(outcome) if i + 1 < len(eps_list) else None
            branch = None if v is None else (outcome.eps, v)

    slope = None
    pts = [(r.eps, r.boundary_distance) for r in results
           if r.converged and r.boundary_distance and r.boundary_distance > 0]
    if len(pts) >= 2:
        le = np.log([p[0] for p in pts])
        ld = np.log([p[1] for p in pts])
        slope = float(np.polyfit(le, ld, 1)[0])
    return SweepResult(results, slope, seeds_used, seed_kinds)
