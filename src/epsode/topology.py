"""Planar Jordan regions and winding numbers of boundary vector fields.

Regions are given by a parametrised closed curve or a positively oriented
polygon.  The winding number of a nonvanishing field along the boundary is
accumulated from atan2 increments with adaptive refinement; radial
contractions about a star center realise the delta-contraction of a region,
and products of planar regions cover even-dimensional product systems.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PlanarRegion", "ProductRegion", "DegreeReport", "winding_number",
    "product_degree", "contract", "accumulated_angle",
]


def _shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_intersect(p, q):
    """Pairwise proper-intersection test between two segment batches."""

    def orient(a, b, c):
        return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))

    a1, a2 = p
    b1, b2 = q
    d1 = orient(a1, a2, b1)
    d2 = orient(a1, a2, b2)
    d3 = orient(b1, b2, a1)
    d4 = orient(b1, b2, a2)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def _loop_increments(ang):
    """Increments of angles around a closed loop along the last axis, each
    wrapped into [-pi, pi)."""
    inc = np.diff(np.concatenate([ang, ang[..., :1]], axis=-1), axis=-1)
    return (inc + np.pi) % (2 * np.pi) - np.pi


class PlanarRegion:
    """Bounded planar Jordan region with a discretisable boundary.

    A polygon or general curve must be simple (checked pairwise at the
    validation resolution, a heuristic rather than a certification) and
    positively oriented.  A circle of radius r > 0 sampled at n >= 3
    points and an axis-aligned box are both by construction, so they skip
    that check; a circle also answers membership and distance from its own
    center and radius.
    ``star_center`` enables radial contraction.
    """

    def __init__(self, curve=None, vertices=None, star_center=None, n_hint=512,
                 _disk=None, _simple=False):
        if (curve is None) == (vertices is None):
            raise ValueError("provide exactly one of curve or vertices")
        self.curve = curve
        self.vertices = None if vertices is None else np.asarray(vertices, float)
        self.star_center = None if star_center is None \
            else np.asarray(star_center, dtype=float)
        self.n_hint = int(n_hint)
        self._disk = _disk  # (center, radius) of a circle
        if _disk is None and not _simple:
            self._validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def circle(cls, cx=0.0, cy=0.0, r=1.0, n=512):
        if not 0.0 < r < np.inf:
            raise ValueError("circle radius r must be positive and finite, "
                             f"not {r}")
        if n < 3:
            raise ValueError(f"circle needs n >= 3 boundary samples, not {n}")
        c = np.array([cx, cy], dtype=float)

        def fn(u):
            u = np.asarray(u, dtype=float)
            ang = 2 * np.pi * u
            return np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=-1)

        return cls(curve=fn, star_center=c, n_hint=n,
                   _disk=(c.copy(), float(r)))

    @classmethod
    def polygon(cls, vertices):
        vertices = np.asarray(vertices, dtype=float)
        # star center at the vertex mean; 8 samples per edge, at least 512
        return cls(vertices=vertices, star_center=vertices.mean(axis=0),
                   n_hint=max(512, 8 * len(vertices)))

    @classmethod
    def box(cls, lo, hi):
        """The axis-aligned polygon from corner ``lo`` to corner ``hi``,
        counter-clockwise from ``lo``."""
        (x0, y0), (x1, y1) = lo, hi
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"box corners must satisfy lo < hi, got {lo} "
                             f"and {hi}")
        verts = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], dtype=float)
        return cls(vertices=verts, star_center=verts.mean(axis=0),
                   _simple=True)

    # -- geometry ----------------------------------------------------------

    def boundary_points(self, n=None, us=None):
        """Points on the boundary at parameters ``us`` (or n uniform)."""
        if us is None:
            us = np.arange(n if n is not None else self.n_hint) / \
                float(n if n is not None else self.n_hint)
        us = np.asarray(us, dtype=float) % 1.0
        if self.curve is not None:
            return np.atleast_2d(self.curve(us))
        verts = self.vertices
        m = len(verts)
        nxt = np.roll(verts, -1, axis=0)
        lens = np.linalg.norm(nxt - verts, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(lens)])
        d = us * cum[-1]
        idx = np.clip(np.searchsorted(cum, d, side="right") - 1, 0, m - 1)
        frac = (d - cum[idx]) / lens[idx]
        return verts[idx] + frac[:, None] * (nxt[idx] - verts[idx])

    def _validate(self):
        res = min(self.n_hint, 256)
        pts = self.boundary_points(res)
        if _shoelace(pts) <= 0:
            raise ValueError("boundary must be positively oriented "
                             "(counterclockwise, shoelace area > 0)")
        nxt = np.roll(pts, -1, axis=0)
        i, j = np.triu_indices(res, k=2)
        keep = ~((i == 0) & (j == res - 1))
        i, j = i[keep], j[keep]
        bad = _segments_intersect((pts[i], nxt[i]), (pts[j], nxt[j]))
        if np.any(bad):
            raise ValueError("boundary self-intersects at the working resolution")

    def winding_around(self, points):
        """Winding number of the boundary around each query point."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if self._disk is not None:
            c, r = self._disk
            return (np.linalg.norm(P - c, axis=1) < r).astype(int)
        pts = self.boundary_points(self.n_hint)
        diff = pts[None, :, :] - P[:, None, :]
        inc = _loop_increments(np.arctan2(diff[:, :, 1], diff[:, :, 0]))
        w = inc.sum(axis=1) / (2 * np.pi)
        return np.rint(w).astype(int)

    def contains(self, point):
        return bool(self.winding_around(np.asarray(point)[None, :])[0] == 1)

    def distance_to_boundary(self, points):
        """Distance from each query point to the boundary: exact for a
        circle, to the polygon through ``n_hint`` boundary samples
        otherwise."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if self._disk is not None:
            c, r = self._disk
            return np.abs(r - np.linalg.norm(P - c, axis=1))
        pts = self.boundary_points(self.n_hint)
        nxt = np.roll(pts, -1, axis=0)
        d = nxt - pts
        L2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
        w = P[:, None, :] - pts[None, :, :]
        t = np.clip(np.einsum("mnd,nd->mn", w, d) / L2[None, :], 0.0, 1.0)
        proj = pts[None, :, :] + t[:, :, None] * d[None, :, :]
        dist = np.linalg.norm(P[:, None, :] - proj, axis=2)
        return dist.min(axis=1)


class ProductRegion:
    """Cartesian product of planar regions (total dimension 2p)."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = factors

    @property
    def k(self):
        return 2 * len(self.factors)

    def contains(self, point):
        point = np.asarray(point, dtype=float)
        return all(f.contains(point[2 * i:2 * i + 2])
                   for i, f in enumerate(self.factors))

    def distance_to_boundary(self, points):
        P = np.atleast_2d(np.asarray(points, dtype=float))
        per = np.stack([f.distance_to_boundary(P[:, 2 * i:2 * i + 2])
                        for i, f in enumerate(self.factors)])
        return per.min(axis=0)


@dataclass
class DegreeReport:
    """The answer of a winding count.  ``degree`` is None when the count
    stopped: ``failure`` says why and ``witness`` holds the sample (its
    ``point``, parameter ``u`` and, where the field vanishes, ``norm``)."""
    degree: int
    min_field_norm: float
    samples_used: int
    refined: bool
    residue: float = 0.0
    failure: str = None
    witness: dict = field(default_factory=dict)


def accumulated_angle(values):
    """Total wrapped atan2 increment along a closed loop of field values."""
    values = np.asarray(values, dtype=float)
    return float(_loop_increments(np.arctan2(values[:, 1], values[:, 0])).sum())


def winding_number(F, region, n0=None, vanish_tol=1e-9, max_samples=2 ** 20):
    """Winding number of the planar field F along the region boundary.

    ``F`` maps boundary points of shape (n, 2) to field values (n, 2).

    Sampling is refined until every consecutive angle increment is below
    pi/2, so no winding can be skipped for the sampled field; the wrapped
    increments of the closed loop then sum to 2 pi times the degree up to
    rounding, which ``residue`` reports.  An offending interval [u_l, u_r]
    with end values F_l, F_r gets its midpoint and, when it lies strictly
    inside and off the midpoint, the chord point u_l + lam (u_r - u_l) with
    lam = -<F_l, F_r - F_l> / |F_r - F_l|^2, where the segment between the
    end values passes closest to zero; so no interval shrinks more slowly
    than under bisection, and a boundary zero is closed in on like a
    secant root.  The count stops without a degree at the first sample (in
    u) where F is not finite, at the sample of smallest u whose norm falls
    below ``vanish_tol``, or at the sample cap, with the first unsettled
    interval's left end as witness.
    Fewer than 3 starting samples raise ``ValueError``: the increments of
    one or two samples sum to 0 when none reaches pi/2, so the degree would
    read 0 unrefined.
    """
    def evaluate(us):  # values, norms and the stop at the first bad sample
        pts = region.boundary_points(us=us)
        vals = np.asarray(F(pts), dtype=float)
        norms = np.linalg.norm(vals, axis=1)
        bad = ~np.isfinite(norms)
        if bad.any():  # no refinement settles an angle of nan
            j = int(np.argmin(np.where(bad, us, np.inf)))
            return vals, norms, dict(failure=(
                f"field not finite at u={us[j]:.6g}, point "
                f"({pts[j][0]:.6g}, {pts[j][1]:.6g}), F = ({vals[j][0]:.6g}, "
                f"{vals[j][1]:.6g})"), witness={"point": pts[j], "u": us[j]})
        # the first vanishing sample in u: their norms are rounding noise
        j = int(np.argmin(np.where(norms < vanish_tol, us, np.inf)))
        if norms[j] < vanish_tol:
            return vals, norms, dict(failure=(
                f"field vanishes on the boundary near {pts[j]} "
                f"(|F| = {norms[j]:.3e})"), witness={
                    "point": pts[j], "u": us[j], "norm": float(norms[j])})
        return vals, norms, None

    n_start = int(n0 if n0 is not None else
                  getattr(region, "n_hint", 512) or 512)
    if n_start < 3:
        raise ValueError(f"n0 must be at least 3, not {n_start}")
    us = np.arange(n_start) / float(n_start)
    vals, norms, stop = evaluate(us)
    min_norm = float(np.fmin.reduce(norms))  # nan only where all are
    refined = False

    while stop is None:
        inc = _loop_increments(np.arctan2(vals[:, 1], vals[:, 0]))
        bad = np.nonzero(np.abs(inc) >= np.pi / 2)[0]
        nxt_u = np.concatenate([us, [us[0] + 1.0]])
        if bad.size == 0:
            total = float(inc.sum())
            degree = np.rint(total / (2 * np.pi))
            return DegreeReport(int(degree), min_norm, len(us), refined,
                                abs(total - 2 * np.pi * degree))
        u_l, u_r = nxt_u[bad], nxt_u[bad + 1]
        F_l, dF = vals[bad], vals[(bad + 1) % len(us)] - vals[bad]
        # F_r != F_l, since their angles differ by at least pi/2
        lam = -np.sum(F_l * dF, axis=1) / np.sum(dF * dF, axis=1)
        mid, chord = (u_l + u_r) / 2, u_l + lam * (u_r - u_l)
        inside = (chord > u_l) & (chord < u_r) & (chord != mid)
        new_us = np.concatenate([mid, chord[inside]]) % 1.0
        if len(us) + len(new_us) > max_samples:
            stop = dict(failure=f"no convergence with {len(us)} boundary "
                        f"samples (cap {max_samples})", witness={
                            "point": region.boundary_points(us=u_l[:1])[0],
                            "u": u_l[0]})
            break
        refined = True
        new_vals, new_norms, stop = evaluate(new_us)
        min_norm = float(np.fmin(min_norm, np.fmin.reduce(new_norms)))
        us = np.concatenate([us, new_us])
        order = np.argsort(us, kind="stable")
        us, vals = us[order], np.concatenate([vals, new_vals])[order]
    return DegreeReport(None, min_norm, len(us), refined, **stop)


def product_degree(Fs, product_region, **kwargs):
    """Degree of a product map over a product region.

    The Brouwer degree of (F1 x ... x Fp) over U1 x ... x Up is the product
    of the planar degrees.  A factor whose count stops ends the product
    with that factor's report.
    """
    Fs = list(Fs)
    if len(Fs) != len(product_region.factors):
        raise ValueError("one field per factor required")
    reports = []
    for F, region in zip(Fs, product_region.factors):
        reports.append(winding_number(F, region, **kwargs))
        if reports[-1].degree is None:
            return reports[-1]
    return DegreeReport(
        int(np.prod([r.degree for r in reports])),
        min(r.min_field_norm for r in reports),
        max(r.samples_used for r in reports),
        any(r.refined for r in reports),
    )


def contract(region, delta):
    """Radial delta-contraction about the star center (expansion for
    negative delta); a circle stays a circle, about the same star center.
    A homothety of positive scale keeps a simple, positively oriented
    boundary so, and the result skips that check."""
    if not -1.0 < delta < 1.0:
        raise ValueError("delta must lie in (-1, 1)")
    if region.star_center is None:
        raise ValueError("region has no star center")
    c = region.star_center
    scale = 1.0 - delta
    if region._disk is not None:
        m, r = region._disk
        disk = PlanarRegion.circle(*(c + scale * (m - c)), scale * r,
                                   region.n_hint)
        disk.star_center = c
        return disk
    if region.curve is not None:
        fn = region.curve

        def scaled(u):
            return c + scale * (fn(u) - c)

        return PlanarRegion(curve=scaled, star_center=c, n_hint=region.n_hint,
                            _simple=True)
    verts = c + scale * (region.vertices - c)
    return PlanarRegion(vertices=verts, star_center=c, n_hint=region.n_hint,
                        _simple=True)
