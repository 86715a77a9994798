"""Linear response of trajectories to the small forcing term.

The affine system y' = phi(t, X(t)) + Dpsi(t, X(t)) y along an unperturbed
trajectory X(t) measures the first-order displacement per unit of the small
parameter.  Its solution vanishing at an anchor time s is ``eta``; the
period defect eta(T, s, xi) - eta(0, s, xi) drives the existence checks,
and monodromy matrices of the homogeneous part give Floquet multipliers.

Every coupled or batched-flow integration of a system takes its
right-hand side from :func:`augmented`.  Dense output is kept only where a
trajectory is returned: :func:`flow_lanes` computes every end state, or
every lane's states at given fractions of its span, and lets each lane start
and end at its own time (so ``averaging.verify_cauchy`` makes one run for
all its eps values);
``integrate_checkpoints`` computes every state at known times;
``integrate`` runs only in :func:`flow_omega_dense` here, and in
``periodic.shoot`` for its orbit and the averaged trajectory of
``averaging``.  The state holds ``n`` lanes.  A lane is ``x`` (k values)
followed by a k x m matrix ``S`` stored row by row, ``dim = k*(1 + m)``
values with ``m = tangents + len(forcings)``:

    x' = eps*phi(t, x) + psi(t, x)
    S' = J S + [0 | phi_1(t, x) ... phi_f(t, x)],   J = eps*Dphi + Dpsi

The first ``tangents`` columns are homogeneous (a fundamental matrix when
started at the identity); column ``tangents + j`` is the particular
response to the phi of ``forcings[j]``.  The flat state lays the lanes
end to end, except in a generated batch wider than ``_MATH_MAX_LANES``,
which stores one row per lane component: component c of every lane is
row c of a (dim, n) array, contiguous for its numpy binding.  ``pack`` and
``unpack`` convert between lanes and the flat state, so no caller indexes
it.  One lane with no columns is ``x`` itself, so such a run is the
trajectory of x.

For systems and forcings built from expressions one function of a lane,
with the Jacobian products written out and structural zeros dropped, is
generated per variant (eps, tangents, forcings) and kept in
``sys.lane_cache``.  It reads each lane component it uses once and
computes each subtree that recurs across the field, the Jacobian entries
and the forcing drives once (``expressions._shared_code``), with no
algebra, so its values keep the bits of the trees written out in full.
It is compiled with ``math``, which runs lane by lane
on ``z.tolist()`` for batches of up to ``_MATH_MAX_LANES`` lanes (several
times faster than numpy there, as in the refinement rounds of winding
numbers), and with numpy for wider batches, which reads each component
as a row and writes each derivative into one.  Opaque callables run a
loop of their pointwise evaluators over lanes laid end to end.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import expressions as ex
from .solver import (DEFAULT_CONFIG, IntegrationError, integrate,
                     integrate_checkpoints)

__all__ = [
    "augmented", "lane_field", "flow_lanes", "flow_omega", "flow_omega_dense",
    "EtaSolution", "eta", "DefectField", "defect_profile", "cycle_residual",
]


# Widest batch that runs the math binding lane by lane; beyond it one numpy
# call over the component rows is cheaper (measured per RHS call on e1 and
# e2).
_MATH_MAX_LANES = 8


def _lane_source(sys, eps, tangents, forcings):
    """Source of ``f(t, x)``: the derivative of one lane ``x`` as a list."""
    k, m = sys.k, tangents + len(forcings)
    phi, psi = sys.phi_exprs, sys.psi_exprs

    def full(a, b):  # eps*a + b, without a when eps is 0
        return ex._add(ex._mul(ex.Num(eps), a), b) if eps else b

    # each output is a sum of (tree, params) terms; an entry of J is in
    # the term of every column it multiplies, so columns share it
    outs = [[(full(a, b), sys.params)]
            for a, b in zip(phi.components, psi.components)]
    if m:
        J = [[full(a, b) for a, b in zip(ra, rb)]
             for ra, rb in zip(phi.jacobian_exprs(), psi.jacobian_exprs())]
        J = [[(j, e) for j, e in enumerate(row) if not ex._num(e, 0)]
             for row in J]
        for i, col in product(range(k), range(m)):
            terms = [(ex.BinOp("*", e, ex.Var(f"x{k + j * m + col + 1}")),
                      sys.params) for j, e in J[i]]
            if col >= tangents:
                drive = forcings[col - tangents]
                e = drive.phi_exprs.components[i]
                if not ex._num(e, 0):
                    terms.append((e, drive.params))
            outs.append(terms)
    lines, codes = ex._shared_code([t for o in outs for t in o])
    codes = iter(codes)
    out = [" + ".join(next(codes) for _ in o) or "0.0" for o in outs]
    return ("def f(t, x):\n" + "".join(f"    {s}\n" for s in lines)
            + f"    return [{', '.join(out)}]\n")


def _lane_functions(sys, eps, tangents, forcings):
    """The lane function of one variant, compiled for floats and arrays."""
    key = (float(eps), tangents, tuple(forcings))
    if key not in sys.lane_cache:
        src = _lane_source(sys, *key)
        sys.lane_cache[key] = (ex.compile_source(src),
                               ex.compile_source(src, arrays=True))
    return sys.lane_cache[key]


def _lane_loop(sys, n, eps, tangents, forcings):
    """Right-hand side of ``n`` lanes from the pointwise evaluators."""
    k, m = sys.k, tangents + len(forcings)
    fld, phij, psij = sys.field(eps), sys.phi_jac, sys.psi_jac

    def rhs(t, z):
        Z = np.reshape(z, (n, k * (1 + m)))
        dZ = np.empty_like(Z)
        for i, tv in enumerate(np.broadcast_to(t, (n,))):
            x = Z[i, :k]
            dZ[i, :k] = fld(tv, x)
            if m:
                J = eps * phij(tv, x) + psij(tv, x) if eps else psij(tv, x)
                dS = J @ Z[i, k:].reshape(k, m)
                for j, drive in enumerate(forcings, tangents):
                    dS[:, j] += drive.phi(tv, x)
                dZ[i, k:] = dS.ravel()
        return dZ.ravel()

    return rhs


def augmented(sys, n, eps=0.0, tangents=0, forcings=()):
    """Right-hand side of ``n`` lanes of the augmented system described in
    the module docstring, returned as ``(rhs, pack, unpack)``.

    ``rhs(t, z)`` takes ``t`` scalar or, one time per lane, of shape (n,).
    ``pack(X, S=0.0)`` takes X of shape (n, k) (or (k,) for one lane) and S
    broadcastable to (n, k, m) and returns the flat state; ``unpack(z)``
    maps a state, or states stacked along leading axes, to ``(X, S)`` of
    shapes (..., n, k) and (..., n, k, m).  The flat state's layout, lanes
    end to end or (for a generated variant of more than
    ``_MATH_MAX_LANES`` lanes) one row of n values per lane component, is
    seen only through them.  With ``eps == 0`` neither phi nor Dphi of
    ``sys`` is evaluated.  For a generated variant of up to
    ``_MATH_MAX_LANES`` lanes, ``rhs.lane(t, y)`` is the ``math`` binding for
    a float ``t``, taking and returning the state as a list; the solver's
    scalar kernel calls it.
    """
    k = sys.k
    m = tangents + len(forcings)
    dim = k * (1 + m)
    opaque = any(s.phi_exprs is None for s in (sys, *forcings))
    rows = n > _MATH_MAX_LANES and not opaque

    def pack(X, S=0.0):
        Z = np.empty((n, dim))
        Z[:, :k] = np.reshape(X, (n, k))
        Z[:, k:] = np.broadcast_to(S, (n, k, m)).reshape(n, k * m)
        return (Z.T if rows else Z).ravel()

    def unpack(z):
        lead = np.shape(z)[:-1]
        if rows:
            Z = np.swapaxes(np.reshape(z, lead + (dim, n)), -1, -2)
        else:
            Z = np.reshape(z, lead + (n, dim))
        return Z[..., :k], Z[..., k:].reshape(lead + (n, k, m))

    if opaque:
        return _lane_loop(sys, n, eps, tangents, forcings), pack, unpack
    one, many = _lane_functions(sys, eps, tangents, forcings)

    if rows:
        def rhs(t, z):
            dZ = np.empty((dim, n))
            for i, v in enumerate(many(t, z.reshape(dim, n))):
                dZ[i] = v
            return dZ.ravel()
    else:
        def lanes(t, y):
            out = []
            for i in range(0, n * dim, dim):
                out += one(t, y[i:i + dim])
            return out

        lane = one if n == 1 else lanes  # one lane skips the loop per stage

        def rhs(t, z):
            if not getattr(t, "ndim", 0):
                return np.array(lane(t, z.tolist()))
            out = []
            for tv, x in zip(t.tolist(), z.reshape(n, dim).tolist()):
                out += one(tv, x)
            return np.array(out)
        rhs.lane = lane

    return rhs, pack, unpack


def lane_field(sys, t, X, S=0.0, eps=0.0, tangents=0, forcings=()):
    """Derivatives ``(X', S')`` of :func:`augmented` lanes at ``(t, X, S)``,
    ``t`` scalar or one per lane: X' is psi(t, X) when eps is 0, and the
    S' column of a forcing at S = 0 is its phi."""
    n = len(np.reshape(X, (-1, sys.k)))
    rhs, pack, unpack = augmented(sys, n, eps, tangents, forcings)
    return unpack(rhs(t, pack(X, S)))


def flow_lanes(sys, t0, t1, X, cfg=DEFAULT_CONFIG, S=0.0, eps=0.0,
               tangents=0, forcings=(), fractions=None):
    """End states ``(X, S)`` of the :func:`augmented` lanes started at
    ``(t0, X, S)`` and run to ``t1``, without dense output.

    ``X`` has shape (n, k) (or (k,) for one lane) and ``S`` broadcasts to
    (n, k, m); the result has shapes (n, k) and (n, k, m).  Scalar ``t0``
    and ``t1``, or lanes that all share them, integrate in t.  Otherwise
    ``t0`` and ``t1`` broadcast to (n,) and lane i runs at time
    ``t0[i] + u*(t1[i] - t0[i])`` for u in [0, 1] with its right-hand side
    scaled by ``t1[i] - t0[i]`` (a change of independent variable), so
    lanes may run in either direction or not at all.  The per-lane times
    are built only when the field can read t, that is unless psi, phi
    (when eps is not 0) and every forcing's phi are autonomous; otherwise
    the right-hand side gets u itself.  A failure of such a run names u
    and carries the lane times in its ``t``.

    With ``fractions``, a sequence of u values in [0, 1], the result is
    instead the states of every lane at ``t0 + u*(t1 - t0)`` for each u,
    of shapes (len(fractions), n, k) and (len(fractions), n, k, m): they
    are checkpoints of the same run, which takes the steps it takes
    without them, and u = 1 gives the end state bit for bit.
    """
    n = len(np.reshape(X, (-1, sys.k)))
    rhs, pack, unpack = augmented(sys, n, eps, tangents, forcings)
    z0 = pack(X, S)
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    if t0.ndim or t1.ndim:
        t0, t1 = np.broadcast_to(t0, (n,)), np.broadcast_to(t1, (n,))
        shared = np.all(t0 == t0[:1]) and np.all(t1 == t1[:1])
        if shared or np.all(t0 == t1):
            t0, t1 = (t0[0], t1[0]) if n else (np.float64(0.0),) * 2
    fracs = np.asarray(() if fractions is None else fractions, dtype=float)
    if not t0.ndim:
        at = np.where(fracs == 1.0, t1, t0 + fracs * (t1 - t0))
        vals, end = integrate_checkpoints(rhs, float(t0), float(t1), z0, at,
                                          cfg)
        return unpack(end if fractions is None else vals)

    span = t1 - t0
    scale = pack(np.repeat(span[:, None], sys.k, 1), span[:, None, None])
    reads_t = not (sys.psi_autonomous
                   and (eps == 0 or sys.phi_autonomous)
                   and all(f.phi_autonomous for f in forcings))

    def lane_rhs(u, z):
        return scale * rhs(t0 + u * span if reads_t else u, z)

    try:
        vals, end = integrate_checkpoints(lane_rhs, 0.0, 1.0, z0, fracs, cfg)
    except IntegrationError as err:
        fail = IntegrationError(
            f"{err.reason} at u={float(err.t)!r}, where lane i is at time "
            f"t0[i] + u*(t1[i] - t0[i])", state=err.state)
        fail.t = t0 + err.t * span
        raise fail from err
    return unpack(end if fractions is None else vals)


def _phase_points(grid, T, name):
    """``grid`` as an array, 65 points over [0, T] when it is None; an empty
    grid raises ``ValueError`` naming the parameter ``name``."""
    grid = (np.linspace(0.0, T, 65) if grid is None
            else np.asarray(grid, dtype=float))
    if not grid.size:
        raise ValueError(f"{name} is empty")
    return grid


def flow_omega(sys, t, t0, xi, cfg=DEFAULT_CONFIG):
    """Omega(t, t0, xi): the eps = 0 solution through (t0, xi) at time t."""
    return flow_lanes(sys, t0, t, xi, cfg)[0][0]


def flow_omega_dense(sys, t0, t1, xi, cfg=DEFAULT_CONFIG):
    """Dense unperturbed flow trajectory from (t0, xi) to t1."""
    return integrate(augmented(sys, 1)[0], t0, t1, xi, cfg)


@dataclass
class EtaSolution:
    """eta(t, s, xi) at ``times``: ``values[i]`` is the solution y at
    ``times[i]`` of the affine variational system along Omega(., 0, xi)
    with y(s) = 0, and ``x_s`` is Omega(s, 0, xi) from the same run."""
    s: float
    xi: np.ndarray
    x_s: np.ndarray
    times: np.ndarray
    values: np.ndarray


def eta(sys, s, xi, eval_times=(), cfg=DEFAULT_CONFIG):
    """Solve the affine variational system along Omega(., 0, xi) with
    y(s) = 0 at ``eval_times``, which may lie on either side of s and
    outside [0, T], as w(t) - Y(t) Y(s)^{-1} w(s) with the fundamental
    matrix Y and the particular response w (w(0) = 0): s and each time are
    lanes of one :func:`flow_lanes` run from 0, and a time equal to s stays
    exactly 0.
    """
    if not 0.0 <= s <= sys.T:
        raise ValueError(f"anchor s={s} outside [0, {sys.T}]")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    times = np.atleast_1d(np.asarray(eval_times, dtype=float))
    k = sys.k
    X, S = flow_lanes(sys, 0.0, np.append(s, times),
                      np.broadcast_to(xi, (len(times) + 1, k)), cfg,
                      S=np.eye(k, k + 1), tangents=k, forcings=(sys,))
    Y, w = S[..., :k], S[..., k]
    values = w[1:] - Y[1:] @ np.linalg.solve(Y[0], w[0])
    values[times == s] = 0.0
    return EtaSolution(float(s), xi, X[0], times, values)


# ---------------------------------------------------------------------------
# Batched defect machinery
# ---------------------------------------------------------------------------

def defect_many(sys, Xi, cfg=DEFAULT_CONFIG):
    """eta(T, 0, .) for a batch of base points (n, k): the period defect at
    anchor 0, since eta(0, 0, .) = 0.

    All batch members share the adaptive step sequence; accuracy is
    controlled per component by the integrator tolerances.
    """
    return flow_lanes(sys, 0.0, sys.T, Xi, cfg, forcings=(sys,))[1][:, :, 0]


class DefectField:
    """Reusable evaluator of xi -> eta(T, 0, xi), the period defect at
    anchor 0.

    Results are cached per base point so adaptive boundary refinement only
    pays for new points.
    """

    def __init__(self, sys, cfg=DEFAULT_CONFIG):
        self.sys = sys
        self.cfg = cfg
        self._cache = {}

    def _key(self, xi):
        return np.asarray(xi, dtype=float).tobytes()

    def __call__(self, xi):
        key = self._key(xi)
        if key not in self._cache:
            self._cache[key] = defect_many(self.sys, np.asarray(xi)[None, :],
                                           self.cfg)[0]
        return self._cache[key].copy()

    def eval_many(self, Xi):
        Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
        missing = [i for i in range(len(Xi)) if self._key(Xi[i]) not in self._cache]
        if missing:
            vals = defect_many(self.sys, Xi[missing], self.cfg)
            for i, v in zip(missing, vals):
                self._cache[self._key(Xi[i])] = v
        return np.array([self._cache[self._key(x)] for x in Xi])

    def preseed(self, Xi, values):
        for x, v in zip(Xi, values):
            self._cache[self._key(x)] = np.asarray(v, dtype=float)


def defect_profile(sys, Xi, s_grid, cfg=DEFAULT_CONFIG):
    """Period defects for all anchors in ``s_grid`` from one run per point.

    One coupled integration of (x, fundamental matrix Y, particular
    solution w) over [0, T] per base point yields, by variation of
    constants,

        eta(T, s, xi) - eta(0, s, xi) = w(T) - (Y(T) - I) Y(s)^{-1} w(s).

    Returns an array of shape (len(s_grid), n, k).
    """
    return _defect_profiles(sys, (sys,), Xi, s_grid, cfg)[0]


def _defect_profiles(sys, forcings, Xi, s_grid, cfg):
    """:func:`defect_profile` for several forcings along the unperturbed
    field of ``sys`` from one run; shape (len(forcings), len(s_grid), n, k).
    """
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size and (s_grid.min() < 0 or s_grid.max() > sys.T):
        raise ValueError("s_grid must lie inside [0, T]")
    n, k = Xi.shape
    rhs, pack, unpack = augmented(sys, n, tangents=k, forcings=forcings)
    z0 = pack(Xi, np.eye(k, k + len(forcings)))
    vals, end = integrate_checkpoints(rhs, 0.0, sys.T, z0, s_grid, cfg)
    S_T = unpack(end)[1]
    S_s = unpack(vals)[1]
    corr = np.linalg.solve(S_s[..., :k], S_s[..., k:])
    out = S_T[..., k:] - (S_T[..., :k] - np.eye(k)) @ corr
    return np.moveaxis(out, -1, 0)


def cycle_residual(cycle, T):
    return float(np.linalg.norm(cycle.eval(T) - cycle.eval(0.0)))
