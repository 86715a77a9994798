"""System definitions for x' = eps*phi(t, x) + psi(t, x).

A :class:`SystemDef` bundles the two fields with their period, dimension
and exact (or finite-difference) Jacobians as pointwise evaluators.
Systems defined through expression strings get machine-accurate Jacobians
and divergences from the symbolic differentiator and keep their
expressions, from which :func:`epsode.variational.augmented` generates the
batched lane evaluators that every integration of the system runs on.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import expressions as ex

__all__ = [
    "SystemDef", "system_from_expressions", "system_from_callables",
    "fd_jacobian", "damped_newton", "builtin_names", "builtin_system",
]


class SystemDef:
    """The pair (phi, psi) with dimension k and period T.

    ``phi``/``psi`` are pointwise callables ``(t, x) -> (k,)``, ``phi_jac``
    and ``psi_jac`` return (k, k) and :meth:`psi_div` is the trace of
    ``psi_jac``.  They are the one-point API.  Runs of a system with
    expressions (``phi_exprs`` and ``psi_exprs``) do not call them:
    :func:`epsode.variational.augmented` generates one lane function per
    variant and keeps it in ``lane_cache``.
    """

    def __init__(self, name, k, T, phi, psi, phi_jac, psi_jac, params=None,
                 jacobian_mode="exact", phi_exprs=None, psi_exprs=None,
                 phi_autonomous=False, psi_autonomous=False):
        if not (int(k) > 0 and 0 < T < np.inf):
            raise ValueError("k must be positive and T positive and finite")
        self.name = name
        self.k = int(k)
        self.T = float(T)
        self.phi = phi
        self.psi = psi
        self.phi_jac = phi_jac
        self.psi_jac = psi_jac
        self.params = dict(params or {})
        self.jacobian_mode = jacobian_mode
        self.phi_exprs = phi_exprs
        self.psi_exprs = psi_exprs
        self.phi_autonomous = phi_autonomous
        self.psi_autonomous = psi_autonomous
        self.lane_cache = {}

    @property
    def autonomous(self):
        return self.phi_autonomous and self.psi_autonomous

    def psi_div(self, t, x):
        """Divergence of psi at one point."""
        return float(np.trace(self.psi_jac(t, x)))

    def field(self, eps):
        """Pointwise full field eps*phi + psi (psi itself when eps is 0)."""
        phi, psi = self.phi, self.psi

        def f(t, x):
            return eps * phi(t, x) + psi(t, x)

        return f if eps else psi

    def check_periodicity(self):
        """Verify phi and psi are T-periodic in t at 7 seeded random points
        and return the worst relative deviation; raise above 1e-8, which is
        far above the rounding of t + T in a periodic argument."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(7):
            t = rng.uniform(0, self.T)
            x = rng.uniform(-1.5, 1.5, self.k)
            for f in (self.phi, self.psi):
                a = np.asarray(f(t, x), dtype=float)
                b = np.asarray(f(t + self.T, x), dtype=float)
                dev = np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)))
                worst = max(worst, dev)
        if worst > 1e-8:
            raise ValueError(
                f"fields of {self.name!r} are not {self.T}-periodic "
                f"(relative deviation {worst:.3e})")
        return worst

    def describe_lines(self):
        lines = [f"system {self.name}: k={self.k} T={self.T!r}",
                 f"jacobians: {self.jacobian_mode}"]
        if self.params:
            lines.append("parameters: " + ", ".join(
                f"{k}={v!r}" for k, v in sorted(self.params.items())))
        if self.phi_exprs is not None:
            lines.append(f"phi = {self.phi_exprs}")
            lines.append(f"psi = {self.psi_exprs}")
            jac = self.psi_exprs.jacobian_exprs()
            div = functools.reduce(ex._add, (jac[i][i] for i in range(self.k)))
            lines.append(f"div psi = {ex.to_string(div)}")
        return lines

    def __repr__(self):
        return f"SystemDef({self.name!r}, k={self.k}, T={self.T!r})"


def _pointwise(exprs, params):
    f = ex.compile_expr(exprs, params)

    def pointwise(t, x):
        return np.array(f(t, x), dtype=float)

    return pointwise


def system_from_expressions(name, k, T, phi, psi, params=None,
                            check_periodicity=True):
    """Build a SystemDef from expression strings for phi and psi.

    The Jacobians of phi and psi are exact symbolic derivatives.
    """
    params = dict(params or {})
    vphi = ex.VectorExpr(phi, k, params)
    vpsi = ex.VectorExpr(psi, k, params)
    if len(vphi) != k or len(vpsi) != k:
        raise ValueError(f"expected {k} components for phi and psi")

    pointwise = [_pointwise(e, params) for e in (
        vphi.components, vpsi.components,
        vphi.jacobian_exprs(), vpsi.jacobian_exprs())]
    sys = SystemDef(
        name, k, T, *pointwise, params=params, jacobian_mode="exact",
        phi_exprs=vphi, psi_exprs=vpsi,
        phi_autonomous=not vphi.uses_time(),
        psi_autonomous=not vpsi.uses_time(),
    )
    if check_periodicity:
        sys.check_periodicity()
    return sys


def fd_jacobian(f, x, rel=1e-6):
    """Central finite-difference Jacobian of ``x -> f(x)`` at one point
    (k,), or at lanes (n, k) that ``f`` maps to (n, k) in one call per
    perturbation, with step ``rel * (1 + |x_j|)`` in coordinate j."""
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    g = f if x.ndim == 2 else (lambda Y: np.atleast_1d(f(Y[0]))[None])
    J = np.empty(X.shape + X.shape[-1:])
    for j in range(X.shape[1]):
        E = np.zeros_like(X)
        E[:, j] = rel * (1.0 + np.abs(X[:, j]))
        J[:, :, j] = (g(X + E) - g(X - E)) / (2 * E[:, j:j + 1])
    return J if x.ndim == 2 else J[0]


@dataclass
class NewtonLanes:
    """Per lane of :func:`damped_newton`: the last iterate ``x``, its
    ``residual`` norm, ``jacobian`` and ``singular`` test, the accepted
    steps, the ``status`` (converged, singular, max_iter, stalled,
    no_descent or nonfinite) and the residual norm of every iterate."""
    x: np.ndarray
    residual: np.ndarray
    jacobian: np.ndarray
    singular: np.ndarray
    iterations: np.ndarray
    status: np.ndarray
    history: list


def _lane_norms(V):  # np.linalg.norm of each row of V, bit for bit
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def damped_newton(fj, X, tol, max_iter, halvings=30, singular_tol=0.0,
                  stall=None):
    """Newton's method with step halving (Deuflhard, *Newton Methods for
    Nonlinear Problems*, ch. 3) for f(x) = 0 from each row of ``X`` (n, k).

    ``fj(X, jacobian)`` returns f at the lanes X (n, k) and, if asked, their
    Jacobians J (n, k, k), in one call per stage.  At each iterate a lane
    stops, in this order, when |f| <= ``tol``, when f or J is not finite,
    when J is exactly singular or ``s_min <= singular_tol * (1 + s_max)``,
    after ``max_iter`` steps, or, with ``stall = (window, factor)``, when |f|
    exceeds ``factor`` times its value ``window`` iterates back; else it
    steps to the first of x + d, x + d/2, ... (``halvings`` tries) that
    lowers |f|, or stops there (no_descent).  Choose ``halvings`` as a
    minimal damping factor 2^(1 - halvings) (Deuflhard's lambda_min): fewer
    halvings stop a lane crawling along a nearly singular J sooner, and also
    a lane that needs smaller steps on its way to a zero.
    """
    X = np.array(X, dtype=float)
    n, k = X.shape
    hist, Jac = np.full((n, max_iter + 1), np.nan), np.full((n, k, k), np.nan)
    singular, its = np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
    status = np.full(n, "", dtype=object)
    live = np.arange(n)
    while live.size:
        V, J = fj(X[live], True)
        r, i = _lane_norms(V), its[live]
        hist[live, i], Jac[live] = r, J
        finite = np.isfinite(r) & np.isfinite(J).all(axis=(1, 2))
        Jf = np.where(finite[:, None, None], J, 0.0)  # svd raises on nan
        sv = np.linalg.svd(Jf, compute_uv=False)
        singular[live] = finite & ((np.linalg.det(Jf) == 0)
                                   | (sv[:, -1] <= singular_tol * (1 + sv[:, 0])))
        w, factor = stall or (max_iter + 1, 1.0)
        stalled = (i >= w) & (r > factor * hist[live, np.maximum(i - w, 0)])
        status[live] = np.select(
            [r <= tol, ~finite, singular[live], i == max_iter, stalled],
            ["converged", "nonfinite", "singular", "max_iter", "stalled"], "")
        go = status[live] == ""
        step, todo = live[go], np.arange(go.sum())
        D = np.linalg.solve(J[go], -V[go][..., None])[..., 0]
        alpha = np.ones(len(step))
        for _ in range(halvings):
            if not todo.size:
                break
            C = X[step[todo]] + alpha[todo, None] * D[todo]
            Vc = fj(C, False)[0]
            better = _lane_norms(Vc) < r[go][todo]
            X[step[todo[better]]] = C[better]
            its[step[todo[better]]] += 1
            todo = todo[~better]
            alpha[todo] /= 2.0
        status[step[todo]] = "no_descent"
        live = np.delete(step, todo)
    return NewtonLanes(X, hist[np.arange(n), its], Jac, singular, its, status,
                       [h[:i + 1].tolist() for h, i in zip(hist, its)])


def system_from_callables(name, k, T, phi, psi, phi_jac=None, psi_jac=None,
                          check_periodicity=True):
    """Build a SystemDef from opaque callables.

    Missing Jacobians fall back to central finite differences and the
    system is flagged accordingly in ``jacobian_mode``.
    """
    mode = "exact" if (phi_jac is not None and psi_jac is not None) \
        else "finite-difference"
    phi_jac = phi_jac or (lambda t, x: fd_jacobian(lambda y: phi(t, y), x))
    psi_jac = psi_jac or (lambda t, x: fd_jacobian(lambda y: psi(t, y), x))
    sys = SystemDef(
        name, k, T,
        lambda t, x: np.asarray(phi(t, x), dtype=float),
        lambda t, x: np.asarray(psi(t, x), dtype=float),
        phi_jac, psi_jac, jacobian_mode=mode,
    )
    if check_periodicity:
        sys.check_periodicity()
    return sys


# ---------------------------------------------------------------------------
# Built-in example systems
# ---------------------------------------------------------------------------

_BUILTINS = {
    "e1-circle": dict(
        k=2, T=2 * np.pi,
        phi=("1", "0"),
        psi=("-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)"),
        note="planar system with an attracting unit-circle cycle, "
             "constant drift perturbation",
    ),
    "e2-resonance": dict(
        k=2, T=2 * np.pi,
        phi=("0", "(1 - x1^2)*x2 + lam*cos(t)"),
        psi=("-x2", "x1"),
        params={"lam": 1.0},
        note="harmonically forced oscillator around a linear center; the "
             "second phi slot is f(t, u, v) = (1 - u^2) v + lam cos t "
             "evaluated at u = -x1, v = x2 (so (1 - u^2) v = (1 - x1^2) x2); "
             "initial points map through (a, theta) -> (-a cos theta, a sin theta)",
    ),
    "e3-scalar": dict(
        k=1, T=2 * np.pi,
        phi=("-x1 + cos(t)",),
        psi=("0",),
        note="scalar system already in slowly forced standard form (psi = 0)",
    ),
}


def builtin_names():
    return sorted(_BUILTINS)


def builtin_system(name, params=None):
    """Instantiate a built-in example system, optionally overriding parameters."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin system {name!r}; "
                       f"valid names: {', '.join(builtin_names())}")
    spec = _BUILTINS[name]
    p = dict(spec.get("params", {}))
    p.update(params or {})
    sys = system_from_expressions(name, spec["k"], spec["T"], spec["phi"],
                                  spec["psi"], params=p)
    sys.note = spec["note"]
    return sys
