"""System definitions for x' = eps*phi(t, x) + psi(t, x).

A :class:`SystemDef` bundles the two fields with their period, dimension
and exact (or finite-difference) Jacobians.  Systems defined through
expression strings get machine-accurate Jacobians and divergences from the
symbolic differentiator, plus vectorised evaluators used by the batched
grid engines.
"""

import numpy as np

from . import expressions as ex
from .solver import DEFAULT_CONFIG, integrate

__all__ = [
    "SystemDef", "system_from_expressions", "system_from_callables",
    "fd_jacobian", "flow_omega", "flow_omega_dense", "builtin_names",
    "builtin_system",
]


class SystemDef:
    """The pair (phi, psi) with dimension k and period T.

    ``phi``/``psi`` are pointwise callables ``(t, x) -> (k,)``; the
    ``*_many`` variants take ``t`` scalar or ``(n,)`` and ``x`` of shape
    ``(n, k)`` and return stacked values.  ``psi_div`` is the trace of
    ``psi_jac`` by construction.
    """

    def __init__(self, name, k, T, phi, psi, phi_jac, psi_jac, psi_div,
                 phi_many, psi_many, phi_jac_many, psi_jac_many, psi_div_many,
                 params=None, jacobian_mode="exact",
                 phi_exprs=None, psi_exprs=None,
                 phi_autonomous=False, psi_autonomous=False):
        if not (int(k) > 0 and T > 0):
            raise ValueError("k and T must be positive")
        self.name = name
        self.k = int(k)
        self.T = float(T)
        self.phi = phi
        self.psi = psi
        self.phi_jac = phi_jac
        self.psi_jac = psi_jac
        self.psi_div = psi_div
        self.phi_many = phi_many
        self.psi_many = psi_many
        self.phi_jac_many = phi_jac_many
        self.psi_jac_many = psi_jac_many
        self.psi_div_many = psi_div_many
        self.params = dict(params or {})
        self.jacobian_mode = jacobian_mode
        self.phi_exprs = phi_exprs
        self.psi_exprs = psi_exprs
        self.phi_autonomous = phi_autonomous
        self.psi_autonomous = psi_autonomous

    @property
    def autonomous(self):
        return self.phi_autonomous and self.psi_autonomous

    def field(self, eps):
        """Pointwise full field eps*phi + psi."""
        phi, psi = self.phi, self.psi

        def f(t, x):
            return eps * phi(t, x) + psi(t, x)

        return f

    def field_jac(self, eps):
        phij, psij = self.phi_jac, self.psi_jac

        def J(t, x):
            return eps * phij(t, x) + psij(t, x)

        return J

    def check_periodicity(self, n_samples=7, tol=1e-8, seed=11):
        """Verify phi and psi are T-periodic in t at random sample points.

        Returns the worst relative deviation; raises if above ``tol``.
        """
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_samples):
            t = rng.uniform(0, self.T)
            x = rng.uniform(-1.5, 1.5, self.k)
            for f in (self.phi, self.psi):
                a = np.asarray(f(t, x), dtype=float)
                b = np.asarray(f(t + self.T, x), dtype=float)
                dev = np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)))
                worst = max(worst, dev)
        if worst > tol:
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
            div = self._psi_div_expr
            lines.append(f"div psi = {ex.to_string(div)}")
        return lines

    def __repr__(self):
        return f"SystemDef({self.name!r}, k={self.k}, T={self.T!r})"


def _vector_callables(vexpr):
    """Pointwise and batched evaluators for a VectorExpr."""
    scalar_fns = [ex.compile_expr(c, vexpr.params, arrays=False)
                  for c in vexpr.components]
    array_fns = [ex.compile_expr(c, vexpr.params, arrays=True)
                 for c in vexpr.components]

    def pointwise(t, x):
        return np.array([f(t, x) for f in scalar_fns])

    def many(t, X):
        X = np.asarray(X, dtype=float)
        cols = [np.broadcast_to(f(t, X.T), X.shape[:1]) for f in array_fns]
        return np.column_stack(cols)

    return pointwise, many


def _matrix_callables(entries, params):
    k = len(entries)
    scalar_fns = [[ex.compile_expr(e, params, arrays=False) for e in row]
                  for row in entries]
    array_fns = [[ex.compile_expr(e, params, arrays=True) for e in row]
                 for row in entries]

    def pointwise(t, x):
        return np.array([[f(t, x) for f in row] for row in scalar_fns])

    def many(t, X):
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        out = np.empty((n, k, k))
        for i, row in enumerate(array_fns):
            for j, f in enumerate(row):
                out[:, i, j] = np.broadcast_to(f(t, X.T), (n,))
        return out

    return pointwise, many


def system_from_expressions(name, k, T, phi, psi, params=None,
                            check_periodicity=True):
    """Build a SystemDef from expression strings for phi and psi.

    Jacobians, the divergence of psi and the Jacobian of phi are exact
    symbolic derivatives; the divergence is the literal trace (sum of the
    diagonal derivative expressions).
    """
    params = dict(params or {})
    vphi = ex.VectorExpr(phi, k, params)
    vpsi = ex.VectorExpr(psi, k, params)
    if len(vphi) != k or len(vpsi) != k:
        raise ValueError(f"expected {k} components for phi and psi")

    phi_pt, phi_many = _vector_callables(vphi)
    psi_pt, psi_many = _vector_callables(vpsi)

    jac_phi = vphi.jacobian_exprs()
    jac_psi = vpsi.jacobian_exprs()
    phi_jac_pt, phi_jac_many = _matrix_callables(jac_phi, params)
    psi_jac_pt, psi_jac_many = _matrix_callables(jac_psi, params)

    div_expr = jac_psi[0][0]
    for i in range(1, k):
        div_expr = ex._add(div_expr, jac_psi[i][i])
    div_scalar = ex.compile_expr(div_expr, params, arrays=False)
    div_array = ex.compile_expr(div_expr, params, arrays=True)

    def psi_div(t, x):
        return div_scalar(t, x)

    def psi_div_many(t, X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(div_array(t, X.T), X.shape[:1]).copy()

    sys = SystemDef(
        name, k, T, phi_pt, psi_pt, phi_jac_pt, psi_jac_pt, psi_div,
        phi_many, psi_many, phi_jac_many, psi_jac_many, psi_div_many,
        params=params, jacobian_mode="exact",
        phi_exprs=vphi, psi_exprs=vpsi,
        phi_autonomous=not vphi.uses_time(),
        psi_autonomous=not vpsi.uses_time(),
    )
    sys._psi_div_expr = div_expr
    if check_periodicity:
        sys.check_periodicity()
    return sys


def fd_jacobian(f, x, rel=1e-6):
    """Central finite-difference Jacobian of ``x -> f(x)`` at ``x``, with
    step ``rel * (1 + |x_j|)`` in coordinate j."""
    x = np.asarray(x, dtype=float)
    J = np.empty((len(x), len(x)))
    for j in range(len(x)):
        h = rel * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.atleast_1d(f(xp)) - np.atleast_1d(f(xm))) / (2 * h)
    return J


def _loop_many(f):
    def many(t, X):
        X = np.asarray(X, dtype=float)
        ts = np.broadcast_to(t, X.shape[:1])
        return np.array([f(tv, x) for tv, x in zip(ts, X)])

    return many


def system_from_callables(name, k, T, phi, psi, phi_jac=None, psi_jac=None,
                          params=None, check_periodicity=True):
    """Build a SystemDef from opaque callables.

    Missing Jacobians fall back to central finite differences and the
    system is flagged accordingly in ``jacobian_mode``.
    """
    mode = "exact" if (phi_jac is not None and psi_jac is not None) \
        else "finite-difference"
    phi_jac = phi_jac or (lambda t, x: fd_jacobian(lambda y: phi(t, y), x))
    psi_jac = psi_jac or (lambda t, x: fd_jacobian(lambda y: psi(t, y), x))

    def psi_div(t, x):
        return float(np.trace(psi_jac(t, x)))

    sys = SystemDef(
        name, k, T,
        lambda t, x: np.asarray(phi(t, x), dtype=float),
        lambda t, x: np.asarray(psi(t, x), dtype=float),
        phi_jac, psi_jac, psi_div,
        _loop_many(phi), _loop_many(psi),
        _loop_many(phi_jac), _loop_many(psi_jac),
        lambda t, X: np.array([psi_div(tv, x) for tv, x in
                               zip(np.broadcast_to(t, np.asarray(X).shape[:1]),
                                   np.asarray(X))]),
        params=params, jacobian_mode=mode,
    )
    if check_periodicity:
        sys.check_periodicity()
    return sys


# ---------------------------------------------------------------------------
# Unperturbed flow
# ---------------------------------------------------------------------------

def flow_omega(sys, t, t0, xi, cfg=DEFAULT_CONFIG):
    """Omega(t, t0, xi): the eps = 0 solution through (t0, xi) at time t."""
    if t == t0:
        return np.atleast_1d(np.asarray(xi, dtype=float)).copy()
    return integrate(sys.psi, t0, t, xi, cfg).endpoint


def flow_omega_dense(sys, t0, t1, xi, cfg=DEFAULT_CONFIG):
    """Dense unperturbed flow trajectory from (t0, xi) to t1."""
    return integrate(sys.psi, t0, t1, xi, cfg)


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
