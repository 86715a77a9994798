"""System definitions for x' = eps*phi(t, x) + psi(t, x).

A :class:`SystemDef` bundles the two fields with their period, dimension
and exact (or finite-difference) Jacobians as pointwise evaluators.
Systems defined through expression strings get machine-accurate Jacobians
and divergences from the symbolic differentiator and keep their
expressions, from which :func:`epsode.variational.augmented` generates the
batched lane evaluators that every integration of the system runs on.
"""

import functools

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
        if not (int(k) > 0 and T > 0):
            raise ValueError("k and T must be positive")
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

    def field_jac(self, eps):
        phij, psij = self.phi_jac, self.psi_jac

        def J(t, x):
            return eps * phij(t, x) + psij(t, x)

        return J if eps else psij

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


def damped_newton(f, jac, x, tol, max_iter):
    """Newton's method for f(x) = 0 from ``x`` with step halving.

    Each iteration takes the full Newton step or the first of up to 30
    halvings of it that lowers the residual |f(x)|; it stops on a singular
    Jacobian or when no halving does.  Returns ``(x, residual, iterations,
    converged)``, converged meaning the residual is within ``tol``.
    """
    x = np.array(x, dtype=float)
    v = f(x)
    r = float(np.linalg.norm(v))
    it = 0
    while r > tol and it < max_iter:
        try:
            d = np.linalg.solve(jac(x), -v)
        except np.linalg.LinAlgError:
            break
        alpha = 1.0
        for _ in range(30):
            cand = x + alpha * d
            v_cand = f(cand)
            r_cand = float(np.linalg.norm(v_cand))
            if r_cand < r:
                break
            alpha /= 2
        else:
            break
        x, v, r = cand, v_cand, r_cand
        it += 1
    return x, r, it, r <= tol


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
    sys = SystemDef(
        name, k, T,
        lambda t, x: np.asarray(phi(t, x), dtype=float),
        lambda t, x: np.asarray(psi(t, x), dtype=float),
        phi_jac, psi_jac, params=params, jacobian_mode=mode,
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
