"""Adaptive ODE integration with dense output.

One fixed stepper is used everywhere: the Dormand-Prince 5(4) embedded
pair (scipy's ``RK45``) with its quartic continuous extension, driven by
one loop over accepted steps, so backward integration is direct negative
stepping.  :func:`integrate` keeps the quartic coefficients of every step
as one array; :func:`integrate_checkpoints` evaluates them only on the
steps that contain a requested time.

The field goes to scipy as it is.  Finiteness is checked at the start and
once per accepted step: a later non-finite field value makes the error
norm non-finite, so scipy rejects the step until it fails.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45

__all__ = [
    "IntegratorConfig", "DEFAULT_CONFIG", "Trajectory", "IntegrationError",
    "integrate", "integrate_checkpoints", "gauss_legendre_panels",
]


class IntegrationError(RuntimeError):
    """Integration failure; carries its ``reason`` and the time and state
    where it happened."""

    def __init__(self, message, t=None, state=None):
        self.reason = message
        self.t = t
        self.state = None if state is None else np.asarray(state)
        if t is not None:
            message = f"{message} at t={t!r}"
        super().__init__(message)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")

    def tightened(self, factor=10.0):
        return IntegratorConfig(self.rel_tol / factor, self.abs_tol / factor,
                                self.max_step, self.max_steps)


DEFAULT_CONFIG = IntegratorConfig()


def _quartic(x, h, y_old, coeffs):
    """The continuous extension y_old + h*(c1 x + c2 x^2 + c3 x^3 + c4 x^4)
    of a step of length h at the fraction x of the step; ``coeffs`` holds
    c1..c4 along its last axis (scipy's ``K.T @ P``)."""
    c1, c2, c3, c4 = np.moveaxis(coeffs, -1, 0)
    return y_old + h * x * (c1 + x * (c2 + x * (c3 + x * c4)))


class Trajectory:
    """Dense-output solution on the time interval between ``t0`` and ``t1``.

    Nodes ``ts`` are the accepted solver steps, strictly ordered in the
    direction of integration, with states ``states``; step i has the
    quartic coefficients ``coeffs[i]`` of shape (dim, 4).  Evaluation
    between nodes uses the continuous extension, evaluation at a node
    returns the stored state exactly, and evaluation outside the covered
    interval raises.
    """

    def __init__(self, ts, states, coeffs):
        self.ts = np.asarray(ts, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.coeffs = np.reshape(np.asarray(coeffs, dtype=float),
                                 (len(self.ts) - 1, self.dim, 4))
        self._h = np.diff(self.ts)
        if not (np.all(self._h > 0) or np.all(self._h < 0)):
            raise ValueError("node times must be strictly ordered in the "
                             "direction of integration")
        self.t0 = float(self.ts[0])
        self.t1 = float(self.ts[-1])
        self._lo = min(self.t0, self.t1)
        self._hi = max(self.t0, self.t1)
        self._slack = 1e-9 * (1.0 + self._hi - self._lo)
        # node times signed by the direction ascend in both directions
        self._sign = 1.0 if self.t1 >= self.t0 else -1.0
        self._keys = self._sign * self.ts

    @property
    def dim(self):
        return self.states.shape[1]

    @property
    def endpoint(self):
        return self.states[-1].copy()

    def eval(self, t):
        """State at time ``t`` (scalar or 1-D array of times)."""
        t_arr = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t_arr)
        outside = (ts < self._lo - self._slack) | (ts > self._hi + self._slack)
        if np.any(outside):
            raise ValueError(
                f"time {ts[outside][0]!r} outside trajectory interval "
                f"[{self._lo!r}, {self._hi!r}]")
        j = np.searchsorted(self._keys, self._sign * ts, side="right") - 1
        node = np.clip(j, 0, len(self.ts) - 1)
        if len(self.coeffs):
            step = np.clip(j, 0, len(self.coeffs) - 1)
            h = self._h[step, None]
            out = _quartic((ts - self.ts[step])[:, None] / h, h,
                           self.states[step], self.coeffs[step])
        else:
            out = self.states[node]
        hit = self.ts[node] == ts
        out[hit] = self.states[node[hit]]
        return out[0] if t_arr.ndim == 0 else out

    __call__ = eval


def _accepted_steps(field, t0, t1, xi, cfg):
    """Yield the scipy ``RK45`` solver after each accepted step from
    ``(t0, xi)`` to ``t1``; failures raise :class:`IntegrationError`."""
    if t1 == t0:
        return
    solver = None
    with np.errstate(all="ignore"):
        try:
            solver = RK45(field, t0, xi, t_bound=t1, rtol=cfg.rel_tol,
                          atol=cfg.abs_tol, max_step=cfg.max_step)
            # a non-finite start would make every step size nan, and scipy
            # would reject nan steps forever
            if not (np.isfinite(solver.f).all()
                    and np.isfinite(solver.h_abs)):
                raise IntegrationError(
                    "non-finite initial derivative or step size", t0, xi)
            for _ in range(cfg.max_steps):
                msg = solver.step()
                if solver.status == "failed":
                    raise IntegrationError(f"step failed ({msg})",
                                           solver.t, solver.y)
                if not np.isfinite(solver.y).all():
                    raise IntegrationError("non-finite state", solver.t,
                                           solver.y)
                yield solver
                if solver.status != "running":
                    return
            raise IntegrationError(
                f"step count exceeded max_steps={cfg.max_steps}",
                solver.t, solver.y)
        except (ValueError, ArithmeticError) as exc:
            t, y = (t0, xi) if solver is None else (solver.t, solver.y)
            raise IntegrationError(f"field evaluation failed ({exc})",
                                   t, y) from exc


def integrate(field, t0, t1, xi, cfg=DEFAULT_CONFIG):
    """Integrate ``x' = field(t, x)`` from ``(t0, xi)`` to ``t1``.

    ``t1 < t0`` integrates backward.  Returns a :class:`Trajectory`.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ts, states, coeffs = [float(t0)], [xi], []
    for s in _accepted_steps(field, t0, t1, xi, cfg):
        ts.append(s.t)
        states.append(s.y)
        coeffs.append(s.K.T @ s.P)
    return Trajectory(ts, states, coeffs)


def integrate_checkpoints(field, t0, t1, xi, times, cfg=DEFAULT_CONFIG):
    """Integrate and report states at the requested times, without
    retaining dense output.

    ``times`` must lie between ``t0`` and ``t1`` (inclusive, either
    direction).  Returns ``(values, endpoint)`` where ``values[i]`` is the
    state at ``times[i]``.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    times = np.asarray(times, dtype=float)
    lo, hi = min(t0, t1), max(t0, t1)
    if times.size and (times.min() < lo - 1e-12 * (1 + hi - lo)
                       or times.max() > hi + 1e-12 * (1 + hi - lo)):
        raise ValueError("checkpoint outside integration interval")
    values = np.empty((len(times), len(xi)))
    sign = 1.0 if t1 >= t0 else -1.0
    order = np.argsort(sign * times, kind="stable")
    keys = sign * times[order]
    done = 0
    end = xi
    for s in _accepted_steps(field, t0, t1, xi, cfg):
        end = s.y
        if done < len(keys) and keys[done] <= sign * s.t:
            stop = np.searchsorted(keys, sign * s.t, side="right")
            idx = order[done:stop]
            h = s.t - s.t_old
            values[idx] = _quartic((times[idx, None] - s.t_old) / h, h,
                                   s.y_old, s.K.T @ s.P)
            done = stop
    values[order[done:]] = end  # t0 == t1, or past t1 within the slack
    return values, end


# ---------------------------------------------------------------------------
# Quadrature over trajectories
# ---------------------------------------------------------------------------

_leggauss_cache = {}


def gauss_legendre_panels(t0, t1, panels=64, order=8):
    """Nodes and weights of a composite Gauss-Legendre rule on [t0, t1].

    This fixed composite rule is used for every quadrature over a dense
    trajectory so that results are reproducible.
    """
    if order not in _leggauss_cache:
        _leggauss_cache[order] = np.polynomial.legendre.leggauss(order)
    xg, wg = _leggauss_cache[order]
    edges = np.linspace(t0, t1, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights
