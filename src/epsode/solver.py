"""Adaptive ODE integration with dense output.

One fixed stepper is used everywhere: the Dormand-Prince 5(4) embedded
pair (scipy's ``RK45``) with its quartic continuous extension, driven step
by step so that backward integration is direct negative stepping and every
quadrature over a solution can reuse the same dense output.
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


class Trajectory:
    """Dense-output solution on the time interval between ``t0`` and ``t1``.

    Nodes are the accepted solver steps, strictly ordered in the direction
    of integration; evaluation between nodes uses the stepper's continuous
    extension, evaluation at a node returns the stored state exactly, and
    evaluation outside the covered interval raises.
    """

    def __init__(self, ts, states, segments, cfg):
        self.ts = np.asarray(ts, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.segments = segments
        self.cfg = cfg
        if len(self.ts) > 1:
            d = np.diff(self.ts)
            if not (np.all(d > 0) or np.all(d < 0)):
                raise ValueError("node times must be strictly ordered in the "
                                 "direction of integration")
        self.t0 = float(self.ts[0])
        self.t1 = float(self.ts[-1])
        self._lo = min(self.t0, self.t1)
        self._hi = max(self.t0, self.t1)
        self._slack = 1e-9 * (1.0 + self._hi - self._lo)
        self._forward = self.t1 >= self.t0
        self._node_index = None
        # ascending views for segment lookup
        if self._forward:
            self._asc = self.ts
        else:
            self._asc = self.ts[::-1]

    @property
    def dim(self):
        return self.states.shape[1]

    @property
    def endpoint(self):
        return self.states[-1].copy()

    def eval(self, t):
        """State at time ``t`` (scalar or 1-D array of times)."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        ts = np.atleast_1d(t_arr)
        if np.any(ts < self._lo - self._slack) or np.any(ts > self._hi + self._slack):
            bad = ts[(ts < self._lo - self._slack) | (ts > self._hi + self._slack)][0]
            raise ValueError(
                f"time {bad!r} outside trajectory interval "
                f"[{self._lo!r}, {self._hi!r}]")
        out = np.empty((len(ts), self.dim))
        if not self.segments:
            out[:] = self.states[0]
        else:
            j = np.clip(np.searchsorted(self._asc, ts, side="right") - 1,
                        0, len(self._asc) - 2)
            seg_idx = j if self._forward else len(self.ts) - 2 - j
            for u in np.unique(seg_idx):
                mask = seg_idx == u
                vals = self.segments[u](ts[mask])
                out[mask] = vals.T if vals.ndim == 2 else vals
        # exact node times reproduce the stored node states
        if self._node_index is None:
            self._node_index = {float(tv): i for i, tv in enumerate(self.ts)}
        for i, tv in enumerate(ts):
            hit = self._node_index.get(float(tv))
            if hit is not None:
                out[i] = self.states[hit]
        return out[0] if scalar else out

    __call__ = eval


def _wrap_field(field):
    def fun(t, y):
        try:
            v = np.asarray(field(t, y), dtype=float)
        except (ValueError, ArithmeticError, FloatingPointError) as exc:
            raise IntegrationError(f"field evaluation failed ({exc})", t, y) from exc
        if not np.all(np.isfinite(v)):
            raise IntegrationError("non-finite field value", t, y)
        return v

    return fun


def _drive(field, t0, t1, xi, cfg, on_step):
    """Step from t0 to t1 calling ``on_step(solver)`` after each accepted step."""
    fun = _wrap_field(field)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if t1 == t0:
        return xi
    with np.errstate(all="ignore"):
        solver = RK45(fun, t0, xi, t_bound=t1, rtol=cfg.rel_tol,
                      atol=cfg.abs_tol, max_step=cfg.max_step)
        steps = 0
        while solver.status == "running":
            if steps >= cfg.max_steps:
                raise IntegrationError(
                    f"step count exceeded max_steps={cfg.max_steps}",
                    solver.t, solver.y)
            msg = solver.step()
            if solver.status == "failed":
                raise IntegrationError(f"step failed ({msg})", solver.t, solver.y)
            steps += 1
            on_step(solver)
    return solver.y


def integrate(field, t0, t1, xi, cfg=DEFAULT_CONFIG):
    """Integrate ``x' = field(t, x)`` from ``(t0, xi)`` to ``t1``.

    ``t1 < t0`` integrates backward.  Returns a :class:`Trajectory`.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ts = [float(t0)]
    states = [xi.copy()]
    segments = []

    def on_step(solver):
        ts.append(solver.t)
        states.append(solver.y.copy())
        segments.append(solver.dense_output())

    _drive(field, t0, t1, xi, cfg, on_step)
    return Trajectory(np.array(ts), np.array(states), segments, cfg)


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
    forward = t1 >= t0
    order = np.argsort(times if forward else -times, kind="stable")
    pending = list(order)
    for idx in list(pending):
        if times[idx] == t0:
            values[idx] = xi
            pending.remove(idx)

    def on_step(solver):
        if not pending:
            return
        seg = None
        while pending:
            idx = pending[0]
            tv = times[idx]
            covered = (solver.t_old <= tv <= solver.t) if forward \
                else (solver.t <= tv <= solver.t_old)
            if not covered:
                break
            if seg is None:
                seg = solver.dense_output()
            values[idx] = seg(tv)
            pending.pop(0)

    end = _drive(field, t0, t1, xi, cfg, on_step)
    for idx in pending:  # times exactly at t1 when t0 == t1 or rounding
        values[idx] = end
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
