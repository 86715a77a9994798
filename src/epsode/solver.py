"""Adaptive ODE integration with dense output.

One fixed stepper is used everywhere: the Dormand-Prince 5(4) embedded
pair (:class:`RK45`, scipy's method) with its quartic continuous extension,
driven by one loop over accepted steps, so backward integration is direct
negative stepping.  :func:`integrate` keeps the quartic coefficients of
every step as one array; :func:`integrate_checkpoints` evaluates them only
on the steps that contain a requested time.

Finiteness is checked at the start and once per accepted step: a later
non-finite field value makes the error norm non-finite, so the step is
rejected until it fails.
"""

import functools
import inspect
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegratorConfig", "DEFAULT_CONFIG", "Trajectory", "IntegrationError",
    "integrate", "integrate_checkpoints", "gauss_legendre_panels",
    "gauss_legendre_running",
]


class IntegrationError(RuntimeError):
    """Integration failure; carries its ``reason`` and the time and state
    where it happened."""

    def __init__(self, message, t=None, state=None):
        self.reason = message
        self.t = t
        self.state = None if state is None else np.asarray(state)
        if t is not None:
            message = f"{message} at t={float(t)!r}"
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
    c1..c4 along its last axis (:meth:`RK45.dense_coeffs`)."""
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


# Dormand-Prince 5(4) as in scipy's RK45, with its dense-output matrix _P.
_C = (0.0, 1/5, 3/10, 4/5, 8/9, 1.0)
_A = [np.array(row) for row in (
    [], [1/5], [3/40, 9/40], [44/45, -56/15, 32/9],
    [19372/6561, -25360/2187, 64448/6561, -212/729],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656])]
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_MIN_RTOL = 100 * float(np.finfo(float).eps)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


@functools.cache
def _scalar_kernel(n):
    """One trial step for states of length ``n``, unrolled on Python floats:
    ``step(fun, t, h, y, f, atol, rtol)`` returns the new state and its
    derivative as lists, the stages and the sum of squared scaled errors."""
    def seq(template, sep=", "):
        return sep.join(template.format(i=i) for i in range(n))

    def comb(weights):
        return " + ".join(f"{float(w)!r}*k{j}_{{i}}"
                          for j, w in enumerate(weights) if w)

    rows = [f"{seq('y{i}')}, = y", "K0 = f"]
    for s in range(1, 6):
        rows += [f"{seq(f'k{s - 1}_{{i}}')}, = K{s - 1}",
                 f"K{s} = fun(t + {_C[s]!r}*h, "
                 f"[{seq(f'y{{i}} + ({comb(_A[s])})*h')}])"]
    rows += [f"{seq('k5_{i}')}, = K5",
             f"{seq('n{i}')}, = y_new = [{seq(f'y{{i}} + h*({comb(_B)})')}]",
             "K6 = fun(t + h, y_new)", f"{seq('k6_{i}')}, = K6",
             seq(f"w{{i}} = ({comb(_E)})*h / "
                 "(atol + max(abs(y{i}), abs(n{i}))*rtol)", "\n    "),
             "return y_new, K6, (K0, K1, K2, K3, K4, K5, K6), "
             + seq("w{i}*w{i}", " + ")]
    ns = {}
    exec("def step(fun, t, h, y, f, atol, rtol):\n    "  # noqa: S102
         + "\n    ".join(rows) + "\n", ns)
    return ns["step"]


class RK45:
    """Dormand-Prince 5(4) stepper with scipy's initial step, controller and
    ``step()``/``status``/``t``/``y``/``t_old``/``y_old`` protocol.  A field
    whose unwrapped callable has a ``lane(t, y)`` (float t, lists in and
    out) runs :func:`_scalar_kernel`; any other runs a numpy kernel that
    repeats scipy's arithmetic, so it takes scipy's steps bit for bit."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, max_step=np.inf):
        y = np.asarray(y0, dtype=float)
        if y.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y).all():
            raise ValueError("the initial state `y0` must be finite.")
        if rtol < _MIN_RTOL:
            warnings.warn(f"rel_tol {rtol!r} is below 100 machine epsilons; "
                          f"using {_MIN_RTOL!r}", stacklevel=3)
            rtol = _MIN_RTOL
        self.fun = lambda t, x: np.asarray(fun(t, x), dtype=float)
        self.t, self.y, self.t_old, self.y_old = t0, y, None, None
        self.t_bound, self.rtol, self.atol = t_bound, rtol, atol
        self.max_step, self.n, self.status = max_step, y.size, "running"
        self.direction = np.sign(t_bound - t0) if t_bound != t0 else 1
        self.f = self.fun(t0, y)
        self.h_abs, self._state = self._initial_step(), (y, self.f)
        self._lane = getattr(inspect.unwrap(fun), "lane", None)
        if self._lane is not None:
            # Python floats: numpy scalars would slow every step
            self.t, self.t_bound, self.direction, self.h_abs = map(
                float, (t0, t_bound, self.direction, self.h_abs))
            self._kernel = _scalar_kernel(self.n)
            self._state = (y.tolist(), self.f.tolist())

    def _initial_step(self):
        """Scipy's starting step (Hairer, Norsett and Wanner II.4)."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
        f1 = self.fun(t0 + h0 * direction, y0 + h0 * direction * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval, self.max_step)

    def _trial(self, t, h):
        """The state, derivative, stages and RMS error norm of a step h."""
        if self._lane is not None:
            y, f = self._state
            y_new, f_new, K, sq = self._kernel(self._lane, t, h, y, f,
                                               self.atol, self.rtol)
            return y_new, f_new, K, math.sqrt(sq) / self.n ** 0.5
        (y, f), fun = self._state, self.fun  # scipy's rk_step, to the bit
        K = np.empty((7, self.n))
        K[0] = f
        for s in range(1, 6):
            K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s]) * h)
        y_new = y + h * np.dot(K[:-1].T, _B)
        K[-1] = f_new = fun(t + h, y_new)
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        return y_new, f_new, K, _rms(np.dot(K.T, _E) * h / scale)

    def step(self):
        """One accepted step; returns None, or the reason of a failure."""
        t, direction = self.t, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(self.max_step, max(self.h_abs, min_step))
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return ("Required step size is less than spacing between "
                        "numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, K, error_norm = self._trial(t, h)
            if error_norm < 1:
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
        self.h_abs = h_abs * (min(1, factor) if rejected else factor)
        self.t_old, self.y_old, self.t, self.K = t, self.y, t_new, K
        self.y, self._state = np.asarray(y_new, dtype=float), (y_new, f_new)
        if direction * (t_new - self.t_bound) >= 0:
            self.status = "finished"
        return None

    def dense_coeffs(self):
        """The last step's quartic coefficients (n, 4) for :func:`_quartic`."""
        return np.asarray(self.K).T @ _P


def _accepted_steps(field, t0, t1, xi, cfg):
    """Yield the :class:`RK45` stepper after each accepted step from
    ``(t0, xi)`` to ``t1``; failures raise :class:`IntegrationError`.  The
    stepper is looked up as the module global ``RK45`` on every call.  An
    empty state, like an empty interval, takes no step."""
    if t1 == t0 or not np.size(xi):
        return
    solver = None
    with np.errstate(all="ignore"):
        try:
            solver = RK45(field, t0, xi, t1, cfg.rel_tol, cfg.abs_tol,
                          cfg.max_step)
            # a non-finite start would make every step size nan, and every
            # nan step would be rejected forever
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
        coeffs.append(s.dense_coeffs())
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
                                   s.y_old, s.dense_coeffs())
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


def gauss_legendre_running(values, t0, t1, panels=64, order=8):
    """Integrals from t0 to each node of :func:`gauss_legendre_panels` of
    the function with ``values`` at those nodes: the panels before a node
    by their rule, and its own panel by the integral of the polynomial that
    interpolates the function at the panel's nodes."""
    leg = np.polynomial.legendre
    xg, wg = leg.leggauss(order)
    # row j integrates the interpolant of the panel's values from -1 to xg[j]
    lagrange = np.linalg.inv(leg.legvander(xg, order - 1))
    upto = leg.legvander(xg, order) @ leg.legint(lagrange, lbnd=-1, axis=0)
    half = 0.5 * np.diff(np.linspace(t0, t1, panels + 1))
    f = np.reshape(values, (panels, order))
    before = np.concatenate([[0.0], np.cumsum(half * (f @ wg))[:-1]])
    return (before[:, None] + half[:, None] * (f @ upto.T)).ravel()
