"""Adaptive ODE integration with dense output.

One fixed stepper is used everywhere: Hairer's DOP853 (:class:`DOP853`,
scipy's method), an explicit Runge-Kutta method of order 8 with 12 stages,
whose derivative at the end of a step is the first stage of the next, and
a combined 5th/3rd-order error estimate.  One loop over accepted steps drives it, so backward
integration is direct negative stepping.  Dense output costs 3 more stages
per step, so the stepper computes them only when asked
(:meth:`DOP853.dense_coeffs`): :func:`integrate` keeps the 7 interpolant
rows of every step as one array, and :func:`integrate_checkpoints` computes
them only on the steps that contain a requested time between their nodes.

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
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")

    def tightened(self, factor=10.0):
        return IntegratorConfig(self.rel_tol / factor, self.abs_tol / factor,
                                self.max_steps)


DEFAULT_CONFIG = IntegratorConfig()


def _interpolate(x, y_old, coeffs):
    """The continuous extension of a step at the fraction x of the step:
    ``y_old`` plus the rows F0..F6 (along the last axis of ``coeffs``,
    :meth:`DOP853.dense_coeffs`) nested as
    x*(F0 + (1-x)*(F1 + x*(F2 + ... + x*F6))), in the order of scipy's
    ``Dop853DenseOutput``."""
    y = 0.0
    for r in range(6, -1, -1):
        y = (y + coeffs[..., r]) * (x if r % 2 == 0 else 1 - x)
    return y + y_old


class Trajectory:
    """Dense-output solution on the time interval between ``t0`` and ``t1``.

    Nodes ``ts`` are the accepted solver steps, strictly ordered in the
    direction of integration, with states ``states``; step i has the
    interpolant rows ``coeffs[i]`` of shape (dim, 7).  Evaluation between
    nodes uses the continuous extension, evaluation at a node returns the
    stored state exactly, and evaluation outside the covered interval
    raises.
    """

    def __init__(self, ts, states, coeffs):
        self.ts = np.asarray(ts, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.coeffs = np.reshape(np.asarray(coeffs, dtype=float),
                                 (len(self.ts) - 1, self.dim, 7))
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
            out = _interpolate((ts - self.ts[step])[:, None]
                               / self._h[step, None],
                               self.states[step], self.coeffs[step])
        else:
            out = self.states[node]
        hit = self.ts[node] == ts
        out[hit] = self.states[node[hit]]
        return out[0] if t_arr.ndim == 0 else out

    __call__ = eval


def _sparse(shape, rows):
    """An array of zeros with the entries ``rows[i][j]`` filled in."""
    out = np.zeros(shape)
    for i, row in rows.items():
        out[i, list(row)] = list(row.values())
    return out


# DOP853 as in scipy (Hairer, Norsett and Wanner II.10; Prince and Dormand
# 1981): stages 0-11 make the step, stage 12 is the derivative at its end,
# and stages 13-15 serve only the interpolant.  _B is the 8th-order weights,
# _E5 and _E3 the 5th- and 3rd-order error weights over stages 0-12, and _D
# the interpolant rows F3..F6 over all 16 stages.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_A = _sparse((16, 16), {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386,
        4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
        5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
        5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
        8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
        5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
        8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
        7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
        10: 0.20136540080403034, 11: 0.04471061572777259},
    13: {0: 0.056167502283047954, 6: 0.25350021021662483,
        7: -0.2462390374708025, 8: -0.12419142326381637,
        9: 0.15329179827876568, 10: 0.00820105229563469,
        11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776,
        6: 0.053541988307438566, 7: -0.05492374857139099,
        10: -0.00010834732869724932, 11: 0.0003825710908356584,
        12: -0.00034046500868740456, 13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
        7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
        13: 2.9475147891527724, 14: -9.15095847217987}})
_E5, _E3 = _sparse((2, 13), {
    0: {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
        7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
        10: 0.08192320648511571, 11: -0.022355307863886294},
    1: {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
        7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
        10: 0.20136540080403034, 11: 0.02265179219836082}})
_D = _sparse((4, 16), {
    0: {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
        7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
        10: 2.2404374302607883, 11: 0.6315787787694688,
        12: -0.08899033645133331, 13: 18.148505520854727,
        14: -9.194632392478356, 15: -4.436036387594894},
    1: {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
        7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
        10: -30.674084731089398, 11: -9.332130526430229,
        12: 15.697238121770845, 13: -31.139403219565178, 14: -9.35292435884448,
        15: 35.81684148639408},
    2: {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
        7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
        10: -1.0006050966910838, 11: 0.7777137798053443,
        12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716,
        15: 11.99229113618279},
    3: {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
        7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
        10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
        13: 96.32455395918828, 14: -39.17726167561544,
        15: -149.72683625798564}})
_B = _A[12, :12]
_MIN_RTOL = 100 * float(np.finfo(float).eps)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


@functools.cache
def _scalar_kernel(n):
    """One trial step and one interpolant for states of length ``n``,
    unrolled on Python floats.  ``step(fun, t, h, y, f, atol, rtol)`` returns
    the new state and its derivative as lists, the 13 stages, and the sums
    of squares of the scaled 5th- and 3rd-order error estimates.
    ``dense(fun, t, h, y, y_new, K)`` computes the 3 interpolant stages and
    returns the rows F0..F6 per state component."""
    def seq(template, sep=", "):
        return sep.join(template.format(i=i) for i in range(n))

    def comb(weights):
        return " + ".join(f"{float(w)!r}*k{j}_{{i}}"
                          for j, w in enumerate(weights) if w)

    def stages(first, last):
        rows = []
        for s in range(first, last + 1):
            rows += [f"K{s} = fun(t + {float(_C[s])!r}*h, "
                     f"[{seq(f'y{{i}} + ({comb(_A[s, :s])})*h')}])",
                     f"{seq(f'k{s}_{{i}}')}, = K{s}"]
        return rows

    step = [f"{seq('y{i}')}, = y", "K0 = f", f"{seq('k0_{i}')}, = K0",
            *stages(1, 11),
            f"{seq('n{i}')}, = y_new = [{seq(f'y{{i}} + h*({comb(_B)})')}]",
            "K12 = fun(t + h, y_new)",
            seq("s{i} = atol + max(abs(y{i}), abs(n{i}))*rtol", "\n    "),
            seq(f"e{{i}} = ({comb(_E5)}) / s{{i}}", "\n    "),
            seq(f"g{{i}} = ({comb(_E3)}) / s{{i}}", "\n    "),
            "return y_new, K12, [" + ", ".join(f"K{s}" for s in range(13))
            + "], " + seq("e{i}*e{i}", " + ") + ", "
            + seq("g{i}*g{i}", " + ")]
    rows = ", ".join(f"h*({comb(row)})" for row in _D)
    dense = [f"{seq('y{i}')}, = y", f"{seq('n{i}')}, = y_new",
             *(f"{seq(f'k{s}_{{i}}')}, = K[{s}]" for s in range(13)),
             *stages(13, 15),
             seq("d{i} = n{i} - y{i}", "\n    "),
             "return [" + seq(f"(d{{i}}, h*k0_{{i}} - d{{i}}, "
                              f"2*d{{i}} - h*(k12_{{i}} + k0_{{i}}), {rows})")
             + "]"]
    ns = {}
    exec("def step(fun, t, h, y, f, atol, rtol):\n    "  # noqa: S102
         + "\n    ".join(step) + "\n"
         + "def dense(fun, t, h, y, y_new, K):\n    "
         + "\n    ".join(dense) + "\n", ns)
    return ns["step"], ns["dense"]


class DOP853:
    """DOP853 stepper with scipy's initial step, controller and
    ``step()``/``status``/``t``/``y``/``t_old``/``y_old`` protocol.  A field
    whose unwrapped callable has a ``lane(t, y)`` (float t, lists in and
    out) runs :func:`_scalar_kernel`; any other runs a numpy kernel that
    repeats scipy's arithmetic, so it takes scipy's steps bit for bit.  A
    step evaluates the field 12 times; :meth:`dense_coeffs` adds 3 more."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
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
        self.n, self.status = y.size, "running"
        self.direction = np.sign(t_bound - t0) if t_bound != t0 else 1
        self.f = self.fun(t0, y)
        self.h_abs, self._state = self._initial_step(), (y, self.f)
        self._lane = getattr(inspect.unwrap(fun), "lane", None)
        if self._lane is not None:
            # Python floats: numpy scalars would slow every step
            self.t, self.t_bound, self.direction, self.h_abs = map(
                float, (t0, t_bound, self.direction, self.h_abs))
            self._kernel, self._dense = _scalar_kernel(self.n)
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
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval)

    def _trial(self, t, h):
        """The state, derivative, stages and error norm of a step h."""
        if self._lane is not None:
            y, f = self._state
            y_new, f_new, K, e5, e3 = self._kernel(self._lane, t, h, y, f,
                                                   self.atol, self.rtol)
        else:
            (y, f), fun = self._state, self.fun  # scipy's rk_step, to the bit
            K = np.empty((16, self.n))
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            K[12] = f_new = fun(t + h, y_new)
            scale = (self.atol
                     + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol)
            e5 = np.linalg.norm(np.dot(K[:13].T, _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K[:13].T, _E3) / scale) ** 2
        if e5 == 0 and e3 == 0:
            return y_new, f_new, K, 0.0
        return y_new, f_new, K, abs(h) * e5 / math.sqrt((e5 + 0.01 * e3)
                                                        * self.n)

    def step(self):
        """One accepted step; returns None, or the reason of a failure."""
        t, direction = self.t, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
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
            h_abs *= max(0.2, 0.9 * error_norm ** (-1 / 8))
            rejected = True
        factor = (10 if error_norm == 0
                  else min(10, 0.9 * error_norm ** (-1 / 8)))
        self.h_abs = h_abs * (min(1, factor) if rejected else factor)
        (y, _), self._state = self._state, (y_new, f_new)
        self._last = (t, h, y, y_new, K)
        self.t_old, self.y_old, self.t = t, self.y, t_new
        self.y = np.asarray(y_new, dtype=float)
        if direction * (t_new - self.t_bound) >= 0:
            self.status = "finished"
        return None

    def dense_coeffs(self):
        """The last step's interpolant rows (n, 7) for :func:`_interpolate`,
        from 3 more stages; the numpy kernel computes scipy's
        ``Dop853DenseOutput`` rows to the bit."""
        t, h, y, y_new, K = self._last
        if self._lane is not None:
            return np.array(self._dense(self._lane, t, h, y, y_new, K))
        for s in range(13, 16):
            K[s] = self.fun(t + _C[s] * h,
                            y + np.dot(K[:s].T, _A[s, :s]) * h)
        dy = y_new - y
        F = np.empty((7, self.n))
        F[0], F[1] = dy, h * K[0] - dy
        F[2] = 2 * dy - h * (K[12] + K[0])
        F[3:] = h * np.dot(_D, K)
        return F.T


# _accepted_steps looks the stepper up by this name, and perfbench's tracer
# replaces it to count accepted steps
RK45 = DOP853


def _accepted_steps(field, t0, t1, xi, cfg):
    """Yield the :class:`DOP853` stepper after each accepted step from
    ``(t0, xi)`` to ``t1``; failures raise :class:`IntegrationError`.  The
    stepper is looked up as the module global ``RK45`` on every call.  An
    empty state, like an empty interval, takes no step."""
    if t1 == t0 or not np.size(xi):
        return
    solver = None
    with np.errstate(all="ignore"):
        try:
            solver = RK45(field, t0, xi, t1, cfg.rel_tol, cfg.abs_tol)
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
            at = times[idx]
            # a time on a node takes the node's state; only a time between
            # the nodes pays for the interpolant's stages
            values[idx] = np.where((at == s.t)[:, None], s.y, s.y_old)
            inner = idx[(at != s.t) & (at != s.t_old)]
            if inner.size:
                values[inner] = _interpolate(
                    (times[inner, None] - s.t_old) / (s.t - s.t_old),
                    s.y_old, s.dense_coeffs())
            done = stop
    values[order[done:]] = end  # t0 == t1, or past t1 within the slack
    return values, end


# ---------------------------------------------------------------------------
# Quadrature over trajectories
# ---------------------------------------------------------------------------

_PANELS, _ORDER = 64, 8  # the one composite Gauss-Legendre rule


@functools.cache
def _rule():
    """Nodes, weights and running-integral matrix of one panel on [-1, 1]."""
    leg = np.polynomial.legendre
    xg, wg = leg.leggauss(_ORDER)
    lagrange = np.linalg.inv(leg.legvander(xg, _ORDER - 1))
    upto = leg.legvander(xg, _ORDER) @ leg.legint(lagrange, lbnd=-1, axis=0)
    return xg, wg, upto


def gauss_legendre_panels(t0, t1):
    """Nodes and weights of the composite Gauss-Legendre rule on [t0, t1],
    64 panels of order 8: the one rule of every quadrature over a dense
    trajectory, so that results are reproducible."""
    xg, wg, _ = _rule()
    edges = np.linspace(t0, t1, _PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def gauss_legendre_running(values, t0, t1):
    """Integrals from t0 to each node of :func:`gauss_legendre_panels` of
    the function with ``values`` at those nodes: the panels before a node
    by their rule, and its own panel by the integral of the polynomial
    that interpolates the function at the panel's nodes."""
    _, wg, upto = _rule()  # row j integrates the interpolant from -1 to xg[j]
    half = 0.5 * np.diff(np.linspace(t0, t1, _PANELS + 1))
    f = np.reshape(values, (_PANELS, _ORDER))
    before = np.concatenate([[0.0], np.cumsum(half * (f @ wg))[:-1]])
    return (before[:, None] + half[:, None] * (f @ upto.T)).ravel()
