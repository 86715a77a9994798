"""Averaged slow field, averaged solutions, and long-horizon verification.

The averaged field is the backward-period limit Phi(xi) =
-lim eta(-nT, 0, xi) / (nT), realised by doubling n under a Cauchy
stopping rule monitored at seeded validation samples, each level
continuing the lanes of the one before.  The long-horizon check integrates
the full system and compares against the unperturbed flow of the averaged
solution, each grid time a lane of one run that serves every eps.
"""

from dataclasses import dataclass

import numpy as np

from .solver import DEFAULT_CONFIG, integrate, integrate_checkpoints
from .systems import fd_jacobian
from .variational import augmented, flow_lanes

__all__ = [
    "NoConvergenceError", "AveragedField", "averaged_field",
    "solve_averaged", "CauchyVerdict", "verify_cauchy",
    "StandardForm", "to_standard_form",
]


class NoConvergenceError(RuntimeError):
    """The backward-period limit showed no Cauchy convergence up to n_max."""

    def __init__(self, message, history):
        self.history = history
        trend = ", ".join(f"n={n}: {est:.3e}" for n, est in history)
        super().__init__(f"{message} (estimates: {trend})")


def _phi_n_many(sys, Xi, n, cfg):
    """Phi_n = -eta(-nT, 0, .) / (nT) for a batch of points."""
    S = flow_lanes(sys, 0.0, -n * sys.T, Xi, cfg, forcings=(sys,))[1]
    return -S[:, :, 0] / (n * sys.T)


def _ball_samples(k, r, n_samples, seed):
    rng = np.random.default_rng(seed)
    pts = [np.zeros(k)]
    while len(pts) < n_samples:
        v = rng.normal(size=k)
        v /= np.linalg.norm(v)
        pts.append(r * rng.uniform() ** (1.0 / k) * v)
    return np.array(pts)


class AveragedField:
    """Evaluator of the averaged slow field with its convergence record.

    Each call integrates n_eval backward periods: the level n_used where
    the Cauchy rule stopped if its estimate was at most half of
    ``phi_tol``, 2 n_used otherwise.  ``values`` is Phi_{n_eval} at
    ``samples``."""

    def __init__(self, sys, r, n_used, n_eval, samples, values, estimates,
                 history, cfg):
        self.sys = sys
        self.r = float(r)
        self.n_used = int(n_used)
        self.n_eval = int(n_eval)
        self.samples = samples
        self.values = values
        self.estimates = estimates
        self.history = history
        self.cfg = cfg

    def eval_many(self, Xi):
        return _phi_n_many(self.sys, Xi, self.n_eval, self.cfg)

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _phi_n_many(self.sys, xi[None, :], self.n_eval, self.cfg)[0]


def averaged_field(sys, r, n_max=256, phi_tol=1e-7, n_samples=17, seed=23,
                   cfg=DEFAULT_CONFIG):
    """Construct the averaged field on the ball of radius r.

    n doubles until est = max over the seeded validation samples of
    ``|Phi_n - Phi_2n|`` is at most ``phi_tol``.  Under the O(1/n) rate the
    rule assumes, Phi_n is within about 2 est of Phi, so the evaluator uses
    level n when 2 est <= phi_tol and 2n otherwise; its ``values`` are Phi
    at the samples from that level.  Level 2n continues the sample lanes
    from their state at -nT, so reaching it integrates 2nT in all.  Raises
    :class:`NoConvergenceError` with the divergence trend when ``n_max`` is
    reached, which is how a failing uniform-limit hypothesis shows up in
    practice, and ``ValueError`` for ``n_max`` < 2.
    """
    if not r > 0:
        raise ValueError(f"averaging radius must be positive, got {r!r}")
    if n_samples < 1:
        raise ValueError(f"need at least one validation sample, got "
                         f"{n_samples}")
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2 to compare two levels, "
                         f"got {n_max!r}")
    samples = _ball_samples(sys.k, r, n_samples, seed)
    history = []
    n, T = 1, sys.T
    X, S = flow_lanes(sys, 0.0, -T, samples, cfg, forcings=(sys,))
    phi_prev = -S[:, :, 0] / T
    while 2 * n <= n_max:
        X, S = flow_lanes(sys, -n * T, -2 * n * T, X, cfg, S=S,
                          forcings=(sys,))
        phi_cur = -S[:, :, 0] / (2 * n * T)
        per_sample = np.linalg.norm(phi_cur - phi_prev, axis=1)
        est = float(per_sample.max())
        history.append((n, est))
        if est <= phi_tol:
            n_eval, values = ((n, phi_prev) if 2 * est <= phi_tol
                              else (2 * n, phi_cur))
            return AveragedField(sys, r, n, n_eval, samples, values,
                                 per_sample, history, cfg)
        n *= 2
        phi_prev = phi_cur
    raise NoConvergenceError(
        f"averaged field did not converge by n_max={n_max}", history)


def _averaged_trajectory(avg, xi0, d, cfg):
    """Dense solution of z' = Phi(z) on [0, d]; raises when it leaves the
    validated ball of an :class:`AveragedField`."""
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    traj = integrate(lambda t, z: avg(z), 0.0, d, xi0, cfg)
    r = getattr(avg, "r", None)
    if r is not None:
        radii = np.linalg.norm(traj.states, axis=1)
        if radii.max() > r * (1 + 1e-9):
            raise ValueError(
                f"averaged trajectory reached |z| = {radii.max():.3g}, "
                f"outside the validated ball of radius {r:.3g}; rebuild the "
                f"averaged field with a larger radius")
    return traj


def solve_averaged(avg, xi0, d, cfg=DEFAULT_CONFIG):
    """Integrate the averaged system z' = Phi(z) on [0, d].

    ``avg`` is an :class:`AveragedField` or any callable z -> Phi(z).
    Uniqueness of the averaged solution is not certified; a
    finite-difference Lipschitz estimate of Phi along the trajectory is
    returned as evidence.  Leaving the validated ball raises.
    """
    traj = _averaged_trajectory(avg, xi0, d, cfg)
    lip = 0.0
    for x in traj.eval(np.linspace(0.0, d, 9)):
        lip = max(lip, float(np.linalg.norm(fd_jacobian(avg, x), 2)))
    return traj, {"lipschitz_estimate": lip}


@dataclass
class CauchyVerdict:
    eps: float
    xi0: np.ndarray
    d: float
    gamma_tol: float
    sup_error: float
    verdict: str  # holds | fails
    times: np.ndarray
    errors: np.ndarray
    x_values: np.ndarray = None
    approx_values: np.ndarray = None

    def summary(self):
        status = "pass" if self.verdict == "holds" else "fail"
        return (f"eps={self.eps:g}: sup error {self.sup_error:.6g} "
                f"vs gamma {self.gamma_tol:g} -> {status}")


def verify_cauchy(sys, xi0, d, eps_list, avg, gamma_tol=0.1,
                  cfg=DEFAULT_CONFIG, grid_points=1024):
    """Compare full solutions against the averaged prediction on [0, d/eps].

    ``avg`` is the averaged field, an :class:`AveragedField` or any callable
    z -> Phi(z); the slow solution z solves z' = Phi(z) from xi0 on [0, d]
    and raises ``ValueError`` when it leaves the validated ball.  For each
    eps the full system is integrated from xi0 and the sup over a time grid
    of |x_eps(t) - Omega(t, 0, z(eps t))| is reported.

    Grid point i starts its flow factor at the slow point z(d*i/(N - 1))
    for every eps; only its end time (d/eps)*i/(N - 1) changes.  So one run
    of the unperturbed flow serves all eps (:func:`flow_lanes`): lane i
    starts at z(eps_min*t_i) on the grid t_i of the smallest eps and ends
    at t_i, and another eps reads it at the fraction eps_min/eps of the
    lane's span.  The smallest eps gets the end states themselves.  An
    empty ``eps_list`` returns [] without integrating.
    """
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    if not d > 0:
        raise ValueError("the slow horizon d must be positive")
    eps_list = [float(eps) for eps in eps_list]
    for eps in eps_list:
        if not eps > 0:
            raise ValueError("eps values must be positive")
    if not eps_list:
        return []
    z_at = _averaged_trajectory(avg, xi0, d, cfg).eval
    eps_min = min(eps_list)
    lane_ends = np.linspace(0.0, d / eps_min, grid_points)
    zs = np.atleast_2d(z_at(eps_min * lane_ends))
    flows = flow_lanes(sys, 0.0, lane_ends, zs, cfg,
                       fractions=[eps_min / eps for eps in eps_list])[0]

    def one(eps, approx):
        horizon = d / eps
        times = np.linspace(0.0, horizon, grid_points)
        x_vals, _ = integrate_checkpoints(augmented(sys, 1, eps)[0], 0.0,
                                          horizon, xi0, times, cfg)
        errors = np.linalg.norm(x_vals - approx, axis=1)
        sup = float(errors.max())
        return CauchyVerdict(eps, xi0.copy(), float(d), float(gamma_tol),
                             sup, "holds" if sup <= gamma_tol else "fails",
                             times, errors, x_vals, approx)

    return [one(eps, approx) for eps, approx in zip(eps_list, flows)]


# ---------------------------------------------------------------------------
# Reduction to slowly forced standard form
# ---------------------------------------------------------------------------

class StandardForm:
    """Pullback of the forcing through the unperturbed flow.

    ``f(t, z)`` transports phi(t, .) along the flow back to time 0, which
    is the right-hand side obtained from the change of variable
    z(t) = Omega(0, t, x(t)): Y(t)^{-1} phi(t, Omega(t, 0, z)) with Y the
    fundamental matrix along that trajectory.  Each evaluation is one
    forward integration of x and Y from 0.
    """

    def __init__(self, sys, cfg=DEFAULT_CONFIG):
        self.sys = sys
        self.cfg = cfg

    def __call__(self, t, z):
        sys = self.sys
        X, Y = flow_lanes(sys, 0.0, t, z, self.cfg, S=np.eye(sys.k),
                          tangents=sys.k)
        return np.linalg.solve(Y[0], sys.phi(t, X[0]))

    def periodicity_defect(self, z):
        """Deviation of Omega(0, t+T, .) from Omega(0, t, .) along the orbit
        of z at t = 0, T/3 and 2T/3; above tolerance the change of variable
        is not T-periodic and classical averaging does not apply directly.

        Composing with the flow shows the deviation vanishes exactly when
        the time-T flow map fixes the pulled-back points, so the period
        defect |Omega(T, 0, w) - w| is measured at samples w along the
        unperturbed orbit of z (the direct backward comparison is
        exponentially ill-conditioned near attracting cycles).
        """
        sys = self.sys
        t_samples = np.array([0.0, sys.T / 3.0, 2.0 * sys.T / 3.0])
        zs = np.broadcast_to(z, (len(t_samples), sys.k))
        w = flow_lanes(sys, 0.0, t_samples, zs, self.cfg)[0]
        wT = flow_lanes(sys, 0.0, sys.T, w, self.cfg)[0]
        return float(np.linalg.norm(wT - w, axis=1).max())

    def warns(self, z):
        # 1e-6 is far above the error of one period's flow
        dev = self.periodicity_defect(z)
        return dev > 1e-6 * (1 + float(np.linalg.norm(z))), dev


def to_standard_form(sys, cfg=DEFAULT_CONFIG):
    return StandardForm(sys, cfg)
