import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from epsode import (DEFAULT_CONFIG, IntegrationError, IntegratorConfig,
                    NoConvergenceError, averaged_field, eta,
                    gauss_legendre_panels,
                    solve_averaged, system_from_expressions, to_standard_form,
                    verify_cauchy)

TWO_PI = 2 * np.pi


def test_averaged_field_is_time_average_when_flow_is_static(e3):
    av = averaged_field(e3, r=2.0)
    assert av.n_used == 1
    for xi in (-1.0, 0.0, 0.7, 1.4):
        assert av(np.array([xi]))[0] == pytest.approx(-xi, abs=1e-9)


def test_averaged_field_zero_forcing():
    sysd = system_from_expressions("z", 2, TWO_PI, ("0", "0"),
                                   ("-x2", "x1"))
    av = averaged_field(sysd, r=1.5)
    vals = av.eval_many(av.samples)
    assert np.max(np.abs(vals)) <= 1e-9


def test_averaged_field_consistency_with_direct_quadrature(e3):
    av = averaged_field(e3, r=2.0)
    nodes, weights = gauss_legendre_panels(0.0, TWO_PI)
    for xi in av.samples:
        f0 = float(np.dot(weights, np.array(
            [e3.phi(t, xi)[0] for t in nodes]))) / TWO_PI
        assert abs(av(xi)[0] - f0) <= 1e-6


def test_averaged_field_divergence_reported(e1):
    # interior samples converge only like 1/n, so a small n_max trips the
    # Cauchy stopping rule
    with pytest.raises(NoConvergenceError) as err:
        averaged_field(e1, r=0.8, n_max=8)
    assert len(err.value.history) >= 2


def test_averaged_field_backward_blowup_reported(e1):
    # samples outside the cycle blow up in finite backward time
    with pytest.raises(IntegrationError):
        averaged_field(e1, r=1.5, n_max=4)


def test_solve_averaged_constant_and_linear():
    traj, info = solve_averaged(lambda z: np.zeros(2), [0.3, -0.1], 2.0)
    assert np.allclose(traj.endpoint, [0.3, -0.1], atol=1e-12)
    traj, info = solve_averaged(lambda z: -z, [1.0], 1.0)
    assert traj.endpoint[0] == pytest.approx(np.exp(-1), abs=1e-9)
    assert info["lipschitz_estimate"] == pytest.approx(1.0, rel=1e-4)


def test_solve_averaged_ball_escape(e3):
    av = averaged_field(e3, r=0.5)
    with pytest.raises(ValueError, match="radius"):
        solve_averaged(av, [1.0], 1.0)  # starts outside the validated ball


def test_relaxation_amplitude_equilibrium():
    # slowly forced standard form whose averaged field is a/2 (1 - a^2/4)
    sysd = system_from_expressions(
        "amp", 1, TWO_PI, ("(1 - (x1*cos(t))^2)*x1*sin(t)^2",), ("0",))
    av = averaged_field(sysd, r=3.0)
    for a in (1.0, 2.0, 3.0):
        assert av(np.array([a]))[0] == pytest.approx(
            a / 2 - a ** 3 / 8, abs=1e-8)
    root = brentq(lambda a: av(np.array([a]))[0], 1.5, 2.5, xtol=1e-10)
    assert root == pytest.approx(2.0, abs=1e-8)


def test_backward_response_closed_form_when_flow_is_static(e3):
    for n in (1, 4):
        sol = eta(e3, 0.0, [1.3], eval_times=[-n * TWO_PI])
        assert abs(sol.values[0][0] - 1.3 * n * TWO_PI) <= 1e-9 * (1 + n * TWO_PI)


def test_verify_zero_forcing_zero_error(e1):
    sysd = system_from_expressions(
        "e1-z", 2, TWO_PI, ("0", "0"),
        ("-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)"))
    verd = verify_cauchy(sysd, [0.4, 0.0], 0.5, [0.05],
                         lambda z: np.zeros(2), grid_points=64)
    assert verd[0].sup_error <= 1e-7
    assert verd[0].verdict == "holds"


def test_verify_full_pipeline_short(e3):
    verd = verify_cauchy(e3, [1.0], 0.5, [0.02], averaged_field(e3, r=4.0),
                         gamma_tol=0.1, grid_points=256)
    assert verd[0].verdict == "holds"
    assert verd[0].sup_error == pytest.approx(0.02, rel=0.2)


def test_verify_error_not_increased_by_tighter_tolerances(e3):
    loose = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    a, b = (verify_cauchy(e3, [1.0], 0.5, [0.02],
                          averaged_field(e3, r=4.0, cfg=cfg), cfg=cfg,
                          grid_points=128)[0].sup_error
            for cfg in (loose, loose.tightened()))
    assert b <= a + 1e-6


def test_verify_tracks_cycle_with_constant_slow_solution(e1):
    # the averaged limit diverges off the cycle for this system; the
    # physically correct slow solution through (1, 0) is the constant one,
    # so the zero field is supplied directly
    verd = verify_cauchy(e1, [1.0, 0.0], 0.3, [1e-3], lambda z: np.zeros(2),
                         gamma_tol=0.1, grid_points=256)
    assert verd[0].verdict == "holds"
    assert verd[0].sup_error <= 0.01


def test_verify_flow_factor_rotates_the_slow_solution(e2):
    # psi of e2 rotates, so Omega(t, 0, z) = R(t) z at every grid time; the
    # constant field (0.5, -0.3) from (1, 0) has the slow solution z below.
    # Every eps but the smallest reads the flow factor inside its lanes.
    def z(s):
        return np.array([1.0 + 0.5 * s, -0.3 * s])

    eps_list = [0.2, 0.05, 0.1]
    verdicts = verify_cauchy(e2, [1.0, 0.0], 1.0, eps_list,
                             lambda w: np.array([0.5, -0.3]), grid_points=64)
    for eps, verd in zip(eps_list, verdicts):
        assert verd.eps == eps
        for t, approx in zip(verd.times, verd.approx_values):
            c, s = np.cos(t), np.sin(t)
            expect = np.array([[c, -s], [s, c]]) @ z(eps * t)
            assert np.max(np.abs(approx - expect)) <= 1e-8


def _same_verdict(a, b):
    return (a.eps, a.sup_error, a.verdict) == (b.eps, b.sup_error, b.verdict) \
        and all(np.array_equal(getattr(a, name), getattr(b, name))
                for name in ("times", "errors", "x_values", "approx_values"))


def test_verify_one_flow_run_serves_every_eps(e2):
    av = averaged_field(e2, r=4.0)
    both = verify_cauchy(e2, [1.0, 0.5], 0.5, [0.02, 0.01], av,
                         grid_points=128)
    alone = [verify_cauchy(e2, [1.0, 0.5], 0.5, [eps], av,
                           grid_points=128)[0] for eps in (0.02, 0.01)]
    # the smallest eps reads the run's end states, so it keeps every bit
    assert _same_verdict(both[1], alone[1])
    # the other reads the run's interpolant at half of each lane's span
    a, b = both[0], alone[0]
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.x_values, b.x_values)
    assert np.all(np.abs(a.approx_values - b.approx_values)
                  <= 1e-9 * (1 + np.abs(b.approx_values)))
    assert a.sup_error == pytest.approx(b.sup_error, abs=1e-9)


@pytest.mark.parametrize("eps_list", [[0.05], [0.05, 0.02], [0.1, 0.02, 0.05]])
def test_verify_makes_one_grid_wide_flow_run(e2, eps_list, monkeypatch):
    from epsode import averaging
    widths = []
    real = averaging.flow_lanes

    def spy(sys, t0, t1, X, *args, **kwargs):
        widths.append(len(np.reshape(X, (-1, sys.k))))
        return real(sys, t0, t1, X, *args, **kwargs)

    monkeypatch.setattr(averaging, "flow_lanes", spy)
    verify_cauchy(e2, [1.0, 0.5], 0.5, eps_list, lambda w: -0.1 * w,
                  grid_points=48)
    assert widths == [48]


def test_verify_empty_and_repeated_eps(e2, monkeypatch):
    from epsode import averaging

    def refuse(*args, **kwargs):
        raise AssertionError("integrated for an empty eps list")

    with monkeypatch.context() as m:
        for name in ("integrate", "integrate_checkpoints", "flow_lanes"):
            m.setattr(averaging, name, refuse)
        assert verify_cauchy(e2, [1.0, 0.5], 0.5, [], refuse) == []
    verdicts = verify_cauchy(e2, [1.0, 0.5], 0.5, [0.05, 0.1, 0.05, 0.1],
                             lambda w: -0.1 * w, grid_points=48)
    assert _same_verdict(verdicts[0], verdicts[2])
    assert _same_verdict(verdicts[1], verdicts[3])


@pytest.mark.parametrize("name", ["e2", "e3"])
def test_continued_doubling_matches_phi_from_scratch(name, request):
    sysd = request.getfixturevalue(name)
    av = averaged_field(sysd, r=2.0)
    # values were reached by continuing level n's lanes from -nT; eval_many
    # integrates Phi_2n from 0 in one run
    assert av.values.shape == av.samples.shape
    assert np.max(np.abs(av.values - av.eval_many(av.samples))) <= 1e-10


def test_verify_rejects_nonpositive_eps(e3):
    with pytest.raises(ValueError, match="positive"):
        verify_cauchy(e3, [1.0], 0.5, [0.0], lambda z: np.zeros(1))


@pytest.mark.parametrize("d", [0.0, -1.0])
def test_verify_rejects_nonpositive_horizon(e3, d):
    with pytest.raises(ValueError, match="d must be positive"):
        verify_cauchy(e3, [1.0], d, [0.02], lambda z: np.zeros(1))


@pytest.mark.parametrize("kwargs", [{"r": 0.0}, {"r": -1.0},
                                    {"r": 2.0, "n_samples": 0}])
def test_averaged_field_rejects_a_degenerate_ball(e3, kwargs):
    with pytest.raises(ValueError):
        averaged_field(e3, **kwargs)


@pytest.mark.parametrize("n_max", [1, 0])
def test_averaged_field_needs_two_levels(e3, n_max):
    with pytest.raises(ValueError, match="n_max must be at least 2"):
        averaged_field(e3, r=2.0, n_max=n_max)


@pytest.mark.parametrize("name, r", [("e2", 4.0), ("e3", 2.0)])
def test_period_dividing_t_evaluates_at_the_stopping_level(name, r, request):
    # the flow's period divides T, so Phi_1 = Phi_2 up to integration noise
    # and the evaluator keeps level 1
    av = averaged_field(request.getfixturevalue(name), r=r)
    assert av.n_eval == av.n_used == 1
    assert 2 * av.history[-1][1] <= 1e-7


def test_slow_cauchy_convergence_evaluates_at_the_finer_level(e1):
    # interior samples of e1 converge like 1/n: the last estimate lies in
    # (phi_tol/2, phi_tol], so level n alone could miss phi_tol
    av = averaged_field(e1, r=0.8, phi_tol=1e-3)
    assert av.n_used == 64 and av.n_eval == 128
    assert 0.5e-3 < av.history[-1][1] <= 1e-3


def _e2_period_average(xi):
    """(1/2 pi) int_0^{2 pi} R(-t) phi(t, R(t) xi) dt for e2, with R(t) the
    rotation generated by psi = (-x2, x1)."""
    def rotate(t, x):
        c, s = np.cos(t), np.sin(t)
        return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    def integrand(t, j):
        x = rotate(t, xi)
        f = np.array([0.0, (1 - x[0] ** 2) * x[1] + np.cos(t)])
        return rotate(-t, f)[j]

    return np.array([quad(integrand, 0.0, TWO_PI, args=(j,), epsabs=1e-12,
                          epsrel=1e-12, limit=200)[0]
                     for j in range(2)]) / TWO_PI


def test_stopping_level_field_matches_the_period_average(e2):
    av = averaged_field(e2, r=4.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.normal(size=2)
        xi = 4.0 * rng.uniform() ** 0.5 * v / np.linalg.norm(v)
        assert np.max(np.abs(av(xi) - _e2_period_average(xi))) <= 1e-7


def test_verify_evaluates_phi_over_one_period(e2, monkeypatch):
    from epsode import averaging
    av = averaged_field(e2, r=4.0)
    spans = []
    real = averaging.flow_lanes

    def spy(sys, t0, t1, X, *args, **kwargs):
        if kwargs.get("forcings"):  # an AveragedField evaluation
            spans.append(float(t0 - t1))
        return real(sys, t0, t1, X, *args, **kwargs)

    monkeypatch.setattr(averaging, "flow_lanes", spy)
    verify_cauchy(e2, [1.0, 0.5], 1.0, [0.02], av, grid_points=64)
    assert spans and spans == [e2.T] * len(spans)


def test_standard_form_static_flow_is_identity(e3):
    sf = to_standard_form(e3)
    for t in (0.0, 0.7, 3.0):
        assert sf(t, [2.0])[0] == pytest.approx(e3.phi(t, [2.0])[0],
                                                abs=1e-10)


def test_standard_form_rotating_flow_matches_matrix_exponential():
    sysd = system_from_expressions("rot", 2, TWO_PI,
                                   ("x1*x2", "cos(t) + x1"), ("-x2", "x1"))
    sf = to_standard_form(sysd)
    rng = np.random.default_rng(9)
    for _ in range(3):
        t = rng.uniform(0.3, TWO_PI)
        z = rng.uniform(-1.0, 1.0, 2)
        c, s = np.cos(t), np.sin(t)
        R = np.array([[c, -s], [s, c]])
        expect = R.T @ sysd.phi(t, R @ z)
        got = sf(t, z)
        assert np.linalg.norm(got - expect) <= 1e-8 * (1 + np.linalg.norm(expect))


def test_standard_form_is_one_forward_run(e1, monkeypatch):
    # Y(t)^{-1} phi(t, x(t)) from one run of x and Y from 0; the pullback of
    # phi from t back to 0 was 2.7e-7 off at t = 6
    from epsode import variational
    sf = to_standard_form(e1)
    tight = to_standard_form(e1, DEFAULT_CONFIG.tightened(1000.0))
    real, runs = variational.integrate_checkpoints, []

    def spy(*args, **kwargs):
        runs.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(variational, "integrate_checkpoints", spy)
    for t in (0.7, 3.0, 6.0):
        for z in ((0.5, 0.0), (0.8, -0.3), (1.2, 0.4)):
            ref = tight(t, z)
            runs.clear()
            got = sf(t, z)
            assert runs == [(0.0, t)]
            assert np.linalg.norm(got - ref) \
                <= 1e-8 * (1 + np.linalg.norm(ref))


def test_standard_form_periodicity_warning(e1):
    sf = to_standard_form(e1)
    on_cycle, dev_cycle = sf.warns([1.0, 0.0])
    assert not on_cycle and dev_cycle <= 1e-7
    interior, dev_interior = sf.warns([0.5, 0.0])
    assert interior and dev_interior > 1e-3
