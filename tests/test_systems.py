import warnings

import numpy as np
import pytest

from epsode import (builtin_names, builtin_system, flow_omega, resonance_H,
                    system_from_callables, system_from_expressions)
from epsode.systems import damped_newton, fd_jacobian
from epsode.variational import lane_field


def test_registry_names():
    assert builtin_names() == ["e1-circle", "e2-resonance", "e3-scalar"]
    with pytest.raises(KeyError, match="valid names"):
        builtin_system("nope")


def test_registry_dimensions(e1, e2, e3):
    assert (e1.k, e2.k, e3.k) == (2, 2, 1)
    for s in (e1, e2, e3):
        assert s.T == pytest.approx(2 * np.pi)


def test_divergence_equals_jacobian_trace(e1, e2):
    rng = np.random.default_rng(2)
    for s in (e1, e2):
        for _ in range(5):
            t = rng.uniform(0, s.T)
            x = rng.uniform(-1.5, 1.5, s.k)
            assert s.psi_div(t, x) == float(np.trace(s.psi_jac(t, x)))


def test_divergence_values(e1, e2):
    for ang in (0.0, 1.1, 3.9):
        x = [np.cos(ang), np.sin(ang)]
        assert e1.psi_div(0.0, x) == pytest.approx(-2.0, abs=1e-14)
    assert e2.psi_div(0.3, [0.5, -0.2]) == 0.0


def test_jacobian_matches_finite_differences(e1, e2):
    rng = np.random.default_rng(4)
    for s in (e1, e2):
        for _ in range(4):
            t = rng.uniform(0, s.T)
            x = rng.uniform(-1.5, 1.5, s.k)
            J = s.psi_jac(t, x)
            for j in range(s.k):
                h = 1e-6 * (1 + abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (s.psi(t, xp) - s.psi(t, xm)) / (2 * h)
                scale = 1e-6 * (1 + np.max(np.abs(J)))
                assert np.max(np.abs(J[:, j] - fd)) <= scale


def test_fields_are_time_periodic(e1, e2, e3):
    for s in (e1, e2, e3):
        assert s.check_periodicity() <= 1e-12


def test_nonperiodic_system_rejected():
    with pytest.raises(ValueError, match="periodic"):
        system_from_expressions("bad", 1, 2 * np.pi, ("cos(t/2)",), ("0",))


def test_nonfinite_field_rejected_at_a_named_sample():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"phi of 'bad' is not finite at "
                           r"the periodicity sample t=.*, x=\["):
            system_from_expressions("bad", 1, 2 * np.pi, ("1e300*x1*1e300",),
                                    ("0",))


def test_describe_lines_print_an_infinite_constant():
    # 1e300*x1*1e300 folds its two constants into inf in the derivative
    sysd = system_from_expressions("inf", 2, 2 * np.pi, ("0", "0"),
                                   ("1e300*x1*1e300", "-x1"),
                                   check_periodicity=False)
    assert "div psi = inf" in sysd.describe_lines()


@pytest.mark.parametrize("T", [np.inf, np.nan, 0.0])
def test_period_must_be_positive_and_finite(T):
    with pytest.raises(ValueError, match="T positive and finite"):
        system_from_expressions("bad", 1, T, ("1",), ("0",))


def test_callable_system_finite_difference_fallback(e1):
    sys_fd = system_from_callables(
        "e1-opaque", 2, 2 * np.pi,
        phi=lambda t, x: np.array([1.0, 0.0]),
        psi=lambda t, x: e1.psi(t, x))
    assert sys_fd.jacobian_mode == "finite-difference"
    rng = np.random.default_rng(6)
    for _ in range(4):
        x = rng.uniform(-1.2, 1.2, 2)
        exact = e1.psi_jac(0.0, x)
        approx = sys_fd.psi_jac(0.0, x)
        assert np.max(np.abs(exact - approx)) <= 1e-6 * (1 + np.max(np.abs(exact)))


def test_batch_evaluators_match_pointwise(e2):
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.5, 1.5, (7, 2))
    t = 0.37
    phi_b = lane_field(e2, t, X, forcings=(e2,))[1][:, :, 0]
    jac_b = lane_field(e2, t, X, np.eye(2), tangents=2)[1]
    div_b = np.trace(jac_b, axis1=1, axis2=2)
    for i in range(len(X)):
        assert np.allclose(phi_b[i], e2.phi(t, X[i]), atol=1e-15)
        assert np.allclose(jac_b[i], e2.psi_jac(t, X[i]), atol=1e-15)
        assert div_b[i] == e2.psi_div(t, X[i])


def test_fractional_power_of_negative_value_is_a_float_nan():
    sysd = system_from_expressions("p", 2, 2 * np.pi, ("0", "0"),
                                   ("-1", "x1^0.5"), check_periodicity=False)
    value = sysd.psi(0.0, [-1.0, 0.0])
    assert value.dtype == np.float64
    assert value[0] == -1.0 and np.isnan(value[1])


def test_describe_mentions_fields_and_divergence(e1, e2):
    text = "\n".join(e1.describe_lines())
    assert "phi = (1, 0)" in text
    assert "div psi" in text
    assert "div psi = 0" in "\n".join(e2.describe_lines())


def test_parameter_override():
    sysd = builtin_system("e2-resonance", {"lam": 2.0})
    base = builtin_system("e2-resonance")
    x = [0.3, 0.4]
    diff = sysd.phi(0.0, x)[1] - base.phi(0.0, x)[1]
    assert diff == pytest.approx(1.0)  # lam * cos(0) changes by 1


def test_flow_identity_and_cycle(e1):
    xi = np.array([0.3, -0.8])
    assert np.array_equal(flow_omega(e1, 1.0, 1.0, xi), xi)
    back = flow_omega(e1, 2 * np.pi, 0.0, [1.0, 0.0])
    assert np.linalg.norm(back - [1.0, 0.0]) <= 1e-8


def test_autonomy_flags(e1, e2, e3):
    assert e1.autonomous
    assert not e2.autonomous  # forcing depends on t
    assert e2.psi_autonomous
    assert not e3.autonomous


# ------------------------------------------------------ lane Newton --

def _solo_runs(fj, X, tol, max_iter):
    return [damped_newton(fj, x[None], tol, max_iter) for x in X]


def _assert_lanes_match_solo(fj, X, tol, max_iter):
    run = damped_newton(fj, X, tol, max_iter)
    for i, solo in enumerate(_solo_runs(fj, X, tol, max_iter)):
        assert run.status[i] == solo.status[0]
        assert run.iterations[i] == solo.iterations[0]
        if solo.status[0] == "converged":
            scale = np.linalg.norm(solo.x[0])
            assert np.linalg.norm(run.x[i] - solo.x[0]) <= 1e-12 * scale
    return run


def test_lane_newton_matches_solo_runs_on_e1_equilibrium_seeds(e1):
    def fj(X, jacobian):
        return lane_field(e1, 0.0, X, np.eye(2), eps=1e-2, tangents=2)

    # the seeds equilibrium_candidates takes on the unit disk
    a, b = np.meshgrid(*2 * [np.linspace(-1.0, 1.0, 3)], indexing="ij")
    X = np.vstack([np.column_stack([a.ravel(), b.ravel()]), np.zeros((1, 2))])
    run = _assert_lanes_match_solo(fj, X, 1e-12, 60)
    converged = run.status == "converged"
    assert converged.any()
    for x in run.x[converged]:
        assert np.linalg.norm(lane_field(e1, 0.0, x, eps=1e-2)[0]) <= 1e-12


def test_lane_newton_matches_solo_runs_on_resonance_seeds():
    rm = resonance_H("(1 - x1^2)*x2 + cos(t)", (0.5, 3.5), (0.0, 2 * np.pi),
                     grid=(4, 4))

    def H(P):
        return rm.evaluate_many(P[:, 0], P[:, 1])

    def fj(P, jacobian):
        return H(P), fd_jacobian(H, P, rel=1e-5)

    X = np.array([(2.0, 1.0), (3.0, 2.0), (0.6, 0.3), (2.5, 5.0),
                  (1.4, 1.6)])
    run = _assert_lanes_match_solo(fj, X, 1e-9, 40)
    converged = run.status == "converged"
    assert converged.any() and not converged.all()


def _square_minus_one(X, jacobian):
    return X ** 2 - 1.0, 2.0 * X[:, :, None]


def test_lane_newton_singular_lane_stops_alone():
    # x^2 - 1 has a zero derivative at x = 0
    run = damped_newton(_square_minus_one, [[3.0], [0.0], [-0.5]], 1e-12, 40)
    assert run.status.tolist() == ["converged", "singular", "converged"]
    assert run.singular.tolist() == [False, True, False]
    assert run.x[[0, 2], 0] == pytest.approx([1.0, -1.0], abs=1e-12)
    assert run.iterations[1] == 0 and run.history[1] == [1.0]


def test_lane_newton_nonfinite_lane_stops_alone():
    def fj(X, jacobian):  # sqrt(x) - 1, whose derivative is inf at 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sqrt(X) - 1.0, 0.5 / np.sqrt(X)[:, :, None]

    run = damped_newton(fj, [[4.0], [-1.0], [0.0], [0.25]], 1e-12, 40)
    assert run.status.tolist() == ["converged", "nonfinite", "nonfinite",
                                    "converged"]
    assert run.x[[0, 3], 0] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.isnan(run.history[1][0]) and run.history[2] == [1.0]
    solo = _solo_runs(fj, np.array([[4.0], [0.25]]), 1e-12, 40)
    assert [s.iterations[0] for s in solo] == run.iterations[[0, 3]].tolist()

    # the residual of the run with the Jacobian is nan for 1.2 < x < 2, as
    # when a period map's run with tangents fails where the plain one does not
    def fj_band(X, jacobian):
        V = X ** 2 - 1.0
        if jacobian:
            V = np.where((X > 1.2) & (X < 2.0), np.nan, V)
        return V, 2.0 * X[:, :, None]

    run = damped_newton(fj_band, [[3.0], [-3.0]], 1e-12, 40)
    assert run.status.tolist() == ["nonfinite", "converged"]
    assert run.iterations[0] == 1 and np.isnan(run.history[0][1])
    assert run.x[1, 0] == pytest.approx(-1.0, abs=1e-12)


def _badly_scaled(X):  # a regular zero at (1, 2) with J = diag(1, 1e-6)
    return np.column_stack([X[:, 0] - 1.0, 1e-6 * (X[:, 1] - 2.0)])


def _complex_square(X):  # ((x - 1) + i(y - 2))^2: a zero of index 2
    u, v = X[:, 0] - 1.0, X[:, 1] - 2.0
    return np.column_stack([u * u - v * v, 2.0 * u * v])


@pytest.mark.parametrize("f, fewest, most", [(_badly_scaled, 1, 1),
                                             (_complex_square, 18, 19)])
def test_lane_newton_with_minimal_damping_reaches_hard_zeros(f, fewest, most):
    # the arguments resonance_H passes: at most 12 halvings, so no step is
    # damped below 2^-11; a relative singularity threshold stops both of
    # these as singular
    run = damped_newton(
        lambda X, jac: (f(X), jac and fd_jacobian(f, X, rel=1e-5)),
        [[0.0, 0.0], [3.0, 5.0], [-2.0, 1.0]], 1e-10, 40, halvings=12)
    assert run.status.tolist() == ["converged"] * 3
    # Newton halves the distance to a double zero at each step
    assert fewest <= run.iterations.min() <= run.iterations.max() <= most
    assert np.all(run.residual <= 1e-10)
    assert run.x == pytest.approx(np.array([[1.0, 2.0]] * 3), abs=1e-4)


def test_fd_jacobian_of_lanes_matches_single_points():
    def f(X):
        return np.column_stack([X[:, 0] * X[:, 1], np.sin(X[:, 0])])

    X = np.array([[0.3, -1.2], [2.0, 0.5]])
    J = fd_jacobian(f, X)
    for x, Jx in zip(X, J):
        assert np.array_equal(Jx, fd_jacobian(lambda y: f(y[None])[0], x))
    assert J[0] == pytest.approx(np.array([[-1.2, 0.3], [np.cos(0.3), 0.0]]),
                                 abs=1e-8)
