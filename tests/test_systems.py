import numpy as np
import pytest

from epsode import (builtin_names, builtin_system, flow_omega,
                    system_from_callables, system_from_expressions)
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
