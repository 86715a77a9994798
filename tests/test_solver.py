import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from epsode import (IntegrationError, IntegratorConfig,
                    gauss_legendre_panels, integrate, integrate_checkpoints)
from epsode.variational import augmented


def rotation(t, x):
    return np.array([-x[1], x[0]])


def test_zero_field_constant():
    traj = integrate(lambda t, x: np.zeros(2), 0.0, 5.0, [1.0, 2.0])
    assert np.array_equal(traj.endpoint, [1.0, 2.0])


def test_exponential_endpoint():
    traj = integrate(lambda t, x: x, 0.0, 1.0, [1.0])
    assert abs(traj.endpoint[0] - np.e) / np.e <= 1e-9


def test_rotation_full_turn():
    traj = integrate(rotation, 0.0, 2 * np.pi, [1.0, 0.0])
    assert np.linalg.norm(traj.endpoint - [1.0, 0.0]) <= 1e-8


def test_backward_integration_covers_true_interval():
    traj = integrate(lambda t, x: x, 0.0, -1.0, [1.0])
    assert traj.ts[0] == 0.0 and traj.ts[-1] == -1.0
    assert np.all(np.diff(traj.ts) < 0)
    assert abs(traj.endpoint[0] - np.exp(-1)) <= 1e-10
    assert abs(traj.eval(-0.5)[0] - np.exp(-0.5)) <= 1e-10


def test_degenerate_interval():
    traj = integrate(rotation, 1.0, 1.0, [0.3, 0.4])
    assert np.array_equal(traj.endpoint, [0.3, 0.4])
    assert np.array_equal(traj.eval(1.0), [0.3, 0.4])


def test_nodes_reproduced_exactly():
    for t1 in (3.0, -3.0):
        traj = integrate(rotation, 0.0, t1, [1.0, 0.0])
        for i in (0, len(traj.ts) // 2, -1):
            assert np.array_equal(traj.eval(traj.ts[i]), traj.states[i])


def test_vector_eval_equals_scalar_eval():
    rng = np.random.default_rng(5)
    for t1 in (3.0, -3.0):
        traj = integrate(rotation, 0.0, t1, [1.0, 0.0])
        ts = traj.ts
        # every node, both sides of each node (beyond both ends within the
        # slack) and the midpoints, in random order
        times = np.concatenate([ts, np.nextafter(ts, np.inf),
                                np.nextafter(ts, -np.inf),
                                0.5 * (ts[:-1] + ts[1:])])
        times = rng.permutation(times)
        vec = traj.eval(times)
        assert np.array_equal(vec, [traj.eval(t) for t in times])
        ref = solve_ivp(rotation, (0.0, t1), [1.0, 0.0], rtol=1e-10,
                        atol=1e-12, dense_output=True)
        assert np.array_equal(ref.t, ts)
        assert np.max(np.abs(vec - ref.sol(times).T)) <= 1e-15


def test_eval_outside_interval_raises():
    traj = integrate(rotation, 0.0, 1.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        traj.eval(1.5)
    with pytest.raises(ValueError, match="outside"):
        traj.eval(np.array([0.5, -0.2]))


def test_step_limit():
    cfg = IntegratorConfig(max_steps=5)
    with pytest.raises(IntegrationError, match="step count"):
        integrate(rotation, 0.0, 100.0, [1.0, 0.0], cfg)


def test_nonfinite_field_reports_location():
    def bad(t, x):
        return x / (0.5 - t)

    with pytest.raises(IntegrationError) as err:
        integrate(bad, 0.0, 1.0, [1.0])
    assert err.value.t is not None


def test_nonfinite_initial_derivative_raises():
    # a nan derivative at t0 makes scipy's first step nan, and scipy
    # rejects a nan step forever
    with pytest.raises(IntegrationError, match="non-finite initial") as err:
        integrate(lambda t, x: np.array([np.nan]), 0.0, 1.0, [1.0])
    assert err.value.t == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)


def test_checkpoints_match_dense_output():
    times = np.array([0.0, 0.7, 1.3, 2.0])
    traj = integrate(rotation, 0.0, 2.0, [1.0, 0.0])
    vals, end = integrate_checkpoints(rotation, 0.0, 2.0, [1.0, 0.0], times)
    assert np.allclose(vals, traj.eval(times), atol=1e-12)
    assert np.allclose(end, traj.endpoint, atol=1e-15)


def test_checkpoint_within_slack_before_start():
    # a time just before t0 (allowed by the checkpoint slack) must not stop
    # the later checkpoints from being matched
    vals, _ = integrate_checkpoints(rotation, 0.0, 2.0, [1.0, 0.0],
                                    [-1e-13, 1.0])
    assert np.allclose(vals, [[1.0, 0.0], [np.cos(1.0), np.sin(1.0)]],
                       atol=1e-9)


def test_stacked_batch_matches_pointwise(e1):
    xis = np.array([[1.0, 0.0], [0.5, 0.2], [-0.3, 0.9]])
    n, k = xis.shape

    stacked = augmented(e1, n)[0]

    batch_end = integrate(stacked, 0.0, 3.0, xis.ravel()).endpoint.reshape(n, k)
    for i in range(n):
        single = integrate(e1.psi, 0.0, 3.0, xis[i]).endpoint
        assert np.linalg.norm(batch_end[i] - single) <= 1e-9


def test_flow_semigroup_and_inverse(e1):
    from epsode import flow_omega
    rng = np.random.default_rng(3)
    for _ in range(4):
        xi = rng.uniform(-1.2, 1.2, 2)
        scale = 1e-8 * (1 + np.linalg.norm(xi))
        mid = flow_omega(e1, 1.0, 0.0, xi)
        two = flow_omega(e1, 3.0, 1.0, mid)
        direct = flow_omega(e1, 3.0, 0.0, xi)
        assert np.linalg.norm(two - direct) <= scale
        back = flow_omega(e1, 0.0, 3.0, direct)
        assert np.linalg.norm(back - xi) <= scale


def test_autonomous_period_shift(e1):
    from epsode import flow_omega
    xi = np.array([0.6, -0.1])
    a = flow_omega(e1, 1.5 + e1.T, e1.T, xi)
    b = flow_omega(e1, 1.5, 0.0, xi)
    assert np.linalg.norm(a - b) <= 1e-8 * (1 + np.linalg.norm(xi))


def test_tightening_tolerances_consistency(e1):
    # global error scales with the horizon, so check over one time unit
    loose = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    a = integrate(e1.psi, 0.0, 1.0, [0.4, 0.3], loose).endpoint
    b = integrate(e1.psi, 0.0, 1.0, [0.4, 0.3], loose.tightened()).endpoint
    assert np.linalg.norm(a - b) < 1e-8 * (1 + np.linalg.norm(a))


def test_gauss_legendre_matches_adaptive_quadrature():
    nodes, weights = gauss_legendre_panels(0.0, 2 * np.pi, 64, 8)
    ours = float(np.dot(weights, np.exp(2 * nodes) * np.cos(nodes)))
    ref, _ = quad(lambda t: np.exp(2 * t) * np.cos(t), 0.0, 2 * np.pi,
                  limit=200)
    assert abs(ours - ref) / abs(ref) <= 1e-12
