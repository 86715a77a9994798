import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from epsode import (IntegrationError, IntegratorConfig,
                    gauss_legendre_panels, integrate, integrate_checkpoints)
from epsode.solver import gauss_legendre_running
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
        ref = solve_ivp(rotation, (0.0, t1), [1.0, 0.0], method="DOP853",
                        rtol=1e-10, atol=1e-12, dense_output=True)
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
    nodes, weights = gauss_legendre_panels(0.0, 2 * np.pi)
    ours = float(np.dot(weights, np.exp(2 * nodes) * np.cos(nodes)))
    ref, _ = quad(lambda t: np.exp(2 * t) * np.cos(t), 0.0, 2 * np.pi,
                  limit=200)
    assert abs(ours - ref) / abs(ref) <= 1e-12


def _e1_lane(e1, n):
    """``n`` e1 lanes with eps 1e-2, two tangents and one forcing."""
    rhs, pack, _ = augmented(e1, n, 1e-2, 2, (e1,))
    X = np.array([[1.0, 0.0], [0.5, 0.2], [-0.3, 0.9], [0.1, -1.1]])[:n]
    return rhs, pack(X, np.hstack([np.eye(2), np.zeros((2, 1))]))


def test_wrapped_lane_field_takes_the_same_steps(e1):
    # a wrapper that copies no attributes (as the benchmark tracer's) hides
    # the lane function unless the solver looks behind ``__wrapped__``
    for n in (1, 4):
        rhs, z0 = _e1_lane(e1, n)

        @functools.wraps(rhs, updated=())
        def wrapped(t, z):
            return rhs(t, z)

        plain = integrate(rhs, 0.0, 2 * np.pi, z0)
        assert not hasattr(wrapped, "lane")
        traced = integrate(wrapped, 0.0, 2 * np.pi, z0)
        assert np.array_equal(plain.ts, traced.ts)
        assert np.array_equal(plain.states, traced.states)


def test_scalar_and_numpy_kernels_agree(e1, e2):
    rhs_e2, pack_e2, _ = augmented(e2, 1, forcings=(e2,))
    rhs_4, pack_4, _ = augmented(e1, 4, forcings=(e1,))
    X4 = [[1.0, 0.0], [0.5, 0.2], [-0.3, 0.9], [0.1, -1.1]]
    cases = [(*_e1_lane(e1, 1), 2 * np.pi),
             (rhs_e2, pack_e2([0.5, 0.3]), -4 * np.pi),
             (rhs_4, pack_4(X4), 2 * np.pi)]
    for rhs, z0, t1 in cases:
        assert hasattr(rhs, "lane")
        lanes = integrate(rhs, 0.0, t1, z0)
        opaque = integrate(lambda t, z, f=rhs: f(t, z), 0.0, t1, z0)
        assert len(lanes.ts) == len(opaque.ts)
        z = opaque.endpoint
        assert np.all(np.abs(lanes.endpoint - z) <= 1e-12 * (1 + np.abs(z)))


def test_opaque_batch_takes_scipy_steps(e1):
    rhs = augmented(e1, 9)[0]
    assert not hasattr(rhs, "lane")
    z0 = np.random.default_rng(2).uniform(-1.0, 1.0, 18)
    ours = integrate(rhs, 0.0, 2 * np.pi, z0)
    ref = solve_ivp(rhs, (0.0, 2 * np.pi), z0, method="DOP853", rtol=1e-10,
                    atol=1e-12)
    assert np.array_equal(ours.ts, ref.t)
    assert np.array_equal(ours.states, ref.y.T)


def test_field_may_keep_the_states_it_is_given():
    # every stage argument of the numpy kernel is a fresh array that the
    # stepper never writes to afterwards
    kept = []

    def keeping(t, x):
        kept.append((x, x.copy()))
        return rotation(t, x)

    ours = integrate(keeping, 0.0, 3.0, [1.0, 0.0])
    ref = integrate(rotation, 0.0, 3.0, [1.0, 0.0])
    assert np.array_equal(ours.states, ref.states)
    assert len(kept) > 12 * (len(ours.ts) - 1)
    assert len({id(x) for x, _ in kept}) == len(kept)
    for i, (x, first) in enumerate(kept):
        assert np.array_equal(x, first)
        assert not any(np.shares_memory(x, y) for y, _ in kept[i + 1:])


def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref
    from scipy.integrate._ivp.rk import DOP853

    from epsode import solver
    for ours, theirs in ((solver._C, ref.C), (solver._A, ref.A),
                         (solver._B, DOP853.B), (solver._E5, DOP853.E5),
                         (solver._E3, DOP853.E3), (solver._D, ref.D)):
        assert np.array_equal(ours, theirs)


def test_order_eight_step_budget(e1):
    # the 5(4) pair took 200 steps on the rotation and 213 on the e1 cycle
    traj = integrate(rotation, 0.0, 2 * np.pi, [1.0, 0.0])
    assert len(traj.ts) - 1 <= 30
    assert np.max(np.abs(traj.endpoint - [1.0, 0.0])) <= 1e-10
    ts = np.linspace(0.0, 2 * np.pi, 101)
    assert np.max(np.abs(traj.eval(ts)[:, 0] - np.cos(ts))) <= 1e-9
    cycle = integrate(augmented(e1, 1)[0], 0.0, e1.T, [1.0, 0.0])
    assert len(cycle.ts) - 1 <= 60


def test_dense_stages_are_paid_only_where_read():
    calls = []

    def counted(t, x):
        calls.append(t)
        return rotation(t, x)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    none = count(lambda: integrate_checkpoints(counted, 0.0, 3.0, [1.0, 0.0],
                                               ()))
    # 0 and 3 are nodes; only 1.234 lies between two
    one = count(lambda: integrate_checkpoints(counted, 0.0, 3.0, [1.0, 0.0],
                                              [0.0, 1.234, 3.0]))
    assert one == none + 3
    dense = count(lambda: integrate(counted, 0.0, 3.0, [1.0, 0.0]))
    steps = len(integrate(rotation, 0.0, 3.0, [1.0, 0.0]).ts) - 1
    assert dense == none + 3 * steps


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_lane_checkpoints_are_the_dense_output_bit_for_bit(e1, n):
    # the scalar kernel's interpolant on floats keeps the bits of
    # Trajectory.eval, which runs _interpolate on the rows as arrays
    rhs = augmented(e1, n)[0]
    assert hasattr(rhs, "lane")
    # inside the cycle, which repels backward
    z0 = np.random.default_rng(n).uniform(-0.6, 0.6, 2 * n)
    rng = np.random.default_rng(7)
    for t0, t1 in ((0.0, 2 * np.pi), (1.0, 1.0 - 2 * np.pi)):
        traj = integrate(rhs, t0, t1, z0)
        mid = 0.5 * (traj.ts[2:5] + traj.ts[3:6])
        inside = t0 + (t1 - t0) * rng.uniform(0.0, 1.0, 9)
        before = t0 - np.sign(t1 - t0) * 1e-13  # within the slack
        times = np.concatenate([[t0, t1, before], traj.ts[3:6], mid, mid[:2],
                                traj.ts[4:5], inside])
        rng.shuffle(times)
        past = t1 + np.sign(t1 - t0) * 1e-13
        vals, end = integrate_checkpoints(rhs, t0, t1, z0,
                                          np.append(times, past))
        assert np.array_equal(vals[:-1], traj.eval(times))
        assert np.array_equal(end, traj.endpoint)
        assert np.array_equal(vals[-1], end)  # past t1: the end state


def test_lane_dense_stages_are_paid_only_where_read(e1):
    rhs = augmented(e1, 2)[0]
    z0 = np.array([1.0, 0.0, 0.5, 0.2])
    calls = []

    def counted(t, z):
        calls.append(t)
        return rhs(t, z)

    def counted_lane(t, y):
        calls.append(t)
        return rhs.lane(t, y)

    counted.lane = counted_lane

    def count(run):
        calls.clear()
        run()
        return len(calls)

    nodes = integrate(rhs, 0.0, 3.0, z0).ts
    none = count(lambda: integrate_checkpoints(counted, 0.0, 3.0, z0, ()))
    on_nodes = count(lambda: integrate_checkpoints(
        counted, 0.0, 3.0, z0, [0.0, *nodes[2:5], 3.0]))
    assert on_nodes == none
    one = count(lambda: integrate_checkpoints(counted, 0.0, 3.0, z0,
                                              [0.0, 1.234, 3.0]))
    assert one == none + 3
    dense = count(lambda: integrate(counted, 0.0, 3.0, z0))
    assert dense == none + 3 * (len(nodes) - 1)


def test_scalar_and_numpy_interpolants_agree(e1):
    rhs, z0 = _e1_lane(e1, 2)
    lanes = integrate(rhs, 0.0, 2 * np.pi, z0)
    opaque = integrate(lambda t, z: rhs(t, z), 0.0, 2 * np.pi, z0)
    assert len(lanes.ts) == len(opaque.ts)
    mid = 0.5 * (opaque.ts[:-1] + opaque.ts[1:])
    z = opaque.eval(mid)
    assert np.all(np.abs(lanes.eval(mid) - z) <= 1e-12 * (1 + np.abs(z)))


def test_two_dimensional_start_is_rejected():
    with pytest.raises(IntegrationError, match="field evaluation failed "
                       r"\(.*1-dimensional.*\)"):
        integrate(rotation, 0.0, 1.0, [[1.0, 0.0]])


def test_too_small_rel_tol_warns_and_is_clamped():
    floor = 100 * np.finfo(float).eps
    with pytest.warns(UserWarning, match="rel_tol"):
        tiny = integrate(rotation, 0.0, 1.0, [1.0, 0.0],
                         IntegratorConfig(rel_tol=1e-17))
    clamped = integrate(rotation, 0.0, 1.0, [1.0, 0.0],
                        IntegratorConfig(rel_tol=floor))
    assert np.array_equal(tiny.ts, clamped.ts)
    assert np.array_equal(tiny.states, clamped.states)


def test_step_size_underflow_names_the_spacing():
    def blows_up(t, x):
        return np.array([np.nan if t > 0.5 else 1.0])

    with pytest.raises(IntegrationError) as err:
        integrate(blows_up, 0.0, 1.0, [0.0])
    assert err.value.reason == ("step failed (Required step size is less "
                                "than spacing between numbers.)")
    assert err.value.t == pytest.approx(0.5, abs=1e-6)


def test_failure_message_prints_a_plain_time():
    # opaque callables run the numpy kernel, whose step times are np.float64
    from epsode import flow_omega, system_from_callables
    blowup = system_from_callables(
        "blow-up", 1, 2 * np.pi, lambda t, x: np.zeros(1),
        lambda t, x: x ** 2 + 1.0, check_periodicity=False)
    with pytest.raises(IntegrationError) as err:
        flow_omega(blowup, 1.0, 0.0, [1.0])
    assert isinstance(err.value.t, np.floating)
    assert err.value.t == pytest.approx(np.pi / 4, abs=1e-6)
    assert str(err.value) == f"{err.value.reason} at t={float(err.value.t)!r}"
    assert "np.float64" not in str(err.value)


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, epsode.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_running_quadrature_of_cos_is_sin():
    nodes, _ = gauss_legendre_panels(0.0, 2 * np.pi)
    run = gauss_legendre_running(np.cos(nodes), 0.0, 2 * np.pi)
    assert np.max(np.abs(run - np.sin(nodes))) <= 1e-13



def test_running_quadrature_exact_below_rule_order():
    # the interpolant of x^7 on a panel's 8 nodes is x^7 itself, so only
    # rounding remains, relative to integrals up to 2^8/8 = 32
    nodes, _ = gauss_legendre_panels(-1.0, 2.0)
    run = gauss_legendre_running(nodes ** 7, -1.0, 2.0)
    assert np.max(np.abs(run - (nodes ** 8 - 1.0) / 8)) <= 32 * 1e-15
