import dataclasses

import numpy as np
import pytest

from epsode import (DEFAULT_CONFIG, IntegrationError, IntegratorConfig,
                    DefectField, defect_many, defect_profile, eta,
                    floquet_condition_A3, flow_omega, flow_omega_dense,
                    integrate, system_from_callables,
                    system_from_expressions)
from epsode.variational import _defect_profiles, augmented, flow_lanes

TWO_PI = 2 * np.pi


def make_sys(phi, psi=("0", "0"), k=2, params=None):
    return system_from_expressions("test", k, TWO_PI, phi, psi, params)


def test_zero_forcing_gives_zero_response(e1):
    sysd = system_from_expressions(
        "e1-nophi", 2, TWO_PI, ("0", "0"),
        ("-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)"))
    sol = eta(sysd, 1.0, [0.5, 0.2], eval_times=[-2.0, 0.0, 3.0, TWO_PI])
    assert np.max(np.abs(sol.values)) <= 1e-12


def test_pure_quadrature_case():
    sysd = make_sys(("cos(t)", "0"))
    sol = eta(sysd, 0.0, [0.3, -0.2], eval_times=[np.pi / 2, np.pi, -np.pi])
    assert np.allclose(sol.values[0], [1.0, 0.0], atol=1e-9)
    assert np.allclose(sol.values[1], [0.0, 0.0], atol=1e-9)
    assert np.allclose(sol.values[2], [0.0, 0.0], atol=1e-9)  # sin(-pi)


def test_anchor_value_is_exactly_zero(e1):
    sol = eta(e1, 2.0, [0.7, 0.1], eval_times=[2.0])
    assert np.array_equal(sol.values[0], np.zeros(2))


def test_eta_makes_no_dense_run(e1, monkeypatch):
    from epsode import variational

    def dense(*args, **kwargs):
        raise AssertionError("eta ran a dense integration")

    monkeypatch.setattr(variational, "integrate", dense)
    times = [-1.0, 0.0, 2.0, 3.5, TWO_PI]
    sol = eta(e1, 2.0, [0.7, 0.1], eval_times=times)
    assert sol.values.shape == (5, 2)
    assert np.array_equal(sol.values[2], np.zeros(2))
    assert np.array_equal(sol.times, times)


def test_eta_solution_is_a_record(e1):
    sol = eta(e1, 1.0, [0.7, 0.1], [0.0])
    assert [f.name for f in dataclasses.fields(sol)] == [
        "s", "xi", "x_s", "times", "values"]
    # x_s is the e1 flow at s = 1: r(t) = r0 / sqrt(r0^2 + (1 - r0^2)
    # e^{-2t}) and the angle advances by t
    r0, th0 = np.hypot(0.7, 0.1), np.arctan2(0.1, 0.7)
    r = r0 / np.sqrt(r0 ** 2 + (1 - r0 ** 2) * np.exp(-2.0))
    want = r * np.array([np.cos(th0 + 1.0), np.sin(th0 + 1.0)])
    assert np.max(np.abs(sol.x_s - want)) <= 1e-9


@pytest.mark.parametrize("s", [0.0, 1.5, 5.0])
def test_eta_period_defect_matches_defect_many(e1, s):
    # both routes run forward from 0, so they agree at the default
    # tolerances; at anchor 0 the period defect is defect_many's w(T)
    cfg = DEFAULT_CONFIG.tightened(1000.0)
    xi = np.array([0.8, -0.3])
    for c in (DEFAULT_CONFIG, cfg):
        at_T, at_0 = eta(e1, s, xi, [e1.T, 0.0], c).values
        d = defect_profile(e1, xi[None], [s], c)[0, 0]
        assert np.max(np.abs((at_T - at_0) - d)) <= 1e-9 * np.max(np.abs(d))
    if s == 0.0:
        assert np.array_equal(at_0, np.zeros(2))
        d = defect_many(e1, xi[None], cfg)[0]
        assert np.max(np.abs(at_T - d)) <= 1e-9 * np.max(np.abs(d))


@pytest.mark.parametrize("s", [0.0, 1.5, 5.0])
def test_eta_is_accurate_at_default_tolerances(e1, s):
    # one forward run from 0: no backward leg from s amplifies step errors
    # on the contracting field (the backward route was 8.8e-8 off at s = 5)
    xi = np.array([0.8, -0.3])
    times = [e1.T, 0.0, -1.0, 2.0, 3.5]
    ref = eta(e1, s, xi, times, DEFAULT_CONFIG.tightened(1000.0)).values
    got = eta(e1, s, xi, times).values
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("s", [1.5, 5.0])
def test_defect_profile_is_accurate_at_late_anchors(e1, s):
    # the profile runs forward only, as does eta, its tight reference
    tight = DEFAULT_CONFIG.tightened(1000.0)
    xi = np.array([[0.8, -0.3]])
    at_T, at_0 = eta(e1, s, xi[0], [e1.T, 0.0], tight).values
    ref = at_T - at_0
    assert np.linalg.norm(defect_profile(e1, xi, [s], tight)[0, 0] - ref) \
        <= 1e-8 * np.linalg.norm(ref)
    assert np.linalg.norm(defect_profile(e1, xi, [s])[0, 0] - ref) \
        <= 1e-8 * np.linalg.norm(ref)


def test_response_is_affine_in_forcing(e1):
    psi = ("-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)")
    s1 = system_from_expressions("p1", 2, TWO_PI, ("1", "0"), psi)
    s2 = system_from_expressions("p2", 2, TWO_PI, ("sin(t)*x2", "x1"), psi)
    xi = [0.8, 0.1]
    times = [0.0, 2.5, TWO_PI]
    v1 = eta(s1, 0.7, xi, times).values
    v2 = eta(s2, 0.7, xi, times).values
    for lam in (0.25, 0.5, 0.9):
        mix = tuple(
            f"{lam}*({a}) + {1 - lam}*({b})" for a, b in
            zip(("1", "0"), ("sin(t)*x2", "x1")))
        smix = system_from_expressions("mix", 2, TWO_PI, mix, psi)
        vmix = eta(smix, 0.7, xi, times).values
        assert np.max(np.abs(vmix - (lam * v1 + (1 - lam) * v2))) <= 1e-9


def test_defect_reduces_to_forcing_average_without_flow():
    sysd = make_sys(("cos(t)^2*x1", "sin(t)"))
    xi = np.array([0.8, -0.3])
    assert np.allclose(defect_many(sysd, xi[None, :])[0],
                       [TWO_PI * 0.4, 0.0], atol=1e-9)
    for s in (0.0, 1.5, 5.0):
        at_T, at_0 = eta(sysd, s, xi, [TWO_PI, 0.0]).values
        assert np.allclose(at_T - at_0, [TWO_PI * 0.4, 0.0], atol=1e-9)


def test_defect_zero_average_forcing():
    sysd = make_sys(("cos(t)", "0"))
    d = defect_many(sysd, np.array([[0.4, 0.4]]))[0]
    assert np.linalg.norm(d) <= 1e-10


def test_e1_boundary_defect_closed_form(e1):
    # on the unit circle the defect is radial with factor
    # (1 - e^{-4 pi}) (2 cos a + sin a) / 5 and zero tangential part
    c = (1 - np.exp(-4 * np.pi)) / 5
    for ang in (0.0, 1.0, 2.5, 4.2):
        xi = np.array([np.cos(ang), np.sin(ang)])
        d = defect_many(e1, xi[None, :])[0]
        radial = float(d @ xi)
        tangential = float(d @ [-np.sin(ang), np.cos(ang)])
        assert radial == pytest.approx(c * (2 * np.cos(ang) + np.sin(ang)),
                                       abs=1e-8)
        assert abs(tangential) <= 1e-9


def test_defect_field_caches(e1):
    fld = DefectField(e1)
    xi = np.array([1.0, 0.0])
    first = fld(xi)
    again = fld(xi)
    assert np.array_equal(first, again)
    many = fld.eval_many(np.array([xi, [0.0, 1.0]]))
    assert np.array_equal(many[0], first)


def test_profile_matches_direct_route(e1):
    pts = np.array([[np.cos(a), np.sin(a)] for a in (0.0, 1.3, 3.7)])
    s_grid = np.array([0.0, 1.0, 4.0, TWO_PI])
    prof = defect_profile(e1, pts, s_grid)
    for si, s in enumerate(s_grid):
        direct = np.array([np.subtract(*eta(e1, s, p, [TWO_PI, 0.0]).values)
                           for p in pts])
        scale = 1.0 + np.max(np.abs(direct))
        assert np.max(np.abs(prof[si] - direct)) <= 1e-8 * scale


def test_monodromy_zero_matrix():
    sysd = make_sys(("0", "0"))
    M = flow_lanes(sysd, 0.0, TWO_PI, [0.3, 0.3], S=np.eye(2),
                   tangents=2)[1][0]
    assert np.array_equal(M, np.eye(2))
    rep = floquet_condition_A3(sysd, flow_omega_dense(sysd, 0.0, TWO_PI,
                                                      [0.3, 0.3]), [0.0])
    assert np.array_equal(np.sort(rep.data["multipliers"][0].real), [1, 1])
    assert not rep.data["simple"][0]  # double multiplier 1
    assert rep.data["max_liouville_rel_err"] == 0.0


def test_monodromy_scalar_exponential():
    # y' = y over the period 1, whose only cycle is the equilibrium 0
    sysd = system_from_expressions("exp", 1, 1.0, ("0",), ("x1",))
    rep = floquet_condition_A3(sysd, flow_omega_dense(sysd, 0.0, 1.0, [0.0]),
                               [0.0])
    assert rep.data["multipliers"][0, 0].real == pytest.approx(np.e,
                                                               rel=1e-10)
    assert rep.data["max_liouville_rel_err"] <= 1e-10


def test_e1_cycle_multipliers(e1, e1_cycle):
    M = flow_lanes(e1, 0.0, TWO_PI, [1.0, 0.0], S=np.eye(2),
                   tangents=2)[1][0]
    mus = sorted(np.linalg.eigvals(M), key=lambda m: -abs(m))
    assert abs(mus[0] - 1.0) <= 1e-6
    assert abs(mus[1] - np.exp(-4 * np.pi)) <= 1e-7
    rep = floquet_condition_A3(e1, e1_cycle, [0.0])
    assert rep.data["max_liouville_rel_err"] <= 1e-6
    # A3 holds: a multiplier within 1e-6 of 1, and it is simple
    assert rep.verdict == "holds" and rep.data["simple"][0]
    assert rep.data["dist_to_one"][0] <= 1e-6


def test_monodromy_of_a_linear_periodic_system():
    # y' = A(t) y as psi with its Jacobian A(t); A is triangular, so the
    # multipliers are exp of the diagonal's integrals, -pi and -2 pi
    def A(t):
        return np.array([[np.cos(t) - 0.5, 1.0], [0.0, np.sin(t) - 1.0]])

    sysd = system_from_callables("linear", 2, TWO_PI,
                                 lambda t, y: np.zeros(2),
                                 psi=lambda t, y: A(t) @ y,
                                 psi_jac=lambda t, y: A(t))
    M = flow_lanes(sysd, 0.0, TWO_PI, [0.0, 0.0], S=np.eye(2),
                   tangents=2)[1][0]
    mus = np.sort(np.linalg.eigvals(M).real)
    assert mus == pytest.approx(np.exp([-TWO_PI, -np.pi]), rel=1e-8)
    assert np.linalg.det(M) == pytest.approx(np.exp(-3 * np.pi), rel=1e-8)


def test_floquet_condition_on_cycle(e1, e1_cycle):
    rep = floquet_condition_A3(e1, e1_cycle,
                               theta_grid=np.linspace(0, TWO_PI, 17))
    assert rep.verdict == "holds"
    for dist, gap in zip(rep.data["dist_to_one"], rep.data["gap"]):
        assert dist <= 1e-6
        assert gap == pytest.approx(1 - np.exp(-4 * np.pi), abs=1e-6)
    assert rep.data["max_liouville_rel_err"] <= 1e-6


def test_floquet_liouville_trace_from_one_field_call(e1, e1_cycle,
                                                     monkeypatch):
    from epsode import conditions
    calls = []
    real = conditions.lane_field

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(conditions, "lane_field", spy)
    rep = floquet_condition_A3(e1, e1_cycle,
                               theta_grid=np.linspace(0, TWO_PI, 17))
    assert len(rep.data["theta"]) == 17 and len(calls) == 1
    assert rep.data["max_liouville_rel_err"] <= 1e-6


def test_floquet_rejects_nonperiodic_input(e1):
    arc = integrate(e1.psi, 0.0, TWO_PI, [0.5, 0.0])
    with pytest.raises(ValueError, match="periodic"):
        floquet_condition_A3(e1, arc)


def test_floquet_trivial_field_not_simple():
    sysd = make_sys(("1", "0"))
    cycle = flow_omega_dense(sysd, 0.0, TWO_PI, [0.3, 0.3])
    rep = floquet_condition_A3(sysd, cycle,
                               theta_grid=np.linspace(0, TWO_PI, 5))
    assert rep.verdict == "fails"  # identity monodromy: double multiplier 1
    for dist, gap in zip(rep.data["dist_to_one"], rep.data["gap"]):
        assert dist <= 1e-12 and gap <= 1e-12


def test_multiplier_set_independent_of_phase(e1, e1_cycle):
    rep = floquet_condition_A3(e1, e1_cycle,
                               theta_grid=np.array([0.0, 1.3, 4.9]))
    ref = np.sort(np.abs(rep.data["multipliers"][0]))
    for mus in rep.data["multipliers"][1:]:
        assert np.max(np.abs(np.sort(np.abs(mus)) - ref)) <= 1e-8


def test_backward_times_from_one_anchor_run(e3):
    sol = eta(e3, 0.0, [2.0], eval_times=[-TWO_PI, -2 * TWO_PI])
    # psi = 0: response is the running integral of the forcing
    assert sol.values[0][0] == pytest.approx(2.0 * TWO_PI, rel=1e-9)
    assert sol.values[1][0] == pytest.approx(4.0 * TWO_PI, rel=1e-9)


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("name", ["e1", "e2"])
def test_augmented_lanes_match_single_lane(name, eps, request):
    sysd = request.getfixturevalue(name)
    # the callable copy runs the generic lane loop, sysd the generated lanes
    loop = system_from_callables(name, sysd.k, sysd.T, sysd.phi, sysd.psi,
                                 sysd.phi_jac, sysd.psi_jac)
    k = sysd.k
    drift = make_sys(("sin(t)*x2", "x1^2"), psi=("-x2", "x1"))
    rng = np.random.default_rng(5)
    # 2 to 8 lanes run the math binding lane by lane, 9 lanes numpy
    for n in (5, 2, 8, 9):
        X = rng.uniform(-1.5, 1.5, (n, k))
        S = rng.normal(size=(n, k, k + 2))
        values = []
        for s in (sysd, loop):
            forcings = (s, drift)
            rhs, pack, unpack = augmented(s, n, eps, tangents=k,
                                          forcings=forcings)
            rhs1, pack1, _ = augmented(s, 1, eps, tangents=k,
                                       forcings=forcings)
            z = pack(X, S)
            Xb, Sb = unpack(z)
            assert np.array_equal(Xb, X) and np.array_equal(Sb, S)
            for t in (0.0, 0.7, 4.1, np.linspace(0.0, 4.1, n)):
                ts = np.broadcast_to(t, (n,))
                many = rhs(t, z)
                single = np.concatenate([rhs1(ts[i], pack1(X[i], S[i]))
                                         for i in range(n)])
                assert np.max(np.abs(many - single)) <= 1e-14
                values.append(many)
        half = len(values) // 2
        for generated, looped in zip(values[:half], values[half:]):
            assert np.max(np.abs(generated - looped)) <= 1e-14


def test_lane_code_is_generated_once_per_variant(monkeypatch):
    import epsode.variational as var

    source, calls = var._lane_source, []

    def counting(*args):
        calls.append(args)
        return source(*args)

    monkeypatch.setattr(var, "_lane_source", counting)
    sysd = make_sys(("1", "0"), psi=("-x2", "x1"))
    X = np.array([[1.0, 0.0], [0.5, 0.5]])
    for _ in range(2):
        flow_lanes(sysd, 0.0, 1.0, X, eps=1e-2, forcings=(sysd,))
    assert len(calls) == 1
    flow_lanes(sysd, 0.0, 1.0, X[0], eps=1e-2, forcings=(sysd,))
    assert len(calls) == 1  # one source serves both bindings


@pytest.mark.parametrize("X", [[0.5, 0.0], [[0.5, 0.0], [1.0, 0.0]]],
                         ids=["one-lane", "two-lanes"])
def test_fractional_power_of_negative_value_stops_the_run(X):
    # x1 = 0.5 - t turns negative at t = 0.5, where x1^0.5 has no real value
    sysd = system_from_expressions("p", 2, TWO_PI, ("0", "0"),
                                   ("-1", "x1^0.5"), check_periodicity=False)
    with pytest.raises(IntegrationError) as err:
        flow_lanes(sysd, 0.0, 1.0, X)
    assert err.value.t == pytest.approx(0.5, abs=1e-3)


def test_log_domain_error_is_the_same_for_one_and_two_lanes():
    # x1 = 0.5 - t reaches log's domain edge at t = 0.5; batches of up to
    # _MATH_MAX_LANES lanes run the same math binding as one lane
    sysd = system_from_expressions("p", 2, TWO_PI, ("0", "0"),
                                   ("-1", "log(x1)"), check_periodicity=False)
    failures = []
    for X in ([0.5, 0.0], [[0.5, 0.0], [1.0, 0.0]]):
        with pytest.raises(IntegrationError) as err:
            flow_lanes(sysd, 0.0, 1.0, X)
        failures.append(err.value)
    for fail in failures:
        assert fail.reason == "field evaluation failed (math domain error)"
    assert failures[0].t == pytest.approx(failures[1].t, abs=1e-6)
    assert failures[0].t == pytest.approx(0.5, abs=1e-6)


def test_trial_stage_overflow_stops_up_to_eight_lanes():
    # on the solution x1 = exp(-t) the exp term is at most 1e-300, but once
    # x1 is well below the absolute tolerance a large trial step overshoots
    # it below zero and exp overflows; the math binding of up to
    # _MATH_MAX_LANES lanes raises there as one lane does, while the numpy
    # binding of wider batches returns inf, which rejects the trial step
    sysd = system_from_expressions("p", 2, TWO_PI, ("0", "0"),
                                   ("-x1 + 1e-300*exp(-1e15*x1)", "0"),
                                   check_periodicity=False)
    cfg = IntegratorConfig(max_steps=5000)
    failures = []
    for n in (1, 2):
        with pytest.raises(IntegrationError) as err:
            flow_lanes(sysd, 0.0, 100.0, [[1.0, 0.0]] * n, cfg)
        failures.append(err.value)
    for fail in failures:
        assert fail.reason == "field evaluation failed (math range error)"
    assert failures[0].t == pytest.approx(failures[1].t, abs=1e-3)
    X, _ = flow_lanes(sysd, 0.0, 100.0, [[1.0, 0.0]] * 9, cfg)
    assert np.all(np.abs(X) <= 1e-12)


def test_defect_profile_forcings_share_one_run(e2):
    other = system_from_expressions("other", 2, TWO_PI, ("sin(t)*x2", "x1"),
                                    ("-x2", "x1"))
    pts = np.array([[np.cos(a), np.sin(a)] for a in (0.0, 1.3, 3.7)])
    s_grid = np.array([0.0, 1.0, 4.0, TWO_PI])
    both = _defect_profiles(e2, (e2, other), pts, s_grid, DEFAULT_CONFIG)
    for sysd, prof in zip((e2, other), both):
        alone = defect_profile(sysd, pts, s_grid)
        assert np.max(np.abs(prof - alone)) <= 1e-9 * (1 + np.max(np.abs(alone)))


def test_floquet_rejects_time_dependent_psi():
    # x(t) = R(t + sin t) x0 is 2 pi-periodic, so only the t-dependence of
    # psi can be the reason to refuse
    sysd = make_sys(("0", "0"), psi=("-x2*(1 + cos(t))", "x1*(1 + cos(t))"))
    cycle = flow_omega_dense(sysd, 0.0, TWO_PI, [1.0, 0.0])
    with pytest.raises(ValueError, match="depend on t"):
        floquet_condition_A3(sysd, cycle)


def rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def test_flow_lanes_per_lane_times_rotate_exactly(e2):
    # psi of e2 is (-x2, x1), so Omega(t1, t0, x) = R(t1 - t0) x
    t0 = np.array([0.0, 1.0, 5.0, -2.0, 3.0, 3.0, 10.0])
    t1 = np.array([2.0, -1.0, 0.5, 4.0, 3.0, 7.0, -3.0])
    X = np.random.default_rng(3).uniform(-1.5, 1.5, (7, 2))
    out, S = flow_lanes(e2, t0, t1, X)
    assert S.shape == (7, 2, 0)
    for i in range(7):
        assert np.max(np.abs(out[i] - rotation(t1[i] - t0[i]) @ X[i])) <= 1e-9
    assert np.array_equal(out[4], X[4])  # the lane with t0 == t1
    assert np.array_equal(flow_lanes(e2, t0, t0, X)[0], X)
    # fractions are checkpoints of the same run: u = 1 keeps the end bits
    u = np.array([0.25, 1.0, 0.0, 0.6])
    at, S = flow_lanes(e2, t0, t1, X, fractions=u)
    assert at.shape == (4, 7, 2) and S.shape == (4, 7, 2, 0)
    assert np.array_equal(at[1], out) and np.array_equal(at[2], X)
    for j in (0, 3):
        for i in range(7):
            want = rotation(u[j] * (t1[i] - t0[i])) @ X[i]
            assert np.max(np.abs(at[j, i] - want)) <= 1e-9
    # lanes that share their times integrate in t, with the same contract
    shared = flow_lanes(e2, 1.0, 4.0, X, fractions=u)[0]
    assert np.array_equal(shared[1], flow_lanes(e2, 1.0, 4.0, X)[0])
    assert np.array_equal(shared[2], X)
    for j in (0, 3):
        want = (rotation(3.0 * u[j]) @ X.T).T
        assert np.max(np.abs(shared[j] - want)) <= 1e-9


def test_flow_lanes_time_dependent_psi_matches_flow_omega():
    psi = ("-x2*(1 + 0.5*cos(t)) + 0.2*sin(t)*x1",
           "x1 - 0.3*x2^3 + 0.1*cos(2*t)")

    def psi_fn(t, x):
        return np.array([-x[1] * (1 + 0.5 * np.cos(t)) + 0.2 * np.sin(t) * x[0],
                         x[0] - 0.3 * x[1] ** 3 + 0.1 * np.cos(2 * t)])

    built = (system_from_expressions("tpsi", 2, TWO_PI, ("0", "0"), psi),
             system_from_callables("tpsi", 2, TWO_PI,
                                   lambda t, x: np.zeros(2), psi_fn))
    t0 = np.array([0.3, 4.0, 2.0, 6.0, 1.0])
    t1 = np.array([3.1, 0.5, 2.0, -1.0, 9.0])
    X = np.random.default_rng(8).uniform(-1.0, 1.0, (5, 2))
    for sysd in built:
        out = flow_lanes(sysd, t0, t1, X)[0]
        for i in range(5):
            ref = flow_omega(sysd, t1[i], t0[i], X[i])
            assert np.max(np.abs(out[i] - ref)) <= 1e-9


def test_flow_lanes_scalar_times_equal_integrate(e1):
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.0, 1.0, (3, 2))
    S = rng.normal(size=(3, 2, 3))
    rhs, pack, unpack = augmented(e1, 3, 1e-2, tangents=2, forcings=(e1,))
    ref = unpack(integrate(rhs, 0.5, 4.0, pack(X, S)).endpoint)
    got = flow_lanes(e1, 0.5, 4.0, X, S=S, eps=1e-2, tangents=2,
                     forcings=(e1,))
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_flow_lanes_failure_names_the_common_variable(e1):
    # backward from t = 2 pi, the e1 orbit of (1.5, 0) blows up near t = 5.99
    with pytest.raises(IntegrationError) as err:
        flow_lanes(e1, np.array([TWO_PI, np.pi]), 0.0,
                   np.array([[1.5, 0.0], [0.5, 0.0]]))
    msg = str(err.value)
    assert " at u=0.04" in msg and "t0[i] + u*(t1[i] - t0[i])" in msg
    assert " at t=" not in msg
    assert err.value.t[0] == pytest.approx(5.99, abs=0.01)
    assert err.value.t[1] == pytest.approx(err.value.t[0] / 2)


def test_flow_lanes_with_no_lanes_takes_no_step(e1):
    X, S = flow_lanes(e1, 0.0, 1.0, np.empty((0, 2)))
    assert X.shape == (0, 2) and S.shape == (0, 2, 0)


@pytest.mark.parametrize("t0,t1", [(0.0, np.empty(0)), (np.empty(0), 1.0),
                                   (np.empty(0), np.empty(0))],
                         ids=["t1-per-lane", "t0-per-lane", "both-per-lane"])
def test_flow_lanes_with_no_lanes_and_lane_times_takes_no_step(e1, t0, t1):
    X, S = flow_lanes(e1, t0, t1, np.empty((0, 2)))
    assert X.shape == (0, 2) and S.shape == (0, 2, 0)
    X, S = flow_lanes(e1, t0, t1, np.empty((0, 2)), tangents=2)
    assert X.shape == (0, 2) and S.shape == (0, 2, 2)
