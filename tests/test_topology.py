import numpy as np
import pytest

from epsode import (PlanarRegion, ProductRegion, accumulated_angle, contract,
                    product_degree, winding_number)


def complex_square(P):
    return np.stack([P[:, 0] ** 2 - P[:, 1] ** 2, 2 * P[:, 0] * P[:, 1]],
                    axis=1)


def complex_cube(P):
    x, y = P[:, 0], P[:, 1]
    return np.stack([x ** 3 - 3 * x * y ** 2, 3 * x ** 2 * y - y ** 3], axis=1)


def test_region_validation():
    with pytest.raises(ValueError, match="oriented"):
        PlanarRegion.polygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise
    star = [(np.cos(4 * np.pi * k / 5), np.sin(4 * np.pi * k / 5))
            for k in range(5)]  # pentagram: positive area, self-crossing
    with pytest.raises(ValueError, match="self-intersect"):
        PlanarRegion.polygon(star)
    PlanarRegion.circle(0, 0, 1, 64)  # fine


@pytest.mark.parametrize("lo, hi", [((0, 0), (0, 1)), ((0, 1), (1, 0)),
                                    ((1, 1), (0, 0))])
def test_box_needs_lo_below_hi(lo, hi):
    # a box is not checked for orientation, so flat or flipped corners are
    # refused up front
    with pytest.raises(ValueError, match="lo < hi"):
        PlanarRegion.box(lo, hi)


def test_identity_degree_one(disk):
    rep = winding_number(lambda P: P, disk)
    assert rep.degree == 1 and not rep.refined


@pytest.mark.parametrize("n0", [1, 2])
def test_too_few_start_samples_raise(disk, n0):
    # one sample's increment is 0, and z^2 maps the two samples 1 and -1 to
    # the same value, so both would read degree 0 without refining
    with pytest.raises(ValueError, match="n0 must be at least 3"):
        winding_number(complex_square, disk, n0=n0)


def test_three_start_samples_suffice(disk):
    assert winding_number(complex_square, disk, n0=3).degree == 2


def test_constant_degree_zero(disk):
    rep = winding_number(lambda P: np.tile([1.0, 0.0], (len(P), 1)), disk)
    assert rep.degree == 0


def test_complex_square_degree_two(disk):
    # brute-force oracle: dense angle accumulation at 1e5 samples
    us = np.arange(100_000) / 100_000.0
    pts = disk.boundary_points(us=us)
    oracle = accumulated_angle(complex_square(pts)) / (2 * np.pi)
    assert round(oracle) == 2
    rep = winding_number(complex_square, disk)
    assert rep.degree == 2
    assert rep.residue <= 0.1


def test_negated_identity_degree(disk):
    rep = winding_number(lambda P: -P, disk)
    assert rep.degree == 1  # planar antipodal map is a rotation


def test_cube_degree_three(disk):
    assert winding_number(complex_cube, disk).degree == 3


def test_field_vanishing_detected(disk):
    # radial field with a sign flip: vanishes at (0, +-1)
    def F(P):
        return P * P[:, :1]

    rep = winding_number(F, disk)
    assert rep.degree is None
    assert rep.failure.startswith("field vanishes on the boundary near")
    assert abs(rep.witness["point"][0]) <= 1e-4

    # the same zeros, scaled so that the one at larger u (0.75) has the
    # smaller norm: the witness is still the first zero in u
    def G(P):
        return P * (P[:, :1] * np.where(P[:, 1:] > 0, 10.0, 1.0))

    norms = np.linalg.norm(G(disk.boundary_points(us=np.array([0.25, 0.75]))),
                           axis=1)
    assert 0 < norms[1] < norms[0] < 1e-9
    rep = winding_number(G, disk)
    assert rep.degree is None
    assert rep.witness["u"] == 0.25
    assert rep.witness["point"][1] == pytest.approx(1.0)
    assert rep.witness["norm"] == norms[0]


def _off_grid_point_field(radius, calls):
    # F(P) = P - c with c at an angle between the 512 boundary samples
    a = 2 * np.pi * 0.1234567
    c = radius * np.array([np.cos(a), np.sin(a)])

    def F(P):
        calls.append(len(P))
        return P - c

    return F, c


def test_boundary_zero_is_located_in_few_rounds(disk):
    calls = []
    F, c = _off_grid_point_field(1.0, calls)
    rep = winding_number(F, disk)
    assert rep.degree is None
    assert np.linalg.norm(rep.witness["point"] - c) <= 1e-9
    assert len(calls) <= 4  # bisection alone needs 24


@pytest.mark.parametrize("radius, degree", [(1 - 1e-6, 1), (1 + 1e-6, 0)])
def test_near_boundary_zero_resolved_in_few_rounds(disk, radius, degree):
    calls = []
    F, _ = _off_grid_point_field(radius, calls)
    rep = winding_number(F, disk)
    assert rep.degree == degree and rep.refined
    assert abs(rep.min_field_norm - 1e-6) <= 1e-8
    assert len(calls) <= 5  # bisection alone needs 14


def test_refinement_cap():
    disk = PlanarRegion.circle(0, 0, 1, 8)
    rep = winding_number(complex_square, disk, n0=4, max_samples=6)
    assert rep.degree is None
    assert rep.failure == "no convergence with 4 boundary samples (cap 6)"


def test_field_not_finite_stops_in_the_first_round(disk):
    # log(x1) is nan on the left half of the circle; no refinement settles
    # the angle of nan, so the first round names the first such sample
    calls = []

    def F(P):
        calls.append(len(P))
        with np.errstate(invalid="ignore"):
            return np.stack([np.log(P[:, 0]) + 5, P[:, 1]], axis=1)

    rep = winding_number(F, disk, n0=64)
    assert rep.degree is None and "not finite" in rep.failure
    assert calls == [64]
    assert rep.witness["u"] == 17 / 64  # cos(2 pi u) < 0 from u > 1/4 on
    assert rep.witness["point"][0] < 0


def test_doubling_cap_does_not_change_result(disk):
    a = winding_number(complex_square, disk, n0=8, max_samples=2 ** 20)
    b = winding_number(complex_square, disk, n0=8, max_samples=2 ** 21)
    assert a.degree == b.degree == 2
    assert a.refined  # n0=8 forces refinement for degree 2


def test_reparametrization_invariance():
    # the same square described as a polygon and as a curve
    poly = PlanarRegion.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])

    def sq_curve(u):
        return poly.boundary_points(us=u)

    curve = PlanarRegion(curve=sq_curve, star_center=(0.0, 0.0))
    d1 = winding_number(complex_square, poly).degree
    d2 = winding_number(complex_square, curve).degree
    assert d1 == d2 == 2


def test_orientation_reversal_negates_angle(disk):
    pts = disk.boundary_points(256)
    vals = complex_square(pts)
    total = accumulated_angle(vals)
    assert accumulated_angle(vals[::-1]) == pytest.approx(-total, abs=1e-12)


def test_homotopy_invariance_between_nonvanishing_fields(disk):
    # |z^2| = 1 on the boundary, shift by 0.3 keeps the homotopy nonvanishing
    def F(lam):
        return lambda P: complex_square(P) + lam * np.array([0.3, 0.0])

    degs = {winding_number(F(lam), disk).degree
            for lam in np.linspace(0, 1, 7)}
    assert degs == {2}


def test_product_degrees():
    d1 = PlanarRegion.circle(0, 0, 1, 128)
    d2 = PlanarRegion.circle(0, 0, 2, 128)
    prod = ProductRegion([d1, d2])
    rep = product_degree([lambda P: P, lambda P: P], prod)
    assert rep.degree == 1
    rep = product_degree(
        [complex_square, lambda P: np.tile([1.0, 0.0], (len(P), 1))], prod)
    assert rep.degree == 0
    single = ProductRegion([d1])
    assert product_degree([complex_square], single).degree \
        == winding_number(complex_square, d1).degree


def test_product_degree_returns_the_failing_factors_report():
    d1 = PlanarRegion.circle(0, 0, 1, 128)
    d2 = PlanarRegion.circle(0, 0, 2, 128)

    def through_two(P):  # vanishes at (2, 0), the sample u = 0 of d2
        return P - np.array([2.0, 0.0])

    rep = product_degree([lambda P: P, through_two],
                         ProductRegion([d1, d2]))
    alone = winding_number(through_two, d2)
    assert rep.degree is None and rep.failure == alone.failure
    assert rep.witness["u"] == 0.0 and rep.witness["norm"] == 0.0
    assert np.array_equal(rep.witness["point"], [2.0, 0.0])
    # a first factor that stops ends the product before the second count
    calls = []

    def identity(P):
        calls.append(len(P))
        return P

    rep = product_degree([through_two, identity], ProductRegion([d2, d1]))
    assert rep.degree is None and rep.witness["u"] == 0.0 and calls == []


def test_contract_identity_and_scaling():
    disk = PlanarRegion.circle(0, 0, 1, 64)
    same = contract(disk, 0.0)
    assert np.allclose(same.boundary_points(16), disk.boundary_points(16))
    half = contract(disk, 0.5)
    assert np.allclose(np.linalg.norm(half.boundary_points(32), axis=1), 0.5)
    grown = contract(disk, -0.1)
    assert np.allclose(np.linalg.norm(grown.boundary_points(32), axis=1), 1.1)


def test_contract_polygon_and_errors():
    sq = PlanarRegion.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    small = contract(sq, 0.5)
    assert np.allclose(np.abs(small.vertices), 0.5)
    no_center = PlanarRegion(
        curve=lambda u: np.stack([np.cos(2 * np.pi * u),
                                  np.sin(2 * np.pi * u)], axis=-1))
    with pytest.raises(ValueError, match="star center"):
        contract(no_center, 0.2)
    with pytest.raises(ValueError, match="delta"):
        contract(sq, 1.0)


def test_contract_skips_the_check_it_cannot_fail(monkeypatch):
    # a homothety of positive scale keeps a simple, positive boundary so
    box = PlanarRegion.box((0, 0), (1, 2))
    sq = PlanarRegion.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    curve = PlanarRegion(curve=PlanarRegion.circle(0, 0, 1, 64).curve,
                         star_center=(0.0, 0.0))
    calls = []
    monkeypatch.setattr(PlanarRegion, "_validate",
                        lambda self: calls.append(self))
    small_box, small_sq = contract(box, 0.5), contract(sq, 0.5)
    small_curve = contract(curve, 0.5)
    assert calls == []
    assert np.array_equal(small_box.vertices, [(0.25, 0.5), (0.75, 0.5),
                                               (0.75, 1.5), (0.25, 1.5)])
    assert np.array_equal(small_sq.vertices, 0.5 * sq.vertices)
    assert np.array_equal(small_curve.boundary_points(16),
                          0.5 * curve.boundary_points(16))


def test_membership_and_distance(disk):
    assert disk.contains([0.2, 0.3])
    assert not disk.contains([1.2, 0.0])
    d = disk.distance_to_boundary(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert d[0] == pytest.approx(1.0, abs=1e-4)
    assert d[1] == pytest.approx(0.5, abs=1e-4)
    # between two boundary samples of the 512-gon: the circle, not the polygon
    a = np.pi / 512
    p = 0.99 * np.array([[np.cos(a), np.sin(a)]])
    assert disk.distance_to_boundary(p)[0] == pytest.approx(0.01, abs=1e-12)
    w = disk.winding_around(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert list(w) == [1, 0]


def test_circle_answers_from_its_own_center():
    disk = PlanarRegion.circle(0, 0, 1, 512)
    disk.star_center = np.array([0.5, 0.0])  # a star center, not the center
    assert disk.distance_to_boundary(np.zeros((1, 2)))[0] == 1.0
    assert disk.contains([-0.95, 0.0]) and not disk.contains([1.2, 0.0])
    w = disk.winding_around(np.array([[0.0, 0.0], [-0.95, 0.0], [2.0, 0.0]]))
    assert list(w) == [1, 1, 0]


def test_circle_membership_is_the_disk():
    # the exact disk, not the 16-gon: a point just inside the circle lies
    # outside the polygon through its 16 samples
    disk = PlanarRegion.circle(1, -2, 3, 16)
    a = np.pi / 16
    inside = np.array([1.0, -2.0]) + 2.99 * np.array([np.cos(a), np.sin(a)])
    assert disk.contains(inside)
    rng = np.random.default_rng(5)
    P = rng.uniform(-4, 6, (200, 2))
    far = np.abs(np.linalg.norm(P - [1, -2], axis=1) - 3) > 0.1
    polygon = PlanarRegion(curve=disk.curve, n_hint=512)
    assert np.array_equal(disk.winding_around(P[far]),
                          polygon.winding_around(P[far]))


def test_circle_skips_the_pairwise_check(monkeypatch):
    from epsode import topology
    calls = []
    real = topology._segments_intersect

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(topology, "_segments_intersect", counting)
    PlanarRegion.circle(0, 0, 1, 512)
    contract(PlanarRegion.circle(0, 0, 1, 512), 0.5)
    assert calls == []
    PlanarRegion.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert len(calls) == 1


@pytest.mark.parametrize("r, n, word", [
    (-1.0, 512, "radius r"), (0.0, 512, "radius r"), (np.inf, 512, "radius r"),
    (np.nan, 512, "radius r"), (1.0, 2, "n >= 3"), (1.0, 0, "n >= 3")])
def test_circle_radius_and_samples_are_checked(r, n, word):
    with pytest.raises(ValueError, match=word):
        PlanarRegion.circle(0, 0, r, n)


def test_contract_keeps_a_circle_a_circle():
    disk = PlanarRegion.circle(2, 0, 1, 512)
    half = contract(disk, 0.5)
    assert half.distance_to_boundary(np.array([[2.0, 0.0]]))[0] == 0.5
    assert half.n_hint == 512 and np.array_equal(half.star_center, [2, 0])
    # about another star center the center moves too: c + s (m - c)
    disk.star_center = np.array([2.5, 0.0])
    moved = contract(disk, 0.5)
    assert np.array_equal(moved.star_center, [2.5, 0.0])
    d = moved.distance_to_boundary(np.array([[2.25, 0.0], [2.25, 0.5]]))
    assert d[0] == 0.5 and d[1] == 0.0
    assert moved.contains([1.8, 0.0]) and not moved.contains([1.7, 0.0])
    grown = contract(PlanarRegion.circle(0, 0, 1, 64), -0.1)
    assert grown.distance_to_boundary(np.zeros((1, 2)))[0] == \
        pytest.approx(1.1, rel=1e-15)


def test_product_region_membership():
    prod = ProductRegion([PlanarRegion.circle(0, 0, 1, 64),
                          PlanarRegion.circle(0, 0, 2, 64)])
    assert prod.k == 4
    assert prod.contains([0.1, 0.1, 1.0, 1.0])
    assert not prod.contains([0.1, 0.1, 2.5, 0.0])
    d = prod.distance_to_boundary(np.array([[0.0, 0.0, 0.0, 0.0]]))
    assert d[0] == pytest.approx(1.0, abs=1e-12)
