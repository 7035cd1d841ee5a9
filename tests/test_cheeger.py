import math

import numpy as np
import pytest

from cheegerlab.arc_geometry import (
    Arc,
    ArcCurve,
    FREE,
    INNER_JUNCTION,
    Point,
    Segment,
    curve_length,
    signed_area,
)
from cheegerlab import cheeger
from cheegerlab.cheeger import (
    ArcDomain,
    ConvexPolygon,
    cheeger_convex,
    cheeger_domain,
    class_a_violations,
    convex_hull,
    hexagon_constant,
    inner_cheeger_boundary,
    inner_parallel_polygon,
    random_class_a_domain,
    random_convex_polygon,
    regular_polygon,
    structure_report,
)
from cheegerlab.errors import ValidationError
from cheegerlab.partition_optimizer import SeedConfiguration, hex_lattice_seeds, power_diagram_cells
from oracles import clean_ring_loop, polygon_cheeger_bisection, polygon_cheeger_closed_form

PI = math.pi
SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])


def _random_polygons():
    rng = np.random.default_rng(17)
    return [random_convex_polygon(rng, 3, 12) for _ in range(40)]


def _thin_polygons():
    """Ellipse-like polygons of aspect 4 to 150, evenly and randomly sampled."""
    rng = np.random.default_rng(3)
    polys = []
    for ecc in (4.0, 20.0, 150.0):
        for n in (7, 16, 33):
            for ang in (0.3 + 2 * PI * np.arange(n) / n, np.sort(rng.uniform(0.0, 2 * PI, n))):
                polys.append(ConvexPolygon(convex_hull(np.column_stack([ecc * np.cos(ang), np.sin(ang)]))))
    return polys


def _lattice_cells():
    tri = regular_polygon(3, area=1.0)
    return power_diagram_cells(SeedConfiguration(hex_lattice_seeds(64, tri), np.zeros(64)), tri)


class TestInnerParallelPolygon:
    def test_square_quarter(self):
        inner = inner_parallel_polygon(SQUARE, 0.25)
        assert inner.area == pytest.approx(0.25, abs=1e-12)
        assert inner.perimeter == pytest.approx(2.0, abs=1e-12)

    def test_zero_is_identity(self):
        assert inner_parallel_polygon(SQUARE, 0.0) is SQUARE

    def test_triangle_at_inradius_is_empty(self):
        tri = regular_polygon(3, area=1.0)
        inradius = 3.0 ** -0.75
        assert inner_parallel_polygon(tri, inradius) is None
        assert inner_parallel_polygon(tri, inradius * 0.99) is not None

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            inner_parallel_polygon(SQUARE, -0.1)


class TestCheegerConvex:
    def test_unit_square(self):
        # closed-form root of (1 - 2r)^2 = pi r^2 gives h = 2 + sqrt(pi)
        res = cheeger_convex(SQUARE)
        assert res.h == pytest.approx(2.0 + math.sqrt(PI), abs=1e-11)
        assert res.h * res.r == pytest.approx(1.0, abs=1e-13)
        assert res.residual < 1e-12

    def test_unit_area_hexagon(self):
        res = cheeger_convex(regular_polygon(6, area=1.0))
        assert res.h == pytest.approx(hexagon_constant(), abs=1e-9)

    def test_disk_as_256gon(self):
        radius = 2.0
        res = cheeger_convex(regular_polygon(256, area=PI * radius * radius))
        assert res.h == pytest.approx(2.0 / radius, abs=1e-3)

    def test_closed_form_oracle_on_regular_polygons(self):
        for n in (3, 4, 5, 6, 8, 12):
            poly = regular_polygon(n, area=2.0)
            assert cheeger_convex(poly).h == pytest.approx(
                polygon_cheeger_closed_form(poly.vertices), abs=1e-10
            )

    def test_scaling_law(self):
        rng = np.random.default_rng(5)
        poly = random_convex_polygon(rng)
        lam = 2.5
        h1 = cheeger_convex(poly).h
        h2 = cheeger_convex(poly.scaled(lam)).h
        assert h2 == pytest.approx(h1 / lam, rel=1e-11)

    @pytest.mark.parametrize("polygons", [_random_polygons, _thin_polygons, _lattice_cells],
                             ids=["random", "thin", "lattice64"])
    def test_bisection_oracle(self, polygons):
        polys = polygons()
        results = [cheeger_convex(p) for p in polys]
        for poly, res in zip(polys, results):
            assert res.h == pytest.approx(polygon_cheeger_bisection(poly), rel=1e-11)
            assert 1 <= res.iterations <= len(poly.vertices) - 2
        # collapse events are exercised: some polygon needs more than one solve
        assert any(res.iterations > 1 for res in results)

    @pytest.mark.parametrize("lam", [1e-8, 1e-4, 1e4, 1e8])
    def test_rigid_motion_and_dilation_invariance(self, lam):
        ang = np.linspace(0.0, 2 * PI, 40, endpoint=False)
        thin = ConvexPolygon(np.column_stack([30.0 * np.cos(ang), np.sin(ang)]))
        for poly in _random_polygons()[:10] + [thin]:
            h = cheeger_convex(poly).h
            for theta in (0.7, 2.9):
                rot = np.array([[math.cos(theta), -math.sin(theta)],
                                [math.sin(theta), math.cos(theta)]])
                moved = ConvexPolygon((poly.vertices @ rot.T + [12.5, -7.25]) * lam)
                assert cheeger_convex(moved).h * lam == pytest.approx(h, rel=1e-12)

    def test_large_scale_square(self):
        assert cheeger_convex(SQUARE.scaled(1e6)).h == pytest.approx(
            (2.0 + math.sqrt(PI)) / 1e6, rel=1e-14
        )

    def test_translated_square(self):
        res = cheeger_convex(ConvexPolygon(SQUARE.vertices + 1e8))
        assert res.h == pytest.approx(2.0 + math.sqrt(PI), rel=1e-14)

    def test_monotone_under_inclusion(self):
        outer = ConvexPolygon([[0, 0], [3, 0], [3, 2], [0, 2]])
        inner = ConvexPolygon([[0.5, 0.2], [2.5, 0.2], [2.5, 1.7], [0.5, 1.7]])
        assert cheeger_convex(inner).h > cheeger_convex(outer).h

    def test_defining_function_strictly_decreasing(self):
        poly = regular_polygon(5, area=1.3)
        ts = np.linspace(0.01, 0.3, 12)
        vals = []
        for t in ts:
            inner = inner_parallel_polygon(poly, t)
            area = inner.area if inner is not None else 0.0
            vals.append(area - PI * t * t)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_boundary_is_class_a(self):
        dom = cheeger_domain(SQUARE)
        assert structure_report(dom).is_class_A

    def test_cheeger_set_built_once_on_demand(self, call_counts):
        counts = call_counts(cheeger, "_rounded_polygon")
        res = cheeger_convex(regular_polygon(5, area=2.0))
        assert counts == {"_rounded_polygon": 0}
        boundary, roles = res.cheeger_set_boundary, res.roles
        assert res.cheeger_set_boundary is boundary and res.roles is roles
        assert counts == {"_rounded_polygon": 1}
        assert len(roles) == len(boundary.edges) == 2 * len(res.core)


class TestHexagonConstant:
    def test_value(self):
        assert hexagon_constant() == pytest.approx(3.6336636, abs=1e-7)

    def test_square_identity(self):
        lhs = hexagon_constant() ** 2
        rhs = PI + 2.0 * math.sqrt(3.0) + 2.0 * math.sqrt(PI) * 12.0 ** 0.25
        assert abs(lhs - rhs) < 1e-12

    def test_solver_cross_check(self):
        h = cheeger_convex(regular_polygon(6, area=1.0)).h
        assert abs(h - hexagon_constant()) < 1e-9


class TestInnerCheegerBoundary:
    def test_square_gamma_r(self):
        dom = cheeger_domain(SQUARE)
        off = inner_cheeger_boundary(dom)
        r = dom.r
        # inner square of side 1 - 2r = sqrt(pi) r; 4(1 - 2r) = 1.8793644...
        assert curve_length(off.curve) == pytest.approx(4.0 * math.sqrt(PI) * r, abs=1e-10)
        assert curve_length(off.curve) == pytest.approx(4.0 * (1.0 - 2.0 * r), abs=1e-10)
        assert curve_length(off.curve) == pytest.approx(1.8793644, abs=1e-6)
        assert signed_area(off.curve) == pytest.approx(PI / (2 + math.sqrt(PI)) ** 2, abs=1e-10)
        assert len(off.collapsed_indices) == 4

    def test_hexagon_perimeter_identity(self):
        dom = cheeger_domain(regular_polygon(6, area=1.0))
        off = inner_cheeger_boundary(dom)
        outer = curve_length(dom.boundary)
        assert outer - curve_length(off.curve) == pytest.approx(2 * PI * dom.r, abs=1e-10)

    def test_ball_rejected(self):
        ball = ArcDomain(
            ArcCurve((Arc(Point(0, 0), 1.0, 0.0, 2 * PI, 1),), closed=True),
            (FREE,),
            2.0,  # h(B) = 2/R, so the free-arc curvature 1/R cannot equal h
        )
        with pytest.raises(ValidationError):
            inner_cheeger_boundary(ball)


class TestStructureReport:
    def test_square_cheeger_set(self):
        rep = structure_report(cheeger_domain(SQUARE))
        assert rep.is_class_A
        assert rep.violations == ()
        assert rep.angle_rule_residual < 1e-10
        assert rep.perimeter_residual < 1e-10
        assert rep.area_residual < 1e-10
        assert max(rep.representation_residuals) < 1e-10

    def test_stadium_not_class_a(self):
        # stadium with its true Cheeger constant h = P/A; free arcs have the
        # wrong curvature, so the class test fails on that rule
        per, area = 2 * PI + 4.0, PI + 4.0
        stadium = ArcCurve((
            Segment(Point(-1, -1), Point(1, -1)),
            Arc(Point(1, 0), 1.0, -PI / 2, PI / 2, 1),
            Segment(Point(1, 1), Point(-1, 1)),
            Arc(Point(-1, 0), 1.0, PI / 2, 3 * PI / 2, 1),
        ), closed=True)
        dom = ArcDomain(stadium, (INNER_JUNCTION, FREE, INNER_JUNCTION, FREE), per / area)
        rep = structure_report(dom)
        assert not rep.is_class_A
        assert "free_curvature" in rep.violations

    def test_ball_violations(self):
        ball = ArcDomain(
            ArcCurve((Arc(Point(0, 0), 1.0, 0.0, 2 * PI, 1),), closed=True),
            (FREE,), 2.0,
        )
        violations = class_a_violations(ball)
        assert "alternation" in violations or "even_arc_count" in violations
        assert "free_curvature" in violations

    def test_angle_rule_on_polygon_cheeger_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            dom = cheeger_domain(random_convex_polygon(rng))
            rep = structure_report(dom)
            assert rep.is_class_A
            assert rep.angle_rule_residual < 1e-10

    def test_representation_identities_random_domains(self):
        for seed in range(25):
            rep = structure_report(random_class_a_domain(seed))
            assert rep.is_class_A, rep.violations
            assert rep.perimeter_residual < 1e-8
            assert rep.area_residual < 1e-8
            assert max(rep.representation_residuals) < 1e-8


class TestRandomDomains:
    def test_determinism(self):
        a = random_class_a_domain(42)
        b = random_class_a_domain(42)
        assert a.h == b.h
        assert len(a.boundary.edges) == len(b.boundary.edges)
        assert signed_area(a.boundary) == signed_area(b.boundary)

    def test_nonpositive_inner_area_draw_rejected(self):
        # this seed draws a bowed inner curve of non-positive area, which used to
        # raise a bare math domain error instead of being rejected like other draws
        rep = structure_report(random_class_a_domain([2, 0, 374]))
        assert rep.is_class_A, rep.violations

    def test_vertex_count_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            poly = random_convex_polygon(rng, 3, 12)
            assert 3 <= len(poly.vertices) <= 12


class TestConvexPolygonValidation:
    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            ConvexPolygon([[0, 0], [1, 0], [2, 0]])

    def test_nonconvex_rejected(self):
        with pytest.raises(ValidationError):
            ConvexPolygon([[0, 0], [2, 0], [1, 0.2], [0, 2]])

    def test_cw_input_reoriented(self):
        poly = ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])
        assert poly.area > 0

    def test_translated_square_area(self):
        assert ConvexPolygon(SQUARE.vertices + 1e8).area == 1.0

    def test_collinear_cleanup(self):
        poly = ConvexPolygon([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]])
        assert len(poly.vertices) == 4

    def test_clean_ring_matches_loop_reference(self):
        # clean rings, and rings with vertices repeated within tol (also across
        # the seam), exact midpoints and midpoints moved off the edge by about tol
        rng = np.random.default_rng(11)
        tol = 1e-12
        for trial in range(400):
            n = int(rng.integers(3, 10))
            ang = np.sort(rng.uniform(0.0, 2 * PI, n))
            pts = np.column_stack([np.cos(ang), np.sin(ang)]) * 10.0 ** rng.uniform(-3, 3)
            rows = []
            for i in range(n):
                rows.append(pts[i])
                kind = trial % 5 and rng.integers(0, 4)
                if kind == 1:
                    rows.append(pts[i] + rng.uniform(-1.0, 1.0, 2) * 0.6 * tol)
                elif kind in (2, 3):
                    mid = 0.5 * (pts[i] + pts[(i + 1) % n])
                    rows.append(mid + (kind == 3) * rng.uniform(-2.0, 2.0, 2) * tol)
            if trial % 7 == 0:
                rows.append(pts[0] + 0.5 * tol)
            ring = np.array(rows)
            ring.setflags(write=False)
            cleaned = cheeger._clean_ring(ring, tol)
            assert np.array_equal(cleaned, clean_ring_loop(ring, tol))
            assert cleaned.flags.writeable

    def test_contains_broadcasts_over_point_arrays(self):
        # an array call agrees with one scalar call per point; scalars give bool
        rng = np.random.default_rng(3)
        poly = random_convex_polygon(rng)
        x, y = rng.uniform(-1.5, 1.5, (2, 200))
        for tol in (0.0, 1e-3, -1e-3):
            inside = poly.contains(x, y, tol)
            assert inside.shape == (200,)
            scalar = [poly.contains(float(a), float(b), tol) for a, b in zip(x, y)]
            assert all(type(v) is bool for v in scalar)
            assert inside.tolist() == scalar
        assert 0 < inside.sum() < 200
