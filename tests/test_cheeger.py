import math

import numpy as np
import pytest

from cheegerlab.arc_geometry import (
    Arc,
    ArcCurve,
    BORDER_PIECE,
    FREE,
    INNER_JUNCTION,
    Point,
    Segment,
    curve_length,
    signed_area,
)
from cheegerlab import cheeger, cluster, jsonio
from cheegerlab.cheeger import (
    ArcDomain,
    ConvexPolygon,
    cheeger_convex,
    cheeger_domain,
    class_a_violations,
    convex_hull,
    hexagon_constant,
    inner_cheeger_boundary,
    domain_from_dict,
    domain_to_dict,
    inner_parallel_polygon,
    polygon_from_dict,
    polygon_to_dict,
    random_class_a_domain,
    random_convex_polygon,
    regular_polygon,
    structure_report,
)
from cheegerlab.errors import ValidationError
from cheegerlab.hales_deficit import hales_check, place_nodes
from cheegerlab.partition_optimizer import SeedConfiguration, hex_lattice_seeds, power_diagram_cells
from oracles import (
    cheeger_convex_reference,
    clean_ring_loop,
    convex_hull_reference,
    convex_polygon_reference,
    polygon_cheeger_bisection,
    polygon_cheeger_closed_form,
    random_class_a_domain_reference,
    random_convex_polygon_reference,
)

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


def _moved_polygons():
    """Random polygons translated by 1e4 and dilated by 1e-6 to 1e6."""
    rng = np.random.default_rng(29)
    polys = []
    for _ in range(60):
        poly = random_convex_polygon(rng, 3, 12)
        polys.append(ConvexPolygon(poly.vertices + [1e4, -1e4]))
        polys += [ConvexPolygon(poly.vertices * lam) for lam in (1e-6, 1e-3, 1e3, 1e6)]
    return polys


def _lattice_cells():
    tri = regular_polygon(3, area=1.0)
    return power_diagram_cells(SeedConfiguration(hex_lattice_seeds(64, tri), np.zeros(64)), tri)


class TestInnerParallelPolygon:
    def test_square_quarter(self):
        inner = inner_parallel_polygon(SQUARE, 0.25)
        assert inner.area == pytest.approx(0.25, abs=1e-12)
        sides = np.roll(inner.vertices, -1, axis=0) - inner.vertices
        assert np.hypot(sides[:, 0], sides[:, 1]).sum() == pytest.approx(2.0, abs=1e-12)

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

    def test_nan_distance_rejected(self):
        with pytest.raises(ValidationError, match="offset distance must be nonnegative, got nan"):
            inner_parallel_polygon(SQUARE, math.nan)

    def test_infinite_distance_empties(self):
        assert inner_parallel_polygon(SQUARE, math.inf) is None

    def test_cleans_once(self, call_counts):
        poly = regular_polygon(7, area=1.0)
        counts = call_counts(cheeger, "_clean_ring")
        assert inner_parallel_polygon(poly, 0.1) is not None
        assert counts == {"_clean_ring": 1}

    def test_sliver_below_inradius_is_empty(self):
        # the erosion of a 2 x 1 rectangle at 0.5 - 1e-14 is a strip of width
        # 2e-14, which cleans up to a segment
        rect = ConvexPolygon([[0, 0], [2, 0], [2, 1], [0, 1]])
        assert inner_parallel_polygon(rect, 0.5 - 1e-14) is None
        assert inner_parallel_polygon(rect, 0.5 - 1e-6).area == pytest.approx(2e-6, rel=1e-5)


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
        h2 = cheeger_convex(ConvexPolygon(poly.vertices * lam)).h
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

    @pytest.mark.parametrize("polygons", [_random_polygons, _thin_polygons, _moved_polygons,
                                          _lattice_cells],
                             ids=["random", "thin", "moved", "lattice64"])
    def test_matches_numpy_reference(self, polygons):
        # the float solve against the numpy solve it replaced: the same
        # collapse events, and h equal up to the order of the sums
        for poly in polygons():
            res, ref = cheeger_convex(poly), cheeger_convex_reference(poly)
            assert res.iterations == ref.iterations
            assert abs(res.h - ref.h) <= 1e-13 * ref.h
            assert res.residual <= 1e-12 * poly.area

    @pytest.mark.parametrize("lam", [1e-8, 1e-4, 1e4, 1e8])
    def test_rigid_motion_and_dilation_invariance(self, lam):
        ang = np.linspace(0.0, 2 * PI, 40, endpoint=False)
        thin = ConvexPolygon(np.column_stack([30.0 * np.cos(ang), np.sin(ang)]))
        for poly in _random_polygons()[:10] + [thin, regular_polygon(1024)]:
            h = cheeger_convex(poly).h
            for theta in (0.7, 2.9):
                rot = np.array([[math.cos(theta), -math.sin(theta)],
                                [math.sin(theta), math.cos(theta)]])
                moved = ConvexPolygon((poly.vertices @ rot.T + [12.5, -7.25]) * lam)
                assert cheeger_convex(moved).h * lam == pytest.approx(h, rel=1e-12)

    def test_large_scale_square(self):
        assert cheeger_convex(ConvexPolygon(SQUARE.vertices * 1e6)).h == pytest.approx(
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
            ArcCurve((Arc(Point(0, 0), 1.0, 0.0, 2 * PI),), closed=True),
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
            Arc.between(Point(1, 0), 1.0, -PI / 2, PI / 2, 1),
            Segment(Point(1, 1), Point(-1, 1)),
            Arc.between(Point(-1, 0), 1.0, PI / 2, 3 * PI / 2, 1),
        ), closed=True)
        dom = ArcDomain(stadium, (INNER_JUNCTION, FREE, INNER_JUNCTION, FREE), per / area)
        rep = structure_report(dom)
        assert not rep.is_class_A
        assert "free_curvature" in rep.violations

    def test_ball_violations(self):
        ball = ArcDomain(
            ArcCurve((Arc(Point(0, 0), 1.0, 0.0, 2 * PI),), closed=True),
            (FREE,), 2.0,
        )
        violations = class_a_violations(ball)
        assert "alternation" in violations or "even_arc_count" in violations
        assert "free_curvature" in violations

    def test_inner_junction_curving_more_than_h(self):
        # the square's Cheeger set with one free arc relabeled as an inner
        # junction, judged at 0.9 h: that arc curves by h / 0.9 > 0.9 h
        dom = cheeger_domain(SQUARE)
        roles = list(dom.roles)
        roles[1] = INNER_JUNCTION
        assert "inner_curvature" in class_a_violations(ArcDomain(dom.boundary, roles, 0.9 * dom.h))
        assert "inner_curvature" not in class_a_violations(dom)

    def test_border_run_ending_in_an_arc(self):
        # edges 0 and 1 (a side and a corner arc) as one border run
        dom = cheeger_domain(SQUARE)
        roles = list(dom.roles)
        roles[1] = BORDER_PIECE
        roles[2] = INNER_JUNCTION
        assert "border_structure" in class_a_violations(ArcDomain(dom.boundary, roles, dom.h))

    def test_border_corner_arc_of_the_wrong_radius(self):
        # side, corner arc, side as one border run; the corner arc fits r only
        # while h is the domain's own
        dom = cheeger_domain(SQUARE)
        roles = list(dom.roles)
        roles[1] = BORDER_PIECE
        assert "border_structure" not in class_a_violations(ArcDomain(dom.boundary, roles, dom.h))
        wrong = ArcDomain(dom.boundary, roles, dom.h * (1.0 + 1e-7))
        assert "border_structure" in class_a_violations(wrong)

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

    def test_one_curve_built_per_domain(self, monkeypatch):
        # a domain is drawn, checked, offset and put through Hales on float
        # rows: the returned boundary is the only ArcCurve constructed while
        # drawing, and no Point, Segment or Arc is built except the one Point
        # per node that place_nodes returns.  A curve's edge objects are built
        # the first time .edges is read, and kept.
        curves, built = [], []
        store = ArcCurve._store

        def counting_store(curve, rows, closed):
            curves.append(curve)
            store(curve, rows, closed)

        monkeypatch.setattr(ArcCurve, "_store", counting_store)
        for cls in (Point, Segment, Arc):
            def counting(obj, post_init=cls.__post_init__):
                built.append(obj)
                post_init(obj)
            monkeypatch.setattr(cls, "__post_init__", counting)
        for seed in (0, 1, 5, 42, [2, 0, 374]):
            curves.clear()
            d = random_class_a_domain(seed)
            assert len(curves) == 1 and curves[0] is d.boundary, seed
            rep = structure_report(d)
            assert rep.is_class_A and not built, seed
            nodes = place_nodes(rep.offset, d)
            assert built == list(nodes.nodes), seed
            built.clear()
            hales_check(rep.offset.curve, nodes, d.r)
            assert not built, seed
            edges = d.boundary.edges
            assert len(built) == len(edges) + sum(2 if isinstance(e, Segment) else 1 for e in edges)
            built.clear()
            assert d.boundary.edges is edges and not built, seed

    def test_vertex_count_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            poly = random_convex_polygon(rng, 3, 12)
            assert 3 <= len(poly.vertices) <= 12

    def test_domains_match_numpy_reference(self):
        # the same artifact bytes as the per-edge arithmetic on numpy 2-vectors,
        # with the same rejections, over 2000 seeds of both seed forms
        for i in range(2000):
            seed = i if i % 2 else [i // 7, 0, i]
            try:
                expected = jsonio.dumps(domain_to_dict(random_class_a_domain_reference(seed)))
            except (ValidationError, ValueError) as exc:
                with pytest.raises(type(exc), match=f"^{exc}$"):
                    random_class_a_domain(seed)
                continue
            assert jsonio.dumps(domain_to_dict(random_class_a_domain(seed))) == expected, seed

    def test_polygons_match_numpy_reference(self):
        # two polygons per seed, with the class-A fixtures' 4..9 vertices and
        # the default 3..12, and the generator left in the same state
        for seed in range(2000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for n_min, n_max in ((4, 9), (3, 12)):
                got = jsonio.dumps(polygon_to_dict(random_convex_polygon(rng, n_min, n_max)))
                want = jsonio.dumps(polygon_to_dict(random_convex_polygon_reference(ref, n_min, n_max)))
                assert got == want, seed
            assert rng.bit_generator.state == ref.bit_generator.state


class TestConvexHull:
    @staticmethod
    def _check(points):
        got, want = convex_hull(points), convex_hull_reference(points)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        return got

    def test_duplicates(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.normal(size=(12, 2))
            pts = np.concatenate([pts, pts[rng.integers(0, 12, 8)]])
            rng.shuffle(pts)
            self._check(pts)

    def test_signed_zeros(self):
        pts = [[0.0, 0.0], [-0.0, 0.0], [1.0, -0.0], [0.0, 1.0], [-0.0, 1.0],
               [0.0, -0.0], [-0.0, -0.0], [1.0, 0.0]]
        assert len(self._check(pts)) == 3
        assert len(self._check([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]])) == 2

    def test_collinear_runs(self):
        t = np.linspace(0.0, 1.0, 7)
        square = np.concatenate([np.column_stack([t, 0 * t]), np.column_stack([1 + 0 * t, t]),
                                 np.column_stack([t, 1 + 0 * t]), np.column_stack([0 * t, t])])
        assert len(self._check(square)) == 4
        assert len(self._check(square[::-1])) == 4
        t = np.linspace(0.0, 1.0, 9)  # eighths, so the line's points are exact
        line = np.column_stack([t, 2.0 * t - 1.0])
        assert len(self._check(line)) == 2

    def test_fewer_than_three_points(self):
        for pts in ([], [[1.0, 2.0]], [[1.0, 2.0], [0.5, 3.0]], [[1.0, 2.0], [1.0, 2.0], [0.5, 3.0]]):
            self._check(np.asarray(pts, dtype=float).reshape(-1, 2))

    def test_honeycomb_vertex_list(self, monkeypatch):
        # the container hull of the l = 8 honeycomb, from its 216 hexagon
        # vertices, is the reference's bit for bit
        seen = []

        def spy(points):
            seen.append(points)
            return convex_hull(points)

        monkeypatch.setattr(cluster, "convex_hull", spy)
        cl = cluster.honeycomb_cluster(8)
        (points,) = seen
        assert len(points) == 216
        hull = self._check(points)
        assert hull.tobytes() == convex_hull_reference(points).tobytes()
        assert np.array_equal(cl.container.vertices, ConvexPolygon(hull).vertices)


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

    def test_overflowing_square_named(self):
        # the corner cross products of a 1e160 square overflow to inf, so the
        # cleanup drops every vertex; the message names the overflow
        with pytest.raises(ValidationError, match="^polygon coordinates overflow: a corner cross "
                                                  "product is not finite$"):
            ConvexPolygon([[0, 0], [1e160, 0], [1e160, 1e160], [0, 1e160]])
        assert ConvexPolygon([[0, 0], [1e150, 0], [1e150, 1e150], [0, 1e150]]).area == pytest.approx(1e300)

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

    @pytest.mark.parametrize("ring, message", [
        ([[0, 0], [0, 1], [1, 1], [1, 0]], None),
        ([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1], [0, 0]], None),
        ([[0, 0], [1, 0], [1 + 3e-13, 2e-13], [1, 1], [0, 1], [-2e-13, 1e-13]], None),
        ([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1], [0, 0.5]], None),
        ([[0, 0], [1, 1], [0, 1], [0, 0.5]], None),
        ([[0, 0], [2, 0], [1, 0.2], [0, 2]], "polygon is not strictly convex"),
        ([[0, 2], [1, 0.2], [2, 0], [0, 0]], "polygon is not strictly convex"),
        ([[0, 0], [1, 1], [1, 0], [0, 1]], "polygon is not strictly convex"),
        ([[0, 0], [1, 0], [2, 0]], "polygon degenerates"),
        ([[0, 0], [1, 0], [1, 0], [0, 0]], "polygon degenerates"),
        ([[0, 0], [1, 0], [1, 1e-13], [0, 1e-13]], "polygon degenerates"),
        ([[0, 0], [1e-170, 0], [1e-170, 1e-170], [0, 1e-170]], "polygon degenerates"),
        ([[0, 0], [1, 0], [math.nan, 1]], "polygon has non-finite vertices"),
        ([[0, 0], [1, 0], [0, math.inf]], "polygon has non-finite vertices"),
        ([[0, 0], [1, 0]], "polygon needs an (n, 2) vertex array"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "polygon needs an (n, 2) vertex array"),
        ([0.0, 1.0, 2.0], "polygon needs an (n, 2) vertex array"),
    ], ids=["clockwise", "duplicates", "near_duplicates", "collinear", "collinear_closing",
            "nonconvex", "nonconvex_cw", "bowtie", "zero_area", "doubled_segment", "sliver",
            "underflow", "nan", "inf", "two_vertices", "three_columns", "flat"])
    def test_matches_numpy_reference(self, ring, message):
        # the float validation against the numpy one it replaced: the same
        # stored rows, or the same message
        try:
            expected = convex_polygon_reference(ring)
        except ValidationError as exc:
            assert message is not None and str(exc).startswith(message)
            with pytest.raises(ValidationError) as info:
                ConvexPolygon(ring)
            assert str(info.value) == str(exc)
        else:
            assert message is None
            assert np.array_equal(ConvexPolygon(ring).vertices, expected)

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


class TestJson:
    def test_boolean_h_rejected(self):
        # float(True) is 1.0, so a boolean h would read as a number
        d = domain_to_dict(cheeger_domain(SQUARE))
        assert domain_from_dict(d).h == d["h"]
        for bad in (True, False, "3.5", None):
            with pytest.raises(ValidationError, match=f"^h must be a number, got {bad!r}$"):
                domain_from_dict(dict(d, h=bad))

    def test_boolean_vertex_rejected(self):
        ok = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
        assert polygon_from_dict(ok).area == 1.0
        for bad in (True, "1", None):
            d = {"vertices": [[0, 0], [1, 0], [1, bad], [0, 1]]}
            with pytest.raises(ValidationError,
                               match=f"^vertex coordinate must be a number, got {bad!r}$"):
                polygon_from_dict(d)
