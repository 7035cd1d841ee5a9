import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheegerlab import arc_geometry, jsonio
from cheegerlab.arc_geometry import (
    ArcCurve,
    BORDER_PIECE,
    FREE,
    INNER_JUNCTION,
    Point,
    curve_from_dict,
    curve_length,
    curve_to_dict,
    offset_inner,
    signed_area,
    transform_curve,
    winding_number,
)
from cheegerlab.cheeger import random_class_a_domain, regular_polygon
from cheegerlab.errors import (
    ContractViolation,
    DegenerateOffsetError,
    OnBoundaryError,
    ValidationError,
)
from oracles import (
    Arc,
    Segment,
    curve_distances_reference,
    curve_gap_error_reference,
    curve_of,
    edges_of,
    full_circle,
    quadrature_curve_area,
    rasterized_winding_area,
    split_edge,
    transform_curve_reference,
    winding_number_stepping,
    winding_numbers_reference,
)

PI = math.pi


def stadium_curve():
    """Convex hull of two unit disks with centers distance 2 apart."""
    return curve_of((
        Segment(Point(-1, -1), Point(1, -1)),
        Arc.between(Point(1, 0), 1.0, -PI / 2, PI / 2, 1),
        Segment(Point(1, 1), Point(-1, 1)),
        Arc.between(Point(-1, 0), 1.0, PI / 2, 3 * PI / 2, 1),
    ))


def lens_curve():
    """Intersection of the unit disks centred at (-0.5, 0) and (0.5, 0): two arcs meeting at kinks."""
    return curve_of((
        Arc.between(Point(-0.5, 0), 1.0, -PI / 3, PI / 3, 1),
        Arc.between(Point(0.5, 0), 1.0, 2 * PI / 3, 4 * PI / 3, 1),
    ))


def _tangent(e, t):
    # unit direction of travel along the edge at parameter t
    if isinstance(e, Segment):
        return (e.end.x - e.start.x) / e.length, (e.end.y - e.start.y) / e.length
    a = e.angle_at(t)
    return -e.turning * math.sin(a), e.turning * math.cos(a)


def hexagon_boundary():
    v = regular_polygon(6, area=1.0).vertices.tolist()
    return ArcCurve(tuple((*v[i], *v[(i + 1) % 6]) for i in range(6)))


class TestCurveLength:
    def test_unit_circle(self):
        assert curve_length(full_circle(Point(0, 0), 1.0)) == pytest.approx(2 * PI, abs=1e-14)

    def test_unit_area_hexagon_perimeter(self):
        # perimeter of the unit-area regular hexagon is 2 * 12**(1/4)
        assert curve_length(hexagon_boundary()) == pytest.approx(2 * 12 ** 0.25, abs=1e-12)

    def test_quarter_arc_radius_two(self):
        arc = ArcCurve(((0.0, 0.0, 2.0, 0.0, PI / 2),), closed=False)
        assert curve_length(arc) == arc.edges[0].length == pytest.approx(PI, abs=1e-14)

    def test_malformed_curve_rejected(self):
        with pytest.raises(ValidationError):
            ArcCurve((
                (0.0, 0.0, 1.0, 0.0),
                (1.1, 0.0, 1.1, 1.0),  # gap beyond tolerance
            ), closed=False)


class TestSignedArea:
    def test_unit_circle_ccw(self):
        assert signed_area(full_circle(Point(0, 0), 1.0)) == pytest.approx(PI, abs=1e-14)

    def test_unit_circle_cw(self):
        assert signed_area(full_circle(Point(0, 0), 1.0, ccw=False)) == pytest.approx(-PI, abs=1e-14)

    def test_stadium(self):
        # rectangle 2x2 plus two half-disks; cross-checked by quadrature
        stad = stadium_curve()
        assert signed_area(stad) == pytest.approx(PI + 4, abs=1e-13)
        assert quadrature_curve_area(stad) == pytest.approx(PI + 4, abs=1e-6)

    def test_open_curve_rejected(self):
        open_curve = ArcCurve(((0.0, 0.0, 1.0, 0.0),), closed=False)
        with pytest.raises(ContractViolation):
            signed_area(open_curve)


class TestWindingNumber:
    def test_inside_outside(self):
        c = full_circle(Point(0, 0), 1.0)
        assert winding_number(c, Point(0.3, 0.2)) == 1
        assert winding_number(c, Point(2.0, 0.0)) == 0

    def test_doubly_traversed_circle(self):
        c2 = ArcCurve(((0.0, 0.0, 1.0, 0.0, 2 * PI),) * 2)
        assert winding_number(c2, Point(0.05, -0.02)) == 2

    def test_point_near_curve_inside_disk(self):
        c = full_circle(Point(0, 0), 1.0)
        assert winding_number(c, Point(0.999, 0.0)) == 1

    def test_on_boundary_rejected(self):
        c = full_circle(Point(0, 0), 1.0)
        with pytest.raises(OnBoundaryError):
            winding_number(c, Point(1.0, 0.0))

    @pytest.mark.parametrize("turning", [1, -1])
    def test_full_circles_at_any_start_angle(self, turning):
        # the end point of a full circle can round to just before or after its
        # start, and the turn must still be one whole revolution per lap
        for start in np.linspace(-10.0, 10.0, 401):
            arc = (0.3, -0.2, 1.0, start, turning * 2 * PI)
            for laps in (1, 2):
                c = ArcCurve((arc,) * laps)
                assert winding_number(c, Point(0.1, 0.05)) == turning * laps
                assert winding_number(c, Point(1.5, 0.0)) == 0
        # a full circle keeps its sweep, so its length, area and turn, through
        # JSON, motions and splitting at any start angle; stored as the two
        # endpoint angles s and s + 2*pi, about one in seven of these circles
        # reads back with a sweep of ~1e-15
        starts = np.concatenate([np.linspace(0.0, 2 * PI, 4002, endpoint=False),
                                 np.linspace(-100.0, 100.0, 4002)])
        for start in starts:
            arc = Arc(Point(0.3, -0.2), 1.5, start, turning * 2 * PI)
            circle = curve_of((arc,))
            read = curve_from_dict(jsonio.loads(jsonio.dumps(curve_to_dict(circle))))
            moved = transform_curve(circle, angle=0.7, dx=0.25, dy=-0.5, scale=2.0)
            assert read == circle
            assert moved.rows[0][4] == arc.signed_sweep
            first, second = split_edge(arc, 0.3)
            assert first.signed_sweep + second.signed_sweep == arc.signed_sweep
            for c in (read, moved):
                x, y, radius = c.rows[0][:3]
                assert curve_length(c) == pytest.approx(2 * PI * radius, rel=1e-15)
                assert signed_area(c) == pytest.approx(turning * PI * radius ** 2, rel=1e-14)
                assert winding_numbers_reference(c, [x + 0.1, x + 4.0], [y, y]).tolist() == [turning, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stepping_oracle(self, seed):
        # every edge of a class-A domain and of its reversal (clockwise arcs),
        # with q on the normal through the edge's midpoint at eps times the
        # edge length, eps = 1e-2 ... 1e-6, on both sides: the one-point call
        # gives the array kernel's integer, and the stepping oracle's wherever
        # its walk is short (it walks about 1/eps steps of an arc seen from
        # inside)
        d = random_class_a_domain(seed)
        seen = set()
        for curve in (d.boundary, d.boundary.reversed()):
            queries = []
            for e in edges_of(curve):
                mid = e.point_at(0.5)
                if isinstance(e, Arc):
                    ux, uy = (mid.x - e.center.x) / e.radius, (mid.y - e.center.y) / e.radius
                else:
                    ux, uy = (e.start.y - e.end.y) / e.length, (e.end.x - e.start.x) / e.length
                for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                    for side in (-1.0, 1.0):
                        q = Point(mid.x + side * eps * e.length * ux, mid.y + side * eps * e.length * uy)
                        short = eps >= 1e-4 or isinstance(e, Segment) or side > 0.0
                        queries.append((q, short))
            xs, ys = [q.x for q, _ in queries], [q.y for q, _ in queries]
            expected = winding_numbers_reference(curve, xs, ys).tolist()
            assert [winding_number(curve, q) for q, _ in queries] == expected
            assert all(winding_number_stepping(curve, q) == w
                       for (q, short), w in zip(queries, expected) if short)
            seen.update(expected)
        assert seen == {-1, 0, 1}

    def test_matches_stepping_oracle_close_to_a_free_arc(self):
        # the walks the test above leaves out: 1e5 and 1e6 steps
        d = random_class_a_domain(0)
        arc = next(e for e, role in zip(edges_of(d.boundary), d.roles) if role == FREE)
        mid = arc.point_at(0.5)
        ux, uy = (mid.x - arc.center.x) / arc.radius, (mid.y - arc.center.y) / arc.radius
        for eps in (1e-5, 1e-6):
            rho = arc.radius - eps * arc.length
            q = Point(arc.center.x + rho * ux, arc.center.y + rho * uy)
            assert winding_number(d.boundary, q) == winding_number_stepping(d.boundary, q) == 1

    @staticmethod
    def _check_against_array_kernel(curve, xs, ys):
        # every point within the tolerance by the array kernel's distances
        # raises, and every other point gets the array kernel's integer
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        on = curve_distances_reference(curve, xs, ys) <= curve.tolerance
        assert on.any() and not on.all()
        for x, y in zip(xs[on], ys[on]):
            with pytest.raises(OnBoundaryError):
                winding_number(curve, Point(x, y))
        expected = winding_numbers_reference(curve, xs[~on], ys[~on]).tolist()
        assert [winding_number(curve, Point(x, y)) for x, y in zip(xs[~on], ys[~on])] == expected

    def test_one_point_matches_array_kernel_on_fixtures(self):
        # a grid over each fixture, with its rows and columns through the
        # fixture's vertices
        twice = ArcCurve(((0.3, -0.2, 1.0, 0.4, 2 * PI),) * 2)
        for curve in (stadium_curve(), stadium_curve().reversed(), hexagon_boundary(),
                      full_circle(Point(0.0, 0.0), 1.0, ccw=False), twice):
            x0, y0, x1, y1 = curve.bbox
            xs = np.concatenate([np.linspace(x0 - 0.5, x1 + 0.5, 23), [e.start.x for e in edges_of(curve)]])
            ys = np.concatenate([np.linspace(y0 - 0.5, y1 + 0.5, 23), [e.start.y for e in edges_of(curve)]])
            self._check_against_array_kernel(curve, *(a.ravel() for a in np.meshgrid(xs, ys)))

    @pytest.mark.parametrize("seed", ["lens", 0, 1, 2, 3])
    def test_one_point_matches_array_kernel_at_the_tolerance(self, seed):
        # on both sides of every edge near its ends and middle, and past every
        # kink along the difference of its two tangents (outside the angular
        # range of both arcs at the lens's kinks; class-A boundaries have
        # none), at half and twice the curve's tolerance
        boundary = lens_curve() if seed == "lens" else random_class_a_domain(seed).boundary
        for curve in (boundary, boundary.reversed()):
            tol = curve.tolerance
            xs, ys = [], []
            edges = edges_of(curve)
            for e in edges:
                for t in (1e-4, 0.5, 1.0 - 1e-4):
                    p = e.point_at(t)
                    if isinstance(e, Arc):
                        nx, ny = (p.x - e.center.x) / e.radius, (p.y - e.center.y) / e.radius
                    else:
                        nx, ny = (e.start.y - e.end.y) / e.length, (e.end.x - e.start.x) / e.length
                    for f in (-2.0, -0.5, 0.5, 2.0):
                        xs.append(p.x + f * tol * nx)
                        ys.append(p.y + f * tol * ny)
            for e0, e1 in zip(edges, edges[1:] + edges[:1]):
                (ax, ay), (bx, by) = _tangent(e0, 1.0), _tangent(e1, 0.0)
                ux, uy = ax - bx, ay - by
                norm = math.hypot(ux, uy)
                if norm < 1e-6:  # a smooth corner: the normal points above cover it
                    continue
                v = e1.start
                for f in (0.5, 2.0):
                    xs.append(v.x + f * tol * ux / norm)
                    ys.append(v.y + f * tol * uy / norm)
            self._check_against_array_kernel(curve, xs, ys)

    @pytest.mark.parametrize("seed", range(4))
    def test_free_arc_at_boundary_tolerance(self, seed):
        # twice the curve's tolerance (1e-9 times its extent) from a
        # free arc; walking the arc in steps of that length would take about
        # 1e8 steps
        d = random_class_a_domain(seed)
        c = d.boundary
        tol = c.tolerance
        arc = next(e for e, role in zip(edges_of(c), d.roles) if role == FREE)
        mid = arc.point_at(0.5)
        ux = (mid.x - arc.center.x) / arc.radius
        uy = (mid.y - arc.center.y) / arc.radius

        def at(offset):
            rho = arc.radius + offset
            return Point(arc.center.x + rho * ux, arc.center.y + rho * uy)

        for offset, expected in ((-2.0 * tol, 1), (2.0 * tol, 0)):
            assert winding_number(c, at(offset)) == expected
            assert winding_number(c.reversed(), at(offset)) == -expected
        for offset in (-0.5 * tol, 0.5 * tol):
            with pytest.raises(OnBoundaryError):
                winding_number(c, at(offset))


class TestOrientedArea:
    def test_figure_eight_cancels(self):
        f8 = ArcCurve(((-1.0, 0.0, 1.0, 0.0, 2 * PI), (1.0, 0.0, 1.0, PI, -2 * PI)))
        assert signed_area(f8) == pytest.approx(0.0, abs=1e-13)
        assert rasterized_winding_area(f8, 1024) == pytest.approx(0.0, abs=1e-3)

    def test_doubly_traversed_circle(self):
        c2 = ArcCurve(((0.0, 0.0, 1.0, 0.0, 2 * PI),) * 2)
        assert signed_area(c2) == pytest.approx(2 * PI, abs=1e-13)
        assert rasterized_winding_area(c2, 1024) == pytest.approx(2 * PI, abs=2e-3)

    @pytest.mark.parametrize("n", [2048])
    def test_rasterized_oracle_on_jordan_fixtures(self, n):
        for curve, expected in [
            (full_circle(Point(0, 0), 1.0), PI),
            (stadium_curve(), PI + 4),
        ]:
            assert signed_area(curve) == pytest.approx(expected, abs=1e-12)
            assert rasterized_winding_area(curve, n) == pytest.approx(expected, abs=2e-4)

    def test_signed_matches_quadrature_on_random_domains(self):
        for seed in range(12):
            c = random_class_a_domain(seed).boundary
            a, b = quadrature_curve_area(c), signed_area(c)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))


class TestOffsetInner:
    def test_free_arc_collapses_to_point(self):
        r = 0.4
        curve = full_circle(Point(1.0, 2.0), r)
        # a lone free circle is degenerate (everything collapses)
        with pytest.raises(DegenerateOffsetError):
            offset_inner(curve, r, [FREE])

    def test_negative_curvature_arc_widens(self):
        # junction arc of radius 2, offset 0.5 -> concentric radius 2.5
        d = _two_arc_ring()
        off = offset_inner(d, 0.5, [FREE, INNER_JUNCTION, FREE, INNER_JUNCTION])
        arcs = [row for row in off.curve.rows if len(row) == 5]
        assert all(row[2] == pytest.approx(2.5, abs=1e-12) for row in arcs)
        assert off.collapsed_indices == (0, 2)

    def test_segment_translates_preserving_length(self):
        dom = _square_cheeger_like(side=1.0, r=0.2)
        off = offset_inner(dom["curve"], 0.2, dom["roles"])
        segs = [e for e in edges_of(off.curve) if isinstance(e, Segment)]
        assert len(segs) == 4
        for s in segs:
            assert s.length == pytest.approx(0.6, abs=1e-12)
        # translated inward by exactly r
        assert min(abs(s.start.x) + abs(s.start.y) for s in segs) > 0.0

    def test_positive_arc_smaller_than_r_rejected(self):
        # corner arcs of radius 0.2 relabeled as junctions, offset by 0.5
        dom = _square_cheeger_like(side=1.0, r=0.2)
        roles = [INNER_JUNCTION if role == FREE else role for role in dom["roles"]]
        with pytest.raises(DegenerateOffsetError):
            offset_inner(dom["curve"], 0.5, roles)

    def test_unlabeled_edges_rejected(self):
        curve = full_circle(Point(0, 0), 1.0)
        with pytest.raises(ContractViolation):
            offset_inner(curve, 0.5, [])
        with pytest.raises(ContractViolation):
            offset_inner(curve, 0.5, ["mystery"])


def _two_arc_ring():
    """Moon-like 4-edge closed curve: two free arcs (r = 0.5), two concave arcs (rho = 2)."""
    r, rho, c = 0.5, 2.0, 1.2
    y = math.sqrt((r + rho) ** 2 - c * c)
    f1, f2 = np.array([-c, 0.0]), np.array([c, 0.0])
    ctop, cbot = np.array([0.0, y]), np.array([0.0, -y])

    def ang(frm, to):
        return math.atan2(to[1] - frm[1], to[0] - frm[0])

    # left free arc runs the long way (CCW) from the top junction to the bottom one
    left = Arc.between(Point(*f1), r, ang(f1, ctop), ang(f1, cbot), 1)
    right = Arc.between(Point(*f2), r, ang(f2, cbot), ang(f2, ctop), 1)
    top = Arc.between(Point(*ctop), rho, ang(ctop, f2), ang(ctop, f1), -1)
    bot = Arc.between(Point(*cbot), rho, ang(cbot, f1), ang(cbot, f2), -1)
    return curve_of((left, bot, right, top))


def _square_cheeger_like(side=1.0, r=0.2):
    """Rounded square: four side segments joined by radius-r corner arcs."""
    s = side
    pts = np.array([[r, 0], [s - r, 0], [s, r], [s, s - r], [s - r, s], [r, s], [0, s - r], [0, r]])
    edges = []
    roles = []
    corners = [(s - r, r), (s - r, s - r), (r, s - r), (r, r)]
    angles = [(-PI / 2, 0.0), (0.0, PI / 2), (PI / 2, PI), (PI, 3 * PI / 2)]
    for i in range(4):
        a = pts[2 * i]
        b = pts[2 * i + 1]
        edges.append(Segment(Point(*a), Point(*b)))
        roles.append(BORDER_PIECE)
        cx, cy = corners[i]
        a0, a1 = angles[i]
        edges.append(Arc.between(Point(cx, cy), r, a0, a1, 1))
        roles.append(FREE)
    return {"curve": curve_of(edges), "roles": roles}


def _outcome(build):
    # the curve's JSON text, or the message of the ValidationError it raised
    try:
        return jsonio.dumps(curve_to_dict(build()))
    except ValidationError as exc:
        return f"error: {exc}"


class TestConstruction:
    def test_gap_checks_match_point_reference(self):
        # rotations, reversals, a dropped edge and nudged endpoints of class-A
        # boundaries: the same verdict and message as gaps between Points
        verdicts = set()
        for seed in range(20):
            boundary = random_class_a_domain(seed).boundary
            edges, tol = edges_of(boundary), boundary.tolerance
            cases = [(edges, True), (edges, False), (edges[:-1], True), (edges[:-1], False),
                     (edges[1:] + edges[:1], True), (edges[::-1], True)]
            for i, e in enumerate(edges):
                if isinstance(e, Arc):
                    nudged = [Arc(e.center, e.radius, e.start_angle + da, e.signed_sweep)
                              for da in (1e-12 / e.radius, 1e-8 / e.radius, 1e-6)]
                else:
                    nudged = [Segment(e.start, Point(e.end.x + f * tol, e.end.y)) for f in (0.5, 2.0)]
                cases += [(edges[:i] + (m,) + edges[i + 1:], True) for m in nudged]
            for es, closed in cases:
                expected = curve_gap_error_reference(es, closed)
                verdicts.add(expected is None)
                if expected is None:
                    curve_of(es, closed)
                else:
                    with pytest.raises(ValidationError) as exc:
                        curve_of(es, closed)
                    assert str(exc.value) == expected
        assert verdicts == {True, False}

    def test_overflowing_arc_end_rejected(self):
        # an arc whose center and radius are finite but whose end point
        # overflows raises as a non-finite Point, as the first gap reads it
        arc = Arc(Point(1.5e308, 0.0), 1e308, PI, -PI)  # from (5e307, 0) to (inf, 0)
        seg = Segment(Point(1e308, 0.0), Point(5e307, 0.0))
        for edges, closed in (((arc, seg), False), ((arc, seg), True), ((arc,), True)):
            expected = curve_gap_error_reference(edges, closed)
            assert expected.startswith("non-finite point (inf, ")
            with pytest.raises(ValidationError) as exc:
                curve_of(edges, closed)
            assert str(exc.value) == expected
        curve_of((arc,), closed=False)  # an open curve of one edge has no gap to measure

    def test_transform_matches_point_reference(self):
        # dilations 1e-8 ... 1e8 with rotations and translates at the same
        # scale, and a unit translate that opens gaps at small scales: the
        # same JSON bytes, or the same error
        errors = 0
        for seed in range(4):
            d = random_class_a_domain(seed)
            for c in (d.boundary, d.boundary.reversed()):
                for k in range(-8, 9):
                    lam = 10.0 ** k
                    for angle, dx, dy in ((0.0, 0.0, 0.0), (0.7, 3.0 * lam, -2.0 * lam),
                                          (-2.5, -lam, 0.5 * lam), (1.1, 1.0, -1.0)):
                        got = _outcome(lambda: transform_curve(c, angle, dx, dy, lam))
                        assert got == _outcome(lambda: transform_curve_reference(c, angle, dx, dy, lam))
                        errors += got.startswith("error: ")
        assert errors > 0


class TestInvariances:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        angle=st.floats(-PI, PI),
        dx=st.floats(-5, 5),
        dy=st.floats(-5, 5),
        lam=st.floats(0.2, 4.0),
    )
    def test_rigid_motion_and_dilation(self, angle, dx, dy, lam):
        curve = stadium_curve()
        moved = transform_curve(curve, angle=angle, dx=dx, dy=dy)
        assert curve_length(moved) == pytest.approx(curve_length(curve), rel=1e-12)
        assert signed_area(moved) == pytest.approx(signed_area(curve), rel=1e-10, abs=1e-10)
        scaled = transform_curve(curve, scale=lam)
        assert curve_length(scaled) == pytest.approx(lam * curve_length(curve), rel=1e-12)
        assert signed_area(scaled) == pytest.approx(lam * lam * signed_area(curve), rel=1e-12)

    @pytest.mark.parametrize("turning", [1, -1])
    def test_rotated_full_circle_stays_full(self, turning):
        # rotating by 1.8, 4.1, 4.3, 4.6 or 5.1 rad used to round the two
        # angles apart by a hair off 2*pi, collapsing the circle to length ~0
        radius = 1.5
        circle = full_circle(Point(0.0, 0.0), radius, ccw=turning == 1)
        for angle in [1.8, 4.1, 4.3, 4.6, 5.1, *np.linspace(-7.0, 7.0, 61)]:
            moved = transform_curve(circle, angle=angle, dx=0.25, dy=-0.5)
            assert moved.rows[0][4] == circle.rows[0][4]
            assert curve_length(moved) == pytest.approx(2 * PI * radius, rel=1e-14)
            assert signed_area(moved) == pytest.approx(turning * PI * radius ** 2, rel=1e-14)
            assert winding_number(moved, Point(0.25, -0.5)) == turning

    def test_reversal(self):
        curve = stadium_curve()
        rev = curve.reversed()
        assert curve_length(rev) == pytest.approx(curve_length(curve), abs=1e-13)
        assert signed_area(rev) == pytest.approx(-signed_area(curve), abs=1e-13)
        q = Point(0.2, 0.1)
        assert winding_number(rev, q) == -winding_number(curve, q)

    def test_jordan_ccw_positive(self):
        for seed in range(6):
            c = random_class_a_domain(seed).boundary
            assert signed_area(c) > 0.0


class TestJson:
    def test_round_trip(self):
        curve = stadium_curve()
        d = curve_to_dict(curve)
        back = curve_from_dict(d)
        assert signed_area(back) == pytest.approx(signed_area(curve), abs=1e-15)
        assert curve_length(back) == pytest.approx(curve_length(curve), abs=1e-15)
        assert d["closed"] is True
        assert {e["kind"] for e in d["edges"]} == {"arc", "seg"}

    def test_each_row_checked_once(self, monkeypatch):
        # the reader builds the curve from rows, so _check_rows sees each edge
        # once, not once in its Segment or Arc and again in the curve
        checked = []
        check_rows = arc_geometry._check_rows

        def counted(rows, closed):
            checked.append(len(rows))
            return check_rows(rows, closed)

        boundary = random_class_a_domain(3).boundary
        d = curve_to_dict(boundary)
        assert len(d["edges"]) == 16
        monkeypatch.setattr(arc_geometry, "_check_rows", counted)
        back = curve_from_dict(d)
        assert checked == [16]
        assert back == boundary
        checked.clear()
        rev = back.reversed()
        assert checked == [16]
        # the reversed rows are those of the reversed edge objects
        assert rev == curve_of(e.reversed() for e in reversed(edges_of(boundary)))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            curve_from_dict({"closed": True, "edges": [{"kind": "spline"}]})
        with pytest.raises(ValidationError, match="^malformed curve object: "):
            curve_from_dict({"closed": True, "edges": [3]})

    def test_arc_keys_checked(self):
        # an arc in the older endpoint-angle form is refused by key name
        old = {"kind": "arc", "cx": 0, "cy": 0, "r": 1, "a0": 0, "a1": 2 * PI, "turn": 1}
        with pytest.raises(ValidationError, match="^missing keys: sweep; unknown keys: a1, turn$"):
            curve_from_dict({"closed": True, "edges": [old]})
        seg = {"kind": "seg", "x0": 0, "y0": 0, "x1": 1, "y1": 0, "turn": 1}
        with pytest.raises(ValidationError, match="^unknown keys: turn$"):
            curve_from_dict({"closed": False, "edges": [seg]})
        with pytest.raises(ValidationError, match="^unknown keys: open$"):
            curve_from_dict({"closed": False, "open": True, "edges": [seg]})

    @pytest.mark.parametrize("key", ["cx", "cy", "r", "a0", "sweep", "x0", "y0", "x1", "y1"])
    def test_booleans_are_not_numbers(self, key):
        # True passes math.isfinite and would be written back as true
        edges = [{"kind": "arc", "cx": 0.0, "cy": 0.0, "r": 1.0, "a0": 0.0, "sweep": 2 * PI},
                 {"kind": "seg", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 0.0}]
        edge = next(e for e in edges if key in e)
        closed = edge["kind"] == "arc"
        assert curve_from_dict({"closed": closed, "edges": [edge]}).closed is closed
        for bad in (True, False, "0.5"):
            with pytest.raises(ValidationError, match=f"^{key} must be a number, got {bad!r}$"):
                curve_from_dict({"closed": closed, "edges": [dict(edge, **{key: bad})]})

    def test_closed_must_be_a_boolean(self):
        seg = {"kind": "seg", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 0.0}
        for bad in ("no", 0, 1.0, None):
            with pytest.raises(ValidationError, match=f"^closed must be true or false, got {bad!r}$"):
                curve_from_dict({"closed": bad, "edges": [seg]})

    @pytest.mark.parametrize("sweep", [0.0, -0.0, math.nan, math.inf, -math.inf,
                                       2 * PI + 1e-12, -7.0])
    def test_bad_sweep_rejected(self, sweep):
        with pytest.raises(ValidationError, match="^arc sweep must be nonzero, finite and at "
                                                  r"most 2\*pi in magnitude, got "):
            ArcCurve(((0.0, 0.0, 1.0, 0.0, sweep),), closed=False)


class TestEdgeViews:
    def test_reading_edges_checks_nothing(self, call_counts):
        # .edges reads the rows that the curve checked once as Segment and Arc
        # views: no _check_rows call and no Point check per edge
        boundary = random_class_a_domain(3).boundary
        rows = call_counts(arc_geometry, "_check_rows")
        points = call_counts(Point, "__post_init__")
        edges = boundary.edges
        assert rows == {"_check_rows": 0} and points == {"__post_init__": 0}
        assert {type(e).__name__ for e in edges} == {"Segment", "Arc"}
        for e, obj in zip(edges, edges_of(boundary), strict=True):
            if isinstance(obj, Segment):
                assert isinstance(e, arc_geometry.Segment)
                assert (e.start, e.end) == (obj.start, obj.end)
            else:
                assert isinstance(e, arc_geometry.Arc)
                assert (e.center, e.radius, e.start_angle, e.signed_sweep) == (
                    obj.center, obj.radius, obj.start_angle, obj.signed_sweep)
                assert e.length == obj.length
                assert [e.point_at(t) for t in (0.0, 0.37, 1.0)] == [obj.point_at(t) for t in (0.0, 0.37, 1.0)]
        assert boundary.edges is edges  # built once
