import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheegerlab import jsonio
from cheegerlab.arc_geometry import (
    Arc,
    ArcCurve,
    BORDER_PIECE,
    FREE,
    INNER_JUNCTION,
    Point,
    Segment,
    curve_from_dict,
    curve_length,
    curve_to_dict,
    full_circle,
    offset_inner,
    signed_area,
    split_edge,
    transform_curve,
    winding_number,
    winding_numbers,
)
from cheegerlab.cheeger import random_class_a_domain, regular_polygon
from cheegerlab.errors import (
    ContractViolation,
    DegenerateOffsetError,
    OnBoundaryError,
    ValidationError,
)
from oracles import (
    quadrature_curve_area,
    rasterized_winding_area,
    winding_number_stepping,
)

PI = math.pi


def stadium_curve():
    """Convex hull of two unit disks with centers distance 2 apart."""
    return ArcCurve((
        Segment(Point(-1, -1), Point(1, -1)),
        Arc.between(Point(1, 0), 1.0, -PI / 2, PI / 2, 1),
        Segment(Point(1, 1), Point(-1, 1)),
        Arc.between(Point(-1, 0), 1.0, PI / 2, 3 * PI / 2, 1),
    ), closed=True)


def hexagon_boundary():
    v = regular_polygon(6, area=1.0).vertices
    return ArcCurve(tuple(
        Segment(Point(*v[i]), Point(*v[(i + 1) % 6])) for i in range(6)
    ), closed=True)


class TestCurveLength:
    def test_unit_circle(self):
        assert curve_length(full_circle(Point(0, 0), 1.0)) == pytest.approx(2 * PI, abs=1e-14)

    def test_unit_area_hexagon_perimeter(self):
        # perimeter of the unit-area regular hexagon is 2 * 12**(1/4)
        assert curve_length(hexagon_boundary()) == pytest.approx(2 * 12 ** 0.25, abs=1e-12)

    def test_quarter_arc_radius_two(self):
        arc = Arc(Point(0, 0), 2.0, 0.0, PI / 2)
        assert arc.length == pytest.approx(PI, abs=1e-14)

    def test_malformed_curve_rejected(self):
        with pytest.raises(ValidationError):
            ArcCurve((
                Segment(Point(0, 0), Point(1, 0)),
                Segment(Point(1.1, 0), Point(1.1, 1)),  # gap beyond tolerance
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
        open_curve = ArcCurve((Segment(Point(0, 0), Point(1, 0)),), closed=False)
        with pytest.raises(ContractViolation):
            signed_area(open_curve)


class TestWindingNumber:
    def test_inside_outside(self):
        c = full_circle(Point(0, 0), 1.0)
        assert winding_number(c, Point(0.3, 0.2)) == 1
        assert winding_number(c, Point(2.0, 0.0)) == 0

    def test_doubly_traversed_circle(self):
        c2 = ArcCurve((
            Arc(Point(0, 0), 1.0, 0.0, 2 * PI),
            Arc(Point(0, 0), 1.0, 0.0, 2 * PI),
        ), closed=True)
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
            arc = Arc(Point(0.3, -0.2), 1.0, start, turning * 2 * PI)
            for laps in (1, 2):
                c = ArcCurve((arc,) * laps, closed=True)
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
            circle = ArcCurve((arc,), closed=True)
            read = curve_from_dict(jsonio.loads(jsonio.dumps(curve_to_dict(circle))))
            moved = transform_curve(circle, angle=0.7, dx=0.25, dy=-0.5, scale=2.0)
            assert read == circle
            assert moved.edges[0].signed_sweep == arc.signed_sweep
            first, second = split_edge(arc, 0.3)
            assert first.signed_sweep + second.signed_sweep == arc.signed_sweep
            for c in (read, moved):
                e = c.edges[0]
                assert curve_length(c) == pytest.approx(2 * PI * e.radius, rel=1e-15)
                assert signed_area(c) == pytest.approx(turning * PI * e.radius ** 2, rel=1e-14)
                x, y = e.center.x, e.center.y
                assert winding_numbers(c, [x + 0.1, x + 4.0], [y, y]).tolist() == [turning, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stepping_oracle(self, seed):
        # every arc of a class-A domain and of its reversal (clockwise arcs),
        # with q on the normal through the arc's midpoint, inside and outside
        # the supporting circle, at eps times the arc length
        d = random_class_a_domain(seed)
        seen = set()
        for curve in (d.boundary, d.boundary.reversed()):
            for arc in (e for e in curve.edges if isinstance(e, Arc)):
                mid = arc.point_at(0.5)
                ux = (mid.x - arc.center.x) / arc.radius
                uy = (mid.y - arc.center.y) / arc.radius
                for eps in (1e-2, 1e-3, 1e-4):
                    for side in (-1.0, 1.0):
                        rho = arc.radius + side * eps * arc.length
                        q = Point(arc.center.x + rho * ux, arc.center.y + rho * uy)
                        w = winding_number(curve, q)
                        assert w == winding_number_stepping(curve, q)
                        seen.add(w)
        assert seen == {-1, 0, 1}

    @pytest.mark.parametrize("seed", range(4))
    def test_free_arc_at_boundary_tolerance(self, seed):
        # twice the curve's tolerance (1e-9 times its extent) from a
        # free arc; walking the arc in steps of that length would take about
        # 1e8 steps
        d = random_class_a_domain(seed)
        c = d.boundary
        tol = c.tolerance
        arc = next(e for e, role in zip(c.edges, d.roles) if role == FREE)
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
        f8 = ArcCurve((
            Arc(Point(-1, 0), 1.0, 0.0, 2 * PI),
            Arc(Point(1, 0), 1.0, PI, -2 * PI),
        ), closed=True)
        assert signed_area(f8) == pytest.approx(0.0, abs=1e-13)
        assert rasterized_winding_area(f8, 1024) == pytest.approx(0.0, abs=1e-3)

    def test_doubly_traversed_circle(self):
        c2 = ArcCurve((
            Arc(Point(0, 0), 1.0, 0.0, 2 * PI),
            Arc(Point(0, 0), 1.0, 0.0, 2 * PI),
        ), closed=True)
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
        arcs = [e for e in off.curve.edges if isinstance(e, Arc)]
        assert all(a.radius == pytest.approx(2.5, abs=1e-12) for a in arcs)
        assert off.collapsed_indices == (0, 2)

    def test_segment_translates_preserving_length(self):
        dom = _square_cheeger_like(side=1.0, r=0.2)
        off = offset_inner(dom["curve"], 0.2, dom["roles"])
        segs = [e for e in off.curve.edges if isinstance(e, Segment)]
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
    return ArcCurve((left, bot, right, top), closed=True)


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
    return {"curve": ArcCurve(tuple(edges), closed=True), "roles": roles}


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
            assert moved.edges[0].signed_sweep == circle.edges[0].signed_sweep
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
            Arc(Point(0, 0), 1.0, 0.0, sweep)
