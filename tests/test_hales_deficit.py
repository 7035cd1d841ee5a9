import math

import numpy as np
import pytest

from cheegerlab import hales_deficit, jsonio
from cheegerlab.arc_geometry import ArcCurve, Point, edge_point, signed_area, transform_curve
from cheegerlab.chamber_lemmas import DiskChain, pocket_outline
from cheegerlab.cheeger import (
    ArcDomain,
    ConvexPolygon,
    cheeger_domain,
    inner_cheeger_boundary,
    random_class_a_domain,
    regular_polygon,
    structure_report,
)
from cheegerlab.cluster import honeycomb_cluster
from cheegerlab.errors import ContractViolation, ValidationError
from cheegerlab.hales_deficit import (
    HEX_UNIT_PERIMETER,
    NODE_PENALTY,
    NodeSet,
    chord_deficits,
    deficit_report_to_dict,
    hales_check,
    place_nodes,
)
from oracles import Arc, Segment, chord_deficits_reference, curve_of, full_circle

PI = math.pi
SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])


def polygon_curve_and_nodes(poly):
    v = [tuple(p) for p in poly.vertices.tolist()]
    n = len(v)
    curve = ArcCurve(tuple((*v[i], *v[(i + 1) % n]) for i in range(n)))
    nodes = NodeSet(v, (False,) * n)
    return curve, nodes


class TestPlaceNodes:
    def test_square_four_plain_nodes(self):
        dom = cheeger_domain(SQUARE)
        off = inner_cheeger_boundary(dom)
        nodes = place_nodes(off, dom)
        assert len(nodes) == 4
        assert sum(nodes.exceptional) == 0

    def test_domino_cell_has_two_exceptional_nodes(self, domino_cluster):
        # the three-segment border junction arc contributes two corner arcs
        cell = domino_cluster.cells[0]
        off = inner_cheeger_boundary(cell)
        nodes = place_nodes(off, cell)
        assert len(nodes) == 4
        assert sum(nodes.exceptional) == 2

    def test_mismatched_curve_rejected(self):
        dom = cheeger_domain(SQUARE)
        other = inner_cheeger_boundary(cheeger_domain(regular_polygon(6, area=1.0)))
        with pytest.raises(ContractViolation):
            place_nodes(other.curve, dom)

    @pytest.mark.parametrize("foreign", [
        regular_polygon(6, area=1.0),  # other edge count and roles
        ConvexPolygon([[2, 0], [3, 0], [3, 1], [2, 1]]),  # same ones, every center elsewhere
    ])
    def test_foreign_offset_rejected(self, foreign):
        # a well-formed OffsetResult, but of another domain's Cheeger set
        dom = cheeger_domain(SQUARE)
        with pytest.raises(ContractViolation):
            place_nodes(inner_cheeger_boundary(cheeger_domain(foreign)), dom)

    def test_no_nodes_on_arcs_off_radius_r(self):
        # with h off by 1e-9 relative, the free arcs no longer have radius r:
        # validation flags them, the offset does not collapse them, and no
        # node is placed on them
        dom = cheeger_domain(SQUARE)
        off_h = ArcDomain(dom.boundary, dom.roles, dom.h * (1.0 + 1e-9))
        rep = structure_report(off_h)
        assert rep.violations == ("free_curvature", "offset_degenerate")
        assert rep.offset is None
        with pytest.raises(ContractViolation, match="is not the center of a radius-r arc"):
            place_nodes(inner_cheeger_boundary(dom), off_h)

    def test_validates_and_offsets_once(self, validation_counts):
        dom = random_class_a_domain(3)
        place_nodes(inner_cheeger_boundary(dom), dom)
        assert validation_counts == {"class_a_violations": 1, "offset_inner": 1}


class TestChordDeficits:
    def test_straight_portions_have_zero_deficit(self):
        dom = cheeger_domain(SQUARE)
        off = inner_cheeger_boundary(dom)
        rep = chord_deficits(off.curve, place_nodes(off, dom))
        assert rep.N == 4
        assert all(abs(x) < 1e-14 for x in rep.per_arc_x)
        assert rep.truncated_T == pytest.approx(0.0, abs=1e-14)

    def test_concave_circular_portion_formula(self):
        # pocket of three mutually tangent unit disks: each portion is a
        # concave arc of opening pi/3, so x = -(R^2/2)(theta - sin theta)
        chain = DiskChain(np.array([[0, 0], [2, 0], [1, math.sqrt(3)]]), [1, 1, 1], "closed")
        curve = pocket_outline(chain)
        vertices = [edge_point(row, 0.0) for row in curve.rows]
        nodes = NodeSet(tuple(vertices), (False,) * len(vertices))
        rep = chord_deficits(curve, nodes)
        expected = -(1.0 / 2.0) * (PI / 3 - math.sin(PI / 3))
        assert rep.N == 3
        for x in rep.per_arc_x:
            assert x == pytest.approx(expected, abs=1e-12)

    def test_convex_circular_portion_formula(self):
        # half circle of radius 2 closed by its chord encloses +(R^2/2)(pi - sin pi)
        circle = full_circle(Point(0, 0), 2.0)
        nodes = NodeSet(((2.0, 0.0), (-2.0, 0.0)), (False, False))
        rep = chord_deficits(circle, nodes)
        assert rep.per_arc_x[0] == pytest.approx(2.0 * PI, abs=1e-12)
        assert rep.per_arc_x[1] == pytest.approx(2.0 * PI, abs=1e-12)

    def test_paired_junction_arcs(self):
        # shared junction arc of radius rho seen from the two cells: offsets
        # rho + r_j (concave) and rho - r_l (convex), equal openings
        rho, r_j, r_l, theta = 1.5, 0.4, 0.3, 0.9

        def portion_x(radius, turning):
            a0 = PI / 2 - theta / 2
            a1 = PI / 2 + theta / 2
            if turning == -1:
                a0, a1 = a1, a0
            arc = Arc.between(Point(0, 0), radius, a0, a1, turning)
            chord = Segment(arc.end, arc.start)
            return signed_area(curve_of((arc, chord)))

        x_j = portion_x(rho + r_j, -1)
        x_l = portion_x(rho - r_l, 1)
        seg = 0.5 * (theta - math.sin(theta))
        assert x_j == pytest.approx(-(rho + r_j) ** 2 * seg, abs=1e-12)
        assert x_l == pytest.approx((rho - r_l) ** 2 * seg, abs=1e-12)
        assert x_j + x_l < 0.0
        assert abs(x_j) > abs(x_l)
        # homothety ratio of the two deficit regions
        assert math.sqrt(abs(x_j) / abs(x_l)) == pytest.approx((rho + r_j) / (rho - r_l), rel=1e-12)

    def test_paired_deficit_sum_over_cluster(self, domino_cluster):
        total = 0.0
        for cell in domino_cluster.cells:
            off = inner_cheeger_boundary(cell)
            rep = chord_deficits(off.curve, place_nodes(off, cell))
            total += rep.truncated_T
        assert total <= 1e-12

    def test_single_node_full_area(self):
        circle = full_circle(Point(0, 0), 1.0)
        nodes = NodeSet(((1.0, 0.0),), (False,))
        rep = chord_deficits(circle, nodes)
        assert rep.N == 1
        assert rep.per_arc_x[0] == pytest.approx(PI, abs=1e-13)

    def test_cyclic_order_enforced(self):
        dom = cheeger_domain(SQUARE)
        off = inner_cheeger_boundary(dom)
        nodes = place_nodes(off, dom)
        shuffled = NodeSet(
            (nodes.nodes[0], nodes.nodes[2], nodes.nodes[1], nodes.nodes[3]),
            (False,) * 4,
        )
        with pytest.raises(ContractViolation):
            chord_deficits(off.curve, shuffled)

    def test_short_portion_judged_by_the_curve_tolerance(self):
        # a 5e-10 gap inside the bottom edge is within the square's tolerance
        # (1.41e-9); the portion between the two close nodes spans 2e-4, and
        # its pieces are judged by the curve's tolerance, not their own
        gap = 5e-10
        curve = ArcCurve((
            (0.0, 0.0, 0.5, 0.0), (0.5 + gap, 0.0, 1.0, 0.0),
            (1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0, 1.0),
            (0.0, 1.0, 0.0, 0.0),
        ))
        nodes = NodeSet(((0.4999, 0.0), (0.5001, 0.0)), (False, False))
        rep = chord_deficits(curve, nodes)
        assert rep.per_arc_x[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.per_arc_x[1] == 0.0
        # a curve built from the short portion alone checks its gap against 2e-13
        with pytest.raises(ValidationError, match="^gap 5.000e-10 between edges 0 and 1 exceeds "
                                                  "tolerance 2.000e-13$"):
            chord_deficits_reference(curve, nodes)

    def test_rigid_motion_invariance_of_T(self):
        dom = random_class_a_domain(3)
        off = inner_cheeger_boundary(dom)
        nodes = place_nodes(off, dom)
        rep = chord_deficits(off.curve, nodes, clamp_bound=1e9)
        moved = transform_curve(off.curve, angle=0.7, dx=2.0, dy=-1.0)
        moved_nodes = NodeSet(
            tuple(
                (math.cos(0.7) * x - math.sin(0.7) * y + 2.0, math.sin(0.7) * x + math.cos(0.7) * y - 1.0)
                for x, y in nodes.nodes
            ),
            nodes.exceptional,
        )
        rep2 = chord_deficits(moved, moved_nodes, clamp_bound=1e9)
        assert rep2.truncated_T == pytest.approx(rep.truncated_T, rel=1e-9, abs=1e-12)


class TestHalesCheck:
    def test_hexagon_equality(self):
        curve, nodes = polygon_curve_and_nodes(regular_polygon(6, area=1.0))
        rep = hales_check(curve, nodes, r_star=1.0 / math.sqrt(PI))
        assert rep.lhs == pytest.approx(HEX_UNIT_PERIMETER, abs=1e-12)
        assert rep.rhs == pytest.approx(HEX_UNIT_PERIMETER, abs=1e-12)
        assert abs(rep.lhs - rep.rhs) < 1e-10
        assert rep.satisfied

    def test_unit_square_values(self):
        curve, nodes = polygon_curve_and_nodes(SQUARE)
        rep = hales_check(curve, nodes, r_star=1.0 / math.sqrt(PI))
        assert rep.lhs == pytest.approx(4.0, abs=1e-12)
        assert rep.rhs == pytest.approx(HEX_UNIT_PERIMETER + 2 * NODE_PENALTY, abs=1e-12)
        assert rep.rhs == pytest.approx(3.8234194, abs=1e-6)
        assert rep.satisfied

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalars_rejected(self, value):
        curve, nodes = polygon_curve_and_nodes(SQUARE)
        with pytest.raises(ValidationError, match="^r_star must be positive and finite"):
            hales_check(curve, nodes, value)
        with pytest.raises(ValidationError, match="^clamp_bound must be finite"):
            chord_deficits(curve, nodes, clamp_bound=value)

    @pytest.mark.parametrize("r_star", [1e-300, 1e-160, 1e200])
    def test_pi_r_star_squared_must_be_a_normal_float(self, r_star):
        # pi*r_star^2 underflows to 0 at 1e-300 (the length was divided by its
        # square root), is subnormal at 1e-160 and overflows at 1e200
        curve, nodes = polygon_curve_and_nodes(SQUARE)
        with pytest.raises(ContractViolation, match=r"^pi\*r_star\^2 = \S+ for r_star = \S+ is not a positive, "
                                                    "finite, normal float$"):
            hales_check(curve, nodes, r_star)

    def test_area_precondition(self):
        curve, nodes = polygon_curve_and_nodes(SQUARE)
        with pytest.raises(ContractViolation):
            hales_check(curve, nodes, r_star=2.0 / math.sqrt(PI))

    def test_randomized_domains_never_violate(self):
        for seed in range(60):
            dom = random_class_a_domain(seed)
            off = inner_cheeger_boundary(dom)
            nodes = place_nodes(off, dom)
            rep = hales_check(off.curve, nodes, r_star=dom.r)
            assert rep.satisfied, (seed, rep)


def _class_a_cases():
    """(curve, nodes, r_star) of random class-A domains.

    Each domain gives its inner Cheeger boundary with ``place_nodes`` (nodes
    at vertices) and with one node inside every edge.  For every fourth seed
    the interior nodes are also taken on copies rotated, dilated by 1e-6 and
    1e6 and moved by 1e4 extents.
    """
    cases = []
    for seed in range(120):
        dom = random_class_a_domain(seed)
        off = inner_cheeger_boundary(dom)
        cases.append((off.curve, place_nodes(off, dom), dom.r))
        for angle, scale, shift in ((0.0, 1.0, 0.0), (0.3, 1e-6, 0.0), (2.1, 1e6, 1e4)):
            if seed % 4 and scale != 1.0:
                continue
            curve = transform_curve(off.curve, angle, shift * scale, -shift * scale, scale)
            inside = tuple(edge_point(row, 0.37) for row in curve.rows)
            cases.append((curve, NodeSet(inside, (False,) * len(inside)), dom.r * scale))
    return cases


def _cluster_cases(cl):
    """Each cell's boundary with its vertex nodes, and its Cheeger set's inner curve with place_nodes."""
    cases = []
    for cell in cl.cells:
        corners = tuple(edge_point(row, 0.0) for row in cell.boundary.rows)
        if all(len(row) == 4 for row in cell.boundary.rows):
            cases.append((cell.boundary, NodeSet(corners, (False,) * len(corners)), cell.r))
            dom = cheeger_domain(ConvexPolygon([list(p) for p in corners]))
        else:
            dom = cell
        off = inner_cheeger_boundary(dom)
        cases.append((off.curve, place_nodes(off, dom), dom.r))
    return cases


class TestAgainstReference:
    """Chord deficits and Hales sides, bit for bit against the Point-based reference."""

    @staticmethod
    def _check(monkeypatch, cases):
        for curve, nodes, r_star in cases:
            got = [chord_deficits(curve, nodes), hales_check(curve, nodes, r_star)]
            with monkeypatch.context() as m:
                m.setattr(hales_deficit, "chord_deficits", chord_deficits_reference)
                want = [chord_deficits_reference(curve, nodes), hales_check(curve, nodes, r_star)]
            assert ([jsonio.dumps(deficit_report_to_dict(r)) for r in got]
                    == [jsonio.dumps(deficit_report_to_dict(r)) for r in want])

    def test_random_class_a_corpus(self, monkeypatch):
        self._check(monkeypatch, _class_a_cases())

    @pytest.mark.parametrize("l", [4, 8, 12])
    def test_honeycomb_cells(self, monkeypatch, l):
        self._check(monkeypatch, _cluster_cases(honeycomb_cluster(l)))

    def test_domino_cells(self, monkeypatch, domino_cluster):
        self._check(monkeypatch, _cluster_cases(domino_cluster))
