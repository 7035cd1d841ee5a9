import hashlib
import math

import numpy as np
import pytest

from cheegerlab import arc_geometry, cluster, jsonio
from cheegerlab.arc_geometry import (
    CHAIN_TOL,
    ArcCurve,
    BORDER_PIECE,
    FREE,
    INNER_JUNCTION,
    transform_curve,
)
from cheegerlab.cheeger import (
    ArcDomain,
    ConvexPolygon,
    cheeger_domain,
    hexagon_constant,
    inner_cheeger_boundary,
    random_class_a_domain,
    regular_polygon,
    structure_report,
)
from cheegerlab.chamber_lemmas import reference_areas
from cheegerlab.cluster import (
    Cluster,
    canonical_graph,
    certificate_to_dict,
    cluster_from_dict,
    cluster_to_dict,
    empty_chamber_report,
    honeycomb_cluster,
    honeycomb_kcell,
    junction_curvature,
    lower_bound_certificate,
    objective,
    theorem_lower_bound,
)
from cheegerlab.errors import ValidationError
from cheegerlab.partition_optimizer import SeedConfiguration, power_diagram_cells
from conftest import make_lens_cells, make_turned_square_cell
from oracles import (
    BOUNDARY_SAMPLES,
    edges_of,
    honeycomb_adjacency_reference,
    overlap_message_reference,
    sample_boundary_reference,
)

PI = math.pi
KCELL = [(0, 0), (1, 0), (-1, 0), (0, 1), (-1, 1), (1, -1), (0, -1), (2, -1)]


class TestObjective:
    def test_honeycomb_max(self):
        cl = honeycomb_cluster(2)
        assert objective(cl, math.inf) == pytest.approx(hexagon_constant(), abs=1e-9)

    def test_honeycomb_sum(self):
        cl = honeycomb_cluster(2)
        assert objective(cl, 1) == pytest.approx(3 * hexagon_constant(), abs=1e-8)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 7.0])
    def test_sandwich(self, p):
        cl = honeycomb_cluster(3)
        k = cl.k
        m_inf = objective(cl, math.inf)
        m_p = objective(cl, p)
        assert m_inf <= m_p + 1e-12
        assert m_p <= k ** (1.0 / p) * m_inf + 1e-12

    def test_bad_exponent(self):
        cl = honeycomb_cluster(1)
        with pytest.raises(ValidationError):
            objective(cl, 0.5)

    def test_inverse_dilation_homogeneity(self):
        # scaling cells by lambda divides every h (unit-side vs unit-area hexagons)
        unit_area = honeycomb_cluster(2, unit_hexagon=True)
        unit_side = honeycomb_cluster(2, unit_hexagon=False)
        lam = math.sqrt(1.5 * math.sqrt(3.0))  # area scale factor between the two
        assert objective(unit_side, math.inf) == pytest.approx(
            objective(unit_area, math.inf) / lam, rel=1e-10
        )


class TestJunctionCurvature:
    def test_symmetric_is_flat(self):
        assert junction_curvature(2.0, 3.0, 2.0, 3.0, 2.0) == 0.0

    def test_formula_value(self):
        assert junction_curvature(2.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_antisymmetric(self):
        assert junction_curvature(1.0, 1.0, 2.0, 1.0, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_below_h(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            h_j, h_l = rng.uniform(0.5, 5.0, 2)
            a_j, a_l = rng.uniform(0.2, 4.0, 2)
            p = float(rng.uniform(1.0, 6.0))
            assert junction_curvature(h_j, a_j, h_l, a_l, p) < h_j

    def test_negligible_neighbour_rounds_to_h(self):
        # exactly below h_j, but the rounded value equals it (also under python -O)
        assert junction_curvature(1.0, 1.0, 1e-20, 1.0, 2.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            junction_curvature(-1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            junction_curvature(1.0, 1.0, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot, name", enumerate(["h_j", "area_j", "h_l", "area_l", "p"]))
    def test_non_finite_argument_rejected(self, slot, name, value):
        args = [1.0] * 5
        args[slot] = value
        with pytest.raises(ValidationError, match=rf"\b{name}\b"):
            junction_curvature(*args)


class TestCanonicalGraph:
    def test_honeycomb_l2(self):
        g = canonical_graph(honeycomb_cluster(2))
        assert g.vertex_count == 4
        assert g.e_in == 3
        assert g.e_out == 3
        assert g.faces == 4
        assert g.euler_residual == 0
        assert g.count_identity_ok
        assert sum(g.lambdas) + g.e_out + 6 == 18 == 6 * 3
        assert g.junction_bound_ok

    def test_honeycomb_l3(self):
        g = canonical_graph(honeycomb_cluster(3))
        assert g.e_in == 9
        assert g.e_out == 6
        assert sum(g.lambdas) == 24
        assert sum(g.lambdas) + g.e_out + 6 == 36 == 6 * 6
        assert g.euler_residual == 0

    def test_honeycomb_l4_explicit_enumeration(self):
        cl = honeycomb_cluster(4)
        g = canonical_graph(cl)
        # explicit count over the triangular arrangement of 10 hexagons
        coords = [(i, t) for t in range(4) for i in range(4 - t)]
        index = {c: j for j, c in enumerate(coords)}
        pairs = set()
        for (i, t) in coords:
            for di, dt in ((1, 0), (0, 1), (-1, 1)):
                nb = (i + di, t + dt)
                if nb in index:
                    pairs.add(tuple(sorted((index[(i, t)], index[nb]))))
        assert g.e_in == len(pairs) == 18
        border_cells = [c for c in coords if any(
            (c[0] + d[0], c[1] + d[1]) not in index
            for d in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
        )]
        assert g.e_out == len(border_cells) == 9
        assert 2 * g.e_in + g.e_out == sum(g.lambdas) == 45
        assert sum(g.lambdas) + g.e_out + 6 == 60 == 6 * cl.k
        assert g.euler_residual == 0
        assert g.connected

    def test_two_cell_fixture(self, domino_cluster):
        g = canonical_graph(domino_cluster)
        assert g.vertex_count == 3
        assert g.e_in + g.e_out == 3
        assert g.faces == 2
        assert sum(g.lambdas) == 4
        assert sum(g.lambdas) + g.e_out + 6 == 12 <= 12
        assert g.euler_residual == 0
        assert 2 * (g.e_in + g.e_out) >= 3 * g.faces

    def test_isolated_cells_count_as_components(self):
        # counts recorded from the earlier two-pass component search
        square = ConvexPolygon([[0, 0], [4, 0], [4, 4], [0, 4]])
        g = canonical_graph(Cluster(square, (_disk_domain(2.0, 2.0, 1.0),)))
        assert (g.connected, g.faces, g.euler_residual) == (False, 1, 1)
        pair = (_disk_domain(1.0, 1.0, 0.5), _disk_domain(3.0, 3.0, 0.5))
        g = canonical_graph(Cluster(square, pair))
        assert (g.connected, g.faces, g.euler_residual) == (False, 1, 2)
        hc = honeycomb_cluster(2)
        box = ConvexPolygon([[-5, -5], [5, -5], [5, 5], [-5, 5]])
        cells = hc.cells + (_disk_domain(3.5, 3.5, 1.0),)
        g = canonical_graph(Cluster(box, cells))
        assert (g.connected, g.faces, g.euler_residual) == (False, 4, 1)
        assert not g.junction_bound_checked

    def test_shared_arcs_match_the_lattice(self, domino_cluster):
        # the pairs read off the cells are those of lattice neighbors, at unit
        # area and at unit side, and for a k-cell that is no triangle; the
        # domino's is its one shared segment
        for unit_hexagon in (True, False):
            for l in range(1, 13):
                coords = [(i, t) for t in range(l) for i in range(l - t)]
                pairs = cluster._shared_arcs(honeycomb_cluster(l, unit_hexagon))
                assert sorted(pairs) == sorted(honeycomb_adjacency_reference(coords))
        pairs = cluster._shared_arcs(honeycomb_kcell(KCELL))
        assert sorted(pairs) == sorted(honeycomb_adjacency_reference(KCELL))
        assert cluster._shared_arcs(domino_cluster) == [(0, 1, 2, 6)]

    def test_moved_cell_shares_no_arc(self, domino_cluster):
        # in a container of extent 5 the matching tolerance is 5e-6: either
        # cell moved off the other by half of it still shares the segment at
        # x = 1, moved off by ten times it leaves both junction segments unshared
        box = ConvexPolygon([[-1, -1], [3, -1], [3, 2], [-1, 2]])
        tol = 1e-6 * box.extent
        for j, direction in ((0, -1.0), (1, 1.0)):
            for f in (0.5, 10.0):
                cells = list(domino_cluster.cells)
                c = cells[j]
                cells[j] = ArcDomain(transform_curve(c.boundary, dx=direction * f * tol), c.roles, c.h)
                cl = Cluster(box, cells)
                cert = lower_bound_certificate(cl)
                if f < 1.0:
                    assert cluster._shared_arcs(cl) == [(0, 1, 2, 6)]
                    assert cert.failing == () and cert.graph.e_in == 1
                    continue
                with pytest.raises(ValidationError, match=r"^inner junction arcs not shared exactly once: "
                                                          r"\[\(0, 2\), \(1, 6\)\]$"):
                    canonical_graph(cl)
                assert cert.failing == ((-1, "canonical_graph_invalid"),) and cert.graph is None

    def test_uncovered_junction_rejected(self, domino_cluster):
        # a border segment of the left cell relabelled as an inner junction
        # arc has no partner in the right cell
        left, right = domino_cluster.cells
        i = next(i for i, (row, role) in enumerate(zip(left.boundary.rows, left.roles))
                 if role == BORDER_PIECE and len(row) == 4)
        roles = left.roles[:i] + (INNER_JUNCTION,) + left.roles[i + 1:]
        cl = Cluster(domino_cluster.container, (ArcDomain(left.boundary, roles, left.h), right))
        with pytest.raises(ValidationError,
                           match=rf"^inner junction arcs not shared exactly once: \[\(0, {i}\)\]$"):
            canonical_graph(cl)
        assert (-1, "canonical_graph_invalid") in lower_bound_certificate(cl).failing


def _disk_domain(cx, cy, radius):
    curve = ArcCurve(((cx, cy, radius, 0.0, 2 * PI),))
    return ArcDomain(curve, (FREE,), 2.0 / radius)


def _polygon_cell(vertices):
    n = len(vertices)
    rows = tuple((*vertices[i], *vertices[(i + 1) % n]) for i in range(n))
    return ArcDomain(ArcCurve(rows), (BORDER_PIECE,) * n, 1.0)


def _hexagon(cx, cy, angle=0.0):
    """Vertices of the unit-side hexagon with a vertex at 30 + angle degrees."""
    return [(cx + math.cos(t), cy + math.sin(t))
            for t in math.pi / 6 + angle + np.arange(6) * math.pi / 3]


def _square_1e4():
    return [(1e4, 0.0), (1e4 + 1, 0.0), (1e4 + 1, 1.0), (1e4, 1.0)]


_BOX_1E4 = ConvexPolygon([[1e4 - 1, -1], [1e4 + 3, -1], [1e4 + 3, 2], [1e4 - 1, 2]])


class TestEmptyChamber:
    def test_honeycomb_tiles_exactly(self):
        rep = empty_chamber_report(honeycomb_cluster(2))
        assert rep.area == pytest.approx(0.0, abs=1e-9)

    def test_bound_closed_form(self):
        # k = 10 cells, r* = 0.1: bound = 18 |Delta| + 3 |corner| = 0.0495713
        delta, _, corner = reference_areas(0.1)
        assert 18 * delta + 3 * corner == pytest.approx(0.0495714, abs=1e-7)
        cl = honeycomb_cluster(4)  # k = 10, unit hexagons
        rep = empty_chamber_report(cl)
        r_star = 1.0 / max(c.h for c in cl.cells)
        d2, _, c2 = reference_areas(r_star)
        assert rep.bound == pytest.approx(18 * d2 + 3 * c2, rel=1e-12)

    def test_disjoint_disks(self):
        tri = regular_polygon(3, area=60.0, center=(0, 0))
        disks = (_disk_domain(-2.0, 0.5, 1.0), _disk_domain(2.0, 0.5, 1.0))
        cl = Cluster(tri, disks)
        rep = empty_chamber_report(cl)
        assert rep.area == pytest.approx(60.0 - 2 * PI, abs=1e-9)


class TestHoneycomb:
    def test_l4_counts(self):
        cl = honeycomb_cluster(4)
        assert cl.k == 10
        assert cl.container_area == pytest.approx(10.0, abs=1e-12)

    def test_all_cells_have_hex_constant(self):
        cl = honeycomb_cluster(3)
        for cell in cl.cells:
            assert cell.h == pytest.approx(hexagon_constant(), abs=1e-9)
            assert cell.area == pytest.approx(1.0, abs=1e-9)

    def test_l1_single_cell(self):
        cl = honeycomb_cluster(1)
        assert cl.k == 1
        assert objective(cl, math.inf) == pytest.approx(hexagon_constant(), abs=1e-9)

    def test_kcell_arbitrary_connected(self):
        cl = honeycomb_kcell([(0, 0), (1, 0), (2, 0), (2, 1)])
        assert cl.k == 4
        assert cl.container_area == pytest.approx(4.0, abs=1e-12)
        g = canonical_graph(cl)
        assert g.count_identity_ok

    def test_l12_builds_round_trips_and_certifies(self):
        # k = 78: cluster validation, the JSON round trip and the certificate
        cl = honeycomb_cluster(12)
        assert cl.k == 78
        back = cluster_from_dict(jsonio.loads(jsonio.dumps(cluster_to_dict(cl))))
        assert back.k == 78
        assert cluster_to_dict(back) == cluster_to_dict(cl)
        cert = lower_bound_certificate(back)
        assert abs(cert.scaled_objective - hexagon_constant()) <= 1e-9

    def test_points_are_plain_floats(self):
        for l in range(1, 5):
            for cell in honeycomb_cluster(l).cells:
                for row in cell.boundary.rows:
                    assert all(type(v) is float for v in row)

    def test_artifacts_pinned(self):
        # sha256 over jsonio.dumps(cluster_to_dict(...)) of the k-triangles
        # l = 1..9 at unit area, then at unit side, then one 8-cell k-cell
        digest = hashlib.sha256()
        for unit_hexagon in (True, False):
            for l in range(1, 10):
                digest.update(jsonio.dumps(cluster_to_dict(honeycomb_cluster(l, unit_hexagon))).encode())
        digest.update(jsonio.dumps(cluster_to_dict(honeycomb_kcell(KCELL))).encode())
        assert digest.hexdigest() == "e94338877534fcfa24b09cd5fd6d8d7b609d66cfca20e23c024161d375868514"

    def test_kcell_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            honeycomb_kcell([(0, 0), (3, 3)])

    @pytest.mark.parametrize("coords", [
        [(0.5, 0), (1, 0)], [(0, 0), (1.0, 0)], [(0, 0, 5)], [(0,)], [("0", 0)], [0],
    ])
    def test_kcell_non_integer_pairs_rejected(self, coords):
        # int() would truncate 0.5 to 0 and unpacking a 3-tuple raises a bare ValueError
        with pytest.raises(ValidationError, match="^hexagon coordinates must be integer pairs"):
            honeycomb_kcell(coords)

    def test_kcell_numpy_integers_accepted(self):
        cl = honeycomb_kcell([(np.int64(0), np.int32(0)), (np.int64(1), 0)])
        assert cluster_to_dict(cl) == cluster_to_dict(honeycomb_kcell([(0, 0), (1, 0)]))

    def test_bad_l(self):
        with pytest.raises(ValidationError):
            honeycomb_cluster(0)


class TestCertificate:
    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_honeycomb_equality(self, l):
        cert = lower_bound_certificate(honeycomb_cluster(l))
        assert abs(cert.scaled_objective - hexagon_constant()) < 1e-9
        assert cert.holds
        assert cert.final_rhs == pytest.approx(hexagon_constant() ** 2, abs=1e-12)
        assert cert.final_lhs == pytest.approx(cert.final_rhs, abs=1e-8)

    def test_final_rhs_value(self):
        cert = lower_bound_certificate(honeycomb_cluster(1))
        assert cert.final_rhs == pytest.approx(13.2035109, abs=1e-6)

    def test_domino_applicable(self, domino_cluster):
        cert = lower_bound_certificate(domino_cluster)
        assert cert.applicable
        assert cert.failing == ()
        assert cert.endstep2_ok
        assert cert.boundbelow_ok
        assert cert.scompo_ok
        assert cert.holds
        assert cert.node_total == 8
        assert cert.deficit_total == pytest.approx(0.0, abs=1e-12)
        for cell_cert in cert.per_cell:
            assert cell_cert.largest_root_margin > 0.0
            assert cell_cert.step1_margin > -1e-9
            assert cell_cert.hales.satisfied

    def test_validates_and_offsets_each_cell_once(self, domino_cluster, validation_counts):
        assert lower_bound_certificate(domino_cluster).applicable
        assert validation_counts == {"class_a_violations": 2, "offset_inner": 2}

    def test_certificate_builds_no_edge_objects(self, call_counts):
        # the certificate reads every curve as float rows: finding the shared
        # arcs of a honeycomb, built or read back from JSON, builds no
        # Segment or Arc view
        built = call_counts(arc_geometry, "Segment", "Arc")
        cl = honeycomb_cluster(4)
        for c in (cl, cluster_from_dict(cluster_to_dict(cl))):
            assert lower_bound_certificate(c).graph.e_in == 18
        assert built == {"Segment": 0, "Arc": 0}

    def test_structure_report_carries_the_offset(self, domino_cluster):
        hexagon = structure_report(honeycomb_cluster(2).cells[0])
        assert "offset_degenerate" in hexagon.violations and hexagon.offset is None
        for dom in (domino_cluster.cells[0], random_class_a_domain(5)):
            rep = structure_report(dom)
            assert rep.is_class_A
            assert rep.offset == inner_cheeger_boundary(dom)

    def test_honeycomb_marked_not_applicable(self):
        cert = lower_bound_certificate(honeycomb_cluster(2))
        assert not cert.applicable
        assert cert.failing  # hexagonal cells carry no free arcs

    def test_non_class_a_cells_write_null_inner_length(self):
        text = jsonio.dumps(certificate_to_dict(lower_bound_certificate(honeycomb_cluster(2))))
        cells = jsonio.loads(text)["per_cell"]
        assert cells and all(c["inner_length"] is None for c in cells)
        assert '"inner_length":null' in text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_theorem_bound_rejects_non_finite_area(self, value):
        with pytest.raises(ValidationError, match="container_area"):
            theorem_lower_bound(4, value)

    def test_theorem_bound(self):
        assert theorem_lower_bound(100, 1.0) == pytest.approx(10 * hexagon_constant(), abs=1e-9)
        assert theorem_lower_bound(100, 1.0) == pytest.approx(36.336636, abs=1e-5)

    def test_bound_decreases_with_container_area(self):
        # nested containers: the larger container certifies the smaller bound
        assert theorem_lower_bound(9, 2.0) < theorem_lower_bound(9, 1.0)

    def test_certificate_json_fields(self, domino_cluster):
        d = certificate_to_dict(lower_bound_certificate(domino_cluster))
        for key in ("h_star", "sum_inner_lengths", "chamber_bound", "final_lhs",
                    "final_rhs", "holds", "per_cell", "graph"):
            assert key in d
        assert all("T" in c and "N" in c for c in d["per_cell"])
        assert "chamber_applicable" not in d  # the bound is only reported


class TestClusterModel:
    def test_json_round_trip(self, domino_cluster):
        d = cluster_to_dict(domino_cluster)
        back = cluster_from_dict(d)
        assert back.k == domino_cluster.k
        assert back.container_area == pytest.approx(domino_cluster.container_area, abs=1e-12)
        g1 = canonical_graph(domino_cluster)
        g2 = canonical_graph(back)
        assert g1.lambdas == g2.lambdas

    def test_container_area_must_be_a_number(self, domino_cluster):
        d = cluster_to_dict(domino_cluster)
        assert cluster_from_dict(dict(d, container_area=None)).container_area == 2.0
        with pytest.raises(ValidationError, match="^container_area must be a number, got True$"):
            cluster_from_dict(dict(d, container_area=True))

    def test_graph_keys_are_unknown(self, domino_cluster):
        # the canonical graph is read off the cells and the empty-chamber
        # bound is only reported, so a cluster file is its container and its
        # cells; the keys of the hand-written graph and claimed_optimal are unknown
        d = cluster_to_dict(domino_cluster)
        assert list(d) == ["container", "container_area", "cells"]
        graph = {"adjacency": [[0, 1, 2, 6]], "border_contacts": [[0, 0], [1, 0]],
                 "claimed_optimal": False}
        with pytest.raises(ValidationError,
                           match="^unknown keys: adjacency, border_contacts, claimed_optimal$"):
            cluster_from_dict(dict(d, **graph))

    def test_adjacency_entries_must_be_integers(self, domino_cluster):
        # no adjacency or border contact entry is read any more: integer or
        # not, the key itself is refused before any entry is looked at
        d = cluster_to_dict(domino_cluster)
        for bad in (2, 2.7, 2.0, True, "2"):
            with pytest.raises(ValidationError, match="^unknown keys: adjacency$"):
                cluster_from_dict(dict(d, adjacency=[[0, 1, bad, 6]]))
            with pytest.raises(ValidationError, match="^unknown keys: border_contacts$"):
                cluster_from_dict(dict(d, border_contacts=[[0, bad], [1, 0]]))

    def test_index_rows_must_have_their_length(self, domino_cluster):
        # index rows of any length are refused with their key; the one list
        # left to check is the cells
        d = cluster_to_dict(domino_cluster)
        for bad in ([0, 1, 2], [0, 1, 2, 6, 0], [], {}):
            with pytest.raises(ValidationError, match="^unknown keys: adjacency$"):
                cluster_from_dict(dict(d, adjacency=[bad]))
            with pytest.raises(ValidationError, match="^unknown keys: border_contacts$"):
                cluster_from_dict(dict(d, border_contacts=[bad, [1, 0]]))
        with pytest.raises(ValidationError, match="^cells must be a list, got {}$"):
            cluster_from_dict(dict(d, cells={}))

    def test_claimed_optimal_must_be_a_boolean(self, domino_cluster):
        # claimed_optimal is no longer a field: a boolean is refused like any other value
        d = cluster_to_dict(domino_cluster)
        assert not hasattr(domino_cluster, "claimed_optimal")
        for value in (True, False, "no", 1, None):
            with pytest.raises(ValidationError, match="^unknown keys: claimed_optimal$"):
                cluster_from_dict(dict(d, claimed_optimal=value))

    def test_overlapping_cells_rejected(self):
        tri = regular_polygon(3, area=60.0, center=(0, 0))
        disks = (_disk_domain(0.0, 0.5, 1.0), _disk_domain(0.5, 0.5, 1.0))
        with pytest.raises(ValidationError):
            Cluster(tri, disks)

    def test_cell_outside_container_rejected(self):
        tri = regular_polygon(3, area=1.0, center=(0, 0))
        with pytest.raises(ValidationError):
            Cluster(tri, (_disk_domain(5.0, 5.0, 1.0),))

    def test_boundary_samples_are_edge_midpoints(self, domino_cluster):
        # the overlap oracle's samples: point_at at the midpoint of each of
        # the BOUNDARY_SAMPLES equal parameter steps of every edge, in order
        for cell in domino_cluster.cells + honeycomb_cluster(2).cells:
            x, y = sample_boundary_reference(cell)
            ref = [e.point_at((s + 0.5) / BOUNDARY_SAMPLES)
                   for e in edges_of(cell.boundary) for s in range(BOUNDARY_SAMPLES)]
            assert x.tolist() == [p.x for p in ref]
            assert y.tolist() == [p.y for p in ref]

    # The rejections below name the first crossing of two edges, or the
    # point of an edge that reaches farthest past a container side.

    def test_hexagon_sliver_overlap_rejected(self):
        # the second hexagon is turned by 0.002 rad and pushed so that only
        # 3 of each cell's 384 samples lie inside the other
        box = ConvexPolygon([[-3, -3], [6, -3], [6, 3], [-3, 3]])
        cells = (_polygon_cell(_hexagon(0.0, 0.0)),
                 _polygon_cell(_hexagon(math.sqrt(3.0) + 0.0009, 0.0, 0.002)))
        with pytest.raises(ValidationError) as err:
            Cluster(box, cells)
        assert type(err.value) is ValidationError
        assert str(err.value) == "cells 0 and 1 overlap near (0.866025, 0.498324)"

    def test_polygon_sliver_outside_container_rejected(self):
        # the vertex at x = 1.002 reaches 0.002 past the side x = 1
        square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
        cell = _polygon_cell([(0.1, 0.1), (0.9, 0.1), (1.002, 0.5), (0.9, 0.9), (0.1, 0.9)])
        with pytest.raises(ValidationError) as err:
            Cluster(square, (cell,))
        assert type(err.value) is ValidationError
        assert str(err.value) == "cell 0 leaves the container near (1.002, 0.5)"

    def test_shifted_arc_cell_overlap_rejected(self, domino_cluster):
        left, right = domino_cluster.cells
        moved = ArcDomain(transform_curve(left.boundary, dx=0.01), left.roles, left.h)
        with pytest.raises(ValidationError) as err:
            Cluster(domino_cluster.container, (moved, right))
        assert type(err.value) is ValidationError
        assert str(err.value) == "cells 0 and 1 overlap near (1.005, 0.213837)"

    @pytest.mark.parametrize("dx", [-1e4, 0.0], ids=["origin", "x1e4"])
    def test_sample_near_other_cell_accepted_anywhere(self, dx):
        # a sample of the square lies 1e-6 from the other cell, beyond the pad
        # of ten times that cell's tolerance (1e-9 times its extent), wherever
        # the pair sits
        def moved(vertices):
            return [(x + dx, y) for x, y in vertices]

        box = ConvexPolygon(_BOX_1E4.vertices + [dx, 0.0])
        cells = (_polygon_cell(moved(_square_1e4())), _polygon_cell(moved([
            (1e4 + 1 + 1e-6, 51.5 / 64), (1e4 + 2, 0.5), (1e4 + 2, 1.5),
            (1e4 + 0.5, 1.5), (1e4 + 0.5, 1.001), (1e4 + 1 + 1e-6, 1.001),
        ])))
        assert Cluster(box, cells).k == 2

    def test_first_overlapping_sample_reported(self):
        # the trapezoid's slanted side crosses the square's bottom side at
        # x = 1e4 + 0.815, the first crossing in edge order
        cells = (_polygon_cell(_square_1e4()), _polygon_cell([
            (1e4 + 0.7, -0.5), (1e4 + 2, -0.5), (1e4 + 2, 51.5 / 64), (1e4 + 1 + 1e-6, 51.5 / 64),
        ]))
        with pytest.raises(ValidationError) as err:
            Cluster(_BOX_1E4, cells)
        assert type(err.value) is ValidationError
        assert str(err.value) == "cells 0 and 1 overlap near (10000.8, 0)"

    def test_overlaps_match_pairwise_reference(self, domino_cluster):
        # every overlap the sampled oracle sees is rejected, and the pair the
        # error names overlaps by the oracle too
        def moved(cell, **motion):
            return ArcDomain(transform_curve(cell.boundary, **motion), cell.roles, cell.h)

        box = ConvexPolygon([[-20, -20], [20, -20], [20, 20], [-20, 20]])
        left, right = domino_cluster.cells
        hc3, hc4 = honeycomb_cluster(3).cells, honeycomb_cluster(4).cells
        dom = random_class_a_domain(5)
        cases = [
            (moved(left, dx=0.01), right),
            (moved(left, dx=0.01), moved(right, dx=0.5), moved(left, dx=1.2)),
            hc3[:4] + (moved(hc3[4], dx=0.3, dy=0.1),) + hc3[5:],
            (moved(hc4[0], angle=0.01),) + hc4[1:],
            hc4[:6] + (moved(hc4[6], dx=-0.05, dy=0.02),) + hc4[7:],
            (dom, moved(dom, dx=0.1 * dom.r), moved(dom, angle=0.5)),
        ]
        for cells in cases:
            assert overlap_message_reference(cells) is not None
            with pytest.raises(ValidationError, match="^cells ") as err:
                Cluster(box, cells)
            i, j = map(int, str(err.value).split()[1:4:2])
            assert overlap_message_reference((cells[i], cells[j])) is not None
        assert overlap_message_reference(hc4) is None
        assert Cluster(box, hc4).k == 10

    def test_first_pair_in_cell_order_reported(self):
        # cell 0 lies inside cell 3 and cell 2 inside cell 1, and no edges
        # cross: the nested pairs are (0, 3) and (1, 2), and (0, 3) comes first;
        # the error names the inner disk's vertex, the start of its arc
        box = ConvexPolygon([[-5, -5], [15, -5], [15, 5], [-5, 5]])
        cells = (_disk_domain(0.0, 0.0, 0.5), _disk_domain(10.0, 0.0, 2.0),
                 _disk_domain(10.0, 0.5, 0.5), _disk_domain(0.0, 0.3, 2.0))
        assert overlap_message_reference(cells).startswith("cells 0 and 3 overlap near (")
        with pytest.raises(ValidationError) as err:
            Cluster(box, cells)
        assert str(err.value) == "cells 0 and 3 overlap near (0.5, 0)"
        swapped = (cells[2], cells[1], cells[0], cells[3])
        assert overlap_message_reference(swapped).startswith("cells 0 and 1 overlap near (")
        with pytest.raises(ValidationError) as err:
            Cluster(box, swapped)
        assert str(err.value) == "cells 0 and 1 overlap near (10.5, 0.5)"

    def test_scaled_objective_equals_graph_free_quantity(self):
        cl = honeycomb_cluster(3)
        cert = lower_bound_certificate(cl)
        assert cert.scaled_objective == pytest.approx(
            math.sqrt(cl.container_area / cl.k) * objective(cl, math.inf), abs=1e-12
        )


class TestExactChecks:
    """Containment and disjointness are decided edge pair by edge pair, so
    an overlap or an overhang deeper than the tolerance is caught wherever it
    falls along an edge."""

    @pytest.mark.parametrize("depth", [1e-5, 1e-6, 1e-7])
    def test_lens_rejected_at_every_placement(self, depth):
        # the sampled check let 15, 33 and 39 of these 41 lenses through
        for x in np.linspace(0.3, 0.7, 41):
            box, cells = make_lens_cells(x, depth)
            assert depth >= 10.0 * CHAIN_TOL * box.extent
            with pytest.raises(ValidationError) as err:
                Cluster(box, cells)
            # the crossing of the corner arc with the top side y = 1
            px, py = map(float, str(err.value).partition("near (")[2].rstrip(")").split(", "))
            assert str(err.value).startswith("cells 0 and 1 overlap near (")
            assert abs(py - 1.0) < 1e-5 and 0.0 < abs(px - x) < math.sqrt(2.0 * 0.27 * depth)

    @pytest.mark.parametrize("depth", [0.0, -1e-7])
    def test_tangent_or_apart_accepted_at_every_placement(self, depth):
        for x in np.linspace(0.3, 0.7, 41):
            assert Cluster(*make_lens_cells(x, depth)).k == 2

    def test_arc_below_container_side_rejected_at_every_placement(self):
        # the tolerance is 1e-6 times the extent 4.72; the sampled check let
        # all 21 through, and the error names the arc's lowest point
        box = ConvexPolygon([[-2, 0], [2, 0], [2, 2.5], [-2, 2.5]])
        for x in np.linspace(-0.5, 0.5, 21):
            with pytest.raises(ValidationError) as err:
                Cluster(box, (make_turned_square_cell(x, -1e-5),))
            assert str(err.value) == f"cell 0 leaves the container near ({x:.6g}, -1e-05)"
            for y in (-1e-6, 0.0, 1e-5):  # within the tolerance, or inside
                assert Cluster(box, (make_turned_square_cell(x, y),)).k == 1

    def test_same_way_shared_edges_overlap(self):
        # no edges cross: a cell twice, the right half of a square inside it,
        # and a circle twice from two start angles; where a vertex of one
        # cell meets the other, both run the same way, so their directions
        # inward overlap (the sampled check skips samples on the other cell)
        box = ConvexPolygon([[-3, -3], [6, -3], [6, 3], [-3, 3]])
        square = _polygon_cell([(0, 0), (1, 0), (1, 1), (0, 1)])
        half = _polygon_cell([(0.5, 0), (1, 0), (1, 1), (0.5, 1)])
        disk = _disk_domain(0.0, 0.0, 1.0)
        turned = ArcDomain(ArcCurve(((0.0, 0.0, 1.0, 0.5 * PI, 2 * PI),)), (FREE,), 2.0)
        for cells, at in (((square, square), "(0, 0)"), ((square, half), "(1, 0)"), ((half, square), "(0.5, 0)"),
                          ((disk, disk), "(1, 0)"), ((disk, turned), "(1, 0)")):
            with pytest.raises(ValidationError) as err:
                Cluster(box, cells)
            assert str(err.value) == f"cells 0 and 1 overlap near {at}"

    def test_contacts_accepted(self):
        # half a side shared run opposite ways (a brick joint), a vertex on
        # another cell's side, and disks tangent from outside
        box = ConvexPolygon([[-3, -3], [6, -3], [6, 3], [-3, 3]])
        square = _polygon_cell([(0, 0), (1, 0), (1, 1), (0, 1)])
        brick = _polygon_cell([(0.5, 0), (0.5, -1), (2, -1), (2, 0)])
        vertex = _polygon_cell([(1, 0.5), (2, 0), (2, 1)])
        assert Cluster(box, (square, brick, vertex)).k == 3
        disks = (_disk_domain(0.0, 0.0, 1.0), _disk_domain(2.0, 0.0, 1.0), _disk_domain(1.0, math.sqrt(3.0), 1.0))
        assert Cluster(box, disks).k == 3

    def test_nested_cells_rejected(self):
        # a disk inside another, touching it from inside, and a square inside
        # a hexagon: no edges cross, and the winding number decides
        box = ConvexPolygon([[-3, -3], [6, -3], [6, 3], [-3, 3]])
        for inner in (_disk_domain(0.5, 0.0, 0.5), _polygon_cell([(-0.3, -0.3), (0.3, -0.3), (0.3, 0.3), (-0.3, 0.3)])):
            for outer in (_disk_domain(0.0, 0.0, 1.0), _polygon_cell(_hexagon(0.0, 0.0))):
                for cells in ((inner, outer), (outer, inner)):
                    with pytest.raises(ValidationError, match="^cells 0 and 1 overlap near "):
                        Cluster(box, cells)

    def test_overlaps_meeting_only_at_vertices_rejected(self):
        # the boundaries meet only where a vertex of one lies on the other: the
        # directions into the two cells there overlap, which the sampled
        # oracle sees too
        box = ConvexPolygon([[-9, -9], [9, -9], [9, 9], [-9, 9]])
        square = _polygon_cell([(0, 0), (1, 0), (1, 1), (0, 1)])
        for outline, at in (([(1, 0), (2, 2), (0, 1)], "(1, 0)"),
                            ([(0, 0), (1, 1), (1, 5), (-5, 5), (-5, 0)], "(0, 0)"),
                            ([(0.5, 0), (2, 0.5), (1, 1.5)], "(1, 0.166667)")):
            for cells in ((square, _polygon_cell(outline)), (_polygon_cell(outline), square)):
                assert overlap_message_reference(cells) is not None
                with pytest.raises(ValidationError) as err:
                    Cluster(box, cells)
                assert str(err.value) == f"cells 0 and 1 overlap near {at}"

    def test_cheeger_sets_of_power_cells_accepted(self):
        # neighbouring Cheeger sets run along a shared side and leave it by
        # corner arcs a little apart, so a vertex of one lies within the pad
        # of the other's arc, whose direction there has turned by 3e-4 rad
        tri = ConvexPolygon([[0, 0], [4, 0], [2, 3.4]])
        rng = np.random.default_rng(6)
        seeds = [(rng.uniform(0.3, 3.7), rng.uniform(0.2, 2.6)) for _ in range(12)]
        seeds = np.array([q for q in seeds if tri.contains(*q)])
        cells = power_diagram_cells(SeedConfiguration(seeds, rng.normal(0.0, 0.05, len(seeds))), tri)
        assert Cluster(tri, tuple(cheeger_domain(c) for c in cells)).k == 8
        assert Cluster(tri, tuple(_polygon_cell(c.vertices.tolist()) for c in cells)).k == 8
