"""A curve stored as float rows gives, bit for bit, what its edge objects give.

Every curve is its edge rows; the validated ``Segment``/``Arc`` object form
of those rows lives in the test oracles.  Here each quantity of the
lower-bound path is computed on the rows and again on the objects, by the
object-based oracles, over class-A domains, polygon Cheeger sets and cluster
cells, each also moved rigidly and dilated by 1e-8 to 1e8.
"""

import math

import numpy as np
import pytest

from cheegerlab import hales_deficit, jsonio
from cheegerlab.arc_geometry import (
    ArcCurve,
    Point,
    curve_length,
    offset_inner,
    signed_area,
    transform_curve,
)
from cheegerlab.cheeger import (
    ArcDomain,
    ConvexPolygon,
    cheeger_domain,
    class_a_violations,
    random_class_a_domain,
    random_convex_polygon,
    structure_report,
)
from cheegerlab.cluster import honeycomb_cluster
from cheegerlab.errors import ValidationError
from cheegerlab.hales_deficit import (
    NodeSet,
    chord_deficits,
    deficit_report_to_dict,
    hales_check,
    place_nodes,
)
from conftest import make_domino_cluster
from oracles import (
    Arc,
    Segment,
    chord_deficits_reference,
    class_a_violations_reference,
    curve_of,
    edge_row,
    edges_of,
    offset_inner_reference,
    transform_curve_reference,
)

# (angle, shift in extents, scale): the identity, then rigid motions with
# dilations from 1e-8 to 1e8
FRAMES = [(0.0, 0.0, 1.0)] + [(0.3 + k, 1e3 * (-1) ** k, scale)
                              for k, scale in enumerate((1e-8, 1e-4, 1e4, 1e8))]


def _domains(cells):
    # each cluster cell, and the Cheeger set of the polygon of an all-segment cell
    out = []
    for cell in cells:
        out.append(cell)
        if all(len(row) == 4 for row in cell.boundary.rows):
            out.append(cheeger_domain(ConvexPolygon([row[:2] for row in cell.boundary.rows])))
    return out


CASES = {
    "class_a": lambda: [random_class_a_domain(seed) for seed in range(24)],
    "polygon_cheeger_sets": lambda: [cheeger_domain(random_convex_polygon(np.random.default_rng([5, i])))
                                     for i in range(24)],
    "honeycomb_4": lambda: _domains(honeycomb_cluster(4).cells),
    "honeycomb_8": lambda: _domains(honeycomb_cluster(8).cells),
    "honeycomb_12": lambda: _domains(honeycomb_cluster(12).cells),
    "domino": lambda: _domains(make_domino_cluster().cells),
}


def _outcome(fn, *args):
    # the result, or the type and message of the error raised
    try:
        return fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def _reports(curve, nodes, r_star):
    return [jsonio.dumps(deficit_report_to_dict(rep)) for rep in
            (chord_deficits(curve, nodes), hales_check(curve, nodes, r_star))]


def _check_hales(curve, objects, nodes, r_star, monkeypatch):
    # the chord deficits and the Hales sides and verdict, or the same error
    got = _outcome(_reports, curve, nodes, r_star)
    with monkeypatch.context() as m:
        m.setattr(hales_deficit, "chord_deficits", chord_deficits_reference)
        want = _outcome(_reports, objects, nodes, r_star)
    assert got == want


def _check_domain(d, monkeypatch):
    c = d.boundary
    edges = edges_of(c)
    objects = curve_of(edges, c.closed)
    assert objects == c and objects.rows == c.rows == tuple(map(edge_row, edges))
    assert objects.bbox == c.bbox and hash(objects) == hash(c)
    assert curve_length(c) == sum(e.length for e in edges)
    assert signed_area(c) == signed_area(objects)
    assert class_a_violations(d) == class_a_violations_reference(d)
    if all(isinstance(e, Segment) for e in edges):  # a polygon cell, with its vertices as nodes
        corners = NodeSet(tuple((e.start.x, e.start.y) for e in edges), (False,) * len(edges))
        _check_hales(c, objects, corners, d.r, monkeypatch)

    off = _outcome(offset_inner, c, d.r, d.roles)
    try:
        edges, collapsed, points = offset_inner_reference(objects, d.r, d.roles)
        gamma = curve_of(edges)
    except ValidationError as exc:  # both raise, with the same error
        assert off == (type(exc), str(exc))
        return
    assert off.curve.rows == tuple(map(edge_row, edges))
    assert off.collapsed_indices == collapsed
    assert off.collapse_points == tuple((i, (p.x, p.y)) for i, p in points)
    assert structure_report(d).is_class_A == (not class_a_violations_reference(d))
    assert curve_length(off.curve) == sum(e.length for e in edges)
    assert signed_area(off.curve) == signed_area(gamma)
    if points:
        nodes = place_nodes(off, d)
        assert nodes.nodes == tuple((p.x, p.y) for _, p in points)
        _check_hales(off.curve, gamma, nodes, d.r, monkeypatch)
    # one node inside every edge, so every edge is cut
    inside = NodeSet(tuple((p.x, p.y) for p in (e.point_at(0.37) for e in edges)), (False,) * len(edges))
    _check_hales(off.curve, gamma, inside, d.r, monkeypatch)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_match_objects_in_every_frame(name, monkeypatch):
    for d in CASES[name]():
        for angle, shift, scale in FRAMES:
            dx = dy = shift * scale
            moved = transform_curve(d.boundary, angle, dx, -dy, scale)
            ref = transform_curve_reference(d.boundary, angle, dx, -dy, scale)
            assert moved.rows == ref.rows
            _check_domain(ArcDomain(moved, d.roles, d.h / scale), monkeypatch)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("row, message", [
    ((0.0, 0.0, 0.0, 0.0), "zero-length segment"),
    ((NAN, 0.0, 1.0, 0.0), "non-finite point (nan, 0.0)"),
    ((0.0, 0.0, 1.0, -INF), "non-finite point (1.0, -inf)"),
    ((INF, 0.0, 1.0, 0.0, 1.0), "non-finite point (inf, 0.0)"),
    ((0.0, 0.0, 0.0, 0.0, 1.0), "arc radius must be positive, got 0.0"),
    ((0.0, 0.0, -1.0, 0.0, 1.0), "arc radius must be positive, got -1.0"),
    ((0.0, 0.0, INF, 0.0, 1.0), "arc radius must be positive, got inf"),
    ((0.0, 0.0, NAN, 0.0, 1.0), "arc radius must be positive, got nan"),
    ((0.0, 0.0, 1.0, NAN, 1.0), "non-finite arc angle"),
    ((0.0, 0.0, 1.0, 0.0, 0.0), "arc sweep must be nonzero, finite and at most 2*pi in magnitude, got 0.0"),
    ((0.0, 0.0, 1.0, 0.0, -7.0), "arc sweep must be nonzero, finite and at most 2*pi in magnitude, got -7.0"),
    ((0.0, 0.0, 1.0, 0.0, INF), "arc sweep must be nonzero, finite and at most 2*pi in magnitude, got inf"),
])
def test_invalid_rows_raise_the_constructors_messages(row, message):
    # a curve of rows rejects a bad row with the message that building the
    # oracles' edge objects gives (their Point rule and their own row's
    # check), before any gap is measured
    def objects():
        if len(row) == 4:
            return Segment(Point(row[0], row[1]), Point(row[2], row[3]))
        return Arc(Point(row[0], row[1]), row[2], row[3], row[4])

    good = (5.0, 5.0, 6.0, 5.0)
    with pytest.raises(ValidationError) as by_objects:
        curve_of((Segment(Point(5.0, 5.0), Point(6.0, 5.0)), objects()))
    with pytest.raises(ValidationError) as by_rows:
        ArcCurve((good, row))
    assert str(by_objects.value) == str(by_rows.value) == message


def test_curve_rules_raise_the_same_messages():
    square = [(0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0)]
    for rows, closed in (([], True), (square[:3], True), (square[:1] + square[2:], False)):
        edges = [Segment(Point(*row[:2]), Point(*row[2:])) for row in rows]
        with pytest.raises(ValidationError) as by_objects:
            curve_of(edges, closed)
        with pytest.raises(ValidationError) as by_rows:
            ArcCurve(rows, closed)
        assert str(by_objects.value) == str(by_rows.value)
    assert ArcCurve(square) == curve_of(Segment(Point(*row[:2]), Point(*row[2:])) for row in square)
