import math

import numpy as np
import pytest

from cheegerlab import cheeger
from cheegerlab.arc_geometry import BORDER_PIECE, FREE, INNER_JUNCTION, edge_point, transform_curve
from cheegerlab.cheeger import ArcDomain, ConvexPolygon, cheeger_domain
from cheegerlab.cluster import Cluster


def _on_container_boundary(p, container: ConvexPolygon, tol=1e-9) -> bool:
    v = container.vertices
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        ab = b - a
        t = float((np.array(p) - a) @ ab) / float(ab @ ab)
        t = min(1.0, max(0.0, t))
        if np.hypot(*(a + t * ab - np.array(p))) <= tol:
            return True
    return False


def relabel_for_container(domain: ArcDomain, container: ConvexPolygon,
                          shared_x: float) -> tuple:
    """Roles of a polygon Cheeger set placed inside a larger container.

    The vertical segment at x = shared_x becomes an inner junction arc;
    radius-r corner arcs with both endpoints on the container boundary become
    border junction pieces (they bridge two container sides).
    """
    roles = list(domain.roles)
    for i, row in enumerate(domain.boundary.rows):
        if len(row) == 4 and abs(row[0] - shared_x) < 1e-9 and abs(row[2] - shared_x) < 1e-9:
            roles[i] = INNER_JUNCTION
        elif len(row) == 5 and roles[i] == FREE:
            if all(_on_container_boundary(edge_point(row, t), container) for t in (0.0, 1.0)):
                roles[i] = BORDER_PIECE
    return tuple(roles)


def make_domino_cluster() -> Cluster:
    """Two mirrored unit-square Cheeger sets sharing their x = 1 segment.

    Container [0,2]x[0,1]; each cell has one shared inner junction arc and a
    single three-segment border junction arc, so the canonical graph is the
    spec's two-cell hand fixture: V = 3, E = 3, F = 2.
    """
    container = ConvexPolygon([[0, 0], [2, 0], [2, 1], [0, 1]])
    left_raw = cheeger_domain(ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]))
    right_raw = cheeger_domain(ConvexPolygon([[1, 0], [2, 0], [2, 1], [1, 1]]))
    left = ArcDomain(left_raw.boundary, relabel_for_container(left_raw, container, 1.0), left_raw.h)
    right = ArcDomain(right_raw.boundary, relabel_for_container(right_raw, container, 1.0), right_raw.h)
    return Cluster(container, (left, right))


def make_turned_square_cell(x: float, y: float) -> ArcDomain:
    """The Cheeger set of a unit-area square turned 45 degrees, moved so that
    the lowest point of its rounded bottom corner (radius 0.265) is (x, y)."""
    s = 1.0 / math.sqrt(2.0)
    cell = cheeger_domain(ConvexPolygon([[0, -s], [s, 0], [0, s], [-s, 0]]))
    cx, cy, r = min((row for row in cell.boundary.rows if len(row) == 5), key=lambda row: row[1] - row[2])[:3]
    return ArcDomain(transform_curve(cell.boundary, dx=x - cx, dy=y - (cy - r)), cell.roles, cell.h)


def make_lens_cells(x: float, depth: float):
    """A container of extent 7.8 holding the unit square's Cheeger set and a
    turned square whose rounded corner reaches ``depth`` below the first
    cell's top side at abscissa x, 0.3 <= x <= 0.7; the two overlap in a lens
    when depth > 0 and touch when it is 0."""
    box = ConvexPolygon([[-2, -2], [3, -2], [3, 4], [-2, 4]])
    square = cheeger_domain(ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]))
    return box, (square, make_turned_square_cell(x, 1.0 - depth))


@pytest.fixture(scope="session")
def domino_cluster():
    return make_domino_cluster()


@pytest.fixture
def call_counts(monkeypatch):
    """``count(module, *names)`` wraps each ``module.name`` for one test.

    Returns a dict of call counts by name that the wrappers keep up to date.
    A wrapper replaces the module attribute, so it sees the calls that look
    the name up there at call time.
    """
    def count(module, *names):
        tally = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                tally[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return tally

    return count


@pytest.fixture
def validation_counts(call_counts):
    """Calls of ``class_a_violations`` and ``offset_inner`` made through ``cheeger``."""
    return call_counts(cheeger, "class_a_violations", "offset_inner")
