"""Exact-as-possible kernel for closed oriented curves made of circular arcs and segments.

Curves are stored as ordered edge lists.  Every metric quantity (length, signed
area, winding number, inner offset) is evaluated edge-exactly from closed
forms; nothing here ever approximates an arc by a polyline.  Signed/oriented
area is the Gauss-Green line integral ``integral (x - x0) dy`` with x0 on the
curve; with self intersections it is the area weighted by winding index, so
no arrangement computation is needed.  Tolerances are ``CHAIN_TOL`` times the
curve's extent.

Angle convention for arcs: ``(start_angle, signed_sweep)``, where the arc runs
from ``start_angle`` to ``start_angle + signed_sweep`` and ``0 < |signed_sweep|
<= 2*pi``.  A positive sweep is counterclockwise (``turning = +1``), a negative
one clockwise (``turning = -1``), and ``signed_sweep = ±2*pi`` is a full circle
at any start angle.  Only ``Arc.between`` reduces two endpoint angles to a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import jsonio
from .errors import (
    ContractViolation,
    DegenerateOffsetError,
    OnBoundaryError,
    ValidationError,
)

TWO_PI = 2.0 * math.pi

# Role labels for offset_inner / class-A machinery.
FREE = "free"
INNER_JUNCTION = "inner_junction"
BORDER_PIECE = "border_junction_piece"
ROLES = (FREE, INNER_JUNCTION, BORDER_PIECE)

# Endpoint-coincidence and on-curve tolerance, relative to the curve's extent.
CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"non-finite point ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Segment:
    start: Point
    end: Point

    def __post_init__(self):
        if self.start.distance_to(self.end) == 0.0:
            raise ValidationError("zero-length segment")

    @property
    def length(self) -> float:
        return self.start.distance_to(self.end)

    def point_at(self, t: float) -> Point:
        return Point(
            self.start.x + t * (self.end.x - self.start.x),
            self.start.y + t * (self.end.y - self.start.y),
        )

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


@dataclass(frozen=True)
class Arc:
    center: Point
    radius: float
    start_angle: float
    signed_sweep: float  # > 0 counterclockwise, < 0 clockwise; magnitude at most 2*pi

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValidationError(f"arc radius must be positive, got {self.radius}")
        if not math.isfinite(self.start_angle):
            raise ValidationError("non-finite arc angle")
        if not 0.0 < abs(self.signed_sweep) <= TWO_PI:
            raise ValidationError("arc sweep must be nonzero, finite and at most 2*pi in "
                                  f"magnitude, got {self.signed_sweep}")

    @classmethod
    def between(cls, center: Point, radius: float, a0: float, a1: float, turning: int) -> "Arc":
        """Arc from angle a0 to a1 turning +1 (CCW) or -1; equal angles give a full circle."""
        if turning not in (1, -1):
            raise ValidationError(f"arc turning must be +1 or -1, got {turning}")
        s = (turning * (a1 - a0)) % TWO_PI
        return cls(center, radius, a0, turning * (TWO_PI if s == 0.0 else s))

    @property
    def turning(self) -> int:
        return 1 if self.signed_sweep > 0.0 else -1

    @property
    def sweep(self) -> float:
        """Opening angle in (0, 2*pi]."""
        return abs(self.signed_sweep)

    @property
    def length(self) -> float:
        return self.radius * self.sweep

    def angle_at(self, t: float) -> float:
        return self.start_angle + self.signed_sweep * t

    def point_at(self, t: float) -> Point:
        a = self.angle_at(t)
        return Point(
            self.center.x + self.radius * math.cos(a),
            self.center.y + self.radius * math.sin(a),
        )

    @property
    def start(self) -> Point:
        return self.point_at(0.0)

    @property
    def end(self) -> Point:
        return self.point_at(1.0)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.angle_at(1.0), -self.signed_sweep)


# types.UnionType, not typing.Union: typing caches Union[...] globally, which
# would keep every re-imported copy of this module alive
Edge = Arc | Segment


@dataclass(frozen=True)
class ArcCurve:
    """Oriented chain of arcs and segments; consecutive endpoints must coincide."""

    edges: tuple
    closed: bool = True

    def __post_init__(self):
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        if not edges:
            raise ValidationError("curve needs at least one edge")
        tol = self.tolerance
        for i in range(len(edges) - 1):
            gap = edges[i].end.distance_to(edges[i + 1].start)
            if gap > tol:
                raise ValidationError(
                    f"gap {gap:.3e} between edges {i} and {i + 1} exceeds tolerance {tol:.3e}"
                )
        if self.closed:
            gap = edges[-1].end.distance_to(edges[0].start)
            if gap > tol:
                raise ValidationError(
                    f"closed curve does not close: terminal gap {gap:.3e} > {tol:.3e}"
                )

    @cached_property
    def bbox(self):
        """(xmin, ymin, xmax, ymax) of the edges, an arc counting its whole circle."""
        xs, ys = [], []
        for e in self.edges:
            if isinstance(e, Arc):
                xs += [e.center.x - e.radius, e.center.x + e.radius]
                ys += [e.center.y - e.radius, e.center.y + e.radius]
            else:
                xs += [e.start.x, e.end.x]
                ys += [e.start.y, e.end.y]
        return min(xs), min(ys), max(xs), max(ys)

    @property
    def extent(self) -> float:
        """Diagonal of ``bbox``: the length every tolerance on the curve is relative to."""
        x0, y0, x1, y1 = self.bbox
        return math.hypot(x1 - x0, y1 - y0)

    @property
    def tolerance(self) -> float:
        """``CHAIN_TOL * extent``: the largest gap between edges, and the on-curve distance."""
        return CHAIN_TOL * self.extent

    def vertices(self):
        """Start point of every edge (plus the terminal point if the curve is open)."""
        pts = [e.start for e in self.edges]
        if not self.closed:
            pts.append(self.edges[-1].end)
        return pts

    def reversed(self) -> "ArcCurve":
        return ArcCurve(tuple(e.reversed() for e in reversed(self.edges)), self.closed)


def curve_length(c: ArcCurve) -> float:
    """Total length: radius*opening for arcs, Euclidean length for segments."""
    return sum(e.length for e in c.edges)


def _edge_area_integral(e: Edge, x0: float) -> float:
    # Closed form of integral (x - x0) dy along the edge.
    if isinstance(e, Segment):
        return 0.5 * ((e.start.x - x0) + (e.end.x - x0)) * (e.end.y - e.start.y)
    t0 = e.start_angle
    t1 = t0 + e.signed_sweep
    first = (e.center.x - x0) * e.radius * (math.sin(t1) - math.sin(t0))
    second = e.radius * e.radius * (
        0.5 * (t1 - t0) + 0.25 * (math.sin(2.0 * t1) - math.sin(2.0 * t0))
    )
    return first + second


def signed_area(c: ArcCurve) -> float:
    """Gauss-Green area ``integral (x - x0) dy``; positive for counterclockwise Jordan curves.

    x0 is the x of the first edge's start, as ``cheeger._shoelace`` measures
    from the first vertex; on a closed curve ``integral x0 dy`` vanishes, and
    relative coordinates keep a far translate from cancelling its area away.
    For any closed curve, self-intersecting or multiply wound, this equals the
    winding-index-weighted area (the integral of the winding number over the
    plane), so self intersections are harmless.
    """
    if not c.closed:
        raise ContractViolation("signed_area requires a closed curve")
    return edges_area(c.edges)


def edges_area(edges: Sequence[Edge]) -> float:
    """``signed_area`` of edges that close up, without building or checking a curve."""
    x0 = edges[0].start.x
    return sum(_edge_area_integral(e, x0) for e in edges)


def _edge_columns(c: ArcCurve):
    """Per-field arrays of the curve's segments and of its arcs (None when absent).

    Segments: start x, start y, end x, end y.  Arcs: center x, center y,
    radius, start angle, opening angle, turning, start x, start y, end x,
    end y.  Each field is a row, so it broadcasts against a column of points.
    """
    segs, arcs = [], []
    for e in c.edges:
        s, t = e.start, e.end
        if isinstance(e, Segment):
            segs.append((s.x, s.y, t.x, t.y))
        else:
            arcs.append((e.center.x, e.center.y, e.radius, e.start_angle, e.sweep,
                         e.turning, s.x, s.y, t.x, t.y))
    return (np.array(segs).T if segs else None), (np.array(arcs).T if arcs else None)


def _points(x, y):
    # query coordinates as columns, so every edge field broadcasts along axis 1
    return np.asarray(x, dtype=float)[:, None], np.asarray(y, dtype=float)[:, None]


def _distances(segs, arcs, x, y) -> np.ndarray:
    # nearest distance from each point column entry to the edge columns
    best = np.full(len(x), np.inf)
    if segs is not None:
        x0, y0, x1, y1 = segs
        vx, vy = x1 - x0, y1 - y0
        wx, wy = x - x0, y - y0
        t = np.clip((vx * wx + vy * wy) / (vx * vx + vy * vy), 0.0, 1.0)
        best = np.minimum(best, np.hypot(wx - t * vx, wy - t * vy).min(axis=1))
    if arcs is not None:
        cx, cy, radius, a0, sweep, turning, sx, sy, ex, ey = arcs
        dx, dy = x - cx, y - cy
        rho = np.hypot(dx, dy)
        # the nearest point is radial when q's direction falls within the arc
        rel = (turning * (np.arctan2(dy, dx) - a0)) % TWO_PI
        ends = np.minimum(np.hypot(x - sx, y - sy), np.hypot(x - ex, y - ey))
        d = np.where(rel <= sweep, np.abs(rho - radius), ends)
        best = np.minimum(best, np.where(rho == 0.0, radius, d).min(axis=1))
    return best


def curve_distances(c: ArcCurve, x, y) -> np.ndarray:
    """Distance from each point ``(x[i], y[i])`` to the curve, for arrays x and y."""
    return _distances(*_edge_columns(c), *_points(x, y))


def distance_to_curve(q: Point, c: ArcCurve) -> float:
    """Distance from q to the curve: a one-point call of ``curve_distances``."""
    return float(curve_distances(c, [q.x], [q.y])[0])


def _principal_turn(x, y, ax, ay, bx, by):
    # signed angle of (b - q) relative to (a - q), in (-pi, pi]
    v0x, v0y = ax - x, ay - y
    v1x, v1y = bx - x, by - y
    return np.arctan2(v0x * v1y - v0y * v1x, v0x * v1x + v0y * v1y)


def winding_numbers(c: ArcCurve, x, y) -> np.ndarray:
    """Winding number of the closed curve around each point ``(x[i], y[i])``.

    Every edge contributes its exact turn in O(1).  A segment, or an arc seen
    from outside its supporting disk, turns by the principal angle between
    its endpoints, since all its directions fit in an open half-plane.  Seen
    from inside or on its supporting circle (``rho <= R``), the direction to
    an arc of opening S rotates monotonically with the arc's turning through
    an angle V in ``[S/2, S/2 + pi)``, which is 2*pi for a full circle.  V is
    the difference of the endpoint directions taken modulo 2*pi; the residue
    is picked from the window of width 2*pi centred on S/2 + pi/2, which keeps
    pi/2 clear of every possible V, so rounding in the endpoint coordinates
    (a full circle's end point landing on either side of its start) cannot
    move it by 2*pi.

    Raises ``OnBoundaryError`` for the first point within the curve's
    tolerance, and ``ValidationError`` if a total is not within 1/4 of an
    integer.
    """
    if not c.closed:
        raise ContractViolation("winding_number requires a closed curve")
    segs, arcs = _edge_columns(c)
    x, y = _points(x, y)
    d = _distances(segs, arcs, x, y)
    on = np.flatnonzero(d <= c.tolerance)
    if on.size:
        raise OnBoundaryError(f"query point is on the curve (distance {d[on[0]]:.3e})")
    total = np.zeros(len(x))
    if segs is not None:
        total += _principal_turn(x, y, *segs).sum(axis=1)
    if arcs is not None:
        cx, cy, radius, _, sweep, turning, sx, sy, ex, ey = arcs
        outside = np.hypot(x - cx, y - cy) > radius
        raw = turning * (np.arctan2(ey - y, ex - x) - np.arctan2(sy - y, sx - x))
        centre = 0.5 * sweep + 0.5 * math.pi
        inside = turning * (raw + TWO_PI * np.rint((centre - raw) / TWO_PI))
        total += np.where(outside, _principal_turn(x, y, sx, sy, ex, ey), inside).sum(axis=1)
    m = total / TWO_PI
    n = np.rint(m)
    off = np.flatnonzero(np.abs(m - n) > 0.25)
    if off.size:
        raise ValidationError(f"winding number did not converge to an integer: {float(m[off[0]])}")
    return n.astype(int)


def winding_number(c: ArcCurve, q: Point) -> int:
    """Total turning of the closed curve around q, divided by 2*pi (an exact integer).

    A one-point call of ``winding_numbers``: each edge adds its exact turn, in
    O(1) however close q is to the curve.
    """
    return int(winding_numbers(c, [q.x], [q.y])[0])


def _segment_inner_normal(s: Segment):
    # Interior of a CCW boundary lies to the left of the travel direction.
    dx, dy = s.end.x - s.start.x, s.end.y - s.start.y
    n = math.hypot(dx, dy)
    return -dy / n, dx / n


@dataclass(frozen=True)
class OffsetResult:
    """Inner-parallel curve plus bookkeeping for edges that degenerated to points.

    ``collapsed_indices`` lists the free arcs that collapsed; ``collapse_points``
    maps every collapsed edge index (free arcs and radius-r border corner arcs)
    to its collapse point, in traversal order.
    """

    curve: ArcCurve
    collapsed_indices: tuple
    collapse_points: tuple  # ((edge_index, Point), ...)


def has_radius(a: Arc, r: float) -> bool:
    """Whether the arc's radius is r, to the relative 1e-6 that the offset allows."""
    return abs(a.radius - r) <= 1e-6 * r


def offset_inner(c: ArcCurve, r: float, roles: Sequence[str]) -> OffsetResult:
    """Inner parallel curve at distance r of a labeled class-A style boundary.

    Radius-r arcs (role ``free`` or border corner pieces) collapse to their
    centers; negatively curved arcs widen to radius rho + r, positively curved
    junction arcs shrink to rho - r, and segments translate along the inner
    normal.  The output closes through the collapse points.
    """
    if not c.closed:
        raise ContractViolation("offset_inner requires a closed curve")
    if r <= 0.0:
        raise ContractViolation(f"offset distance must be positive, got {r}")
    if len(roles) != len(c.edges):
        raise ContractViolation(
            f"{len(roles)} roles supplied for {len(c.edges)} edges"
        )
    for role in roles:
        if role not in ROLES:
            raise ContractViolation(f"unknown edge role {role!r}")

    new_edges = []
    collapsed = []
    collapse_points = []
    for i, (e, role) in enumerate(zip(c.edges, roles)):
        if isinstance(e, Arc):
            if role == FREE or (role == BORDER_PIECE and has_radius(e, r)):
                if not has_radius(e, r) or e.turning != 1:
                    raise ContractViolation(
                        f"edge {i}: role {role!r} requires a CCW arc of radius {r}, "
                        f"got radius {e.radius} turning {e.turning}"
                    )
                collapse_points.append((i, e.center))
                if role == FREE:
                    collapsed.append(i)
                continue
            if role == BORDER_PIECE:
                raise ValidationError(
                    f"edge {i}: border junction arcs must have curvature 1/r, "
                    f"got radius {e.radius}"
                )
            if e.turning == 1 and e.radius <= r * (1.0 + 1e-12):
                raise DegenerateOffsetError(
                    f"edge {i}: positive-curvature arc of radius {e.radius} "
                    f"cannot be offset inward by {r}"
                )
            new_edges.append(Arc(e.center, e.radius - e.turning * r, e.start_angle, e.signed_sweep))
        else:
            nx, ny = _segment_inner_normal(e)
            new_edges.append(
                Segment(
                    Point(e.start.x + r * nx, e.start.y + r * ny),
                    Point(e.end.x + r * nx, e.end.y + r * ny),
                )
            )
    if not new_edges:
        raise DegenerateOffsetError("every edge collapsed; offset curve is empty")
    curve = ArcCurve(tuple(new_edges), closed=True)
    return OffsetResult(curve, tuple(collapsed), tuple(collapse_points))


# ---------------------------------------------------------------------------
# Rigid motions and dilations (used by tests and cluster assembly).

def _map_point(p: Point, cos_a, sin_a, dx, dy, lam):
    return Point(
        lam * (cos_a * p.x - sin_a * p.y) + dx,
        lam * (sin_a * p.x + cos_a * p.y) + dy,
    )


def transform_curve(c: ArcCurve, angle: float = 0.0, dx: float = 0.0,
                    dy: float = 0.0, scale: float = 1.0) -> ArcCurve:
    """Apply rotation by ``angle``, dilation by ``scale`` and then translation."""
    if scale <= 0.0:
        raise ValidationError("scale must be positive")
    ca, sa = math.cos(angle), math.sin(angle)
    out = []
    for e in c.edges:
        if isinstance(e, Arc):
            out.append(
                Arc(_map_point(e.center, ca, sa, dx, dy, scale), e.radius * scale,
                    e.start_angle + angle, e.signed_sweep)
            )
        else:
            out.append(
                Segment(
                    _map_point(e.start, ca, sa, dx, dy, scale),
                    _map_point(e.end, ca, sa, dx, dy, scale),
                )
            )
    return ArcCurve(tuple(out), c.closed)


# ---------------------------------------------------------------------------
# Edge splitting (node placement needs curves cut at arbitrary on-curve points).

def edge_row(e: Edge) -> tuple:
    """The edge as floats: ``(x0, y0, x1, y1)`` for a segment, ``(cx, cy, r, a0, sweep)`` for an arc."""
    if isinstance(e, Segment):
        return e.start.x, e.start.y, e.end.x, e.end.y
    return e.center.x, e.center.y, e.radius, e.start_angle, e.signed_sweep


def edge_point(row: tuple, t: float):
    """(x, y) of ``point_at(t)`` on the edge given as an ``edge_row``."""
    if len(row) == 4:
        return row[0] + t * (row[2] - row[0]), row[1] + t * (row[3] - row[1])
    cx, cy, r, a0, sweep = row
    return cx + r * math.cos(a0 + sweep * t), cy + r * math.sin(a0 + sweep * t)


def locate_on_edge(x: float, y: float, row: tuple):
    """Parameter t in [0, 1] of the ``edge_row`` point nearest to (x, y), and the distance to it."""
    if len(row) == 4:
        x0, y0, x1, y1 = row
        vx, vy = x1 - x0, y1 - y0
        t = min(1.0, max(0.0, (vx * (x - x0) + vy * (y - y0)) / (vx * vx + vy * vy)))
    else:
        cx, cy, _, a0, sweep = row
        rel = (math.copysign(1.0, sweep) * (math.atan2(y - cy, x - cx) - a0)) % TWO_PI
        span = abs(sweep)
        if rel > span:  # past the arc: the nearer end
            rel = 0.0 if TWO_PI - rel < rel - span else span
        t = rel / span
    return t, math.dist((x, y), edge_point(row, t))


def split_edge(e: Edge, t: float):
    """Cut an edge at interior parameter t, returning the two halves."""
    if not 0.0 < t < 1.0:
        raise ContractViolation(f"split parameter must be interior, got {t}")
    if isinstance(e, Segment):
        mid = e.point_at(t)
        return Segment(e.start, mid), Segment(mid, e.end)
    rest = e.signed_sweep - e.signed_sweep * t
    first = e.signed_sweep - rest  # exact, so the two sweeps sum to the edge's
    return (
        Arc(e.center, e.radius, e.start_angle, first),
        Arc(e.center, e.radius, e.start_angle + first, rest),
    )


# ---------------------------------------------------------------------------
# JSON encoding: {"closed": bool, "edges": [{"kind": "arc", ...} | {"kind": "seg", ...}]}

def edge_to_dict(e: Edge) -> dict:
    if isinstance(e, Arc):
        return {
            "kind": "arc",
            "cx": e.center.x,
            "cy": e.center.y,
            "r": e.radius,
            "a0": e.start_angle,
            "sweep": e.signed_sweep,
        }
    return {
        "kind": "seg",
        "x0": e.start.x,
        "y0": e.start.y,
        "x1": e.end.x,
        "y1": e.end.y,
    }


def edge_from_dict(d: dict) -> Edge:
    kind = d.get("kind")
    if kind == "arc":
        jsonio.require_keys(d, ["kind", "cx", "cy", "r", "a0", "sweep"])
        cx, cy, r, a0, sweep = (jsonio.number(d[k], k) for k in ("cx", "cy", "r", "a0", "sweep"))
        return Arc(Point(cx, cy), r, a0, sweep)
    if kind == "seg":
        jsonio.require_keys(d, ["kind", "x0", "y0", "x1", "y1"])
        x0, y0, x1, y1 = (jsonio.number(d[k], k) for k in ("x0", "y0", "x1", "y1"))
        return Segment(Point(x0, y0), Point(x1, y1))
    raise ValidationError(f"unknown edge kind {kind!r}")


def curve_to_dict(c: ArcCurve) -> dict:
    return {"closed": c.closed, "edges": [edge_to_dict(e) for e in c.edges]}


def curve_from_dict(d: dict) -> ArcCurve:
    try:
        jsonio.require_keys(d, ["closed", "edges"])
        edges = tuple(edge_from_dict(e) for e in d["edges"])
        return ArcCurve(edges, jsonio.boolean(d["closed"], "closed"))
    except (AttributeError, TypeError) as exc:  # a non-object edge or a mistyped value
        raise ValidationError(f"malformed curve object: {exc}") from exc


# ---------------------------------------------------------------------------
# Convenience constructors.

def full_circle(center: Point, radius: float, ccw: bool = True) -> ArcCurve:
    turning = 1 if ccw else -1
    return ArcCurve((Arc(center, radius, 0.0, TWO_PI * turning),), closed=True)
