"""Exact-as-possible kernel for closed oriented curves made of circular arcs and segments.

A curve is stored as the float rows of its edges (``edge_row``), in order.
Every metric quantity (length, signed area, winding number, inner offset) is
evaluated edge-exactly from closed forms on those rows; nothing here ever
approximates an arc by a polyline.  Signed/oriented
area is the Gauss-Green line integral ``integral (x - x0) dy`` with x0 on the
curve; with self intersections it is the area weighted by winding index, so
no arrangement computation is needed.  Tolerances are ``CHAIN_TOL`` times the
diagonal of the curve's bounding box.

``_check_rows`` is the one rule for edges and curves: the ``Segment`` and
``Arc`` constructors run it on their own row, and ``ArcCurve`` on all of them
once, keeping the rows it checked.  ``ArcCurve._from_rows`` builds a curve
from rows, and its ``Segment``/``Arc`` objects (``ArcCurve.edges``) are built
the first time they are read, so the offset, Hales, class-A and JSON paths
build none.

Angle convention for arcs: ``(start_angle, signed_sweep)``, where the arc runs
from ``start_angle`` to ``start_angle + signed_sweep`` and ``0 < |signed_sweep|
<= 2*pi``.  A positive sweep is counterclockwise (``turning = +1``), a negative
one clockwise (``turning = -1``), and ``signed_sweep = ±2*pi`` is a full circle
at any start angle.  Only ``_arc_sweep`` (behind ``Arc.between``) reduces two
endpoint angles to a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

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

# The relative length tolerance: times a curve's extent for gaps and on-curve
# tests, a disk chain's scale for its rules, and r for radius-r tests.
CHAIN_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"non-finite point ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class Segment:
    start: Point
    end: Point

    def __post_init__(self):
        _check_rows((edge_row(self),), False)

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


@dataclass(frozen=True, slots=True)
class Arc:
    center: Point
    radius: float
    start_angle: float
    signed_sweep: float  # > 0 counterclockwise, < 0 clockwise; magnitude at most 2*pi

    def __post_init__(self):
        _check_rows((edge_row(self),), False)

    @classmethod
    def between(cls, center: Point, radius: float, a0: float, a1: float, turning: int) -> "Arc":
        """Arc from angle a0 to a1 turning +1 (CCW) or -1, with the sweep of ``_arc_sweep``."""
        return cls(center, radius, a0, _arc_sweep(a0, a1, turning))

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


def _arc_sweep(a0: float, a1: float, turning: int) -> float:
    """Signed sweep from angle a0 to a1 turning +1 (CCW) or -1; equal angles give a full circle."""
    if turning not in (1, -1):
        raise ValidationError(f"arc turning must be +1 or -1, got {turning}")
    s = (turning * (a1 - a0)) % TWO_PI
    return turning * (TWO_PI if s == 0.0 else s)


# types.UnionType, not typing.Union: typing caches Union[...] globally, which
# would keep every re-imported copy of this module alive
Edge = Arc | Segment


def edge_row(e: Edge) -> tuple:
    """The edge as floats: ``(x0, y0, x1, y1)`` for a segment, ``(cx, cy, r, a0, sweep)`` for an arc."""
    if isinstance(e, Segment):
        return e.start.x, e.start.y, e.end.x, e.end.y
    return e.center.x, e.center.y, e.radius, e.start_angle, e.signed_sweep


def _edge_from_row(row: tuple) -> Edge:
    """The ``Segment`` or ``Arc`` of an ``edge_row``, validated as its constructor validates."""
    if len(row) == 4:
        return Segment(Point(row[0], row[1]), Point(row[2], row[3]))
    cx, cy, r, a0, sweep = row
    return Arc(Point(cx, cy), r, a0, sweep)


def _edge_end(row: tuple, t: float):
    """(x, y) of the ``edge_row`` at t = 0.0 or 1.0: a segment's own end, an arc's as ``point_at``.

    An arc end that is not finite raises ``ValidationError`` as a ``Point`` would.
    """
    if len(row) == 4:
        return (row[2], row[3]) if t else (row[0], row[1])
    cx, cy, r, a0, sweep = row
    a = a0 + sweep * t
    x = cx + r * math.cos(a)
    y = cy + r * math.sin(a)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"non-finite point ({x}, {y})")
    return x, y


def _tolerance(box) -> float:
    """``CHAIN_TOL`` times the diagonal of an (xmin, ymin, xmax, ymax) box."""
    x0, y0, x1, y1 = box
    return CHAIN_TOL * math.hypot(x1 - x0, y1 - y0)


def _check_rows(rows: Sequence[tuple], closed: bool) -> tuple:
    """The rule every edge and curve obeys, on ``edge_row`` rows; returns their box.

    Each edge is checked first, in order: finite points, a segment of
    non-zero length, an arc of finite positive radius, finite start angle and
    sweep magnitude in (0, 2*pi].  The box is (xmin, ymin, xmax, ymax) of the
    edges, an arc counting its whole circle.  Each gap between consecutive
    edge ends (and the closing gap of a closed curve) must be at most
    ``_tolerance(box)``; the ends are computed by ``_edge_end`` in the order
    the gaps are visited.  Raises ``ValidationError`` with the message of the
    ``Point``, ``Segment``, ``Arc`` or ``ArcCurve`` constructor.
    """
    if not rows:
        raise ValidationError("curve needs at least one edge")
    xs, ys = [], []
    for row in rows:
        if len(row) == 4:
            x0, y0, x1, y1 = row
            if not (math.isfinite(x0) and math.isfinite(y0)):
                raise ValidationError(f"non-finite point ({x0}, {y0})")
            if not (math.isfinite(x1) and math.isfinite(y1)):
                raise ValidationError(f"non-finite point ({x1}, {y1})")
            if math.hypot(x0 - x1, y0 - y1) == 0.0:
                raise ValidationError("zero-length segment")
            xs += x0, x1
            ys += y0, y1
            continue
        cx, cy, r, a0, sweep = row
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValidationError(f"non-finite point ({cx}, {cy})")
        if not (r > 0.0 and math.isfinite(r)):
            raise ValidationError(f"arc radius must be positive, got {r}")
        if not math.isfinite(a0):
            raise ValidationError("non-finite arc angle")
        if not 0.0 < abs(sweep) <= TWO_PI:
            raise ValidationError("arc sweep must be nonzero, finite and at most 2*pi in "
                                  f"magnitude, got {sweep}")
        xs += cx - r, cx + r
        ys += cy - r, cy + r
    box = min(xs), min(ys), max(xs), max(ys)
    tol = _tolerance(box)
    n = len(rows)
    for i in range(n if closed else n - 1):
        ex, ey = _edge_end(rows[i], 1.0)
        sx, sy = _edge_end(rows[(i + 1) % n], 0.0)
        gap = math.hypot(ex - sx, ey - sy)
        if gap > tol:
            raise ValidationError(
                f"closed curve does not close: terminal gap {gap:.3e} > {tol:.3e}" if i == n - 1
                else f"gap {gap:.3e} between edges {i} and {i + 1} exceeds tolerance {tol:.3e}"
            )
    return box


@dataclass(frozen=True, init=False)
class ArcCurve:
    """Oriented chain of arcs and segments; consecutive endpoints must coincide.

    ``rows`` holds the ``edge_row`` of each edge, checked once by
    ``_check_rows``, which also gives ``bbox``: (xmin, ymin, xmax, ymax) of
    the edges, an arc counting its whole circle.  Two curves are equal when
    their rows and ``closed`` are.  ``edges``, the ``Segment`` and ``Arc``
    objects, is built from the rows when first read and kept.
    """

    rows: tuple
    closed: bool
    bbox: tuple = field(compare=False, repr=False)

    def __init__(self, edges: Sequence[Edge], closed: bool = True):
        edges = tuple(edges)
        self._store(tuple(map(edge_row, edges)), closed)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _from_rows(cls, rows, closed: bool = True) -> "ArcCurve":
        """The curve of these ``edge_row`` rows, checked as ``ArcCurve(edges)`` checks its edges."""
        curve = cls.__new__(cls)
        curve._store(tuple(rows), closed)
        return curve

    def _store(self, rows: tuple, closed: bool):
        object.__setattr__(self, "bbox", _check_rows(rows, closed))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "closed", closed)

    @cached_property
    def edges(self) -> tuple:
        return tuple(map(_edge_from_row, self.rows))

    @property
    def tolerance(self) -> float:
        """``_tolerance(bbox)``: the largest gap between edges, and the on-curve distance."""
        return _tolerance(self.bbox)

    def reversed(self) -> "ArcCurve":
        """The curve run backwards, each row reversed as ``Segment.reversed`` or ``Arc.reversed`` would."""
        rows = tuple((r[2], r[3], r[0], r[1]) if len(r) == 4 else (r[0], r[1], r[2], r[3] + r[4] * 1.0, -r[4])
                     for r in reversed(self.rows))
        return ArcCurve._from_rows(rows, self.closed)


def curve_length(c: ArcCurve) -> float:
    """Total length: radius*opening for arcs, Euclidean length for segments."""
    return sum(row[2] * abs(row[4]) if len(row) == 5 else math.hypot(row[0] - row[2], row[1] - row[3])
               for row in c.rows)


def _area_integral(row: tuple, x0: float) -> float:
    # Closed form of integral (x - x0) dy along the edge of an ``edge_row``.
    if len(row) == 4:
        sx, sy, ex, ey = row
        return 0.5 * ((sx - x0) + (ex - x0)) * (ey - sy)
    cx, _, r, t0, sweep = row
    t1 = t0 + sweep
    first = (cx - x0) * r * (math.sin(t1) - math.sin(t0))
    second = r * r * (
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
    return _rows_area(c.rows)


def _rows_area(rows: Sequence[tuple]) -> float:
    """``signed_area`` of ``edge_row`` rows that close up, without building or checking a curve."""
    x0 = _edge_end(rows[0], 0.0)[0]
    return sum(_area_integral(row, x0) for row in rows)


def winding_number(c: ArcCurve, q: Point) -> int:
    """Total turning of the closed curve around q, divided by 2*pi (an exact integer).

    Each edge adds its exact turn in O(1), however close q is: a segment, or an
    arc seen from outside its disk, the principal angle between its ends; an
    arc of opening S seen from inside or on its circle, the turn V in
    ``[S/2, S/2 + pi)`` (2*pi for a full circle) of the end directions modulo
    2*pi, taken from the window of width 2*pi centred on S/2 + pi/2 so that
    rounding at the ends cannot move it by 2*pi.  Raises ``OnBoundaryError``
    within the curve's tolerance, ``ValidationError`` off an integer by 1/4.
    """
    if not c.closed:
        raise ContractViolation("winding_number requires a closed curve")
    x, y = q.x, q.y
    nearest = math.inf
    total = 0.0
    for row in c.rows:
        sx, sy = _edge_end(row, 0.0)
        ex, ey = _edge_end(row, 1.0)
        if len(row) == 4:
            vx, vy = ex - sx, ey - sy
            wx, wy = x - sx, y - sy
            t = min(1.0, max(0.0, (vx * wx + vy * wy) / (vx * vx + vy * vy)))
            nearest = min(nearest, math.hypot(wx - t * vx, wy - t * vy))
            total += _scalar_turn(x, y, sx, sy, ex, ey)
            continue
        cx, cy, radius, a0, signed = row
        dx, dy = x - cx, y - cy
        rho = math.hypot(dx, dy)
        sweep, turning = abs(signed), (1 if signed > 0.0 else -1)
        if rho == 0.0:
            nearest = min(nearest, radius)
        elif (turning * (math.atan2(dy, dx) - a0)) % TWO_PI <= sweep:
            nearest = min(nearest, abs(rho - radius))
        else:
            nearest = min(nearest, math.hypot(x - sx, y - sy), math.hypot(x - ex, y - ey))
        if rho > radius:
            total += _scalar_turn(x, y, sx, sy, ex, ey)
        else:
            raw = turning * (math.atan2(ey - y, ex - x) - math.atan2(sy - y, sx - x))
            centre = 0.5 * sweep + 0.5 * math.pi
            total += turning * (raw + TWO_PI * round((centre - raw) / TWO_PI))
    if nearest <= c.tolerance:
        raise OnBoundaryError(f"query point is on the curve (distance {nearest:.3e})")
    m = total / TWO_PI
    n = round(m)
    if abs(m - n) > 0.25:
        raise ValidationError(f"winding number did not converge to an integer: {m}")
    return n


def _scalar_turn(x, y, ax, ay, bx, by):
    # signed angle of (b - q) relative to (a - q), in (-pi, pi]
    v0x, v0y = ax - x, ay - y
    v1x, v1y = bx - x, by - y
    return math.atan2(v0x * v1y - v0y * v1x, v0x * v1x + v0y * v1y)


# ---------------------------------------------------------------------------
# Edge pairs and supports, in closed form (cluster validation).

def _edge_support(row: tuple, nx: float, ny: float, ox: float = 0.0, oy: float = 0.0):
    """The largest ``(p - o) . n`` over the points p of an ``edge_row``, n a unit vector, and
    a p reaching it: an end, or an arc's ``c + R n`` when n's direction is in its sweep."""
    points = [_edge_end(row, 0.0), _edge_end(row, 1.0)]
    if len(row) == 5 and (math.copysign(1.0, row[4]) * (math.atan2(ny, nx) - row[3])) % TWO_PI <= abs(row[4]):
        points.append((row[0] + row[2] * nx, row[1] + row[2] * ny))
    return max(((x - ox) * nx + (y - oy) * ny, x, y) for x, y in points)


def _edge_box(row: tuple) -> tuple:
    """(xmin, ymin, xmax, ymax) of an ``edge_row``'s own points, an arc's within its sweep."""
    if len(row) == 4:
        return min(row[0], row[2]), min(row[1], row[3]), max(row[0], row[2]), max(row[1], row[3])
    return (-_edge_support(row, -1.0, 0.0)[0], -_edge_support(row, 0.0, -1.0)[0],
            _edge_support(row, 1.0, 0.0)[0], _edge_support(row, 0.0, 1.0)[0])


def _arc_overlap(a0: float, s0: float, a1: float, s1: float):
    """The longest stretch (lo, hi) of the angles a0 + [0, s0] that a1 + [0, s1]
    covers, both counterclockwise, measured from a0; hi <= lo when none."""
    start = (a1 - a0) % TWO_PI
    first, second = (start, min(s0, start + s1)), (0.0, min(s0, start + s1 - TWO_PI))
    return first if first[1] - first[0] >= second[1] else second


def _circle_intersections(c0, r0, c1, r1):
    dx, dy = c1[0] - c0[0], c1[1] - c0[1]
    d = math.hypot(dx, dy)
    if d > r0 + r1 or d < abs(r0 - r1) or d == 0.0:
        return []
    a = (r0 * r0 - r1 * r1 + d * d) / (2.0 * d)
    h2 = r0 * r0 - a * a
    if h2 < 0.0:
        return []
    h = math.sqrt(h2)
    mx, my = c0[0] + a * dx / d, c0[1] + a * dy / d
    ox, oy = -dy * h / d, dx * h / d
    return [(mx + ox, my + oy), (mx - ox, my - oy)]


def _edge_crossing(a: tuple, b: tuple, pad: float):
    """A point where two ``edge_row`` edges cross, or None where they are apart or touch.

    Edges cross at a point of their lines or circles (one linear or quadratic
    solve) that lies on both edges farther than ``pad`` from all four ends.
    Edges on one line or circle, to ``pad``, do not cross, nor does a line or
    circle that enters a circle no deeper than ``pad``.
    """
    # a segment before an arc, and the longer of two segments first
    a, b = sorted((a, b), key=lambda e: (len(e), -math.hypot(e[2] - e[0], e[3] - e[1]) if len(e) == 4 else 0.0))
    if len(a) == 4:
        length = math.hypot(a[2] - a[0], a[3] - a[1])
        ax, ay = a[0], a[1]
        ux, uy = (a[2] - ax) / length, (a[3] - ay) / length
        if len(b) == 4:
            x0, y0, x1, y1 = b
            d0 = ux * (y0 - ay) - uy * (x0 - ax)
            d1 = ux * (y1 - ay) - uy * (x1 - ax)
            if (d0 > 0.0) == (d1 > 0.0) or max(abs(d0), abs(d1)) <= pad:  # one side, or one line
                return None
            s = d0 / (d0 - d1)
            points = [(x0 + s * (x1 - x0), y0 + s * (y1 - y0))]
        else:
            cx, cy, r = b[:3]
            d = ux * (cy - ay) - uy * (cx - ax)  # the centre's signed distance from the line
            if r - abs(d) <= pad:
                return None
            t = ux * (cx - ax) + uy * (cy - ay)
            w = math.sqrt((r - d) * (r + d))
            points = [(ax + (t - w) * ux, ay + (t - w) * uy), (ax + (t + w) * ux, ay + (t + w) * uy)]
    else:
        (cx0, cy0, r0), (cx1, cy1, r1) = a[:3], b[:3]
        d = math.hypot(cx1 - cx0, cy1 - cy0)
        if min(r0 + r1 - d, d - abs(r0 - r1)) <= pad:  # apart, touching, or one circle
            return None
        points = _circle_intersections((cx0, cy0), r0, (cx1, cy1), r1)
    ends = [_edge_end(e, t) for e in (a, b) for t in (0.0, 1.0)]
    return next(((x, y) for x, y in points if max(locate_on_edge(x, y, a)[1], locate_on_edge(x, y, b)[1]) <= pad
                 and all(math.dist((x, y), end) > pad for end in ends)), None)


@dataclass(frozen=True)
class OffsetResult:
    """Inner-parallel curve plus bookkeeping for edges that degenerated to points.

    ``collapsed_indices`` lists the free arcs that collapsed; ``collapse_points``
    maps every collapsed edge index (free arcs and radius-r border corner arcs)
    to its collapse point, the arc's center as an (x, y) pair, in traversal
    order.
    """

    curve: ArcCurve
    collapsed_indices: tuple
    collapse_points: tuple  # ((edge_index, (x, y)), ...)


def has_radius(radius: float, r: float) -> bool:
    """Whether an arc radius is r to ``CHAIN_TOL`` relative: the one radius-r test."""
    return abs(radius - r) <= CHAIN_TOL * r


def offset_inner(c: ArcCurve, r: float, roles: Sequence[str]) -> OffsetResult:
    """Inner parallel curve at distance r of a labeled class-A style boundary.

    Radius-r arcs (role ``free`` or border corner pieces) collapse to their
    centers; negatively curved arcs widen to radius rho + r, positively curved
    junction arcs shrink to rho - r, and segments translate along the inner
    normal (the interior of a CCW boundary lies to the left of the travel
    direction).  The output closes through the collapse points; its rows are
    checked once, when the curve is built.
    """
    if not c.closed:
        raise ContractViolation("offset_inner requires a closed curve")
    if r <= 0.0:
        raise ContractViolation(f"offset distance must be positive, got {r}")
    if len(roles) != len(c.rows):
        raise ContractViolation(
            f"{len(roles)} roles supplied for {len(c.rows)} edges"
        )
    for role in roles:
        if role not in ROLES:
            raise ContractViolation(f"unknown edge role {role!r}")

    rows = []
    collapsed = []
    collapse_points = []
    for i, (row, role) in enumerate(zip(c.rows, roles)):
        if len(row) == 5:
            cx, cy, radius, a0, sweep = row
            turning = 1 if sweep > 0.0 else -1
            if role == FREE or (role == BORDER_PIECE and has_radius(radius, r)):
                if not has_radius(radius, r) or turning != 1:
                    raise ContractViolation(
                        f"edge {i}: role {role!r} requires a CCW arc of radius {r}, "
                        f"got radius {radius} turning {turning}"
                    )
                collapse_points.append((i, (cx, cy)))
                if role == FREE:
                    collapsed.append(i)
                continue
            if role == BORDER_PIECE:
                raise ValidationError(
                    f"edge {i}: border junction arcs must have curvature 1/r, "
                    f"got radius {radius}"
                )
            if turning == 1 and radius <= r * (1.0 + 1e-12):
                raise DegenerateOffsetError(
                    f"edge {i}: positive-curvature arc of radius {radius} "
                    f"cannot be offset inward by {r}"
                )
            rows.append((cx, cy, radius - turning * r, a0, sweep))
        else:
            x0, y0, x1, y1 = row
            dx, dy = x1 - x0, y1 - y0
            n = math.hypot(dx, dy)
            nx, ny = -dy / n, dx / n
            rows.append((x0 + r * nx, y0 + r * ny, x1 + r * nx, y1 + r * ny))
    if not rows:
        raise DegenerateOffsetError("every edge collapsed; offset curve is empty")
    return OffsetResult(ArcCurve._from_rows(rows), tuple(collapsed), tuple(collapse_points))


# ---------------------------------------------------------------------------
# Rigid motions and dilations (used by tests and cluster assembly).

def transform_curve(c: ArcCurve, angle: float = 0.0, dx: float = 0.0,
                    dy: float = 0.0, scale: float = 1.0) -> ArcCurve:
    """Apply rotation by ``angle``, dilation by ``scale`` and then translation (``_transform_rows``)."""
    return ArcCurve._from_rows(_transform_rows(c.rows, angle, dx, dy, scale), c.closed)


def _transform_rows(rows, angle: float = 0.0, dx: float = 0.0,
                   dy: float = 0.0, scale: float = 1.0) -> list:
    """``transform_curve`` on ``edge_row`` rows, with nothing built or checked but ``scale``.

    A point p maps to ``scale * R(angle) p + (dx, dy)``, computed inline on
    floats; an arc keeps its signed sweep and turns its start angle by
    ``angle``, and its radius is multiplied by ``scale``.
    """
    if scale <= 0.0:
        raise ValidationError("scale must be positive")
    ca, sa = math.cos(angle), math.sin(angle)
    out = []
    for row in rows:
        if len(row) == 4:
            x0, y0, x1, y1 = row
            out.append((scale * (ca * x0 - sa * y0) + dx, scale * (sa * x0 + ca * y0) + dy,
                        scale * (ca * x1 - sa * y1) + dx, scale * (sa * x1 + ca * y1) + dy))
        else:
            x, y, r, a0, sweep = row
            out.append((scale * (ca * x - sa * y) + dx, scale * (sa * x + ca * y) + dy,
                        r * scale, a0 + angle, sweep))
    return out


# ---------------------------------------------------------------------------
# Edge splitting (node placement needs curves cut at arbitrary on-curve points).

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

#: the number keys of an edge object, after "kind", in ``edge_row`` order
_EDGE_KEYS = {"seg": ("x0", "y0", "x1", "y1"), "arc": ("cx", "cy", "r", "a0", "sweep")}


def _row_to_dict(row: tuple) -> dict:
    kind = "seg" if len(row) == 4 else "arc"
    return {"kind": kind, **dict(zip(_EDGE_KEYS[kind], row))}


def _row_from_dict(d: dict) -> tuple:
    """The ``edge_row`` of an edge object, its keys and numbers checked but not its geometry."""
    kind = d.get("kind")
    if kind not in ("seg", "arc"):  # not `in _EDGE_KEYS`, which an unhashable kind would break
        raise ValidationError(f"unknown edge kind {kind!r}")
    jsonio.require_keys(d, ["kind", *_EDGE_KEYS[kind]])
    return tuple(jsonio.number(d[k], k) for k in _EDGE_KEYS[kind])


def curve_to_dict(c: ArcCurve) -> dict:
    return {"closed": c.closed, "edges": [_row_to_dict(row) for row in c.rows]}


def curve_from_dict(d: dict) -> ArcCurve:
    try:
        jsonio.require_keys(d, ["closed", "edges"])
        rows = tuple(_row_from_dict(e) for e in d["edges"])
        return ArcCurve._from_rows(rows, jsonio.boolean(d["closed"], "closed"))
    except (AttributeError, TypeError) as exc:  # a non-object edge or a mistyped value
        raise ValidationError(f"malformed curve object: {exc}") from exc


# ---------------------------------------------------------------------------
# Convenience constructors.

def full_circle(center: Point, radius: float, ccw: bool = True) -> ArcCurve:
    turning = 1 if ccw else -1
    return ArcCurve._from_rows(((center.x, center.y, radius, 0.0, TWO_PI * turning),), closed=True)
