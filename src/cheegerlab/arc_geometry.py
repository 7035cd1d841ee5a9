"""Exact-as-possible kernel for closed oriented curves made of circular arcs and segments.

A curve is stored as the float rows of its edges, in order: an edge row is
``(x0, y0, x1, y1)`` for a segment and ``(cx, cy, r, a0, sweep)`` for an arc.
``ArcCurve(rows, closed)`` is the one way to build a curve.  Every metric
quantity (length, signed area, winding number, inner offset) is evaluated
edge-exactly from closed forms on those rows; nothing here ever approximates
an arc by a polyline.  Signed/oriented
area is the Gauss-Green line integral ``integral (x - x0) dy`` with x0 on the
curve; with self intersections it is the area weighted by winding index, so
no arrangement computation is needed.  Tolerances are ``CHAIN_TOL`` times the
diagonal of the curve's bounding box.

``_check_rows`` is the one rule for edges and curves; ``ArcCurve`` runs it
once on its rows and keeps them.  ``ArcCurve.edges`` reads the rows as
``Segment``/``Arc`` views, built the first time they are read and not checked
again; nothing in the package reads them.

Angle convention for arcs: ``(start_angle, signed_sweep)``, where the arc runs
from ``start_angle`` to ``start_angle + signed_sweep`` and ``0 < |signed_sweep|
<= 2*pi``.  A positive sweep is counterclockwise, a negative one clockwise,
and ``signed_sweep = ±2*pi`` is a full circle at any start angle.  Only
``_arc_sweep`` reduces two endpoint angles to a sweep.
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
    """A finite point: ``winding_number``'s query, and the point type of the edge views."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"non-finite point ({self.x}, {self.y})")


def _checked_point(x: float, y: float) -> Point:
    # a Point of floats that _check_rows has passed, built without checking them again
    p = object.__new__(Point)
    object.__setattr__(p, "x", x)
    object.__setattr__(p, "y", y)
    return p


@dataclass(frozen=True, slots=True)
class Segment:
    """Read-only view of a segment's edge row; only ``ArcCurve.edges`` builds it."""

    start: Point
    end: Point


@dataclass(frozen=True, slots=True)
class Arc:
    """Read-only view of an arc's edge row; only ``ArcCurve.edges`` builds it."""

    center: Point
    radius: float
    start_angle: float
    signed_sweep: float  # > 0 counterclockwise, < 0 clockwise; magnitude at most 2*pi

    @property
    def length(self) -> float:
        return self.radius * abs(self.signed_sweep)

    def point_at(self, t: float) -> Point:
        return Point(*edge_point((self.center.x, self.center.y, self.radius,
                                  self.start_angle, self.signed_sweep), t))


def _arc_sweep(a0: float, a1: float, turning: int) -> float:
    """Signed sweep from angle a0 to a1 turning +1 (CCW) or -1; equal angles give a full circle."""
    if turning not in (1, -1):
        raise ValidationError(f"arc turning must be +1 or -1, got {turning}")
    s = (turning * (a1 - a0)) % TWO_PI
    return turning * (TWO_PI if s == 0.0 else s)


def edge_point(row: tuple, t: float):
    """(x, y) of the edge row at t; a segment gives its own floats at t = 0.0 and 1.0."""
    if len(row) == 4:
        x0, y0, x1, y1 = row
        if t == 0.0 or t == 1.0:
            return (x1, y1) if t else (x0, y0)
        return x0 + t * (x1 - x0), y0 + t * (y1 - y0)
    cx, cy, r, a0, sweep = row
    a = a0 + sweep * t
    return cx + r * math.cos(a), cy + r * math.sin(a)


def _tolerance(box) -> float:
    """``CHAIN_TOL`` times the diagonal of an (xmin, ymin, xmax, ymax) box."""
    x0, y0, x1, y1 = box
    return CHAIN_TOL * math.hypot(x1 - x0, y1 - y0)


def _check_rows(rows: Sequence[tuple], closed: bool) -> tuple:
    """The rule every edge and curve obeys, on edge rows; returns their box.

    Each edge is checked first, in order: finite points, a segment of
    non-zero length, an arc of finite positive radius, finite start angle and
    sweep magnitude in (0, 2*pi].  The box is (xmin, ymin, xmax, ymax) of the
    edges, an arc counting its whole circle.  Each gap between consecutive
    edge ends (and the closing gap of a closed curve) must be at most
    ``_tolerance(box)``; the ends are computed by ``edge_point`` in the order
    the gaps are visited, and an arc end that overflows is a non-finite
    point.  Raises ``ValidationError``.
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
        ex, ey = edge_point(rows[i], 1.0)
        sx, sy = edge_point(rows[(i + 1) % n], 0.0)
        if not (math.isfinite(ex) and math.isfinite(ey) and math.isfinite(sx) and math.isfinite(sy)):
            x, y = (sx, sy) if math.isfinite(ex) and math.isfinite(ey) else (ex, ey)
            raise ValidationError(f"non-finite point ({x}, {y})")
        gap = math.hypot(ex - sx, ey - sy)
        if gap > tol:
            raise ValidationError(
                f"closed curve does not close: terminal gap {gap:.3e} > {tol:.3e}" if i == n - 1
                else f"gap {gap:.3e} between edges {i} and {i + 1} exceeds tolerance {tol:.3e}"
            )
    return box


@dataclass(frozen=True)
class ArcCurve:
    """Oriented chain of arcs and segments, built from its edge rows; consecutive endpoints must coincide.

    ``rows`` are checked once by ``_check_rows``, which also gives ``bbox``:
    (xmin, ymin, xmax, ymax) of the edges, an arc counting its whole circle.
    Two curves are equal when their rows and ``closed`` are.  ``edges`` reads
    the rows as ``Segment`` and ``Arc`` views, built when first read and kept.
    """

    rows: tuple
    closed: bool = True
    bbox: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "bbox", _check_rows(self.rows, self.closed))

    @cached_property
    def edges(self) -> tuple:
        p = _checked_point
        return tuple(Segment(p(*row[:2]), p(*row[2:])) if len(row) == 4 else Arc(p(*row[:2]), *row[2:])
                     for row in self.rows)

    @property
    def tolerance(self) -> float:
        """``_tolerance(bbox)``: the largest gap between edges, and the on-curve distance."""
        return _tolerance(self.bbox)

    def reversed(self) -> "ArcCurve":
        """The curve run backwards: each segment's ends swapped, each arc run from its end angle."""
        return ArcCurve(tuple((r[2], r[3], r[0], r[1]) if len(r) == 4 else (*r[:3], r[3] + r[4], -r[4])
                              for r in reversed(self.rows)), self.closed)


def curve_length(c: ArcCurve) -> float:
    """Total length: radius*opening for arcs, Euclidean length for segments."""
    return sum(row[2] * abs(row[4]) if len(row) == 5 else math.hypot(row[0] - row[2], row[1] - row[3])
               for row in c.rows)


def _area_integral(row: tuple, x0: float) -> float:
    # Closed form of integral (x - x0) dy along the edge of an edge row.
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
    """``signed_area`` of edge rows that close up, without building or checking a curve."""
    x0 = edge_point(rows[0], 0.0)[0]
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
        sx, sy = edge_point(row, 0.0)
        ex, ey = edge_point(row, 1.0)
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
    """The largest ``(p - o) . n`` over the points p of an edge row, n a unit vector, and
    a p reaching it: an end, or an arc's ``c + R n`` when n's direction is in its sweep."""
    points = [edge_point(row, 0.0), edge_point(row, 1.0)]
    if len(row) == 5 and (math.copysign(1.0, row[4]) * (math.atan2(ny, nx) - row[3])) % TWO_PI <= abs(row[4]):
        points.append((row[0] + row[2] * nx, row[1] + row[2] * ny))
    return max(((x - ox) * nx + (y - oy) * ny, x, y) for x, y in points)


def _edge_box(row: tuple) -> tuple:
    """(xmin, ymin, xmax, ymax) of an edge row's own points, an arc's within its sweep."""
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
    """A point where two edges given as edge rows cross, or None where they are apart or touch.

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
    ends = [edge_point(e, t) for e in (a, b) for t in (0.0, 1.0)]
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
    return OffsetResult(ArcCurve(rows), tuple(collapsed), tuple(collapse_points))


# ---------------------------------------------------------------------------
# Rigid motions and dilations (used by tests and cluster assembly).

def transform_curve(c: ArcCurve, angle: float = 0.0, dx: float = 0.0,
                    dy: float = 0.0, scale: float = 1.0) -> ArcCurve:
    """Apply rotation by ``angle``, dilation by ``scale`` and then translation (``_transform_rows``)."""
    return ArcCurve(_transform_rows(c.rows, angle, dx, dy, scale), c.closed)


def _transform_rows(rows, angle: float = 0.0, dx: float = 0.0,
                   dy: float = 0.0, scale: float = 1.0) -> list:
    """``transform_curve`` on edge rows, with nothing built or checked but ``scale``.

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
# Locating points on edges (node placement, cluster validation).

def locate_on_edge(x: float, y: float, row: tuple):
    """Parameter t in [0, 1] of the point of an edge row nearest to (x, y), and the distance to it."""
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


# ---------------------------------------------------------------------------
# JSON encoding: {"closed": bool, "edges": [{"kind": "arc", ...} | {"kind": "seg", ...}]}

#: the number keys of an edge object, after "kind", in edge row order
_EDGE_KEYS = {"seg": ("x0", "y0", "x1", "y1"), "arc": ("cx", "cy", "r", "a0", "sweep")}


def _row_to_dict(row: tuple) -> dict:
    kind = "seg" if len(row) == 4 else "arc"
    return {"kind": kind, **dict(zip(_EDGE_KEYS[kind], row))}


def _row_from_dict(d: dict) -> tuple:
    """The edge row of an edge object, its keys and numbers checked but not its geometry."""
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
        return ArcCurve(rows, jsonio.boolean(d["closed"], "closed"))
    except (AttributeError, TypeError) as exc:  # a non-object edge or a mistyped value
        raise ValidationError(f"malformed curve object: {exc}") from exc

