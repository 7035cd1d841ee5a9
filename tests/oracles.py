"""Independent oracles used only by the tests.

These deliberately avoid the closed forms under test: the rasterized winding
oracle computes index-weighted area by exact scanline/curve intersections and
signed crossing counts; the quadrature oracle integrates x dy over a dense
polyline; the stepping winding oracle walks each arc seen from inside its
disk in short steps; the polygon Cheeger oracles solve the corner-quadratic directly or
bisect on the clipped inner polygon's area; the Monte Carlo chain oracle
samples the disk-chain region point by point; the tangent-anchor oracle is
the middle-disk closed form written for anchors at distance r1 + r3; the
power-diagram oracles clip numpy vertex arrays by every half-plane, one at a
time (in site order and absolute coordinates, or nearest site first in
site-centred coordinates, up to a given stop or with none), and clean each
ring with a vertex-by-vertex loop before validating it; the exact centroid
oracle sums cross products in integers; the convex-polygon and
closed-form Cheeger oracles are the polygon validation and the Cheeger solve on numpy vertex arrays, with ``np.dot`` shoelace sums; the chain oracle is
the chain validator on numpy 2-vectors, with the region polygon oriented by
``np.roll`` shoelace sums; the exact chain-area
oracle sums the shoelace in integers and the pocket angles in 50-digit
``mpmath``; the inner-offset and class-A oracles walk a curve's ``Segment``
and ``Arc`` objects (the validated object form of its rows, kept here with
``split_edge``), building a new object per offset edge; the chord-deficit
oracle locates every node on every edge through ``Point`` objects, cuts the
edge objects with ``split_edge`` and builds each portion with its chord
``Segment`` into a validated ``ArcCurve`` for its area; the array winding and
distance kernels take every point against every edge at once in numpy
columns; the overlap oracle samples 64 midpoints per edge and makes one
distance and one winding call of those kernels per meeting pair of cells, so
it sees an overlap only where a sample falls in it; the honeycomb adjacency
oracle pairs the edges of lattice neighbors by the direction they face; the
curve-gap oracle measures every gap between ``Point`` endpoints; the class-A fixture oracles build hulls from ``np.unique`` rows, bow edges
with numpy 2-vectors, map every point through a helper call and build every
stage of a domain as a validated ``ArcCurve`` of edge objects.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

from cheegerlab.arc_geometry import (
    BORDER_PIECE,
    CHAIN_TOL,
    FREE,
    INNER_JUNCTION,
    ArcCurve,
    Point,
    _arc_sweep,
    _check_rows,
    edge_point,
    signed_area,
)
from cheegerlab.chamber_lemmas import (
    CLOSED,
    HALF_PLANE,
    SECTOR,
    SECTOR_OPENING,
    DiskChain,
    _feet,
)
from cheegerlab.cheeger import (
    MAX_EDGES,
    ArcDomain,
    CheegerResult,
    ConvexPolygon,
    inner_parallel_polygon,
    maximal_arcs,
)
from cheegerlab.errors import (
    ContractViolation,
    DegenerateOffsetError,
    DegenerateConfigurationError,
    OnBoundaryError,
    ValidationError,
)
from cheegerlab.hales_deficit import DeficitReport

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# The object form of edges: each a validated Segment or Arc of Points, the
# form the package's rows are compared with.

def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


@dataclass(frozen=True)
class Segment:
    start: Point
    end: Point

    def __post_init__(self):
        _check_rows((edge_row(self),), False)

    @property
    def length(self) -> float:
        return distance(self.start, self.end)

    def point_at(self, t: float) -> Point:
        return Point(self.start.x + t * (self.end.x - self.start.x),
                     self.start.y + t * (self.end.y - self.start.y))

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


@dataclass(frozen=True)
class Arc:
    center: Point
    radius: float
    start_angle: float
    signed_sweep: float

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
        return abs(self.signed_sweep)

    @property
    def length(self) -> float:
        return self.radius * self.sweep

    def angle_at(self, t: float) -> float:
        return self.start_angle + self.signed_sweep * t

    def point_at(self, t: float) -> Point:
        a = self.angle_at(t)
        return Point(self.center.x + self.radius * math.cos(a), self.center.y + self.radius * math.sin(a))

    @property
    def start(self) -> Point:
        return self.point_at(0.0)

    @property
    def end(self) -> Point:
        return self.point_at(1.0)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.angle_at(1.0), -self.signed_sweep)


def edge_row(e) -> tuple:
    """The edge row of an edge object."""
    if isinstance(e, Segment):
        return e.start.x, e.start.y, e.end.x, e.end.y
    return e.center.x, e.center.y, e.radius, e.start_angle, e.signed_sweep


def edges_of(curve: ArcCurve) -> tuple:
    """The curve's rows as edge objects."""
    return tuple(Segment(Point(*row[:2]), Point(*row[2:])) if len(row) == 4 else Arc(Point(*row[:2]), *row[2:])
                 for row in curve.rows)


def curve_of(edges, closed: bool = True) -> ArcCurve:
    """The curve of the edge objects' rows."""
    return ArcCurve(tuple(map(edge_row, edges)), closed)


def full_circle(center: Point, radius: float, ccw: bool = True) -> ArcCurve:
    return ArcCurve(((center.x, center.y, radius, 0.0, TWO_PI if ccw else -TWO_PI),))


def split_edge(e, t: float):
    """Cut an edge object at interior parameter t, returning the two halves."""
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


def _row_crossings(curve: ArcCurve, y: float):
    """Signed crossings (x, direction) of the curve with the horizontal line."""
    out = []
    for e in edges_of(curve):
        if isinstance(e, Segment):
            y0, y1 = e.start.y, e.end.y
            if y0 == y1:
                continue
            lo, hi = min(y0, y1), max(y0, y1)
            if not lo < y < hi:
                continue
            t = (y - y0) / (y1 - y0)
            out.append((e.start.x + t * (e.end.x - e.start.x), 1 if y1 > y0 else -1))
        else:
            u = (y - e.center.y) / e.radius
            if not -1.0 < u < 1.0:
                continue
            base = math.asin(u)
            for theta in (base, math.pi - base):
                c = math.cos(theta)
                if c == 0.0:
                    continue
                x = e.center.x + e.radius * c
                sign = 1 if e.turning * c > 0 else -1
                rel = (e.turning * (theta - e.start_angle)) % TWO_PI
                # wrap through every full turn covered by the sweep
                while rel <= e.sweep:
                    if 0.0 < rel < e.sweep:
                        out.append((x, sign))
                    rel += TWO_PI
    return out


def rasterized_winding_area(curve: ArcCurve, n: int = 2048) -> float:
    """Index-weighted area: sum over grid cells of winding number times cell area.

    Scanlines are offset by an irrational fraction so they avoid vertices and
    horizontal tangencies; winding along a row is the running sum of signed
    crossings, evaluated at the column centers.
    """
    x0, y0, x1, y1 = curve.bbox
    pad = 1e-6 * max(x1 - x0, y1 - y0)
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    dy = (y1 - y0) / n
    dx = (x1 - x0) / n
    cols = x0 + (np.arange(n) + 0.5) * dx
    total = 0.0
    golden = 0.6180339887498949
    for row in range(n):
        y = y0 + (row + golden) * dy
        crossings = _row_crossings(curve, y)
        if not crossings:
            continue
        crossings.sort()
        xs = np.array([c[0] for c in crossings])
        signs = np.array([c[1] for c in crossings])
        prefix = np.concatenate([[0], np.cumsum(signs)])
        # winding at x = sum of upward crossings to the right = -(left prefix)
        winding = -prefix[np.searchsorted(xs, cols, side="right")]
        total += winding.sum() * dx * dy
    return float(total)


def _turn(q: Point, a: Point, b: Point) -> float:
    # signed angle of (b - q) relative to (a - q), in (-pi, pi]
    v0x, v0y = a.x - q.x, a.y - q.y
    v1x, v1y = b.x - q.x, b.y - q.y
    return math.atan2(v0x * v1y - v0y * v1x, v0x * v1x + v0y * v1y)


def _distance_to_arc(q: Point, e: Arc) -> float:
    rho = distance(q, e.center)
    if rho == 0.0:
        return e.radius
    ang = math.atan2(q.y - e.center.y, q.x - e.center.x)
    if (e.turning * (ang - e.start_angle)) % TWO_PI <= e.sweep:
        return abs(rho - e.radius)
    return min(distance(q, e.start), distance(q, e.end))


def winding_number_stepping(curve: ArcCurve, q: Point) -> int:
    """Winding number by summing principal turns along a walk of the curve.

    Segments, and arcs seen from outside their supporting disk, take one
    step.  An arc seen from inside is walked in steps no longer than q's
    distance to it, so each step turns by less than pi and atan2 picks the
    right branch; the cost grows like the arc length over that distance.
    """
    total = 0.0
    for e in edges_of(curve):
        if isinstance(e, Segment) or distance(q, e.center) > e.radius:
            total += _turn(q, e.start, e.end)
            continue
        steps = max(1, math.ceil(e.length / _distance_to_arc(q, e)))
        prev = e.start
        for s in range(1, steps + 1):
            cur = e.point_at(s / steps)
            total += _turn(q, prev, cur)
            prev = cur
    m = total / TWO_PI
    n = round(m)
    assert abs(m - n) <= 0.25, f"stepping walk did not close to an integer: {m}"
    return int(n)


def quadrature_curve_area(curve: ArcCurve, samples_per_edge: int = 4096) -> float:
    """Gauss-Green integral of a dense polyline approximation of the curve."""
    total = 0.0
    for e in edges_of(curve):
        ts = np.linspace(0.0, 1.0, samples_per_edge + 1)
        pts = np.array([[p.x, p.y] for p in (e.point_at(t) for t in ts)])
        x, y = pts[:, 0], pts[:, 1]
        total += float(np.sum(0.5 * (x[1:] + x[:-1]) * (y[1:] - y[:-1])))
    return total


def polygon_cheeger_closed_form(vertices) -> float:
    """Cheeger constant of a convex polygon whose Cheeger set touches all sides.

    Solves (C - pi) r^2 - P r + A = 0 with C the sum of half-angle cotangents;
    valid for regular and near-regular polygons.
    """
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    x, y = v[:, 0], v[:, 1]
    area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    per = float(np.hypot(*(np.roll(v, -1, axis=0) - v).T).sum())
    cot = 0.0
    for i in range(n):
        a = v[i - 1] - v[i]
        b = v[(i + 1) % n] - v[i]
        ang = math.atan2(abs(a[0] * b[1] - a[1] * b[0]), float(a @ b))
        cot += 1.0 / math.tan(ang / 2.0)
    c = cot - math.pi
    r = (per - math.sqrt(per * per - 4.0 * area * c)) / (2.0 * c)
    return 1.0 / r


def polygon_cheeger_bisection(p: ConvexPolygon) -> float:
    """Cheeger constant of a convex polygon by bisection on its defining function.

    g(t) = area(inner_parallel_polygon(p, t)) - pi t^2 is strictly decreasing,
    positive at 0 and negative at sqrt(area / pi); the bracket is halved until
    floating point cannot split it, so the loop ends after about 60 steps.
    """
    lo, hi = 0.0, math.sqrt(p.area / math.pi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return 1.0 / mid
        inner = inner_parallel_polygon(p, mid)
        if inner is not None and inner.area > math.pi * mid * mid:
            lo = mid
        else:
            hi = mid


def _point_in_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd crossing test, vectorized over points; handles simple polygons."""
    inside = np.zeros(len(points), dtype=bool)
    x, y = points[:, 0], points[:, 1]
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        hit = crosses & (x < xi)
        inside ^= hit
    return inside


class MonteCarloArea(NamedTuple):
    area: float
    sample_error: float


def monte_carlo_area(ch: DiskChain, samples: int = 10_000_000, seed: int = 0) -> MonteCarloArea:
    """Stratified Monte Carlo estimate of the area enclosed by a disk chain.

    The region is the part of the polygon through the centers (plus the feet
    and the sector apex) outside every disk.  The sample error is the binomial
    standard deviation scaled by the box area.
    """
    rows = list(ch.centers)
    if ch.flavor != CLOSED:
        f0, f1 = _feet(ch.centers.tolist(), ch.radii.tolist(), ch.flavor)
        rows = [f0] + rows + [f1]
        if ch.flavor == SECTOR:
            rows = [np.zeros(2)] + rows
    poly = np.vstack(rows)
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    span = hi - lo
    n = max(2, int(math.sqrt(samples)))
    rng = np.random.default_rng(seed)
    total = n * n
    hits = 0
    # stratify by rows of cells to bound memory
    ys = (np.arange(n) + 0.0) / n
    for row in range(n):
        px = lo[0] + span[0] * (np.arange(n) + rng.random(n)) / n
        py = lo[1] + span[1] * (ys[row] + rng.random(n) / n)
        pts = np.column_stack([px, py])
        ok = _point_in_polygon(pts, poly)
        for c, r in zip(ch.centers, ch.radii):
            if not ok.any():
                break
            d2 = (pts[:, 0] - c[0]) ** 2 + (pts[:, 1] - c[1]) ** 2
            ok &= d2 >= r * r
        hits += int(ok.sum())
    box = float(span[0] * span[1])
    p = hits / total
    return MonteCarloArea(p * box, box * math.sqrt(p * (1.0 - p) / total))


def tangent_anchors_geometry_reference(r1: float, r2: float, r3: float):
    """``tangency_geometry(r1, r2, r3)`` by the closed form written for mutually
    tangent anchors, in terms of their span r1 + r3."""
    span = r1 + r3
    x0 = (r1 * r1 + span * span + 2.0 * r1 * r2 - r3 * r3 - 2.0 * r3 * r2) / (2.0 * span)
    y2 = (r1 + r2) ** 2 - ((r1 - r3) * (r1 + r3 + 2.0 * r2) + span * span) ** 2 / (4.0 * span * span)
    y0 = math.sqrt(y2)
    inner = -r1 * r3 * (span * span - (r1 + r3 + 2.0 * r2) ** 2) / (span * span)
    root = math.sqrt(inner)
    d1 = 2.0 * r1 * r3 / (span * (r1 + r2) * root)
    d3 = 2.0 * r1 * r3 / (span * (r2 + r3) * root)
    return x0, y0, d1, d3


def clean_ring_loop(pts: np.ndarray, tol: float) -> np.ndarray:
    """Drop duplicate and collinear vertices from a closed ring, vertex by vertex."""
    out = []
    n = len(pts)
    for i in range(n):
        if not out or np.hypot(*(pts[i] - out[-1])) > tol:
            out.append(pts[i])
    while len(out) > 1 and np.hypot(*(out[0] - out[-1])) <= tol:
        out.pop()
    pts = np.array(out)
    n = len(pts)
    if n < 3:
        return pts
    keep = []
    for i in range(n):
        a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cross) > tol * (np.hypot(*(b - a)) + np.hypot(*(c - b))):
            keep.append(i)
    return pts[keep]


def _clip_halfplane_array(pts: np.ndarray, nx, ny, c):
    d = pts[:, 0] * nx + pts[:, 1] * ny - c
    inside = d <= 0.0
    if inside.all():
        return pts
    if not inside.any():
        return None
    out = []
    n = len(pts)
    for i in range(n):
        j = (i + 1) % n
        if inside[i]:
            out.append(pts[i])
            if not inside[j]:
                t = d[i] / (d[i] - d[j])
                out.append(pts[i] + t * (pts[j] - pts[i]))
        elif inside[j]:
            t = d[i] / (d[i] - d[j])
            out.append(pts[i] + t * (pts[j] - pts[i]))
    return np.array(out) if len(out) >= 3 else None


def power_diagram_cells_reference(cfg, container: ConvexPolygon):
    """Power cells by numpy half-plane clips in absolute coordinates and site
    order (j = 0..k-1), each ring cleaned before validation.

    An independent check of ``power_diagram_cells``, which clips in another
    order and other coordinates, so the two agree to rounding, not bit for
    bit.  Raises DegenerateConfigurationError for an empty cell, a sliver or
    a cell that fails validation.
    """
    seeds, weights = cfg.seeds, cfg.weights
    k = cfg.k
    norms = (seeds ** 2).sum(axis=1)
    cells = []
    for i in range(k):
        pts = container.vertices
        for j in range(k):
            if j == i:
                continue
            n = 2.0 * (seeds[j] - seeds[i])
            c = norms[j] - norms[i] + weights[i] - weights[j]
            pts = _clip_halfplane_array(pts, n[0], n[1], c)
            if pts is None:
                raise DegenerateConfigurationError(f"power cell {i} is empty")
        cells.append(_validated_cell(i, pts))
    return cells


def _validated_cell(i, pts):
    extent = math.hypot(*np.ptp(pts, axis=0))  # the bounding box diagonal
    pts = clean_ring_loop(pts, 1e-12 * extent)
    if len(pts) < 3:
        raise DegenerateConfigurationError(f"power cell {i} degenerates to a sliver")
    try:
        return ConvexPolygon(pts)
    except ValidationError as exc:
        raise DegenerateConfigurationError(f"power cell {i}: {exc}") from exc


def nearest_first_ring_reference(seeds: np.ndarray, weights: np.ndarray,
                                 container: ConvexPolygon, i: int, stop: float = math.inf):
    """Site i's ring in site-centred coordinates, clipped on numpy arrays by the
    other sites' half-planes nearest first (a stable argsort of |d|^2), up to
    the sites with |d|^2 <= ``stop``.  Returns (ring, d, d2): the site-centred
    vertex array, None once a clip empties it, and every site's offset d and
    |d|^2 from site i."""
    d = seeds - seeds[i]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    pts = container.vertices - seeds[i]
    near = np.flatnonzero(d2 <= stop)  # sorted alone, in the order of the whole row
    for j in near[np.argsort(d2[near], kind="stable")]:
        if j != i:
            pts = _clip_halfplane_array(pts, 2.0 * d[j, 0], 2.0 * d[j, 1],
                                        d2[j] + (weights[i] - weights[j]))
            if pts is None:
                break
    return pts, d, d2


def power_diagram_cells_nearest_first_reference(cfg, container: ConvexPolygon):
    """Power cells clipped in site-centred coordinates by every other site's
    half-plane, nearest site first, on numpy arrays.

    The order of ``power_diagram_cells`` (a stable argsort of the squared
    distances) with no stop rule, so equal arithmetic gives bit-identical
    cells exactly when every clip that rule skips cuts nothing.
    """
    cells = []
    for i in range(cfg.k):
        pts = nearest_first_ring_reference(cfg.seeds, cfg.weights, container, i)[0]
        if pts is None:
            raise DegenerateConfigurationError(f"power cell {i} is empty")
        cells.append(_validated_cell(i, pts + cfg.seeds[i]))
    return cells


def polygon_centroid_exact(vertices) -> tuple:
    """(x, y) of a polygon's centroid from its float vertices, each coordinate
    rounded once: integer cross-product sums over the vertices, each float
    written as an integer over one common power of two."""
    ints, shift = _common_integers([v for p in vertices for v in p])
    rows = list(zip(ints[0::2], ints[1::2]))
    twice = sx = sy = 0
    for (x0, y0), (x1, y1) in zip(rows, rows[1:] + rows[:1]):
        c = x0 * y1 - x1 * y0
        twice += c
        sx += (x0 + x1) * c
        sy += (y0 + y1) * c
    den = 3 * twice << shift
    return float(Fraction(sx, den)), float(Fraction(sy, den))


# ---------------------------------------------------------------------------
# Convex polygons and their Cheeger solve on numpy vertex arrays.

def _next_rows(a: np.ndarray) -> np.ndarray:
    return np.concatenate((a[1:], a[:1]))


def _prev_rows(a: np.ndarray) -> np.ndarray:
    return np.concatenate((a[-1:], a[:-1]))


def shoelace_reference(pts: np.ndarray) -> float:
    """Signed area relative to the first vertex, as two ``np.dot`` sums."""
    x, y = (pts - pts[0]).T
    return 0.5 * float(np.dot(x, _next_rows(y)) - np.dot(y, _next_rows(x)))


def convex_polygon_reference(vertices) -> np.ndarray:
    """The vertex rows ``ConvexPolygon`` stores, validated with numpy arrays.

    Raises ValidationError with the messages of ``ConvexPolygon``.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValidationError(f"polygon needs an (n, 2) vertex array with n >= 3, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError("polygon has non-finite vertices")
    if shoelace_reference(pts) < 0.0:
        pts = pts[::-1]
    xs, ys = zip(*pts.tolist())
    extent = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    tol = 1e-12 * extent
    pts = clean_ring_loop(pts, tol)
    if len(pts) < 3:
        raise ValidationError("polygon degenerates to fewer than 3 vertices after cleanup")
    nxt = _next_rows(pts)
    prv = _prev_rows(pts)
    cross = (pts[:, 0] - prv[:, 0]) * (nxt[:, 1] - pts[:, 1]) - (
        pts[:, 1] - prv[:, 1]
    ) * (nxt[:, 0] - pts[:, 0])
    if (cross <= 0.0).any():
        raise ValidationError(f"polygon is not strictly convex (min corner cross {cross.min():.3e})")
    area = shoelace_reference(pts)
    if area <= tol * tol:
        raise ValidationError(f"polygon area {area:.3e} is not positive")
    return pts


def cheeger_convex_reference(p: ConvexPolygon) -> CheegerResult:
    """The closed-form Cheeger solve on numpy arrays: one quadratic per collapse event."""
    origin = p.vertices.mean(axis=0)
    q = p.vertices - origin
    d = _next_rows(q) - q
    u = d / np.hypot(d[:, 0], d[:, 1])[:, None]
    t = 0.0
    for solves in range(1, len(q) - 1):
        prev = _prev_rows(u)
        k = np.tan(0.5 * np.arctan2(prev[:, 0] * u[:, 1] - prev[:, 1] * u[:, 0],
                                    np.einsum("ij,ij->i", prev, u)))
        velocity = np.column_stack([-u[:, 1], u[:, 0]]) + k[:, None] * u
        d = _next_rows(q) - q
        lengths = np.hypot(d[:, 0], d[:, 1])
        a = float(k.sum()) - math.pi
        b = float(lengths.sum()) + TWO_PI * t
        c = shoelace_reference(q) - math.pi * t * t
        disc = b * b - 4.0 * a * c
        s = 2.0 * c / (b + math.sqrt(disc)) if disc >= 0.0 else math.inf
        collapse = lengths / (k + _next_rows(k))
        j = int(np.argmin(collapse))
        if len(q) == 3 or s <= collapse[j]:
            break
        t += float(collapse[j])
        q = np.delete(q + collapse[j] * velocity, j, axis=0)
        u = np.delete(u, j, axis=0)

    r = t + s
    ring = q + s * velocity
    residual = abs(shoelace_reference(ring) - math.pi * r * r)
    core = clean_ring_loop(ring, 1e-9 * float(np.abs(ring).max())) + origin
    return CheegerResult(1.0 / r, r, core, solves, residual)


# ---------------------------------------------------------------------------
# Chain generation on numpy 2-vectors.

_SECTOR_NORMALS = np.array([[0.0, 1.0], [math.sin(SECTOR_OPENING), -math.cos(SECTOR_OPENING)]])


def _region_polygon_reference(centers: np.ndarray, radii: np.ndarray, flavor: str):
    """CCW region polygon (feet and apex for open flavors) and its center indices."""
    if flavor == CLOSED:
        poly = centers
        first = 0
    else:
        f0 = np.array([centers[0, 0], 0.0])
        if flavor == HALF_PLANE:
            f1 = np.array([centers[-1, 0], 0.0])
        else:
            f1 = centers[-1] - radii[-1] * _SECTOR_NORMALS[1]
        rows = [f0] + [c for c in centers] + [f1]
        first = 1
        if flavor == SECTOR:
            rows = [np.zeros(2)] + rows
            first = 2
        poly = np.vstack(rows)
    centers_idx = list(range(first, first + len(radii)))
    x, y = poly[:, 0], poly[:, 1]
    if float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) < 0.0:
        n = len(poly)
        poly = poly[::-1]
        centers_idx = [n - 1 - i for i in centers_idx]
    return poly, centers_idx


def pocket_angles_reference(centers, radii, flavor: str):
    """Pocket-side angle in [0, 2 pi) at each center, on the CCW region polygon."""
    poly, centers_idx = _region_polygon_reference(
        np.atleast_2d(np.asarray(centers, dtype=float)), np.asarray(radii, dtype=float).ravel(), flavor)
    n = len(poly)
    angles = []
    for i in centers_idx:
        a = poly[(i - 1) % n] - poly[i]
        b = poly[(i + 1) % n] - poly[i]
        angles.append(math.atan2(b[0] * a[1] - b[1] * a[0], float(a @ b)) % TWO_PI)
    return angles


def _common_integers(values):
    """([v * 2**shift for v in values], shift): the floats as integers over
    one common power of two, the least that makes every one of them whole."""
    shift = max(v.as_integer_ratio()[1] for v in values).bit_length() - 1
    ints = []
    for v in values:
        num, den = v.as_integer_ratio()
        ints.append(num << (shift - den.bit_length() + 1))
    return ints, shift


def chain_area_exact(centers, radii, flavor: str) -> float:
    """The chain region's area on its float region polygon, rounded once: an
    integer shoelace over the vertices, each float written as an integer over
    one common power of two, and 50-digit ``mpmath`` angles at the centers,
    from exact vertex differences."""
    radii = np.asarray(radii, dtype=float).ravel()
    poly, centers_idx = _region_polygon_reference(np.atleast_2d(np.asarray(centers, dtype=float)), radii, flavor)
    ints, shift = _common_integers(poly.ravel().tolist() + radii.tolist())
    n = len(poly)
    rows = list(zip(ints[0:2 * n:2], ints[1:2 * n:2]))
    twice = sum(x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in zip(rows, rows[1:] + rows[:1]))
    with mpmath.workdps(50):
        area = mpmath.mpf(abs(twice)) / 2
        for i, r in zip(centers_idx, ints[2 * n:]):
            (vx, vy), (ax, ay), (bx, by) = rows[i], rows[i - 1], rows[(i + 1) % n]
            ax, ay, bx, by = ax - vx, ay - vy, bx - vx, by - vy
            angle = mpmath.atan2(bx * ay - by * ax, ax * bx + ay * by) % (2 * mpmath.pi)
            area -= angle * r ** 2 / 2
        return float(mpmath.ldexp(area, -2 * shift))


def validate_chain_reference(centers, radii, flavor: str):
    """The chain hypotheses checked on numpy arrays; returns the warnings."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float).ravel()
    m = len(radii)
    if len(centers) != m:
        raise ValidationError("centers and radii length mismatch")
    if m < 2 or (flavor == CLOSED and m < 3):
        raise ValidationError(f"chain of flavor {flavor} needs more disks, got {m}")
    if (radii <= 0.0).any():
        raise ValidationError("disk radii must be positive")
    # coordinates measured from the region polygon's first vertex: the first
    # center of a closed chain, the first foot or the sector apex
    anchor = centers[0] if flavor == CLOSED else [centers[0, 0] if flavor == HALF_PLANE else 0.0, 0.0]
    tol = 1e-9 * max(float(np.hypot(*(centers - anchor).T).max()), float(radii.max()))
    warnings = []
    for i in range(m if flavor == CLOSED else m - 1):
        j = (i + 1) % m
        d = float(np.hypot(*(centers[i] - centers[j])))
        want = radii[i] + radii[j]
        if abs(d - want) > 1e3 * tol:
            raise ValidationError(
                f"disks {i},{j} must be tangent: distance {d:.12g}, radii sum {want:.12g}"
            )
    for i in range(m):
        for j in range(i + 2, m):
            if flavor == CLOSED and i == 0 and j == m - 1:
                continue
            d = float(np.hypot(*(centers[i] - centers[j])))
            want = radii[i] + radii[j]
            if d < want - 1e3 * tol:
                raise ValidationError(
                    f"non-consecutive disks {i},{j} overlap: {d:.12g} < {want:.12g}"
                )
            if d < want + 1e3 * tol:
                warnings.append(f"touching_nonconsecutive_{i}_{j}")
    if flavor != CLOSED:
        normals = _SECTOR_NORMALS[:1] if flavor == HALF_PLANE else _SECTOR_NORMALS
        dists = centers @ normals.T
        if (dists < radii[:, None] - 1e3 * tol).any():
            raise ValidationError("a disk leaves the container region")
        if abs(dists[0, 0] - radii[0]) > 1e3 * tol:
            raise ValidationError("first disk must be tangent to the first line")
        if abs(dists[-1, -1] - radii[-1]) > 1e3 * tol:
            raise ValidationError("last disk must be tangent to the last line")
    for k, ang in enumerate(pocket_angles_reference(centers, radii, flavor)):
        if ang > math.pi - 1e-12:
            if ang > math.pi + 1e-9:
                raise ValidationError(f"pocket angle at disk {k} is not below pi")
            warnings.append(f"straight_angle_{k}")
    return warnings


# ---------------------------------------------------------------------------
# The inner offset and the class-A rules on edge objects.

def _is_corner_arc(e, r: float) -> bool:
    # a CCW arc whose radius is r to CHAIN_TOL relative
    return isinstance(e, Arc) and e.turning == 1 and abs(e.radius - r) <= CHAIN_TOL * r


def offset_inner_reference(c: ArcCurve, r: float, roles):
    """``offset_inner`` on edge objects: (edges, collapsed indices, ((index, Point), ...)).

    Each offset edge is a new ``Segment`` (translated along the inner normal
    of its ``Point`` ends) or ``Arc``; the curve is not built, so its gaps
    are left to the caller.  Roles are assumed valid.
    """
    edges, collapsed, points = [], [], []
    for i, (e, role) in enumerate(zip(edges_of(c), roles)):
        if isinstance(e, Segment):
            dx, dy = e.end.x - e.start.x, e.end.y - e.start.y
            n = math.hypot(dx, dy)
            nx, ny = -dy / n, dx / n
            edges.append(Segment(Point(e.start.x + r * nx, e.start.y + r * ny),
                                 Point(e.end.x + r * nx, e.end.y + r * ny)))
        elif role == FREE or (role == BORDER_PIECE and abs(e.radius - r) <= CHAIN_TOL * r):
            if not _is_corner_arc(e, r):
                raise ContractViolation(
                    f"edge {i}: role {role!r} requires a CCW arc of radius {r}, "
                    f"got radius {e.radius} turning {e.turning}")
            points.append((i, e.center))
            if role == FREE:
                collapsed.append(i)
        elif role == BORDER_PIECE:
            raise ValidationError(f"edge {i}: border junction arcs must have curvature 1/r, "
                                  f"got radius {e.radius}")
        elif e.turning == 1 and e.radius <= r * (1.0 + 1e-12):
            raise DegenerateOffsetError(f"edge {i}: positive-curvature arc of radius {e.radius} "
                                        f"cannot be offset inward by {r}")
        else:
            edges.append(Arc(e.center, e.radius - e.turning * r, e.start_angle, e.signed_sweep))
    if not edges:
        raise DegenerateOffsetError("every edge collapsed; offset curve is empty")
    return tuple(edges), tuple(collapsed), tuple(points)


def class_a_violations_reference(d: ArcDomain):
    """``class_a_violations`` on the boundary's edge objects, rule by rule."""
    edges, roles, r, h = edges_of(d.boundary), d.roles, d.r, d.h
    if len(edges) > MAX_EDGES:
        return ["edge_cap"]
    violations = []
    arcs = maximal_arcs(d)
    kinds = [kind for kind, _ in arcs]
    if len(arcs) % 2:
        violations.append("even_arc_count")
    if len(kinds) == 1 or any(kinds[i] == kinds[(i + 1) % len(kinds)] for i in range(len(kinds))):
        violations.append("alternation")
    if any(role == FREE and not _is_corner_arc(e, r) for e, role in zip(edges, roles)):
        violations.append("free_curvature")
    if any(role == INNER_JUNCTION and isinstance(e, Arc) and e.turning / e.radius > h * (1.0 - CHAIN_TOL)
           for e, role in zip(edges, roles)):
        violations.append("inner_curvature")
    for kind, run in arcs:
        if kind != "junction" or roles[run[0]] != BORDER_PIECE:
            continue
        segments = [edges[i] for i in run[::2]]
        corners = [edges[i] for i in run[1::2]]
        if not (all(isinstance(e, Segment) for e in segments) and len(segments) <= 3
                and isinstance(edges[run[-1]], Segment)
                and all(_is_corner_arc(e, r) for e in corners)):
            violations.append("border_structure")
            break
    per = sum(e.length for e in edges)
    area = signed_area(curve_of(edges))
    if area <= 0.0 or abs(h - per / area) > 1e-8 * h:
        violations.append("self_cheeger_ratio")
    return violations


# ---------------------------------------------------------------------------
# Hales chord deficits and the cluster overlap check on Point objects.

def _locate_on_edge_reference(q: Point, e, tol: float):
    """Parameter t in [0, 1] of q on the edge, or None if q is farther than tol."""
    if isinstance(e, Segment):
        vx, vy = e.end.x - e.start.x, e.end.y - e.start.y
        wx, wy = q.x - e.start.x, q.y - e.start.y
        t = (vx * wx + vy * wy) / (vx * vx + vy * vy)
        t = min(1.0, max(0.0, t))
        if distance(q, e.point_at(t)) <= tol:
            return t
        return None
    ang = math.atan2(q.y - e.center.y, q.x - e.center.x)
    rel = (e.turning * (ang - e.start_angle)) % TWO_PI
    if rel > e.sweep:
        rel = 0.0 if TWO_PI - rel < rel - e.sweep else e.sweep
    t = rel / e.sweep
    if distance(q, e.point_at(t)) <= tol:
        return t
    return None


def _node_positions_reference(curve: ArcCurve, nodes):
    """(edge index, parameter) of each node, every node tried on every edge."""
    tol = curve.tolerance
    edges = edges_of(curve)
    n_edges = len(edges)
    positions = []
    for k, (x, y) in enumerate(nodes):
        node = Point(x, y)
        best = None
        for i, e in enumerate(edges):
            t = _locate_on_edge_reference(node, e, 10.0 * tol)
            if t is None:
                continue
            dist = distance(node, e.point_at(t))
            if best is None or dist < best[0]:
                best = (dist, i, t)
        if best is None or best[0] > tol:
            worst = best[0] if best else math.inf
            raise ContractViolation(f"node {k} is not on the curve (best distance {worst:.3e})")
        _, i, t = best
        if distance(node, edges[i].point_at(0.0)) <= tol:
            positions.append((i, 0.0))
        elif distance(node, edges[i].point_at(1.0)) <= tol:
            positions.append(((i + 1) % n_edges, 0.0))
        else:
            positions.append((i, t))
    return positions


def _split_at_nodes_reference(curve: ArcCurve, positions):
    """The curve's edge objects cut by ``split_edge`` so every node starts an edge; (edges, node_at_start)."""
    edges, starts = [], []
    for i, e in enumerate(edges_of(curve)):
        cuts = sorted((t, k) for k, (j, t) in enumerate(positions) if j == i)
        label = None
        if cuts and cuts[0][0] == 0.0:
            label = cuts.pop(0)[1]
        if cuts and cuts[0][0] == 0.0:
            raise ContractViolation("two nodes coincide on the curve")
        done = 0.0
        for t, k in cuts:
            first, e = split_edge(e, (t - done) / (1.0 - done))
            edges.append(first)
            starts.append(label)
            label, done = k, t
        edges.append(e)
        starts.append(label)
    return edges, starts


def chord_deficits_reference(gamma_r: ArcCurve, nodes, clamp_bound=None) -> DeficitReport:
    """``chord_deficits`` on edge objects: every node located on every edge
    through ``Point`` objects, the edges cut with ``split_edge``, and each
    portion with its chord ``Segment`` built into a validated ``ArcCurve``
    for its area."""
    if not gamma_r.closed:
        raise ContractViolation("chord_deficits requires a closed curve")
    positions = _node_positions_reference(gamma_r, nodes.nodes)
    edges, starts = _split_at_nodes_reference(gamma_r, positions)
    order = [k for k in starts if k is not None]
    n = len(nodes)
    if len(order) != n:
        raise ContractViolation("node splitting lost a node")
    shift = order.index(0)
    if [order[(shift + j) % n] for j in range(n)] != list(range(n)):
        raise ContractViolation("nodes are not in cyclic order along the curve")

    first = next(i for i, k in enumerate(starts) if k is not None)
    ring = edges[first:] + edges[:first]
    labels = starts[first:] + starts[:first]
    portions = []
    current = []
    for e, k in zip(ring, labels):
        if k is not None and current:
            portions.append(current)
            current = []
        current.append(e)
    portions.append(current)

    if clamp_bound is None:
        clamp_bound = abs(signed_area(gamma_r))
    tol = gamma_r.tolerance
    xs = []
    for portion in portions:
        a = portion[0].start
        b = portion[-1].end
        pieces = list(portion)
        if distance(b, a) > tol:
            pieces.append(Segment(b, a))
        xs.append(signed_area(curve_of(pieces)))
    rot = (labels[0] + 1) % n
    if rot:
        xs = xs[-rot:] + xs[:-rot]
    t = sum(min(clamp_bound, max(-clamp_bound, x)) for x in xs)
    return DeficitReport(tuple(xs), t, n, clamp_bound)


# ---------------------------------------------------------------------------
# The array winding and distance kernels and the sampled overlap check.

def _edge_columns(c: ArcCurve):
    """Per-field arrays of the curve's segments and of its arcs (None when absent).

    Segments: start x, start y, end x, end y.  Arcs: center x, center y,
    radius, start angle, opening angle, turning, start x, start y, end x,
    end y.  Each field is a row, so it broadcasts against a column of points.
    """
    segs, arcs = [], []
    for row in c.rows:
        if len(row) == 4:
            segs.append(row)
        else:
            cx, cy, r, a0, sweep = row
            arcs.append((cx, cy, r, a0, abs(sweep), 1 if sweep > 0.0 else -1,
                         *edge_point(row, 0.0), *edge_point(row, 1.0)))
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


def curve_distances_reference(c: ArcCurve, x, y) -> np.ndarray:
    """Distance from each point ``(x[i], y[i])`` to the curve, for arrays x and y."""
    return _distances(*_edge_columns(c), *_points(x, y))


def _principal_turn(x, y, ax, ay, bx, by):
    # signed angle of (b - q) relative to (a - q), in (-pi, pi]
    v0x, v0y = ax - x, ay - y
    v1x, v1y = bx - x, by - y
    return np.arctan2(v0x * v1y - v0y * v1x, v0x * v1x + v0y * v1y)


def winding_numbers_reference(c: ArcCurve, x, y) -> np.ndarray:
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
    columns = _edge_columns(c)
    x, y = _points(x, y)
    d = _distances(*columns, x, y)
    on = np.flatnonzero(d <= c.tolerance)
    if on.size:
        raise OnBoundaryError(f"query point is on the curve (distance {d[on[0]]:.3e})")
    return _winding_totals(*columns, x, y)


def _winding_totals(segs, arcs, x, y) -> np.ndarray:
    # ``winding_numbers_reference`` of point columns known to lie off the curve
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


#: midpoint samples per edge of ``sample_boundary_reference``
BOUNDARY_SAMPLES = 64


def sample_boundary_reference(cell: ArcDomain):
    """x and y arrays of BOUNDARY_SAMPLES midpoint samples per edge, in traversal order."""
    t = (np.arange(BOUNDARY_SAMPLES) + 0.5) / BOUNDARY_SAMPLES
    xs, ys = [], []
    for row in cell.boundary.rows:
        if len(row) == 5:
            a = row[3] + row[4] * t
            xs.append(row[0] + row[2] * np.cos(a))
            ys.append(row[1] + row[2] * np.sin(a))
        else:
            xs.append(row[0] + t * (row[2] - row[0]))
            ys.append(row[1] + t * (row[3] - row[1]))
    return np.concatenate(xs), np.concatenate(ys)


def overlap_message_reference(cells):
    """The sampled overlap verdict for these cells: a message naming a sample, or None.

    It sees an overlap only where a boundary sample of one cell falls in it.
    For each cell i in order and each other cell j whose box meets i's, the
    samples of i inside j's padded box and off j's curve are tested with
    ``winding_numbers_reference`` on j; the first nonzero names the pair.
    """
    samples = [sample_boundary_reference(c) for c in cells]
    boxes = [c.boundary.bbox for c in cells]
    for i, (x, y) in enumerate(samples):
        bi = boxes[i]
        for j, bj in enumerate(boxes):
            if i == j or bi[0] > bj[2] or bj[0] > bi[2] or bi[1] > bj[3] or bj[1] > bi[3]:
                continue
            other = cells[j].boundary
            pad = 10.0 * other.tolerance
            near = ((bj[0] - pad <= x) & (x <= bj[2] + pad)
                    & (bj[1] - pad <= y) & (y <= bj[3] + pad))
            qx, qy = x[near], y[near]
            far = curve_distances_reference(other, qx, qy) > pad
            qx, qy = qx[far], qy[far]
            hit = np.flatnonzero(winding_numbers_reference(other, qx, qy))
            if hit.size:
                q = hit[0]
                return f"cells {i} and {j} overlap near ({qx[q]:.6g}, {qy[q]:.6g})"
    return None


def honeycomb_adjacency_reference(coords) -> list:
    """The shared arcs of ``honeycomb_kcell(coords)``, read off the lattice:
    (cell_a, cell_b, edge_a, edge_b), cell_a < cell_b, one per pair of
    neighboring coordinates.

    Hexagon edge j runs between the vertices at 30 + 60 j and 90 + 60 j
    degrees, so it faces the lattice direction 60 (j + 1) degrees; the
    neighbor in direction a is across edge a - 1, and this cell is across
    that neighbor's edge a + 2, which faces the opposite direction a + 3.
    """
    offsets = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))  # directions 0, 60, ..., 300
    index = {(i, t): j for j, (i, t) in enumerate(coords)}
    return [(j, index[i + di, t + dt], (a - 1) % 6, (a + 2) % 6)
            for (i, t), j in index.items() for a, (di, dt) in enumerate(offsets)
            if index.get((i + di, t + dt), -1) > j]


# ---------------------------------------------------------------------------
# Class-A fixtures and curve construction through numpy rows and Point objects.

def curve_gap_error_reference(edges, closed: bool):
    """The message of the ``ValidationError`` ``curve_of(edges, closed)`` raises, or None.

    Every endpoint is a ``Point`` from ``start``/``end``, so a non-finite arc
    end raises as the ``Point`` does, in the order the gaps are visited.  The
    tolerance is ``CHAIN_TOL`` times the diagonal of the edges' box, an arc
    counting its whole circle; after the gaps, an infinite one is refused.
    """
    edges = tuple(edges)
    if not edges:
        return "curve needs at least one edge"
    xs, ys = [], []
    for e in edges:
        if isinstance(e, Arc):
            xs += [e.center.x - e.radius, e.center.x + e.radius]
            ys += [e.center.y - e.radius, e.center.y + e.radius]
        else:
            xs += [e.start.x, e.end.x]
            ys += [e.start.y, e.end.y]
    box = min(xs), min(ys), max(xs), max(ys)
    tol = CHAIN_TOL * math.hypot(box[2] - box[0], box[3] - box[1])
    pairs = [(i, i + 1) for i in range(len(edges) - 1)] + ([(-1, 0)] if closed else [])
    for i, j in pairs:
        try:
            gap = distance(edges[i].end, edges[j].start)
        except ValidationError as exc:
            return str(exc)
        if gap > tol:
            if i == -1:
                return f"closed curve does not close: terminal gap {gap:.3e} > {tol:.3e}"
            return f"gap {gap:.3e} between edges {i} and {j} exceeds tolerance {tol:.3e}"
    return None if math.isfinite(tol) else f"curve box {box} overflows the float range"


def _map_point_reference(p: Point, cos_a, sin_a, dx, dy, lam):
    return Point(
        lam * (cos_a * p.x - sin_a * p.y) + dx,
        lam * (sin_a * p.x + cos_a * p.y) + dy,
    )


def transform_curve_reference(c: ArcCurve, angle: float = 0.0, dx: float = 0.0,
                              dy: float = 0.0, scale: float = 1.0) -> ArcCurve:
    """``transform_curve`` with a ``Point`` mapped by a helper call per point."""
    if scale <= 0.0:
        raise ValidationError("scale must be positive")
    ca, sa = math.cos(angle), math.sin(angle)
    out = []
    for e in edges_of(c):
        if isinstance(e, Arc):
            out.append(
                Arc(_map_point_reference(e.center, ca, sa, dx, dy, scale), e.radius * scale,
                    e.start_angle + angle, e.signed_sweep)
            )
        else:
            out.append(
                Segment(
                    _map_point_reference(e.start, ca, sa, dx, dy, scale),
                    _map_point_reference(e.end, ca, sa, dx, dy, scale),
                )
            )
    return curve_of(out, c.closed)


def convex_hull_reference(points) -> np.ndarray:
    """Andrew's monotone chain on the rows of ``np.unique(axis=0)``, walked as numpy rows."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def random_convex_polygon_reference(rng: np.random.Generator, n_min: int = 3,
                                    n_max: int = 12) -> ConvexPolygon:
    """``random_convex_polygon`` with the hull of ``convex_hull_reference``."""
    for _ in range(200):
        n = int(rng.integers(n_min, n_max + 1))
        ang = np.sort(rng.uniform(0.0, TWO_PI, n))
        if n > 3 and np.diff(np.concatenate([ang, [ang[0] + TWO_PI]])).min() < 0.08:
            continue
        rad = rng.uniform(0.5, 1.5, n)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        hull = convex_hull_reference(pts)
        if not n_min <= len(hull) <= n_max:
            continue
        try:
            return ConvexPolygon(hull)
        except ValidationError:
            continue
    raise ValidationError("random polygon generation failed")


def _inner_curve_exterior_angles_reference(edges):
    """Exterior angle at each vertex between consecutive edge tangents, from the edge objects."""
    def tangent(e, t):
        if isinstance(e, Segment):
            return math.atan2(e.end.y - e.start.y, e.end.x - e.start.x)
        return e.angle_at(t) + e.turning * math.pi / 2.0

    n = len(edges)
    out = []
    for i in range(n):
        gap = (tangent(edges[(i + 1) % n], 0.0) - tangent(edges[i], 1.0)) % TWO_PI
        if gap > math.pi:
            gap -= TWO_PI
        out.append(gap)
    return out


def _domain_from_inner_curve_reference(inner: ArcCurve, r: float) -> ArcDomain:
    """Outward parallel body of a piecewise curve, built edge by edge from its objects."""
    def outward_normal_angle(e, t):
        if isinstance(e, Segment):
            return math.atan2(-(e.end.x - e.start.x), e.end.y - e.start.y)
        a = e.angle_at(t)
        return a if e.turning == 1 else a + math.pi

    edges = []
    roles = []
    inner_edges = edges_of(inner)
    n = len(inner_edges)
    for i, e in enumerate(inner_edges):
        if isinstance(e, Segment):
            na = outward_normal_angle(e, 0.0)
            nx, ny = math.cos(na), math.sin(na)
            edges.append(
                Segment(
                    Point(e.start.x + r * nx, e.start.y + r * ny),
                    Point(e.end.x + r * nx, e.end.y + r * ny),
                )
            )
        else:
            if e.turning == -1 and e.radius <= r:
                raise ValidationError("concave inner radius must exceed r")
            edges.append(Arc(e.center, e.radius + e.turning * r, e.start_angle, e.signed_sweep))
        roles.append(INNER_JUNCTION)
        nxt = inner_edges[(i + 1) % n]
        a0 = outward_normal_angle(e, 1.0)
        a1 = outward_normal_angle(nxt, 0.0)
        sweep = (a1 - a0) % TWO_PI
        if sweep > 1e-9:
            edges.append(Arc(e.end, r, a0, sweep))
            roles.append(FREE)
    return ArcDomain(curve_of(edges), tuple(roles), 1.0 / r)


def random_class_a_domain_reference(seed) -> ArcDomain:
    """``random_class_a_domain`` with the per-edge arithmetic on numpy 2-vectors.

    The polygon comes from ``random_convex_polygon_reference``, both motions
    from ``transform_curve_reference``, and every stage is a validated
    ``ArcCurve`` of edge objects.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        poly = random_convex_polygon_reference(rng, 4, 9)
        pts = poly.vertices * math.sqrt(math.pi / poly.area)
        n = len(pts)
        edges = []
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            length = float(np.hypot(*(b - a)))
            bow = 0.0
            if length > 1.0 and rng.random() < 0.6:
                bow = float(rng.uniform(-0.18, 0.18)) * length
            if abs(bow) < 0.02 * length:
                edges.append(Segment(Point(*a), Point(*b)))
                continue
            s = abs(bow)
            radius = (length * length / 4.0 + s * s) / (2.0 * s)
            mid = 0.5 * (a + b)
            left = np.array([-(b - a)[1], (b - a)[0]]) / length  # interior side
            if bow > 0.0:  # outward bulge, convex arc
                center = mid + (radius - s) * left
                turning = 1
            else:  # inward bulge, concave arc
                if radius < 1.4:
                    edges.append(Segment(Point(*a), Point(*b)))
                    continue
                center = mid - (radius - s) * left
                turning = -1
            a0 = math.atan2(a[1] - center[1], a[0] - center[0])
            a1 = math.atan2(b[1] - center[1], b[0] - center[0])
            edges.append(Arc.between(Point(*center), radius, a0, a1, turning))
        try:
            inner = curve_of(edges)
        except ValidationError:
            continue
        if min(_inner_curve_exterior_angles_reference(edges)) < 0.05:
            continue
        area = signed_area(inner)
        if area <= 0.0:
            continue
        inner = transform_curve_reference(inner, scale=math.sqrt(math.pi / area))
        if any(
            isinstance(e, Arc) and e.turning == -1 and e.radius < 1.05
            for e in edges_of(inner)
        ):
            continue
        try:
            d = _domain_from_inner_curve_reference(inner, 1.0)
        except ValidationError:
            continue
        lam = float(rng.uniform(0.5, 2.0))
        moved = transform_curve_reference(
            d.boundary,
            angle=float(rng.uniform(0.0, TWO_PI)),
            dx=float(rng.uniform(-3.0, 3.0)),
            dy=float(rng.uniform(-3.0, 3.0)),
            scale=lam,
        )
        return ArcDomain(moved, d.roles, d.h / lam)
    raise ValidationError("random class-A domain generation failed")
