"""Independent oracles used only by the tests.

These deliberately avoid the closed forms under test: the rasterized winding
oracle computes index-weighted area by exact scanline/curve intersections and
signed crossing counts; the quadrature oracle integrates x dy over a dense
polyline; the stepping winding oracle walks each arc seen from inside its
disk in short steps; the polygon Cheeger oracles solve the corner-quadratic directly or
bisect on the clipped inner polygon's area; the Monte Carlo chain oracle
samples the disk-chain region point by point; the power-diagram oracle clips
numpy vertex arrays one half-plane at a time and cleans each ring with a
vertex-by-vertex loop before validating it.
"""

import math
from typing import NamedTuple

import numpy as np

from cheegerlab.arc_geometry import Arc, ArcCurve, Point, Segment
from cheegerlab.chamber_lemmas import CLOSED, SECTOR, DiskChain, chain_feet
from cheegerlab.cheeger import ConvexPolygon, inner_parallel_polygon
from cheegerlab.errors import DegenerateConfigurationError, ValidationError

TWO_PI = 2.0 * math.pi


def _curve_bbox(curve: ArcCurve):
    xs, ys = [], []
    for e in curve.edges:
        if isinstance(e, Arc):
            xs += [e.center.x - e.radius, e.center.x + e.radius]
            ys += [e.center.y - e.radius, e.center.y + e.radius]
        else:
            xs += [e.start.x, e.end.x]
            ys += [e.start.y, e.end.y]
    return min(xs), min(ys), max(xs), max(ys)


def _row_crossings(curve: ArcCurve, y: float):
    """Signed crossings (x, direction) of the curve with the horizontal line."""
    out = []
    for e in curve.edges:
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
    x0, y0, x1, y1 = _curve_bbox(curve)
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
    rho = q.distance_to(e.center)
    if rho == 0.0:
        return e.radius
    ang = math.atan2(q.y - e.center.y, q.x - e.center.x)
    if (e.turning * (ang - e.start_angle)) % TWO_PI <= e.sweep:
        return abs(rho - e.radius)
    return min(q.distance_to(e.start), q.distance_to(e.end))


def winding_number_stepping(curve: ArcCurve, q: Point) -> int:
    """Winding number by summing principal turns along a walk of the curve.

    Segments, and arcs seen from outside their supporting disk, take one
    step.  An arc seen from inside is walked in steps no longer than q's
    distance to it, so each step turns by less than pi and atan2 picks the
    right branch; the cost grows like the arc length over that distance.
    """
    total = 0.0
    for e in curve.edges:
        if isinstance(e, Segment) or q.distance_to(e.center) > e.radius:
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
    for e in curve.edges:
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
        f0, f1 = chain_feet(ch)
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
    """Power cells by numpy half-plane clips, each ring cleaned before validation.

    Clips in the same order as ``power_diagram_cells`` (j = 0..k-1), so equal
    arithmetic gives bit-identical cells.  Raises DegenerateConfigurationError
    for an empty cell, a sliver or a cell that fails validation.
    """
    seeds, weights = cfg.seeds, cfg.weights
    k = cfg.k
    norms = (seeds ** 2).sum(axis=1)
    scale = max(1.0, float(np.abs(container.vertices).max()))
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
        pts = clean_ring_loop(pts, 1e-12 * scale)
        if len(pts) < 3:
            raise DegenerateConfigurationError(f"power cell {i} degenerates to a sliver")
        try:
            cells.append(ConvexPolygon(pts))
        except ValidationError as exc:
            raise DegenerateConfigurationError(f"power cell {i}: {exc}") from exc
    return cells
