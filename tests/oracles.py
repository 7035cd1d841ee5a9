"""Independent oracles used only by the tests.

These deliberately avoid the closed forms under test: the rasterized winding
oracle computes index-weighted area by exact scanline/curve intersections and
signed crossing counts; the quadrature oracle integrates x dy over a dense
polyline; the stepping winding oracle walks each arc seen from inside its
disk in short steps; the polygon Cheeger oracles solve the corner-quadratic directly or
bisect on the clipped inner polygon's area; the Monte Carlo chain oracle
samples the disk-chain region point by point; the power-diagram oracles clip
numpy vertex arrays by every half-plane, one at a time (in site order and
absolute coordinates, or nearest site first in site-centred coordinates), and
clean each ring with a vertex-by-vertex loop before validating it; the
convex-polygon and closed-form Cheeger oracles are the polygon validation and
the Cheeger solve on numpy vertex arrays, with ``np.dot`` shoelace sums; the chain-generation
oracle is the rejection sampler and chain validator on numpy 2-vectors, with
the region polygon oriented by ``np.roll`` shoelace sums; the chord-deficit
oracle locates every node on every edge through ``Point`` objects and builds
each portion with its chord into a validated ``ArcCurve`` for its area; the
overlap oracle makes one distance and one winding call per meeting pair of
cells.
"""

import math
from typing import NamedTuple

import numpy as np

from cheegerlab.arc_geometry import (
    Arc,
    ArcCurve,
    Point,
    Segment,
    curve_distances,
    signed_area,
    winding_numbers,
)
from cheegerlab.chamber_lemmas import (
    CLOSED,
    HALF_PLANE,
    SECTOR,
    SECTOR_OPENING,
    SQRT3,
    DiskChain,
    chain_feet,
    reference_areas,
)
from cheegerlab.cheeger import CheegerResult, ConvexPolygon, inner_parallel_polygon
from cheegerlab.cluster import _sample_boundary
from cheegerlab.errors import (
    ContractViolation,
    DegenerateConfigurationError,
    GenerationError,
    ValidationError,
)
from cheegerlab.hales_deficit import DeficitReport, _split_at_nodes

TWO_PI = 2.0 * math.pi


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


def power_diagram_cells_nearest_first_reference(cfg, container: ConvexPolygon):
    """Power cells clipped in site-centred coordinates by every other site's
    half-plane, nearest site first, on numpy arrays.

    The order of ``power_diagram_cells`` (a stable argsort of the squared
    distances) with no stop rule, so equal arithmetic gives bit-identical
    cells exactly when every clip that rule skips cuts nothing.
    """
    seeds, weights = cfg.seeds, cfg.weights
    cells = []
    for i in range(cfg.k):
        d = seeds - seeds[i]
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        pts = container.vertices - seeds[i]
        for j in np.argsort(d2, kind="stable"):
            if j == i:
                continue
            pts = _clip_halfplane_array(pts, 2.0 * d[j, 0], 2.0 * d[j, 1],
                                        d2[j] + (weights[i] - weights[j]))
            if pts is None:
                raise DegenerateConfigurationError(f"power cell {i} is empty")
        cells.append(_validated_cell(i, pts + seeds[i]))
    return cells


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
    tol = 1e-9 * max(1.0, float(np.abs(centers).max()), float(radii.max()))
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
    poly, centers_idx = _region_polygon_reference(centers, radii, flavor)
    n = len(poly)
    for k, i in enumerate(centers_idx):
        a = poly[(i - 1) % n] - poly[i]
        b = poly[(i + 1) % n] - poly[i]
        ang = math.atan2(b[0] * a[1] - b[1] * a[0], float(a @ b)) % TWO_PI
        if ang > math.pi - 1e-12:
            if ang > math.pi + 1e-9:
                raise ValidationError(f"pocket angle at disk {k} is not below pi")
            warnings.append(f"straight_angle_{k}")
    return warnings


def _circle_intersections_reference(c0, r0, c1, r1):
    d = float(np.hypot(*(c1 - c0)))
    if d > r0 + r1 or d < abs(r0 - r1) or d == 0.0:
        return []
    a = (r0 * r0 - r1 * r1 + d * d) / (2.0 * d)
    h2 = r0 * r0 - a * a
    if h2 < 0.0:
        return []
    h = math.sqrt(h2)
    mid = c0 + a * (c1 - c0) / d
    off = np.array([-(c1 - c0)[1], (c1 - c0)[0]]) * h / d
    return [mid + off, mid - off]


def _accepted(centers, radii, flavor):
    """(centers, radii, warnings) if the chain is valid, else None."""
    try:
        return centers, radii, tuple(validate_chain_reference(centers, radii, flavor))
    except ValidationError:
        return None


def _try_chain_reference(rng: np.random.Generator, flavor: str, m: int):
    radii = rng.uniform(0.6, 1.5, m)
    margin = 0.05
    if flavor == CLOSED:
        centers = [np.zeros(2), np.array([radii[0] + radii[1], 0.0])]
        heading = 0.0
        for i in range(2, m - 1):
            heading += rng.uniform(0.25, 1.9 * math.pi / m)
            step = radii[i - 1] + radii[i]
            centers.append(centers[-1] + step * np.array([math.cos(heading), math.sin(heading)]))
        cands = _circle_intersections_reference(
            centers[-1], radii[m - 2] + radii[m - 1], centers[0], radii[0] + radii[m - 1]
        )
        last = [c for c in cands if c[1] > 0.0] if m == 3 else cands
        for cand in last:
            chain = _accepted(np.vstack(centers + [cand]), radii, CLOSED)
            if chain is not None:
                return chain
        return None
    if flavor == HALF_PLANE:
        centers = [np.array([0.0, radii[0]])]
        theta0 = rng.uniform(0.45, 1.1)
        heading = theta0
        drop = 2.0 * theta0 / max(m - 2, 1)
        for i in range(1, m - 1):
            if i > 1:
                heading -= drop * rng.uniform(0.6, 1.4)
            step = radii[i - 1] + radii[i]
            cand = centers[-1] + step * np.array([math.cos(heading), math.sin(heading)])
            if cand[1] < radii[i] * (1.0 + margin):
                return None
            centers.append(cand)
        prev = centers[-1]
        reach = (radii[-2] + radii[-1]) ** 2 - (prev[1] - radii[-1]) ** 2
        if reach <= 0.0:
            return None
        centers.append(np.array([prev[0] + math.sqrt(reach), radii[-1]]))
        return _accepted(np.vstack(centers), radii, HALF_PLANE)
    chain_arc = 2.0 * float(radii.sum()) - radii[0] - radii[-1]
    start_x = max(chain_arc * rng.uniform(0.9, 1.4), 1.02 * SQRT3 * radii[0])
    centers = [np.array([start_x, radii[0]])]
    for i in range(1, m - 1):
        polar = math.atan2(centers[-1][1], centers[-1][0])
        heading = polar + math.pi / 2.0 + rng.uniform(0.0, 0.1)
        step = radii[i - 1] + radii[i]
        cand = centers[-1] + step * np.array([math.cos(heading), math.sin(heading)])
        if (cand @ _SECTOR_NORMALS.T < radii[i] * (1.0 + margin)).any():
            return None
        centers.append(cand)
    d2 = np.array([math.cos(SECTOR_OPENING), math.sin(SECTOR_OPENING)])
    prev = centers[-1]
    base = radii[-1] * _SECTOR_NORMALS[1]
    b = float(d2 @ (base - prev))
    c0 = float((base - prev) @ (base - prev)) - (radii[-2] + radii[-1]) ** 2
    disc = b * b - c0
    if disc <= 0.0:
        return None
    for t in (-b + math.sqrt(disc), -b - math.sqrt(disc)):
        cand = base + t * d2
        if cand[1] < radii[-1] * (1.0 - 1e-9):
            continue
        chain = _accepted(np.vstack(centers + [cand]), radii, SECTOR)
        if chain is not None:
            return chain
    return None


class ReferenceChain(NamedTuple):
    centers: np.ndarray
    radii: np.ndarray
    warnings: tuple
    area: float
    bound: float
    holds: bool


def random_chain_reference(flavor: str, m: int, seed) -> ReferenceChain:
    """``random_chain`` and ``verify_chain_bound`` on numpy 2-vectors.

    Draws the same random numbers in the same order as ``random_chain``, so
    equal arithmetic gives bit-identical chains; the area is the region
    polygon's ``np.roll`` shoelace area minus the disk sector at each center.
    """
    rng = np.random.default_rng(seed)
    for _ in range(4000):
        chain = _try_chain_reference(rng, flavor, m)
        if chain is not None and not chain[2]:
            break
    else:
        raise GenerationError(f"no valid {flavor} chain with m = {m} after 4000 attempts")
    centers, radii, warnings = chain
    poly, centers_idx = _region_polygon_reference(centers, radii, flavor)
    x, y = poly[:, 0], poly[:, 1]
    area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    n = len(poly)
    for local, i in enumerate(centers_idx):
        a = poly[(i - 1) % n] - poly[i]
        b = poly[(i + 1) % n] - poly[i]
        area -= 0.5 * math.atan2(abs(a[0] * b[1] - a[1] * b[0]), float(a @ b)) * radii[local] ** 2
    r_star = float(radii.min())
    delta, wedge, corner = reference_areas(r_star)
    bound = (m - 2) * delta
    if flavor == HALF_PLANE:
        bound += wedge
    elif flavor == SECTOR:
        bound += wedge + corner
    holds = bool(area >= bound - 1e-9 * max(1.0, r_star * r_star))
    return ReferenceChain(centers, radii, warnings, area, bound, holds)


# ---------------------------------------------------------------------------
# Hales chord deficits and the cluster overlap check on Point objects.

def _locate_on_edge_reference(q: Point, e, tol: float):
    """Parameter t in [0, 1] of q on the edge, or None if q is farther than tol."""
    if isinstance(e, Segment):
        vx, vy = e.end.x - e.start.x, e.end.y - e.start.y
        wx, wy = q.x - e.start.x, q.y - e.start.y
        t = (vx * wx + vy * wy) / (vx * vx + vy * vy)
        t = min(1.0, max(0.0, t))
        if q.distance_to(e.point_at(t)) <= tol:
            return t
        return None
    ang = math.atan2(q.y - e.center.y, q.x - e.center.x)
    rel = (e.turning * (ang - e.start_angle)) % TWO_PI
    if rel > e.sweep:
        rel = 0.0 if TWO_PI - rel < rel - e.sweep else e.sweep
    t = rel / e.sweep
    if q.distance_to(e.point_at(t)) <= tol:
        return t
    return None


def _node_positions_reference(curve: ArcCurve, nodes):
    """(edge index, parameter) of each node, every node tried on every edge."""
    tol = curve.tolerance
    n_edges = len(curve.edges)
    positions = []
    for k, node in enumerate(nodes):
        best = None
        for i, e in enumerate(curve.edges):
            t = _locate_on_edge_reference(node, e, 10.0 * tol)
            if t is None:
                continue
            dist = node.distance_to(e.point_at(t))
            if best is None or dist < best[0]:
                best = (dist, i, t)
        if best is None or best[0] > tol:
            worst = best[0] if best else math.inf
            raise ContractViolation(f"node {k} is not on the curve (best distance {worst:.3e})")
        _, i, t = best
        if node.distance_to(curve.edges[i].point_at(0.0)) <= tol:
            positions.append((i, 0.0))
        elif node.distance_to(curve.edges[i].point_at(1.0)) <= tol:
            positions.append(((i + 1) % n_edges, 0.0))
        else:
            positions.append((i, t))
    return positions


def chord_deficits_reference(gamma_r: ArcCurve, nodes, clamp_bound=None) -> DeficitReport:
    """``chord_deficits`` with every portion and its chord built into a validated ArcCurve."""
    if not gamma_r.closed:
        raise ContractViolation("chord_deficits requires a closed curve")
    positions = _node_positions_reference(gamma_r, nodes.nodes)
    edges, starts = _split_at_nodes(gamma_r, positions)
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
        if b.distance_to(a) > tol:
            pieces.append(Segment(b, a))
        xs.append(signed_area(ArcCurve(tuple(pieces), closed=True)))
    rot = (labels[0] + 1) % n
    if rot:
        xs = xs[-rot:] + xs[:-rot]
    t = sum(min(clamp_bound, max(-clamp_bound, x)) for x in xs)
    return DeficitReport(tuple(xs), t, n, clamp_bound)


def overlap_message_reference(cells):
    """The overlap error ``Cluster`` raises for these cells, or None: one call per pair.

    For each cell i in order and each other cell j whose box meets i's, the
    samples of i inside j's padded box and off j's curve are tested with
    ``winding_numbers`` on j; the first nonzero names the pair.
    """
    samples = [_sample_boundary(c) for c in cells]
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
            far = curve_distances(other, qx, qy) > pad
            qx, qy = qx[far], qy[far]
            hit = np.flatnonzero(winding_numbers(other, qx, qy))
            if hit.size:
                q = hit[0]
                return f"cells {i} and {j} overlap near ({qx[q]:.6g}, {qy[q]:.6g})"
    return None
