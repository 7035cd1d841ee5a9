"""Cheeger constants and Cheeger sets of convex polygons, plus class-A validation.

For a convex body the Cheeger radius r solves ``area(inner_parallel(p, r)) =
pi*r**2`` and the Cheeger set is the inner parallel body fattened back by r
(inner polygon edges joined by radius-r corner arcs).  For a polygon the inner
parallel area is a quadratic in r between edge-collapse events, so r is the
smaller root of one quadratic per event, in closed form (Kawohl &
Lachand-Robert, Pacific J. Math. 225, 2006).  The same radius turns a
labeled arc-domain boundary into its inner parallel curve, on which the
Steiner-type identities

    H1(boundary) = H1(inner curve) + 2*pi*r
    area         = A(inner curve) + r*H1(inner curve) + pi*r**2
    A(inner curve) = pi*r**2
    area         = r*H1(inner curve) + 2*pi*r**2

are checked as residuals by ``structure_report``.

Polygon validation (``_convex_ring``) and the closed-form solve
(``_cheeger_loop``) run on plain Python floats (``math.atan2``, ``tan`` and
``hypot``, sums taken in sequence): on the four to eight vertices of a power
cell, numpy's cost per call outweighs the arithmetic.  ``ConvexPolygon`` and
``cheeger_convex`` are built on them; the optimizer calls them on float lists
and reads only the loop's radius, and its cost split is given
in ``partition_optimizer``.  ``convex_hull`` and the random fixtures run on
floats too.  ``random_convex_polygon`` takes its gap test and hull on float
lists, and ``random_class_a_domain`` carries its edges as edge rows
through every stage into the curve of rows it returns; class-A validation,
the angle sums and the Cheeger set's rounded polygon read and write rows too.
Their scalar draws are ``lo + (hi - lo) * rng.random()``, bit for bit
``rng.uniform``, and their outputs are bit for bit those of the numpy and
object forms kept as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import jsonio
from .arc_geometry import (
    ArcCurve,
    BORDER_PIECE,
    CHAIN_TOL,
    FREE,
    INNER_JUNCTION,
    OffsetResult,
    curve_from_dict,
    curve_length,
    curve_to_dict,
    edge_point,
    has_radius,
    offset_inner,
    signed_area,
    _arc_sweep,
    _rows_area,
    _transform_rows,
)
from .errors import ValidationError

TWO_PI = 2.0 * math.pi


def hexagon_constant() -> float:
    """Cheeger constant of the unit-area regular hexagon: sqrt(pi) + 12**(1/4)."""
    return math.sqrt(math.pi) + 12.0 ** 0.25


# ---------------------------------------------------------------------------
# Convex polygons.

def _next(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, -1, axis=0)``: row i holds row i + 1, cyclically."""
    return np.concatenate((a[1:], a[:1]))


def _shoelace(ring) -> float:
    """Signed area of a ring of (x, y) pairs, positive when CCW.

    Coordinates are taken relative to the first vertex, so a ring far from the
    origin keeps its digits; the cross terms are summed in sequence.
    """
    x0, y0 = ring[0]
    x1, y1 = ring[1]
    xa, ya = x1 - x0, y1 - y0
    total = 0.0
    for x, y in ring[2:]:
        xb, yb = x - x0, y - y0
        total += xa * yb - ya * xb
        xa, ya = xb, yb
    return 0.5 * total


def _corners(ring):
    """Edge lengths ``|p_i - p_(i-1)|`` and corner cross products at each p_i.

    The cross product at p_i is ``(p_i - p_(i-1)) x (p_(i+1) - p_i)``.
    """
    px, py = ring[-1]
    x, y = ring[0]
    ax0, ay0 = ax, ay = x - px, y - py
    gaps = [math.hypot(ax, ay)]
    crosses = []
    for x1, y1 in ring[1:]:
        bx, by = x1 - x, y1 - y
        gaps.append(math.hypot(bx, by))
        crosses.append(ax * by - ay * bx)
        x, y, ax, ay = x1, y1, bx, by
    crosses.append(ax * ay0 - ay * ax0)
    return gaps, crosses


def _clean_ring(ring, tol: float, corners=None) -> list:
    """Drop duplicate and collinear vertices from a closed ring of (x, y) pairs.

    A vertex within tol of the last kept one is dropped, and so are trailing
    vertices within tol of the first; then every vertex whose corner cross
    product is at most tol times its two edge lengths.  ``corners`` is
    ``_corners(ring)`` when the caller has it.  Returns a new list of the kept
    pairs.
    """
    if corners is None and len(ring) >= 3:
        corners = _corners(ring)
    if corners is None or min(corners[0]) <= tol:
        out = []
        for x, y in ring:
            if not out or math.hypot(x - out[-1][0], y - out[-1][1]) > tol:
                out.append((x, y))
        while len(out) > 1 and math.hypot(out[0][0] - out[-1][0], out[0][1] - out[-1][1]) <= tol:
            out.pop()
        ring = out
        if len(ring) < 3:
            return ring
        corners = _corners(ring)
    gaps, crosses = corners
    return [p for p, cross, g0, g1 in zip(ring, crosses, gaps, gaps[1:] + gaps[:1])
            if abs(cross) > tol * (g0 + g1)]


def _convex_ring(ring: list):
    """Validate a ring of at least three (x, y) pairs as a strictly convex polygon.

    Returns ``(vertices, extent, area)``: the CCW vertex list after cleanup at
    ``1e-12 * extent``, the input's bounding-box diagonal, and the shoelace
    area.  Raises ValidationError for a non-finite vertex, a ring that cleans
    up to fewer than 3 vertices, a corner that does not turn left, or an area
    of at most tol**2.  The ring itself is left as it is.  When the cleanup
    drops nothing, the corner crosses and the area taken before it are the
    cleaned ring's.
    """
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in ring):
        raise ValidationError("polygon has non-finite vertices")
    area = _shoelace(ring)
    if area < 0.0:
        ring = ring[::-1]
        area = _shoelace(ring)
    xs, ys = zip(*ring)
    extent = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    tol = 1e-12 * extent
    corners = _corners(ring)
    verts = _clean_ring(ring, tol, corners)
    if len(verts) < 3:
        if not all(map(math.isfinite, corners[1])):
            raise ValidationError("polygon coordinates overflow: a corner cross product is not finite")
        raise ValidationError("polygon degenerates to fewer than 3 vertices after cleanup")
    if len(verts) < len(ring):
        corners = _corners(verts)
        area = _shoelace(verts)
    lowest = min(corners[1])
    if lowest <= 0.0:
        raise ValidationError(f"polygon is not strictly convex (min corner cross {lowest:.3e})")
    if area <= tol * tol:
        raise ValidationError(f"polygon area {area:.3e} is not positive")
    return verts, extent, area


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon with CCW vertices (collinear runs are cleaned up).

    The cleanup tolerance is ``1e-12 * extent``, the vertices' bounding-box
    diagonal.  Validation runs on plain floats (``_convex_ring``), the same
    pass the optimizer runs on each fresh power cell; ``area`` is the value it
    checked.
    """

    vertices: np.ndarray
    extent: float = field(init=False, repr=False, compare=False)
    area: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
            raise ValidationError(f"polygon needs an (n, 2) vertex array with n >= 3, got shape {pts.shape}")
        ring, extent, area = _convex_ring(pts.tolist())
        verts = np.array(ring, dtype=float)
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "area", area)

    @cached_property
    def edge_normals(self):
        """Outward unit normals and line offsets c with x . n <= c inside.

        Computed on first use and kept; the arrays are read-only.
        """
        diffs = _next(self.vertices) - self.vertices
        lengths = np.hypot(diffs[:, 0], diffs[:, 1])
        normals = np.column_stack([diffs[:, 1], -diffs[:, 0]]) / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, self.vertices)
        normals.setflags(write=False)
        offsets.setflags(write=False)
        return normals, offsets

    def contains(self, x, y, tol: float = 0.0):
        """Whether (x, y) lies in the polygon grown by tol.

        Scalars give a bool; arrays of coordinates give a boolean array, one
        half-plane test per point and edge.
        """
        normals, offsets = self.edge_normals
        inside = (np.multiply.outer(x, normals[:, 0]) + np.multiply.outer(y, normals[:, 1])
                  <= offsets + tol).all(axis=-1)
        return inside if inside.ndim else bool(inside)


def regular_polygon(n: int, area: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> ConvexPolygon:
    """Regular n-gon of prescribed area; phase rotates the first vertex."""
    circumradius = math.sqrt(2.0 * area / (n * math.sin(TWO_PI / n)))
    ang = phase + TWO_PI * np.arange(n) / n
    pts = np.column_stack([center[0] + circumradius * np.cos(ang), center[1] + circumradius * np.sin(ang)])
    return ConvexPolygon(pts)


def convex_hull(points) -> np.ndarray:
    """Andrew's monotone chain on plain floats; returns the CCW hull vertices as an (m, 2) array.

    The rows are deduplicated and sorted by (x, y) as float tuples with
    ``sorted(set(...))``, so 0.0 and -0.0 count as one value.  Collinear
    points are dropped from the hull; fewer than 3 distinct rows come back
    sorted.
    """
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float).tolist())))
    return np.array(_hull(pts), dtype=float).reshape(-1, 2)


def _hull(pts: list) -> list:
    """The monotone chain of ``convex_hull`` on sorted distinct (x, y) tuples; fewer than 3 come back as they are."""
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

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def _clip_halfplane(pts: list, nx: float, ny: float, c: float) -> Optional[list]:
    """Clip a convex ring, a list of [x, y], by the half-plane x*nx + y*ny <= c.

    Plain float arithmetic: on rings of a few vertices numpy's cost per call
    outweighs the work.  Returns ``pts`` itself when no vertex is outside and
    None when fewer than 3 vertices remain.  A vertex is inside when its
    ``x*nx + y*ny - c <= 0``, so a NaN there counts as outside: ``sum(d)``
    carries it where ``max(d)`` may skip it.
    """
    d = [x * nx + y * ny - c for x, y in pts]
    if max(d) <= 0.0 and sum(d) <= 0.0:
        return pts
    out = []
    for i in range(-len(pts), 0):  # edge i runs from pts[i] to pts[i + 1], pts[0] last
        di, dj = d[i], d[i + 1]
        if di <= 0.0:
            out.append(pts[i])
            if dj <= 0.0:
                continue
        elif not dj <= 0.0:
            continue
        t = di / (di - dj)
        (xi, yi), (xj, yj) = pts[i], pts[i + 1]
        out.append([xi + t * (xj - xi), yi + t * (yj - yi)])
    return out if len(out) >= 3 else None


def inner_parallel_polygon(p: ConvexPolygon, t: float) -> Optional[ConvexPolygon]:
    """Erosion of a convex polygon: intersect the inward-translated edge lines.

    Returns None once t reaches the inradius: the erosion is empty, its area is
    at most ``(1e-9 * p.extent)**2``, or it cleans up to a segment.
    """
    if not t >= 0.0:  # NaN included
        raise ValidationError(f"offset distance must be nonnegative, got {t}")
    if t == 0.0:
        return p
    normals, offsets = p.edge_normals
    ring = p.vertices.tolist()
    for (nx, ny), c in zip(normals.tolist(), (offsets - t).tolist()):
        ring = _clip_halfplane(ring, nx, ny, c)
        if ring is None:
            return None
    if _shoelace(ring) <= (1e-9 * p.extent) ** 2:
        return None
    try:
        return ConvexPolygon(ring)
    except ValidationError:
        return None


@dataclass(frozen=True)
class CheegerResult:
    """Cheeger constant h, radius r = 1/h, and the Cheeger set on demand.

    The Cheeger set is ``core`` (the inner polygon at offset r, CCW) fattened
    back by r.  Its boundary ``cheeger_set_boundary`` and the per-edge
    ``roles`` (border segments and free corner arcs) are built on first
    access and kept, so a caller that needs only h builds no curve.
    """

    h: float
    r: float
    core: np.ndarray = field(compare=False)
    iterations: int
    residual: float

    @cached_property
    def _cheeger_set(self):
        return _rounded_polygon(self.core, self.r)

    @property
    def cheeger_set_boundary(self) -> ArcCurve:
        return self._cheeger_set[0]

    @property
    def roles(self) -> tuple:
        return self._cheeger_set[1]


def _rounded_polygon(core: np.ndarray, r: float):
    """Minkowski sum of a convex CCW polygon with a radius-r disk, as an ArcCurve of rows."""
    diffs = _next(core) - core
    lengths = np.hypot(diffs[:, 0], diffs[:, 1])
    normals = (np.column_stack([diffs[:, 1], -diffs[:, 0]]) / lengths[:, None]).tolist()
    pts = core.tolist()
    rows = []
    for (x0, y0), (x1, y1), (nx, ny), (mx, my) in zip(pts, pts[1:] + pts[:1], normals,
                                                      normals[1:] + normals[:1]):
        a0 = math.atan2(ny, nx)
        rows += ((x0 + r * nx, y0 + r * ny, x1 + r * nx, y1 + r * ny),
                 (x1, y1, r, a0, _arc_sweep(a0, math.atan2(my, mx), 1)))
    return ArcCurve(rows), (BORDER_PIECE, FREE) * len(pts)


def _edge_lengths(q: list) -> list:
    """Length of edge i, from vertex i to vertex i + 1."""
    return [math.hypot(xb - xa, yb - ya) for (xa, ya), (xb, yb) in zip(q, q[1:] + q[:1])]


def _advance(q: list, k: list, u: list, s: float) -> list:
    """Vertex i moved by s along its velocity ``n_i + k_i u_i``, n_i = (-u_y, u_x)."""
    return [(x + s * (ki * ux - uy), y + s * (ki * uy + ux)) for (x, y), ki, (ux, uy) in zip(q, k, u)]


def _cheeger_loop(rows: list):
    """The quadratic/collapse loop of ``cheeger_convex`` on a CCW strictly convex ring.

    ``rows`` is a list of (x, y) pairs, as ``_convex_ring`` returns them.
    Returns ``(r, s, q, k, u, solves, ox, oy)``: the Cheeger radius r, the
    root s of the last quadratic, that quadratic's inner polygon q (relative
    to the vertex mean (ox, oy)) with its k_i and edge directions u_i, and
    the number of quadratics solved.
    """
    ox = oy = 0.0
    for x, y in rows:
        ox += x
        oy += y
    ox /= len(rows)
    oy /= len(rows)
    q = [(x - ox, y - oy) for x, y in rows]  # relative coordinates keep translates accurate
    lengths = _edge_lengths(q)
    u = [((xb - xa) / length, (yb - ya) / length)  # edge directions, fixed per edge
         for (xa, ya), (xb, yb), length in zip(q, q[1:] + q[:1], lengths)]
    t = 0.0
    solves = 0
    while True:
        solves += 1
        # k_i = tan(phi_i / 2) for the turning angle phi_i; the vertex moves along
        # n_i + k_i u_i.  Both stay accurate at sharp corners.
        k = [math.tan(0.5 * math.atan2(px * uy - py * ux, px * ux + py * uy))
             for (px, py), (ux, uy) in zip(u[-1:] + u[:-1], u)]
        k_sum = per = 0.0
        for ki, length in zip(k, lengths):
            k_sum += ki
            per += length
        a = k_sum - math.pi
        b = per + TWO_PI * t
        c = _shoelace(q) - math.pi * t * t
        disc = b * b - 4.0 * a * c
        s = 2.0 * c / (b + math.sqrt(disc)) if disc >= 0.0 else math.inf
        if len(q) == 3:
            break
        collapse = [length / (k0 + k1) for length, k0, k1 in zip(lengths, k, k[1:] + k[:1])]
        step = min(collapse)
        if s <= step:
            break
        j = collapse.index(step)  # the first edge to collapse at that offset
        t += step
        q = _advance(q, k, u, step)
        del q[j], u[j]
        lengths = _edge_lengths(q)
    return t + s, s, q, k, u, solves, ox, oy


def cheeger_convex(p: ConvexPolygon) -> CheegerResult:
    """Cheeger constant and Cheeger set of a convex polygon, in closed form.

    Kawohl & Lachand-Robert (*Characterization of Cheeger sets for convex
    subsets of the plane*, Pacific J. Math. 225, 2006): r solves
    ``area(inner_parallel(p, r)) = pi*r**2``.  If Q is the inner polygon at
    offset t, the one at t + s has area ``|Q| - Per*s + C*s**2`` until an edge
    collapses, with ``C = sum(k_i)`` and ``k_i = cot(theta_i / 2)`` over Q's
    angles.  So s is the smaller root of ``(C - pi) s**2 - (Per + 2 pi t) s +
    |Q| - pi t**2``, unless edge i collapses first, at ``L_i / (k_i + k_{i+1})``;
    then the vertices move to that offset, the collapsed one is dropped and
    the next quadratic is solved (``_cheeger_loop``).  A triangle reaches its
    root before its inradius, so there are at most n - 2 solves.

    ``iterations`` counts the quadratic solves; ``residual`` is
    ``|area(inner polygon at r) - pi*r**2|``.  Plain float arithmetic: on a
    few vertices numpy's cost per call outweighs the work.
    """
    r, s, q, k, u, solves, ox, oy = _cheeger_loop(p.vertices.tolist())
    ring = _advance(q, k, u, s)
    residual = abs(_shoelace(ring) - math.pi * r * r)
    xs, ys = zip(*ring)
    scale = max(max(xs), -min(xs), max(ys), -min(ys))  # the largest |coordinate|
    core = np.array(_clean_ring(ring, 1e-9 * scale), dtype=float).reshape(-1, 2)
    core += (ox, oy)
    core.setflags(write=False)
    return CheegerResult(1.0 / r, r, core, solves, residual)


# ---------------------------------------------------------------------------
# Arc domains (class A) and the structure report.

@dataclass(frozen=True)
class ArcDomain:
    """Closed labeled boundary with its Cheeger constant h (free-arc radius r = 1/h)."""

    boundary: ArcCurve
    roles: tuple
    h: float

    def __post_init__(self):
        object.__setattr__(self, "roles", tuple(self.roles))
        if not self.boundary.closed:
            raise ValidationError("arc domain boundary must be closed")
        if len(self.roles) != len(self.boundary.rows):
            raise ValidationError(
                f"{len(self.roles)} roles for {len(self.boundary.rows)} edges"
            )
        for role in self.roles:
            if role not in (FREE, INNER_JUNCTION, BORDER_PIECE):
                raise ValidationError(f"unknown role {role!r}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValidationError(f"h must be positive, got {self.h}")

    @property
    def r(self) -> float:
        return 1.0 / self.h

    @property
    def area(self) -> float:
        return signed_area(self.boundary)


def cheeger_domain(p: ConvexPolygon) -> ArcDomain:
    """Cheeger set of a convex polygon packaged as a labeled ArcDomain."""
    res = cheeger_convex(p)
    return ArcDomain(res.cheeger_set_boundary, res.roles, res.h)


MAX_EDGES = 10_000  # resource cap; Definition-level arc counts are unbounded


def maximal_arcs(d: ArcDomain):
    """Cyclic list of (kind, edge_indices): border runs merge, others stand alone."""
    n = len(d.roles)
    arcs = []
    i = 0
    while i < n:
        role = d.roles[i]
        if role == BORDER_PIECE:
            run = [i]
            j = i + 1
            while j < n and d.roles[j] == BORDER_PIECE:
                run.append(j)
                j += 1
            arcs.append(("junction", run))
            i = j
        else:
            kind = "free" if role == FREE else "junction"
            arcs.append((kind, [i]))
            i += 1
    # merge a border run that wraps around the seam
    if (
        len(arcs) > 1
        and d.roles[0] == BORDER_PIECE
        and d.roles[-1] == BORDER_PIECE
        and arcs[0][1][0] == 0
        and arcs[-1][1][-1] == n - 1
    ):
        arcs[0] = ("junction", arcs[-1][1] + arcs[0][1])
        arcs.pop()
    return arcs


def class_a_violations(d: ArcDomain):
    """Structural class-A rule check (no offset computation); returns rule ids."""
    violations = []
    rows, roles = d.boundary.rows, d.roles
    r, h = d.r, d.h
    if len(rows) > MAX_EDGES:
        return ["edge_cap"]

    arcs = maximal_arcs(d)
    if len(arcs) % 2 != 0:
        violations.append("even_arc_count")
    kinds = [kind for kind, _ in arcs]
    if any(kinds[i] == kinds[(i + 1) % len(kinds)] for i in range(len(kinds))) and len(kinds) > 1:
        violations.append("alternation")
    if len(kinds) == 1:
        violations.append("alternation")

    def corner(row):  # a CCW arc of radius r (a row's sweep is never 0)
        return len(row) == 5 and row[4] > 0.0 and has_radius(row[2], r)

    if not all(corner(row) for row, role in zip(rows, roles) if role == FREE):
        violations.append("free_curvature")
    for row, role in zip(rows, roles):
        if role == INNER_JUNCTION and len(row) == 5:
            curv = (1 if row[4] > 0.0 else -1) / row[2]
            if curv > h * (1.0 - CHAIN_TOL):
                violations.append("inner_curvature")
                break
    for kind, run in arcs:
        if kind != "junction" or roles[run[0]] != BORDER_PIECE:
            continue
        # segments at even positions, corner arcs between them, at most 3 segments
        ok = len(run) % 2 == 1 and len(run) <= 5 and all(
            len(rows[idx]) == 4 if pos % 2 == 0 else corner(rows[idx]) for pos, idx in enumerate(run))
        if not ok:
            violations.append("border_structure")
            break

    per = curve_length(d.boundary)
    area = signed_area(d.boundary)
    if area <= 0.0 or abs(h - per / area) > 1e-8 * h:
        violations.append("self_cheeger_ratio")
    return violations


@dataclass(frozen=True)
class StructureReport:
    """Class-A verdict plus the five identity residuals (None when not computable).

    ``representation_residuals`` holds the relative residuals of
    A(inner curve) = pi r^2 and area = r H1(inner curve) + 2 pi r^2; the
    perimeter and area residuals cover the two Steiner formulas; the angle
    rule residual is absolute, in radians.  ``offset`` is the inner offset at
    r, the curve Gamma of the representation identity and of Hales'
    inequality; it is None exactly when ``offset_degenerate`` is reported.
    """

    is_class_A: bool
    violations: tuple
    angle_rule_residual: Optional[float]
    perimeter_residual: Optional[float]
    area_residual: Optional[float]
    representation_residuals: Optional[tuple]
    offset: Optional[OffsetResult]


def _angle_sums(d: ArcDomain):
    theta = alpha = beta = 0.0
    r = d.r
    for row, role in zip(d.boundary.rows, d.roles):
        if len(row) == 4:
            continue
        sweep = abs(row[4])
        if role == FREE or (role == BORDER_PIECE and has_radius(row[2], r)):
            theta += sweep
        elif row[4] < 0.0:
            alpha += sweep
        else:
            beta += sweep
    return theta, alpha, beta


def structure_report(d: ArcDomain) -> StructureReport:
    """Check the class-A rules and evaluate all five boundary identities.

    Failures are reported, never raised; residuals are None when the inner
    offset cannot be formed.
    """
    violations = class_a_violations(d)
    theta, alpha, beta = _angle_sums(d)
    angle_residual = abs(theta + beta - alpha - TWO_PI)
    try:
        off = offset_inner(d.boundary, d.r, d.roles)
    except ValidationError:
        return StructureReport(
            False, tuple(violations + ["offset_degenerate"]),
            angle_residual, None, None, None, None,
        )
    r = d.r
    per_outer = curve_length(d.boundary)
    per_inner = curve_length(off.curve)
    area = signed_area(d.boundary)
    a_inner = signed_area(off.curve)
    pi_r2 = math.pi * r * r
    perimeter_residual = abs(per_outer - per_inner - TWO_PI * r) / per_outer
    area_residual = abs(area - a_inner - r * per_inner - pi_r2) / abs(area)
    rep = (
        abs(a_inner - pi_r2) / pi_r2,
        abs(area - r * per_inner - 2.0 * pi_r2) / abs(area),
    )
    return StructureReport(
        not violations, tuple(violations), angle_residual,
        perimeter_residual, area_residual, rep, off,
    )


def inner_cheeger_boundary(d: ArcDomain) -> OffsetResult:
    """Inner parallel curve at distance r = 1/h, oriented like the boundary.

    Raises ValidationError when the domain fails class-A validation.
    """
    violations = class_a_violations(d)
    if violations:
        raise ValidationError(f"domain is not class A: {', '.join(violations)}")
    return offset_inner(d.boundary, d.r, d.roles)


# ---------------------------------------------------------------------------
# Randomized fixtures: convex polygons and synthetic class-A domains.

def random_convex_polygon(rng: np.random.Generator, n_min: int = 3, n_max: int = 12) -> ConvexPolygon:
    """Random strictly convex polygon with n_min..n_max vertices (hull of ring points).

    Each draw takes n, then n sorted angles, then n radii, as
    ``rng.uniform`` arrays.  A draw of more than 3 angles with a gap below
    0.08, a hull of the wrong size, or one that fails validation is drawn
    again, up to 200 times.  ``np.cos`` and ``np.sin`` run on the whole
    angle array; the gap test and the hull run on floats (``_random_ring``).
    """
    return _random_ring(rng, n_min, n_max, ConvexPolygon)


def _random_ring(rng: np.random.Generator, n_min: int, n_max: int, build):
    """``build(hull)`` of the first draw whose hull ``build`` accepts, as ``random_convex_polygon``.

    ``build`` raises ValidationError to reject a hull: ``ConvexPolygon``, or
    ``_convex_ring`` for the plain ``(vertices, extent, area)``.
    """
    for _ in range(200):
        n = int(rng.integers(n_min, n_max + 1))
        ang = rng.uniform(0.0, TWO_PI, n)
        ang.sort()
        a = ang.tolist()
        if n > 3 and min(y - x for x, y in zip(a, a[1:] + [a[0] + TWO_PI])) < 0.08:
            continue
        rad = rng.uniform(0.5, 1.5, n)
        hull = _hull(sorted(set(zip((rad * np.cos(ang)).tolist(), (rad * np.sin(ang)).tolist()))))
        if not n_min <= len(hull) <= n_max:
            continue
        try:
            return build(hull)
        except ValidationError:
            continue
    raise ValidationError("random polygon generation failed")


def _tangent(row, t: float) -> float:
    """Direction angle of the edge row's tangent at t."""
    if len(row) == 4:
        return math.atan2(row[3] - row[1], row[2] - row[0])
    return row[3] + row[4] * t + (1 if row[4] > 0.0 else -1) * math.pi / 2.0


def _outward_normal(row, t: float) -> float:
    """Angle of the edge row's outward unit normal at t, for a CCW curve."""
    if len(row) == 4:
        return math.atan2(-(row[2] - row[0]), row[3] - row[1])
    a = row[3] + row[4] * t
    return a if row[4] > 0.0 else a + math.pi


def _inner_curve_exterior_angles(rows) -> list:
    """Exterior angle at each vertex between consecutive edge tangents, in (-pi, pi]."""
    out = []
    for row, nxt in zip(rows, rows[1:] + rows[:1]):
        gap = (_tangent(nxt, 0.0) - _tangent(row, 1.0)) % TWO_PI
        if gap > math.pi:
            gap -= TWO_PI
        out.append(gap)
    return out


def _domain_rows(inner: list, r: float):
    """Rows and roles of the outward parallel body of an inner curve's rows.

    Junction edges are the inner edges pushed outward by r; every convex kink
    becomes a free arc of radius r.  Because the inner curve has area pi*r**2
    by construction, the resulting domain is self-Cheeger with h = 1/r.
    Raises ValidationError for a concave arc of radius at most r.
    """
    rows = []
    roles = []
    for row, nxt in zip(inner, inner[1:] + inner[:1]):
        if len(row) == 4:
            na = _outward_normal(row, 0.0)
            nx, ny = math.cos(na), math.sin(na)
            x0, y0, x1, y1 = row
            rows.append((x0 + r * nx, y0 + r * ny, x1 + r * nx, y1 + r * ny))
        else:
            cx, cy, radius, a0, sweep = row
            turning = 1 if sweep > 0.0 else -1
            if turning == -1 and radius <= r:
                raise ValidationError("concave inner radius must exceed r")
            rows.append((cx, cy, radius + turning * r, a0, sweep))
        roles.append(INNER_JUNCTION)
        a0 = _outward_normal(row, 1.0)
        sweep = (_outward_normal(nxt, 0.0) - a0) % TWO_PI
        if sweep > 1e-9:
            rows.append((*edge_point(row, 1.0), r, a0, sweep))
            roles.append(FREE)
    return rows, tuple(roles)


def random_class_a_domain(seed) -> ArcDomain:
    """Random self-Cheeger class-A domain built from a normalized inner curve.

    Starts from a random convex polygon with 4 to 9 vertices, bows some edges
    into shallow arcs (both signs of curvature), rescales the curve to enclose
    area pi (so r = 1), and fattens it outward by r.  A random rigid motion
    and dilation are applied at the end.

    The stages run on edge rows: the polygon is ``_random_ring``'s
    plain vertex list, and only the returned boundary, a curve of rows, is
    checked, once, when it is built; a draw whose rows fail there or in
    ``_domain_rows`` is redrawn.  No ``Segment`` or ``Arc`` is built.  The
    numbers are those of one ``rng.uniform`` call per scalar draw: a scalar
    draw is ``lo + (hi - lo) * rng.random()``, the formula of
    ``Generator.uniform``, and the four motion draws are one
    ``rng.random(4)``.  Edge lengths come from one ``np.hypot`` call, the C
    library's, which ``math.hypot`` does not always match to the bit.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        verts, _, area = _random_ring(rng, 4, 9, _convex_ring)
        scale = math.sqrt(math.pi / area)
        pts = [(x * scale, y * scale) for x, y in verts]
        ends = pts[1:] + pts[:1]
        lengths = np.hypot([bx - ax for (ax, _), (bx, _) in zip(pts, ends)],
                           [by - ay for (_, ay), (_, by) in zip(pts, ends)]).tolist()
        rows = []
        for (ax, ay), (bx, by), length in zip(pts, ends, lengths):
            bow = 0.0
            if length > 1.0 and rng.random() < 0.6:
                bow = (-0.18 + 0.36 * rng.random()) * length
            if abs(bow) < 0.02 * length:
                rows.append((ax, ay, bx, by))
                continue
            s = abs(bow)
            radius = (length * length / 4.0 + s * s) / (2.0 * s)
            mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
            lx, ly = -(by - ay) / length, (bx - ax) / length  # interior side
            if bow > 0.0:  # outward bulge, convex arc
                cx, cy = mx + (radius - s) * lx, my + (radius - s) * ly
                turning = 1
            else:  # inward bulge, concave arc
                if radius < 1.4:
                    rows.append((ax, ay, bx, by))
                    continue
                cx, cy = mx - (radius - s) * lx, my - (radius - s) * ly
                turning = -1
            a0 = math.atan2(ay - cy, ax - cx)
            a1 = math.atan2(by - cy, bx - cx)
            rows.append((cx, cy, radius, a0, _arc_sweep(a0, a1, turning)))
        if min(_inner_curve_exterior_angles(rows)) < 0.05:
            continue
        area = _rows_area(rows)
        if area <= 0.0:
            continue
        rows = _transform_rows(rows, scale=math.sqrt(math.pi / area))
        if any(len(row) == 5 and row[4] < 0.0 and row[2] < 1.05 for row in rows):  # concave arcs
            continue
        try:
            rows, roles = _domain_rows(rows, 1.0)
            lam, angle, dx, dy = rng.random(4).tolist()  # uniform on [0.5, 2), [0, 2 pi), [-3, 3)
            lam = 0.5 + 1.5 * lam
            rows = _transform_rows(rows, TWO_PI * angle, -3.0 + 6.0 * dx, -3.0 + 6.0 * dy, lam)
            boundary = ArcCurve(rows)
        except ValidationError:
            continue
        return ArcDomain(boundary, roles, 1.0 / lam)
    raise ValidationError("random class-A domain generation failed")


# ---------------------------------------------------------------------------
# JSON encodings.

def polygon_to_dict(p: ConvexPolygon) -> dict:
    return {"vertices": [[float(x), float(y)] for x, y in p.vertices]}


def polygon_from_dict(d: dict) -> ConvexPolygon:
    jsonio.require_keys(d, ["vertices"])
    return ConvexPolygon(jsonio.numbers(d["vertices"], "vertex coordinate"))


def domain_to_dict(d: ArcDomain) -> dict:
    return {"boundary": curve_to_dict(d.boundary), "roles": list(d.roles), "h": d.h}


def domain_from_dict(obj: dict) -> ArcDomain:
    jsonio.require_keys(obj, ["boundary", "roles", "h"])
    boundary = curve_from_dict(obj["boundary"])
    roles = tuple(jsonio.string(r, "role") for r in jsonio.array(obj["roles"], "roles"))
    return ArcDomain(boundary, roles, float(jsonio.number(obj["h"], "h")))
