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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .arc_geometry import (
    Arc,
    ArcCurve,
    BORDER_PIECE,
    FREE,
    INNER_JUNCTION,
    OffsetResult,
    Point,
    Segment,
    curve_length,
    has_radius,
    offset_inner,
    signed_area,
    transform_curve,
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


def _prev(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, 1, axis=0)``: row i holds row i - 1, cyclically."""
    return np.concatenate((a[-1:], a[:-1]))


def _shoelace(pts: np.ndarray) -> float:
    x, y = (pts - pts[0]).T
    return 0.5 * float(np.dot(x, _next(y)) - np.dot(y, _next(x)))


def _clean_ring(pts: np.ndarray, tol: float) -> np.ndarray:
    """Drop duplicate and collinear vertices from a closed ring (always a new array).

    A vertex within tol of the last kept one is dropped, and so are trailing
    vertices within tol of the first; then every vertex whose corner cross
    product is at most tol times its two edge lengths.
    """
    step = pts - _prev(pts)  # step[i] = pts[i] - pts[i - 1]
    gap = np.hypot(step[:, 0], step[:, 1])
    if len(pts) < 3 or not (gap > tol).all():
        out = []
        for p in pts:
            if not out or np.hypot(*(p - out[-1])) > tol:
                out.append(p)
        while len(out) > 1 and np.hypot(*(out[0] - out[-1])) <= tol:
            out.pop()
        pts = np.array(out)
        if len(pts) < 3:
            return pts
        step = pts - _prev(pts)
        gap = np.hypot(step[:, 0], step[:, 1])
    ahead = _next(step)
    cross = step[:, 0] * ahead[:, 1] - step[:, 1] * ahead[:, 0]
    return pts[np.abs(cross) > tol * (gap + _next(gap))]


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon with CCW vertices (collinear runs are cleaned up)."""

    vertices: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
            raise ValidationError(f"polygon needs an (n, 2) vertex array with n >= 3, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValidationError("polygon has non-finite vertices")
        if _shoelace(pts) < 0.0:
            pts = pts[::-1]
        scale = max(1.0, float(np.abs(pts).max()))
        pts = _clean_ring(pts, 1e-12 * scale)
        if len(pts) < 3:
            raise ValidationError("polygon degenerates to fewer than 3 vertices after cleanup")
        nxt = _next(pts)
        prv = _prev(pts)
        cross = (pts[:, 0] - prv[:, 0]) * (nxt[:, 1] - pts[:, 1]) - (
            pts[:, 1] - prv[:, 1]
        ) * (nxt[:, 0] - pts[:, 0])
        if (cross <= 0.0).any():
            raise ValidationError(f"polygon is not strictly convex (min corner cross {cross.min():.3e})")
        area = _shoelace(pts)
        if area <= (1e-12 * scale) ** 2:
            raise ValidationError(f"polygon area {area:.3e} is not positive")
        pts.setflags(write=False)
        object.__setattr__(self, "vertices", pts)

    @property
    def area(self) -> float:
        return _shoelace(self.vertices)

    @property
    def perimeter(self) -> float:
        diffs = _next(self.vertices) - self.vertices
        return float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())

    @cached_property
    def _halfplanes(self):
        diffs = _next(self.vertices) - self.vertices
        lengths = np.hypot(diffs[:, 0], diffs[:, 1])
        normals = np.column_stack([diffs[:, 1], -diffs[:, 0]]) / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, self.vertices)
        normals.setflags(write=False)
        offsets.setflags(write=False)
        return normals, offsets

    def edge_normals(self):
        """Outward unit normals and line offsets c with x . n <= c inside.

        Computed on first use and kept; the arrays are read-only.
        """
        return self._halfplanes

    def contains(self, x, y, tol: float = 0.0):
        """Whether (x, y) lies in the polygon grown by tol.

        Scalars give a bool; arrays of coordinates give a boolean array, one
        half-plane test per point and edge.
        """
        normals, offsets = self.edge_normals()
        inside = (np.multiply.outer(x, normals[:, 0]) + np.multiply.outer(y, normals[:, 1])
                  <= offsets + tol).all(axis=-1)
        return inside if inside.ndim else bool(inside)

    def scaled(self, lam: float) -> "ConvexPolygon":
        return ConvexPolygon(self.vertices * lam)


def regular_polygon(n: int, area: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> ConvexPolygon:
    """Regular n-gon of prescribed area; phase rotates the first vertex."""
    circumradius = math.sqrt(2.0 * area / (n * math.sin(TWO_PI / n)))
    ang = phase + TWO_PI * np.arange(n) / n
    pts = np.column_stack([center[0] + circumradius * np.cos(ang), center[1] + circumradius * np.sin(ang)])
    return ConvexPolygon(pts)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns CCW hull vertices."""
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


def _clip_halfplane(pts: list, nx: float, ny: float, c: float) -> Optional[list]:
    """Clip a convex ring, a list of [x, y], by the half-plane x*nx + y*ny <= c.

    Plain float arithmetic: on rings of a few vertices numpy's cost per call
    outweighs the work.  Returns ``pts`` itself when no vertex is outside and
    None when fewer than 3 vertices remain.
    """
    d = [x * nx + y * ny - c for x, y in pts]
    inside = [v <= 0.0 for v in d]
    if all(inside):
        return pts
    out = []
    n = len(pts)
    for i in range(n):
        j = (i + 1) % n
        if inside[i]:
            out.append(pts[i])
            if inside[j]:
                continue
        elif not inside[j]:
            continue
        t = d[i] / (d[i] - d[j])
        (xi, yi), (xj, yj) = pts[i], pts[j]
        out.append([xi + t * (xj - xi), yi + t * (yj - yi)])
    return out if len(out) >= 3 else None


def clip_convex(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> Optional[np.ndarray]:
    """Clip a convex CCW polygon by the half-planes x . n_i <= c_i."""
    ring = pts.tolist()
    for (nx, ny), c in zip(normals.tolist(), offsets.tolist()):
        ring = _clip_halfplane(ring, nx, ny, c)
        if ring is None:
            return None
    return np.array(ring)


def inner_parallel_polygon(p: ConvexPolygon, t: float) -> Optional[ConvexPolygon]:
    """Erosion of a convex polygon: intersect the inward-translated edge lines.

    Returns None once t reaches the inradius (the erosion is empty or a point).
    """
    if t < 0.0:
        raise ValidationError(f"offset distance must be nonnegative, got {t}")
    if t == 0.0:
        return p
    normals, offsets = p.edge_normals()
    pts = clip_convex(p.vertices, normals, offsets - t)
    if pts is None:
        return None
    scale = max(1.0, float(np.abs(p.vertices).max()))
    pts = _clean_ring(pts, 1e-12 * scale)
    if len(pts) < 3 or _shoelace(pts) <= (1e-9 * scale) ** 2:
        return None
    return ConvexPolygon(pts)


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
    """Minkowski sum of a convex CCW polygon with a radius-r disk, as an ArcCurve."""
    n = len(core)
    diffs = _next(core) - core
    lengths = np.hypot(diffs[:, 0], diffs[:, 1])
    normals = np.column_stack([diffs[:, 1], -diffs[:, 0]]) / lengths[:, None]
    edges = []
    roles = []
    for i in range(n):
        j = (i + 1) % n
        ni = normals[i]
        edges.append(
            Segment(
                Point(core[i, 0] + r * ni[0], core[i, 1] + r * ni[1]),
                Point(core[j, 0] + r * ni[0], core[j, 1] + r * ni[1]),
            )
        )
        roles.append(BORDER_PIECE)
        a0 = math.atan2(ni[1], ni[0])
        a1 = math.atan2(normals[j][1], normals[j][0])
        edges.append(Arc(Point(core[j, 0], core[j, 1]), r, a0, a1, 1))
        roles.append(FREE)
    return ArcCurve(tuple(edges), closed=True), tuple(roles)


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
    the next quadratic is solved.  A triangle reaches its root before its
    inradius, so there are at most n - 2 solves.

    ``iterations`` counts the quadratic solves; ``residual`` is
    ``|area(inner polygon at r) - pi*r**2|``.
    """
    origin = p.vertices.mean(axis=0)  # relative coordinates keep translates accurate
    q = p.vertices - origin
    d = _next(q) - q
    u = d / np.hypot(d[:, 0], d[:, 1])[:, None]  # edge directions, fixed per edge
    t = 0.0
    for solves in range(1, len(q) - 1):
        prev = _prev(u)
        # k_i = tan(phi_i / 2) for the turning angle phi_i; the vertex moves along
        # n_i + k_i u_i.  Both stay accurate at sharp corners.
        k = np.tan(0.5 * np.arctan2(prev[:, 0] * u[:, 1] - prev[:, 1] * u[:, 0],
                                    np.einsum("ij,ij->i", prev, u)))
        velocity = np.column_stack([-u[:, 1], u[:, 0]]) + k[:, None] * u
        d = _next(q) - q
        lengths = np.hypot(d[:, 0], d[:, 1])
        a = float(k.sum()) - math.pi
        b = float(lengths.sum()) + TWO_PI * t
        c = _shoelace(q) - math.pi * t * t
        disc = b * b - 4.0 * a * c
        s = 2.0 * c / (b + math.sqrt(disc)) if disc >= 0.0 else math.inf
        collapse = lengths / (k + _next(k))
        j = int(np.argmin(collapse))
        if len(q) == 3 or s <= collapse[j]:
            break
        t += float(collapse[j])
        q = np.delete(q + collapse[j] * velocity, j, axis=0)
        u = np.delete(u, j, axis=0)

    r = t + s
    ring = q + s * velocity
    residual = abs(_shoelace(ring) - math.pi * r * r)
    core = _clean_ring(ring, 1e-9 * float(np.abs(ring).max())) + origin
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
        if len(self.roles) != len(self.boundary.edges):
            raise ValidationError(
                f"{len(self.roles)} roles for {len(self.boundary.edges)} edges"
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

    @property
    def perimeter(self) -> float:
        return curve_length(self.boundary)


def cheeger_domain(p: ConvexPolygon) -> ArcDomain:
    """Cheeger set of a convex polygon packaged as a labeled ArcDomain."""
    res = cheeger_convex(p)
    return ArcDomain(res.cheeger_set_boundary, res.roles, res.h)


MAX_EDGES = 10_000  # resource cap; Definition-level arc counts are unbounded

_CURV_TOL = 1e-9  # relative tolerance for curvature comparisons against h


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
    edges, roles = d.boundary.edges, d.roles
    r, h = d.r, d.h
    if len(edges) > MAX_EDGES:
        return ["edge_cap"]

    arcs = maximal_arcs(d)
    if len(arcs) % 2 != 0:
        violations.append("even_arc_count")
    kinds = [kind for kind, _ in arcs]
    if any(kinds[i] == kinds[(i + 1) % len(kinds)] for i in range(len(kinds))) and len(kinds) > 1:
        violations.append("alternation")
    if len(kinds) == 1:
        violations.append("alternation")

    for i, (e, role) in enumerate(zip(edges, roles)):
        if role == FREE:
            if not isinstance(e, Arc) or e.turning != 1 or abs(e.radius - r) > _CURV_TOL * r:
                violations.append("free_curvature")
                break
    for e, role in zip(edges, roles):
        if role == INNER_JUNCTION and isinstance(e, Arc):
            curv = e.turning / e.radius
            if curv > h * (1.0 - _CURV_TOL):
                violations.append("inner_curvature")
                break
    for kind, run in arcs:
        if kind != "junction" or roles[run[0]] != BORDER_PIECE:
            continue
        ok = isinstance(edges[run[0]], Segment) and isinstance(edges[run[-1]], Segment)
        seg_count = 0
        for pos, idx in enumerate(run):
            e = edges[idx]
            if pos % 2 == 0:
                if not isinstance(e, Segment):
                    ok = False
                else:
                    seg_count += 1
            else:
                if not isinstance(e, Arc) or e.turning != 1 or abs(e.radius - r) > _CURV_TOL * r:
                    ok = False
        if seg_count > 3:
            ok = False
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
    for e, role in zip(d.boundary.edges, d.roles):
        if not isinstance(e, Arc):
            continue
        if role == FREE or (role == BORDER_PIECE and has_radius(e, r)):
            theta += e.sweep
        elif e.turning == -1:
            alpha += e.sweep
        else:
            beta += e.sweep
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
    """Random strictly convex polygon with n_min..n_max vertices (hull of ring points)."""
    for _ in range(200):
        n = int(rng.integers(n_min, n_max + 1))
        ang = np.sort(rng.uniform(0.0, TWO_PI, n))
        if n > 3 and np.diff(np.concatenate([ang, [ang[0] + TWO_PI]])).min() < 0.08:
            continue
        rad = rng.uniform(0.5, 1.5, n)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        hull = convex_hull(pts)
        if not n_min <= len(hull) <= n_max:
            continue
        try:
            return ConvexPolygon(hull)
        except ValidationError:
            continue
    raise ValidationError("random polygon generation failed")


def _inner_curve_exterior_angles(edges):
    """Exterior angle at each vertex between consecutive edge tangents."""
    def end_tangent(e):
        if isinstance(e, Segment):
            return math.atan2(e.end.y - e.start.y, e.end.x - e.start.x)
        a = e.angle_at(1.0)
        return a + e.turning * math.pi / 2.0

    def start_tangent(e):
        if isinstance(e, Segment):
            return math.atan2(e.end.y - e.start.y, e.end.x - e.start.x)
        a = e.angle_at(0.0)
        return a + e.turning * math.pi / 2.0

    n = len(edges)
    out = []
    for i in range(n):
        gap = (start_tangent(edges[(i + 1) % n]) - end_tangent(edges[i])) % TWO_PI
        if gap > math.pi:
            gap -= TWO_PI
        out.append(gap)
    return out


def _domain_from_inner_curve(inner: ArcCurve, r: float) -> ArcDomain:
    """Outward parallel body of a piecewise curve: the generic class-A construction.

    Junction edges are the inner edges pushed outward by r; every convex kink
    becomes a free arc of radius r.  Because the inner curve has area pi*r**2
    by construction, the resulting domain is self-Cheeger with h = 1/r.
    """
    def outward_normal_angle(e, t):
        if isinstance(e, Segment):
            return math.atan2(-(e.end.x - e.start.x), e.end.y - e.start.y)
        a = e.angle_at(t)
        return a if e.turning == 1 else a + math.pi

    edges = []
    roles = []
    n = len(inner.edges)
    for i, e in enumerate(inner.edges):
        if isinstance(e, Segment):
            na = outward_normal_angle(e, 0.0)
            nx, ny = math.cos(na), math.sin(na)
            edges.append(
                Segment(
                    Point(e.start.x + r * nx, e.start.y + r * ny),
                    Point(e.end.x + r * nx, e.end.y + r * ny),
                )
            )
        elif e.turning == 1:
            edges.append(Arc(e.center, e.radius + r, e.start_angle, e.end_angle, 1))
        else:
            if e.radius <= r:
                raise ValidationError("concave inner radius must exceed r")
            edges.append(Arc(e.center, e.radius - r, e.start_angle, e.end_angle, -1))
        roles.append(INNER_JUNCTION)
        nxt = inner.edges[(i + 1) % n]
        a0 = outward_normal_angle(e, 1.0)
        a1 = outward_normal_angle(nxt, 0.0)
        if ((a1 - a0) % TWO_PI) > 1e-9:
            edges.append(Arc(e.end, r, a0, a1, 1))
            roles.append(FREE)
    return ArcDomain(ArcCurve(tuple(edges), closed=True), tuple(roles), 1.0 / r)


def random_class_a_domain(seed, curved: bool = True, n_min: int = 4, n_max: int = 9) -> ArcDomain:
    """Random self-Cheeger class-A domain built from a normalized inner curve.

    Starts from a random convex polygon, optionally bows some edges into
    shallow arcs (both signs of curvature), rescales the curve to enclose area
    pi (so r = 1), and fattens it outward by r.  A random rigid motion and
    dilation are applied at the end.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        poly = random_convex_polygon(rng, n_min, n_max)
        pts = poly.vertices * math.sqrt(math.pi / poly.area)
        n = len(pts)
        edges = []
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            length = float(np.hypot(*(b - a)))
            bow = 0.0
            if curved and length > 1.0 and rng.random() < 0.6:
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
            edges.append(Arc(Point(*center), radius, a0, a1, turning))
        try:
            inner = ArcCurve(tuple(edges), closed=True)
        except ValidationError:
            continue
        if min(_inner_curve_exterior_angles(edges)) < 0.05:
            continue
        area = signed_area(inner)
        if area <= 0.0:
            continue
        inner = transform_curve(inner, scale=math.sqrt(math.pi / area))
        if any(
            isinstance(e, Arc) and e.turning == -1 and e.radius < 1.05
            for e in inner.edges
        ):
            continue
        try:
            d = _domain_from_inner_curve(inner, 1.0)
        except ValidationError:
            continue
        lam = float(rng.uniform(0.5, 2.0))
        moved = transform_curve(
            d.boundary,
            angle=float(rng.uniform(0.0, TWO_PI)),
            dx=float(rng.uniform(-3.0, 3.0)),
            dy=float(rng.uniform(-3.0, 3.0)),
            scale=lam,
        )
        return ArcDomain(moved, d.roles, d.h / lam)
    raise ValidationError("random class-A domain generation failed")


# ---------------------------------------------------------------------------
# JSON encodings.

def polygon_to_dict(p: ConvexPolygon) -> dict:
    return {"vertices": [[float(x), float(y)] for x, y in p.vertices]}


def polygon_from_dict(d: dict) -> ConvexPolygon:
    try:
        return ConvexPolygon(np.asarray(d["vertices"], dtype=float))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed polygon object: {exc}") from exc


def domain_to_dict(d: ArcDomain) -> dict:
    from .arc_geometry import curve_to_dict

    return {"boundary": curve_to_dict(d.boundary), "roles": list(d.roles), "h": d.h}


def domain_from_dict(obj: dict) -> ArcDomain:
    from .arc_geometry import curve_from_dict

    try:
        return ArcDomain(curve_from_dict(obj["boundary"]), tuple(obj["roles"]), float(obj["h"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed domain object: {exc}") from exc
