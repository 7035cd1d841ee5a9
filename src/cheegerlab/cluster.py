"""Clusters of arc domains in a container, their canonical graph, and the
hexagonal lower-bound certificate.

A cluster is its container and its cells; nothing else is input.  The
canonical graph has one vertex per cell plus one for the exterior, and it is
read off the cells' geometry: every inner junction arc, found shared with
another cell's, contributes an inner edge and every border junction arc an
outer edge, so ``2 E_in + E_out`` equals the total junction-arc count.
Euler's formula with at-least-triangular faces yields the counting bound
``sum Lambda_j + E_out + 6 <= 6k``.

The certificate chains, per cell, the representation identity (squared) into
``h*^2 |cell| >= h* H1(inner curve) + 2 pi``, sums over cells, invokes the
hexagonal inequality on the inner curves, bounds the empty chamber by the
disk-chain estimates, and compares ``(|T|/k) h*^2`` against
``pi + 2 sqrt(3) + 2 sqrt(pi) 12**(1/4)``, the square of the hexagon constant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from . import jsonio
from .arc_geometry import (
    ArcCurve,
    BORDER_PIECE,
    CHAIN_TOL,
    INNER_JUNCTION,
    Point,
    _arc_overlap,
    _edge_box,
    _edge_crossing,
    _edge_support,
    curve_length,
    edge_point,
    locate_on_edge,
    winding_number,
)
from .cheeger import (
    ArcDomain,
    ConvexPolygon,
    StructureReport,
    _tangent,
    cheeger_convex,
    convex_hull,
    domain_from_dict,
    domain_to_dict,
    hexagon_constant,
    maximal_arcs,
    polygon_from_dict,
    polygon_to_dict,
    regular_polygon,
    structure_report,
)
from .chamber_lemmas import reference_areas
from .errors import ValidationError
from .hales_deficit import DeficitReport, hales_check, place_nodes

TWO_PI = 2.0 * math.pi

#: square of the hexagon constant, the right-hand side of the final bound
HEX_SQUARED = math.pi + 2.0 * math.sqrt(3.0) + 2.0 * math.sqrt(math.pi) * 12.0 ** 0.25


def border_runs(d: ArcDomain):
    """Edge-index runs of the maximal border junction arcs of a domain."""
    return [idx for kind, idx in maximal_arcs(d)
            if kind == "junction" and d.roles[idx[0]] == BORDER_PIECE]


def _edges_coincide(a: tuple, b: tuple, tol: float) -> bool:
    """Whether two edges, each (row, start point, end point), are one edge run
    both ways, to ``tol``: shared arcs are traversed in opposite directions
    by the two cells."""
    (r1, s1, e1), (r2, s2, e2) = a, b
    if len(r1) != len(r2) or math.dist(s1, e2) > tol or math.dist(e1, s2) > tol:
        return False
    if len(r1) == 5:  # the same circle, turned the other way
        return (math.hypot(r1[0] - r2[0], r1[1] - r2[1]) <= tol and abs(r1[2] - r2[2]) <= tol
                and (r1[4] > 0.0) != (r2[4] > 0.0))
    return True


@dataclass(frozen=True)
class Cluster:
    """Cells inside a container, checked to lie in it without overlapping.

    Which cells share an arc, and which arcs lie on the border, is read off
    the cells' edge roles and geometry by ``canonical_graph``.
    ``container_area`` defaults to the polygon area but can be overridden for
    non-convex outlines (a k-triangle stores its convex hull as the polygon
    and the exact union area here).
    """

    container: ConvexPolygon
    cells: tuple
    container_area: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if self.container_area is None:
            object.__setattr__(self, "container_area", self.container.area)
        if not (math.isfinite(self.container_area) and self.container_area > 0.0):
            raise ValidationError(f"container area must be finite and positive, got {self.container_area}")
        if not self.cells:
            raise ValidationError("cluster needs at least one cell")
        edge_boxes = [tuple(map(_edge_box, c.boundary.rows)) for c in self.cells]
        boxes = [tuple(f(side) for f, side in zip((min, min, max, max), zip(*bs))) for bs in edge_boxes]
        self._check_containment(boxes)
        self._check_disjointness(edge_boxes, boxes)

    @property
    def k(self) -> int:
        return len(self.cells)

    def _check_containment(self, boxes):
        """No edge reaches more than ``1e-6 * extent`` past a container side, by
        its support along the side's outward normal (``_edge_support``); the
        error names the first such cell and its farthest point past that side."""
        tol = 1e-6 * self.container.extent
        sides = [(*n, *o) for n, o in zip(self.container.edge_normals[0].tolist(), self.container.vertices.tolist())]
        for j, (cell, (x0, y0, x1, y1)) in enumerate(zip(self.cells, boxes)):
            for nx, ny, ox, oy in sides:
                if max((x0 - ox) * nx, (x1 - ox) * nx) + max((y0 - oy) * ny, (y1 - oy) * ny) <= tol:
                    continue
                reach, x, y = max(_edge_support(row, nx, ny, ox, oy) for row in cell.boundary.rows)
                if reach > tol:
                    raise ValidationError(f"cell {j} leaves the container near ({x:.6g}, {y:.6g})")

    def _check_disjointness(self, edge_boxes, boxes):
        """No two cells whose boxes meet overlap (``_cell_overlap``); the error
        names the first overlapping pair (i, j), i < j, in cell order."""
        cells = [(c.boundary, box, edges, _corners(c.boundary.rows))
                 for c, box, edges in zip(self.cells, boxes, edge_boxes)]
        hits = [(i, j, *p) for i, j in _box_pairs(boxes) if (p := _cell_overlap(cells[i], cells[j])) is not None]
        if hits:
            i, j, x, y = min(hits)
            raise ValidationError(f"cells {i} and {j} overlap near ({x:.6g}, {y:.6g})")


def _meet(a, b) -> bool:
    """Whether two (xmin, ymin, xmax, ymax) boxes meet."""
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _box_pairs(boxes):
    """The pairs (i, j), i < j, whose boxes meet, from a sweep over their x-intervals."""
    active = []
    for j in sorted(range(len(boxes)), key=lambda j: boxes[j][0]):
        active = [i for i in active if boxes[i][2] >= boxes[j][0]]
        yield from ((min(i, j), max(i, j)) for i in active if _meet(boxes[i], boxes[j]))
        active.append(j)


def _holds(box, x: float, y: float, pad: float) -> bool:
    """Whether the box grown by pad holds (x, y)."""
    return box[0] - pad <= x <= box[2] + pad and box[1] - pad <= y <= box[3] + pad


def _corners(rows) -> list:
    """(x, y, start, size, radius) at the start of each edge: the vertex, the
    counterclockwise interval of directions into the cell there, and the
    smaller radius of the two edges (inf for segments)."""
    return [(*edge_point(row, 0.0), start, (_tangent(prev, 1.0) + math.pi - start) % TWO_PI,
             min((e[2] for e in (prev, row) if len(e) == 5), default=math.inf))
            for prev, row in zip(rows[-1:] + rows[:-1], rows) for start in (_tangent(row, 0.0),)]


def _cell_overlap(a, b):
    """A point where the interiors of two cells overlap, or None.

    A cell comes as its boundary, box, edge boxes and ``_corners``; the pad is
    ten times the larger curve tolerance.  In order: two edges cross
    (``_edge_crossing``); at a vertex within the pad of the other cell, the
    directions into the two (the other's at its vertex there, or left of its
    edge) overlap by over ``10 * CHAIN_TOL + 2 sqrt(2 pad / R)`` radians, R the
    least radius there; or a cell boxed within the other has its first vertex
    off the other boundary inside it.
    """
    (ca, ba, ea, _), (cb, bb, eb, _) = a, b
    pad = 10.0 * max(ca.tolerance, cb.tolerance)
    near = [(row, box) for row, box in zip(cb.rows, eb) if _meet(box, ba)]
    for row, box in zip(ca.rows, ea):
        for other, other_box in near:
            if _meet(box, other_box) and (p := _edge_crossing(row, other, pad)) is not None:
                return p
    for (_, ib, _, corners), (outer, ob, eo, other_corners) in ((a, b), (b, a)):
        nested = _holds(ob, ib[0], ib[1], pad) and _holds(ob, ib[2], ib[3], pad)
        for x, y, start, size, radius in corners:
            if not _holds(ob, x, y, pad):
                continue
            there = next((c[2:] for c in other_corners if math.hypot(x - c[0], y - c[1]) <= pad), None)
            for row, box in zip(outer.rows, eo):
                t, dist = locate_on_edge(x, y, row) if there is None and _holds(box, x, y, pad) else (0.0, math.inf)
                if dist <= pad:
                    there = _tangent(row, t), math.pi, row[2] if len(row) == 5 else math.inf
            if there is not None:
                lo, hi = _arc_overlap(start, size, *there[:2])
                if hi - lo > 10.0 * CHAIN_TOL + 2.0 * math.sqrt(2.0 * pad / min(radius, there[2])):
                    return x, y
            elif nested:
                nested = False  # the boundaries do not cross, so one vertex decides
                if winding_number(outer, Point(x, y)):
                    return x, y
    return None


# ---------------------------------------------------------------------------
# Partition objectives and the optimality-condition curvature.

def objective(cl: Cluster, p) -> float:
    """(sum of h_j^p)^(1/p); p = inf gives max h_j, p = 1 the plain sum."""
    hs = [cell.h for cell in cl.cells]
    if p == math.inf:
        return max(hs)
    if not (isinstance(p, (int, float)) and p >= 1.0):
        raise ValidationError(f"objective exponent must satisfy p >= 1, got {p}")
    return float(sum(h ** p for h in hs) ** (1.0 / p))


def junction_curvature(h_j: float, area_j: float, h_l: float, area_l: float, p: float) -> float:
    """Curvature of the junction arc between two cells, seen from the first one.

    With positive h and area values the curvature is below h_j in exact
    arithmetic; in floating point it can round to h_j when the second cell's
    terms are negligible, so the result satisfies value <= h_j.
    """
    for name, val in (("h_j", h_j), ("area_j", area_j), ("h_l", h_l), ("area_l", area_l)):
        if not 0.0 < val < math.inf:
            raise ValidationError(f"junction_curvature needs a positive finite {name}, got {val}")
    if not 1.0 <= p < math.inf:
        raise ValidationError(f"p must be finite and at least 1, got {p}")
    num = h_j ** p / area_j - h_l ** p / area_l
    den = h_j ** (p - 1) / area_j + h_l ** (p - 1) / area_l
    return num / den


# ---------------------------------------------------------------------------
# Canonical graph.

@dataclass(frozen=True)
class CanonicalGraph:
    """Vertex 0 is the exterior; cells are vertices 1..k."""

    vertex_count: int
    inner_edges: tuple
    outer_edges: tuple
    lambdas: tuple
    connected: bool
    faces: int
    euler_residual: int
    count_identity_ok: bool
    edge_face_bound_ok: bool
    junction_bound_ok: bool
    junction_bound_checked: bool

    @property
    def e_in(self) -> int:
        return len(self.inner_edges)

    @property
    def e_out(self) -> int:
        return len(self.outer_edges)


def _shared_arcs(cl: Cluster) -> list:
    """The shared inner junction arcs: (cell_a, cell_b, edge_a, edge_b), cell_a < cell_b.

    Edge ``edge_a`` of cell ``cell_a`` and edge ``edge_b`` of cell ``cell_b``
    are inner junction edges that ``_edges_coincide`` accepts at
    ``1e-6 * container.extent``.  A partner starts within that tolerance of
    an edge's end, so each edge start is filed, relative to the container's
    first vertex, in every bucket of a grid of step 64 tolerances that the
    square of half-side two tolerances around it meets (the second against
    rounding), and each edge end looks in its one bucket.  Raises
    ValidationError unless every inner junction edge has exactly one
    partner in another cell.
    """
    tol = 1e-6 * cl.container.extent
    pad, step = 2.0 * tol, 64.0 * tol
    ox, oy = cl.container.vertices[0].tolist()
    edges = [(j, i, (row, edge_point(row, 0.0), edge_point(row, 1.0))) for j, cell in enumerate(cl.cells)
             for i, (row, role) in enumerate(zip(cell.boundary.rows, cell.roles)) if role == INNER_JUNCTION]
    starts = {}
    for edge in edges:
        x, y = edge[2][1]
        for bx in range(math.floor((x - ox - pad) / step), math.floor((x - ox + pad) / step) + 1):
            for by in range(math.floor((y - oy - pad) / step), math.floor((y - oy + pad) / step) + 1):
                starts.setdefault((bx, by), []).append(edge)
    partners = dict.fromkeys(((j, i) for j, i, _ in edges), 0)
    pairs = []
    for j, i, ends in edges:
        x, y = ends[2]
        for l, m, other in starts.get((math.floor((x - ox) / step), math.floor((y - oy) / step)), ()):
            if l > j and _edges_coincide(ends, other, tol):  # each pair once, from its lower cell
                pairs.append((j, l, i, m))
                partners[j, i] += 1
                partners[l, m] += 1
    unshared = [key for key, n in partners.items() if n != 1]
    if unshared:
        raise ValidationError(f"inner junction arcs not shared exactly once: {unshared[:4]}")
    return pairs


def canonical_graph(cl: Cluster) -> CanonicalGraph:
    """Build the canonical graph and run the Euler / junction-count diagnostics.

    The graph is read off the cells: one inner edge per pair of shared inner
    junction arcs (``_shared_arcs``, which raises ValidationError when an
    inner junction arc is not shared exactly once) and one outer edge per
    border junction run of a cell (``border_runs``).
    """
    k = cl.k
    runs = [border_runs(cell) for cell in cl.cells]
    inner_edges = tuple((a + 1, b + 1) for a, b, _, _ in _shared_arcs(cl))
    outer_edges = tuple((j + 1, 0) for j, cell_runs in enumerate(runs) for _ in cell_runs)
    lambdas = tuple(
        sum(1 for role in cell.roles if role == INNER_JUNCTION) + len(runs[j])
        for j, cell in enumerate(cl.cells)
    )

    v = k + 1
    e = len(inner_edges) + len(outer_edges)
    neighbors = {i: set() for i in range(v)}
    for a, b in inner_edges + outer_edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen = set()
    components = 0
    for i in range(v):
        if i in seen:
            continue
        components += 1
        seen.add(i)
        stack = [i]
        while stack:
            for nxt in neighbors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    connected = components == 1
    faces = e - v + 1 + components
    euler_residual = v - e + faces - 2  # zero exactly when connected

    count_ok = 2 * len(inner_edges) + len(outer_edges) == sum(lambdas)
    edge_face_ok = 2 * e >= 3 * faces
    junction_ok = sum(lambdas) + len(outer_edges) + 6 <= 6 * k
    checked = connected and k >= 3
    return CanonicalGraph(
        v, inner_edges, outer_edges, lambdas, connected, faces, euler_residual,
        count_ok, edge_face_ok, junction_ok, checked,
    )


# ---------------------------------------------------------------------------
# Empty chamber.

class ChamberReport(NamedTuple):
    area: float
    bound: float


def empty_chamber_report(cl: Cluster) -> ChamberReport:
    """Container area minus cell areas, against (2k-2)|Delta_r*| + 3|corner_r*|.

    The bound is a theorem only for optimal clusters of a triangle, so it is
    reported as a diagnostic and never asserted.
    """
    area = cl.container_area - sum(cell.area for cell in cl.cells)
    r_star = 1.0 / max(cell.h for cell in cl.cells)
    delta, _, corner = reference_areas(r_star)
    return ChamberReport(area, (2 * cl.k - 2) * delta + 3.0 * corner)


# ---------------------------------------------------------------------------
# Honeycomb clusters.

#: neighbor offsets in the lattice directions 0, 60, ..., 300 degrees
_AXIAL_OFFSETS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

#: neighbor offset across hexagon edge j, which faces the direction 60 (j + 1) degrees
_EDGE_OFFSETS = _AXIAL_OFFSETS[1:] + _AXIAL_OFFSETS[:1]


def _hexagon_edges(center, side):
    """The edge rows of a regular hexagon's six sides, and its six vertices."""
    cx, cy = center
    verts = [
        (cx + side * math.cos(math.pi / 6 + j * math.pi / 3),
         cy + side * math.sin(math.pi / 6 + j * math.pi / 3))
        for j in range(6)
    ]
    return [(*verts[j], *verts[(j + 1) % 6]) for j in range(6)], verts


def honeycomb_kcell(coords: Sequence, unit_hexagon: bool = True) -> Cluster:
    """Cluster of regular hexagons at the given axial lattice coordinates.

    Coordinates (i, t) map to centers i*u + t*v in the hexagonal lattice; each
    is a pair of integers (anything ``operator.index`` takes), and the set
    must be connected.  A coordinate that is no integer pair, such as (0.5, 0)
    or (0, 0, 1), raises ValidationError.  With ``unit_hexagon`` the cells
    have unit area, otherwise unit side length.  Cell h values are the hexagon Cheeger
    constant (each hexagonal cell costs exactly h of the regular hexagon, the
    equality case of the scaled partition objective).
    """
    try:
        coords = [(operator.index(i), operator.index(t)) for i, t in coords]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"hexagon coordinates must be integer pairs: {exc}") from exc
    occupied = set(coords)
    if not coords or len(occupied) != len(coords):
        raise ValidationError("coordinates must be a non-empty duplicate-free list")
    seen = {coords[0]}
    stack = [coords[0]]
    while stack:
        i, t = stack.pop()
        for di, dt in _AXIAL_OFFSETS:
            nb = (i + di, t + dt)
            if nb in occupied and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(coords):
        raise ValidationError("hexagon coordinate list is not connected")

    hex_area = 1.0 if unit_hexagon else 1.5 * math.sqrt(3.0)
    side = math.sqrt(2.0 * hex_area / (3.0 * math.sqrt(3.0)))
    spacing = math.sqrt(3.0) * side
    vx, vy = 0.5 * spacing, 0.5 * math.sqrt(3.0) * spacing
    h_hex = cheeger_convex(regular_polygon(6, area=hex_area)).h

    cells = []
    all_vertices = []
    for i, t in coords:
        edges, verts = _hexagon_edges((i * spacing + t * vx, t * vy), side)
        roles = [INNER_JUNCTION if (i + di, t + dt) in occupied else BORDER_PIECE
                 for di, dt in _EDGE_OFFSETS]
        cells.append(ArcDomain(ArcCurve(edges, closed=True), tuple(roles), h_hex))
        all_vertices.extend(verts)

    return Cluster(ConvexPolygon(convex_hull(all_vertices)), tuple(cells), hex_area * len(coords))


def honeycomb_cluster(l: int, unit_hexagon: bool = True) -> Cluster:
    """k-triangle honeycomb: k = l(l+1)/2 hexagons with l cells on each side."""
    if l < 1:
        raise ValidationError(f"l must be a positive integer, got {l}")
    coords = [(i, t) for t in range(l) for i in range(l - t)]
    return honeycomb_kcell(coords, unit_hexagon)


# ---------------------------------------------------------------------------
# The lower-bound certificate.

def theorem_lower_bound(k: int, container_area: float) -> float:
    """Certified lower bound h(H) * sqrt(k / |T|) for the max-Cheeger objective."""
    if k < 1 or not 0.0 < container_area < math.inf:
        raise ValidationError(
            f"need k >= 1 and a positive finite container_area, got k = {k}, container_area = {container_area}")
    return hexagon_constant() * math.sqrt(k / container_area)


@dataclass(frozen=True)
class CellCertificate:
    structure: StructureReport
    area: float
    inner_length: Optional[float]  # None when the cell is not class A
    largest_root_margin: Optional[float] = None  # h_j - H1(Gamma_j)/|cell|
    step1_margin: Optional[float] = None         # h*^2 |cell| - h* H1(Gamma_j) - 2 pi
    hales: Optional[DeficitReport] = None


@dataclass(frozen=True)
class Certificate:
    """End-to-end record of the lower-bound chain for one cluster."""

    k: int
    container_area: float
    h_star: float
    r_star: float
    per_cell: tuple
    applicable: bool
    failing: tuple
    graph: Optional[CanonicalGraph]
    chamber: ChamberReport
    sum_inner_lengths: float
    deficit_total: float
    node_total: int
    endstep2_ok: Optional[bool]
    boundbelow_ok: Optional[bool]
    scompo_ok: Optional[bool]
    final_lhs: float
    final_rhs: float
    holds: bool
    scaled_objective: float
    theorem_bound: float


def lower_bound_certificate(cl: Cluster) -> Certificate:
    """Assemble the lower-bound chain cell by cell.

    Structural failures mark the certificate not applicable (with the failing
    rules) but the objective-side quantities are still reported; the honeycomb
    clusters land exactly on final_lhs = final_rhs.
    """
    k = cl.k
    h_star = max(cell.h for cell in cl.cells)
    r_star = 1.0 / h_star
    per_cell = []
    failing = []
    sum_lengths = 0.0
    deficit_total = 0.0
    node_total = 0
    applicable = True
    for j, cell in enumerate(cl.cells):
        rep = structure_report(cell)
        area = cell.area
        if not rep.is_class_A:
            applicable = False
            for rule in rep.violations:
                failing.append((j, rule))
            per_cell.append(CellCertificate(rep, area, None))
            continue
        length = curve_length(rep.offset.curve)
        sum_lengths += length
        nodes = place_nodes(rep.offset, cell)
        hales = hales_check(rep.offset.curve, nodes, r_star)
        if not hales.satisfied:
            applicable = False
            failing.append((j, "hales_violation"))
        deficit_total += hales.truncated_T
        node_total += hales.N
        per_cell.append(
            CellCertificate(
                rep, area, length,
                largest_root_margin=cell.h - length / area,
                step1_margin=h_star * h_star * area - h_star * length - TWO_PI,
                hales=hales,
            )
        )

    graph = None
    scompo_ok = None
    try:
        graph = canonical_graph(cl)
    except ValidationError:
        applicable = False
        failing.append((-1, "canonical_graph_invalid"))
    if graph is not None and applicable:
        # the "+3 extra arcs" step assumes a triangular container (each border
        # junction arc meets at most two of its three sides); for other
        # containers only the consequence sum(N_j) <= 6k is checked
        if len(cl.container.vertices) == 3:
            scompo_ok = node_total <= sum(graph.lambdas) + 3 <= 6 * k
        else:
            scompo_ok = node_total <= 6 * k

    chamber = empty_chamber_report(cl)
    endstep2_ok = None
    boundbelow_ok = None
    if applicable:
        total_area = sum(c.area for c in per_cell)
        endstep2_ok = (
            h_star * h_star * total_area >= h_star * sum_lengths + TWO_PI * k - 1e-9
        )
        per_cell_floor = 2.0 * math.sqrt(math.pi) * 12.0 ** 0.25 + TWO_PI
        boundbelow_ok = h_star * sum_lengths + TWO_PI * k >= k * per_cell_floor - 1e-9

    final_lhs = (cl.container_area / k) * h_star * h_star
    final_rhs = HEX_SQUARED
    return Certificate(
        k=k,
        container_area=cl.container_area,
        h_star=h_star,
        r_star=r_star,
        per_cell=tuple(per_cell),
        applicable=applicable,
        failing=tuple(failing),
        graph=graph,
        chamber=chamber,
        sum_inner_lengths=sum_lengths,
        deficit_total=deficit_total,
        node_total=node_total,
        endstep2_ok=endstep2_ok,
        boundbelow_ok=boundbelow_ok,
        scompo_ok=scompo_ok,
        final_lhs=final_lhs,
        final_rhs=final_rhs,
        holds=bool(final_lhs >= final_rhs - 1e-9),
        scaled_objective=math.sqrt(cl.container_area / k) * h_star,
        theorem_bound=theorem_lower_bound(k, cl.container_area),
    )


# ---------------------------------------------------------------------------
# JSON encodings.

def cluster_to_dict(cl: Cluster) -> dict:
    return {
        "container": polygon_to_dict(cl.container),
        "container_area": cl.container_area,
        "cells": [domain_to_dict(c) for c in cl.cells],
    }


def cluster_from_dict(d: dict) -> Cluster:
    jsonio.require_keys(d, ["container", "cells"], ["container_area"])
    area = d.get("container_area")
    return Cluster(
        polygon_from_dict(d["container"]),
        tuple(domain_from_dict(c) for c in jsonio.array(d["cells"], "cells")),
        None if area is None else jsonio.number(area, "container_area"),
    )


def certificate_to_dict(cert: Certificate) -> dict:
    cells = []
    for c in cert.per_cell:
        entry = {
            "is_class_A": c.structure.is_class_A,
            "violations": list(c.structure.violations),
            "area": c.area,
            "inner_length": c.inner_length,
            "largest_root_margin": c.largest_root_margin,
            "step1_margin": c.step1_margin,
        }
        if c.hales is not None:
            entry["N"] = c.hales.N
            entry["T"] = c.hales.truncated_T
            entry["hales_lhs"] = c.hales.lhs
            entry["hales_rhs"] = c.hales.rhs
            entry["hales_satisfied"] = c.hales.satisfied
        cells.append(entry)
    graph = None
    if cert.graph is not None:
        g = cert.graph
        graph = {
            "vertex_count": g.vertex_count,
            "e_in": g.e_in,
            "e_out": g.e_out,
            "lambdas": list(g.lambdas),
            "faces": g.faces,
            "euler_residual": g.euler_residual,
            "connected": g.connected,
            "count_identity_ok": g.count_identity_ok,
            "edge_face_bound_ok": g.edge_face_bound_ok,
            "junction_bound_ok": g.junction_bound_ok,
        }
    return {
        "k": cert.k,
        "container_area": cert.container_area,
        "h_star": cert.h_star,
        "r_star": cert.r_star,
        "applicable": cert.applicable,
        "failing": [list(f) for f in cert.failing],
        "per_cell": cells,
        "graph": graph,
        "chamber_area": cert.chamber.area,
        "chamber_bound": cert.chamber.bound,
        "sum_inner_lengths": cert.sum_inner_lengths,
        "deficit_total": cert.deficit_total,
        "node_total": cert.node_total,
        "endstep2_ok": cert.endstep2_ok,
        "boundbelow_ok": cert.boundbelow_ok,
        "scompo_ok": cert.scompo_ok,
        "final_lhs": cert.final_lhs,
        "final_rhs": cert.final_rhs,
        "holds": cert.holds,
        "scaled_objective": cert.scaled_objective,
        "theorem_bound": cert.theorem_bound,
    }
