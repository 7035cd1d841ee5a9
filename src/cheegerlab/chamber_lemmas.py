"""Disk-chain geometry backing the empty-chamber area estimates.

A chain is a sequence of consecutively tangent disks, optionally closed into a
loop, resting on a line (half-plane flavor), or wedged into a 60-degree sector.
The bounded region enclosed between the disks (and the container lines) is the
quantity of interest.  Its area has one exact method: the region polygon
through the disk centers (plus the tangency feet and the sector apex) minus
the disk sector at each center.  One float pass over that polygon gives its
signed area and the pocket angle at each center; the sampler's reflex check,
``validate_chain``, ``chain_region_area`` and ``pocket_outline`` all read
their angles or orientation from it.  The hypotheses that ``validate_chain``
enforces on every ``DiskChain`` (tangent consecutive disks, no overlap of
non-consecutive disks, disks inside the container, pocket angles below pi)
keep each disk off the polygon edges not incident to its center, so the
sectors are disjoint and lie inside the polygon.  Non-consecutive disks may
touch; the decomposition stays exact there.

Reference areas at radius r:

    delta  = r^2 (2 sqrt(3) - pi) / 2      three mutually tangent disks
    wedge  = r^2 (2 - pi / 2)              two tangent disks on a line
    corner = r^2 (3 sqrt(3) - pi) / 3      one disk in a pi/3 corner

The chain bounds are: closed  >= (m-2) delta,
half-plane >= (m-2) delta + wedge, sector >= (m-2) delta + wedge + corner.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import jsonio
from .arc_geometry import CHAIN_TOL, ArcCurve, _arc_sweep, _circle_intersections
from .errors import GenerationError, ValidationError

SQRT3 = math.sqrt(3.0)
SECTOR_OPENING = math.pi / 3.0

CLOSED = "closed"
HALF_PLANE = "half_plane"
SECTOR = "sector"
FLAVORS = (CLOSED, HALF_PLANE, SECTOR)

#: pocket angles above this are reflex, and validate_chain raises on them
_REFLEX = math.pi + 1e-9


def reference_areas(r: float):
    """(delta, wedge, corner) reference areas at radius r."""
    if not 0.0 < r < math.inf:
        raise ValidationError(f"radius r must be positive and finite, got {r}")
    delta = 0.5 * r * r * (2.0 * SQRT3 - math.pi)
    wedge = r * r * (2.0 - math.pi / 2.0)
    corner = r * r * (3.0 * SQRT3 - math.pi) / 3.0
    return delta, wedge, corner


@dataclass(frozen=True)
class DiskChain:
    """Consecutively tangent disks; container lines are canonical per flavor.

    ``half_plane`` chains live in y >= 0 with the end disks tangent to the
    x-axis; ``sector`` chains live between the rays at angles 0 and pi/3 from
    the origin, first disk tangent to the x-axis ray, last disk tangent to the
    other ray.  ``warnings`` collects degenerate but admissible features
    (touching non-consecutive disks, straight angles).  ``validate_chain``
    keeps its region pass (``_region``) on the chain, for
    ``chain_region_area`` and ``pocket_outline`` to read.
    """

    centers: np.ndarray
    radii: np.ndarray
    flavor: str
    warnings: tuple = field(init=False)
    _region_pass: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        centers = np.atleast_2d(np.array(self.centers, dtype=float))
        radii = np.array(self.radii, dtype=float).ravel()
        if centers.ndim != 2 or centers.shape[1] != 2:
            raise ValidationError(f"centers must be an (m, 2) array, got shape {centers.shape}")
        centers.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        if self.flavor not in FLAVORS:
            raise ValidationError(f"unknown chain flavor {self.flavor!r}")
        object.__setattr__(self, "warnings", tuple(validate_chain(self)))

    @property
    def m(self) -> int:
        return len(self.radii)


# Direction of the sector's second ray and its inward unit normal; the first
# ray runs along the x-axis with inward normal (0, 1).
_RAY_DIRECTION = (math.cos(SECTOR_OPENING), math.sin(SECTOR_OPENING))
_RAY_NORMAL = (math.sin(SECTOR_OPENING), -math.cos(SECTOR_OPENING))


def _ray_distance(x: float, y: float) -> float:
    """Signed distance from (x, y) to the sector's second ray, positive inside."""
    return x * _RAY_NORMAL[0] + y * _RAY_NORMAL[1]


def _chain_scale(centers, radii, flavor) -> float:
    """Largest radius or center distance from the region polygon's first vertex
    (first center, first foot or sector apex), the vertex that the float region
    pass measures from: the unit of the chain tolerances, unchanged when a
    closed chain is moved rigidly or a half-plane one slides along its line."""
    if flavor == CLOSED:
        ax, ay = centers[0]
    else:
        ax, ay = (centers[0][0] if flavor == HALF_PLANE else 0.0), 0.0
    return max(max(math.hypot(x - ax, y - ay) for x, y in centers), max(radii))


def _feet(centers, radii, flavor):
    """Tangency feet of the end disks on the container lines, as float pairs."""
    first = (centers[0][0], 0.0)
    if flavor == HALF_PLANE:
        return first, (centers[-1][0], 0.0)
    (x, y), r = centers[-1], radii[-1]
    return first, (x - r * _RAY_NORMAL[0], y - r * _RAY_NORMAL[1])


def validate_chain(ch: DiskChain):
    """Raise on hypothesis violations; return warnings for degenerate features.

    Runs on plain floats, since rejection sampling validates every chain it
    builds.
    """
    centers = ch.centers.tolist()
    radii = ch.radii.tolist()
    # every rule below is a comparison, which NaN would pass
    if not all(map(math.isfinite, itertools.chain(radii, *centers))):
        raise ValidationError("disk centers and radii must be finite")
    m = len(radii)
    if len(centers) != m:
        raise ValidationError("centers and radii length mismatch")
    if m < 2 or (ch.flavor == CLOSED and m < 3):
        raise ValidationError(f"chain of flavor {ch.flavor} needs more disks, got {m}")
    if any(r <= 0.0 for r in radii):
        raise ValidationError("disk radii must be positive")
    tol = CHAIN_TOL * _chain_scale(centers, radii, ch.flavor)
    limit = 1e3 * tol
    warnings = []

    for i in range(m if ch.flavor == CLOSED else m - 1):
        j = (i + 1) % m
        d = math.hypot(centers[i][0] - centers[j][0], centers[i][1] - centers[j][1])
        want = radii[i] + radii[j]
        if abs(d - want) > limit:
            raise ValidationError(
                f"disks {i},{j} must be tangent: distance {d:.12g}, radii sum {want:.12g}"
            )
    for i in range(m):
        xi, yi = centers[i]
        for j in range(i + 2, m):
            if ch.flavor == CLOSED and i == 0 and j == m - 1:
                continue
            d = math.hypot(xi - centers[j][0], yi - centers[j][1])
            want = radii[i] + radii[j]
            if d < want - limit:
                raise ValidationError(
                    f"non-consecutive disks {i},{j} overlap: {d:.12g} < {want:.12g}"
                )
            if d < want + limit:
                warnings.append(f"touching_nonconsecutive_{i}_{j}")

    if ch.flavor != CLOSED:
        sector = ch.flavor == SECTOR
        for (x, y), r in zip(centers, radii):
            if y < r - limit or (sector and _ray_distance(x, y) < r - limit):
                raise ValidationError("a disk leaves the container region")
        if abs(centers[0][1] - radii[0]) > limit:
            raise ValidationError("first disk must be tangent to the first line")
        x, y = centers[-1]
        if abs((_ray_distance(x, y) if sector else y) - radii[-1]) > limit:
            raise ValidationError("last disk must be tangent to the last line")

    # pocket-side angles at the centers must stay below pi (straight is degenerate)
    region = _region(centers, radii, ch.flavor)
    object.__setattr__(ch, "_region_pass", region)
    for k, ang in enumerate(region[1]):
        if ang > math.pi - 1e-12:
            if ang > _REFLEX:
                raise ValidationError(f"pocket angle at disk {k} is not below pi")
            warnings.append(f"straight_angle_{k}")
    return warnings


def _region(centers, radii, flavor):
    """One float pass over the region polygon: twice its signed area and the
    pocket-side angle in [0, 2 pi) at each center.

    The vertices are measured from the first one, so that a far translate loses
    nothing to cancellation.  The region polygon winds CCW around the pocket,
    so with a CW vertex order the neighbours of each center swap.
    """
    rows, first = _region_rows(centers, radii, flavor)
    x0, y0 = rows[0]
    rows = [(x - x0, y - y0) for x, y in rows]
    n = len(rows)
    twice_area = 0.0
    for (xa, ya), (xb, yb) in zip(rows, rows[1:] + rows[:1]):
        twice_area += xa * yb - ya * xb
    angles = []
    for i in range(first, first + len(radii)):
        vx, vy = rows[i]
        (ax, ay), (bx, by) = rows[i - 1], rows[(i + 1) % n]
        if twice_area < 0.0:
            (ax, ay), (bx, by) = (bx, by), (ax, ay)
        ax, ay, bx, by = ax - vx, ay - vy, bx - vx, by - vy
        angles.append(math.atan2(bx * ay - by * ax, ax * bx + ay * by) % (2.0 * math.pi))
    return twice_area, angles


def _region_rows(centers, radii, flavor):
    """Vertices of the region polygon as float pairs in chain order (sector
    apex, first foot, centers, last foot), and the index of the first center."""
    if flavor == CLOSED:
        return centers, 0
    first, last = _feet(centers, radii, flavor)
    rows = [first, *centers, last]
    if flavor == SECTOR:
        return [(0.0, 0.0), *rows], 2
    return rows, 1


class ChainRegion(NamedTuple):
    area: float
    method: str


def chain_region_area(ch: DiskChain) -> ChainRegion:
    """Exact area of the region enclosed by the chain (and container lines):
    the region polygon's shoelace area minus the disk sector at each center,
    both from the one float region pass that validation ran and kept."""
    twice_area, angles = ch._region_pass
    area = 0.5 * abs(twice_area)
    for ang, r in zip(angles, ch.radii.tolist()):
        area -= 0.5 * ang * r ** 2
    return ChainRegion(area, "decomposition")


class ChainBoundReport(NamedTuple):
    area: float
    bound: float
    holds: bool
    method: str


def verify_chain_bound(ch: DiskChain) -> ChainBoundReport:
    """Compare the enclosed area against the flavor's lower bound at r* = min radius."""
    if ch.m < 3:
        raise ValidationError(f"chain bound needs m >= 3 disks, got {ch.m}")
    region = chain_region_area(ch)
    r_star = float(ch.radii.min())
    delta, wedge, corner = reference_areas(r_star)
    bound = (ch.m - 2) * delta
    if ch.flavor == HALF_PLANE:
        bound += wedge
    elif ch.flavor == SECTOR:
        bound += wedge + corner
    tol = 1e-9 * r_star * r_star
    return ChainBoundReport(region.area, bound, bool(region.area >= bound - tol), region.method)


def pocket_outline(ch: DiskChain):
    """The enclosed region's boundary as an ArcCurve, oriented counterclockwise:
    the region polygon walked counterclockwise from its first vertex, with a
    clockwise arc on the disk at each center and a segment between two other
    vertices.  Only defined when the region is connected and bounded by one
    arc per disk, which is the generic case produced by ``random_chain``.
    """
    centers, radii = ch.centers.tolist(), ch.radii.tolist()
    rows, first = _region_rows(centers, radii, ch.flavor)
    disks = [None] * len(rows)
    disks[first:first + ch.m] = range(ch.m)
    if ch._region_pass[0] < 0.0:  # a chain listed against the construction
        rows, disks = rows[:1] + rows[:0:-1], disks[:1] + disks[:0:-1]

    def contact(k, j):  # where the walk between rows k and j meets the disk of row k
        if disks[j] is None:
            return rows[j]
        (cx, cy), r = rows[k], radii[disks[k]]
        dx, dy = rows[j][0] - cx, rows[j][1] - cy
        d = math.hypot(dx, dy)
        return cx + r * dx / d, cy + r * dy / d

    n = len(rows)
    edges = []
    for k in range(n):
        nxt = (k + 1) % n
        if disks[k] is not None:
            (cx, cy), (ex, ey), (lx, ly) = rows[k], contact(k, k - 1), contact(k, nxt)
            a0 = math.atan2(ey - cy, ex - cx)
            edges.append((cx, cy, radii[disks[k]], a0, _arc_sweep(a0, math.atan2(ly - cy, lx - cx), -1)))
        elif disks[nxt] is None:
            edges.append((*rows[k], *rows[nxt]))
    return ArcCurve(edges, closed=True)


# ---------------------------------------------------------------------------
# Tangency coordinates and angle derivatives for the three-disk perturbation.

def tangency_geometry(r1: float, r2: float, r3: float, l: Optional[float] = None):
    """Center of the middle disk tangent to two anchored disks, and the angle
    derivatives d(theta_1)/d(r_2), d(theta_3)/d(r_2).

    The anchor centers sit at distance l >= r1 + r3; ``l is None`` means
    l = r1 + r3, mutually tangent anchors.  Both derivatives are positive
    whenever the configuration exists.
    """
    for name, val in (("r1", r1), ("r2", r2), ("r3", r3)):
        if val <= 0.0 or not math.isfinite(val):
            raise ValidationError(f"{name} must be positive, got {val}")
    if l is None:
        l = r1 + r3
    elif not r1 + r3 <= l < math.inf:
        raise ValidationError(f"anchor distance l = {l} must be finite and at least r1 + r3 = {r1 + r3}")
    x0 = (l * l + r1 * r1 + 2.0 * r1 * r2 - r3 * r3 - 2.0 * r3 * r2) / (2.0 * l)
    y2 = (r1 + r2) ** 2 - (l * l + (r1 - r3) * (r1 + r3 + 2.0 * r2)) ** 2 / (4.0 * l * l)
    if y2 <= 0.0:
        raise ValidationError("middle disk cannot touch both anchors at this distance")
    y0 = math.sqrt(y2)
    num = (l + r1 - r3) * (l - r1 + r3)
    inner = -num * (l * l - (r1 + r3 + 2.0 * r2) ** 2) / (l * l)
    if inner <= 0.0:
        raise ValidationError("middle disk cannot touch both anchors at this distance")
    root = math.sqrt(inner)
    d1 = num / (l * (r1 + r2) * root)
    d3 = num / (l * (r2 + r3) * root)
    return x0, y0, d1, d3


# ---------------------------------------------------------------------------
# The three pocket-area functions phi(t).

QUADRILATERAL = "quadrilateral"
PENTAGON = "pentagon"
SECTOR_PHI = "sector"

_PHI_INTERVALS = {PENTAGON: (0.0, math.pi / 3.0), SECTOR_PHI: (0.0, math.pi / 2.0)}


def phi(variant: str, t: float, aux: Optional[float] = None) -> float:
    """Pocket-area functions of the induction steps.

    ``quadrilateral`` takes aux = l (anchor distance, 2 r* = 1 normalization),
    ``pentagon`` takes no aux, ``sector`` takes aux = r*.
    """
    if variant == QUADRILATERAL:
        if aux is None or not 1.0 <= aux < math.inf:
            raise ValidationError(f"quadrilateral phi needs a finite aux = l >= 1, got {aux}")
        if not 0.0 <= t <= math.pi:
            raise ValidationError(f"t = {t} outside [0, pi]")
        l = aux
        rad = (l * l - 2.0 * l * math.cos(t) + 1.0) * (-l * l + 2.0 * l * math.cos(t) + 3.0)
        if rad < -1e-12:
            raise ValidationError(f"t = {t} outside the geometric domain for l = {l}")
        return 0.25 * math.sqrt(max(rad, 0.0)) + 0.5 * l * math.sin(t)
    if variant == PENTAGON:
        lo, hi = _PHI_INTERVALS[PENTAGON]
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise ValidationError(f"t = {t} outside [0, pi/3]")
        return math.cos(t) * (1.0 + math.sin(t))
    if variant == SECTOR_PHI:
        if aux is None or not 0.0 < aux < math.inf:
            raise ValidationError(f"sector phi needs a finite aux = r* > 0, got {aux}")
        lo, hi = _PHI_INTERVALS[SECTOR_PHI]
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise ValidationError(f"t = {t} outside [0, pi/2]")
        r2 = aux * aux
        return (r2 / 3.0) * (
            6.0 * math.sin(t)
            + 3.0 * math.sin(2.0 * t)
            + 6.0 * SQRT3 * math.cos(t)
            + SQRT3 * math.cos(2.0 * t)
            + 4.0 * SQRT3
        )
    raise ValidationError(f"unknown phi variant {variant!r}")


# ---------------------------------------------------------------------------
# Random chain generator (rejection sampling within the lemma hypotheses).
#
# Plain floats throughout, on uniform doubles read from one generator in
# blocks.  A candidate with a reflex pocket angle (on which validate_chain
# would raise) is rejected on its float pairs before a DiskChain is built;
# every chain that is built is validated once, in full.

_ATTEMPTS = 4000
_RADIUS_RANGE = (0.6, 1.5)
_BLOCK = 256
_MIN_DISKS = 3


def _check_integer(value, least: int, what: str):
    """Raise ValidationError unless value is an integer (a bool is not) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{what} >= {least}, got {value!r}")


class _Draws:
    """Uniform draws from one generator, read ``_BLOCK`` doubles at a time.

    ``draws(lo, hi)`` is ``lo + (hi - lo) * u`` for the next double u of
    ``rng.random``, the formula of ``Generator.uniform``: bit for bit the
    value of ``rng.uniform(lo, hi)`` at the same place in the stream.  The
    reader runs ahead of the draws it hands out, so nothing else may draw from
    the generator it wraps.
    """

    __slots__ = ("_rng", "_block", "_next")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block = []
        self._next = 0

    def __call__(self, lo: float, hi: float) -> float:
        if self._next == len(self._block):
            self._block = self._rng.random(_BLOCK).tolist()
            self._next = 0
        u = self._block[self._next]
        self._next += 1
        return lo + (hi - lo) * u


def _step(center, length: float, heading: float):
    """The point ``length`` from ``center`` along ``heading``."""
    return (center[0] + length * math.cos(heading), center[1] + length * math.sin(heading))


def _build(centers, r, flavor):
    """The DiskChain on these centers, or None where validate_chain rejects it."""
    if any(ang > _REFLEX for ang in _region(centers, r, flavor)[1]):
        return None
    try:
        return DiskChain(centers, r, flavor)
    except ValidationError:
        return None


def _try_chain(draws: _Draws, flavor: str, m: int):
    """One rejection-sampling attempt: a valid chain, or None."""
    r = [draws(*_RADIUS_RANGE) for _ in range(m)]
    margin = 0.05
    if flavor == CLOSED:
        centers = [(0.0, 0.0), (r[0] + r[1], 0.0)]
        heading = 0.0
        for i in range(2, m - 1):
            heading += draws(0.25, 1.9 * math.pi / m)
            centers.append(_step(centers[-1], r[i - 1] + r[i], heading))
        cands = _circle_intersections(
            centers[-1], r[m - 2] + r[m - 1], centers[0], r[0] + r[m - 1]
        )
        last = [c for c in cands if c[1] > 0.0] if m == 3 else cands
        for cand in last:
            chain = _build(centers + [cand], r, CLOSED)
            if chain is not None:
                return chain
        return None
    if flavor == HALF_PLANE:
        # arch over the line: headings sweep monotonically from +theta0 downward
        centers = [(0.0, r[0])]
        theta0 = draws(0.45, 1.1)
        heading = theta0
        drop = 2.0 * theta0 / max(m - 2, 1)
        for i in range(1, m - 1):
            if i > 1:
                heading -= drop * draws(0.6, 1.4)
            cand = _step(centers[-1], r[i - 1] + r[i], heading)
            if cand[1] < r[i] * (1.0 + margin):
                return None
            centers.append(cand)
        x, y = centers[-1]
        reach = (r[-2] + r[-1]) ** 2 - (y - r[-1]) ** 2
        if reach <= 0.0:
            return None
        centers.append((x + math.sqrt(reach), r[-1]))
        return _build(centers, r, HALF_PLANE)
    # sector: wrap nearly circularly around the apex, from the x-axis ray to the
    # pi/3 ray; the polar radius must roughly match chain length * 3 / pi for
    # the last disk to land tangent on the second ray
    chain_arc = 2.0 * sum(r) - r[0] - r[-1]
    start_x = max(chain_arc * draws(0.9, 1.4), 1.02 * SQRT3 * r[0])
    centers = [(start_x, r[0])]
    for i in range(1, m - 1):
        x, y = centers[-1]
        heading = math.atan2(y, x) + math.pi / 2.0 + draws(0.0, 0.1)
        cand = _step(centers[-1], r[i - 1] + r[i], heading)
        floor = r[i] * (1.0 + margin)
        if cand[1] < floor or _ray_distance(*cand) < floor:
            return None
        centers.append(cand)
    x, y = centers[-1]
    bx, by = r[-1] * _RAY_NORMAL[0], r[-1] * _RAY_NORMAL[1]
    # solve |base + t d2 - prev| = radii[-2] + radii[-1], base = (bx, by), d2 the ray direction
    dx, dy = bx - x, by - y
    b = _RAY_DIRECTION[0] * dx + _RAY_DIRECTION[1] * dy
    c0 = dx * dx + dy * dy - (r[-2] + r[-1]) ** 2
    disc = b * b - c0
    if disc <= 0.0:
        return None
    for t in (-b + math.sqrt(disc), -b - math.sqrt(disc)):
        cand = (bx + t * _RAY_DIRECTION[0], by + t * _RAY_DIRECTION[1])
        if cand[1] < r[-1] * (1.0 - 1e-9):
            continue
        chain = _build(centers + [cand], r, SECTOR)
        if chain is not None:
            return chain
    return None


def random_chain(flavor: str, m: int, seed) -> DiskChain:
    """Deterministic random chain satisfying the lemma hypotheses (rejection sampling).

    Radii are drawn uniformly from ``_RADIUS_RANGE``.  All draws come from
    ``np.random.default_rng(seed)`` through one buffered ``_Draws`` stream.
    Candidates with a reflex pocket angle are rejected before a ``DiskChain``
    is built; every chain that is built is validated once, in full.  A disk
    count m that is not an integer of at least 3 raises ValidationError.
    """
    if flavor not in FLAVORS:
        raise ValidationError(f"unknown chain flavor {flavor!r}")
    _check_integer(m, _MIN_DISKS, "a random chain's disk count m must be an integer")
    draws = _Draws(np.random.default_rng(seed))
    for _ in range(_ATTEMPTS):
        chain = _try_chain(draws, flavor, m)
        if chain is not None and not chain.warnings:
            return chain
    raise GenerationError(f"no valid {flavor} chain with m = {m} after {_ATTEMPTS} attempts")


def run_chain_sweep(flavor: str, count: int, seed: int, m_values=(3, 4, 5, 6)):
    """Generate ``count`` chains and check the exact area against the bound on each.

    Chain i has m = m_values[i % len(m_values)] disks and is drawn from the seed
    [seed, i].  Returns (records, violations): one record per chain with the
    bound report, and the records whose bound fails.  An unknown flavor, a
    count or seed that is not a non-negative integer, an empty ``m_values``
    and an entry that is not an integer of at least 3 raise ValidationError
    before any chain is drawn, even when count is 0.
    """
    if flavor not in FLAVORS:
        raise ValidationError(f"unknown chain flavor {flavor!r}")
    _check_integer(count, 0, "the chain sweep count must be an integer")
    _check_integer(seed, 0, "the chain sweep seed must be an integer")
    if len(m_values) == 0:  # not `not m_values`, which a numpy array refuses
        raise ValidationError("m_values must not be empty")
    for m in m_values:
        _check_integer(m, _MIN_DISKS, "m_values entries must be integers")
    records = []
    violations = []
    for i in range(count):
        m = m_values[i % len(m_values)]
        chain = random_chain(flavor, m, seed=[seed, i])
        rep = verify_chain_bound(chain)
        rec = {
            "index": i,
            "flavor": flavor,
            "m": m,
            "area": rep.area,
            "bound": rep.bound,
            "holds": rep.holds,
            "method": rep.method,
        }
        records.append(rec)
        if not rep.holds:
            violations.append(rec)
    return records, violations


# ---------------------------------------------------------------------------
# JSON encoding.

def _container_lines(flavor: str) -> list:
    """The container lines of a flavor as ``chain_to_dict`` writes them."""
    angles = {CLOSED: (), HALF_PLANE: (0.0,), SECTOR: (0.0, SECTOR_OPENING)}[flavor]
    return [{"origin": [0.0, 0.0], "angle": a} for a in angles]


def chain_to_dict(ch: DiskChain) -> dict:
    return {
        "flavor": ch.flavor,
        "centers": [[float(x), float(y)] for x, y in ch.centers],
        "radii": [float(r) for r in ch.radii],
        "lines": _container_lines(ch.flavor),
    }


def chain_from_dict(d: dict) -> DiskChain:
    """Read a chain; ``lines``, when present, must be its flavor's canonical lines."""
    jsonio.require_keys(d, ["flavor", "centers", "radii"], ["lines"])
    chain = DiskChain(
        jsonio.numbers(d["centers"], "center coordinate"),
        jsonio.numbers(d["radii"], "radius"),
        jsonio.string(d["flavor"], "flavor"),
    )
    if "lines" in d:
        lines = []
        for line in jsonio.array(d["lines"], "lines"):
            jsonio.require_keys(line, ["origin", "angle"])
            lines.append({"origin": jsonio.numbers(line["origin"], "line origin").tolist(),
                          "angle": jsonio.number(line["angle"], "line angle")})
        if lines != _container_lines(chain.flavor):
            raise ValidationError(f"lines {d['lines']!r} are not those of a {chain.flavor} chain")
    return chain
