"""Upper bounds for the max-Cheeger partition value via power-diagram descent.

Cells of a power diagram clipped to a convex container are convex polygons,
and the convex Cheeger solver is exact on each of them.  In exact arithmetic
every evaluated configuration would be an admissible cluster and its value an
upper bound for the optimal value.  In floating point the clipped cells are
admissible only up to rounding: neighbors may overlap, or a cell may leave
the container, by a few ulps, so the reported objective is an upper bound up
to that rounding, not a verified one.  The optimal cells of the true problem
are non-convex arc domains, so this family only brackets the optimum from
above; the certified lower bound h(H) sqrt(k/|T|) brackets it from below.

The search is a deterministic compass search on the flattened (seeds,
weights) vector, with a hexagonal-lattice start plus uniform-random restarts.
The lattice start spends min(40, share - 10) of its evaluations on weight
balancing, and its search starts at the best balanced point without scoring
it again.  Each probe moves one coordinate, and degenerate diagrams score
+inf, so a probe into one is never kept.

A diagram clips the container, in coordinates centred on each site, by the
radical-axis half-planes of the other sites, nearest first, and stops at the
security radius (Levy & Bonneel, IMR 2012, with power weights): once the
next site is so far that its half-plane holds the disk around the site that
contains the ring, no later one can cut.  The only numpy work per diagram is
the squared distances of the clipped sites and their stable argsort; a
site's half-plane is computed in plain floats when a cell's loop reaches it,
so a lattice diagram computes 8 to 11 of the k - 1 half-planes per cell from
k = 16 to k = 2048.  The clips use a one-pass plain-float kernel that returns
a ring unchanged when a half-plane cuts nothing.  Each fresh ring stays a
list of floats: it is validated and cleaned once by
``_convex_ring``, the pass ``ConvexPolygon`` runs, and solved for its Cheeger
radius alone by ``_cheeger_loop``, so an evaluation builds no
``ConvexPolygon``, ``CheegerResult`` or Cheeger-set curve.  Each search keeps
its incumbent's ring, validated vertex list, h and stop distance per site.  A
probe re-clips only the sites whose stop its moved site falls within, before
or after the move, and every other ring is the incumbent's bit for bit; a
cell whose ring comes out float for float the same is neither validated nor
solved again.  A probe that leaves a cell with the incumbent's largest h
alone cannot win and is rejected without clipping.

One batch of the benchmark's ``partition`` workload (k = 16 and 64, seed 5)
makes 12 546 clips, 1 977 validations and 1 497 solves, against 25 432,
2 682 and 2 202 when every probe clipped the whole diagram, and decides 80 of
its 119 probes without clipping.  Replaying its calls on a shared 2-core
x86_64 host (Python 3.11) puts clipping, with each diagram's numpy set-up, at
about half of its time, the solves at about a sixth, the validation at about
a seventh and the Lloyd and balancing centroids at about 3 %.  A lattice
diagram clips six to nine half-planes per cell from k = 16 to k = 1024, so
the clip count grows about like k, not k^2; the distances and their
argsort, k log k per site, take most of a whole diagram's time from
k = 1024 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cheeger import (
    ConvexPolygon,
    _cheeger_loop,
    _clip_halfplane,
    _convex_ring,
    hexagon_constant,
)
from .errors import DegenerateConfigurationError, OptimizationError, ValidationError


@dataclass(frozen=True)
class SeedConfiguration:
    """Power-diagram sites and weights: k finite (x, y) seeds and one finite
    weight per seed, held as frozen copies of the caller's arrays.

    No two seeds may coincide, a rule checked where a diagram is built, not
    here: ``power_diagram_cells`` raises
    DegenerateConfigurationError on two seeds whose squared distance
    dx^2 + dy^2 is 0, an underflow included (``_power_rings``).
    """

    seeds: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        seeds = np.atleast_2d(np.array(self.seeds, dtype=float))
        weights = np.array(self.weights, dtype=float).ravel()
        if seeds.shape[1] != 2 or len(weights) != len(seeds):
            raise ValidationError("seeds must be (k, 2) with one weight per seed")
        if not (np.isfinite(seeds).all() and np.isfinite(weights).all()):
            raise ValidationError("non-finite seed configuration")
        seeds.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "weights", weights)

    @property
    def k(self) -> int:
        return len(self.weights)


# The stop test's rounding allowance, in units of |d|^2 + |w_i| + max|w|; see
# ``_power_rings``.
_STOP_SLACK = 2.0 ** -48


def _power_rings(seeds: np.ndarray, weights: np.ndarray, container: ConvexPolygon, chosen):
    """Yield (ring, stop) for each site in ``chosen``, in that order.

    ``seeds`` (k, 2) and ``weights`` (k) are finite, and ``chosen`` is a
    sequence of site indices (all k of them for the whole diagram).  The ring
    is the site's clipped cell, a list of [x, y]; ``stop`` is the sorted
    |d|^2 at which its loop stopped, +inf if it clipped by every other site.
    A chosen site with a twin, another site at squared distance
    dx*dx + dy*dy == 0 (an underflow included), raises
    DegenerateConfigurationError("seeds must be pairwise distinct"): this is
    the package's one check that sites are distinct.

    Cell i is clipped in coordinates centred on s_i, where the radical-axis
    half-plane of site j is ``2 d.y <= |d|^2 + w_i - w_j`` with d = s_j - s_i:
    no offset carries |s|^2, whose rounding grows with the distance from the
    origin, so a translated diagram keeps its digits.  The other sites are
    visited nearest first, in the order of a stable argsort of the |d|^2 rows
    of the chosen sites, and the loop stops at the first site with |d| > R and
    ``(|d| - R)^2 - max w >= R^2 - w_i``, where R is the largest distance from
    s_i to the ring, recomputed when a clip changes the ring (the security
    radius of Levy & Bonneel, IMR 2012, with power weights as in Aurenhammer,
    SIAM J. Comput. 16, 1987).  For |y| <= R < |d| it gives |y|^2 - w_i <=
    (|d| - R)^2 - max w <= |y - d|^2 - w_j, so that site's half-plane and, the
    left side growing with |d|, every later one holds the whole ring.

    Site j's values are computed in plain floats when the loop reaches it:
    d, |d|^2 = dx*dx + dy*dy, |d|, the normal 2d and the offset
    |d|^2 + (w_i - w_j), each with the IEEE operations of numpy's elementwise
    arrays in the same order, so a ring is bit for bit the numpy clips,
    nearest first, by the sites up to its stop (``nearest_first_ring_reference``
    in the tests).

    The kernel decides with the computed ``x*nx + y*ny - c``, so the stop also
    asks the gap to exceed the rounding, with u = 2^-53 and in units of
    |d|^2 + |w_i| + max|w| (the test implies |d| >= 2R): the products and
    their sum err by 2u, the offset by 3u and R by 2.2u, evaluating the test
    by 9u, and a later site's |d| may fall short of this one's by 4u through
    the rounding of the sort key.  ``_STOP_SLACK`` = 2^-48 = 32u covers their
    sum, about 20u.  Every skipped clip would therefore have returned the
    ring unchanged, and the rings are bit for bit those of the same loop run
    over every site.  A ring reads only the sites up to its stop, with max w
    and max |w|, so it and its stop stay bit for bit the same while every
    site that moves or changes weight sorts after the stop (``_affected``).
    """
    chosen = np.asarray(chosen, dtype=np.intp)
    dx = seeds[None, :, 0] - seeds[chosen, None, 0]  # dx[n, j] = x_j - x_i, i = chosen[n]
    dy = seeds[None, :, 1] - seeds[chosen, None, 1]
    d2 = dx * dx + dy * dy
    # s_i - s_i is the one 0 of row i unless a twin ties it, so site i sorts first
    if np.count_nonzero(d2 > 0.0) < d2.size - len(chosen):
        raise DegenerateConfigurationError("seeds must be pairwise distinct")
    order = np.argsort(d2, axis=1, kind="stable")
    xs, ys = seeds[:, 0].tolist(), seeds[:, 1].tolist()
    w = weights.tolist()
    w_max = max(w, default=0.0)
    wabs_max = max(map(abs, w), default=0.0)
    verts = container.vertices.tolist()
    for i, row in zip(chosen.tolist(), order):
        xi, yi, wi = xs[i], ys[i], w[i]
        # + 0.0 turns a -0.0 coordinate into 0.0, so no ring vertex is -0.0
        # and == on two rings (``_eval_config``) compares them float for float
        sx, sy = xi + 0.0, yi + 0.0
        wabs = abs(wi) + wabs_max
        pts = [[x - sx, y - sy] for x, y in verts]
        reach = None
        for j in row[1:]:
            if reach is None:  # the ring changed: R, and site i's largest power over it
                R = math.sqrt(max([x * x + y * y for x, y in pts]))
                reach = R * R - wi
            dx, dy = xs[j] - xi, ys[j] - yi
            stop = dx * dx + dy * dy
            dist = math.sqrt(stop)
            if dist > R and (dist - R) ** 2 - w_max >= reach + _STOP_SLACK * (stop + wabs):
                break
            clipped = _clip_halfplane(pts, 2.0 * dx, 2.0 * dy, stop + (wi - w[j]))
            if clipped is None:
                raise DegenerateConfigurationError(f"power cell {i} is empty")
            if clipped is not pts:
                pts, reach = clipped, None
        else:
            stop = math.inf
        yield [[x + sx, y + sy] for x, y in pts], stop


def _power_cell(i: int, ring: list) -> list:
    """The validated CCW vertex list of power cell i's clipped ring
    (``_convex_ring``), its ValidationError raised as a
    DegenerateConfigurationError."""
    try:
        return _convex_ring(ring)[0]
    except ValidationError as exc:
        raise DegenerateConfigurationError(f"power cell {i}: {exc}") from exc


def power_diagram_cells(cfg: SeedConfiguration, container: ConvexPolygon):
    """The k power cells clipped to the container (they tile it up to measure zero).

    Cell i is the set where |x - s_i|^2 - w_i is minimal, i.e. the container
    intersected with the k-1 radical-axis half-planes, of which only the few
    that can cut are clipped (``_power_rings``).  Twin seeds (squared
    distance 0, an underflow included), an empty cell, or a cell that fails
    ``ConvexPolygon`` validation (a sliver that cleans up to fewer than 3
    vertices, say) raise DegenerateConfigurationError; ``SeedConfiguration``
    leaves the twin check to this call.  A configuration with k = 0 has no
    cells.
    """
    cells = []
    for i, (ring, _) in enumerate(_power_rings(cfg.seeds, cfg.weights, container, range(cfg.k))):
        try:
            cells.append(ConvexPolygon(ring))
        except ValidationError as exc:
            raise DegenerateConfigurationError(f"power cell {i}: {exc}") from exc
    return cells


def hex_lattice_seeds(k: int, container: ConvexPolygon) -> np.ndarray:
    """k hexagonal-lattice points inside the container (closest to the centroid)."""
    verts = container.vertices
    centroid = verts.mean(axis=0)
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    area = container.area
    spacing = math.sqrt(2.0 * area / (math.sqrt(3.0) * k))
    tol = -1e-9 * container.extent
    for _ in range(40):
        xs = np.arange(lo[0] - spacing, hi[0] + spacing, spacing)
        pts = []
        row = 0
        y = lo[1] + 0.25 * spacing
        while y < hi[1]:
            row_x = xs + (0.5 * spacing if row % 2 else 0.0)
            pts += [(x, y) for x in row_x[container.contains(row_x, y, tol)]]
            row += 1
            y += spacing * math.sqrt(3.0) / 2.0
        if len(pts) >= k:
            pts = np.asarray(pts)
            d = np.hypot(pts[:, 0] - centroid[0], pts[:, 1] - centroid[1])
            return pts[np.argsort(d, kind="stable")[:k]]
        spacing *= 0.93
    raise OptimizationError(f"could not seed {k} lattice points in the container")


def _random_seeds(k: int, container: ConvexPolygon, rng: np.random.Generator) -> np.ndarray:
    lo = container.vertices.min(axis=0)
    hi = container.vertices.max(axis=0)
    pts = []
    for _ in range(100 * k + 100):
        q = lo + rng.random(2) * (hi - lo)
        if container.contains(q[0], q[1]):
            pts.append(q)
            if len(pts) == k:
                return np.asarray(pts)
    raise OptimizationError("rejection sampling for random seeds failed")


@dataclass(frozen=True)
class OptimizationTrace:
    """Best value found, evaluation count, and the nonincreasing best-so-far history."""

    best_objective: float
    evaluations: int
    history: tuple  # (evaluation_index, best_so_far) pairs
    seed_config: SeedConfiguration
    k: int
    container_area: float
    min_scaled_evaluated: float

    @property
    def scaled_best(self) -> float:
        return self.best_objective * math.sqrt(self.container_area / self.k)


class _Diagram(NamedTuple):
    """One evaluated diagram: each site's clipped ring, its validated vertex
    list (``_convex_ring``), h and stop (``_power_rings``).

    The blank diagram of a search with no finite value yet has no rings and
    cells, h = +inf and every stop +inf, so a probe from it clips every site.
    """

    rings: list
    cells: list
    hs: np.ndarray
    stops: np.ndarray


def _blank(k: int) -> _Diagram:
    return _Diagram([None] * k, [None] * k, np.full(k, math.inf), np.full(k, math.inf))


def _affected(x: np.ndarray, q: np.ndarray, i: int, stops: np.ndarray) -> np.ndarray:
    """The mask of the sites whose rings the move of coordinate i from x to q can change.

    x and q are flattened (seeds, weights) vectors.  The move takes site p
    from s_p to s_p' (s_p' = s_p for a weight).  It can change ring j only if
    p sorts up to j's stop before or after it: |s_p - s_j|^2 <= stop_j or
    |s_p' - s_j|^2 <= stop_j, each computed as in j's row of
    ``_power_rings``.  Every other ring visits the same sites with the same
    half-planes up to the same stop.  The stop tests read max w and max |w|,
    so a weight move that changes either reaches every site.
    """
    k = len(stops)
    if i >= 2 * k:
        p, ends = i - 2 * k, (x,)
        w, v = x[2 * k:], q[2 * k:]
        if w.max() != v.max() or np.abs(w).max() != np.abs(v).max():
            return np.ones(k, dtype=bool)
    else:
        p, ends = i // 2, (x, q)
    xs, ys = x[0:2 * k:2], x[1:2 * k:2]
    mask = np.zeros(k, dtype=bool)
    for end in ends:
        dx = end[2 * p] - xs
        dy = end[2 * p + 1] - ys
        mask |= dx * dx + dy * dy <= stops
    mask[p] = True
    return mask


def _compass_search(container, x, fx, diagram: _Diagram, steps, left: int, xtol: float,
                    records, lower):
    """Deterministic compass search (Kolda, Lewis & Torczon, SIAM Rev. 45, 2003).

    x is the flattened (seeds, weights) vector.  Starts at x with the value fx
    and its ``diagram``, or evaluates x first, as a whole diagram, when fx is
    None.  A pass probes x + steps[i] e_i for every coordinate i in order,
    then x - steps[i] e_i, and moves to every probe that lowers the value; a
    pass with no move halves every step.  A probe clips only the sites its
    move can reach (``_affected``) and keeps the rest of the incumbent's
    diagram.  A probe that leaves a cell with the incumbent's largest h alone
    cannot win: it is rejected without clipping and records the incumbent's
    value (``_eval_config``).  Every probe, rejected so or not, is one of the
    ``left`` evaluations.  Stops after ``left`` evaluations or when the
    largest step falls below ``xtol``.
    """
    k = len(diagram.rings)
    x = np.array(x, dtype=float)
    steps = np.array(steps, dtype=float)
    if fx is None:
        if left <= 0:
            return x, math.inf
        fx, diagram = _eval_config(container, x[: 2 * k].reshape(k, 2), x[2 * k:], records,
                                   lower, diagram, np.ones(k, dtype=bool))
        left -= 1
    while steps.max() >= xtol:
        moved = False
        for sign in (1.0, -1.0):
            for i in range(len(x)):
                if left <= 0:
                    return x, fx
                left -= 1
                q = x.copy()
                q[i] += sign * steps[i]
                fq, dq = _eval_config(container, q[: 2 * k].reshape(k, 2), q[2 * k:], records,
                                      lower, diagram, _affected(x, q, i, diagram.stops))
                if fq < fx:
                    x, fx, diagram, moved = q, fq, dq, True
        if not moved:
            steps *= 0.5
    return x, fx


def _eval_config(container, seeds, weights, records, lower, incumbent: _Diagram, affected):
    """One objective evaluation; returns (value, diagram), value +inf on degeneracy.

    The diagram differs from the ``incumbent`` only in the rings of the sites
    in the mask ``affected``, so only those are clipped; every other site keeps
    the incumbent's ring, cell, h and stop.  A clipped ring that comes out
    float for float equal to the incumbent's takes its cell and h too:
    validation and the solve are deterministic functions of the ring, so the
    reuse is exact.  If a site outside ``affected`` has the incumbent's largest
    h, this diagram's value is at least the incumbent's: nothing is clipped,
    and the incumbent's value, which was checked against the floor when it
    was evaluated, is recorded and returned with the incumbent.  A degenerate diagram records +inf and
    returns a blank diagram.
    """
    fx = float(incumbent.hs.max())
    if (incumbent.hs[~affected] >= fx).any():
        records.append(fx)
        return fx, incumbent
    chosen = np.flatnonzero(affected)
    rings, cells = list(incumbent.rings), list(incumbent.cells)
    hs, stops = incumbent.hs.copy(), incumbent.stops.copy()
    fresh = []
    try:
        for i, (ring, stop) in zip(chosen.tolist(),
                                   _power_rings(seeds, weights, container, chosen)):
            stops[i] = stop
            if ring != rings[i]:
                rings[i], cells[i] = ring, _power_cell(i, ring)
                fresh.append(i)
    except DegenerateConfigurationError:
        records.append(math.inf)
        return math.inf, _blank(len(weights))
    for i in fresh:
        hs[i] = 1.0 / _cheeger_loop(cells[i])[0]
    value = float(hs.max())
    if value < lower:
        raise OptimizationError(
            f"evaluated objective {value} beats the certified lower bound; "
            "the Cheeger solver is inconsistent"
        )
    records.append(value)
    return value, _Diagram(rings, cells, hs, stops)


def _polygon_centroid(v: list) -> list:
    """[x, y] of the centroid of a validated vertex list, taken relative to
    its first vertex as ``cheeger._shoelace`` takes area, so a cell far from
    the origin keeps its digits."""
    x0, y0 = v[0]
    xa, ya = v[1][0] - x0, v[1][1] - y0
    a = sx = sy = 0.0
    for x, y in v[2:]:
        xb, yb = x - x0, y - y0
        c = xa * yb - ya * xb
        a += c
        sx += (xa + xb) * c
        sy += (ya + yb) * c
        xa, ya = xb, yb
    return [x0 + sx / (3.0 * a), y0 + sy / (3.0 * a)]


def _precondition(k, container, seeds, left, lower, records):
    """Lloyd smoothing then weight balancing toward equal per-cell Cheeger values.

    Lloyd steps cost no objective evaluations (geometry only); each balancing
    step is a whole-diagram evaluation, and min(40, left - 10) of them run.
    Returns the best balanced (value, seeds, weights, diagram); the value is
    None, and the diagram blank, when no balancing step ran.
    """
    w = np.zeros(k)
    for _ in range(6):
        try:
            rings = _power_rings(seeds, w, container, range(k))
            cells = [_power_cell(i, ring) for i, (ring, _) in enumerate(rings)]
        except DegenerateConfigurationError:
            return None, seeds, w, _blank(k)
        seeds = np.array([_polygon_centroid(c) for c in cells])
    s2 = container.area / k
    everyone = np.ones(k, dtype=bool)
    diagram = _blank(k)
    best = (None, seeds, w, diagram)
    for _ in range(min(40, left - 10)):
        value, diagram = _eval_config(container, seeds, w, records, lower, diagram, everyone)
        if best[0] is None or value < best[0]:
            best = (value, seeds, w, diagram)
        if value == math.inf:
            break
        hs = diagram.hs
        w = w + 0.6 * s2 * (hs - hs.mean()) / hs.mean()
        seeds = 0.7 * seeds + 0.3 * np.array([_polygon_centroid(c) for c in diagram.cells])
    return best


def optimize(
    k: int,
    container: ConvexPolygon,
    budget: int = 3000,
    seed: int = 0,
    restarts: int = 8,
) -> OptimizationTrace:
    """Compass search for a good k-cell power-diagram partition.

    Runs a hexagonal-lattice start plus ``restarts`` random starts, each with
    an equal share of the evaluation budget (the lattice start also takes the
    remainder, all of it when budget < restarts + 1), so at most ``budget``
    evaluations run.  An evaluation is a balancing step, a start point or a
    compass probe; a probe that cannot beat its incumbent is rejected without
    clipping and records the incumbent's value, so the history, which keeps
    only strict improvements, is that of scoring every probe.  The lattice
    start is smoothed first and spends min(40, share - 10) evaluations on
    weight balancing; its search starts at the best balanced point without
    scoring it again.  A random start's search scores its start point first.
    The compass steps start at a quarter cell width on the seeds and
    (diameter / max(k, 2))^2 / 5 on the weights, and stop below 1e-6
    diameters.  The result is deterministic for fixed (seed, budget,
    restarts); on a tie the last start that reaches the best value wins.
    """
    if k < 1 or budget < 1 or seed < 0 or restarts < 0:
        raise ValidationError("need k >= 1, budget >= 1, seed >= 0 and restarts >= 0")
    rng = np.random.default_rng(seed)
    area = container.area
    diam = float(np.ptp(container.vertices, axis=0).max())
    starts = [hex_lattice_seeds(k, container)]
    starts += [_random_seeds(k, container, rng) for _ in range(restarts)]

    share = budget // len(starts)
    steps = np.repeat([0.25 * math.sqrt(area / k), 0.2 * (diam / max(k, 2)) ** 2], [2 * k, k])
    xtol = 1e-6 * diam
    lower = hexagon_constant() * math.sqrt(k / area) * (1.0 - 1e-9)

    records = []  # every evaluation's value, in evaluation order
    best_x, best_f = None, math.inf
    for n, seeds in enumerate(starts):
        left = budget - share * restarts if n == 0 else share
        value, w, diagram = None, np.zeros(k), _blank(k)
        if n == 0:
            value, seeds, w, diagram = _precondition(k, container, seeds, left, lower, records)
            left -= len(records)
        x, fx = _compass_search(container, np.concatenate([seeds.ravel(), w]), value, diagram,
                                steps, left, xtol, records, lower)
        if fx <= best_f:  # fx is the least value of its start
            best_x, best_f = x, fx
    if not math.isfinite(best_f):
        raise OptimizationError("no feasible configuration found within the budget")

    history, low = [], math.inf
    for i, rec in enumerate(records, 1):
        if rec < low:
            low = rec
            history.append((i, rec))
    return OptimizationTrace(
        best_objective=best_f,
        evaluations=len(records),
        history=tuple(history),
        seed_config=SeedConfiguration(best_x[: 2 * k].reshape(k, 2), best_x[2 * k:]),
        k=k,
        container_area=area,
        # the least finite value evaluated is the best one
        min_scaled_evaluated=best_f * math.sqrt(area / k),
    )


class AsymptoticRow(NamedTuple):
    k: int
    best_objective: float
    scaled: float
    ratio: float


def asymptotic_report(
    ks: Sequence[int],
    container: ConvexPolygon,
    budget: int = 3000,
    seed: int = 0,
    restarts: int = 8,
):
    """Optimizer upper bounds for each k, scaled by sqrt(|T|/k) and divided by h(H).

    What it checks is that every ratio is at least 1 - 1e-9, the certified
    lower bound.  The ratios need not fall with k (on the unit triangle they
    read 1.0388, 1.0748 and 1.0878 at k = 64, 256 and 1024), and the
    infinite-k limit is out of reach numerically.
    """
    if not ks or list(ks) != sorted(set(int(k) for k in ks)):
        raise ValidationError("ks must be a nonempty strictly increasing list")
    h_ref = hexagon_constant()
    rows = []
    for k in ks:
        trace = optimize(int(k), container, budget=budget, seed=seed, restarts=restarts)
        scaled = trace.scaled_best
        ratio = scaled / h_ref
        if ratio < 1.0 - 1e-9:
            raise OptimizationError(f"ratio {ratio} below 1 at k={k}: solver inconsistency")
        rows.append(AsymptoticRow(int(k), trace.best_objective, scaled, ratio))
    return rows


def trace_to_dict(trace: OptimizationTrace) -> dict:
    return {
        "best_objective": trace.best_objective,
        "evaluations": trace.evaluations,
        "history": [[int(i), v] for i, v in trace.history],
        "seeds": [[float(x), float(y)] for x, y in trace.seed_config.seeds],
        "weights": [float(w) for w in trace.seed_config.weights],
        "k": trace.k,
        "container_area": trace.container_area,
        "scaled_best": trace.scaled_best,
        "min_scaled_evaluated": trace.min_scaled_evaluated,
    }
