"""Upper bounds for the max-Cheeger partition value via power-diagram descent.

Cells of a power diagram clipped to a convex container are convex polygons, so
the convex Cheeger solver is exact on each cell and every evaluated
configuration is an admissible cluster; the reported objective is therefore a
rigorous upper bound for the optimal value.  The optimal cells of the true
problem are non-convex arc domains, so this family only brackets the optimum
from above; the certified lower bound h(H) sqrt(k/|T|) brackets it from below.

The search is a deterministic compass search on the flattened (seeds,
weights) vector, with a hexagonal-lattice start plus uniform-random restarts.
The lattice start spends min(40, share - 10) of its evaluations on weight
balancing, and its search starts at the best balanced point without scoring
it again.  Each probe moves one coordinate, and degenerate diagrams score
+inf, so a probe into one is never kept.

One evaluation clips the container, in coordinates centred on each site, by
the radical-axis half-planes of the other sites, nearest first, and stops at
the security radius (Levy & Bonneel, IMR 2012, with power weights): once
the next site is so far that its half-plane holds the disk around the site
that contains the ring, no later one can cut.  The clips use a plain-float
kernel that returns a ring unchanged when a half-plane cuts nothing; the
ring is cleaned once, when it is validated as a ``ConvexPolygon``.  Each
optimizer start keeps the last evaluation's ring, cell and h per site, and a
cell whose ring comes out float for float the same is neither validated nor
solved again.  Only h is read from each Cheeger solve, so no Cheeger-set
curve is built.  In one batch of the benchmark's ``partition`` workload
(k = 16 and 64, seed 5: 25 395 clips, 2 907 validations, 2 427 solves) clipping
takes about two fifths of the time, the Cheeger solves a quarter and cell
validation a fifth.  A lattice diagram clips six to nine half-planes per
cell from k = 16 to k = 1024, so the clip count grows about like k, not k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cheeger import (
    ConvexPolygon,
    _clip_halfplane,
    _next,
    cheeger_convex,
    hexagon_constant,
)
from .errors import DegenerateConfigurationError, OptimizationError, ValidationError


@dataclass(frozen=True)
class SeedConfiguration:
    """Power-diagram sites and weights; seeds must be pairwise distinct."""

    seeds: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        seeds = np.atleast_2d(np.asarray(self.seeds, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if seeds.shape[1] != 2 or len(weights) != len(seeds):
            raise ValidationError("seeds must be (k, 2) with one weight per seed")
        if not (np.isfinite(seeds).all() and np.isfinite(weights).all()):
            raise ValidationError("non-finite seed configuration")
        k = len(seeds)
        if k > 1:
            d2 = ((seeds[:, None, :] - seeds[None, :, :]) ** 2).sum(-1)
            d2[np.arange(k), np.arange(k)] = np.inf
            if d2.min() <= 0.0:
                raise ValidationError("seeds must be pairwise distinct")
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


def _neighbors(table: np.ndarray, head: int = 32):
    """The rows of one site's neighbor table as float lists, the nearest ``head``
    first: a cell rarely needs more, so most of a large row is never converted."""
    yield from table[:head].tolist()
    yield from table[head:].tolist()


def _power_rings(seeds: np.ndarray, weights: np.ndarray, container: ConvexPolygon):
    """Yield each site's clipped ring, a list of [x, y], in site order.

    ``seeds`` (k, 2) and ``weights`` (k) are finite; two equal seeds raise
    DegenerateConfigurationError.

    Cell i is clipped in coordinates centred on s_i, where the radical-axis
    half-plane of site j is ``2 d.y <= |d|^2 + w_i - w_j`` with d = s_j - s_i:
    no offset carries |s|^2, whose rounding grows with the distance from the
    origin, so a translated diagram keeps its digits.  The other sites are
    visited nearest first (a stable argsort of |d|^2, once per diagram), and
    the loop stops at the first site with |d| > R and
    ``(|d| - R)^2 - max w >= R^2 - w_i``, where R is the largest distance from
    s_i to the ring, recomputed when a clip changes the ring (the security
    radius of Levy & Bonneel, IMR 2012, with power weights as in Aurenhammer,
    SIAM J. Comput. 16, 1987).  For |y| <= R < |d| it gives |y|^2 - w_i <=
    (|d| - R)^2 - max w <= |y - d|^2 - w_j, so that site's half-plane and, the
    left side growing with |d|, every later one holds the whole ring.

    The kernel decides with the computed ``x*nx + y*ny - c``, so the stop also
    asks the gap to exceed the rounding, with u = 2^-53 and in units of
    |d|^2 + |w_i| + max|w| (the test implies |d| >= 2R): the products and
    their sum err by 2u, the offset by 3u and R by 2.2u, evaluating the test
    by 9u, and a later site's |d| may fall short of this one's by 4u through
    the rounding of the sort key.  ``_STOP_SLACK`` = 2^-48 = 32u covers their
    sum, about 20u.  Every skipped clip would therefore have returned the
    ring unchanged, and the rings are bit for bit those of the same loop run
    over every site.
    """
    k = len(weights)
    dx = seeds[None, :, 0] - seeds[:, None, 0]  # dx[i, j] = x_j - x_i
    dy = seeds[None, :, 1] - seeds[:, None, 1]
    d2 = dx * dx + dy * dy
    order = np.argsort(d2, axis=1, kind="stable")
    order = order[order != np.arange(k)[:, None]].reshape(k, k - 1)  # drop site i
    rows = np.arange(k)[:, None]
    d2 = d2[rows, order]
    if k > 1 and not d2[:, 0].min() > 0.0:
        raise DegenerateConfigurationError("seeds must be pairwise distinct")
    wabs = np.abs(weights)
    table = np.stack([
        2.0 * dx[rows, order],
        2.0 * dy[rows, order],
        d2 + (weights[:, None] - weights[order]),
        np.sqrt(d2),
        _STOP_SLACK * (d2 + (wabs[:, None] + wabs.max())),
    ], axis=-1)
    w = weights.tolist()
    w_max = max(w)
    # + 0.0 turns a -0.0 coordinate into 0.0, so no ring vertex is -0.0 and ==
    # on two rings (``_eval_config``) compares them float for float
    sites = (seeds + 0.0).tolist()
    verts = container.vertices.tolist()
    for i in range(k):
        sx, sy = sites[i]
        pts = [[x - sx, y - sy] for x, y in verts]
        reach = None
        for nx, ny, c, dist, slack in _neighbors(table[i]):
            if reach is None:  # the ring changed: R, and site i's largest power over it
                R = math.sqrt(max([x * x + y * y for x, y in pts]))
                reach = R * R - w[i]
            if dist > R and (dist - R) ** 2 - w_max >= reach + slack:
                break
            clipped = _clip_halfplane(pts, nx, ny, c)
            if clipped is None:
                raise DegenerateConfigurationError(f"power cell {i} is empty")
            if clipped is not pts:
                pts, reach = clipped, None
        yield [[x + sx, y + sy] for x, y in pts]


def _power_cell(i: int, ring: list) -> ConvexPolygon:
    try:
        return ConvexPolygon(ring)
    except ValidationError as exc:
        raise DegenerateConfigurationError(f"power cell {i}: {exc}") from exc


def power_diagram_cells(cfg: SeedConfiguration, container: ConvexPolygon):
    """The k power cells clipped to the container (they tile it up to measure zero).

    Cell i is the set where |x - s_i|^2 - w_i is minimal, i.e. the container
    intersected with the k-1 radical-axis half-planes, of which only the few
    that can cut are clipped (``_power_rings``).  An empty cell, or one that
    fails ``ConvexPolygon`` validation (a sliver that cleans up to fewer than 3
    vertices, say), raises DegenerateConfigurationError.
    """
    rings = _power_rings(cfg.seeds, cfg.weights, container)
    return [_power_cell(i, ring) for i, ring in enumerate(rings)]


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


def _compass_search(f, x, fx, steps, left: int, xtol: float):
    """Deterministic compass search (Kolda, Lewis & Torczon, SIAM Rev. 45, 2003).

    Starts at x with the value fx, or evaluates x first when fx is None.  A
    pass probes x + steps[i] e_i for every coordinate i in order, then
    x - steps[i] e_i, and moves to every probe that lowers f; a pass with no
    move halves every step.  Stops after ``left`` evaluations or when the
    largest step falls below ``xtol``.
    """
    x = np.array(x, dtype=float)
    steps = np.array(steps, dtype=float)
    if fx is None:
        fx, left = (f(x), left - 1) if left > 0 else (math.inf, 0)
    while steps.max() >= xtol:
        moved = False
        for sign in (1.0, -1.0):
            for i in range(len(x)):
                if left <= 0:
                    return x, fx
                left -= 1
                q = x.copy()
                q[i] += sign * steps[i]
                fq = f(q)
                if fq < fx:
                    x, fx, moved = q, fq, True
        if not moved:
            steps *= 0.5
    return x, fx


def _eval_config(container, seeds, weights, records, lower, kept):
    """One objective evaluation; returns (value, cells, per-cell h) or inf on degeneracy.

    ``kept`` holds each site's (ring, cell, h) from the last finite evaluation
    of the same start.  A cell whose clipped ring equals its kept ring float
    for float takes the kept cell and h: validation and the solve are
    deterministic functions of the ring, so the reuse is exact.  Moving one
    coordinate, as each compass probe does, leaves most rings unchanged.
    """
    try:
        fresh = []
        for i, (ring, old) in enumerate(zip(_power_rings(seeds, weights, container), kept)):
            fresh.append(old if old is not None and old[0] == ring
                         else (ring, _power_cell(i, ring), None))
    except DegenerateConfigurationError:
        records.append(math.inf)
        return math.inf, None, None
    kept[:] = [(ring, cell, cheeger_convex(cell).h if h is None else h)
               for ring, cell, h in fresh]
    hs = [h for _, _, h in kept]
    value = max(hs)
    if value < lower:
        raise OptimizationError(
            f"evaluated objective {value} beats the certified lower bound; "
            "the Cheeger solver is inconsistent"
        )
    records.append(value)
    return value, [cell for _, cell, _ in kept], hs


def _polygon_centroid(poly: ConvexPolygon) -> np.ndarray:
    v = poly.vertices
    x, y = v[:, 0], v[:, 1]
    xn, yn = _next(x), _next(y)
    cr = x * yn - xn * y
    a = cr.sum() / 2.0
    return np.array([((x + xn) * cr).sum() / (6.0 * a), ((y + yn) * cr).sum() / (6.0 * a)])


def _precondition(k, container, seeds, left, lower, records, kept):
    """Lloyd smoothing then weight balancing toward equal per-cell Cheeger values.

    Lloyd steps cost no objective evaluations (geometry only); each balancing
    step is a full evaluation, and min(40, left - 10) of them run.  Returns
    the best balanced (seeds, weights, value) and leaves that point's (ring,
    cell, h) in ``kept``; the value is None when no balancing step ran.
    """
    w = np.zeros(k)
    for _ in range(6):
        try:
            cells = power_diagram_cells(SeedConfiguration(seeds, w), container)
        except (DegenerateConfigurationError, ValidationError):
            return seeds, w, None
        seeds = np.array([_polygon_centroid(c) for c in cells])
    s2 = container.area / k
    best = (None, seeds, w, kept[:])
    for _ in range(min(40, left - 10)):
        value, cells, hs = _eval_config(container, seeds, w, records, lower, kept)
        if best[0] is None or value < best[0]:
            best = (value, seeds, w, kept[:])
        if cells is None:
            break
        hs = np.asarray(hs)
        w = w + 0.6 * s2 * (hs - hs.mean()) / hs.mean()
        seeds = 0.7 * seeds + 0.3 * np.array([_polygon_centroid(c) for c in cells])
    kept[:] = best[3]
    return best[1], best[2], best[0]


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
    evaluations run.  The lattice start is smoothed first and spends min(40,
    share - 10) evaluations on weight balancing; its search starts at the
    best balanced point without scoring it again.  A random start's search
    scores its start point first.  The compass steps start at a quarter cell
    width on the seeds and (diameter / max(k, 2))^2 / 5 on the weights, and
    stop below 1e-6 diameters.  The result is deterministic for fixed (seed,
    budget, restarts); on a tie the last start that reaches the best value wins.
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
        kept = [None] * k
        left = budget - share * restarts if n == 0 else share
        w, value = np.zeros(k), None
        if n == 0:
            seeds, w, value = _precondition(k, container, seeds, left, lower, records, kept)
            left -= len(records)
        x, fx = _compass_search(
            lambda q: _eval_config(container, q[: 2 * k].reshape(k, 2), q[2 * k:],
                                   records, lower, kept)[0],
            np.concatenate([seeds.ravel(), w]), value, steps, left, xtol)
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

    Every ratio must be at least 1 - 1e-9 (the certified lower bound); the
    infinite-k limit is out of reach numerically, so the decreasing trend of
    the ratios is the checkable surrogate.
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
