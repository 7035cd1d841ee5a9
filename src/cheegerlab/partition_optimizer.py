"""Upper bounds for the max-Cheeger partition value via power-diagram descent.

Cells of a power diagram clipped to a convex container are convex polygons, so
the convex Cheeger solver is exact on each cell and every evaluated
configuration is an admissible cluster; the reported objective is therefore a
rigorous upper bound for the optimal value.  The optimal cells of the true
problem are non-convex arc domains, so this family only brackets the optimum
from above; the certified lower bound h(H) sqrt(k/|T|) brackets it from below.

The search is a deterministic Nelder-Mead on the flattened (seeds, weights)
vector, with a hexagonal-lattice start plus uniform-random restarts.
Degenerate diagrams score +inf so the simplex can move away from them.

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


def _power_rings(cfg: SeedConfiguration, container: ConvexPolygon):
    """Yield each site's clipped ring, a list of [x, y], in site order.

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
    seeds, weights = cfg.seeds, cfg.weights
    k = cfg.k
    dx = seeds[None, :, 0] - seeds[:, None, 0]  # dx[i, j] = x_j - x_i
    dy = seeds[None, :, 1] - seeds[:, None, 1]
    d2 = dx * dx + dy * dy
    order = np.argsort(d2, axis=1, kind="stable")
    order = order[order != np.arange(k)[:, None]].reshape(k, k - 1)  # drop site i
    rows = np.arange(k)[:, None]
    d2 = d2[rows, order]
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
    return [_power_cell(i, ring) for i, ring in enumerate(_power_rings(cfg, container))]


def hex_lattice_seeds(k: int, container: ConvexPolygon) -> np.ndarray:
    """k hexagonal-lattice points inside the container (closest to the centroid)."""
    verts = container.vertices
    centroid = verts.mean(axis=0)
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    area = container.area
    spacing = math.sqrt(2.0 * area / (math.sqrt(3.0) * k))
    for _ in range(40):
        xs = np.arange(lo[0] - spacing, hi[0] + spacing, spacing)
        pts = []
        row = 0
        y = lo[1] + 0.25 * spacing
        while y < hi[1]:
            off = 0.5 * spacing if row % 2 else 0.0
            for x in xs:
                if container.contains(x + off, y, tol=-1e-9 * container.extent):
                    pts.append((x + off, y))
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


class _Budget:
    def __init__(self, total: int):
        self.left = total
        self.used = 0

    def take(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.used += 1
        return True


def _nelder_mead(f, x0, steps, budget: _Budget, xtol: float):
    """Deterministic reflect/expand/contract/shrink descent; first-found tie-break."""
    n = len(x0)
    pts = [np.array(x0, dtype=float)]
    for i in range(n):
        q = np.array(x0, dtype=float)
        q[i] += steps[i]
        pts.append(q)
    vals = []
    for q in pts:
        if not budget.take():
            pts = pts[: len(vals)]
            break
        vals.append(f(q))
    order = sorted(range(len(vals)), key=lambda i: (vals[i], i))
    pts = [pts[i] for i in order]
    vals = [vals[i] for i in order]
    while budget.left > 0 and len(pts) == n + 1:
        spread = max(float(np.abs(p - pts[0]).max()) for p in pts[1:])
        if spread < xtol and math.isfinite(vals[0]):
            break
        centroid = np.mean(pts[:-1], axis=0)
        worst = pts[-1]
        xr = centroid + (centroid - worst)
        if not budget.take():
            break
        fr = f(xr)
        if fr < vals[0]:
            if budget.take():
                xe = centroid + 2.0 * (centroid - worst)
                fe = f(xe)
                if fe < fr:
                    xr, fr = xe, fe
            pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            if not budget.take():
                break
            if fr < vals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (worst - centroid)
            fc = f(xc)
            if fc < min(fr, vals[-1]):
                pts[-1], vals[-1] = xc, fc
            else:
                # shrink toward the best vertex
                for i in range(1, n + 1):
                    if not budget.take():
                        pts = pts[:i]
                        vals = vals[:i]
                        break
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = f(pts[i])
                if len(pts) != n + 1:
                    break
        order = sorted(range(len(pts)), key=lambda i: (vals[i], i))
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
    return pts[0], vals[0]


def _eval_config(container, seeds, weights, records, lower, kept):
    """One objective evaluation; returns (value, cells, per-cell h) or inf on degeneracy.

    ``kept`` holds each site's (ring, cell, h) from the last finite evaluation
    of the same start.  A cell whose clipped ring equals its kept ring float
    for float takes the kept cell and h: validation and the solve are
    deterministic functions of the ring, so the reuse is exact.  Moving one
    coordinate, as each point of the start simplex does, leaves most rings
    unchanged.
    """
    try:
        cfg = SeedConfiguration(seeds, weights)
        fresh = []
        for i, (ring, old) in enumerate(zip(_power_rings(cfg, container), kept)):
            fresh.append(old if old is not None and old[0] == ring
                         else (ring, _power_cell(i, ring), None))
    except (DegenerateConfigurationError, ValidationError):
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


def _make_objective(k, container, records, kept):
    lower = hexagon_constant() * math.sqrt(k / container.area) * (1.0 - 1e-9)

    def f(x):
        value, _, _ = _eval_config(container, x[: 2 * k].reshape(k, 2), x[2 * k:],
                                   records, lower, kept)
        return value

    return f


def _polygon_centroid(poly: ConvexPolygon) -> np.ndarray:
    v = poly.vertices
    x, y = v[:, 0], v[:, 1]
    xn, yn = _next(x), _next(y)
    cr = x * yn - xn * y
    a = cr.sum() / 2.0
    return np.array([((x + xn) * cr).sum() / (6.0 * a), ((y + yn) * cr).sum() / (6.0 * a)])


def _precondition(k, container, seeds, budget: _Budget, records, kept):
    """Lloyd smoothing then weight balancing toward equal per-cell Cheeger values.

    Lloyd steps cost no objective evaluations (geometry only); each balancing
    step is a full evaluation and is charged against the budget.
    """
    w = np.zeros(k)
    for _ in range(6):
        try:
            cells = power_diagram_cells(SeedConfiguration(seeds, w), container)
        except (DegenerateConfigurationError, ValidationError):
            return seeds, w
        seeds = np.array([_polygon_centroid(c) for c in cells])
    lower = hexagon_constant() * math.sqrt(k / container.area) * (1.0 - 1e-9)
    s2 = container.area / k
    best = (math.inf, seeds, w)
    for _ in range(min(40, max(budget.left - 10, 0))):
        if not budget.take():
            break
        value, cells, hs = _eval_config(container, seeds, w, records, lower, kept)
        if cells is None:
            break
        if value < best[0]:
            best = (value, seeds, w)
        hs = np.asarray(hs)
        w = w + 0.6 * s2 * (hs - hs.mean()) / hs.mean()
        seeds = 0.7 * seeds + 0.3 * np.array([_polygon_centroid(c) for c in cells])
    return best[1], best[2]


def optimize(
    k: int,
    container: ConvexPolygon,
    budget: int = 3000,
    seed: int = 0,
    restarts: int = 8,
) -> OptimizationTrace:
    """Derivative-free search for a good k-cell power-diagram partition.

    Runs a hexagonal-lattice start plus ``restarts`` random restarts, each with
    an equal share of the evaluation budget; the result is deterministic for
    fixed (seed, budget, restarts).
    """
    if k < 1 or budget < 1:
        raise ValidationError("need k >= 1 and budget >= 1")
    rng = np.random.default_rng(seed)
    area = container.area
    diam = float(np.ptp(container.vertices, axis=0).max())
    wscale = (diam / max(k, 2)) ** 2

    starts = [hex_lattice_seeds(k, container)]
    for _ in range(restarts):
        starts.append(_random_seeds(k, container, rng))

    share = max(1, budget // len(starts))
    coord_step = 0.25 * math.sqrt(area / k)
    xtol = 1e-6 * diam

    def run_start(idx):
        records = []
        kept = [None] * k
        f = _make_objective(k, container, records, kept)
        local = _Budget(share if idx else share + budget - share * len(starts))
        seeds0 = starts[idx]
        w0 = np.zeros(k)
        if idx == 0:
            seeds0, w0 = _precondition(k, container, seeds0, local, records, kept)
        x0 = np.concatenate([seeds0.ravel(), w0])
        steps = np.concatenate([
            np.full(2 * k, coord_step),
            np.full(k, 0.2 * wscale),
        ])
        best_x, best_f = _nelder_mead(f, x0, steps, local, xtol)
        return best_x, best_f, records, local.used

    results = [run_start(i) for i in range(len(starts))]

    history = []
    best_x = None
    best_f = math.inf
    evaluations = 0
    min_scaled = math.inf
    scale_factor = math.sqrt(area / k)
    for x, fval, records, used in results:
        for rec in records:
            evaluations += 1
            if rec < best_f:
                best_f = rec
                history.append((evaluations, rec))
            if math.isfinite(rec):
                min_scaled = min(min_scaled, rec * scale_factor)
        if fval <= best_f:
            best_x = x
    if best_x is None or not math.isfinite(best_f):
        raise OptimizationError("no feasible configuration found within the budget")
    cfg = SeedConfiguration(best_x[: 2 * k].reshape(k, 2), best_x[2 * k:])
    return OptimizationTrace(
        best_objective=best_f,
        evaluations=evaluations,
        history=tuple(history),
        seed_config=cfg,
        k=k,
        container_area=area,
        min_scaled_evaluated=min_scaled,
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
