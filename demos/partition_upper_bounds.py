"""Bracketing the optimal partition value between a numerical upper bound and a certified lower bound.

The optimizer tiles the unit-area equilateral triangle with power-diagram
cells and descends on seeds and weights.  In exact arithmetic every evaluated
configuration would be an admissible cluster; in floating point its cells
are admissible only up to rounding, so each evaluation is an upper bound up
to that rounding, not a verified one.  The certified lower bound is
h(H) sqrt(k).  The paper's theorem says the scaled ratio upper/lower of the
optimal clusters tends to 1 as k grows, because the hexagonal interior comes
to dominate the boundary effects.  The optimizer's own ratio does not follow
it yet: it falls over the k <= 16 rows below but rises past k = 64 (1.0388 at
k = 64 with budget 220, 1.0748 at k = 256 with budget 50), since at large k
its budget runs out inside the first compass pass.

The last table times one power diagram on lattice seeds at large k: each
cell is clipped only by the half-planes of its nearest sites, up to the
security-radius stop, so the clip count grows like k rather than k^2.  Next
to it is one compass probe that moves the worst cell's site by a quarter cell
width: it re-clips only the sites whose stop the moved site falls within,
and validates and solves only the cells that changed.
"""

import math
import time

import numpy as np

from cheegerlab import partition_optimizer
from cheegerlab.cheeger import hexagon_constant, regular_polygon
from cheegerlab.cluster import honeycomb_cluster, objective
from cheegerlab.partition_optimizer import (
    SeedConfiguration,
    hex_lattice_seeds,
    optimize,
    power_diagram_cells,
)

triangle = regular_polygon(3, area=1.0)
h_ref = hexagon_constant()

print("k    budget  upper bound   scaled     ratio to h(H)   time")
for k, budget, restarts in ((1, 60, 2), (4, 1200, 4), (9, 900, 3), (16, 600, 2)):
    t0 = time.perf_counter()
    trace = optimize(k, triangle, budget=budget, seed=0, restarts=restarts)
    dt = time.perf_counter() - t0
    print(f"{k:<4d} {budget:<7d} {trace.best_objective:<13.6f} "
          f"{trace.scaled_best:<10.6f} {trace.scaled_best / h_ref:<15.6f} {dt:4.1f}s")

print(f"\ncertified floor: scaled value can never drop below h(H) = {h_ref:.6f}")
print("(every diagram the search clips and solves is checked against it; a probe\n"
      " rejected without clipping records its incumbent's value, which was checked)")

print("\nhoneycomb incumbents on k-triangles (the equality case):")
for l in (1, 2, 3, 4):
    cl = honeycomb_cluster(l)
    scaled = objective(cl, math.inf) * math.sqrt(cl.container_area / cl.k)
    print(f"  k = {cl.k:2d}: scaled = {scaled:.12f}  ratio = {scaled / h_ref:.12f}")

print("\nnote: k = 1 recovers the triangle's own Cheeger constant "
      f"sqrt(pi) + 3^(3/4) = {math.sqrt(math.pi) + 3 ** 0.75:.9f}")

print("\none lattice power diagram (weights uniform in +-5% of the mean cell area),")
print("and one compass probe from it (x of the worst cell's site + a quarter cell width):")
print("k     diagram: time     clips  per cell  (k(k-1))   probe: sites  clips    time")
clip = partition_optimizer._clip_halfplane
clips = 0


def counted(*args):
    global clips
    clips += 1
    return clip(*args)


def timed_and_counted(run):
    """Time of run(), then its clip count on a second, untimed call."""
    global clips
    t0 = time.perf_counter()
    run()
    dt = time.perf_counter() - t0
    clips = 0
    partition_optimizer._clip_halfplane = counted
    run()
    partition_optimizer._clip_halfplane = clip
    return dt, clips


for k in (256, 1024):
    rng = np.random.default_rng(0)
    cfg = SeedConfiguration(hex_lattice_seeds(k, triangle),
                            rng.uniform(-0.05, 0.05, k) * triangle.area / k)
    dt, n = timed_and_counted(lambda: power_diagram_cells(cfg, triangle))
    everyone = np.ones(k, dtype=bool)
    _, incumbent = partition_optimizer._eval_config(
        triangle, cfg.seeds, cfg.weights, [], 0.0, partition_optimizer._blank(k), everyone)
    x = np.concatenate([cfg.seeds.ravel(), cfg.weights])
    i = 2 * int(np.argmax(incumbent.hs))
    q = x.copy()
    q[i] += 0.25 * math.sqrt(triangle.area / k)
    affected = partition_optimizer._affected(x, q, i, incumbent.stops)
    dt_probe, n_probe = timed_and_counted(lambda: partition_optimizer._eval_config(
        triangle, q[:2 * k].reshape(k, 2), q[2 * k:], [], 0.0, incumbent, affected))
    print(f"{k:<5d} {1e3 * dt:9.0f} ms {n:9d} {n / k:8.1f} {k * (k - 1):10d}"
          f"   {int(affected.sum()):11d} {n_probe:6d} {1e3 * dt_probe:6.1f} ms")
