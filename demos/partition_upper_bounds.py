"""Bracketing the optimal partition value between certified bounds.

The optimizer tiles the unit-area equilateral triangle with power-diagram
cells (always an admissible cluster, so every evaluation is an upper bound)
and descends on seeds and weights.  The certified lower bound is
h(H) sqrt(k); the scaled ratio upper/lower shrinks as k grows because the
hexagonal interior dominates the boundary effects.

The last table times one power diagram on lattice seeds at large k: each
cell is clipped only by the half-planes of its nearest sites, up to the
security-radius stop, so the clip count grows like k rather than k^2.
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
print("(every evaluated configuration is checked against it)")

print("\nhoneycomb incumbents on k-triangles (the equality case):")
for l in (1, 2, 3, 4):
    cl = honeycomb_cluster(l)
    scaled = objective(cl, math.inf) * math.sqrt(cl.container_area / cl.k)
    print(f"  k = {cl.k:2d}: scaled = {scaled:.12f}  ratio = {scaled / h_ref:.12f}")

print("\nnote: k = 1 recovers the triangle's own Cheeger constant "
      f"sqrt(pi) + 3^(3/4) = {math.sqrt(math.pi) + 3 ** 0.75:.9f}")

print("\none lattice power diagram (weights uniform in +-5% of the mean cell area):")
print("k     time      clips    clips per cell   (all k - 1 half-planes: k(k-1) clips)")
clip = partition_optimizer._clip_halfplane
clips = 0


def counted(*args):
    global clips
    clips += 1
    return clip(*args)


for k in (256, 1024):
    rng = np.random.default_rng(0)
    cfg = SeedConfiguration(hex_lattice_seeds(k, triangle),
                            rng.uniform(-0.05, 0.05, k) * triangle.area / k)
    t0 = time.perf_counter()
    power_diagram_cells(cfg, triangle)
    dt = time.perf_counter() - t0
    clips = 0
    partition_optimizer._clip_halfplane = counted  # count on a second, untimed run
    power_diagram_cells(cfg, triangle)
    partition_optimizer._clip_halfplane = clip
    print(f"{k:<5d} {1e3 * dt:6.0f} ms {clips:8d} {clips / k:10.1f}        {k * (k - 1):9d}")
