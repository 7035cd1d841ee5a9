"""Disk-chain area bounds behind the empty-chamber estimate.

The region enclosed by a chain of consecutively tangent disks (closed, resting
on a line, or wedged in a 60-degree sector) is bounded below by combinations
of three reference areas.  The bounds are tight at the equal-radius
configurations and survive randomized sweeps.  Writes a chain figure to
chain.svg.
"""

import math

import numpy as np

from cheegerlab.chamber_lemmas import (
    DiskChain,
    chain_region_area,
    chain_to_dict,
    phi,
    pocket_outline,
    random_chain,
    reference_areas,
    run_chain_sweep,
    tangency_geometry,
    verify_chain_bound,
)
from cheegerlab.arc_geometry import signed_area
from cheegerlab.cli import render_svg

delta, wedge, corner = reference_areas(1.0)
print("reference areas at r = 1:")
print(f"  three tangent disks   |Delta| = {delta:.7f}")
print(f"  two disks on a line   |wedge| = {wedge:.7f}")
print(f"  disk in a pi/3 corner |corner| = {corner:.7f}")

tri = DiskChain(np.array([[0, 0], [2, 0], [1, math.sqrt(3)]]), [1, 1, 1], "closed")
dec = chain_region_area(tri)
outline = signed_area(pocket_outline(tri))
print("\nthree tangent unit disks (equality case of the closed bound):")
print(f"  decomposition:  {dec.area:.12f}")
print(f"  pocket outline: {outline:.12f}  (Gauss-Green area of the arc boundary)")

print("\ntangency geometry (symmetric case r1 = r2 = r3 = 1):")
x0, y0, d1, d3 = tangency_geometry(1.0, 1.0, 1.0)
print(f"  middle center ({x0:.6f}, {y0:.6f}), dtheta/dr2 = {d1:.7f} (both positive)")

print(f"\npocket-area functions: pentagon min = {phi('pentagon', math.pi / 3):.7f} "
      f"(= 1/2 + sqrt(3)/4), sector value at pi/2 = {phi('sector', math.pi / 2, aux=1.0):.7f}")

print("\nrandomized sweeps (300 chains per flavor, m in 3..6):")
for flavor in ("closed", "half_plane", "sector"):
    records, violations = run_chain_sweep(flavor, 300, seed=1)
    slack = min(r["area"] - r["bound"] for r in records)
    print(f"  {flavor:10s}: {len(violations)} violations, minimal slack {slack:.6f}")

chain = random_chain("sector", 5, seed=3)
rep = verify_chain_bound(chain)
print(f"\nsample sector chain (m = 5): area {rep.area:.6f} >= bound {rep.bound:.6f}")
with open("chain.svg", "w", encoding="utf-8") as fh:
    fh.write(render_svg(chain_to_dict(chain)))
print("wrote chain.svg")
