"""Honeycomb clusters, canonical graph counting, and the lower-bound certificate.

Builds k-triangles of unit-area hexagons, checks the Euler/junction-count
identities with equality, and shows that the scaled partition objective of the
honeycomb equals the hexagon Cheeger constant exactly.  Writes the l = 3
cluster to honeycomb3.svg.
"""

from cheegerlab.cheeger import hexagon_constant
from cheegerlab.cli import render_svg
from cheegerlab.cluster import (
    canonical_graph,
    cluster_to_dict,
    honeycomb_cluster,
    lower_bound_certificate,
    theorem_lower_bound,
)

print("canonical graph counting (sum Lambda + E_out + 6 <= 6k, equality on honeycombs):")
for l in (2, 3, 4):
    cl = honeycomb_cluster(l)
    g = canonical_graph(cl)
    total = sum(g.lambdas) + g.e_out + 6
    print(f"  l = {l}: k = {cl.k:2d}  E_in = {g.e_in:2d}  E_out = {g.e_out:2d}  "
          f"F = {g.faces:2d}  count {total} <= {6 * cl.k}  Euler residual {g.euler_residual}")

print("\nTheorem-level equality of the scaled objective:")
for l in (1, 2, 3, 4, 5):
    cl = honeycomb_cluster(l)
    cert = lower_bound_certificate(cl)
    scaled = cert.scaled_objective
    print(f"  l = {l}: sqrt(|T_k|/k) * max h = {scaled:.12f}   h(H) = {hexagon_constant():.12f}")

print("\ncertificate bookkeeping for l = 3:")
cl = honeycomb_cluster(3)
cert = lower_bound_certificate(cl)
print(f"  final lhs (|T|/k) h*^2 = {cert.final_lhs:.7f}")
print(f"  final rhs h(H)^2       = {cert.final_rhs:.7f}")
print(f"  holds: {cert.holds}  (hexagonal cells carry no free arcs, so the")
print(f"  per-cell chain is marked not applicable: applicable = {cert.applicable})")
print(f"  empty chamber area = {cert.chamber.area:.2e} (exact tiling)")

print("\ncertified lower bounds for the equilateral triangle of area 1:")
for k in (10, 100, 1000):
    print(f"  M_{k} >= h(H) sqrt(k) = {theorem_lower_bound(k, 1.0):.6f}")

with open("honeycomb3.svg", "w", encoding="utf-8") as fh:
    fh.write(render_svg(cluster_to_dict(honeycomb_cluster(3))))
print("\nwrote honeycomb3.svg")
