"""The hexagonal isoperimetric inequality on inner Cheeger boundaries.

Places nodes on the inner boundary (collapse points of the free arcs plus the
exceptional border-corner nodes), computes the signed chord areas of the
portions in between, and evaluates the normalized length against the Hales
lower bound.  The regular hexagon with its six vertex nodes is the equality
case; randomized class-A domains never violate the bound.
"""

import math

from cheegerlab.arc_geometry import ArcCurve
from cheegerlab.cheeger import (
    inner_cheeger_boundary,
    random_class_a_domain,
    regular_polygon,
)
from cheegerlab.hales_deficit import NodeSet, hales_check, place_nodes

v = [tuple(p) for p in regular_polygon(6, area=1.0).vertices.tolist()]
hexagon = ArcCurve(tuple((*v[i], *v[(i + 1) % 6]) for i in range(6)))  # one (x0, y0, x1, y1) row per side
nodes = NodeSet(v, (False,) * 6)
rep = hales_check(hexagon, nodes, r_star=1.0 / math.sqrt(math.pi))
print("equality case (unit-area regular hexagon, 6 vertex nodes):")
print(f"  lhs = {rep.lhs:.12f}")
print(f"  rhs = {rep.rhs:.12f}")
print(f"  both equal 2 * 12^(1/4) = {2 * 12 ** 0.25:.12f}")

print("\nrandom class-A domains (nodes, truncated deficit, slack lhs - rhs):")
for seed in range(8):
    dom = random_class_a_domain(seed)
    off = inner_cheeger_boundary(dom)
    ns = place_nodes(off, dom)
    r = hales_check(off.curve, ns, r_star=dom.r)
    print(f"  seed {seed}: N = {r.N:2d}  T = {r.truncated_T:+.5f}  "
          f"slack = {r.lhs - r.rhs:+.5f}  satisfied = {r.satisfied}")

print("\nsweeping 500 random domains ...")
violations = sum(
    not hales_check(
        (off := inner_cheeger_boundary(d := random_class_a_domain(s))).curve,
        place_nodes(off, d),
        r_star=d.r,
    ).satisfied
    for s in range(500)
)
print(f"violations: {violations} / 500 (the inequality is a theorem)")
