"""Cheeger constants and Cheeger sets of convex polygons.

Walks through the inner-parallel-area equation area(P_{-r}) = pi r^2, the
closed forms for the square and the regular hexagon, and the Steiner-type
identities satisfied by the inner Cheeger boundary.  Writes the unit square's
Cheeger set to cheeger_square.svg.
"""

import math

from cheegerlab.arc_geometry import curve_length, curve_to_dict, signed_area
from cheegerlab.cheeger import (
    ConvexPolygon,
    cheeger_convex,
    cheeger_domain,
    hexagon_constant,
    inner_cheeger_boundary,
    regular_polygon,
    structure_report,
)
from cheegerlab.cli import render_svg

square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
res = cheeger_convex(square)
print("unit square:")
print(f"  h = {res.h:.12f}   (closed form 2 + sqrt(pi) = {2 + math.sqrt(math.pi):.12f})")
print(f"  {res.iterations} quadratic solves, residual {res.residual:.2e}")

hexagon = regular_polygon(6, area=1.0)
print("unit-area regular hexagon:")
print(f"  h = {cheeger_convex(hexagon).h:.12f}")
print(f"  closed form sqrt(pi) + 12^(1/4) = {hexagon_constant():.12f}")
print(f"  h(H)^2 = {hexagon_constant() ** 2:.7f} = pi + 2 sqrt(3) + 2 sqrt(pi) 12^(1/4)")

print("\ninner Cheeger boundary of the square's Cheeger set:")
dom = cheeger_domain(square)
off = inner_cheeger_boundary(dom)
r = dom.r
print(f"  r = 1/h = {r:.6f}")
print(f"  H1(Gamma_r) = {curve_length(off.curve):.9f}  (= 4 sqrt(pi) r = {4 * math.sqrt(math.pi) * r:.9f})")
print(f"  A(Gamma_r)  = {signed_area(off.curve):.9f}  (= pi r^2      = {math.pi * r * r:.9f})")
print(f"  {len(off.collapsed_indices)} free corner arcs collapsed to points")

rep = structure_report(dom)
print("\nstructure report:")
print(f"  class A: {rep.is_class_A}")
print(f"  angle rule residual:      {rep.angle_rule_residual:.2e}")
print(f"  perimeter identity:       {rep.perimeter_residual:.2e}")
print(f"  area identity:            {rep.area_residual:.2e}")
print(f"  representation residuals: {rep.representation_residuals[0]:.2e}, {rep.representation_residuals[1]:.2e}")

with open("cheeger_square.svg", "w", encoding="utf-8") as fh:
    fh.write(render_svg(curve_to_dict(dom.boundary)))
print("\nwrote cheeger_square.svg")
