"""cheegerlab: planar arc geometry, Cheeger constants, and honeycomb partition bounds.

Modules:
    arc_geometry        curves of circular arcs and segments; lengths, areas,
                        winding numbers, inner offsets
    cheeger             Cheeger constants/sets of convex polygons, class-A
                        validation, inner Cheeger boundaries
    hales_deficit       node placement, truncated deficits, the hexagonal
                        isoperimetric inequality
    cluster             clusters, canonical graph counting, empty chamber,
                        honeycomb references, the lower-bound certificate
    chamber_lemmas      disk chains, reference areas, tangency derivatives
    partition_optimizer power-diagram upper bounds for the partition value
    cli                 the `cheegerlab` command-line tool
"""

from .arc_geometry import (
    Arc,
    ArcCurve,
    OffsetResult,
    Point,
    Segment,
    curve_length,
    offset_inner,
    signed_area,
    winding_number,
)
from .chamber_lemmas import (
    DiskChain,
    chain_region_area,
    phi,
    random_chain,
    reference_areas,
    tangency_geometry,
    verify_chain_bound,
)
from .cheeger import (
    ArcDomain,
    CheegerResult,
    ConvexPolygon,
    StructureReport,
    cheeger_convex,
    cheeger_domain,
    hexagon_constant,
    inner_cheeger_boundary,
    inner_parallel_polygon,
    random_class_a_domain,
    random_convex_polygon,
    regular_polygon,
    structure_report,
)
from .cluster import (
    Adjacency,
    BorderContact,
    CanonicalGraph,
    Certificate,
    Cluster,
    canonical_graph,
    empty_chamber_report,
    honeycomb_cluster,
    honeycomb_kcell,
    junction_curvature,
    lower_bound_certificate,
    objective,
    theorem_lower_bound,
)
from .hales_deficit import (
    DeficitReport,
    NodeSet,
    chord_deficits,
    hales_check,
    place_nodes,
)
from .partition_optimizer import (
    OptimizationTrace,
    SeedConfiguration,
    asymptotic_report,
    optimize,
    power_diagram_cells,
)

__version__ = "0.1.0"
