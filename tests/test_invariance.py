"""Verdicts and margins under rotation, dilation and far translation.

Every input is rotated by 0.3 rad, dilated by lambda from 1e-8 to 1e8 and then
translated by 0, 1e2 or 1e4 of its own (dilated) extents.  The certificate's
applicability, its failing rules and its dimensionless margins, the verdict
on two cells that overlap in a thin lens or touch, the class-A
and Hales verdicts of random domains and their Hales margins, must not depend
on where the input sits or on its scale; nor may the optimizer's lattice
start, the Cheeger constants of its power cells or its scaled best value.
Disk chains keep their canonical container lines: every flavor is dilated
about the origin, closed chains are also rotated and translated, and
half-plane chains slide along their line.
"""

import math

import numpy as np
import pytest

from cheegerlab.arc_geometry import edge_point, transform_curve
from cheegerlab.chamber_lemmas import DiskChain, random_chain, verify_chain_bound
from cheegerlab.cheeger import (
    ArcDomain,
    ConvexPolygon,
    cheeger_convex,
    class_a_violations,
    inner_cheeger_boundary,
    random_class_a_domain,
    regular_polygon,
)
from cheegerlab.cluster import Cluster, honeycomb_cluster, lower_bound_certificate
from cheegerlab.errors import ValidationError
from cheegerlab.hales_deficit import hales_check, place_nodes
from cheegerlab.partition_optimizer import (
    SeedConfiguration,
    hex_lattice_seeds,
    optimize,
    power_diagram_cells,
)
from conftest import make_domino_cluster, make_lens_cells

ANGLE = 0.3
SCALES = [1e-8, 1e-4, 1.0, 1e4, 1e8]
SHIFTS = [0.0, 1e2, 1e4]


def _motion(points, lam, shift):
    """(angle, dx, dy, scale): the rotation, the dilation, and a shift by
    ``shift`` times the dilated bounding-box diagonal of the (n, 2) points."""
    d = shift * lam * math.hypot(*np.ptp(np.asarray(points), axis=0))
    return ANGLE, d, -0.5 * d, lam


def _move_domain(d: ArcDomain, angle, dx, dy, lam) -> ArcDomain:
    return ArcDomain(transform_curve(d.boundary, angle, dx, dy, lam), d.roles, d.h / lam)


def _move_polygon(p: ConvexPolygon, angle, dx, dy, lam) -> ConvexPolygon:
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return ConvexPolygon(lam * p.vertices @ rot.T + [dx, dy])


def _move_cluster(cl: Cluster, angle, dx, dy, lam) -> Cluster:
    return Cluster(
        _move_polygon(cl.container, angle, dx, dy, lam),
        tuple(_move_domain(c, angle, dx, dy, lam) for c in cl.cells),
        cl.adjacency, cl.border_contacts,
        container_area=lam * lam * cl.container_area, claimed_optimal=cl.claimed_optimal,
    )


def _verdicts(cert):
    g = cert.graph
    graph = None if g is None else (g.count_identity_ok, g.edge_face_bound_ok,
                                    g.junction_bound_ok, g.connected)
    cells = tuple((c.structure.violations, None if c.hales is None else c.hales.satisfied)
                  for c in cert.per_cell)
    return (cert.applicable, cert.failing, graph, cells, cert.endstep2_ok,
            cert.boundbelow_ok, cert.scompo_ok, cert.holds)


def _hales(d: ArcDomain):
    off = inner_cheeger_boundary(d)
    return hales_check(off.curve, place_nodes(off, d), d.r)


@pytest.fixture(scope="module")
def domino():
    cl = make_domino_cluster()
    return cl, lower_bound_certificate(cl)


@pytest.fixture(scope="module")
def honeycomb():
    cl = honeycomb_cluster(3)
    return cl, lower_bound_certificate(cl)


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("lam", SCALES)
def test_domino_certificate(domino, lam, shift):
    cl, ref = domino
    assert ref.applicable
    cert = lower_bound_certificate(_move_cluster(cl, *_motion(cl.container.vertices, lam, shift)))
    assert (cert.applicable, cert.failing) == (ref.applicable, ref.failing)
    for cell, ref_cell in zip(cert.per_cell, ref.per_cell):
        assert abs(cell.step1_margin - ref_cell.step1_margin) <= 1e-9


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("lam", SCALES)
def test_honeycomb_verdicts(honeycomb, lam, shift):
    cl, ref = honeycomb
    cert = lower_bound_certificate(_move_cluster(cl, *_motion(cl.container.vertices, lam, shift)))
    assert _verdicts(cert) == _verdicts(ref)


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("lam", SCALES)
def test_lens_verdicts(lam, shift):
    # the turned square's corner 1e-6 into the square's top side is rejected
    # and the tangent corner accepted, at three placements along the side
    for x in (0.3, 0.5, 0.7):
        for depth in (1e-6, 0.0):
            box, cells = make_lens_cells(x, depth)
            motion = _motion(box.vertices, lam, shift)
            moved = (_move_polygon(box, *motion), tuple(_move_domain(c, *motion) for c in cells))
            if depth:
                with pytest.raises(ValidationError, match="^cells 0 and 1 overlap near "):
                    Cluster(*moved)
            else:
                assert Cluster(*moved).k == 2


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("lam", SCALES)
def test_class_a_verdicts_of_random_domains(lam, shift):
    for seed in range(8):
        d = random_class_a_domain(seed)
        assert class_a_violations(d) == []
        moved = _move_domain(d, *_motion([edge_point(row, 0.0) for row in d.boundary.rows], lam, shift))
        assert class_a_violations(moved) == []
        ref, rep = _hales(d), _hales(moved)
        assert rep.satisfied == ref.satisfied
        assert abs((rep.lhs - rep.rhs) - (ref.lhs - ref.rhs)) <= 1e-9


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("lam", SCALES)
def test_hex_lattice_seeds(lam, shift):
    # the optimizer's lattice start; the lattice is axis-aligned, so no rotation
    tri = regular_polygon(3, area=1.0)
    _, dx, dy, _ = _motion(tri.vertices, lam, shift)
    seeds = hex_lattice_seeds(16, ConvexPolygon(lam * tri.vertices + [dx, dy]))
    assert np.abs((seeds - [dx, dy]) / lam - hex_lattice_seeds(16, tri)).max() <= 1e-9


#: (k, budget) of the optimizer runs, each with seed 0 and no restarts
OPTIMIZER_RUNS = [(16, 60), (64, 20)]


@pytest.fixture(scope="module")
def optimizer_values():
    tri = regular_polygon(3, area=1.0)
    return {(k, budget): optimize(k, tri, budget=budget, seed=0, restarts=0).scaled_best
            for k, budget in OPTIMIZER_RUNS}


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("k, budget", OPTIMIZER_RUNS)
def test_optimizer_value(optimizer_values, k, budget, lam, shift):
    # the lattice start, its Lloyd centroids, the weight balancing and the
    # compass search, in the lattice start's axis-aligned frames
    tri = regular_polygon(3, area=1.0)
    _, dx, dy, _ = _motion(tri.vertices, lam, shift)
    trace = optimize(k, ConvexPolygon(lam * tri.vertices + [dx, dy]), budget=budget, seed=0,
                     restarts=0)
    ref = optimizer_values[k, budget]
    assert abs(trace.scaled_best - ref) <= 1e-9 * ref


@pytest.mark.parametrize("shift", [0.0, 1e4])
@pytest.mark.parametrize("lam", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("k", [16, 64, 256])
def test_power_cell_cheeger_constants(k, lam, shift):
    # jittered lattice seeds with random weights; weights scale like lambda^2
    tri = regular_polygon(3, area=1.0)
    rng = np.random.default_rng(k)
    seeds = hex_lattice_seeds(k, tri) + rng.normal(0.0, 0.05 / math.sqrt(k), (k, 2))
    weights = rng.normal(0.0, 0.1 / k, k)
    ref = [cheeger_convex(c).h for c in power_diagram_cells(SeedConfiguration(seeds, weights), tri)]
    angle, dx, dy, _ = _motion(tri.vertices, lam, shift)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    container = ConvexPolygon(lam * tri.vertices @ rot.T + [dx, dy])
    moved = SeedConfiguration(lam * seeds @ rot.T + [dx, dy], lam * lam * weights)
    hs = [cheeger_convex(c).h for c in power_diagram_cells(moved, container)]
    assert len(hs) == k
    assert max(abs(lam * h - h0) / h0 for h, h0 in zip(hs, ref)) <= 1e-9


SQRT3 = math.sqrt(3.0)
#: three unit disks whose consecutive pairs overlap by 5 % of their radius sum
OVERLAPPING = (np.array([[0.0, 0.0], [1.9, 0.0], [0.95, 0.95 * SQRT3]]), np.ones(3), "closed")
#: chains with warnings: two non-consecutive disks touching, a straight angle
WARNED = [
    (np.array([[0.0, 0.0], [2.0, 0.0], [3.0, SQRT3], [1.0, SQRT3]]), np.ones(4), "closed"),
    (np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0]]), np.ones(3), "half_plane"),
]


def _chains():
    sampled = [random_chain(flavor, 3 + i % 4, seed=[31, i])
               for flavor in ("closed", "half_plane", "sector") for i in range(4)]
    return [(c.centers, c.radii, c.flavor) for c in sampled] + WARNED


def _moved_chain(centers, flavor, lam, shift):
    """Closed chains rotate and translate freely; a half-plane chain may only
    slide along its line, and a sector chain stays at its apex."""
    angle, dx, dy, _ = _motion(centers, lam, shift)
    if flavor != "closed":
        return lam * centers + [dx if flavor == "half_plane" else 0.0, 0.0]
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return lam * centers @ rot.T + [dx, dy]


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("lam", SCALES)
def test_chain_verdicts(lam, shift):
    # the same warnings, the same holds and the same area / bound
    for centers, radii, flavor in _chains():
        want = DiskChain(centers, radii, flavor)
        got = DiskChain(_moved_chain(centers, flavor, lam, shift), lam * radii, flavor)
        assert got.warnings == want.warnings
        rep, ref = verify_chain_bound(got), verify_chain_bound(want)
        assert rep.holds == ref.holds
        assert abs(rep.area / rep.bound - ref.area / ref.bound) <= 1e-9, (flavor, centers.tolist())


def test_overlapping_chain_rejected_everywhere():
    centers, radii, flavor = OVERLAPPING
    for lam in SCALES:
        for shift in SHIFTS:
            with pytest.raises(ValidationError, match="^disks 0,1 must be tangent"):
                DiskChain(_moved_chain(centers, flavor, lam, shift), lam * radii, flavor)


def _rotated_triangle(side, degrees):
    """Three unit disks on an equilateral triangle of this side, turned about
    the first center."""
    turn = math.radians(degrees)
    centers = side * np.array([[0.0, 0.0], [math.cos(turn), math.sin(turn)],
                               [math.cos(turn + math.pi / 3.0), math.sin(turn + math.pi / 3.0)]])
    return centers, np.ones(3), "closed"


@pytest.mark.parametrize("degrees", range(0, 91, 15))
def test_chain_tolerance_turns_with_the_chain(degrees):
    # gaps of 1.97e-6 between the disks sit inside the tangency tolerance of
    # 1e-6 times the chain's scale, which is the side: at every rotation, not
    # only where a center lies on an axis; gaps of 3e-6 lie outside at every one
    assert DiskChain(*_rotated_triangle(2.0 + 1.97e-6, degrees)).warnings == ()
    with pytest.raises(ValidationError, match="^disks 0,1 must be tangent"):
        DiskChain(*_rotated_triangle(2.0 + 3e-6, degrees))
