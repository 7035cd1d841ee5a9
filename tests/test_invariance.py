"""Verdicts and margins under rotation, dilation and far translation.

Every input is rotated by 0.3 rad, dilated by lambda from 1e-8 to 1e8 and then
translated by 0, 1e2 or 1e4 of its own (dilated) extents.  The certificate's
applicability, its failing rules and its dimensionless margins, the class-A
and Hales verdicts of random domains and their Hales margins, must not depend
on where the input sits or on its scale; nor may the optimizer's lattice start
or the Cheeger constants of its power cells.
"""

import math

import numpy as np
import pytest

from cheegerlab.arc_geometry import transform_curve
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
from cheegerlab.hales_deficit import hales_check, place_nodes
from cheegerlab.partition_optimizer import (
    SeedConfiguration,
    hex_lattice_seeds,
    power_diagram_cells,
)
from conftest import make_domino_cluster

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


def _move_cluster(cl: Cluster, angle, dx, dy, lam) -> Cluster:
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    container = ConvexPolygon(lam * cl.container.vertices @ rot.T + [dx, dy])
    return Cluster(
        container, tuple(_move_domain(c, angle, dx, dy, lam) for c in cl.cells),
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
def test_class_a_verdicts_of_random_domains(lam, shift):
    for seed in range(8):
        d = random_class_a_domain(seed)
        assert class_a_violations(d) == []
        moved = _move_domain(d, *_motion([(p.x, p.y) for p in d.boundary.vertices()], lam, shift))
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
