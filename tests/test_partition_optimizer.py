import math
from types import SimpleNamespace

import numpy as np
import pytest

from cheegerlab.cheeger import ConvexPolygon, cheeger_convex, hexagon_constant, regular_polygon
from cheegerlab import cheeger, partition_optimizer
from cheegerlab.cluster import honeycomb_cluster, objective
from cheegerlab.errors import DegenerateConfigurationError, OptimizationError, ValidationError
from cheegerlab.partition_optimizer import (
    SeedConfiguration,
    asymptotic_report,
    hex_lattice_seeds,
    optimize,
    power_diagram_cells,
    trace_to_dict,
)
from oracles import (
    cheeger_convex_reference,
    convex_polygon_reference,
    power_diagram_cells_nearest_first_reference,
    power_diagram_cells_reference,
)

PI = math.pi
TRIANGLE = regular_polygon(3, area=1.0)
UNIT_SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
# The oracle's containers: unit scale, far from the origin, and small.
REFERENCE_CONTAINERS = {
    "triangle": TRIANGLE,
    "pentagon50": ConvexPolygon(regular_polygon(5, area=50.0).vertices + [3e3, -2e3]),
    "square1e-4": regular_polygon(4, area=1e-4, phase=0.3),
}
REFERENCE_KS = list(range(2, 30)) + [40, 50, 64, 80, 100]


def _reference_configurations(container):
    """Lattice seeds with Gaussian jitter of sd sqrt(area / k) / 5, or uniform
    seeds; zero weights, or Gaussian weights of sd a third to twice the mean
    cell area (some cells come out empty)."""
    area = container.area
    for k in REFERENCE_KS:
        for mode in range(4):
            rng = np.random.default_rng([k, mode])
            if mode < 2:
                seeds = hex_lattice_seeds(k, container)
                seeds = seeds + rng.normal(0.0, 0.2 * math.sqrt(area / k), seeds.shape)
            else:
                seeds = partition_optimizer._random_seeds(k, container, rng)
            weights = (np.zeros(k) if mode % 2 == 0
                       else rng.normal(0.0, rng.uniform(0.3, 2.0) * area / k, k))
            yield SeedConfiguration(seeds, weights)


class TestPowerDiagram:
    def test_k1_is_container(self):
        cfg = SeedConfiguration(np.array([[0.0, 0.1]]), np.zeros(1))
        cells = power_diagram_cells(cfg, TRIANGLE)
        assert len(cells) == 1
        assert cells[0].area == pytest.approx(TRIANGLE.area, rel=1e-12)

    def test_tiling_area(self):
        rng = np.random.default_rng(1)
        seeds = []
        while len(seeds) < 6:
            q = rng.uniform(-0.6, 0.6, 2)
            if TRIANGLE.contains(q[0], q[1]):
                seeds.append(q)
        cfg = SeedConfiguration(np.array(seeds), rng.uniform(-0.01, 0.01, 6))
        cells = power_diagram_cells(cfg, TRIANGLE)
        assert sum(c.area for c in cells) == pytest.approx(TRIANGLE.area, rel=1e-9)

    def test_equal_weights_reduce_to_voronoi(self):
        rng = np.random.default_rng(3)
        seeds = []
        while len(seeds) < 5:
            q = rng.uniform(-0.6, 0.6, 2)
            if TRIANGLE.contains(q[0], q[1]):
                seeds.append(q)
        seeds = np.array(seeds)
        cells = power_diagram_cells(SeedConfiguration(seeds, np.zeros(5)), TRIANGLE)
        for _ in range(200):
            q = rng.uniform(-1, 1, 2)
            if not TRIANGLE.contains(q[0], q[1], tol=-1e-6):
                continue
            nearest = int(np.argmin(np.hypot(*(seeds - q).T)))
            owners = [i for i, c in enumerate(cells) if c.contains(q[0], q[1], tol=1e-9)]
            assert nearest in owners

    def test_empty_cell_raises(self):
        seeds = np.array([[0.0, 0.0], [0.05, 0.0]])
        weights = np.array([10.0, 0.0])  # the heavy site swallows the other cell
        with pytest.raises(DegenerateConfigurationError):
            power_diagram_cells(SeedConfiguration(seeds, weights), TRIANGLE)

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONTAINERS))
    def test_matches_numpy_reference(self, name):
        # the pruned loop against the same order with every half-plane clipped
        container = REFERENCE_CONTAINERS[name]
        outcomes = {"cells": 0, "degenerate": 0}
        for cfg in _reference_configurations(container):
            try:
                expected = power_diagram_cells_nearest_first_reference(cfg, container)
            except DegenerateConfigurationError:
                with pytest.raises(DegenerateConfigurationError):
                    power_diagram_cells(cfg, container)
                outcomes["degenerate"] += 1
                continue
            cells = power_diagram_cells(cfg, container)
            assert len(cells) == len(expected)
            for cell, ref in zip(cells, expected):
                assert np.array_equal(cell.vertices, ref.vertices)
                assert cheeger_convex(cell).h == cheeger_convex(ref).h
            outcomes["cells"] += len(cells)
        assert outcomes["cells"] > 1000 and outcomes["degenerate"] > 10

    def test_cocircular_sites_match_reference(self):
        # square grids: four sites share each cell corner and the diagonal
        # neighbor sits exactly where the stop test turns, at |d| = 2R, so
        # only its rounding allowance keeps the rings bit for bit
        unit = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        for n in (4, 5, 6, 8, 10, 12):
            grid = (np.arange(n) + 0.5) / n
            seeds = np.array([(x, y) for y in grid for x in grid])
            for scale, shift in ((1.0, 0.0), (1e-4, 0.0), (3.0, 1e3), (0.1, 0.37)):
                square = ConvexPolygon(unit * scale + shift)
                cfg = SeedConfiguration(seeds * scale + shift, np.zeros(n * n))
                expected = power_diagram_cells_nearest_first_reference(cfg, square)
                for cell, ref in zip(power_diagram_cells(cfg, square), expected):
                    assert np.array_equal(cell.vertices, ref.vertices)

    @pytest.mark.parametrize("name", ["square1e-4", "triangle"])
    def test_matches_site_order_reference(self, name):
        # an independent order and absolute coordinates: the same cells up to
        # rounding (pentagon50 sits 3e3 from the origin, where the reference
        # loses digits to the offsets |s_j|^2 - |s_i|^2)
        container = REFERENCE_CONTAINERS[name]
        count = 0
        for cfg in _reference_configurations(container):
            try:
                expected = power_diagram_cells_reference(cfg, container)
            except DegenerateConfigurationError:
                continue
            for cell, ref in zip(power_diagram_cells(cfg, container), expected):
                h, h_ref = cheeger_convex(cell).h, cheeger_convex(ref).h
                assert abs(h - h_ref) <= 1e-12 * h_ref
                assert abs(cell.area - ref.area) <= 1e-14 * container.area
                count += 1
        assert count > 1000

    def test_clips_few_half_planes(self, call_counts):
        # the stop rule: a lattice diagram clips each cell by about its
        # neighbors, not by all k - 1 = 255 half-planes
        k = 256
        rng = np.random.default_rng(0)
        cfg = SeedConfiguration(hex_lattice_seeds(k, TRIANGLE),
                                rng.uniform(-0.05, 0.05, k) * TRIANGLE.area / k)
        counts = call_counts(partition_optimizer, "_clip_halfplane")
        cells = power_diagram_cells(cfg, TRIANGLE)
        assert sum(c.area for c in cells) == pytest.approx(TRIANGLE.area, rel=1e-12)
        assert counts["_clip_halfplane"] <= 16 * k

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONTAINERS))
    def test_cells_match_numpy_validation_and_solve(self, name, monkeypatch):
        # every clipped ring that power_diagram_cells validates, against the
        # numpy validation and Cheeger solve: the same stored rows or message,
        # the same collapse events, and h equal up to the order of the sums
        container = REFERENCE_CONTAINERS[name]
        rings = []

        def recording(pts):
            rings.append(pts)
            return ConvexPolygon(pts)

        monkeypatch.setattr(partition_optimizer, "ConvexPolygon", recording)
        for cfg in _reference_configurations(container):
            try:
                power_diagram_cells(cfg, container)
            except DegenerateConfigurationError:
                pass
        monkeypatch.undo()
        assert len(rings) > 1500
        for ring in rings:
            try:
                expected = convex_polygon_reference(ring)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as info:
                    ConvexPolygon(ring)
                assert str(info.value) == str(exc)
                continue
            cell = ConvexPolygon(ring)
            assert np.array_equal(cell.vertices, expected)
            res, ref = cheeger_convex(cell), cheeger_convex_reference(cell)
            assert res.iterations == ref.iterations
            assert abs(res.h - ref.h) <= 1e-13 * ref.h

    def test_sliver_cell_raises(self):
        # cell 1 is the strip 0.5 - 2e-15 <= x <= 0.5 + 2e-15, four vertices
        # before cleanup and two after it
        cfg = SeedConfiguration(np.array([[0.25, 0.5], [0.5, 0.5], [0.75, 0.5]]),
                                np.array([0.0, -0.0625 + 1e-15, 0.0]))
        with pytest.raises(DegenerateConfigurationError,
                           match=r"^power cell 1: polygon degenerates to fewer than 3 "
                                 r"vertices after cleanup$"):
            power_diagram_cells(cfg, UNIT_SQUARE)
        with pytest.raises(DegenerateConfigurationError):
            power_diagram_cells_reference(cfg, UNIT_SQUARE)

    def test_cleans_each_cell_once(self, call_counts):
        counts = call_counts(cheeger, "_clean_ring")
        power_diagram_cells(SeedConfiguration(hex_lattice_seeds(16, TRIANGLE), np.zeros(16)), TRIANGLE)
        assert counts == {"_clean_ring": 16}

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValidationError):
            SeedConfiguration(np.array([[0.0, 0.0], [0.0, 0.0]]), np.zeros(2))

    def test_duplicate_seeds_are_degenerate_rings(self):
        seeds = np.array([[0.1, 0.0], [-0.1, 0.05], [0.1, 0.0]])
        with pytest.raises(DegenerateConfigurationError, match="pairwise distinct"):
            list(partition_optimizer._power_rings(seeds, np.zeros(3), TRIANGLE))


class TestOptimize:
    def test_k1_returns_container_cheeger(self):
        trace = optimize(1, TRIANGLE, budget=40, seed=0, restarts=1)
        assert trace.best_objective == pytest.approx(math.sqrt(PI) + 3.0 ** 0.75, abs=1e-6)

    def test_soundness_floor(self):
        trace = optimize(4, TRIANGLE, budget=150, seed=1, restarts=2)
        assert trace.min_scaled_evaluated >= hexagon_constant() - 1e-9
        assert trace.scaled_best >= hexagon_constant() - 1e-9

    def test_history_nonincreasing_and_budget(self):
        trace = optimize(4, TRIANGLE, budget=200, seed=2, restarts=2)
        values = [v for _, v in trace.history]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert trace.evaluations <= 200

    @pytest.mark.parametrize("budget", range(1, 8))
    @pytest.mark.parametrize("restarts", range(0, 7))
    def test_never_more_than_budget_evaluations(self, budget, restarts):
        # below restarts + 1 the random starts get no share and the lattice
        # start spends the whole budget
        trace = optimize(4, TRIANGLE, budget=budget, seed=0, restarts=restarts)
        assert trace.evaluations == budget
        assert trace.history[-1][1] == trace.best_objective

    def test_one_seed_configuration_per_lloyd_step_and_result(self, call_counts):
        # probes hand their arrays to the diagram; only the six Lloyd steps
        # and the returned trace build a SeedConfiguration
        for budget in (60, 150):
            counts = call_counts(partition_optimizer, "SeedConfiguration")
            trace = optimize(16, TRIANGLE, budget=budget, seed=1, restarts=1)
            assert trace.evaluations == budget
            assert counts == {"SeedConfiguration": 7}

    def test_determinism_bitwise(self):
        a = optimize(4, TRIANGLE, budget=120, seed=7, restarts=2)
        b = optimize(4, TRIANGLE, budget=120, seed=7, restarts=2)
        assert a.best_objective == b.best_objective
        assert a.history == b.history
        assert np.array_equal(a.seed_config.seeds, b.seed_config.seeds)
        assert np.array_equal(a.seed_config.weights, b.seed_config.weights)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        seeds = hex_lattice_seeds(4, TRIANGLE)
        w = rng.uniform(-0.001, 0.001, 4)
        cells = power_diagram_cells(SeedConfiguration(seeds, w), TRIANGLE)
        base = max(cheeger_convex(c).h for c in cells)
        perm = np.array([2, 0, 3, 1])
        cells2 = power_diagram_cells(SeedConfiguration(seeds[perm], w[perm]), TRIANGLE)
        assert max(cheeger_convex(c).h for c in cells2) == pytest.approx(base, rel=1e-12)

    def test_rigid_motion_invariance(self):
        ang = 0.83
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        seeds = hex_lattice_seeds(3, TRIANGLE)
        w = np.array([0.0, 0.002, -0.001])
        base_cells = power_diagram_cells(SeedConfiguration(seeds, w), TRIANGLE)
        base = max(cheeger_convex(c).h for c in base_cells)
        moved_container = ConvexPolygon(TRIANGLE.vertices @ rot.T + np.array([1.5, -0.5]))
        moved_seeds = seeds @ rot.T + np.array([1.5, -0.5])
        moved_cells = power_diagram_cells(SeedConfiguration(moved_seeds, w), moved_container)
        assert max(cheeger_convex(c).h for c in moved_cells) == pytest.approx(base, rel=1e-9)

    def test_builds_no_cheeger_set(self, call_counts):
        counts = call_counts(cheeger, "_rounded_polygon")
        trace = optimize(16, TRIANGLE, budget=60, seed=0, restarts=1)
        assert trace.evaluations == 60
        assert counts == {"_rounded_polygon": 0}

    def test_unchanged_cells_are_not_solved_again(self, call_counts):
        counts = call_counts(partition_optimizer, "cheeger_convex")
        trace = optimize(16, TRIANGLE, budget=150, seed=1, restarts=1)
        assert 0 < counts["cheeger_convex"] < trace.evaluations * 16

    def test_probes_move_one_coordinate(self, monkeypatch):
        # the compass search probes one coordinate at a time away from the
        # start's best point so far, which is what lets the kept cells of the
        # other sites be reused
        starts = {}
        original = partition_optimizer._eval_config

        def recorded(container, seeds, weights, records, lower, kept):
            result = original(container, seeds, weights, records, lower, kept)
            x = np.concatenate([np.ravel(seeds), weights])
            starts.setdefault(id(kept), []).append((x, result[0]))
            return result

        monkeypatch.setattr(partition_optimizer, "_eval_config", recorded)
        trace = optimize(4, TRIANGLE, budget=300, seed=0, restarts=1)
        lattice, random_start = starts.values()
        assert len(lattice) + len(random_start) == trace.evaluations == 300
        # the lattice start balances weights for 40 evaluations, then its
        # search probes away from the best balanced point without scoring it
        # again; the random start's search starts at its first evaluation
        for evals, start in ((lattice, 40), (random_start, 1)):
            best_x, best_f = evals[0]
            for n, (x, value) in enumerate(evals):
                if n >= start:
                    assert np.count_nonzero(x != best_x) == 1, n
                if value < best_f:
                    best_x, best_f = x, value

    def test_search_starts_with_the_best_balanced_cells(self, call_counts, monkeypatch):
        # the lattice start's first probe, evaluation 40, moves one coordinate
        # of the best balanced point, whose cells are kept: only the cells
        # that the move changes are solved
        counts = call_counts(partition_optimizer, "cheeger_convex")
        solves = []
        original = partition_optimizer._eval_config

        def recorded(*args):
            before = counts["cheeger_convex"]
            result = original(*args)
            solves.append(counts["cheeger_convex"] - before)
            return result

        monkeypatch.setattr(partition_optimizer, "_eval_config", recorded)
        optimize(16, TRIANGLE, budget=150, seed=1, restarts=1)
        assert solves[40] < 16

    def test_best_objective_from_a_fresh_diagram(self):
        # the kept cells never stand in for a changed one
        for k, seed in ((4, 1), (16, 1), (16, 3)):
            trace = optimize(k, TRIANGLE, budget=150, seed=seed, restarts=1)
            cells = power_diagram_cells(trace.seed_config, TRIANGLE)
            assert max(cheeger_convex(c).h for c in cells) == trace.best_objective

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            optimize(0, TRIANGLE, budget=10)
        with pytest.raises(ValidationError):
            optimize(2, TRIANGLE, budget=0)
        with pytest.raises(ValidationError):
            optimize(2, TRIANGLE, budget=10, restarts=-1)

    def test_trace_json(self):
        trace = optimize(2, TRIANGLE, budget=60, seed=0, restarts=1)
        d = trace_to_dict(trace)
        assert d["k"] == 2
        assert d["evaluations"] == trace.evaluations
        assert len(d["seeds"]) == 2


class TestAsymptoticReport:
    def test_rows_respect_lower_bound(self):
        rows = asymptotic_report([1, 2, 4], TRIANGLE, budget=120, seed=0, restarts=1)
        assert [r.k for r in rows] == [1, 2, 4]
        for row in rows:
            assert row.ratio >= 1.0 - 1e-9
            assert row.scaled == pytest.approx(
                row.best_objective * math.sqrt(TRIANGLE.area / row.k), rel=1e-12
            )

    def test_honeycomb_incumbent_ratio_is_one(self):
        # the honeycomb k-triangle as incumbent: its scaled objective equals h(H)
        for l in (1, 2, 3):
            cl = honeycomb_cluster(l)
            scaled = objective(cl, math.inf) * math.sqrt(cl.container_area / cl.k)
            assert scaled / hexagon_constant() == pytest.approx(1.0, abs=1e-9)

    def test_ratio_below_one_is_optimization_error(self, monkeypatch):
        below = hexagon_constant() * (1.0 - 1e-6)
        fake = SimpleNamespace(best_objective=below, scaled_best=below)
        monkeypatch.setattr(partition_optimizer, "optimize", lambda *a, **kw: fake)
        with pytest.raises(OptimizationError):
            asymptotic_report([1], TRIANGLE, budget=10)

    def test_ks_validation(self):
        with pytest.raises(ValidationError):
            asymptotic_report([4, 2], TRIANGLE, budget=10)
        with pytest.raises(ValidationError):
            asymptotic_report([], TRIANGLE, budget=10)


class TestReferenceRun:
    def test_k4_within_15_percent_of_twice_hexagon(self):
        # recorded reference run (seed 0); the best 4-partition value is within
        # 15% of 2 h(H), the infinite-k scaling target at k = 4
        trace = optimize(4, TRIANGLE, budget=1500, seed=0, restarts=5)
        target = 2.0 * hexagon_constant()
        assert trace.best_objective <= 1.15 * target
        assert trace.best_objective >= target  # lower bound is certified
