"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
(budgets: the randomized sweeps here are the full-size ones).
"""

import math
import time

import numpy as np

from cheegerlab import jsonio
from cheegerlab.cheeger import (
    cheeger_convex,
    cheeger_domain,
    hexagon_constant,
    inner_cheeger_boundary,
    random_class_a_domain,
    random_convex_polygon,
    regular_polygon,
    structure_report,
)
from cheegerlab.chamber_lemmas import (
    DiskChain,
    chain_region_area,
    phi,
    reference_areas,
    run_chain_sweep,
    tangency_geometry,
)
from cheegerlab.cli import run
from cheegerlab.cluster import canonical_graph, honeycomb_cluster, lower_bound_certificate
from cheegerlab.hales_deficit import NodeSet, hales_check, place_nodes
from cheegerlab.partition_optimizer import optimize
from cheegerlab.arc_geometry import ArcCurve
from oracles import monte_carlo_area

PI = math.pi
SQRT3 = math.sqrt(3.0)


def report(criterion, ok, detail):
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_hexagon_constant():
    t0 = time.perf_counter()
    res = cheeger_convex(regular_polygon(6, area=1.0))
    elapsed = time.perf_counter() - t0
    err = abs(res.h - (math.sqrt(PI) + 12.0 ** 0.25))
    identity = abs(hexagon_constant() ** 2 - (PI + 2 * SQRT3 + 2 * math.sqrt(PI) * 12.0 ** 0.25))
    ok = err < 1e-9 and identity < 1e-12 and elapsed < 0.010
    report(1, ok, f"solver error {err:.2e}, identity residual {identity:.2e}, {elapsed * 1e3:.2f} ms")


def test_criterion_2_representation_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        dom = cheeger_domain(random_convex_polygon(rng, 3, 12))
        rep = structure_report(dom)
        assert rep.is_class_A, rep.violations
        worst = max(
            worst,
            rep.representation_residuals[0],
            rep.representation_residuals[1],
            rep.perimeter_residual,
            rep.area_residual,
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    report(2, ok, f"50 domains, worst residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_hales():
    t0 = time.perf_counter()
    v = [tuple(p) for p in regular_polygon(6, area=1.0).vertices.tolist()]
    hexagon = ArcCurve(tuple((*v[i], *v[(i + 1) % 6]) for i in range(6)))
    nodes = NodeSet(v, (False,) * 6)
    rep = hales_check(hexagon, nodes, r_star=1.0 / math.sqrt(PI))
    equality = abs(rep.lhs - rep.rhs)
    assert equality < 1e-10 and abs(rep.lhs - 2 * 12 ** 0.25) < 1e-10

    violations = 0
    for seed in range(1000):
        dom = random_class_a_domain(seed)
        off = inner_cheeger_boundary(dom)
        ns = place_nodes(off, dom)
        if not hales_check(off.curve, ns, r_star=dom.r).satisfied:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report(3, ok, f"hexagon equality {equality:.2e}, {violations} violations/1000, {elapsed:.1f} s")


def test_criterion_4_graph_counting():
    t0 = time.perf_counter()
    checks = []
    for l, expected in ((2, 18), (3, 36), (4, 60)):
        cl = honeycomb_cluster(l)
        g = canonical_graph(cl)
        count = sum(g.lambdas) + g.e_out + 6
        checks.append(g.count_identity_ok)
        checks.append(count == expected == 6 * cl.k)
        checks.append(g.euler_residual == 0)
    # l = 4 verified by explicit enumeration of the 10-hexagon arrangement
    coords = [(i, t) for t in range(4) for i in range(4 - t)]
    index = set(coords)
    e_in = sum(
        1 for (i, t) in coords for d in ((1, 0), (0, 1), (-1, 1))
        if (i + d[0], t + d[1]) in index
    )
    offsets = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    e_out = sum(
        1 for c in coords
        if any((c[0] + d[0], c[1] + d[1]) not in index for d in offsets)
    )
    g4 = canonical_graph(honeycomb_cluster(4))
    checks.append(g4.e_in == e_in == 18)
    checks.append(g4.e_out == e_out == 9)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    report(4, ok, f"l=2,3,4 counts exact with equality, Euler residual 0, {elapsed:.2f} s")


def test_criterion_5_theorem_equality():
    t0 = time.perf_counter()
    worst = 0.0
    for l in (1, 2, 3, 4, 5):
        cert = lower_bound_certificate(honeycomb_cluster(l))
        worst = max(worst, abs(cert.scaled_objective - hexagon_constant()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(5, ok, f"l=1..5 scaled objective off by {worst:.2e}, {elapsed:.2f} s")


def test_criterion_6_appendix_suite():
    t0 = time.perf_counter()
    # tangency derivatives against central finite differences, 10^3 draws
    rng = np.random.default_rng(66)
    step = 1e-6
    fd_ok = True
    draws = 0
    while draws < 1000:
        r1, r2, r3 = rng.uniform(0.4, 2.5, 3)
        use_l = draws % 2 == 1
        l = float(r1 + r3 + rng.uniform(0.05, 1.2)) if use_l else None
        if use_l and l >= r1 + r3 + 2 * r2 - 4 * step:
            continue
        x0, y0, d1, d3 = tangency_geometry(r1, r2, r3, l)
        if d1 <= 0 or d3 <= 0:
            fd_ok = False
            break
        span = l if use_l else r1 + r3

        def theta(rr2):
            x, y, _, _ = tangency_geometry(r1, rr2, r3, l)
            return math.atan2(y, x), math.atan2(y, span - x)

        u1, u3 = theta(r2 + step)
        w1, w3 = theta(r2 - step)
        f1 = (u1 - w1) / (2 * step)
        f3 = (u3 - w3) / (2 * step)
        if abs(f1 - d1) > 1e-5 * max(1.0, abs(d1)) or abs(f3 - d3) > 1e-5 * max(1.0, abs(d3)):
            fd_ok = False
            break
        draws += 1

    # phi extremals
    ts = np.linspace(0.0, PI / 3.0, 10001)
    pent_min = min(phi("pentagon", float(t)) for t in ts)
    pent_ok = abs(pent_min - (0.5 + SQRT3 / 4.0)) < 1e-10 and abs(
        phi("pentagon", PI / 3.0) - (0.5 + SQRT3 / 4.0)
    ) < 1e-10
    sector_ok = abs(phi("sector", PI / 2.0, aux=1.0) - (2.0 + SQRT3)) < 1e-10

    # closed-form fixtures against decomposition and Monte Carlo
    delta, wedge, _ = reference_areas(1.0)
    tri = DiskChain(np.array([[0, 0], [2, 0], [1, SQRT3]]), [1, 1, 1], "closed")
    sq = DiskChain(np.array([[0, 0], [2, 0], [2, 2], [0, 2]]), [1, 1, 1, 1], "closed")
    wd = DiskChain(np.array([[-1, 1], [1, 1]]), [1, 1], "half_plane")
    fix_ok = True
    for chain, expected in ((tri, delta), (sq, 4.0 - PI), (wd, wedge)):
        dec = chain_region_area(chain)
        fix_ok &= dec.method == "decomposition" and abs(dec.area - expected) < 1e-6
        mc = monte_carlo_area(chain, samples=1_000_000)
        fix_ok &= abs(mc.area - expected) <= 3.0 * mc.sample_error

    # randomized chain sweeps: 10^4 chains per flavor, m in {3..6}
    sweep_violations = 0
    for flavor in ("closed", "half_plane", "sector"):
        _, violations = run_chain_sweep(flavor, 10_000, seed=7)
        sweep_violations += len(violations)

    elapsed = time.perf_counter() - t0
    ok = fd_ok and pent_ok and sector_ok and fix_ok and sweep_violations == 0 and elapsed < 300.0
    report(6, ok, f"FD ok={fd_ok}, phi ok={pent_ok and sector_ok}, fixtures ok={fix_ok}, "
                  f"{sweep_violations} sweep violations/30000, {elapsed:.0f} s")


def test_criterion_7_optimizer_soundness():
    t0 = time.perf_counter()
    tri = regular_polygon(3, area=1.0)
    h_ref = hexagon_constant()
    floor_ok = True
    ratios = {}
    budgets = {1: 60, 4: 1500, 9: 1000, 16: 700}
    restarts = {1: 2, 4: 5, 9: 3, 16: 2}
    for k, budget in budgets.items():
        trace = optimize(k, tri, budget=budget, seed=0, restarts=restarts[k])
        floor_ok &= trace.min_scaled_evaluated >= h_ref - 1e-9
        ratios[k] = trace.scaled_best / h_ref
        if k == 1:
            k1_err = abs(trace.best_objective - (math.sqrt(PI) + 3.0 ** 0.75))
    trace64 = optimize(64, tri, budget=220, seed=0, restarts=0)
    floor_ok &= trace64.min_scaled_evaluated >= h_ref - 1e-9
    ratios[64] = trace64.scaled_best / h_ref
    trend_ok = ratios[64] < ratios[4]
    elapsed = time.perf_counter() - t0
    ok = floor_ok and k1_err < 1e-6 and trend_ok and elapsed < 600.0
    report(7, ok, f"floor ok={floor_ok}, k=1 error {k1_err:.2e}, "
                  f"ratio(64)={ratios[64]:.4f} < ratio(4)={ratios[4]:.4f}: {trend_ok}, {elapsed:.0f} s")


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    square = tmp_path / "square.json"
    square.write_text(jsonio.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    cfg = tmp_path / "run.json"
    cfg.write_text(jsonio.dumps({
        "k": 2,
        "container": {"vertices": [[0, 0], [1, 0], [0.5, SQRT3 / 2]]},
        "budget": 60,
        "seed": 5,
        "restarts": 1,
    }))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(jsonio.dumps({
        "sweep": {"flavors": ["closed"], "count": 20, "seed": 11},
    }))
    outputs = []
    for tag in ("one", "two"):
        files = {
            "cheeger": tmp_path / f"ch_{tag}.json",
            "honeycomb": tmp_path / f"hc_{tag}.json",
            "optimize": tmp_path / f"opt_{tag}.jsonl",
            "chain": tmp_path / f"sweep_{tag}.jsonl",
        }
        assert run(["cheeger", "--input", str(square), "--output", str(files["cheeger"])]) == 0
        assert run(["honeycomb", "--l", "2", "--output", str(files["honeycomb"])]) == 0
        assert run(["optimize", "--config", str(cfg), "--output", str(files["optimize"])]) == 0
        assert run(["chain", "--input", str(sweep), "--output", str(files["chain"])]) == 0
        outputs.append({k: p.read_bytes() for k, p in files.items()})
    same = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    elapsed = time.perf_counter() - t0
    report(8, same, f"byte-identical artifacts across repeated runs, {elapsed:.1f} s")
