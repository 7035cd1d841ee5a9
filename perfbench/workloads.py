"""The three benchmark workloads, built from a seed and cut into batches of operations.

Each workload calls the public functions of ``cheegerlab`` in the order the
CLI subcommands call them, renders the same JSON artifacts through
``jsonio.dumps`` and checks every output.  Functions are always looked up on
their module at call time (``cheeger.structure_report(...)``), so the traced
run sees these calls too.

An operation returns an ``Outcome``: the artifacts it rendered, whether every
check on its output passed, and its weight, the number of operations it
counts for in throughput and latency (objective evaluations for an optimizer
job, 1 otherwise).

Only signatures that the planned simplifications keep are used: no
``threads``, ``mc_samples`` or ``tol`` argument, and no ``monte_carlo_area``,
``honeycomb_incumbent_rows`` or ``oriented_area``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import conftest  # tests/conftest.py, for the test suite's two-cell domino
import numpy as np

from cheegerlab import (
    arc_geometry,
    chamber_lemmas,
    cheeger,
    cluster,
    hales_deficit,
    jsonio,
    partition_optimizer,
)


class Outcome(NamedTuple):
    artifacts: tuple
    ok: bool
    weight: int = 1


class Op(NamedTuple):
    label: str
    run: Callable[[], Outcome]


# ---------------------------------------------------------------------------
# partition: the optimize subcommand on the unit-area triangle.

# (k, budget, restarts).  At k = 16 each of the two starts gets 75 evaluations:
# the lattice start spends 40 on weight balancing and 35 on its simplex, the
# random start 49 (3k + 1) on its simplex and 26 on Nelder-Mead steps, so the
# descent runs and the seed changes the result; cheeger_convex dominates.  At
# k = 64 with no restarts the lattice seeding, Lloyd steps and weight
# balancing run and power_diagram_cells takes about half of each evaluation.
PARTITION_JOBS = ((16, 150, 1), (64, 20, 0))


class Partition:
    name = "partition"

    def __init__(self, seed: int):
        self.seed = seed
        self.container = cheeger.regular_polygon(3, area=1.0)
        self.cells = 0  # cells whose class-A structure the batch checks
        self.skipped_seeds = 0

    def batch(self, index: int):
        """The same jobs in every batch: the optimizer seed is the workload seed."""
        return [Op(f"optimize k={k}", lambda k=k, b=b, r=r: self._job(k, b, r))
                for k, b, r in PARTITION_JOBS]

    def _job(self, k, budget, restarts):
        trace = partition_optimizer.optimize(k, self.container, budget=budget,
                                             seed=self.seed, restarts=restarts)
        text = jsonio.dumps(partition_optimizer.trace_to_dict(trace))
        history = [v for _, v in trace.history]
        ok = (
            math.isfinite(trace.best_objective)
            and trace.min_scaled_evaluated >= cheeger.hexagon_constant() - 1e-9
            and all(b <= a for a, b in zip(history, history[1:]))
        )
        return Outcome((text,), ok, trace.evaluations)


# ---------------------------------------------------------------------------
# chains: the chain sweep, one generated and verified chain per operation.

CHAIN_FLAVORS = ("closed", "half_plane", "sector")
CHAIN_M = (3, 4, 5, 6)
# Chain i of the workload is generated from [seed, i], so batches hold new
# chains and a run samples as many as it has time for; sector generation
# (rejection sampling) gives the latency tail, and 1200 chains leave 12
# beyond the p99.
CHAINS_PER_BATCH = 1200


class Chains:
    name = "chains"

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = 0  # cells whose class-A structure the batch checks
        self.skipped_seeds = 0

    def batch(self, index: int):
        start = index * CHAINS_PER_BATCH
        return [Op(f"chain {i}", lambda i=i: self._chain(i))
                for i in range(start, start + CHAINS_PER_BATCH)]

    def _chain(self, i):
        flavor = CHAIN_FLAVORS[i % len(CHAIN_FLAVORS)]
        m = CHAIN_M[(i // len(CHAIN_FLAVORS)) % len(CHAIN_M)]
        chain = chamber_lemmas.random_chain(flavor, m, seed=[self.seed, i])
        rep = chamber_lemmas.verify_chain_bound(chain)
        record = {
            "index": i,
            "flavor": flavor,
            "m": m,
            "area": rep.area,
            "bound": rep.bound,
            "holds": rep.holds,
            "method": rep.method,
        }
        return Outcome((jsonio.dumps(record),), bool(rep.holds))


# ---------------------------------------------------------------------------
# certify: the lower-bound path (structure, hales, honeycomb, certificate).

CERTIFY_DOMAINS = 700  # (a) hales items; they set latency_p50_ms
CERTIFY_POLYGONS = 300  # (b) structure items
CERTIFY_QUERY_DOMAINS = 16  # (c) six winding queries each
# Query points sit on the normal through a free arc's midpoint at distance
# eps * (arc length), so the arc-stepping winding number takes about 1/eps
# steps whatever the arc when the point is inside.  Of the 1099 items of a
# batch, the 3 clusters and the 16 inside 1e-4 queries are the slowest; the
# p99 leaves 3 + 7 items above it, so it falls in the middle of the 1e-4
# queries, whose cost does not depend on the seed.
WINDING_EPS = (1e-2, 1e-3, 1e-4)
HONEYCOMB_L = (4, 8)  # (d) k = 10 and k = 36, plus the two-cell domino


def class_a_domains(seed, stream, count):
    """``count`` random class-A domains from the seeds [seed, stream, i], i = 0, 1, ...

    ``random_class_a_domain`` raises ValueError (a math domain error) for
    about one seed in 3000, when a bowed inner curve has no positive area;
    such a seed gives no domain and the next one is tried.  Returns the
    domains and the number of seeds skipped.
    """
    domains, skipped, i = [], 0, 0
    while len(domains) < count:
        try:
            domains.append(cheeger.random_class_a_domain([seed, stream, i]))
        except ValueError:
            skipped += 1
        i += 1
    return domains, skipped


class Certify:
    name = "certify"

    def __init__(self, seed: int):
        self.seed = seed
        self.domains, skipped = class_a_domains(seed, 0, CERTIFY_DOMAINS)
        query_domains, more = class_a_domains(seed, 2, CERTIFY_QUERY_DOMAINS)
        self.skipped_seeds = skipped + more
        rng = np.random.default_rng([seed, 1])
        self.polygons = [cheeger.random_convex_polygon(rng)
                         for _ in range(CERTIFY_POLYGONS)]
        self.queries = []
        for d in query_domains:
            arc = next(e for e, role in zip(d.boundary.edges, d.roles)
                       if role == arc_geometry.FREE)
            mid = arc.point_at(0.5)
            ux = (mid.x - arc.center.x) / arc.radius
            uy = (mid.y - arc.center.y) / arc.radius
            for eps in WINDING_EPS:
                for side, expected in ((-1.0, 1), (1.0, 0)):
                    rho = arc.radius + side * eps * arc.length
                    q = arc_geometry.Point(arc.center.x + rho * ux, arc.center.y + rho * uy)
                    self.queries.append((d.boundary, q, eps, expected))
        self.cells = (CERTIFY_DOMAINS + CERTIFY_POLYGONS
                      + sum(l * (l + 1) // 2 for l in HONEYCOMB_L) + 2)

    def batch(self, index: int):
        """The same items in every batch."""
        ops = [Op("hales", lambda d=d: self._hales(d)) for d in self.domains]
        ops += [Op("structure", lambda p=p: self._structure(p)) for p in self.polygons]
        ops += [Op(f"winding eps={q[2]:g}", lambda q=q: self._winding(*q))
                for q in self.queries]
        ops += [Op(f"honeycomb l={l}", lambda l=l: self._honeycomb(l)) for l in HONEYCOMB_L]
        ops.append(Op("domino", self._domino))
        return ops

    def _hales(self, d):
        # the hales subcommand; criterion 3
        off = cheeger.inner_cheeger_boundary(d)
        nodes = hales_deficit.place_nodes(off, d)
        rep = hales_deficit.hales_check(off.curve, nodes, d.r)
        out = hales_deficit.deficit_report_to_dict(rep)
        out["r_star"] = d.r
        out["exceptional_nodes"] = int(sum(nodes.exceptional))
        return Outcome((jsonio.dumps(out),), rep.satisfied is True)

    def _structure(self, p):
        # the structure subcommand on a polygon's Cheeger set; criterion 2
        rep = cheeger.structure_report(cheeger.cheeger_domain(p))
        res = rep.representation_residuals
        out = {
            "is_class_A": rep.is_class_A,
            "violations": list(rep.violations),
            "angle_rule_residual": rep.angle_rule_residual,
            "perimeter_residual": rep.perimeter_residual,
            "area_residual": rep.area_residual,
            "representation_residuals": list(res) if res is not None else None,
        }
        ok = rep.is_class_A and res is not None and max(res) < 1e-8
        return Outcome((jsonio.dumps(out),), ok)

    def _winding(self, curve, q, eps, expected):
        w = arc_geometry.winding_number(curve, q)
        out = {"eps": eps, "x": q.x, "y": q.y, "winding": w}
        return Outcome((jsonio.dumps(out),), w == expected)

    def _certify(self, built):
        """Cluster artifact, reload, certificate artifact: the honeycomb then certificate commands."""
        text = jsonio.dumps(cluster.cluster_to_dict(built))
        cl = cluster.cluster_from_dict(jsonio.loads(text))
        graph = cluster.canonical_graph(cl)
        cert = cluster.lower_bound_certificate(cl)
        cert_text = jsonio.dumps(cluster.certificate_to_dict(cert))
        return (text, cert_text), graph, cert

    def _honeycomb(self, l):
        artifacts, graph, cert = self._certify(cluster.honeycomb_cluster(l))
        ok = (
            abs(cert.scaled_objective - cheeger.hexagon_constant()) <= 1e-9
            and sum(graph.lambdas) + graph.e_out + 6 == 6 * cert.k
        )
        return Outcome(artifacts, ok)

    def _domino(self):
        # the one cluster whose certificate is applicable
        artifacts, _, cert = self._certify(conftest.make_domino_cluster())
        return Outcome(artifacts, cert.applicable and cert.holds)


WORKLOADS = {w.name: w for w in (Partition, Chains, Certify)}
