"""Span tracing for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces each traced function at every ``cheegerlab``
module attribute that holds it (a function imported by name into another
module is wrapped there too, so internal calls are counted) and each traced
method on its class.  ``Tracer.uninstall`` restores the originals, so batches
run between the two calls are untraced.  Wrappers pass results and exceptions
through unchanged.

Spans (name, start, end, parent, operation id) are kept in memory, up to
``max_spans``, and written out by ``write_spans``; the per-function counters
behind the per-layer metrics see every call, kept spans or not.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) for every traced function; "Class.method" names a method.
TARGETS = (
    ("cheeger", "cheeger_convex"),
    ("cheeger", "cheeger_domain"),
    ("cheeger", "structure_report"),
    ("cheeger", "class_a_violations"),
    ("cheeger", "inner_cheeger_boundary"),
    ("cheeger", "ConvexPolygon.contains"),
    ("partition_optimizer", "optimize"),
    ("partition_optimizer", "power_diagram_cells"),
    ("partition_optimizer", "hex_lattice_seeds"),
    ("chamber_lemmas", "random_chain"),
    ("chamber_lemmas", "_try_chain"),  # one rejection-sampling attempt
    ("chamber_lemmas", "validate_chain"),
    ("chamber_lemmas", "verify_chain_bound"),
    ("arc_geometry", "winding_number"),
    ("arc_geometry", "distance_to_curve"),
    ("arc_geometry", "offset_inner"),
    ("arc_geometry", "signed_area"),
    ("arc_geometry", "curve_length"),
    ("hales_deficit", "place_nodes"),
    ("hales_deficit", "hales_check"),
    ("cluster", "honeycomb_cluster"),
    ("cluster", "cluster_from_dict"),
    ("cluster", "cluster_to_dict"),
    ("cluster", "canonical_graph"),
    ("cluster", "empty_chamber_report"),
    ("cluster", "lower_bound_certificate"),
    ("jsonio", "dumps"),
    ("jsonio", "loads"),
)

PACKAGE = "cheegerlab"


class FunctionStats:
    """Counters for one traced function, summed over every traced call."""

    __slots__ = ("calls", "total_s", "self_s", "raised", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.extra = {}  # sums of quantities read off the results

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


def _observe_iterations(st, args, result):
    # CheegerResult.iterations may be removed by a closed-form solver.
    its = getattr(result, "iterations", None)
    if its is not None:
        st.add("iterations", its)
        st.add("iteration_samples", 1)


def _observe_flavor(position):
    # random_chain(flavor, ...) and _try_chain(rng, flavor, ...): calls per flavor
    def observe(st, args, result):
        if len(args) > position:
            st.add(args[position], 1)
    return observe


def _observe_monte_carlo(st, args, result):
    if getattr(result, "method", None) == "monte_carlo":
        st.add("monte_carlo", 1)


def _observe_dumps(st, args, result):
    st.add("bytes", len(result))


def _observe_loads(st, args, result):
    st.add("bytes", len(args[0]))


def _observe_optimize(st, args, result):
    st.add("evaluations", result.evaluations)
    st.add("scaled_best", result.scaled_best)


OBSERVERS = {
    "cheeger.cheeger_convex": _observe_iterations,
    "chamber_lemmas.random_chain": _observe_flavor(0),
    "chamber_lemmas._try_chain": _observe_flavor(1),
    "chamber_lemmas.verify_chain_bound": _observe_monte_carlo,
    "jsonio.dumps": _observe_dumps,
    "jsonio.loads": _observe_loads,
    "partition_optimizer.optimize": _observe_optimize,
}


class Tracer:
    """Wrappers, spans and per-function counters for one traced run."""

    def __init__(self, max_spans: int = 50_000):
        self.stats = {f"{mod}.{attr}": FunctionStats() for mod, attr in TARGETS}
        self.missing = []
        self.spans = []  # (name, start, end, parent span index or -1, op id)
        self.dropped_spans = 0
        self.max_spans = max_spans
        self.op_id = -1
        self._stack = []  # [span index, child seconds] per open call
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        st = self.stats[name]
        observe = OBSERVERS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(spans) < self.max_spans:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
                self.dropped_spans += 1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if idx >= 0:
                    spans[idx] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(st, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; record the others as missing."""
        self.missing = []
        found = []
        for mod_name, attr in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                module = None
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
            else:
                found.append((f"{mod_name}.{attr}", owner if owner_name else None, method,
                              original))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, cls, method, original in found:
            wrapper = self._wrap(name, original)
            if cls is not None:
                self._patch(cls, method, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper):
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def write_spans(self, path):
        """Write the kept spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_s": start - t0,
                                     "end_s": end - t0, "parent": parent, "op": op}) + "\n")
