"""cheegerlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {partition,chains,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/`` of the
same checkout and nowhere else.  The workload's operations run in batches
until ``--seconds`` have passed, in this process and on one thread.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A summary, the sha256 of the first
batch's artifacts and any failed check go to standard error; the artifacts
and the trace spans are written under ``.perfbench/``.  The exit code is 0
when every check passed, 1 when one failed and 2 when the program cannot be
loaded.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# numpy is loaded before any clock starts: its cold load from disk is the
# machine's cost, not the program's, and on a shared machine it swings widely.
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".perfbench"
MAX_TRACEBACKS = 3
# The reference kernel's median time on the machine that the baseline was
# measured on; how often an untraced run samples it (the samples take about
# a tenth of the run); and how many samples at most follow one long item.
REFERENCE_S = 0.011
SAMPLE_EVERY_S = 0.1
MAX_SAMPLES_AT_ONCE = 50


def load_workload(name: str, seed: int):
    """Import the program afresh and build the workload's inputs (what setup_s times).

    The ``cheegerlab`` modules, ``workloads`` and the test suite's
    ``conftest`` are dropped from ``sys.modules`` first, so every call
    executes the program's module code again; numpy, pytest and the standard
    library stay loaded.
    """
    if not (SRC / "cheegerlab" / "__init__.py").is_file():
        raise ImportError(f"no cheegerlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(TESTS) not in sys.path:
        sys.path.append(str(TESTS))
    for key in [k for k in sys.modules if k in ("workloads", "conftest", "cheegerlab")
                or k.startswith("cheegerlab.")]:
        del sys.modules[key]
    workloads = importlib.import_module("workloads")
    package = sys.modules["cheegerlab"]
    if Path(package.__file__).resolve().parent != (SRC / "cheegerlab").resolve():
        raise ImportError(f"cheegerlab was imported from {package.__file__}, not {SRC}")
    return workloads.WORKLOADS[name](seed)


def timed_setup(name: str, seed: int):
    gc.collect()  # the previous set-up's garbage is not this one's cost
    start = time.perf_counter()
    workload = load_workload(name, seed)
    return workload, time.perf_counter() - start


class Batch:
    """Timings of one complete batch."""

    def __init__(self):
        self.busy_s = 0.0
        self.weights = 0
        self.latencies_ms = []  # (latency per weight unit, weight) per operation

    def percentile(self, q):
        """Weighted nearest-rank percentile of the per-operation latencies."""
        target = q / 100.0 * self.weights
        seen = 0
        for value, weight in sorted(self.latencies_ms):
            seen += weight
            if seen >= target:
                return value
        return value


def reference_kernel():
    """Fixed work of the benchmark's own, a mix like the program's: a pure-Python
    loop and small numpy arrays."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    a = np.arange(8.0)
    for _ in range(1000):
        b = np.sqrt(a * a + 1.0)
        a = b - b.mean()
    return total + float(a[0])


class MachineSpeed:
    """How fast the machine runs during a run, from the reference kernel.

    The shared machine that the baseline was measured on changes speed by up
    to 1.8x, in bursts of seconds and in levels that last minutes, and the
    program slows with it.  A kernel like this one slows alike: over five
    minutes there, the median time of power_diagram_cells plus
    cheeger_convex calls in each 30 s varied by 12% (quartile distance over
    median), and its ratio to the kernel's median time by 3%.  So every
    reported time is scaled by ``REFERENCE_S / median kernel time``: it is
    given in seconds of a machine on which the kernel takes ``REFERENCE_S``.
    The kernel is sampled between the items of the untraced run only.
    """

    def __init__(self):
        self.samples = []
        self.last = time.perf_counter() - SAMPLE_EVERY_S  # the first call samples

    def sample(self):
        """Runs the kernel once for every ``SAMPLE_EVERY_S`` since it last ran.

        An item longer than that is followed by as many samples, so the
        samples weigh each stretch of the run by its length.
        """
        due = (time.perf_counter() - self.last) / SAMPLE_EVERY_S
        for _ in range(min(int(due), MAX_SAMPLES_AT_ONCE)):
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)
        if due >= 1:
            self.last = time.perf_counter()

    def scale(self):
        return REFERENCE_S / statistics.median(self.samples)


class Runner:
    """Runs batches of operations, timing each one and counting failed checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = None
        self.first_batch = []
        self.op_id = 0

    def run_op(self, op, batch, batch_index):
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception:
            elapsed = time.perf_counter() - start
            if len(self.failures) < MAX_TRACEBACKS:
                self.failures.append(f"{op.label}: {traceback.format_exc()}")
            outcome = None
        else:
            elapsed = time.perf_counter() - start
        self.attempted += 1
        self.op_id += 1
        weight = outcome.weight if outcome is not None else 1
        batch.weights += weight
        batch.busy_s += elapsed
        batch.latencies_ms.append((elapsed * 1e3 / weight, weight))
        if outcome is not None and batch_index == 0:
            self.first_batch.extend(outcome.artifacts)
        if outcome is None or not outcome.ok:
            self.failed += 1
            if outcome is not None and len(self.failures) < MAX_TRACEBACKS:
                self.failures.append(f"{op.label}: output check failed")

    def run_batch(self, index, deadline=None, tracer=None, speed=None):
        """The batch's timings, or None when the deadline cut it short."""
        batch = Batch()
        for op in self.workload.batch(index):
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            if speed is not None:
                speed.sample()
            if tracer is not None:
                tracer.op_id = self.op_id
            self.run_op(op, batch, index)
        if index == 0:
            self.digest = hashlib.sha256("".join(self.first_batch).encode()).hexdigest()
        return batch


def measure(runner, seconds, set_up):
    """Untraced run: batches until the time is up, the first one always whole.

    ``set_up`` is called before each batch, so the set-up samples are spread
    over the run like the batches.  Each batch runs on the workload that the
    set-up before it built: a set-up imports the program afresh, and the old
    modules' imports made at call time would otherwise mix in the new
    modules' classes.  Every timing is a median over the complete batches (or
    the set-ups), so a short stall moves it less than it moves a mean, and is
    scaled by the machine's speed over the run.
    """
    speed = MachineSpeed()
    deadline = time.perf_counter() + seconds
    batches, setups = [], []
    index = 0
    while True:
        speed.sample()
        runner.workload, setup_s = set_up()
        setups.append(setup_s)
        batch = runner.run_batch(index, deadline if batches else None, speed=speed)
        if batch is None:
            break
        batches.append(batch)
        index += 1
        if time.perf_counter() >= deadline:
            break
    scale = speed.scale()
    print(f"speed: reference kernel median {statistics.median(speed.samples) * 1e3:.3f} ms "
          f"over {len(speed.samples)} samples; times are scaled by {scale:.4f}", file=sys.stderr)

    def median(fn):
        return statistics.median(fn(b) for b in batches)

    return {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "wall_s": (median(lambda b: b.busy_s) * scale, "s"),
        "throughput_per_s": (median(lambda b: b.weights / b.busy_s) / scale, "1/s"),
        "latency_p50_ms": (median(lambda b: b.percentile(50)) * scale, "ms"),
        "latency_p99_ms": (median(lambda b: b.percentile(99)) * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(batches)


def _per_batch(value, batches):
    return value / batches if batches else 0.0


def measure_traced(runner, seconds):
    """Traced run: untraced and traced batches alternate, whole batches only."""
    import tracing  # only the traced run loads the wrappers

    tracer = tracing.Tracer()
    start = time.perf_counter()
    plain_s, traced_s = [], []
    index = 0
    while not traced_s or time.perf_counter() - start < seconds:
        traced = index % 2 == 1
        if traced:
            tracer.install()
        try:
            batch = runner.run_batch(index, tracer=tracer if traced else None)
        finally:
            tracer.uninstall()
        (traced_s if traced else plain_s).append(batch.busy_s)
        index += 1

    n = len(traced_s)
    metrics = {}
    for name, st in tracer.stats.items():
        metrics[f"{name}.calls"] = (_per_batch(st.calls, n), "count")
        metrics[f"{name}.total_s"] = (_per_batch(st.total_s, n), "s")
        metrics[f"{name}.self_s"] = (_per_batch(st.self_s, n), "s")

    def stat(name):
        return tracer.stats[name]

    def mean(total, count, scale=1.0):
        return total * scale / count if count else 0.0

    cc = stat("cheeger.cheeger_convex")
    metrics["cheeger.cheeger_convex.mean_us"] = (mean(cc.total_s, cc.calls, 1e6), "us")
    metrics["cheeger.cheeger_convex.iterations_mean"] = (
        mean(cc.extra.get("iterations", 0), cc.extra.get("iteration_samples", 0)), "count")
    metrics["cheeger.class_a_violations.per_cell"] = (
        mean(stat("cheeger.class_a_violations").calls, n * runner.workload.cells), "count")
    opt = stat("partition_optimizer.optimize")
    metrics["partition_optimizer.optimize.evaluations"] = (
        _per_batch(opt.extra.get("evaluations", 0), n), "count")
    h_ref = sys.modules["cheegerlab.cheeger"].hexagon_constant()
    metrics["partition_optimizer.optimize.bound_ratio"] = (
        mean(opt.extra.get("scaled_best", 0.0), opt.calls) / h_ref, "ratio")
    pd = stat("partition_optimizer.power_diagram_cells")
    metrics["partition_optimizer.power_diagram_cells.mean_ms"] = (
        mean(pd.total_s, pd.calls, 1e3), "ms")
    metrics["partition_optimizer.power_diagram_cells.failed"] = (_per_batch(pd.raised, n), "count")
    rc = stat("chamber_lemmas.random_chain")
    metrics["chamber_lemmas.random_chain.mean_us"] = (mean(rc.total_s, rc.calls, 1e6), "us")
    tc = stat("chamber_lemmas._try_chain")
    metrics["chamber_lemmas.validate_chain.per_chain"] = (mean(tc.calls, rc.calls), "count")
    for flavor in sys.modules["workloads"].CHAIN_FLAVORS:
        metrics[f"chamber_lemmas.validate_chain.per_chain_{flavor}"] = (
            mean(tc.extra.get(flavor, 0), rc.extra.get(flavor, 0)), "count")
    vc = stat("chamber_lemmas.validate_chain")
    metrics["chamber_lemmas.validate_chain.failed"] = (_per_batch(vc.raised, n), "count")
    metrics["chamber_lemmas.verify_chain_bound.monte_carlo"] = (
        _per_batch(stat("chamber_lemmas.verify_chain_bound").extra.get("monte_carlo", 0), n),
        "count")
    wn = stat("arc_geometry.winding_number")
    metrics["arc_geometry.winding_number.mean_us"] = (mean(wn.total_s, wn.calls, 1e6), "us")
    for name in ("jsonio.dumps", "jsonio.loads"):
        metrics[f"{name}.bytes"] = (_per_batch(stat(name).extra.get("bytes", 0), n), "B")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s), "ratio")
    metrics["trace.missing_functions"] = (len(tracer.missing), "count")

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{runner.workload.name}.jsonl")
    for name in tracer.missing:
        print(f"trace: {name} is missing; its metrics read 0", file=sys.stderr)
    print(f"trace: {len(tracer.spans)} spans kept, {tracer.dropped_spans} dropped, "
          f"{len(plain_s)} untraced and {n} traced batches", file=sys.stderr)
    return metrics, len(plain_s) + n


def report_digest(runner, args):
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}.jsonl"
    (OUT / name).write_text("".join(runner.first_batch), encoding="utf-8")
    reference = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = reference.get(args.workload, {}).get(str(args.seed))
    if expected is None:
        verdict = "no reference"
    elif expected == runner.digest:
        verdict = "matches perfbench/digests.json"
    else:
        verdict = f"CHANGED from {expected} in perfbench/digests.json"
    print(f"artifacts: sha256 {runner.digest} ({verdict}), .perfbench/{name}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["partition", "chains", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        import pytest  # noqa: F401  (tests/conftest.py imports it; loaded like numpy)

        # A warm-up set-up, not counted: the first import of the program in a
        # process also reads (or, in a fresh checkout, writes) its bytecode.
        workload, _ = timed_setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if workload.skipped_seeds:
        print(f"setup: random_class_a_domain raised ValueError for {workload.skipped_seeds} "
              "seed(s), which were skipped", file=sys.stderr)

    runner = Runner(workload)
    if args.trace:
        metrics, batches = measure_traced(runner, args.seconds)
    else:
        metrics, batches = measure(runner, args.seconds,
                                   lambda: timed_setup(args.workload, args.seed))

    report_digest(runner, args)
    for failure in runner.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {runner.attempted} operations in {batches} "
          f"batches, {runner.failed} failed", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
