"""The benchmark's workloads still run on the package.

``perfbench/workloads.py`` is loaded from its file as it is, and for seed 1
the first operation of each label of each workload must pass its own check,
so a change that removes or renames a name the benchmark reads fails here
before any benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", ["partition", "chains", "certify"])
def test_first_operation_of_each_label_passes(name):
    firsts = {}
    for op in WORKLOADS[name](1).batch(0):
        firsts.setdefault(op.label, op)
    failed = [label for label, op in firsts.items() if not op.run().ok]
    assert not failed, f"{name}: {failed}"
