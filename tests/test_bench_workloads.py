"""The library calls the benchmark makes, run untraced.

`perfbench/workloads.py` is imported as it stands, and every operation of
the `probe-checks` and `kleene` trace slices must meet its own oracle.  A
change to the package that breaks a call, an attribute or a verdict the
benchmark reads fails here rather than in a benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["probe-checks", "kleene"])
def test_every_trace_slice_op_meets_its_oracle(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(11, tmp_path)
    ops = workload.trace_slice(np.random.default_rng(11), traced=False)
    assert [(op.key, workloads.check(op, op.call())) for op in ops] == [(op.key, None) for op in ops]
