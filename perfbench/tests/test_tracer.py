"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/tests

Wrapping must not change what the program prints, must leave no traced
public name unwrapped in any finrep module, and the self times it
reports must fit inside the traced wall time of every workload.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _cli(argv):
    from finrep import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_traced_corpus_reports_are_byte_identical(monkeypatch):
    monkeypatch.chdir(ROOT)
    for line in wl.README_CLI:
        plain = _cli(line.split())
        with tr.Tracer():
            traced = _cli(line.split())
        assert traced == plain, line


def test_traced_child_prints_what_the_plain_child_prints(tmp_path):
    plain, traced = wl.CliRunner(tmp_path), wl.CliRunner(tmp_path, traced=True)
    for line in wl.README_CLI[:3]:
        a, b = plain.run(line.split()), traced.run(line.split())
        assert (b.exit, b.text) == (a.exit, a.text), line
        assert b.stats["stats"]["cli.main"][0] == 1


def test_no_finrep_module_keeps_an_unwrapped_traced_name():
    import finrep.cli  # noqa: F401  loads every module the cli uses
    import finrep.generate  # noqa: F401
    from finrep import naturality, rel

    original = rel.compose
    with tr.Tracer():
        assert tr.unwrapped_bindings() == []
        assert naturality.compose is not original
        # a binding that escaped the rebinding is reported
        naturality._escaped_compose = original
        try:
            assert tr.unwrapped_bindings() == [
                "finrep.naturality._escaped_compose (rel.compose)"]
        finally:
            del naturality._escaped_compose
    assert naturality.compose is original and rel.compose is original


@pytest.mark.parametrize("workload", ["cli", "probe-checks", "kleene"])
def test_self_times_fit_in_the_traced_wall_time(workload):
    handle, snap, _, _, wall_traced = run.traced_slice(workload, 0)
    try:
        correct, attempted, _ = handle.summary()
    finally:
        handle.close()
    assert correct and attempted > 0
    selfs = [v[2] for v in snap["stats"].values()]
    assert all(s >= -1e-9 for s in selfs)
    assert 0 < sum(selfs) <= wall_traced


def test_benchmark_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    empty = tr.merge([])
    produced = {k: u for k, (_, u) in tr.per_layer(empty, 0.0, 1.0, 1.0).items()}
    assert listed == produced
