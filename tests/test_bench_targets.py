"""The benchmark tracer rebinds the callables named in `perfbench/tracer.py`
`TARGETS`: functions in their modules and `Class.method` paths in the
class's own namespace.  A rename or a method that moves to a base class
breaks the traced benchmark run, so it fails here first."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {TRACER}")


@pytest.mark.parametrize("module, path", _targets(), ids=lambda v: v)
def test_traced_name_is_where_the_tracer_rebinds_it(module, path):
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name)), f"{module}.{path} is not in the class's own dict"
    else:
        assert callable(getattr(mod, path, None)), f"{module}.{path} does not exist"
