"""Every exception class of `finrep.errors` is raised somewhere in the
package.

`errors.py` and every other module under `src/finrep/` are parsed with
`ast`; a class that no `raise` names is dead, yet callers would still
catch it.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "finrep").glob("*.py"))
ERRORS = next(path for path in SOURCES if path.name == "errors.py")


def classes(source: str) -> list[str]:
    """The classes `source` defines at its top level."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]


def raised(source: str) -> set[str]:
    """The names that a `raise` in `source` raises: `X`, `X(...)` or `m.X(...)`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_the_check_sees_what_is_raised():
    source = ("def f(e):\n    raise A('x')\n    raise B\n    raise errors.C()\n"
              "    raise\n    raise D from e\n    return E\n")
    assert raised(source) == {"A", "B", "C", "D"}


@pytest.mark.parametrize("name", classes(ERRORS.read_text(encoding="utf-8")))
def test_every_exception_class_is_raised(name):
    assert any(name in raised(path.read_text(encoding="utf-8")) for path in SOURCES)
