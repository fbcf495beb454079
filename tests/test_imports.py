"""Every top-level import of the package and its tests is read, and no
function imports again from a module the file already imports from.

Each module under `src/finrep/` and `tests/` is parsed with `ast`; a name
that a top-level import binds must be read somewhere in that module, or
be listed in its `__all__`.  A function-level `from m import ...` is
refused when the module also has a top-level `from m import ...`: the
name belongs in the top-level import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "finrep").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unread_imports(source: str) -> list[str]:
    """The names bound by top-level imports of `source` and never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= _exported(tree)
    return [name for name in bound if name not in read]


def _source_module(node: ast.ImportFrom) -> str:
    return "." * node.level + (node.module or "")


def repeated_local_imports(source: str) -> list[str]:
    """Function-level `from m import ...` lines of `source` whose module m
    the top level already imports from, as `m at line n`."""
    tree = ast.parse(source)
    top = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    modules = {_source_module(node) for node in top}
    return [
        f"{_source_module(node)} at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node not in top and _source_module(node) in modules
    ]


def test_the_check_sees_an_unread_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n__all__ = ['loads']\nsystem.exit\n"
    assert unread_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_repeated_local_import():
    source = ("from .a import x\nfrom json import dumps\n"
              "def f():\n    from .a import y\n    from .b import z\n    from json import loads\n"
              "    return x, y, z, dumps, loads\n")
    assert repeated_local_imports(source) == [".a at line 4", "json at line 6"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_function_imports_from_a_module_imported_at_the_top(path):
    assert repeated_local_imports(path.read_text(encoding="utf-8")) == []
