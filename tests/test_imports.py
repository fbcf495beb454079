"""Every top-level import of the package and its tests is read, no
function imports again from a module the file already imports from, and
the package imports no test support.

Each module under `src/finrep/` and `tests/` is parsed with `ast`; a name
that a top-level import binds must be read somewhere in that module, or
be listed in its `__all__`.  A function-level `from m import ...` is
refused when the module also has a top-level `from m import ...`: the
name belongs in the top-level import.  No import in `src/finrep/`, at any
level, may name a test-support module: the random generators of
`generate` or a reference route of `tests/`, so that no kernel feeds its
own oracle.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "finrep").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])
# the modules only tests may import
TEST_SUPPORT = {"generate", "oracle", "square_walk", "term_trees"}


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


def support_imports(source: str) -> list[str]:
    """The imports of `source`, function-level ones included, that name a
    test-support module, as `module at line n`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = _source_module(node)
            sep = "" if base.endswith(".") else "."
            paths = [base, *(base + sep + a.name for a in node.names)]
        else:
            continue
        hit = next((p for p in paths if TEST_SUPPORT & set(p.split("."))), None)
        if hit is not None:
            found.append((node.lineno, f"{hit} at line {node.lineno}"))
    return [text for _, text in sorted(found)]


def test_the_check_sees_a_test_support_import():
    source = ("from .generate import carrier\nimport finrep.generate\nfrom . import kleene, generate\n"
              "from .kleene import generate_axiom_instances\n"
              "def f():\n    from term_trees import where\n    import oracle, json\n")
    assert support_imports(source) == [
        ".generate at line 1", "finrep.generate at line 2", ".generate at line 3",
        "term_trees at line 6", "oracle at line 7",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_package_imports_no_test_support(path):
    assert support_imports(path.read_text(encoding="utf-8")) == []
