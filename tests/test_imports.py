"""Every top-level import of the package and its tests is read.

Each module under `src/finrep/` and `tests/` is parsed with `ast`; a name
that a top-level import binds must be read somewhere in that module, or
be listed in its `__all__`.
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


def test_the_check_sees_an_unread_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n__all__ = ['loads']\nsystem.exit\n"
    assert unread_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
