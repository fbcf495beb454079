"""Every memo of a derived value in the package goes through `fset.intern`.

Each module under `src/finrep/` is parsed with `ast`.  `object.__setattr__`,
the way a memo is stored on a frozen object, may appear only in
`fset.intern`.  No `functools.cache` or `lru_cache` may appear at all, not
even one that lives for a single walk: a family interns its own
components, so a walk reads them through the family.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "finrep").glob("*.py"))
_CACHES = {"cache", "lru_cache"}


def _is_attribute(node, owner: str, names) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == owner)


def _in_intern(node, parents) -> bool:
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.FunctionDef) and node.name == "intern":
            return True
    return False


def memo_breaches(source: str, module: str) -> list[str]:
    """The memos of `source`, the package module `module`, that bypass
    `fset.intern`, as `what at line n`."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if _is_attribute(node, "object", {"__setattr__"}):
            if module != "fset" or not _in_intern(node, parents):
                found.append((node.lineno, f"object.__setattr__ at line {node.lineno}"))
        elif _is_attribute(node, "functools", _CACHES):
            found.append((node.lineno, f"functools.{node.attr} at line {node.lineno}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"functools.{a.name} at line {node.lineno}")
                      for a in node.names if a.name in _CACHES]
    return [text for _, text in sorted(found)]


def test_the_check_sees_a_memo_that_bypasses_intern():
    source = ("import functools\nfrom functools import lru_cache as lru, partial\n"
              "@functools.cache\ndef f(x):\n    return x\n"
              "def walk(h):\n    at = functools.cache(h.at)\n    return at, partial(h.at)\n"
              "def g(h):\n    object.__setattr__(h, 'k', 1)\n"
              "def intern(r):\n    object.__setattr__(r, '_memo', {})\n")
    assert memo_breaches(source, "fset") == [
        "functools.lru_cache at line 2", "functools.cache at line 3",
        "functools.cache at line 7",  # a walk-local cache is refused too
        "object.__setattr__ at line 10",
    ]
    assert memo_breaches(source, "verdict")[-1] == "object.__setattr__ at line 12"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_memo_goes_through_intern(path):
    assert memo_breaches(path.read_text(encoding="utf-8"), path.stem) == []
