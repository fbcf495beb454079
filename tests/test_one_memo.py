"""Every memo of a derived value in the package goes through `fset.intern`.

Each module under `src/finrep/` is parsed with `ast`.  `object.__setattr__`,
the way a memo is stored on a frozen object, may appear only in
`fset.intern`.  A `functools.cache` or `lru_cache` may appear only inside
a function body, so that it lives for one call (a walk), and only over a
callable the function is handed, a name or an attribute: a cache over a
lambda or a decorated def would keep the package's own derived values,
which belong on the object they derive from.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "finrep").glob("*.py"))
_CACHES = {"cache", "lru_cache"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _enclosing(node, parents):
    """The innermost function whose body holds `node`, else None; a
    decorator is outside the function it decorates."""
    while node in parents:
        parent = parents[node]
        if isinstance(parent, _FUNCTIONS) and node not in getattr(parent, "decorator_list", ()):
            return parent
        node = parent
    return None


def _is_attribute(node, owner: str, names) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == owner)


def memo_breaches(source: str, module: str) -> list[str]:
    """The memos of `source`, the package module `module`, that bypass
    `fset.intern`, as `what at line n`."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for a in node.names if a.name in _CACHES}
    found = []
    for node in ast.walk(tree):
        where = _enclosing(node, parents)
        if _is_attribute(node, "object", {"__setattr__"}):
            if (module, getattr(where, "name", None)) != ("fset", "intern"):
                found.append((node.lineno, f"object.__setattr__ at line {node.lineno}"))
        elif _is_attribute(node, "functools", _CACHES) or isinstance(node, ast.Name) and node.id in aliases:
            use = parents[node]
            wrapped = use.args[0] if isinstance(use, ast.Call) and use.func is node and use.args else None
            if where is None:
                found.append((node.lineno, f"cache outside a function body at line {node.lineno}"))
            elif not isinstance(wrapped, (ast.Name, ast.Attribute)):
                found.append((node.lineno, f"cache over a function built here at line {node.lineno}"))
    return [text for _, text in sorted(found)]


def test_the_check_sees_a_memo_that_bypasses_intern():
    source = ("import functools\nfrom functools import lru_cache as lru\n"
              "@functools.cache\ndef f(x):\n    return x\n"
              "def g(h):\n    at = functools.cache(h.at)\n    own = lru(lambda a: a)\n"
              "    object.__setattr__(h, 'k', 1)\n    return at, own\n"
              "def intern(r):\n    object.__setattr__(r, '_memo', {})\n")
    assert memo_breaches(source, "fset") == [
        "cache outside a function body at line 3", "cache over a function built here at line 8",
        "object.__setattr__ at line 9",
    ]
    assert memo_breaches(source, "verdict")[-1] == "object.__setattr__ at line 12"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_memo_goes_through_intern(path):
    assert memo_breaches(path.read_text(encoding="utf-8"), path.stem) == []
