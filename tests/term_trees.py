"""Reference route for terms: object trees.

The term carrier is labels plus index arrays (`functors.SyntaxIndex`).
The object route it replaced is kept here as the differential reference:
trees built by enumeration, labels, shapes and variable lists by
recursion, substitution on trees, and the monoid congruence closed by
union-find over tree lookups.  The trees are enumerated in carrier order,
which the label comparison of the differential tests pins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from finrep.fset import FiniteSet
from finrep.functors import Signature
from finrep.rel import Rel


@dataclass(frozen=True)
class Term:
    """Finite term: a variable leaf (op None) or an operator node."""

    op: str | None
    var: int | None
    children: tuple["Term", ...]
    depth: int


def term_var(i: int) -> Term:
    return Term(None, i, (), 1)


def term_node(op: str, children: tuple[Term, ...]) -> Term:
    depth = 1 + max((c.depth for c in children), default=0)
    return Term(op, None, children, depth)


def term_label(t: Term, base: FiniteSet, nullary: frozenset = frozenset()) -> str:
    if t.op is None:
        lab = base.elements[t.var]
        # syntax-bearing variable labels (e.g. terms over terms) get fenced
        if lab in nullary or any(c in lab for c in "(),<>"):
            return f"<{lab}>"
        return lab
    if not t.children:
        return t.op
    return f"{t.op}({','.join(term_label(c, base, nullary) for c in t.children)})"


def split_tree(node, head: str, leaf: str, code=lambda h: h):
    """Shape and left-to-right positions of a tree whose set `leaf` fields
    mark positions; a node's shape is `code` of its `head` field over its
    children's shapes, a position's shape is None."""
    positions = []

    def walk(n):
        i = getattr(n, leaf)
        if i is not None:
            positions.append(i)
            return None
        return (code(getattr(n, head)), *[walk(c) for c in n.children])

    return walk(node), tuple(positions)


def var_list(t: Term) -> tuple[int, ...]:
    """Variable indices in left-to-right leaf order."""
    return split_tree(t, "op", "var")[1]


def enumerate_term_trees(sig: Signature, max_depth: int, n_vars: int) -> list[Term]:
    """All terms up to the depth bound: by depth, variables before
    operators, operators in signature order, children lexicographic."""
    if max_depth < 1:
        return []
    level1 = [term_var(i) for i in range(n_vars)]
    level1 += [term_node(sym, ()) for sym, arity in sig.ops if arity == 0]
    by_depth = [level1]
    for d in range(2, max_depth + 1):
        shallower = [t for level in by_depth for t in level]
        by_depth.append([
            term_node(sym, kids)
            for sym, arity in sig.ops if arity > 0
            for kids in itertools.product(shallower, repeat=arity)
            if max(k.depth for k in kids) == d - 1
        ])
    return [t for level in by_depth for t in level]


def where(trees: list[Term]) -> dict[Term, int]:
    return {t: i for i, t in enumerate(trees)}


def substitute(t: Term, inner: list[Term]) -> Term:
    """Replace each variable i of `t` by the term inner[i]."""
    if t.op is None:
        return inner[t.var]
    return term_node(t.op, tuple(substitute(c, inner) for c in t.children))


def mon_congruence_closure(carrier: FiniteSet, terms: list[Term]) -> Rel:
    """The least congruence containing associativity and the unit laws,
    closed inside the bounded carrier by union-find over tree lookups."""
    locate = where(terms)
    parent = list(range(len(terms)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            return True
        return False

    for t in terms:
        if t.op == "mul":
            u, v = t.children
            if v.op == "one":
                join(locate[t], locate[u])
            if u.op == "one":
                join(locate[t], locate[v])
            if v.op == "mul":
                v1, v2 = v.children
                other = term_node("mul", (term_node("mul", (u, v1)), v2))
                if other in locate:
                    join(locate[t], locate[other])
    muls = [(i, locate[t.children[0]], locate[t.children[1]]) for i, t in enumerate(terms) if t.op == "mul"]
    changed = True
    while changed:
        changed = False
        for i, ui, vi in muls:
            for j, uj, vj in muls:
                if find(ui) == find(uj) and find(vi) == find(vj) and join(i, j):
                    changed = True
    roots = np.array([find(i) for i in range(len(terms))])
    return Rel(carrier, carrier, roots[:, None] == roots[None, :])
