"""Term carriers as index arrays against the object-tree reference.

`functors.SyntaxIndex` is the only term carrier; `term_trees` keeps the
tree route it replaced.  Over three signatures, depths 1-3 and base sizes
0-3 the arrays must give the reference's labels, order, children and
shapes, and the term families and the monoid order must give the
reference's tables.  Cases stop at carriers of 5,000 terms, where the
reference trees stay quick to build; the arrow map and the lifting are
compared with pointwise tree readings in `test_functors`.
"""

import numpy as np
import pytest

from finrep.fset import FiniteSet, carrier_budget
from finrep.functors import (
    HOLE,
    Signature,
    SyntaxIndex,
    TermFunctor,
    enumerate_terms,
    syntax_finder,
    syntax_splits,
)
from finrep.hor import MON_SIG, mon_hor
from finrep.naturality import samevars_family, term_flatten, term_unit, varlist_family
from term_trees import (
    enumerate_term_trees,
    split_tree,
    substitute,
    term_label,
    term_var,
    var_list,
    where,
)
from term_trees import mon_congruence_closure as reference_congruence

SIGS = [MON_SIG, Signature.of({"f": 1, "g": 2, "c": 0, "h": 3}), Signature.of({"f": 1})]
# a plain label, one that names a constant, and one that bears syntax
LABELS = ["x", "one", "a(b"]
LIMIT = 5000


def _base(n):
    return FiniteSet(f"b{n}", LABELS[:n])


def _size(sig, depth, n):
    with carrier_budget(10 ** 9):
        return TermFunctor(sig, depth).size(_base(n))


CASES = [(sig, d, n) for sig in SIGS for d in (1, 2, 3) for n in range(4) if _size(sig, d, n) <= LIMIT]
IDS = [f"{dict(sig.ops)}-depth{d}-base{n}" for sig, d, n in CASES]


@pytest.mark.parametrize("sig, depth, n", CASES, ids=IDS)
def test_arrays_give_the_reference_labels_order_and_shapes(sig, depth, n):
    base = _base(n)
    c, ix = TermFunctor(sig, depth).arrays(base)
    trees = enumerate_term_trees(sig, depth, n)
    nullary = frozenset(s for s, k in sig.ops if k == 0)
    assert c.payload is None
    assert c.elements == tuple(term_label(t, base, nullary) for t in trees)
    assert all(np.array_equal(x, y) for x, y in zip(enumerate_terms(sig, depth, n), ix))
    at = where(trees)
    width = ix.kids.shape[1]
    for i, t in enumerate(trees):
        kids = [t.var] if t.op is None else [at[k] for k in t.children]
        assert ix.head[i] == (HOLE if t.op is None else sig.code(t.op))
        assert ix.kids[i].tolist() == kids + [-1] * (width - len(kids)), c.elements[i]
        assert ix.bounds[t.depth - 1] <= i < ix.bounds[t.depth]
    assert syntax_splits(c) == [split_tree(t, "op", "var", sig.code) for t in trees]


@pytest.mark.parametrize("sig, depth, n", CASES, ids=IDS)
def test_term_families_give_the_reference_tables(sig, depth, n):
    base = _base(n)
    trees = enumerate_term_trees(sig, depth, n)
    at = where(trees)
    assert term_unit(sig, depth).func_at(base).table.tolist() == [at[term_var(i)] for i in range(n)]
    ell = varlist_family(sig, depth).func_at(base)
    assert ell.table.tolist() == [ell.tgt.locate(var_list(t)) for t in trees]
    first = {}  # variable list -> the first term that has it
    ids = np.array([first.setdefault(var_list(t), i) for i, t in enumerate(trees)])
    assert np.array_equal(samevars_family(sig, depth).rel_at(base).m, ids[:, None] == ids[None, :])


FLATTEN = [(sig, d, n) for sig in SIGS for d in (1, 2) for n in range(3)
           if _size(sig, d, _size(sig, d, n)) <= LIMIT and _size(sig, max(2 * d - 1, 1), n) <= LIMIT]


@pytest.mark.parametrize("sig, depth, n", FLATTEN,
                         ids=[f"{dict(sig.ops)}-depth{d}-base{n}" for sig, d, n in FLATTEN])
def test_term_flatten_is_reference_substitution(sig, depth, n):
    base = _base(n)
    inner = enumerate_term_trees(sig, depth, n)
    outer = enumerate_term_trees(sig, depth, len(inner))
    deep = where(enumerate_term_trees(sig, max(2 * depth - 1, 1), n))
    flat = term_flatten(sig, depth).func_at(base)
    assert len(flat.src) == len(outer)
    assert flat.table.tolist() == [deep[substitute(t, inner)] for t in outer]


MONOID = [(d, n) for d in (1, 2, 3) for n in range(4) if _size(MON_SIG, d, n) <= 200]


@pytest.mark.parametrize("depth, n", MONOID, ids=[f"depth{d}-base{n}" for d, n in MONOID])
def test_monoid_oracles_match_the_reference(depth, n):
    # the monoid order (same variables, left to right) is the least
    # congruence with associativity and the unit laws, within the carrier
    base = _base(n)
    leq = mon_hor(depth).leq.rel_at(base)
    trees = enumerate_term_trees(MON_SIG, depth, n)
    assert leq == reference_congruence(leq.src, trees)
    names = [var_list(t) for t in trees]
    assert leq.m.tolist() == [[s == t for t in names] for s in names]


def test_monoid_order_relates_the_monoid_laws_both_ways():
    leq = mon_hor(3).leq.rel_at(FiniteSet("pq", ["p", "q"]))
    laws = [
        ("mul(p,mul(q,p))", "mul(mul(p,q),p)"),
        ("mul(p,one)", "p"),
        ("mul(one,p)", "p"),
        # congruence: replacing a factor by an equal one keeps equality
        ("mul(mul(p,one),q)", "mul(p,q)"),
        ("mul(q,mul(one,p))", "mul(q,p)"),
    ]
    for u, v in laws:
        assert leq.holds(u, v) and leq.holds(v, u), (u, v)
    assert not leq.holds("mul(p,q)", "mul(q,p)") and not leq.holds("mul(q,p)", "mul(p,q)")


def test_finder_codes_stay_exact_past_int64():
    # 70,000 nodes of four kids, read in radix 70,001: a fourth digit would
    # take a code past int64, where wrapped codes can collide, so the finder
    # ranks the prefixes first.  Node 0's digits spell 2**64, which wraps
    # to the code of a node whose kids are all padding.
    n, rest, digits = 70_000, 2 ** 64, []
    for _ in range(4):
        rest, d = divmod(rest, n + 1)
        digits.insert(0, d - 1)
    assert rest == 0
    kids = np.c_[np.arange(n), np.zeros((n, 3), dtype=np.int64)]
    kids[0] = digits
    find = syntax_finder(SyntaxIndex(np.zeros(n, dtype=np.int64), kids, np.array([0, n])))
    assert np.array_equal(find(0, *kids.T), np.arange(n))
    assert find(0, -1, -1, -1, -1) == -1
    assert find(0) == -1
    assert (find(1, *kids.T) == -1).all()
