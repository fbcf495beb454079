import itertools
import re
import time

import numpy as np
import pytest

from finrep.errors import BudgetError, TheoremInconsistencyError
from finrep.fset import FiniteSet, carrier_budget
from finrep.functors import (
    ComposedFunctor,
    IdentityFunctor,
    ListFunctor,
    PowersetFunctor,
    Signature,
    TermFunctor,
    enumerate_terms,
    syntax_of,
)
from finrep.kleene import RegexFunctor
from finrep.rel import FuncTable, Rel, compose_func, graph
from term_trees import Term, enumerate_term_trees, term_label, term_node, term_var, var_list, where

SIG = Signature.of({"mul": 2, "one": 0})
WIDE = Signature.of({"f": 1, "h": 3, "c": 0})
MIXED = Signature.of({"f": 1, "g": 2, "c": 0, "h": 3})
UNARY = Signature.of({"f": 1})


def test_a_carrier_no_syntax_functor_built_has_no_syntax_index():
    with pytest.raises(ValueError, match="carrier 'plain' is not a syntax carrier"):
        syntax_of(FiniteSet("plain", ["x"]))


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature.of({"f": -1})
    with pytest.raises(ValueError):
        Signature((("f", 1), ("f", 2)))
    assert SIG.ops == (("mul", 2), ("one", 0))


def test_list_carrier_frozen():
    a = FiniteSet("a", ["a"])
    c = ListFunctor(2).carrier(a)
    assert c.elements == ("[]", "[a]", "[a,a]")
    assert c.payload == ((), (0,), (0, 0))


def test_term_carrier_frozen():
    p = FiniteSet("p", ["p"])
    c = TermFunctor(SIG, 2).carrier(p)
    assert c.elements == (
        "p",
        "one",
        "mul(p,p)",
        "mul(p,one)",
        "mul(one,p)",
        "mul(one,one)",
    )


def test_term_enumeration_counts():
    # depth 1: 2 vars + one; depth 2: mul over 3x3; depth 3 adds
    # mul pairs with at least one depth-2 child: 12*12 - 3*3
    assert len(enumerate_terms(SIG, 1, 2).head) == 3
    assert len(enumerate_terms(SIG, 2, 2).head) == 12
    assert len(enumerate_terms(SIG, 3, 2).head) == 147
    assert enumerate_terms(SIG, 3, 2).bounds.tolist() == [0, 3, 12, 147]


def test_var_list_reads_leaves_left_to_right():
    t = term_node("mul", (term_node("mul", (term_var(1), term_var(0))), term_var(1)))
    assert var_list(t) == (1, 0, 1)
    assert var_list(term_node("one", ())) == ()


def test_term_label_fences_ambiguous_variable_labels():
    base = FiniteSet("weird", ["one", "plain"])
    lab = term_label(term_var(0), base, nullary=frozenset({"one"}))
    assert lab == "<one>"
    assert term_label(term_var(1), base, nullary=frozenset({"one"})) == "plain"
    assert TermFunctor(SIG, 1).carrier(base).elements == ("<one>", "plain", "one")


def test_term_over_term_carrier_builds():
    # inner terms used as variables print fenced, so the composite
    # carrier has no label collisions with structural terms
    p = FiniteSet("p", ["p"])
    tf = TermFunctor(SIG, 2)
    c = ComposedFunctor(tf, tf).carrier(p)
    assert len(c) == 56
    assert "<mul(p,p)>" in c.elements
    assert "mul(p,p)" in c.elements
    assert len(set(c.elements)) == 56


def test_carriers_are_interned():
    a = FiniteSet("a", ["a", "b"])
    assert TermFunctor(SIG, 2).carrier(a) is TermFunctor(SIG, 2).carrier(a)
    assert ListFunctor(3).carrier(a) is ListFunctor(3).carrier(a)
    assert PowersetFunctor(4).carrier(a) is PowersetFunctor(4).carrier(a)
    assert ListFunctor(2).carrier(a) is not ListFunctor(3).carrier(a)


def test_carrier_budget_guard():
    big = FiniteSet("big", [f"e{i}" for i in range(5)])
    with pytest.raises(BudgetError):
        ListFunctor(8).carrier(big)
    with pytest.raises(BudgetError):
        TermFunctor(SIG, 5).carrier(big)


def test_budget_checked_on_every_request():
    a = FiniteSet("abc", ["a", "b", "c"])
    assert len(ListFunctor(9).carrier(a)) == 29524
    with carrier_budget(1000):
        with pytest.raises(BudgetError, match="up to length 6 has 1093 elements, budget 1000"):
            ListFunctor(9).carrier(a)
    assert len(ListFunctor(9).carrier(a)) == 29524


@pytest.mark.parametrize("fun, small", [(ListFunctor(9), 1000), (TermFunctor(SIG, 3), 100), (RegexFunctor(3), 30)],
                         ids=lambda v: getattr(v, "name", v))
def test_sizes_are_counted_once_and_budgeted_on_every_request(monkeypatch, fun, small):
    # the level totals are counted once per base carrier, and a smaller
    # budget refuses the built carrier as it refuses a fresh one
    counted = []
    totals = type(fun).totals
    monkeypatch.setattr(type(fun), "totals", lambda self, n: counted.append(n) or totals(self, n))
    a, fresh = FiniteSet("abc", ["a", "b", "c"]), FiniteSet("abc", ["a", "b", "c"])
    c = fun.carrier(a)
    assert fun.carrier(a) is c and fun.size(a) == len(c) and len(fun.shapes(a)[0]) == len(c)
    assert counted == [3]
    with carrier_budget(small):
        with pytest.raises(BudgetError) as refused:
            fun.carrier(fresh)
        with pytest.raises(BudgetError, match=f"^{re.escape(str(refused.value))}$"):
            fun.carrier(a)
    assert fun.carrier(a) is c


def test_term_budget_refuses_before_building():
    big = FiniteSet("big5", [f"e{i}" for i in range(5)])
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match="up to depth 4 has 3132906 elements"):
        TermFunctor(SIG, 5).carrier(big)
    assert time.perf_counter() - t0 < 0.1


def test_container_lift_over_the_cell_budget_is_refused_before_allocating(monkeypatch):
    # 156 lists pass a 200-element budget; their 156 x 156 lift does not
    # pass the 20,000-cell budget derived from it
    five = FiniteSet("five", [f"e{i}" for i in range(5)])

    def no_matrix(*args, **kwargs):
        raise AssertionError("the lift allocated before the cell check")

    x = Rel.identity(five)
    with carrier_budget(200):
        ListFunctor(3).carrier(five)
        monkeypatch.setattr(np, "zeros", no_matrix)
        with pytest.raises(BudgetError, match=re.escape(
                "list(len 3) lift of a relation 'five' -> 'five' has 156 x 156 = 24336 cells, budget 20000")):
            ListFunctor(3).lift(x)


@pytest.mark.parametrize("n_vars", [1, 2, 3])
def test_closed_form_counts_match_carriers(n_vars):
    base = FiniteSet(f"v{n_vars}", [f"x{i}" for i in range(n_vars)])
    wide = Signature.of({"f": 1, "g": 2, "c": 0, "d": 0})
    for sig, depth in [(SIG, 3), (wide, 2)]:
        for d in range(1, depth + 1):
            assert TermFunctor(sig, d).size(base) == len(enumerate_terms(sig, d, n_vars).head)
            assert TermFunctor(sig, d).size(base) == len(TermFunctor(sig, d).carrier(base))
    for l in range(5):
        assert ListFunctor(l).size(base) == len(ListFunctor(l).carrier(base))
    if n_vars == 2:
        assert [TermFunctor(SIG, d).size(base) for d in (1, 2, 3)] == [3, 12, 147]


def _members(p, base, label):
    """Base labels of one powerset element, in base order."""
    mask = p.payload[p.index(label)]
    return tuple(lab for i, lab in enumerate(base.elements) if mask >> i & 1)


def test_powerset_fmap_is_direct_image():
    a = FiniteSet("src3", ["a", "b", "c"])
    b = FiniteSet("tgt2", ["u", "v"])
    f = FuncTable(a, b, [1, 1, 0])
    pf = PowersetFunctor(4)
    pa = pf.carrier(a)
    ff = pf.fmap(f)
    for s in pa.elements:
        image = sorted({f(x) for x in _members(pa, a, s)})
        assert sorted(_members(pf.carrier(b), b, ff(s))) == image


def test_list_and_term_fmap_rename_elementwise():
    a = FiniteSet("ab", ["a", "b"])
    b = FiniteSet("uv", ["u", "v"])
    f = FuncTable(a, b, [1, 0])
    lf = ListFunctor(2)
    la = lf.carrier(a)
    lfm = lf.fmap(f)
    assert lfm("[a,b]") == "[v,u]"
    assert lfm("[]") == "[]"
    tf = TermFunctor(SIG, 2)
    tfm = tf.fmap(f)
    assert tfm("mul(a,one)") == "mul(v,one)"
    assert tfm("b") == "u"


def _em_oracle(pf, x):
    """Direct double-quantifier reading of the set lifting."""
    pa = pf.carrier(x.src)
    pb = pf.carrier(x.tgt)
    m = np.zeros((len(pa), len(pb)), dtype=bool)
    for i, s in enumerate(pa.elements):
        xs = _members(pa, x.src, s)
        for j, t in enumerate(pb.elements):
            ys = _members(pb, x.tgt, t)
            fwd = all(any(x.holds(u, v) for v in ys) for u in xs)
            bwd = all(any(x.holds(u, v) for u in xs) for v in ys)
            m[i, j] = fwd and bwd
    return Rel(pa, pb, m)


def test_powerset_lift_matches_double_quantifier_oracle():
    a = FiniteSet("src3", ["a", "b", "c"])
    b = FiniteSet("tgt2", ["u", "v"])
    pf = PowersetFunctor(4)
    rng = np.random.default_rng(7)
    for _ in range(60):
        x = Rel(a, b, rng.random((3, 2)) < rng.uniform(0.2, 0.8))
        assert pf.lift(x) == _em_oracle(pf, x)
    for mask in range(64):
        m = np.array([[mask >> (2 * i + j) & 1 for j in range(2)] for i in range(3)], dtype=bool)
        x = Rel(a, b, m)
        assert pf.lift(x) == _em_oracle(pf, x)


def test_term_lift_relates_same_shape_pointwise():
    a = FiniteSet("ab", ["a", "b"])
    b = FiniteSet("uv", ["u", "v"])
    x = Rel(a, b, [[True, False], [True, True]])
    tf = TermFunctor(SIG, 2)
    lx = tf.lift(x)
    assert lx.holds("mul(a,b)", "mul(u,u)")
    assert lx.holds("mul(a,b)", "mul(u,v)")
    assert not lx.holds("mul(a,b)", "mul(v,u)")
    assert lx.holds("one", "one")
    assert not lx.holds("one", "u")
    assert not lx.holds("a", "mul(u,u)")


def test_list_lift_is_equal_length_pointwise():
    a = FiniteSet("ab", ["a", "b"])
    b = FiniteSet("uv", ["u", "v"])
    x = Rel(a, b, [[True, False], [False, True]])
    lf = ListFunctor(2)
    lx = lf.lift(x)
    assert lx.holds("[a,b]", "[u,v]")
    assert not lx.holds("[a,b]", "[v,u]")
    assert not lx.holds("[a]", "[u,v]")
    assert lx.holds("[]", "[]")


def test_lift_of_graph_is_graph_of_fmap():
    a = FiniteSet("src3", ["a", "b", "c"])
    b = FiniteSet("tgt2", ["u", "v"])
    kinds = [
        IdentityFunctor(),
        PowersetFunctor(4),
        ListFunctor(2),
        TermFunctor(SIG, 2),
        ComposedFunctor(ListFunctor(2), PowersetFunctor(4)),
    ]
    for fun in kinds:
        for table in itertools.product(range(2), repeat=3):
            f = FuncTable(a, b, table)
            assert fun.lift(graph(f)) == graph(fun.fmap(f)), fun.name


def test_composed_functor_is_composition():
    a = FiniteSet("ab", ["a", "b"])
    b = FiniteSet("uv", ["u", "v"])
    f = FuncTable(a, b, [1, 0])
    outer, inner = ListFunctor(2), PowersetFunctor(4)
    comp = ComposedFunctor(outer, inner)
    assert comp.carrier(a) is outer.carrier(inner.carrier(a))
    assert comp.fmap(f) == outer.fmap(inner.fmap(f))
    x = Rel(a, b, [[True, False], [True, True]])
    assert comp.lift(x) == outer.lift(inner.lift(x))


def test_fmap_respects_composition_spot_check():
    a = FiniteSet("ab", ["a", "b"])
    b = FiniteSet("uv", ["u", "v"])
    c = FiniteSet("tgt3", ["p", "q", "r"])
    f = FuncTable(a, b, [1, 0])
    g = FuncTable(b, c, [2, 0])
    for fun in [PowersetFunctor(4), ListFunctor(3), TermFunctor(SIG, 2)]:
        assert fun.fmap(compose_func(g, f)) == compose_func(fun.fmap(g), fun.fmap(f))


# The pointwise readings that the shape-grouped arrow map and lifting
# replaced: rename every position of every element and look the result
# up, and compare every pair of elements recursively.


def _elements(fun, c, base):
    """The elements of the carrier `c` over `base`: list payloads, or
    reference term trees in carrier order."""
    if isinstance(fun, ListFunctor):
        return c.payload
    return enumerate_term_trees(fun.sig, fun.max_depth, len(base))


def _pointwise_fmap(fun, f):
    if isinstance(fun, ComposedFunctor):
        return _pointwise_fmap(fun.outer, _pointwise_fmap(fun.inner, f))
    ca, cb = fun.carrier(f.src), fun.carrier(f.tgt)

    def rename(t):
        if isinstance(fun, ListFunctor):
            return tuple(int(f.table[i]) for i in t)
        if t.op is None:
            return term_var(int(f.table[t.var]))
        return Term(t.op, None, tuple(rename(c) for c in t.children), t.depth)

    at = where(_elements(fun, cb, f.tgt))
    return FuncTable(ca, cb, [at[rename(t)] for t in _elements(fun, ca, f.src)])


def _pointwise_lift(fun, x):
    if isinstance(fun, ComposedFunctor):
        return _pointwise_lift(fun.outer, _pointwise_lift(fun.inner, x))
    ca, cb = fun.carrier(x.src), fun.carrier(x.tgt)

    def related(s, t):
        if isinstance(fun, ListFunctor):
            return len(s) == len(t) and all(x.m[a, b] for a, b in zip(s, t))
        if s.op is None and t.op is None:
            return bool(x.m[s.var, t.var])
        if s.op != t.op or len(s.children) != len(t.children):
            return False
        return all(related(a, b) for a, b in zip(s.children, t.children))

    ta, tb = _elements(fun, ca, x.src), _elements(fun, cb, x.tgt)
    m = np.array([[related(s, t) for t in tb] for s in ta], dtype=bool)
    return Rel(ca, cb, m.reshape(len(ca), len(cb)))


@pytest.mark.parametrize(
    "fun",
    [ListFunctor(n) for n in range(4)]
    + [TermFunctor(SIG, d) for d in (1, 2, 3)]
    + [TermFunctor(WIDE, d) for d in (1, 2)]
    + [TermFunctor(MIXED, d) for d in (1, 2)]
    + [TermFunctor(UNARY, d) for d in (1, 2, 3)]
    + [ComposedFunctor(ListFunctor(2), TermFunctor(SIG, 2))],
    ids=lambda fun: fun.name,
)
def test_container_fmap_and_lift_match_pointwise_readings(fun, differential_cases, differential_stacks):
    rels, funcs = differential_cases
    for f in funcs:
        assert fun.fmap(f) == _pointwise_fmap(fun, f), (f.src.name, list(f.table))
    for x in rels:
        assert fun.lift(x) == _pointwise_lift(fun, x), x.m.tolist()
    # the stacked maps, row by row, against the same readings
    rel_groups, func_groups = differential_stacks
    for a, b, tables, group in func_groups:
        ca, cb, rows = fun.fmaps(a, b, tables)
        assert (ca, cb) == (fun.carrier(a), fun.carrier(b))
        assert rows.tolist() == [_pointwise_fmap(fun, f).table.tolist() for f in group]
    for a, b, xs, group in rel_groups:
        ca, cb, rows = fun.lifts(a, b, xs)
        assert (ca, cb) == (fun.carrier(a), fun.carrier(b))
        assert rows.tolist() == [_pointwise_lift(fun, x).m.tolist() for x in group]


@pytest.mark.parametrize(
    "fun",
    [ListFunctor(3), TermFunctor(SIG, 3), TermFunctor(WIDE, 2), RegexFunctor(4)],
    ids=lambda fun: fun.name,
)
def test_every_shape_holds_all_fillings(fun):
    # the bounds limit shapes only: one shape per element of F(1), and
    # each shape with k positions comes with all |A|^k fillings
    shapes_of_one = len(fun.carrier(FiniteSet("one", ["o"])))
    for n in (1, 2, 3):
        c, table = fun.shapes(FiniteSet(f"fill{n}", [f"x{i}" for i in range(n)]))
        assert len(table) == shapes_of_one
        for k, where in table.values():
            assert len(where) == n ** k
        assert sorted(np.concatenate([where for _, where in table.values()])) == list(range(len(c)))


class _DropsAFilling(ListFunctor):
    """Lists whose carrier has lost its last element, a filling of the
    longest shape."""

    def carrier(self, a):
        full = super().carrier(a)
        return FiniteSet(f"dropped({full.name})", full.elements[:-1], full.payload[:-1])


def test_missing_filling_is_an_inconsistency_not_a_wrong_table():
    ab, uv = FiniteSet("ab", ["a", "b"]), FiniteSet("uv", ["u", "v"])
    with pytest.raises(TheoremInconsistencyError, match="has 3 of 4 fillings"):
        _DropsAFilling(2).fmap(FuncTable(ab, uv, [1, 0]))
