import gc
import re as re_mod
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finrep.errors import BudgetError
from finrep import kleene
from finrep.fset import FiniteSet, carrier_budget
from finrep.functors import syntax_splits
from finrep.hor import hor_arrow, instantiate
from finrep.kleene import (
    CAT,
    EPS,
    LETTER,
    PLUS,
    STAR,
    ZERO,
    RegexFunctor,
    axiomatic_leq,
    generate_axiom_instances,
    ka_completeness_report,
    ka_hor,
    ka_semantic_exactness,
    language_table,
    models_matrix,
    semantic_leq,
    word_carrier,
)
from finrep.naturality import ProbeUniverse, check_functor_laws, probe_carrier
from finrep.rel import FuncTable, Rel, graph, under
from finrep.represent import is_exact, validate_representation
from finrep.verdict import Verdict
from term_trees import split_tree

AB = FiniteSet("ab", ["a", "b"])


# ------------------------------------------------------------ references
# The object-based routes that the index arrays replaced, kept here as the
# differential references: trees built by enumeration, labels by recursion,
# languages by a memo over expression trees, instances by tree lookup.
# The carrier is index arrays only; the reference trees are enumerated in
# its order, which the label comparison in the differential test pins.

# head codes of the index arrays, by kind name
KINDS = ("letter", "zero", "eps", "plus", "cat", "star")


@dataclass(frozen=True, slots=True)
class RegExpr:
    kind: str
    letter: int | None = None
    children: tuple["RegExpr", ...] = ()

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children)


def re_letter(i: int) -> RegExpr:
    return RegExpr("letter", i)


def re_zero() -> RegExpr:
    return RegExpr("zero")


def re_eps() -> RegExpr:
    return RegExpr("eps")


def re_plus(e: RegExpr, f: RegExpr) -> RegExpr:
    return RegExpr("plus", None, (e, f))


def re_cat(e: RegExpr, f: RegExpr) -> RegExpr:
    return RegExpr("cat", None, (e, f))


def re_star(e: RegExpr) -> RegExpr:
    return RegExpr("star", None, (e,))


def _regex_label(e: RegExpr, alphabet: FiniteSet) -> str:
    if e.kind == "letter":
        lab = alphabet.elements[e.letter]
        if any(c in lab for c in "+.*()01<>"):
            lab = f"<{lab}>"
        return lab
    if e.kind == "zero":
        return "0"
    if e.kind == "eps":
        return "1"
    if e.kind == "plus":
        return f"({_regex_label(e.children[0], alphabet)}+{_regex_label(e.children[1], alphabet)})"
    if e.kind == "cat":
        return f"({_regex_label(e.children[0], alphabet)}.{_regex_label(e.children[1], alphabet)})"
    return f"{_regex_label(e.children[0], alphabet)}*"


def _reference_exprs(letters: int, cap: int) -> list[RegExpr]:
    by_size = [[], [re_letter(i) for i in range(letters)] + [re_zero(), re_eps()]]
    for s in range(2, cap + 1):
        level = [re_star(e) for e in by_size[s - 1]]
        for op in (re_plus, re_cat):
            level += [op(e, f) for i in range(1, s - 1)
                      for e in by_size[i] for f in by_size[s - 1 - i]]
        by_size.append(level)
    return [e for level in by_size for e in level]


def _bits(mask: int):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _where(trees: list[RegExpr]) -> dict[RegExpr, int]:
    return {e: i for i, e in enumerate(trees)}


def _reference_masks(trees: list[RegExpr], words: FiniteSet, word_len_cap: int) -> list[int]:
    def cat_mask(m1: int, m2: int) -> int:
        out = 0
        for i in _bits(m1):
            for j in _bits(m2):
                w = words.payload[i] + words.payload[j]
                if len(w) <= word_len_cap:
                    out |= 1 << words.locate(w)
        return out

    memo: dict[RegExpr, int] = {}

    def lang(e: RegExpr) -> int:
        if e in memo:
            return memo[e]
        if e.kind == "letter":
            out = 1 << words.locate((e.letter,)) if word_len_cap else 0
        elif e.kind == "zero":
            out = 0
        elif e.kind == "eps":
            out = 1 << words.locate(())
        elif e.kind == "plus":
            out = lang(e.children[0]) | lang(e.children[1])
        elif e.kind == "cat":
            out = cat_mask(lang(e.children[0]), lang(e.children[1]))
        else:
            body = lang(e.children[0])
            out = 1 << words.locate(())
            while (grown := out | cat_mask(out, body)) != out:
                out = grown
        memo[e] = out
        return out

    return [lang(e) for e in trees]


def _reference_axiom_pairs(trees: list[RegExpr]) -> list[tuple[int, int]]:
    pairs = set()
    where = _where(trees)

    def le(a: RegExpr, b: RegExpr):
        ia, ib = where.get(a), where.get(b)
        if ia is not None and ib is not None:
            pairs.add((ia, ib))

    def eq(a: RegExpr, b: RegExpr):
        le(a, b)
        le(b, a)

    zero, eps = re_zero(), re_eps()
    for p in trees:
        if p.kind == "plus":
            e, f = p.children
            eq(p, re_plus(f, e))
            le(e, p)
            le(f, p)
            if e == f:
                eq(p, e)
            if f == zero:
                eq(p, e)
            if e == zero:
                eq(p, f)
            if f.kind == "plus":
                g, h = f.children
                eq(p, re_plus(re_plus(e, g), h))
            if e == eps and f.kind == "cat" and f.children[1] == re_star(f.children[0]):
                eq(p, f.children[1])
        elif p.kind == "cat":
            e, f = p.children
            if f == eps:
                eq(p, e)
            if e == eps:
                eq(p, f)
            if f == zero or e == zero:
                eq(p, zero)
            if f.kind == "cat":
                g, h = f.children
                eq(p, re_cat(re_cat(e, g), h))
            if f.kind == "plus":
                g, h = f.children
                eq(p, re_plus(re_cat(e, g), re_cat(e, h)))
            if e.kind == "plus":
                g, h = e.children
                eq(p, re_plus(re_cat(g, f), re_cat(h, f)))
            if e == f and e.kind == "star":
                eq(p, e)
        elif p.kind == "star":
            le(eps, p)
            le(p.children[0], p)
    return sorted(pairs)


DIFFERENTIAL_SHAPES = [(letters, cap) for letters in range(4) for cap in range(1, 6 if letters < 3 else 5)]


@pytest.mark.parametrize("letters, cap", DIFFERENTIAL_SHAPES)
def test_index_route_matches_object_references(letters, cap):
    alphabet = FiniteSet(f"l{letters}", ["a", "b", "c<"][:letters])
    exprs = RegexFunctor(cap).carrier(alphabet)
    trees = _reference_exprs(letters, cap)
    assert exprs.elements == tuple(_regex_label(e, alphabet) for e in trees)
    assert syntax_splits(exprs) == [split_tree(e, "kind", "letter", KINDS.index) for e in trees]
    assert list(map(tuple, generate_axiom_instances(alphabet, cap).tolist())) == _reference_axiom_pairs(trees)
    for k in (0, 1, 2, 3):  # at word cap 0 a letter's language is empty
        table_exprs, words, masks = language_table(alphabet, cap, k)
        assert table_exprs is exprs
        assert masks.tolist() == _reference_masks(trees, words, k), (letters, cap, k)


def _meshgrid_index(letters: int, size_cap: int):
    """The index arrays built one meshgrid per operator and split, the
    route that the shared (left, right) grids replaced."""
    parts = [(np.r_[np.full(letters, LETTER), ZERO, EPS], np.r_[np.arange(letters), -1, -1],
              np.full(letters + 2, -1))]
    bounds = [0, letters + 2]
    for s in range(2, size_cap + 1):
        below = np.arange(bounds[s - 2], bounds[s - 1])
        level = [(np.full(len(below), STAR), below, np.full(len(below), -1))]
        for op in (PLUS, CAT):
            for i in range(1, s - 1):
                e, f = np.meshgrid(np.arange(bounds[i - 1], bounds[i]),
                                   np.arange(bounds[s - 2 - i], bounds[s - 1 - i]), indexing="ij")
                level.append((np.full(e.size, op), e.ravel(), f.ravel()))
        parts += level
        bounds.append(bounds[-1] + sum(len(k) for k, _, _ in level))
    head, left, right = (np.concatenate(x).astype(np.int64) for x in zip(*parts))
    return head, np.stack([left, right], axis=1), np.array(bounds, dtype=np.int64)


@pytest.mark.parametrize("letters, cap", [(0, 3), (1, 5), (2, 6), (3, 7)])
def test_index_matches_the_meshgrid_route(letters, cap):
    got = RegexFunctor(cap).index(letters)
    for x, y in zip(got, _meshgrid_index(letters, cap)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_index_arrays_name_the_children():
    exprs, ix = RegexFunctor(4).arrays(AB)
    assert RegexFunctor(4).arrays(AB)[1] is ix
    assert ix.bounds.tolist() == [0, 4, 8, 44, 144]
    trees = _reference_exprs(2, 4)
    assert exprs.elements == tuple(_regex_label(e, AB) for e in trees)
    where = _where(trees)
    for i, e in enumerate(trees):
        assert ix.head[i] == KINDS.index(e.kind)
        kids = [where[c] for c in e.children]
        want = {"letter": [e.letter, -1], "zero": [-1, -1], "eps": [-1, -1]}.get(e.kind, kids + [-1])
        assert ix.kids[i].tolist() == want[:2], exprs.elements[i]
        assert ix.bounds[e.size - 1] <= i < ix.bounds[e.size]


def test_carrier_counts_and_order():
    # cumulative counts over a 2-letter alphabet, one new size per cap
    for cap, want in [(1, 4), (2, 8), (3, 44), (4, 144), (5, 852), (6, 3736), (7, 22140)]:
        assert len(RegexFunctor(cap).carrier(AB)) == want
    c = RegexFunctor(2).carrier(AB)
    assert c.elements == ("a", "b", "0", "1", "a*", "b*", "0*", "1*")
    one = FiniteSet("one-letter", ["a"])
    assert len(RegexFunctor(1).carrier(one)) == 3


def test_closed_form_counts_match_carriers():
    assert [RegexFunctor(cap).size(AB) for cap in range(1, 8)] == [
        4, 8, 44, 144, 852, 3736, 22140
    ]
    for letters, cap in [(1, 5), (2, 5), (3, 4)]:
        alphabet = FiniteSet(f"l{letters}", [f"c{i}" for i in range(letters)])
        for size in range(1, cap + 1):
            assert RegexFunctor(size).size(alphabet) == len(RegexFunctor(size).carrier(alphabet))


def test_bad_size_bound_or_order_mode_is_a_value_error():
    with pytest.raises(ValueError):
        RegexFunctor(0)
    with pytest.raises(ValueError):
        ka_hor(3, 2, mode="bogus")


def test_carrier_interned_and_size_closed():
    c = RegexFunctor(3).carrier(AB)
    assert RegexFunctor(3).carrier(AB) is c
    assert RegexFunctor(4).carrier(AB) is not c
    trees = _reference_exprs(2, 3)
    assert c.elements == tuple(_regex_label(e, AB) for e in trees)
    for e in trees:
        assert e.size <= 3
        for child in e.children:
            assert child in trees


def test_label_fencing():
    weird = FiniteSet("weird", ["x", "a+b"])
    c = RegexFunctor(2).carrier(weird)
    assert "<a+b>" in c.elements
    assert "<a+b>*" in c.elements
    c3 = RegexFunctor(3).carrier(weird)
    at = _where(_reference_exprs(2, 3))[re_plus(re_letter(0), re_letter(1))]
    assert c3.elements[at] == "(x+<a+b>)"


def test_budget_guard():
    with pytest.raises(BudgetError):
        RegexFunctor(9).carrier(AB)
    with pytest.raises(BudgetError):
        language_table(AB, 2, 6)
    # a table built under the default budget is refused under a lower one
    fresh = FiniteSet("ab", ["a", "b"])
    language_table(fresh, 3, 2)
    with carrier_budget(40), pytest.raises(BudgetError, match="up to size 3"):
        language_table(fresh, 3, 2)


def test_generated_orders_refused_over_the_cell_budget():
    # 852 expressions pass a budget of 1000 elements; their 852 x 852 order
    # does not pass its 100,000 cells
    with carrier_budget(1000):
        with pytest.raises(BudgetError, match="semantic order over 'ab' up to size 5 has 852 x 852"):
            semantic_leq(AB, 5, 2)
        h = ka_hor(5, 2)
        assert h.models.rel_at(AB).m.shape == (7, 852)
        with pytest.raises(BudgetError, match=r"order of ka\(semantic, size 5, words 2\) at ab"):
            instantiate(h, AB)
    assert semantic_leq(AB, 5, 2).m.shape == (852, 852)


def test_order_refused_before_any_carrier_is_built(monkeypatch):
    # the cells of the size-8 order are counted from the closed form
    def unbuilt(self, a):
        raise AssertionError("the expression carrier was built")

    monkeypatch.setattr(RegexFunctor, "carrier", unbuilt)
    with pytest.raises(BudgetError) as refused:
        instantiate(ka_hor(8, 3), FiniteSet("A", ["a", "b"]))
    assert str(refused.value) == ("order of ka(semantic, size 8, words 3) at A has "
                                  "112416 x 112416 = 12637357056 cells, budget 20000000")


def test_kleene_tables_die_with_their_alphabet():
    # nothing derived refers back to its base, so reference counting alone
    # frees the tables when the alphabet goes
    gc.disable()
    try:
        alphabet = FiniteSet("fresh", ["a", "b"])
        exprs, words, masks = language_table(alphabet, 4, 2)
        exprs, ix = RegexFunctor(4).arrays(alphabet)
        # the reports read labels off the lazy carrier
        assert ka_semantic_exactness(alphabet, 4, 2).ok
        assert ka_completeness_report(alphabet, 4, 2).verdicts[-1].witness == ("a", "(a.a*)")
        dead_masks, dead_kind, dead_exprs = weakref.ref(masks), weakref.ref(ix.head), weakref.ref(exprs)
        del alphabet, exprs, words, masks, ix
        assert dead_masks() is None
        assert dead_kind() is None
        assert dead_exprs() is None
    finally:
        gc.enable()


def bounded_language(alphabet: FiniteSet, label: str, word_len_cap: int, expr_size_cap: int = 7) -> frozenset:
    """The labels of the words up to the length bound that the expression
    `label` matches, read off its mask in `language_table`."""
    exprs, words, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    mask = masks[exprs.index(label)]
    bits = (mask >> np.arange(len(words), dtype=np.uint64)) & np.uint64(1)
    return frozenset(words.elements[i] for i in np.flatnonzero(bits))


def test_bounded_language_examples():
    assert bounded_language(AB, "(a+b)", 2) == {"[a]", "[b]"}
    assert bounded_language(AB, "a*", 3) == {"[]", "[a]", "[a,a]", "[a,a,a]"}
    assert bounded_language(AB, "(a.b)*", 3) == {"[]", "[a,b]"}
    assert bounded_language(AB, "0", 3) == frozenset()
    assert bounded_language(AB, "1", 3) == {"[]"}
    assert bounded_language(AB, "(a.b)", 3) == {"[a,b]"}


def _python_regex(e):
    if e.kind == "letter":
        return re_mod.escape("abc"[e.letter])
    if e.kind == "zero":
        return "(?!)"
    if e.kind == "eps":
        return "(?:)"
    if e.kind == "plus":
        return f"(?:{_python_regex(e.children[0])}|{_python_regex(e.children[1])})"
    if e.kind == "cat":
        return f"(?:{_python_regex(e.children[0])})(?:{_python_regex(e.children[1])})"
    return f"(?:{_python_regex(e.children[0])})*"


def _check_languages_against_re(alphabet, cap, k):
    # truncation commutes with the operations, so the bounded language is
    # the true language cut at the length bound; re.fullmatch is the oracle
    exprs, words, masks = language_table(alphabet, cap, k)
    trees = _reference_exprs(len(alphabet), cap)
    assert exprs.elements == tuple(_regex_label(e, alphabet) for e in trees)
    strings = ["".join("abc"[i] for i in w) for w in words.payload]
    for idx, e in enumerate(trees):
        pat = re_mod.compile(_python_regex(e))
        want = {j for j, s in enumerate(strings) if pat.fullmatch(s)}
        got = {j for j in range(len(words)) if int(masks[idx]) >> j & 1}
        assert got == want, exprs.elements[idx]


def test_languages_against_re_module():
    _check_languages_against_re(AB, 4, 3)


@pytest.mark.parametrize("letters, cap, k", [(1, 5, 4), (3, 4, 2)])
def test_languages_against_re_module_other_alphabets(letters, cap, k):
    _check_languages_against_re(FiniteSet(f"l{letters}", list("abc"[:letters])), cap, k)


def test_models_matrix_matches_languages():
    m = models_matrix(AB, 3, 2)
    exprs = RegexFunctor(3).carrier(AB)
    words = word_carrier(AB, 2)
    assert m.src is words and m.tgt is exprs
    for j, lab in enumerate(exprs.elements):
        lang = bounded_language(AB, lab, 2, expr_size_cap=3)
        assert {words.elements[i] for i in np.flatnonzero(m.m[:, j])} == lang


def test_semantic_leq_is_containment():
    # mask route vs residual of the satisfaction matrix
    leq = semantic_leq(AB, 3, 2)
    m = models_matrix(AB, 3, 2)
    assert (leq.m == under(m, m).m).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 143), st.integers(0, 143))
def test_semantic_leq_pointwise(i, j):
    exprs, words, masks = language_table(AB, 4, 2)
    leq = semantic_leq(AB, 4, 2)
    assert leq.m[i, j] == (int(masks[i]) & ~int(masks[j]) == 0)


def test_regex_functor_laws():
    report = check_functor_laws(RegexFunctor(3), ProbeUniverse(max_size=2, rel_samples=6))
    assert report.passed, report.describe()


def test_fmap_renames_letters():
    ba = FuncTable(AB, AB, [1, 0])
    fm = RegexFunctor(3).fmap(ba)
    c = RegexFunctor(3).carrier(AB)
    assert c.elements[fm.table[c.index("(a.b)")]] == "(b.a)"
    assert c.elements[fm.table[c.index("a*")]] == "b*"
    assert c.elements[fm.table[c.index("0")]] == "0"


def test_lift_of_graph_is_graph_of_fmap():
    fun = RegexFunctor(3)
    ba = FuncTable(AB, AB, [1, 0])
    assert (fun.lift(graph(ba)).m == graph(fun.fmap(ba)).m).all()


def _pointwise_fmap(fun, f):
    """The reading the shape-grouped arrow map replaced: rename every
    letter of every expression and look the result up."""
    ca, cb = fun.carrier(f.src), fun.carrier(f.tgt)
    where = _where(_reference_exprs(len(f.tgt), fun.size_cap))

    def rename(e):
        if e.kind == "letter":
            return re_letter(int(f.table[e.letter]))
        return RegExpr(e.kind, None, tuple(rename(c) for c in e.children))

    return FuncTable(ca, cb, [where[rename(e)] for e in _reference_exprs(len(f.src), fun.size_cap)])


def _pointwise_lift(fun, x):
    """The reading the shape-grouped lifting replaced: compare every pair
    of expressions node by node."""
    ca, cb = fun.carrier(x.src), fun.carrier(x.tgt)

    def related(e, f):
        if e.kind != f.kind:
            return False
        if e.kind == "letter":
            return bool(x.m[e.letter, f.letter])
        return all(related(c, d) for c, d in zip(e.children, f.children))

    ta, tb = (_reference_exprs(len(c), fun.size_cap) for c in (x.src, x.tgt))
    m = np.array([[related(e, f) for f in tb] for e in ta], dtype=bool)
    return Rel(ca, cb, m.reshape(len(ca), len(cb)))


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_fmap_and_lift_match_pointwise_readings(cap, differential_cases, differential_stacks):
    fun = RegexFunctor(cap)
    rels, funcs = differential_cases
    for f in funcs:
        assert fun.fmap(f) == _pointwise_fmap(fun, f), (f.src.name, list(f.table))
    for x in rels:
        assert fun.lift(x) == _pointwise_lift(fun, x), x.m.tolist()
    rel_groups, func_groups = differential_stacks
    for a, b, tables, group in func_groups:
        ca, cb, rows = fun.fmaps(a, b, tables)
        assert (ca, cb) == (fun.carrier(a), fun.carrier(b))
        assert rows.tolist() == [_pointwise_fmap(fun, f).table.tolist() for f in group]
    for a, b, xs, group in rel_groups:
        ca, cb, rows = fun.lifts(a, b, xs)
        assert (ca, cb) == (fun.carrier(a), fun.carrier(b))
        assert rows.tolist() == [_pointwise_lift(fun, x).m.tolist() for x in group]


def test_semantic_exactness_small_caps():
    for cap, k in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        v = ka_semantic_exactness(AB, cap, k)
        assert v.ok, (cap, k, v.describe())
        r = instantiate(ka_hor(cap, k), AB)
        assert is_exact(r).ok


def _dense_exactness(alphabet, cap, k):
    """Reference: containment from the whole satisfaction matrix in one
    dense product, compared with the mask order cell for cell."""
    exprs, words, masks = kleene.language_table(alphabet, cap, k)
    models = kleene.models_matrix(alphabet, cap, k).m
    containment = ~(models.T @ ~models)
    order = (masks[:, None] & ~masks[None, :]) == 0
    if (containment == order).all():
        return Verdict("semantic-exactness", True, note=f"{len(exprs)} expressions, {len(words)} words")
    i, j = np.argwhere(containment != order)[0]
    return Verdict("semantic-exactness", False, witness=(exprs.elements[i], exprs.elements[j]))


def _later_duplicates(m):
    """Columns equal to an earlier column, found without column classes."""
    same = (m.T[:, None, :] == m.T[None, :, :]).all(axis=2)
    return np.flatnonzero(np.tril(same, -1).any(axis=1))


@pytest.mark.parametrize("change", ["none", "models-cell", "mask-bit"])
@pytest.mark.parametrize("letters, cap, k", [
    (0, 3, 2), (1, 4, 3), (1, 5, 2), (2, 3, 2), (2, 4, 3), (2, 5, 3), (3, 3, 2), (3, 4, 2),
])
def test_exactness_on_classes_matches_dense(letters, cap, k, change, monkeypatch):
    alphabet = FiniteSet(f"l{letters}", [f"c{i}" for i in range(letters)])
    rng = np.random.default_rng([letters, cap, k])
    exprs, words, masks = language_table(alphabet, cap, k)
    models = models_matrix(alphabet, cap, k)
    # a change in a column that equals an earlier one: a class map read off
    # one side only would carry the change away with that column
    j = rng.choice(_later_duplicates(models.m))
    t = rng.integers(len(words))
    if change == "models-cell":
        flipped = models.m.copy()
        flipped[t, j] = ~flipped[t, j]
        monkeypatch.setattr(kleene, "models_matrix", lambda *_: Rel(words, exprs, flipped))
    elif change == "mask-bit":
        flipped = masks.copy()
        flipped[j] ^= np.uint64(1) << np.uint64(t)
        monkeypatch.setattr(kleene, "models_matrix", lambda *_: models)
        monkeypatch.setattr(kleene, "language_table", lambda *_: (exprs, words, flipped))
    want = _dense_exactness(alphabet, cap, k)
    assert want.ok == (change == "none")
    assert ka_semantic_exactness(alphabet, cap, k) == want


def test_hor_arrow_on_probe_functions():
    h = ka_hor(2, 2)
    probes = ProbeUniverse(max_size=2)
    for _, _, f in probes.functions():
        m = hor_arrow(h, f)
        assert m.validated


def test_axiom_instances_sound_by_re_oracle():
    exprs, words, masks = language_table(AB, 4, 3)
    strings = ["".join("ab"[i] for i in w) for w in words.payload]
    langs = []
    for e in _reference_exprs(2, 4):
        pat = re_mod.compile(_python_regex(e))
        langs.append({s for s in strings if pat.fullmatch(s)})
    for i, j in generate_axiom_instances(AB, 4):
        assert langs[i] <= langs[j], (exprs.elements[i], exprs.elements[j])


def test_axiomatic_leq_below_semantic():
    pairs = generate_axiom_instances(AB, 3)
    ax = axiomatic_leq(AB, 3, pairs)
    sem = semantic_leq(AB, 3, 2)
    assert (~ax.m | sem.m).all()
    assert not (ax.m == sem.m).all()


def test_axiomatic_mode_sound_not_exact():
    h = ka_hor(3, 2, mode="axiomatic")
    r = instantiate(h, AB)
    assert validate_representation(r).passed
    assert not is_exact(r).ok


def test_axiomatic_derives_plus_upper_bound():
    c = RegexFunctor(3).carrier(AB)
    ax = axiomatic_leq(AB, 3, generate_axiom_instances(AB, 3))
    assert ax.m[c.index("a"), c.index("(a+b)")]
    assert ax.m[c.index("b"), c.index("(a+b)")]
    assert ax.m[c.index("(a+b)"), c.index("(b+a)")]
    assert ax.m[c.index("a"), c.index("(a.1)")]
    # true inclusion with no derivation: nothing rewrites into (a.a)
    sem = semantic_leq(AB, 3, 2)
    assert sem.m[c.index("0"), c.index("(a.a)")]
    assert not ax.m[c.index("0"), c.index("(a.a)")]


def test_completeness_report_shape():
    report = ka_completeness_report(AB, 4, 3)
    assert [v.law for v in report.verdicts] == ["axiom-instances-sound", "completeness-gap"]
    assert report.passed
    lo, hi = report.verdicts[1].witness
    assert bounded_language(AB, lo, 3, expr_size_cap=4) <= bounded_language(AB, hi, 3, expr_size_cap=4)
    pairs = set(map(tuple, generate_axiom_instances(AB, 4).tolist()))
    exprs = RegexFunctor(4).carrier(AB)
    assert (exprs.index(lo), exprs.index(hi)) not in pairs


def _supply_instances(monkeypatch, pairs):
    """Have the completeness report read `pairs` as its instance list."""
    table = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    monkeypatch.setattr(kleene, "generate_axiom_instances", lambda alphabet, cap: table)


def test_completeness_report_without_a_gap(monkeypatch):
    # instances listing the whole semantic order derive every true inclusion
    pairs = np.argwhere(semantic_leq(AB, 2, 2).m).tolist()
    _supply_instances(monkeypatch, pairs)
    report = ka_completeness_report(AB, 2, 2)
    assert report.passed and report.scope == ""
    assert report.verdicts[1] == Verdict(
        "completeness-gap", True, note="no gap among the first 8 expressions at this bound")


def test_completeness_report_degenerate(monkeypatch):
    _supply_instances(monkeypatch, [])
    report = ka_completeness_report(AB, 2, 2)
    assert report.passed
    assert "syntactic identity" in report.verdicts[0].note
    assert report.scope == "degenerate instance list"


def test_completeness_report_names_the_first_unsound_instance(monkeypatch):
    c = RegexFunctor(2).carrier(AB)
    pairs = [(c.index(lo), c.index(hi)) for lo, hi in [("a", "a*"), ("a*", "a"), ("b", "a")]]
    _supply_instances(monkeypatch, pairs)
    report = ka_completeness_report(AB, 2, 2)
    assert not report.passed and report.scope == ""
    assert report.verdicts[0].describe() == "axiom-instances-sound: VIOLATION at (a*, a)"


@pytest.mark.parametrize("seed", range(4))
def test_first_unsound_pair_in_pair_order(monkeypatch, seed):
    # the vectorized soundness check against a loop over the pairs in the
    # order given, with languages from the re oracle
    exprs, words, _ = language_table(AB, 3, 2)
    strings = ["".join("ab"[i] for i in w) for w in words.payload]
    langs = [{s for s in strings if re_mod.fullmatch(_python_regex(e), s)} for e in _reference_exprs(2, 3)]
    rng = np.random.default_rng(seed)
    pairs = [(int(i), int(j)) for i, j in rng.integers(len(exprs), size=(30, 2))]
    pairs.sort(key=lambda p: -p[0])  # neither index order nor carrier order
    bad = [p for p in pairs if not langs[p[0]] <= langs[p[1]]]
    assert len(bad) > 1 and bad[0] != min(bad)
    i, j = bad[0]
    _supply_instances(monkeypatch, pairs)
    report = ka_completeness_report(AB, 3, 2)
    assert report.verdicts[0] == Verdict("axiom-instances-sound", False, (exprs.elements[i], exprs.elements[j]))


def test_cap7_exactness_and_gap():
    v = ka_semantic_exactness(AB, 7, 3)
    assert v.ok and "22140 expressions" in v.note
    report = ka_completeness_report(AB, 7, 3)
    assert report.passed
    assert report.verdicts[1].witness == ("a", "(a.a*)")


def test_instantiate_names_and_sizes():
    r = instantiate(ka_hor(2, 2), AB)
    assert len(r.exprs) == 8
    assert len(r.traces) == 7
    p = probe_carrier(0)
    r0 = instantiate(ka_hor(2, 2), p)
    assert len(r0.exprs) == 4  # 0, 1, 0*, 1* survive an empty alphabet
    assert r0.traces.elements == ("[]",)
