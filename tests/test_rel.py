"""Relation kernel against independent pair-set oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finrep.rel as relmod
from finrep.errors import CarrierMismatch
from finrep.fset import FiniteSet
from finrep.functors import ListFunctor
from finrep.rel import (
    FuncTable,
    Rel,
    check_coproduct_axioms,
    cograph,
    compose,
    compose_func,
    converse,
    equal_verdict,
    graph,
    inter,
    is_included,
    is_preorder,
    star,
    sum_set,
    under,
    union,
)

A = FiniteSet("rA", ["a0", "a1", "a2"])
B = FiniteSet("rB", ["b0", "b1"])
C = FiniteSet("rC", ["c0", "c1", "c2", "c3"])
E = FiniteSet("rE", [])


def pairs_of(r):
    return set(r.pairs())


def rel_from(src, tgt, pairset):
    return Rel.from_pairs(src, tgt, pairset)


def random_pairs(rng, src, tgt, p=0.4):
    return {
        (x, y) for x in src.elements for y in tgt.elements if rng.random() < p
    }


# ------------------------------------------------------------- oracles

def compose_oracle(xp, yp):
    return {(a, c) for a, b in xp for b2, c in yp if b == b2}


def under_oracle(src, xp, zp, btgt, ctgt):
    out = set()
    for b in btgt.elements:
        for c in ctgt.elements:
            if all((a, b) not in xp or (a, c) in zp for a in src.elements):
                out.add((b, c))
    return out


def star_oracle(carrier, xp):
    closed = set(xp) | {(a, a) for a in carrier.elements}
    while True:
        extra = compose_oracle(closed, closed) - closed
        if not extra:
            return closed
        closed |= extra


def test_compose_against_oracle():
    rng = random.Random(7)
    for _ in range(40):
        xp = random_pairs(rng, A, B)
        yp = random_pairs(rng, B, C)
        got = compose(rel_from(A, B, xp), rel_from(B, C, yp))
        assert pairs_of(got) == compose_oracle(xp, yp)


def test_compose_carrier_check():
    with pytest.raises(CarrierMismatch):
        compose(Rel.empty(A, B), Rel.empty(C, B))


def test_under_against_oracle():
    rng = random.Random(8)
    for _ in range(40):
        xp = random_pairs(rng, A, B)
        zp = random_pairs(rng, A, C)
        got = under(rel_from(A, B, xp), rel_from(A, C, zp))
        assert pairs_of(got) == under_oracle(A, xp, zp, B, C)


def test_a_relation_is_its_own_self_residual_exactly_when_a_preorder():
    # x under x relates p to q when every a with (a, p) in x has (a, q) in
    # x; checked over every relation on three elements
    for pairs in _all_pairsets(A, A):
        x = rel_from(A, A, pairs)
        assert (under(x, x) == x) == is_preorder(x).passed


def _all_pairsets(src, tgt):
    cells = [(x, y) for x in src.elements for y in tgt.elements]
    for mask in range(1 << len(cells)):
        yield {cells[i] for i in range(len(cells)) if mask >> i & 1}


def test_star_against_oracle():
    rng = random.Random(9)
    for _ in range(40):
        xp = random_pairs(rng, A, A, p=0.3)
        got = star(rel_from(A, A, xp))
        assert pairs_of(got) == star_oracle(A, xp)


def test_star_on_empty_carrier():
    assert star(Rel.empty(E, E)).count() == 0


def test_is_included_first_witness_row_major():
    x = rel_from(A, B, {("a1", "b1"), ("a2", "b0")})
    v = is_included(x, Rel.empty(A, B))
    assert not v.ok
    assert v.witness == ("a1", "b1")


def test_equal_verdict_direction_notes():
    x = rel_from(A, B, {("a0", "b0")})
    y = rel_from(A, B, {("a0", "b1")})
    v = equal_verdict(x, y)
    assert not v.ok and v.witness == ("a0", "b0")


def test_graph_and_cograph_pairs():
    f = FuncTable.from_map(A, B, {"a0": "b0", "a1": "b1", "a2": "b0"})
    g = graph(f)
    assert pairs_of(g) == {("a0", "b0"), ("a1", "b1"), ("a2", "b0")}
    assert pairs_of(cograph(f)) == {(b, a) for a, b in pairs_of(g)}


def test_compose_func_is_function_composition():
    f = FuncTable.from_map(A, B, {"a0": "b0", "a1": "b1", "a2": "b0"})
    g = FuncTable.from_map(B, C, {"b0": "c2", "b1": "c3"})
    gf = compose_func(g, f)
    assert gf("a2") == "c2"
    assert graph(gf) == compose(graph(f), graph(g))


def test_preorder_verdicts():
    ok = star(rel_from(A, A, {("a0", "a1")}))
    rep = is_preorder(ok)
    assert rep.passed
    bad = rel_from(A, A, {("a0", "a1"), ("a1", "a2")})
    rep = is_preorder(bad)
    refl, trans = rep.verdicts
    assert not refl.ok and not trans.ok
    assert trans.witness == ("a0", "a2")
    # kept on the relation; each caller gets its own report
    again = is_preorder(bad)
    assert again is not rep and again.verdicts == rep.verdicts
    again.add(refl)
    assert len(is_preorder(bad).verdicts) == 2


def test_coproduct_axioms_all_small_pairs():
    sets = [
        FiniteSet("cp0", []),
        FiniteSet("cp1", ["u"]),
        FiniteSet("cp2", ["u", "v"]),
        FiniteSet("cp3", ["u", "v", "w"]),
        FiniteSet("cp4", ["u", "v", "w", "x"]),
    ]
    for a in sets:
        for b in sets:
            assert check_coproduct_axioms(a, b).passed


def test_reprs_name_the_carriers():
    x = rel_from(A, B, {("a0", "b1"), ("a2", "b0")})
    assert repr(x) == "Rel('rA' -> 'rB', 2 pairs)"
    assert repr(FuncTable.identity(B)) == "FuncTable('rB' -> 'rB')"
    assert repr(A) == "FiniteSet('rA', 3 elements)"
    assert repr(ListFunctor(2)) == "Functor(list(len 2))"


def test_sum_set_injections():
    s, i1, i2 = sum_set(A, B)
    assert len(s) == 5
    assert i1("a1") == "inl(a1)"
    assert i2("b0") == "inr(b0)"


def test_matrices_are_immutable():
    x = Rel.empty(A, B)
    with pytest.raises(ValueError):
        x.m[0, 0] = True


@pytest.mark.parametrize("rows, cols, kinds", [
    (5, 40, 6), (70, 30, 30), (3, 8, 1), (0, 4, 1), (4, 0, 0), (130, 12, 4),
])
def test_column_classes(rows, cols, kinds):
    rng = np.random.default_rng([rows, cols])
    pool = rng.random((rows, max(kinds, 1))) < 0.5
    m = pool[:, rng.integers(kinds, size=cols)] if kinds else np.zeros((rows, 0), dtype=bool)
    first, cls = relmod.column_classes(m)
    assert list(first) == sorted(first) and len(cls) == cols
    assert list(cls[first]) == list(range(len(first)))
    for j in range(cols):
        assert (m[:, j] == m[:, first[cls[j]]]).all()
        # a class starts at the first column that equals no earlier one
        assert (j in first) == all((m[:, j] != m[:, i]).any() for i in range(j))


def _void_key_column_classes(m):
    """The route that the word keys replaced: each column's bits packed
    into one void key, grouped by `np.unique`."""
    packed8 = np.packbits(np.ascontiguousarray(m.T), axis=1, bitorder="little")
    packed8 = np.pad(packed8, ((0, 0), (0, (-packed8.shape[1]) % 8)))
    packed = packed8.view(np.uint64)
    if packed.shape[1] == 0:          # no rows: every column is the same
        packed = np.zeros((packed.shape[0], 1), dtype=np.uint64)
    keys = packed.view(np.dtype((np.void, packed.itemsize * packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    return first[by_first], np.argsort(by_first)[inverse]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 140), cols=st.integers(0, 40), kinds=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_column_classes_match_the_void_key_route(rows, cols, kinds, seed):
    rng = np.random.default_rng(seed)
    m = (rng.random((rows, kinds)) < 0.5)[:, rng.integers(kinds, size=cols)]
    for got, want in zip(relmod.column_classes(m), _void_key_column_classes(m)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ------------------------------------------ batched formulas and gathers

def _sized(n, tag):
    return FiniteSet(f"batch{tag}{n}", [f"{tag}{i}" for i in range(n)])


def _table(rng, batch, rows, cols):
    return rng.integers(0, cols, size=batch + (rows,)) if cols else np.zeros(batch + (rows,), int)


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=["plain", "n", "n-m"])
@pytest.mark.parametrize("a, b, c", [
    (2, 3, 2), (1, 4, 3), (0, 2, 3), (2, 0, 3), (3, 2, 0), (0, 0, 0), (0, 3, 0),
])
def test_batched_formulas_match_per_matrix_operators(batch, a, b, c):
    rng = np.random.default_rng([a, b, c, len(batch)])
    sa, sb, sc = _sized(a, "a"), _sized(b, "b"), _sized(c, "c")
    x = rng.random(batch + (a, b)) < 0.5
    y = rng.random(batch + (b, c)) < 0.5
    z = rng.random(batch + (a, c)) < 0.5
    inside = x & (rng.random(batch + (a, b)) < 0.7)
    prod, res = relmod.product(x, y), relmod.residual(x, z)
    inc = relmod.included(inside, x), relmod.included(z, relmod.product(x, y))
    functions = (a == 0 or b > 0) and (c == 0 or b > 0)
    if functions:
        f, h = _table(rng, batch, a, b), _table(rng, batch, c, b)
        shared = _table(rng, (), a, b)
        rows, cols = relmod.gather(y, f, -2), relmod.gather(x, h, -1)
        rows_shared = relmod.gather(y, shared, -2)
    for i in np.ndindex(*batch):
        X, Y, Z = Rel(sa, sb, x[i]), Rel(sb, sc, y[i]), Rel(sa, sc, z[i])
        assert np.array_equal(prod[i], compose(X, Y).m)
        assert np.array_equal(res[i], under(X, Z).m)
        assert inc[0][i] == is_included(Rel(sa, sb, inside[i]), X).ok
        assert inc[1][i] == is_included(Z, compose(X, Y)).ok
        if functions:
            F, H = FuncTable(sa, sb, f[i]), FuncTable(sc, sb, h[i])
            assert np.array_equal(rows[i], compose(graph(F), Y).m)
            assert np.array_equal(cols[i], compose(X, cograph(H)).m)
            assert np.array_equal(rows_shared[i], compose(graph(FuncTable(sa, sb, shared)), Y).m)


# ------------------------------------ the float32 product against references
# The references are numpy's bool matmul (the kernel's former dense path)
# and the pointwise readings: (a;b)(i, k) iff some j has a(i, j) and b(j, k);
# (x\z)(j, k) iff every i with x(i, j) has z(i, k).

def _exists_product(a, b):
    return (a[..., :, :, None] & b[..., None, :, :]).any(axis=-2)


def _forall_residual(x, z):
    return (~x[..., :, :, None] | z[..., :, None, :]).all(axis=-3)


def _bool_residual(x, z):
    return ~np.matmul(np.swapaxes(x, -1, -2), ~z)


@pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0], ids=["empty", "sparse", "half", "full"])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=["plain", "n", "n-m"])
@pytest.mark.parametrize("a, b, c", [(4, 5, 3), (0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)])
def test_product_matches_bool_matmul_and_pointwise(density, batch, a, b, c):
    rng = np.random.default_rng([a, b, c, len(batch), int(density * 100)])
    x = rng.random(batch + (a, b)) < density
    y = rng.random(batch + (b, c)) < density
    z = rng.random(batch + (a, c)) < density
    prod, res = relmod.product(x, y), relmod.residual(x, z)
    assert prod.dtype == bool and prod.shape == batch + (a, c)
    assert res.dtype == bool and res.shape == batch + (b, c)
    assert np.array_equal(prod, np.matmul(x, y))
    assert np.array_equal(prod, _exists_product(x, y))
    assert np.array_equal(res, _bool_residual(x, z))
    assert np.array_equal(res, _forall_residual(x, z))
    sa, sb, sc = _sized(a, "a"), _sized(b, "b"), _sized(c, "c")
    for i in np.ndindex(*batch):
        assert np.array_equal(compose(Rel(sa, sb, x[i]), Rel(sb, sc, y[i])).m, prod[i])
        assert np.array_equal(under(Rel(sa, sb, x[i]), Rel(sa, sc, z[i])).m, res[i])


def test_product_exact_on_block_chain_past_the_old_packed_limit():
    # 500 x 500 x 500 products (1.25e8 cells, where the packed path used to
    # run): a block-chain order composes and divides to itself
    n, block = 500, 20
    idx, start = np.arange(n), np.arange(n) // block
    leq = (start[:, None] == start[None, :]) & (idx[:, None] <= idx[None, :])
    models = np.random.default_rng(12).random((n, n)) < 0.01
    s = _sized(n, "chain")
    order, sat = Rel(s, s, leq), Rel(s, s, models)
    assert compose(order, order) == order
    assert under(order, order) == order
    assert np.array_equal(compose(sat, order).m, np.matmul(models, leq))
    assert np.array_equal(under(sat, sat).m, _bool_residual(models, models))


# ------------------------------------------------- algebraic properties

def _rel_of_mask(src, tgt, mask):
    m = np.zeros((len(src), len(tgt)), dtype=bool)
    for i in range(len(src)):
        for j in range(len(tgt)):
            if mask >> (i * len(tgt) + j) & 1:
                m[i, j] = True
    return Rel(src, tgt, m)


masks_aa = st.integers(0, 2 ** 9 - 1)
masks_ab = st.integers(0, 2 ** 6 - 1)
masks_bc = st.integers(0, 2 ** 8 - 1)
masks_ac = st.integers(0, 2 ** 12 - 1)


class TestAlgebra:
    @given(masks_ab)
    def test_converse_involution(self, mx):
        x = _rel_of_mask(A, B, mx)
        assert converse(converse(x)) == x

    @given(masks_ab, masks_bc)
    def test_converse_antidistributes(self, mx, my):
        x, y = _rel_of_mask(A, B, mx), _rel_of_mask(B, C, my)
        assert converse(compose(x, y)) == compose(converse(y), converse(x))

    @given(masks_aa, masks_ab, masks_bc)
    def test_compose_associative(self, mw, mx, my):
        w = _rel_of_mask(A, A, mw)
        x = _rel_of_mask(A, B, mx)
        y = _rel_of_mask(B, C, my)
        assert compose(compose(w, x), y) == compose(w, compose(x, y))

    @given(masks_ab, masks_bc, masks_ac)
    @settings(max_examples=200)
    def test_residual_adjunction(self, mx, my, mz):
        x = _rel_of_mask(A, B, mx)
        y = _rel_of_mask(B, C, my)
        z = _rel_of_mask(A, C, mz)
        lhs = is_included(y, under(x, z)).ok
        rhs = is_included(compose(x, y), z).ok
        assert lhs == rhs

    @given(masks_aa)
    def test_star_is_idempotent_closure(self, mx):
        x = _rel_of_mask(A, A, mx)
        s = star(x)
        assert star(s) == s
        assert is_included(x, s).ok
        assert is_preorder(s).passed

    @given(masks_ab, masks_ab)
    def test_lattice_ops(self, mx, my):
        x, y = _rel_of_mask(A, B, mx), _rel_of_mask(A, B, my)
        assert union(x, y) == union(y, x)
        assert inter(x, y) == inter(y, x)
        assert is_included(inter(x, y), union(x, y)).ok
