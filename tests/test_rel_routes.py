"""The routes of `rel.compose` and `rel.under` against the one-call product.

A `compose` of at least `rel.BLOCK_CELLS` multiply-adds gathers when
its left operand has at most one cell per row or its right one at most
one cell per column, and otherwise runs `product` in row blocks, as
`under` does; a smaller one is one `product` call.  Every route must give what one
`rel.product` (or `rel.residual`) call gives on the same matrices, and
which route ran is read from whether `rel.product` was called.  The
memory pins bound what `tracemalloc` sees allocated during one call.
"""

import tracemalloc

import numpy as np
import pytest

import finrep.rel as relmod
from finrep.fset import FiniteSet
from finrep.rel import Rel, compose, under

_CARRIERS = {}


def _sized(n, tag):
    """One carrier per (size, tag), so operands of equal size chain."""
    key = (n, tag)
    if key not in _CARRIERS:
        _CARRIERS[key] = FiniteSet(f"{tag}{n}", [f"{tag}{i}" for i in range(n)])
    return _CARRIERS[key]


def _map(rng, rows, cols, partial=False):
    """One cell per row at a random column; `partial` empties some rows."""
    m = np.zeros((rows, cols), dtype=bool)
    if cols:
        m[np.arange(rows), rng.integers(0, cols, rows)] = True
    if partial:
        m[rng.random(rows) < 0.4] = False
    return m


def _general(rng, rows, cols, density=0.5):
    m = rng.random((rows, cols)) < density
    if rows and cols:  # some row holds two cells, so this is no map and no converse of one
        m[0, :2] = True
        m[:2, 0] = True
    return m


def _one_row_of_two(rows, cols):
    """Fewer cells than rows, yet not a map: one row holds two."""
    m = np.zeros((rows, cols), dtype=bool)
    m[rows // 2, :2] = True
    return m


def _cases():
    # 70 x 60 x 80 is 336,000 multiply-adds, past the 2^18 of one block
    rng = np.random.default_rng(28)
    a, b, c = 70, 60, 80
    ga = _general
    yield "map", _map(rng, a, b), ga(rng, b, c), "gather"
    yield "partial-map", _map(rng, a, b, partial=True), ga(rng, b, c), "gather"
    yield "comap", ga(rng, a, b), _map(rng, c, b).T, "gather"
    yield "partial-comap", ga(rng, a, b), _map(rng, c, b, partial=True).T, "gather"
    yield "map-and-comap", _map(rng, a, b), _map(rng, c, b).T, "gather"
    yield "neither", ga(rng, a, b), ga(rng, b, c), "product"
    yield "row-of-two", _one_row_of_two(a, b), ga(rng, b, c), "product"
    yield "column-of-two", ga(rng, a, b), _one_row_of_two(c, b).T, "product"
    yield "map-into-one", _map(rng, 4000, 1), ga(rng, 1, c), "gather"
    yield "empty-rows-and-columns", _map(rng, a, b, partial=True), np.zeros((b, c), dtype=bool), "gather"
    yield "all-empty", np.zeros((a, b), dtype=bool), np.zeros((b, c), dtype=bool), "gather"
    yield "tiny-map", _map(rng, 7, 5), ga(rng, 5, 6), "product"
    yield "no-rows", np.zeros((0, b), dtype=bool), ga(rng, b, c), "product"
    yield "no-columns", ga(rng, a, b), np.zeros((b, 0), dtype=bool), "product"
    yield "no-middle", np.zeros((a, 0), dtype=bool), np.zeros((0, c), dtype=bool), "product"
    yield "all-carriers-empty", np.zeros((0, 0), dtype=bool), np.zeros((0, 0), dtype=bool), "product"
    yield "identity-1500", np.eye(1500, dtype=bool), ga(rng, 1500, 40, 0.1), "gather"
    yield "into-identity-1500", ga(rng, 40, 1500, 0.1), np.eye(1500, dtype=bool), "gather"


CASES = list(_cases())


def _calls_to_product(monkeypatch):
    calls = []
    monkeypatch.setattr(relmod, "product", lambda a, b, p=relmod.product: calls.append(a.shape) or p(a, b))
    return calls


@pytest.mark.parametrize("name, a, b, route", CASES, ids=[c[0] for c in CASES])
def test_compose_matches_one_product_call(name, a, b, route, monkeypatch):
    want = relmod.product(a, b)
    x, y = Rel(_sized(a.shape[0], "p"), _sized(a.shape[1], "q"), a), Rel(_sized(b.shape[0], "q"), _sized(b.shape[1], "r"), b)
    calls = _calls_to_product(monkeypatch)
    got = compose(x, y)
    assert np.array_equal(got.m, want)
    assert ("product" if calls else "gather") == route


def _block_rows(width):
    return relmod.BLOCK_CELLS // width


@pytest.mark.parametrize("rows_at", [lambda block: 0, lambda block: 1, lambda block: block - 1,
                                     lambda block: block, lambda block: block + 1],
                         ids=["0", "1", "block-1", "block", "block+1"])
def test_compose_and_under_across_block_boundaries(rows_at):
    width = 1024
    rows = rows_at(_block_rows(width))
    rng = np.random.default_rng([rows, 28])
    a, b = _general(rng, rows, width, 0.01), _general(rng, width, width, 0.01)
    z = rng.random((width, width)) < 0.99
    x = Rel(_sized(rows, "p"), _sized(width, "q"), a)
    assert np.array_equal(compose(x, Rel(_sized(width, "q"), _sized(width, "r"), b)).m, relmod.product(a, b))
    xt = Rel(_sized(width, "u"), _sized(rows, "p"), a.T)  # under's row blocks are the columns of x
    zt = Rel(_sized(width, "u"), _sized(width, "r"), z)
    assert np.array_equal(under(xt, zt).m, relmod.residual(a.T, z))


def test_compose_and_under_read_a_transposed_view():
    rng = np.random.default_rng(7)
    width = 1024
    rows = _block_rows(width) + 3
    base = rng.random((width, rows)) < 0.01
    x = Rel(_sized(rows, "p"), _sized(width, "q"), base.T)
    assert x.m.flags.f_contiguous and not x.m.flags.c_contiguous
    y = rng.random((width, width)) < 0.01
    assert np.array_equal(compose(x, Rel(_sized(width, "q"), _sized(width, "r"), y)).m, relmod.product(base.T, y))
    z = rng.random((rows, width)) < 0.99
    assert np.array_equal(under(x, Rel(_sized(rows, "p"), _sized(width, "r"), z)).m,
                          relmod.residual(base.T, z))
    assert np.array_equal(compose(Rel(_sized(width, "q"), _sized(rows, "p"), base), x).m,
                          relmod.product(base, base.T))


# -------------------------------------------------------- memory pins
# One float32 product call holds float32 copies of both operands and of
# the result: 25.7 MB for the 1500 x 1500 cases, 11.4 MB for the 1000^3
# compose and 12.4 MB for the under.

def _peak_mb(call):
    """The call's result and the peak it allocated, in units of 2^20 bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak / 2 ** 20


def test_composing_with_the_identity_gathers_within_its_output():
    # the gathered result and the Rel's own copy of it, 2.1 MB each
    n = 1500
    s = _sized(n, "i")
    ident = Rel.identity(s)
    r = Rel(s, s, np.random.default_rng(3).random((n, n)) < 0.01)
    out, peak = _peak_mb(lambda: compose(ident, r))
    assert out == r
    assert peak < 5, peak
    out, peak = _peak_mb(lambda: compose(r, ident))
    assert out == r
    assert peak < 5, peak


def test_a_large_product_holds_one_float32_copy_and_a_block():
    # 1000^3: a float32 copy of the right operand (3.8 MB), one block of
    # rows as float32 for the operand and for the result (1 MB each), and
    # the bool result and its copy (1 MB each), 6.8 MB at most at once;
    # under adds a complement (1 MB)
    n = 1000
    s = _sized(n, "k")
    rng = np.random.default_rng(4)
    x, y = Rel(s, s, _general(rng, n, n, 0.01)), Rel(s, s, _general(rng, n, n, 0.01))
    out, peak = _peak_mb(lambda: compose(x, y))
    assert np.array_equal(out.m, relmod.product(x.m, y.m))
    assert peak < 8, peak
    out, peak = _peak_mb(lambda: under(x, y))
    assert np.array_equal(out.m, relmod.residual(x.m, y.m))
    assert peak < 9, peak
