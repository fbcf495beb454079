"""Relations between finite carriers, stored as dense boolean matrices.

The public operator set is negation-free; complement shows up only as an
internal bit trick (the residual is the complement of a product with a
complement).  The dense formulas also take stacks of matrices, so the law
suite checks many relations per call through the same code.  Matrices are
immutable after construction.  Every relational product goes through the
one boolean product `product`, a float32 BLAS product that stays exact
at every size.  The operators `compose` and `under` choose their route
from the matrices.  A composition of at least BLOCK_CELLS multiply-adds
with a map (at most one cell per row of the left operand) or with the
converse of one (at most one cell per column of the right operand) is an
index gather.  Any other product runs in blocks of rows against one
float32 copy of its right operand, so it never holds float32 copies of
both operands and the result at once.
"""

from __future__ import annotations

import numpy as np

from .errors import CarrierMismatch
from .fset import SUBSET_CAP, FiniteSet, membership_matrix, product_of, sum_of
from .verdict import LawReport, Verdict, checked_once

# the cells of one row block of a large product: its rows of the left
# operand and of the result each take at most this many, 1 MB as float32.
# A composition of fewer multiply-adds is one `product` call, which costs
# less there than choosing a route.
BLOCK_CELLS = 1 << 18


class Rel:
    """Binary relation src ⇸ tgt as a |src| x |tgt| boolean matrix."""

    __slots__ = ("src", "tgt", "m", "_memo")

    def __init__(self, src: FiniteSet, tgt: FiniteSet, matrix):
        m = np.array(matrix, dtype=bool, copy=True)
        if m.shape != (len(src), len(tgt)):
            raise CarrierMismatch(
                f"matrix shape {m.shape} does not fit carriers "
                f"{src.name!r} ({len(src)}) and {tgt.name!r} ({len(tgt)})"
            )
        m.setflags(write=False)
        self.src = src
        self.tgt = tgt
        self.m = m
        self._memo = None  # is_preorder's verdicts and hor's lift of an order, see `fset.intern`: m never changes

    @classmethod
    def empty(cls, src, tgt):
        return cls(src, tgt, np.zeros((len(src), len(tgt)), dtype=bool))

    @classmethod
    def full(cls, src, tgt):
        return cls(src, tgt, np.ones((len(src), len(tgt)), dtype=bool))

    @classmethod
    def identity(cls, a):
        return cls(a, a, np.eye(len(a), dtype=bool))

    @classmethod
    def from_pairs(cls, src, tgt, pairs):
        m = np.zeros((len(src), len(tgt)), dtype=bool)
        for x, y in pairs:
            m[src.index(x), tgt.index(y)] = True
        return cls(src, tgt, m)

    def holds(self, x: str, y: str) -> bool:
        return bool(self.m[self.src.index(x), self.tgt.index(y)])

    def pairs(self):
        """Related pairs as labels, row-major."""
        for i, j in np.argwhere(self.m):
            yield self.src.elements[i], self.tgt.elements[j]

    def count(self) -> int:
        return int(self.m.sum())

    def __eq__(self, other):
        if not isinstance(other, Rel):
            return NotImplemented
        return (
            self.src is other.src
            and self.tgt is other.tgt
            and np.array_equal(self.m, other.m)
        )

    __hash__ = None

    def __repr__(self):
        return f"Rel({self.src.name!r} -> {self.tgt.name!r}, {self.count()} pairs)"


class FuncTable:
    """Total function between carriers as a target-index table."""

    __slots__ = ("src", "tgt", "table")

    def __init__(self, src: FiniteSet, tgt: FiniteSet, table):
        table = np.array(table, dtype=np.int64, copy=True)
        if table.shape != (len(src),):
            raise CarrierMismatch(
                f"table length {table.shape} does not fit carrier {src.name!r}"
            )
        if len(src) and (table.min() < 0 or table.max() >= len(tgt)):
            raise CarrierMismatch(f"table entry out of range for carrier {tgt.name!r}")
        table.setflags(write=False)
        self.src = src
        self.tgt = tgt
        self.table = table

    @classmethod
    def from_map(cls, src, tgt, mapping):
        return cls(src, tgt, [tgt.index(mapping[x]) for x in src.elements])

    @classmethod
    def identity(cls, a):
        return cls(a, a, np.arange(len(a)))

    def __call__(self, label: str) -> str:
        return self.tgt.elements[self.table[self.src.index(label)]]

    def items(self):
        for i, x in enumerate(self.src.elements):
            yield x, self.tgt.elements[self.table[i]]

    def __eq__(self, other):
        if not isinstance(other, FuncTable):
            return NotImplemented
        return (
            self.src is other.src
            and self.tgt is other.tgt
            and np.array_equal(self.table, other.table)
        )

    __hash__ = None

    def __repr__(self):
        return f"FuncTable({self.src.name!r} -> {self.tgt.name!r})"


def on_carriers(x, src: FiniteSet, tgt: FiniteSet, what: str, *args):
    """`x` (a relation or function table) if it runs from `src` to `tgt`."""
    if x.src is not src or x.tgt is not tgt:
        raise CarrierMismatch(what % args)
    return x


def compose_func(outer: FuncTable, inner: FuncTable) -> FuncTable:
    """outer after inner."""
    if inner.tgt is not outer.src:
        raise CarrierMismatch("function tables do not chain")
    return FuncTable(inner.src, outer.tgt, outer.table[inner.table])


def graph(f: FuncTable) -> Rel:
    m = np.zeros((len(f.src), len(f.tgt)), dtype=bool)
    m[np.arange(len(f.src)), f.table] = True
    return Rel(f.src, f.tgt, m)


def cograph(f: FuncTable) -> Rel:
    """Converse of the function graph."""
    return converse(graph(f))


def column_classes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of identical columns of a bool matrix.  `first` holds the
    lowest column of each class in ascending order, `cls` the class of
    every column, so column j equals column first[cls[j]].

    Each column is packed into uint64 words, which a stable lexsort
    groups: the first of a group in sorted order is its lowest column."""
    packed8 = np.packbits(m, axis=0, bitorder="little")
    size = max(8, -len(packed8) % 8 + len(packed8))  # at least one word, so no rows still sort
    packed8 = np.pad(packed8, ((0, size - len(packed8)), (0, 0)))
    words = np.ascontiguousarray(packed8.T).view(np.uint64)  # one row of words per column
    order = np.lexsort(words.T)
    ranked = words[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    firsts = order[starts]
    by_first = np.argsort(firsts)
    group_cls = np.empty_like(by_first)
    group_cls[by_first] = np.arange(len(by_first))
    cls = np.empty_like(order)
    cls[order] = group_cls[np.cumsum(starts) - 1]
    return firsts[by_first], cls


# ------------------------------------------------- dense array formulas
# Each takes bool matrices with any leading batch axes, which broadcast;
# the operators below call them on plain 2-D matrices.

def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product a ; b, the kernel's only one.

    Each cell of the float32 product is a sum of 0/1 terms, which is zero
    only when every term is: nonnegative terms cannot cancel and float32
    cannot overflow on them, so `> 0` is exact at every size.  BLAS makes
    it far faster than numpy's bool matmul on large matrices.  The cast
    costs a transient ~4 bytes per cell for each operand and for the
    float32 result; an operand that is already a float32 0/1 matrix is
    not copied.  The operators bound this transient by calling it on row
    blocks (`_blocked`).
    """
    return np.matmul(a, b, dtype=np.float32) > 0


def residual(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Left residual x\\z: the complement of xᵀ ; (not z)."""
    return ~product(x.swapaxes(-1, -2), ~z)


def excess(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cells of a that b lacks."""
    return a & ~b


def included(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether a lies inside b, one answer per batch index."""
    return ~excess(a, b).any(axis=(-2, -1))


def gather(m: np.ndarray, table: np.ndarray, axis: int) -> np.ndarray:
    """Composition with a function graph as an index gather: axis -2 gives
    graph(f) ; m (row i is row f(i) of m), axis -1 gives m ; cograph(f)
    (column i is column f(i)).  Leading axes of the table broadcast
    against those of m."""
    idx = table[..., :, None] if axis == -2 else table[..., None, :]
    lead = max(m.ndim, idx.ndim)
    return np.take_along_axis(
        m[(None,) * (lead - m.ndim)], idx[(None,) * (lead - idx.ndim)], axis
    )


def _lone_cells(m: np.ndarray, axis: int) -> np.ndarray | None:
    """Whether each line of the 2-D m across `axis` (a row for axis 1, a
    column for axis 0) holds a cell, when none holds two and `axis` has a
    position to index; None otherwise.  No line holds two exactly when
    the lines that hold a cell are as many as the cells."""
    cells = np.count_nonzero(m)
    if not m.shape[axis] or cells > m.shape[1 - axis]:  # more cells than lines
        return None
    held = m.any(axis=axis)
    return held if np.count_nonzero(held) == cells else None


def _blocked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`product` of 2-D a and b in blocks of rows of a, each block and its
    rows of the result at most BLOCK_CELLS cells, against one float32 copy
    of b; one call when a fits in one block."""
    step = max(1, BLOCK_CELLS // max(a.shape[1], b.shape[1], 1))
    if len(a) <= step:
        return product(a, b)
    right = b.astype(np.float32)
    out = np.empty((len(a), b.shape[1]), dtype=bool)
    for lo in range(0, len(a), step):
        out[lo:lo + step] = product(a[lo:lo + step], right)
    return out


# ------------------------------------------------------------- operators

def compose(x: Rel, y: Rel) -> Rel:
    """x ; y.  Past BLOCK_CELLS multiply-adds, row i of x ; y is the row
    of y that x's one cell in row i points to, when no row of x has two;
    else column j is the column of x that y's one cell in column j points
    to, when no column of y has two; else the `product`, in row blocks.  A
    row or column with no cell gives an empty one."""
    if x.tgt is not y.src:
        raise CarrierMismatch(
            f"cannot compose {x.src.name}->{x.tgt.name} with {y.src.name}->{y.tgt.name}"
        )
    a, b = x.m, y.m
    if a.shape[0] * a.shape[1] * b.shape[1] < BLOCK_CELLS:
        out = product(a, b)
    elif (rows := _lone_cells(a, 1)) is not None:
        out = gather(b, a.argmax(axis=1), -2)
        out &= rows[:, None]
    elif (cols := _lone_cells(b, 0)) is not None:
        out = gather(a, b.argmax(axis=0), -1)
        out &= cols
    else:
        out = _blocked(a, b)
    return Rel(x.src, y.tgt, out)


def converse(x: Rel) -> Rel:
    return Rel(x.tgt, x.src, x.m.T)


def union(x: Rel, y: Rel) -> Rel:
    _same_carriers(x, y)
    return Rel(x.src, x.tgt, x.m | y.m)


def inter(x: Rel, y: Rel) -> Rel:
    _same_carriers(x, y)
    return Rel(x.src, x.tgt, x.m & y.m)


def under(x: Rel, z: Rel) -> Rel:
    """Left residual: largest y with x;y included in z.

    (b, c) holds iff every a with x(a, b) also has z(a, c).  The formula
    of `residual`, with its product in row blocks.
    """
    if x.src is not z.src:
        raise CarrierMismatch("residual under(x, z) needs a shared source carrier")
    return Rel(x.tgt, z.tgt, ~_blocked(x.m.T, ~z.m))


def star(x: Rel) -> Rel:
    """Reflexive-transitive closure."""
    if x.src is not x.tgt:
        raise CarrierMismatch("closure needs a square relation")
    n = len(x.src)
    m = x.m | np.eye(n, dtype=bool)
    for k in range(n):
        col = m[:, k].copy()
        col[k] = False
        if col.any():
            m[col] |= m[k]
    return Rel(x.src, x.tgt, m)


def is_included(x: Rel, y: Rel, law: str = "inclusion") -> Verdict:
    """Pointwise inclusion with the row-major first violation as witness."""
    _same_carriers(x, y)
    viol = excess(x.m, y.m)
    if not viol.any():
        return Verdict(law, True)
    flat = int(np.argmax(viol))
    i, j = divmod(flat, max(1, viol.shape[1]))
    return Verdict(law, False, witness=(x.src.elements[i], x.tgt.elements[j]))


def equal_verdict(x: Rel, y: Rel, law: str = "equality") -> Verdict:
    fwd = is_included(x, y, law)
    if not fwd.ok:
        return Verdict(law, False, fwd.witness, note="left side has an extra pair")
    bwd = is_included(y, x, law)
    if not bwd.ok:
        return Verdict(law, False, bwd.witness, note="right side has an extra pair")
    return Verdict(law, True)


def is_preorder(x: Rel) -> LawReport:
    """Reflexivity and transitivity, checked once per relation object."""
    if x.src is not x.tgt:
        raise CarrierMismatch("preorder check needs a square relation")
    return checked_once(x, "preorder", lambda x: (is_included(Rel.identity(x.src), x, "reflexivity"),
                                                  is_included(compose(x, x), x, "transitivity")))


def sum_set(a: FiniteSet, b: FiniteSet) -> tuple[FiniteSet, FuncTable, FuncTable]:
    s = sum_of(a, b)
    i1 = FuncTable(a, s, np.arange(len(a)))
    i2 = FuncTable(b, s, len(a) + np.arange(len(b)))
    return s, i1, i2


def product_set(a: FiniteSet, b: FiniteSet) -> tuple[FiniteSet, FuncTable, FuncTable]:
    p = product_of(a, b)
    pr1 = FuncTable(p, a, np.repeat(np.arange(len(a)), len(b)))
    pr2 = FuncTable(p, b, np.tile(np.arange(len(b)), len(a)))
    return p, pr1, pr2


def membership_rel(a: FiniteSet, cap: int = SUBSET_CAP) -> Rel:
    """Element-of relation a ⇸ powerset(a)."""
    p, m = membership_matrix(a, cap)
    return Rel(a, p, m)


def check_coproduct_axioms(a: FiniteSet, b: FiniteSet) -> LawReport:
    """The three relational laws that make the tagged union a coproduct."""
    s, i1, i2 = sum_set(a, b)
    cover = union(compose(cograph(i1), graph(i1)), compose(cograph(i2), graph(i2)))
    return LawReport(f"coproduct {a.name}+{b.name}", [
        equal_verdict(compose(graph(i1), cograph(i1)), Rel.identity(a), "roundtrip-left"),
        equal_verdict(compose(graph(i2), cograph(i2)), Rel.identity(b), "roundtrip-right"),
        equal_verdict(compose(graph(i1), cograph(i2)), Rel.empty(a, b), "disjointness"),
        is_included(Rel.identity(s), cover, "joint-cover"),
    ])


def _same_carriers(x: Rel, y: Rel) -> None:
    if x.src is not y.src or x.tgt is not y.tgt:
        raise CarrierMismatch(
            f"carriers differ: {x.src.name}->{x.tgt.name} vs {y.src.name}->{y.tgt.name}"
        )
