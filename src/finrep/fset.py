"""Finite carriers and their canonical constructions.

Carrier identity is object identity: two sets built independently are
different carriers even if their labels coincide.  Derived carriers (sum,
product, powerset, and the functor-built ones) are interned by construction
recipe, so deriving the same thing twice returns the very same object and
relations over it stay composable.  `intern` is the one memo of derived
values: a recipe names its anchor last (a carrier, or a relation,
representation, morphism, reduction, probe universe, indexed family or
higher-order structure) and is memoized on that anchor under the rest of
the recipe.
Nothing derived refers back to its anchor, so it is freed with the anchor
by reference counting.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import BudgetError

_unanchored: dict[tuple, object] = {}  # memo for recipes naming no carrier
_budget = 200_000
_CELLS_PER_ELEMENT = 100  # a generated relation's cells per budgeted element
SUBSET_CAP = 4  # the default bound on a carrier whose subsets are built
_MISSING = object()


class FiniteSet:
    """Ordered finite carrier of distinct element labels.

    `payload`, when present, holds one structured value per element (subset
    mask, index tuple, tagged index, ...) for the construction that produced
    the carrier.  It is positional: payload[i] belongs to elements[i].
    Syntax carriers (terms, expressions) have none: their structure is an
    index array derived with the carrier.

    A carrier made by `lazy` knows its size but renders its labels only
    when they are read: `pick` renders the ones asked for, and the first
    read of `elements` (or `index`, `in`, iteration) renders them all.
    """

    # a weak reference can watch a carrier being freed with its base
    __slots__ = ("name", "_elements", "payload", "_size", "_render", "_index", "_memo", "__weakref__")

    def __init__(self, name, elements, payload=None):
        elements = tuple(elements)
        index = {}
        for i, lab in enumerate(elements):
            if not isinstance(lab, str):
                raise TypeError(f"element label {lab!r} is not a string")
            if lab in index:
                raise ValueError(f"duplicate element label {lab!r} in carrier {name!r}")
            index[lab] = i
        if payload is not None:
            payload = tuple(payload)
            if len(payload) != len(elements):
                raise ValueError("payload length does not match element count")
        self._start(name, len(elements), None)
        self._elements = elements
        self.payload = payload
        self._index = index

    @classmethod
    def lazy(cls, name, size, render):
        """A carrier of `size` labels that `render(idx)` gives for the
        positions `idx`, in that order.  The caller vouches that they are
        distinct strings, so none is checked.  `render` must not refer to
        the carrier, nor to a carrier it is derived from."""
        c = cls.__new__(cls)
        c._start(name, size, render)
        c._elements = c._index = c.payload = None
        return c

    def _start(self, name, size, render):
        self.name = name
        self._size = size
        self._render = render
        self._memo = None    # recipe -> derived value, see `intern`

    def _render_all(self):
        self._elements = tuple(self._render(np.arange(self._size)))
        self._index = {lab: i for i, lab in enumerate(self._elements)}
        self._render = None

    def _label_index(self) -> dict:
        if self._render is not None:
            self._render_all()
        return self._index

    @property
    def elements(self) -> tuple[str, ...]:
        """The labels in carrier order."""
        if self._render is not None:
            self._render_all()
        return self._elements

    def pick(self, idx) -> list[str]:
        """The labels at the positions `idx`, in that order, rendering no
        others."""
        if self._render is None:
            return [self._elements[i] for i in idx]
        return self._render(idx)

    def __len__(self):
        return self._size

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, label):
        return label in self._label_index()

    def index(self, label):
        try:
            return self._label_index()[label]
        except KeyError:
            raise KeyError(f"{label!r} is not an element of carrier {self.name!r}") from None

    def locate(self, payload, default=_MISSING):
        """Index of the element with this payload, else `default` if given.
        The payload index is built on the first call, through `intern`."""
        where = intern(("where", self), lambda: {p: i for i, p in enumerate(self.payload or ())})
        try:
            return where[payload]
        except KeyError:
            if default is _MISSING:
                raise KeyError(f"{payload!r} is not a payload of carrier {self.name!r}") from None
            return default

    def __repr__(self):
        return f"FiniteSet({self.name!r}, {len(self)} elements)"


def intern(recipe, build):
    """Return the value for `recipe`, building it on first request.  A
    recipe ending in an anchor, any object with a `_memo` slot, is
    memoized on that anchor, keyed without it; any other recipe is
    memoized module-wide.  The value must not refer to its anchor, so it
    dies with it."""
    memo, key = getattr(recipe[-1], "_memo", _MISSING), recipe[:-1]
    if memo is _MISSING:
        memo, key = _unanchored, recipe
    elif memo is None:  # anchors may be frozen
        memo = {}
        object.__setattr__(recipe[-1], "_memo", memo)
    got = memo.get(key)
    if got is None:
        got = memo[key] = build()
    return got


@contextmanager
def carrier_budget(limit: int | None):
    """Run a block under carrier budget `limit`; None keeps the current one."""
    global _budget
    saved, _budget = _budget, _budget if limit is None else limit
    try:
        yield
    finally:
        _budget = saved


def check_budget(total: int, what: str, *args):
    """Refuse a construction of `total` elements over the carrier budget,
    described as `what % args`."""
    if total > _budget:
        raise BudgetError(f"{what % args} has {total} elements, budget {_budget}")


def cell_budget() -> int:
    """The cell budget: 100 cells per element of the carrier budget."""
    return _CELLS_PER_ELEMENT * _budget


def check_cells(rows: int, cols: int, what: str, *args):
    """Refuse a generated relation of `rows` x `cols` cells, described as
    `what % args`, over the cell budget, checked before the matrix is
    allocated."""
    limit = cell_budget()
    if rows * cols > limit:
        raise BudgetError(f"{what % args} has {rows} x {cols} = {rows * cols} cells, budget {limit}")


def sum_of(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    """Tagged disjoint union, left block first.  payload: (tag, base index)."""
    check_budget(len(a) + len(b), "sum of %r and %r", a.name, b.name)

    def build():
        labels = [f"inl({x})" for x in a.elements] + [f"inr({y})" for y in b.elements]
        payload = [(0, i) for i in range(len(a))] + [(1, j) for j in range(len(b))]
        return FiniteSet(f"{a.name}+{b.name}", labels, payload)

    return intern(("sum", a, b), build)


def product_of(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    """Pair carrier, first component major.  payload: (i, j) index pairs."""
    check_budget(len(a) * len(b), "product of %r and %r", a.name, b.name)

    def build():
        labels = [f"({x},{y})" for x in a.elements for y in b.elements]
        payload = [(i, j) for i in range(len(a)) for j in range(len(b))]
        return FiniteSet(f"{a.name}*{b.name}", labels, payload)

    return intern(("product", a, b), build)


def powerset_of(a: FiniteSet, cap: int = SUBSET_CAP) -> FiniteSet:
    """All subsets of `a`, ordered by (size, then member labels).

    payload: bit mask over base indices, bit i for base element i; only
    this module reads it, through `membership_matrix` and `locate_subsets`.
    Refuses carriers larger than `cap`, then carriers over the budget; the
    carrier itself does not remember the cap, so different call sites with
    different caps still share one interned powerset.
    """
    if len(a) > cap:
        raise BudgetError(
            f"powerset of {a.name!r} has {2 ** len(a)} elements, over the cap for |A| = {cap}"
        )
    check_budget(2 ** len(a), "powerset of %r", a.name)

    def build():
        order = sorted(range(len(a)), key=lambda i: a.elements[i])
        # combinations keep the label order, so each combo's members are sorted
        combos = [c for size in range(len(a) + 1) for c in itertools.combinations(order, size)]
        labels = ["{" + ",".join(a.elements[i] for i in c) + "}" for c in combos]
        return FiniteSet(f"P({a.name})", labels, [sum(1 << i for i in c) for c in combos])

    return intern(("pow", a), build)


def membership_matrix(a: FiniteSet, cap: int = SUBSET_CAP):
    """`powerset_of(a, cap)` and its read-only membership matrix, bool
    |a| x |P(a)|: cell (i, j) is set when base element i is in subset j.
    The matrix is memoized on the powerset as a bare array, so it holds no
    carrier and dies with the base."""
    p = powerset_of(a, cap)

    def build():
        masks = np.array(p.payload, dtype=np.int64)
        m = (masks >> np.arange(len(a))[:, None] & 1).astype(bool)
        m.setflags(write=False)
        return m

    return p, intern(("member", p), build)


def locate_subsets(p: FiniteSet, cols) -> np.ndarray:
    """Index in the powerset carrier `p` of the subset that each column of
    the bool matrix `cols` (one row per base element, any leading batch
    axes) selects."""

    def build():  # the index of each subset, looked up by its mask
        rank = np.empty(len(p), dtype=np.int64)
        rank[list(p.payload)] = np.arange(len(p))
        return rank

    return intern(("rank", p), build)[(1 << np.arange(cols.shape[-2])) @ cols]
