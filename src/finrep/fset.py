"""Finite carriers and their canonical constructions.

Carrier identity is object identity: two sets built independently are
different carriers even if their labels coincide.  Derived carriers (sum,
product, powerset, and the functor-built ones) are interned by construction
recipe, so deriving the same thing twice returns the very same object and
relations over it stay composable.  A recipe names its base carrier last
and is memoized on that base under the rest of the recipe: nothing derived
refers back to its base, so it is freed with the base by reference counting.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

from .errors import BudgetError

_fresh = itertools.count()

_unanchored: dict[tuple, object] = {}  # memo for recipes naming no carrier
_budget = 200_000
_CELLS_PER_ELEMENT = 100  # a generated relation's cells per budgeted element
_MISSING = object()


class FiniteSet:
    """Ordered finite carrier of distinct element labels.

    `payload`, when present, holds one structured value per element (subset
    mask, index tuple, term object, ...) for the construction that produced
    the carrier.  It is positional: payload[i] belongs to elements[i].
    """

    __slots__ = ("name", "elements", "payload", "uid", "_index", "_where", "_memo")

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
        self.name = name
        self.elements = elements
        self.payload = payload
        self.uid = next(_fresh)
        self._index = index
        self._where = None   # payload -> index, built on first `locate`
        self._memo = None    # recipe -> derived value, see `intern`

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, label):
        return label in self._index

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"{label!r} is not an element of carrier {self.name!r}") from None

    def locate(self, payload, default=_MISSING):
        """Index of the element with this payload, else `default` if given."""
        if self._where is None:
            self._where = {p: i for i, p in enumerate(self.payload or ())}
        try:
            return self._where[payload]
        except KeyError:
            if default is _MISSING:
                raise KeyError(f"{payload!r} is not a payload of carrier {self.name!r}") from None
            return default

    def __repr__(self):
        return f"FiniteSet({self.name!r}, {len(self)} elements)"


def intern(recipe, build):
    """Return the value for `recipe`, building it on first request.  A
    recipe ending in a carrier is memoized on that carrier, keyed without
    it; any other recipe is memoized module-wide."""
    memo, key = _unanchored, recipe
    if isinstance(recipe[-1], FiniteSet):
        base, key = recipe[-1], recipe[:-1]
        if base._memo is None:
            base._memo = {}
        memo = base._memo
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


def check_cells(rows: int, cols: int, what: str, *args):
    """Refuse a generated relation of `rows` x `cols` cells, described as
    `what % args`, over the cell budget: 100 cells per element of the
    carrier budget, checked before the matrix is allocated."""
    limit = _CELLS_PER_ELEMENT * _budget
    if rows * cols > limit:
        raise BudgetError(f"{what % args} has {rows} x {cols} = {rows * cols} cells, budget {limit}")


def sum_of(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    """Tagged disjoint union, left block first.  payload: (tag, base index)."""

    def build():
        labels = [f"inl({x})" for x in a.elements] + [f"inr({y})" for y in b.elements]
        payload = [(0, i) for i in range(len(a))] + [(1, j) for j in range(len(b))]
        return FiniteSet(f"{a.name}+{b.name}", labels, payload)

    return intern(("sum", a, b), build)


def product_of(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    """Pair carrier, first component major.  payload: (i, j) index pairs."""

    def build():
        labels = [f"({x},{y})" for x in a.elements for y in b.elements]
        payload = [(i, j) for i in range(len(a)) for j in range(len(b))]
        return FiniteSet(f"{a.name}*{b.name}", labels, payload)

    return intern(("product", a, b), build)


def powerset_of(a: FiniteSet, cap: int = 4) -> FiniteSet:
    """All subsets of `a`, ordered by (size, then member labels).

    payload: bit mask over base indices.  Refuses carriers larger than
    `cap`; the carrier itself does not remember the cap, so different call
    sites with different caps still share one interned powerset.
    """
    if len(a) > cap:
        raise BudgetError(
            f"powerset of {a.name!r} has {2 ** len(a)} elements, over the cap for |A| = {cap}"
        )

    def build():
        order = sorted(range(len(a)), key=lambda i: a.elements[i])
        labels, payload = [], []
        for size in range(len(a) + 1):
            for combo in itertools.combinations(order, size):
                members = sorted(a.elements[i] for i in combo)
                labels.append("{" + ",".join(members) + "}")
                mask = 0
                for i in combo:
                    mask |= 1 << i
                payload.append(mask)
        return FiniteSet(f"P({a.name})", labels, payload)

    return intern(("pow", a), build)

