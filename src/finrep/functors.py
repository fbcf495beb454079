"""Bounded endofunctors on finite carriers, with relation liftings.

Four kinds: identity, powerset (capped), lists up to a length bound, and
terms over a signature up to a depth bound.  Each functor produces interned
carriers, maps functions, and lifts relations; composition chains two
functors.  Lists, terms and the kleene module's expressions are containers
sharing one shape-grouped `fmap` and `lift`.  Terms and expressions are
syntax: a carrier is its labels plus one `SyntaxIndex` (head codes, padded
children, level bounds), with no tree objects, and one children-first
reader (`syntax_splits`), one node finder (`syntax_finder`) and one label
renderer (`syntax_labels`) serve both.  Bounds fail loudly, nothing
truncates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import TheoremInconsistencyError
from .fset import SUBSET_CAP, FiniteSet, check_budget, check_cells, intern, locate_subsets, membership_matrix, powerset_of
from .rel import FuncTable, Rel, product, residual


@dataclass(frozen=True)
class Signature:
    """Operator symbols with arities, in declaration order."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for sym, arity in self.ops:
            if not isinstance(sym, str) or not sym:
                raise ValueError(f"operator symbol {sym!r} must be a nonempty string")
            if arity < 0:
                raise ValueError(f"operator {sym!r} has negative arity")
            if sym in seen:
                raise ValueError(f"duplicate operator symbol {sym!r}")
            seen.add(sym)

    @classmethod
    def of(cls, mapping):
        return cls(tuple(mapping.items()))

    def code(self, sym: str) -> int:
        """The head code of `sym` in a term index: its place plus one, after HOLE."""
        for c, (s, _) in enumerate(self.ops, 1):
            if s == sym:
                return c
        raise KeyError(f"unknown operator {sym!r}")


class SyntaxIndex(NamedTuple):
    """A syntax carrier as arrays in carrier order: an int head code per
    node, its children as one int array padded with -1, and the level bounds
    (level s is bounds[s-1]:bounds[s]).  A hole (head HOLE: a variable or a
    letter) keeps its base position in the first column.  Every child
    precedes its parent, so an index names one tree and equal indices are
    equal trees."""

    head: np.ndarray
    kids: np.ndarray
    bounds: np.ndarray


HOLE = 0


def syntax_of(c: FiniteSet) -> SyntaxIndex:
    """The index arrays a syntax functor derived with the carrier `c`."""

    def missing():
        raise ValueError(f"carrier {c.name!r} is not a syntax carrier")

    return intern(("syntax", c), missing)


def syntax_splits(c: FiniteSet) -> list:
    """Shape and hole positions of each element of the syntax carrier `c`,
    read off its arrays children first and memoized on it: a hole is the
    shape None at its base position, any other node is its head code over
    its children's shapes, their positions concatenated."""

    def build():
        ix, out = syntax_of(c), []
        for h, row in zip(ix.head.tolist(), ix.kids.tolist()):
            if h == HOLE:
                out.append((None, (row[0],)))
            else:
                kids = [out[k] for k in row if k >= 0]
                out.append(((h, *(s for s, _ in kids)), sum((p for _, p in kids), ())))
        return out

    return intern(("splits", c), build)


def syntax_labels(ix: SyntaxIndex, leaves: list[str], formats, nodes) -> list[str]:
    """The labels of `nodes`, in their order, rendered with their
    descendants and nothing else: a hole is its base position's entry in
    `leaves`, any other node its children's labels joined by `formats[head]`,
    an (open, separator, close) triple.  The nodes are closed under
    descendants a level at a time, then rendered children first, one batch
    per run of one head in one level."""
    nodes = np.asarray(nodes, dtype=np.int64)
    want = np.zeros(len(ix.head), dtype=bool)
    want[nodes] = True
    frontier = nodes
    while frontier.size:
        kids = ix.kids[frontier[ix.head[frontier] != HOLE]]  # a hole's kid is a base position
        new = np.zeros_like(want)
        new[kids[kids >= 0]] = True
        new &= ~want
        want |= new
        frontier = np.flatnonzero(new)
    at = np.flatnonzero(want)
    # every child lies in a lower level, so each run's children are rendered
    run = np.searchsorted(ix.bounds, at, side="right") * len(formats) + ix.head[at]
    starts = np.flatnonzero(np.diff(run, prepend=-1)).tolist()
    heads, cols, at = ix.head[at].tolist(), ix.kids[at].T.tolist(), at.tolist()
    labels = [None] * len(want)
    for lo, hi in zip(starts, starts[1:] + [len(at)]):
        kids = [col[lo:hi] for col in cols if col[lo] >= 0]  # a run's children, by position
        if heads[lo] == HOLE:
            out = [leaves[k] for k in kids[0]]
        else:
            o, sep, c = formats[heads[lo]]
            kids = [[labels[k] for k in col] for col in kids]
            if len(kids) == 2:  # the common case, spelled out for speed
                out = [f"{o}{x}{sep}{y}{c}" for x, y in zip(*kids)]
            else:
                out = [f"{o}{sep.join(t)}{c}" for t in zip(*kids)] if kids else [o] * (hi - lo)
        for i, lab in zip(at[lo:hi], out):
            labels[i] = lab
    return [labels[i] for i in nodes.tolist()]


def syntax_finder(ix: SyntaxIndex):
    """`find(head, *kids)`: the index of the node with that head and those
    children, elementwise, and -1 where the carrier has no such node; kid
    columns not given are -1, the padding.  A node's code reads its head
    and kids in radix |carrier| + 1; a prefix whose next digit would leave
    int64 is first replaced by its rank among the carrier's prefixes."""
    n, top = len(ix.head) + 1, np.iinfo(np.int64).max
    ranks, code = [], ix.head
    for col in ix.kids.T:
        keys = None
        if (int(code.max(initial=0)) + 1) * n >= 2 ** 62:
            keys = np.unique(code)
            code = np.searchsorted(keys, code)
            keys = np.r_[keys, top]  # a sentinel above every prefix
        ranks.append(keys)
        code = code * n + col + 1
    order = np.argsort(code)
    ranked, order = np.r_[code[order], top], np.r_[order, -1]

    def find(head, *kids):
        code, *kids = np.broadcast_arrays(head, *kids)
        hit = True
        for j, keys in enumerate(ranks):
            if keys is not None:
                at = np.searchsorted(keys, code)
                code, hit = at, hit & (keys[at] == code)
            code = code * n + (kids[j] if j < len(kids) else -1) + 1
        at = np.searchsorted(ranked, code)
        return np.where(hit & (ranked[at] == code), order[at], -1)

    return find


def enumerate_terms(sig: Signature, max_depth: int, n_vars: int) -> SyntaxIndex:
    """All terms up to the depth bound (at least 1) as index arrays: by
    depth, variables before operators, operators in signature order,
    children lexicographic.  An operator's head code is `sig.code`.  A
    level's terms of arity k are the rows of `np.indices` over the
    shallower block whose largest child lies in the previous level."""
    width = max([1] + [k for _, k in sig.ops])
    nullary = [c for c, (_, k) in enumerate(sig.ops, 1) if k == 0]
    heads = [np.full(n_vars, HOLE), np.array(nullary, dtype=np.int64)]
    kids = [np.arange(n_vars)[:, None], np.empty((len(nullary), 0), dtype=np.int64)]
    bounds = [0, n_vars + len(nullary)]
    for _ in range(2, max_depth + 1):
        for c, (_, k) in enumerate(sig.ops, 1):
            if k:
                rows = np.indices((bounds[-1],) * k).reshape(k, -1).T
                rows = rows[rows.max(axis=1) >= bounds[-2]]
                heads.append(np.full(len(rows), c))
                kids.append(rows)
        bounds.append(sum(map(len, heads)))
    kids = [np.pad(k, ((0, 0), (0, width - k.shape[1])), constant_values=-1) for k in kids]
    return SyntaxIndex(np.concatenate(heads), np.concatenate(kids), np.array(bounds))


class Functor:
    """Object map, arrow map, and relation lifting, bounded.  A subclass
    gives the object map `carrier(a)` and maps stacks with any leading
    batch axes: `fmaps(a, b, tables)` function tables a -> b (..., |a|)
    and `lifts(a, b, xs)` relations a ⇸ b (..., |a|, |b|), each returning
    the carriers over a and b and the mapped stack; `fmap` and `lift` pass
    one arrow, unbatched."""

    key: tuple
    name: str

    def fmap(self, f: FuncTable) -> FuncTable:
        return FuncTable(*self.fmaps(f.src, f.tgt, f.table))

    def lift(self, x: Rel) -> Rel:
        return Rel(*self.lifts(x.src, x.tgt, x.m))

    def __repr__(self):
        return f"Functor({self.name})"


class IdentityFunctor(Functor):
    key = ("id",)
    name = "identity"

    def carrier(self, a):
        return a

    def lifts(self, a, b, xs):
        return a, b, xs

    fmaps = lifts


class PowersetFunctor(Functor):
    """Subsets with direct-image arrows and the two-sided (Egli-Milner)
    lifting, read off the membership matrices: X relates to Y when each
    member of either is matched across the relation by one of the other,
    the residuals ∈a \\ (x;∈b) and (∈b \\ (xᵀ;∈a))ᵀ."""

    key = ("pow",)

    def __init__(self, cap: int = SUBSET_CAP):
        self.cap = cap
        self.name = f"powerset(cap {cap})"

    def carrier(self, a):
        return powerset_of(a, self.cap)

    def fmaps(self, a, b, tables):
        (pa, ma), pb = membership_matrix(a, self.cap), self.carrier(b)
        cographs = tables[..., None, :] == np.arange(len(b))[:, None]
        # column X of cograph(f) ; ∈a is the direct image f[X]
        return pa, pb, locate_subsets(pb, product(cographs, ma))

    def lifts(self, a, b, xs):
        pa, ma = membership_matrix(a, self.cap)
        pb, mb = membership_matrix(b, self.cap)
        check_cells(len(pa), len(pb), "powerset lift of a relation %r -> %r", a.name, b.name)
        fwd = residual(ma, product(xs, mb))
        bwd = residual(mb, product(xs.swapaxes(-1, -2), ma))
        return pa, pb, fwd & bwd.swapaxes(-1, -2)

    # own names on the class, where the benchmark tracer rebinds them
    fmap, lift = Functor.fmap, Functor.lift


class ContainerFunctor(Functor):
    """A shape filled with base elements (a container, after Abbott,
    Altenkirch and Ghani), read by `splits(a)`: each element's (shape,
    positions) in carrier order.  Arrows rename positions; the Barr lifting
    relates equal shapes pointwise."""

    def shapes(self, a):
        """The carrier over `a` and its table, built once per base carrier:
        shape -> (k, elements in code order; a code reads the k positions in
        base |a|).  Bounds limit shapes only, so each shape has all |a|^k
        fillings.  The carrier's budget is checked where it is asked for."""

        def build():
            c, groups = self.carrier(a), {}
            for i, (shape, positions) in enumerate(self.splits(a)):
                groups.setdefault(shape, []).append((i, *positions))
            table = {}
            for shape, rows in groups.items():
                rows = np.array(rows, dtype=np.int64)
                ix, pos, k = rows[:, 0], rows[:, 1:], rows.shape[1] - 1
                if len(ix) != len(a) ** k:
                    raise TheoremInconsistencyError(
                        f"shape {shape!r} of carrier {c.name!r} has {len(ix)} of {len(a) ** k} fillings")
                table[shape] = (k, ix[np.argsort(pos @ len(a) ** np.arange(k - 1, -1, -1))])
            return c, table

        return intern(("shapes", *self.key, a), build)

    def fmaps(self, a, b, tables):
        (ca, sa), (cb, sb) = self.shapes(a), self.shapes(b)
        # positions first and batch axes last, so one table runs unbatched
        out = np.empty((*tables.shape[:-1], len(ca)), dtype=np.int64)
        codes, at = tables.T, out.T
        image = [np.zeros((1, *codes.shape[1:]), dtype=np.int64)]  # image[k]: target codes in source code order
        for shape, (k, where) in sa.items():
            while len(image) <= k:
                p = image[-1][:, None] * len(b) + codes
                image.append(p.reshape(p.shape[0] * p.shape[1], *p.shape[2:]))
            at[where] = sb[shape][1][image[k]]
        return ca, cb, out

    def lifts(self, a, b, xs):
        (ca, sa), (cb, sb) = self.shapes(a), self.shapes(b)
        check_cells(len(ca), len(cb), "%s lift of a relation %r -> %r", self.name, a.name, b.name)
        # the lift of the converse, batch axes last: one relation runs unbatched
        m = np.zeros((*xs.shape[:-2], len(ca), len(cb)), dtype=bool)
        xt, mt = xs.T, m.T
        power = [np.ones((1, 1, *xt.shape[2:]), dtype=bool)]  # power[k]: k-fold Kronecker powers of xt
        for shape in sa.keys() & sb.keys():
            (k, wa), (_, wb) = sa[shape], sb[shape]
            while len(power) <= k:
                p = power[-1][:, None, :, None] & xt[None, :, None, :]
                power.append(p.reshape(p.shape[0] * p.shape[1], p.shape[2] * p.shape[3], *p.shape[4:]))
            mt[wb[:, None], wa] = power[k]
        return ca, cb, m

    def size(self, a) -> int:
        """Element count of the carrier over `a`, refused before it is built at
        the first level over the budget: the running totals (`totals`) are
        counted once per base carrier, the budget is checked per request."""

        def count():
            out = []
            for level, total in self.totals(len(a)):
                check_budget(total, self.bounded, a.name, level)
                out.append((level, total))
            return out

        for level, total in intern(("totals", *self.key, a), count):
            check_budget(total, self.bounded, a.name, level)
        return total


class ListFunctor(ContainerFunctor):
    """Lists up to a fixed length; arrows map elementwise and the lifting
    relates only equal-length pointwise-related lists."""

    def __init__(self, max_len: int):
        if max_len < 0:
            raise ValueError("length bound must be nonnegative")
        self.max_len = max_len
        self.key = ("list", max_len)
        self.name = f"list(len {max_len})"

    bounded = "list carrier over %r up to length %d"

    def totals(self, n: int):
        """(length l, lists of length at most l) for l = 0..max_len."""
        total = 0
        for l in range(self.max_len + 1):
            total += n ** l
            yield l, total

    def carrier(self, a):
        def build():
            labels, payload = [], []
            for l in range(self.max_len + 1):
                for tup in itertools.product(range(len(a)), repeat=l):
                    labels.append("[" + ",".join(a.elements[i] for i in tup) + "]")
                    payload.append(tup)
            return FiniteSet(f"list{self.max_len}({a.name})", labels, payload)

        self.size(a)
        return intern(("list", self.max_len, a), build)

    def splits(self, a):
        return [(len(tup), tup) for tup in self.carrier(a).payload]

    # own names on the class, where the benchmark tracer rebinds them
    fmap, lift = Functor.fmap, Functor.lift


class SyntaxFunctor(ContainerFunctor):
    """Trees of a syntax up to a bound, carried as a SyntaxIndex: the
    carrier over `a` is the trees' labels in index order, and its arrays
    are derived with it.  A subclass builds the arrays (`index`), fences a
    base label that could be misread (`leaf`) and gives, per head code, the
    open, separator and close strings around a node's children (`formats`);
    shapes are read off the arrays.

    Every label is fully parenthesised, so over plain base labels (none
    fenced) and plain operator symbols (`plain_ops`) it reads as one tree
    only: such a carrier's labels are distinct by construction and are
    rendered on demand.  Any other carrier renders them all at once and
    checks them, because fenced labels can still spell one label twice."""

    plain_ops = True

    def carrier(self, a):
        def build():
            ix = self.index(len(a))
            name = f"{self.stem}({a.name})"
            leaves = [self.leaf(lab) for lab in a.elements]
            render = partial(syntax_labels, ix, leaves, self.formats)
            if self.plain_ops and leaves == list(a.elements):
                c = FiniteSet.lazy(name, len(ix.head), render)
            else:
                c = FiniteSet(name, render(np.arange(len(ix.head))))
            intern(("syntax", c), lambda: ix)
            return c

        self.size(a)
        return intern((*self.key, a), build)

    def arrays(self, a) -> tuple[FiniteSet, SyntaxIndex]:
        """The carrier over `a` and its index arrays."""
        c = self.carrier(a)
        return c, syntax_of(c)

    def splits(self, a):
        return syntax_splits(self.carrier(a))


class TermFunctor(SyntaxFunctor):
    """Terms over a signature up to a depth bound; arrows rename variables
    and the lifting relates same-shaped terms with related variables."""

    def __init__(self, sig: Signature, max_depth: int):
        if max_depth < 1:
            raise ValueError("depth bound must be at least 1")
        self.sig = sig
        self.max_depth = max_depth
        self.key = ("term", sig.ops, max_depth)
        self.name = f"term({dict(sig.ops)}, depth {max_depth})"
        self.stem = f"term{max_depth}"
        self.nullary = {s for s, k in sig.ops if k == 0}
        self.plain_ops = not any(c in s for s, _ in sig.ops for c in self.SPECIAL)
        # a constant is its symbol, an operator node reads its children's labels
        self.formats = [None, *((f"{s}(", ",", ")") if k else (s, "", "") for s, k in sig.ops)]

    SPECIAL = "(),<>"  # the characters that delimit a term label

    bounded = "term carrier over %r up to depth %d"

    def totals(self, n: int):
        """(depth d, terms of depth at most d) for d = 1..max_depth:
        T(1) = V + C and T(d) = V + C + the sum of T(d-1)^k over operators
        of arity k >= 1."""
        leaves = total = n + sum(1 for _, k in self.sig.ops if k == 0)
        for d in range(1, self.max_depth + 1):
            if d > 1:
                total = leaves + sum(total ** k for _, k in self.sig.ops if k)
            yield d, total

    def index(self, n_vars: int) -> SyntaxIndex:
        return enumerate_terms(self.sig, self.max_depth, n_vars)

    def leaf(self, lab: str) -> str:
        """A variable's label: its base label, fenced when it bears syntax
        (terms over terms) or names a constant."""
        return f"<{lab}>" if lab in self.nullary or any(c in lab for c in self.SPECIAL) else lab

    # own names on the class, where the benchmark tracer rebinds them
    fmap, lift = Functor.fmap, Functor.lift


class ComposedFunctor(Functor):
    def __init__(self, outer: Functor, inner: Functor):
        self.outer = outer
        self.inner = inner
        self.key = ("comp", outer.key, inner.key)
        self.name = f"{outer.name} after {inner.name}"

    def carrier(self, a):
        return self.outer.carrier(self.inner.carrier(a))

    def fmaps(self, a, b, tables):
        return self.outer.fmaps(*self.inner.fmaps(a, b, tables))

    def lifts(self, a, b, xs):
        return self.outer.lifts(*self.inner.lifts(a, b, xs))
