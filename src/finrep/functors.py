"""Bounded endofunctors on finite carriers, with relation liftings.

Four kinds: identity, powerset (capped), lists up to a length bound, and
terms over a signature up to a depth bound.  Each functor produces interned
carriers, maps functions, and lifts relations; composition chains two
functors.  Lists and terms, like the kleene module's expressions, are
containers sharing one shape-grouped `fmap` and `lift`.  Bounds fail
loudly, nothing truncates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import TheoremInconsistencyError
from .fset import FiniteSet, check_budget, intern, locate_subsets, membership_matrix, powerset_of
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

    def arity(self, sym: str) -> int:
        for s, a in self.ops:
            if s == sym:
                return a
        raise KeyError(f"unknown operator {sym!r}")


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


def split_tree(node, head: str, leaf: str):
    """Shape and left-to-right positions of a tree whose set `leaf` fields mark positions."""
    positions = []

    def walk(n):
        i = getattr(n, leaf)
        if i is not None:
            positions.append(i)
            return None
        return (getattr(n, head), *[walk(c) for c in n.children])

    return walk(node), tuple(positions)


def var_list(t: Term) -> tuple[int, ...]:
    """Variable indices in left-to-right leaf order."""
    return split_tree(t, "op", "var")[1]


def enumerate_terms(sig: Signature, max_depth: int, n_vars: int) -> list[Term]:
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


class Functor:
    """Object map, arrow map, and relation lifting, bounded."""

    key: tuple
    name: str

    def carrier(self, a: FiniteSet) -> FiniteSet:
        raise NotImplementedError

    def fmap(self, f: FuncTable) -> FuncTable:
        raise NotImplementedError

    def lift(self, x: Rel) -> Rel:
        raise NotImplementedError

    def __repr__(self):
        return f"Functor({self.name})"


class IdentityFunctor(Functor):
    key = ("id",)
    name = "identity"

    def carrier(self, a):
        return a

    def fmap(self, f):
        return f

    def lift(self, x):
        return x


class PowersetFunctor(Functor):
    """Subsets with direct-image arrows and the two-sided (Egli-Milner)
    lifting, read off the membership matrices: X relates to Y when each
    member of either is matched across the relation by one of the other,
    the residuals ∈a \\ (x;∈b) and (∈b \\ (xᵀ;∈a))ᵀ."""

    key = ("pow",)

    def __init__(self, cap: int = 4):
        self.cap = cap
        self.name = f"powerset(cap {cap})"

    def carrier(self, a):
        return powerset_of(a, self.cap)

    def fmap(self, f):
        pa, ma = membership_matrix(f.src, self.cap)
        pb = self.carrier(f.tgt)
        cograph = f.table == np.arange(len(f.tgt))[:, None]
        # column X of cograph(f) ; ∈a is the direct image f[X]
        return FuncTable(pa, pb, locate_subsets(pb, product(cograph, ma)))

    def lift(self, x):
        pa, ma = membership_matrix(x.src, self.cap)
        pb, mb = membership_matrix(x.tgt, self.cap)
        fwd = residual(ma, product(x.m, mb))
        bwd = residual(mb, product(x.m.T, ma))
        return Rel(pa, pb, fwd & bwd.T)


class ContainerFunctor(Functor):
    """A shape filled with base elements (a container, after Abbott,
    Altenkirch and Ghani), read by `splits(a)`: each element's (shape,
    positions).  Arrows rename positions; the Barr lifting relates equal
    shapes pointwise."""

    def splits(self, a):
        """(shape, positions) of each element of the carrier over `a`, in
        carrier order, read from its payload by `split`."""
        return map(self.split, self.carrier(a).payload)

    def shapes(self, a):
        """The carrier over `a` and its table, built once per carrier: shape ->
        (k, elements in code order; a code reads the k positions in base |a|).
        Bounds limit shapes only, so each shape has all |a|^k fillings."""
        c = self.carrier(a)

        def build():
            groups = {}
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
            return table

        return c, intern(("shapes", c), build)

    def fmap(self, f):
        (ca, sa), (cb, sb) = self.shapes(f.src), self.shapes(f.tgt)
        table = np.empty(len(ca), dtype=np.int64)
        image = [np.zeros(1, dtype=np.int64)]  # image[k]: target codes in source code order
        for shape, (k, where) in sa.items():
            while len(image) <= k:
                image.append((image[-1][:, None] * len(f.tgt) + f.table).ravel())
            table[where] = sb[shape][1][image[k]]
        return FuncTable(ca, cb, table)

    def lift(self, x):
        (ca, sa), (cb, sb) = self.shapes(x.src), self.shapes(x.tgt)
        m = np.zeros((len(ca), len(cb)), dtype=bool)
        power = [np.ones((1, 1), dtype=bool)]  # power[k]: k-fold Kronecker power of x
        for shape in sa.keys() & sb.keys():
            (k, wa), (_, wb) = sa[shape], sb[shape]
            while len(power) <= k:
                p = power[-1][:, None, :, None] & x.m[None, :, None, :]
                power.append(p.reshape(p.shape[0] * p.shape[1], p.shape[2] * p.shape[3]))
            m[wa[:, None], wb] = power[k]
        return Rel(ca, cb, m)


class ListFunctor(ContainerFunctor):
    """Lists up to a fixed length; arrows map elementwise and the lifting
    relates only equal-length pointwise-related lists."""

    def __init__(self, max_len: int):
        if max_len < 0:
            raise ValueError("length bound must be nonnegative")
        self.max_len = max_len
        self.key = ("list", max_len)
        self.name = f"list(len {max_len})"

    def size(self, a) -> int:
        """Element count of the carrier over `a`, counted before it is built
        and refused at the first length over the budget."""
        n, total = len(a), 0
        for l in range(self.max_len + 1):
            total += n ** l
            check_budget(total, "list carrier over %r up to length %d", a.name, l)
        return total

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

    def split(self, tup):
        return len(tup), tup

    # own names on the class, where the benchmark tracer rebinds them
    fmap, lift = ContainerFunctor.fmap, ContainerFunctor.lift


class TermFunctor(ContainerFunctor):
    """Terms over a signature up to a depth bound; arrows rename variables
    and the lifting relates same-shaped terms with related variables."""

    def __init__(self, sig: Signature, max_depth: int):
        if max_depth < 1:
            raise ValueError("depth bound must be at least 1")
        self.sig = sig
        self.max_depth = max_depth
        self.key = ("term", sig.ops, max_depth)
        self.name = f"term({dict(sig.ops)}, depth {max_depth})"

    def size(self, a) -> int:
        """Element count of the carrier over `a`, counted before it is built
        and refused at the first depth over the budget: T(1) = V + C and
        T(d) = V + C + the sum of T(d-1)^k over operators of arity k >= 1."""
        leaves = len(a)
        for _, arity in self.sig.ops:
            if arity == 0:
                leaves += 1
        total = leaves
        for d in range(1, self.max_depth + 1):
            if d > 1:
                prev, total = total, leaves
                for _, arity in self.sig.ops:
                    if arity:
                        total += prev ** arity
            check_budget(total, "term carrier over %r up to depth %d", a.name, d)
        return total

    def carrier(self, a):
        def build():
            terms = enumerate_terms(self.sig, self.max_depth, len(a))
            nullary = frozenset(s for s, k in self.sig.ops if k == 0)
            labels = [term_label(t, a, nullary) for t in terms]
            return FiniteSet(
                f"term{self.max_depth}({a.name})", labels, terms
            )

        self.size(a)
        return intern(("term", self.sig.ops, self.max_depth, a), build)

    def split(self, t):
        return split_tree(t, "op", "var")

    # own names on the class, where the benchmark tracer rebinds them
    fmap, lift = ContainerFunctor.fmap, ContainerFunctor.lift


class ComposedFunctor(Functor):
    def __init__(self, outer: Functor, inner: Functor):
        self.outer = outer
        self.inner = inner
        self.key = ("comp", outer.key, inner.key)
        self.name = f"{outer.name} after {inner.name}"

    def carrier(self, a):
        return self.outer.carrier(self.inner.carrier(a))

    def fmap(self, f):
        return self.outer.fmap(self.inner.fmap(f))

    def lift(self, x):
        return self.outer.lift(self.inner.lift(x))
