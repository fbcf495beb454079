"""Probe-based checks for set-indexed families of relations and functions.

Universal statements ("for every set, for every function...") are certified
over a finite probe universe: one carrier per size up to a bound, every
function between probe carriers, and relations either exhausted (small
pairs) or sampled with a seed.  Every verdict states that scope.

The probe arrows of each carrier pair are one stack, drawn once.  The
linearity and naturality squares are evaluated a block of a stack at a
time, through the functors' stacked `lifts` and `fmaps`, and each law's
first failing arrow is read again as one square for its witness.  The
functor laws and the `hor` walks read the stacks arrow by arrow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import TheoremInconsistencyError
from .fset import SUBSET_CAP, FiniteSet, check_cells, intern, locate_subsets, membership_matrix, powerset_of
from .functors import (
    ComposedFunctor,
    Functor,
    IdentityFunctor,
    ListFunctor,
    PowersetFunctor,
    Signature,
    TermFunctor,
    syntax_finder,
)
from .laws import function_stack, relation_stack, stack_blocks
from .rel import (
    FuncTable,
    Rel,
    cograph,
    compose,
    compose_func,
    equal_verdict,
    gather,
    graph,
    included,
    inter,
    is_included,
    membership_rel,
    on_carriers,
    product,
    union,
)
from .verdict import LawReport, Verdict, first_violation

_REL_EXHAUSTIVE_CELLS = 6


def probe_carrier(n: int) -> FiniteSet:
    return intern(
        ("probe", n), lambda: FiniteSet(f"probe{n}", [f"x{i}" for i in range(n)])
    )


@dataclass(frozen=True)
class ProbeUniverse:
    max_size: int = 3
    rel_samples: int = 25
    seed: int = 0
    _memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def carriers(self) -> list[FiniteSet]:
        return [probe_carrier(n) for n in range(self.max_size + 1)]

    def stack(self, mode: str, a: FiniteSet, b: FiniteSet) -> np.ndarray:
        """The probe arrows a -> b of `mode`, stacked read-only, drawn once per
        pair: every function table (n, |a|) in product order, or relations
        (n, |a|, |b|), all of them in mask order up to 6 cells, else empty,
        full, three graphs and then the samples, drawn from the seed."""
        def draw():
            got = self._draw(mode, len(a), len(b))
            got.setflags(write=False)
            return got

        return intern(("stack", mode, len(a), len(b), self), draw)

    def _draw(self, mode: str, m: int, n: int) -> np.ndarray:
        if mode == "functions":
            return function_stack(m, n)
        if m * n <= _REL_EXHAUSTIVE_CELLS:
            return relation_stack(m, n)
        rng = np.random.default_rng((self.seed, m, n))
        # graphs keep the sampled pool honest: function counterexamples
        # must stay visible to relation-mode checks
        graphs = [rng.integers(0, n, size=m)[:, None] == np.arange(n) for _ in range(3)]
        samples = [rng.random((m, n)) < rng.uniform(0.2, 0.8) for _ in range(self.rel_samples)]
        return np.stack([np.zeros((m, n), dtype=bool), np.ones((m, n), dtype=bool), *graphs, *samples])

    def functions(self):
        for a, b in itertools.product(self.carriers(), repeat=2):
            for table in self.stack("functions", a, b):
                yield a, b, FuncTable(a, b, table)

    def relations_between(self, a: FiniteSet, b: FiniteSet):
        for m in self.stack("relations", a, b):
            yield Rel(a, b, m)

    @property
    def function_count(self) -> int:
        """How many functions `functions` yields, in closed form."""
        sizes = range(self.max_size + 1)
        return sum(b ** a for a in sizes for b in sizes)

    def relation_count_between(self, m: int, n: int) -> int:
        """How many relations `relations_between` yields for carriers of sizes
        m and n: all, or empty, full, three graphs and then the samples."""
        return 2 ** (m * n) if m * n <= _REL_EXHAUSTIVE_CELLS else 5 + self.rel_samples

    @property
    def relation_count(self) -> int:
        """How many relations `relations_between` yields over every carrier
        pair, in closed form."""
        sizes = range(self.max_size + 1)
        return sum(self.relation_count_between(a, b) for a in sizes for b in sizes)

    @property
    def function_scope(self) -> str:
        """The scope of a check that reads only the probe functions."""
        return f"probe carriers of sizes 0..{self.max_size}, all functions"

    @property
    def scope(self) -> str:
        return (
            f"{self.function_scope}, "
            f"relations exhaustive up to {_REL_EXHAUSTIVE_CELLS} cells "
            f"then {self.rel_samples} samples (seed {self.seed})"
        )


def _func_note(f: FuncTable) -> str:
    body = ",".join(f"{x}>{y}" for x, y in f.items())
    return f"{f.src.name}->{f.tgt.name} [{body}]"


def _rel_note(x: Rel) -> str:
    body = ",".join(f"({a},{b})" for a, b in x.pairs())
    return f"{x.src.name}-|{x.tgt.name} {{{body}}}"


def _component(family, a: FiniteSet):
    """The component of `family` at `a`, built once per carrier and
    interned on the family, refused if it is off its carriers."""
    return intern((a, family), lambda: on_carriers(
        family.at(a), family.source.carrier(a), family.target.carrier(a),
        "family %s off its carriers at %s", family.name, a.name))


@dataclass(frozen=True, eq=False)
class IndexedRelation:
    """Family A ↦ rel(F A, G A), each component interned on the family."""

    name: str
    source: Functor
    target: Functor
    at: "callable[[FiniteSet], Rel]" = field(repr=False, default=None)
    _memo: dict | None = field(default=None, init=False, repr=False)

    def rel_at(self, a: FiniteSet) -> Rel:
        return _component(self, a)


@dataclass(frozen=True, eq=False)
class IndexedFunction:
    """Family A ↦ function(F A -> G A), each component interned on the
    family."""

    name: str
    source: Functor
    target: Functor
    at: "callable[[FiniteSet], FuncTable]" = field(repr=False, default=None)
    _memo: dict | None = field(default=None, init=False, repr=False)

    def func_at(self, a: FiniteSet) -> FuncTable:
        return _component(self, a)

    def graph_family(self) -> IndexedRelation:
        return IndexedRelation(
            f"{self.name}-graph",
            self.source,
            self.target,
            lambda a: graph(self.func_at(a)),
        )


def _check_squares(probes: ProbeUniverse, arrows: int, *functors: Functor):
    """Refuse, before the first square, a single lift through one of the
    functors over the cell budget, then a walk of `arrows` squares of n x n
    cells over it: n is the widest functor carrier over the largest probe
    carrier."""
    top = probe_carrier(probes.max_size)
    widest = 0
    for fun in functors:
        n = len(fun.carrier(top))
        check_cells(n, n, "lift through %s at %r", fun.name, top.name)
        widest = max(widest, n)
    check_cells(arrows, widest * widest, "probe walk of %d arrows to %r", arrows, top.name)


def _functor_law_walk(probes: ProbeUniverse) -> int:
    """The steps of `check_functor_laws`' walks: two per carrier, one per
    function, the composable function pairs a -> b -> c, consecutive
    relation pairs per carrier pair (monotone), and per carrier triple the
    pairs zipped from its two halves' relations (functorial)."""
    sizes = range(probes.max_size + 1)
    count = probes.relation_count_between
    return (
        2 * len(sizes) + probes.function_count
        + sum(sum(b ** a for a in sizes) * sum(c ** b for c in sizes) for b in sizes)
        + sum(count(a, b) - 1 for a in sizes for b in sizes)
        + sum(min(count(a, b), count(b, c)) for a, b, c in itertools.product(sizes, repeat=3))
    )


def check_functor_laws(fun: Functor, probes: ProbeUniverse) -> LawReport:
    _check_squares(probes, _functor_law_walk(probes), fun)
    carriers = probes.carriers()
    funcs = list(probes.functions())
    composable = ((f, g) for _, b, f in funcs for b2, _, g in funcs if b2 is b)

    def at(a):
        return f"at {a.name}"

    def monotone():
        for a, b in itertools.product(carriers, repeat=2):
            rels = list(probes.relations_between(a, b))
            for u, v in zip(rels, rels[1:]):
                small = inter(u, v)
                yield is_included(fun.lift(small), fun.lift(union(u, v))), small

    def functorial():
        for a, b, c in itertools.product(carriers, repeat=3):
            xs = list(probes.relations_between(a, b))
            ys = list(probes.relations_between(b, c))
            for x, y in zip(xs, ys):
                yield equal_verdict(fun.lift(compose(x, y)), compose(fun.lift(x), fun.lift(y))), (x, y)

    return LawReport(f"functor laws for {fun.name}", [
        first_violation(
            "preserves-identity",
            ((fun.fmap(FuncTable.identity(a)) == FuncTable.identity(fun.carrier(a)), a) for a in carriers),
            at,
        ),
        first_violation(
            "preserves-composition",
            ((fun.fmap(compose_func(g, f)) == compose_func(fun.fmap(g), fun.fmap(f)), (f, g))
             for f, g in composable),
            lambda fg: f"{_func_note(fg[0])} then {_func_note(fg[1])}",
        ),
        first_violation(
            "lifting-extends-arrows",
            ((equal_verdict(fun.lift(graph(f)), graph(fun.fmap(f))), f) for _, _, f in funcs),
            _func_note,
        ),
        first_violation(
            "lifting-identity",
            ((fun.lift(Rel.identity(a)) == Rel.identity(fun.carrier(a)), a) for a in carriers),
            at,
        ),
        first_violation("lifting-monotone", monotone(), _rel_note),
        first_violation(
            "lifting-functorial", functorial(), lambda xy: f"{_rel_note(xy[0])} ; {_rel_note(xy[1])}"
        ),
    ], probes.scope, probes.seed)


def _blocks(arrows: np.ndarray, *family):
    """Blocks of a stack of probe arrows whose squares' stacked temporaries
    stay under the stack budget: a square has at most n x n cells for the
    widest carrier n of the family components `family`."""
    widest = max(len(c) for r in family for c in (r.src, r.tgt))
    return stack_blocks(arrows, widest * widest)


def _probe_blocks(probes: ProbeUniverse, mode: str, at):
    """(a, b, at(a), at(b), block) per block of the `mode` probe arrows
    a -> b, in probe order: each carrier pair's two family components are
    looked up once for all its blocks."""
    for a, b in itertools.product(probes.carriers(), repeat=2):
        ra, rb = at(a), at(b)
        for x in _blocks(probes.stack(mode, a, b), ra, rb):
            yield a, b, ra, rb, x


def _paths(rho: IndexedRelation, mode: str, side: str, a, b, ra: Rel, rb: Rel, x: np.ndarray):
    """The two paths (F x ; rho_t, rho_s ; G x) round each arrow of the
    stack x from a to b, stacked; ra and rb are the family at a and b.  In
    relations mode x holds relations a ⇸ b, lifted.  In functions mode x
    holds function tables, read as graphs (left, s = a, t = b) or cographs
    (right, s = b, t = a)."""
    if mode == "relations":
        return product(rho.source.lifts(a, b, x)[2], rb.m), product(ra.m, rho.target.lifts(a, b, x)[2])
    fx, gx = rho.source.fmaps(a, b, x)[2], rho.target.fmaps(a, b, x)[2]
    if side == "left":
        return gather(rb.m, fx, -2), product(ra.m, gx[..., None] == np.arange(len(rb.tgt)))
    return product(fx[:, None, :] == np.arange(len(rb.src))[:, None], ra.m), gather(rb.m, gx, -1)


# law -> (probe arrows, side of the square read, whether the square's paths
# swap, whether they must be equal rather than the first within the second)
_LAWS = {
    "left-linear-functions": ("functions", "left", False, True),
    "right-linear-functions": ("functions", "right", False, True),
    "left-linear-relations": ("relations", "left", False, False),
    "right-linear-relations": ("relations", "left", True, False),
    "natural-relation": ("functions", "right", False, False),
}


def _square_verdicts(rho: IndexedRelation, probes: ProbeUniverse, laws: list[str]) -> list[Verdict]:
    """The verdicts of `laws`, in that order.  Functions mode asks each
    square to commute; relations mode asks for F x ; rho_b ⊆ rho_a ; G x on
    the left and the converse on the right; naturality asks the right
    functions square for the inclusion.  Laws reading one square share its
    walk; a violation is the first failing arrow in probe order, read again
    as one square for its witness."""
    walks = {}
    for law in laws:
        walks.setdefault(_LAWS[law][:2], []).append(law)
    found = {}
    for (mode, side), todo in walks.items():
        count = probes.function_count if mode == "functions" else probes.relation_count
        _check_squares(probes, count, rho.source, rho.target)
        for a, b, ra, rb, x in _probe_blocks(probes, mode, rho.rel_at):
            src, tgt = (ra.src, rb.tgt) if side == "left" else (rb.src, ra.tgt)
            lhs, rhs = _paths(rho, mode, side, a, b, ra, rb, x)
            for law in list(todo):
                swap, equal = _LAWS[law][2:]
                small, big = (rhs, lhs) if swap else (lhs, rhs)
                holds = included(small, big) & included(big, small) if equal else included(small, big)
                if not holds.all():
                    i = int(np.argmin(holds))
                    square = (equal_verdict if equal else is_included)(Rel(src, tgt, small[i]), Rel(src, tgt, big[i]))
                    note = _func_note(FuncTable(a, b, x[i])) if mode == "functions" else _rel_note(Rel(a, b, x[i]))
                    found[law] = Verdict(law, False, square.witness, note)
                    todo.remove(law)
            if not todo:
                break
    return [found.get(law, Verdict(law, True)) for law in laws]


def is_natural_relation(rho: IndexedRelation, probes: ProbeUniverse) -> Verdict:
    """Pulling back along any probe function keeps the family related."""
    return _square_verdicts(rho, probes, ["natural-relation"])[0]


def linearity_check(
    rho: IndexedRelation,
    probes: ProbeUniverse,
    side: str = "both",
    mode: str = "relations",
) -> LawReport:
    """Linearity means the family commutes with lifted relations; the
    functions mode checks the equivalent equational form on graphs, reads
    no relation and so states only the function scope.  With both modes
    the functions mode goes first, as in the classification."""
    modes = ("functions", "relations") if mode == "both" else (mode,)
    sides = ("left", "right") if side == "both" else (side,)
    laws = [f"{s}-linear-{m}" for m in modes for s in sides]
    subject, verdicts = f"linearity of {rho.name}", _square_verdicts(rho, probes, laws)
    if mode == "functions":
        return LawReport(subject, verdicts, probes.function_scope)
    return LawReport(subject, verdicts, probes.scope, probes.seed)


def classify_linearity(rho: IndexedRelation, probes: ProbeUniverse) -> LawReport:
    """Both sides in both modes, plus naturality and mode agreement."""
    laws = [f"{s}-linear-{m}" for m in ("functions", "relations") for s in ("left", "right")]
    lf, rf, lr, rr, _ = verdicts = _square_verdicts(rho, probes, [*laws, "natural-relation"])
    verdicts.append(
        Verdict(
            "modes-agree",
            lf.ok == lr.ok and rf.ok == rr.ok,
            note="the equational and relational readings must classify alike",
        )
    )
    return LawReport(f"linearity classification of {rho.name}", verdicts, probes.scope, probes.seed)


def is_natural_transformation(phi: IndexedFunction, probes: ProbeUniverse) -> Verdict:
    """G f after phi_a equals phi_b after F f for each probe function f:
    a -> b; a violation names the first element where they differ."""
    _check_squares(probes, probes.function_count, phi.source, phi.target)
    for a, b, pa, pb, x in _probe_blocks(probes, "functions", phi.func_at):
        differ = phi.target.fmaps(a, b, x)[2][:, pa.table] != pb.table[phi.source.fmaps(a, b, x)[2]]
        if differ.any():
            i, j = np.argwhere(differ)[0]  # the first arrow, and its first element
            lab = pa.src.elements[j]
            return Verdict("natural-transformation", False, (lab,) if lab else None, _func_note(FuncTable(a, b, x[i])))
    return Verdict("natural-transformation", True)


# ------------------------------------------------------ builtin families

def membership_family(cap: int = SUBSET_CAP) -> IndexedRelation:
    return IndexedRelation(
        "membership",
        IdentityFunctor(),
        PowersetFunctor(cap),
        lambda a: membership_rel(a, cap),
    )


def powerset_unit(cap: int = SUBSET_CAP) -> IndexedFunction:
    pf = PowersetFunctor(cap)

    def at(a):
        p = powerset_of(a, cap)
        return FuncTable(a, p, locate_subsets(p, np.eye(len(a), dtype=bool)))

    return IndexedFunction("singleton", IdentityFunctor(), pf, at)


def powerset_union(cap: int = SUBSET_CAP, outer: int | None = None) -> IndexedFunction:
    """Union of families of subsets; the outer bound defaults to 2^cap,
    so every family over a carrier within the cap is in the carrier."""
    outer = 1 << cap if outer is None else outer
    inner = PowersetFunctor(cap)

    def at(a):
        p, in_p = membership_matrix(a, cap)
        pp, in_pp = membership_matrix(p, outer)
        # column F of ∈a ; ∈Pa is the union of the family F
        return FuncTable(pp, p, locate_subsets(p, product(in_p, in_pp)))

    return IndexedFunction(
        "union", ComposedFunctor(PowersetFunctor(outer), inner), inner, at
    )


def term_unit(sig: Signature, depth: int = 2) -> IndexedFunction:
    tf = TermFunctor(sig, depth)

    def at(a):  # the variables lead the carrier
        return FuncTable(a, tf.carrier(a), np.arange(len(a)))

    return IndexedFunction("term-unit", IdentityFunctor(), tf, at)


def term_flatten(sig: Signature, depth: int = 2) -> IndexedFunction:
    """Substitution collapse: terms whose variables are terms flatten into
    one carrier deep enough to hold every image.  The carrier over `a` at
    depth `depth` is a prefix of the deeper one, so a variable's image is
    its own index there, and each level above looks its nodes up by their
    children's images."""
    inner = TermFunctor(sig, depth)
    target = TermFunctor(sig, max(2 * depth - 1, 1))

    def at(a):
        ta = inner.carrier(a)
        tta, ix = inner.arrays(ta)
        out, deep = target.arrays(a)
        find = syntax_finder(deep)
        image = np.full(len(tta) + 1, -1)  # the last entry images the padding
        image[:len(ta)] = np.arange(len(ta))  # the variables lead the carrier
        for lo, hi in zip(ix.bounds[:-1], ix.bounds[1:]):
            lo = max(lo, len(ta))
            image[lo:hi] = find(ix.head[lo:hi], *image[ix.kids[lo:hi]].T)
        return FuncTable(tta, out, image[:-1])

    return IndexedFunction(
        "term-flatten", ComposedFunctor(inner, inner), target, at
    )


def max_var_count(sig: Signature, depth: int) -> int:
    widest = max((arity for _, arity in sig.ops), default=0)
    return max(widest ** (depth - 1), 1)


def varlist_family(sig: Signature, depth: int = 2) -> IndexedFunction:
    tf = TermFunctor(sig, depth)
    lf = ListFunctor(max_var_count(sig, depth))

    def at(a):
        t = tf.carrier(a)
        l = lf.carrier(a)
        return FuncTable(t, l, [l.locate(positions) for _, positions in tf.splits(a)])

    return IndexedFunction("variable-list", tf, lf, at)


def samevars_family(sig: Signature, depth: int = 2) -> IndexedRelation:
    ell = varlist_family(sig, depth)
    tf = ell.source

    def at(a):
        f = ell.func_at(a)
        return compose(graph(f), cograph(f))

    return IndexedRelation("same-variables", tf, tf, at)


def mu_p_counterexample_search(max_size: int = 3) -> dict:
    """Hunt for a linearity violation of the union family, exhaustively by
    growing probe sizes.  Exhaustion raises an alarm: the union of a
    related cover is a related cover, on both sides, so no finite probe
    can produce a witness."""
    checked = 0
    for na in range(2, max_size + 1):
        for nb in range(2, max_size + 1):
            a, b = probe_carrier(na), probe_carrier(nb)
            cap = max(4, na, nb)
            mu = powerset_union(cap, 1 << cap).graph_family()
            ra, rb = mu.rel_at(a), mu.rel_at(b)
            for x in _blocks(relation_stack(na, nb), ra, rb):
                lhs, rhs = _paths(mu, "relations", "left", a, b, ra, rb, x)
                left, right = included(lhs, rhs), included(rhs, lhs)
                bad = np.flatnonzero(~(left & right))
                if len(bad):
                    i = bad[0]
                    side, small, big = ("left", lhs, rhs) if not left[i] else ("right", rhs, lhs)
                    got = is_included(Rel(ra.src, rb.tgt, small[i]), Rel(ra.src, rb.tgt, big[i]))
                    return {
                        "found": True,
                        "side": side,
                        "sizes": (na, nb),
                        "relation": sorted(Rel(a, b, x[i]).pairs()),
                        "witness": got.witness,
                    }
                checked += len(x)
    raise TheoremInconsistencyError(
        f"union-family linearity search exhausted {checked} relations "
        f"over probe sizes 2..{max_size} without a violation"
    )
