"""Probe-based checks for set-indexed families of relations and functions.

Universal statements ("for every set, for every function...") are certified
over a finite probe universe: one carrier per size up to a bound, every
function between probe carriers, and relations either exhausted (small
pairs) or sampled with a seed.  Every verdict states that scope.
"""

from __future__ import annotations

import functools
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
from .laws import all_functions, all_relations
from .rel import (
    FuncTable,
    Rel,
    cograph,
    compose,
    compose_func,
    equal_verdict,
    graph,
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


@dataclass
class ProbeUniverse:
    max_size: int = 3
    rel_samples: int = 25
    seed: int = 0

    def carriers(self) -> list[FiniteSet]:
        return [probe_carrier(n) for n in range(self.max_size + 1)]

    def functions(self):
        for a in self.carriers():
            for b in self.carriers():
                for f in all_functions(a, b):
                    yield a, b, f

    def relations(self):
        for a in self.carriers():
            for b in self.carriers():
                for x in self.relations_between(a, b):
                    yield a, b, x

    def relations_between(self, a: FiniteSet, b: FiniteSet):
        cells = len(a) * len(b)
        if cells <= _REL_EXHAUSTIVE_CELLS:
            yield from all_relations(a, b)
            return
        rng = np.random.default_rng((self.seed, len(a), len(b)))
        yield Rel.empty(a, b)
        yield Rel.full(a, b)
        # graphs keep the sampled pool honest: function counterexamples
        # must stay visible to relation-mode checks
        if len(b) > 0:
            for _ in range(3):
                table = rng.integers(0, len(b), size=len(a))
                yield graph(FuncTable(a, b, table))
        for _ in range(self.rel_samples):
            yield Rel(a, b, rng.random((len(a), len(b))) < rng.uniform(0.2, 0.8))

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
        """How many relations `relations` yields, in closed form."""
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


@dataclass
class IndexedRelation:
    """Family A ↦ rel(F A, G A)."""

    name: str
    source: Functor
    target: Functor
    at: "callable[[FiniteSet], Rel]" = field(repr=False, default=None)

    def rel_at(self, a: FiniteSet) -> Rel:
        return on_carriers(self.at(a), self.source.carrier(a), self.target.carrier(a),
                           "family %s off its carriers at %s", self.name, a.name)


@dataclass
class IndexedFunction:
    """Family A ↦ function(F A -> G A)."""

    name: str
    source: Functor
    target: Functor
    at: "callable[[FiniteSet], FuncTable]" = field(repr=False, default=None)

    def func_at(self, a: FiniteSet) -> FuncTable:
        return on_carriers(self.at(a), self.source.carrier(a), self.target.carrier(a),
                           "family %s off its carriers at %s", self.name, a.name)

    def graph_family(self) -> IndexedRelation:
        return IndexedRelation(
            f"{self.name}-graph",
            self.source,
            self.target,
            lambda a: graph(self.func_at(a)),
        )


def check_walk(probes: ProbeUniverse, arrows: int, *carriers):
    """Refuse, before the first square, a walk of `arrows` squares of n x n
    cells over the cell budget: n is the largest |C top| for each map C of
    a probe carrier to a carrier (a functor's `carrier`, a trace table)."""
    top = probe_carrier(probes.max_size)
    widest = max(len(at(top)) for at in carriers)
    check_cells(arrows, widest * widest, "probe walk of %d arrows to %r", arrows, top.name)


def _check_squares(probes: ProbeUniverse, arrows: int, *functors: Functor):
    """`check_walk` through the functors' carriers, after refusing a single
    lift through one of them over the cell budget."""
    top = probe_carrier(probes.max_size)
    for fun in functors:
        n = len(fun.carrier(top))
        check_cells(n, n, "lift through %s at %r", fun.name, top.name)
    check_walk(probes, arrows, *(fun.carrier for fun in functors))


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
    report = LawReport(subject=f"functor laws for {fun.name}")
    carriers = probes.carriers()

    def at(a):
        return f"at {a.name}"

    report.add(first_violation(
        "preserves-identity",
        ((fun.fmap(FuncTable.identity(a)) == FuncTable.identity(fun.carrier(a)), a) for a in carriers),
        at,
    ))

    funcs = list(probes.functions())
    composable = ((f, g) for _, b, f in funcs for b2, _, g in funcs if b2 is b)
    report.add(first_violation(
        "preserves-composition",
        ((fun.fmap(compose_func(g, f)) == compose_func(fun.fmap(g), fun.fmap(f)), (f, g))
         for f, g in composable),
        lambda fg: f"{_func_note(fg[0])} then {_func_note(fg[1])}",
    ))
    report.add(first_violation(
        "lifting-extends-arrows",
        ((equal_verdict(fun.lift(graph(f)), graph(fun.fmap(f))), f) for _, _, f in funcs),
        _func_note,
    ))
    report.add(first_violation(
        "lifting-identity",
        ((fun.lift(Rel.identity(a)) == Rel.identity(fun.carrier(a)), a) for a in carriers),
        at,
    ))

    def monotone():
        for a, b in itertools.product(carriers, repeat=2):
            rels = list(probes.relations_between(a, b))
            for u, v in zip(rels, rels[1:]):
                small = inter(u, v)
                yield is_included(fun.lift(small), fun.lift(union(u, v))), small

    report.add(first_violation("lifting-monotone", monotone(), _rel_note))

    def functorial():
        for a, b, c in itertools.product(carriers, repeat=3):
            xs = list(probes.relations_between(a, b))
            ys = list(probes.relations_between(b, c))
            for x, y in zip(xs, ys):
                yield equal_verdict(fun.lift(compose(x, y)), compose(fun.lift(x), fun.lift(y))), (x, y)

    report.add(first_violation(
        "lifting-functorial", functorial(), lambda xy: f"{_rel_note(xy[0])} ; {_rel_note(xy[1])}"
    ))
    report.scope = probes.scope
    return report


def _squares(rho: IndexedRelation, arrows, side: str, mode: str):
    """The two paths (F x ; rho_t, rho_s ; G x) round each probe arrow.

    `arrows` yields (a, b, arrow).  In relations mode x is the probe
    relation a ⇸ b itself, lifted, and both sides read this one square.
    In functions mode x is the graph of the probe function (left, s = a,
    t = b) or its cograph (right, s = b, t = a).  Yields the two paths
    and the probe arrow; each family component is looked up once per
    carrier.
    """
    at = functools.cache(rho.rel_at)
    for a, b, arrow in arrows:
        if mode == "relations":
            fx, gx = rho.source.lift(arrow), rho.target.lift(arrow)
        elif side == "left":
            fx, gx = graph(rho.source.fmap(arrow)), graph(rho.target.fmap(arrow))
        else:
            fx, gx = cograph(rho.source.fmap(arrow)), cograph(rho.target.fmap(arrow))
            a, b = b, a
        yield compose(fx, at(b)), compose(at(a), gx), arrow


def _linearity(rho: IndexedRelation, probes: ProbeUniverse, side: str, mode: str) -> Verdict:
    """Functions mode asks each square to commute; relations mode asks
    for one inclusion, F x ; rho_b ⊆ rho_a ; G x on the left and the
    converse on the right."""
    if mode == "functions":
        arrows, count, holds, note = probes.functions(), probes.function_count, equal_verdict, _func_note
    else:
        arrows, count, note = probes.relations(), probes.relation_count, _rel_note
        holds = is_included if side == "left" else lambda lhs, rhs: is_included(rhs, lhs)
    _check_squares(probes, count, rho.source, rho.target)
    squares = _squares(rho, arrows, side, mode)
    return first_violation(
        f"{side}-linear-{mode}", ((holds(lhs, rhs), x) for lhs, rhs, x in squares), note
    )


def is_natural_relation(rho: IndexedRelation, probes: ProbeUniverse) -> Verdict:
    """Pulling back along any probe function keeps the family related."""
    _check_squares(probes, probes.function_count, rho.source, rho.target)
    squares = _squares(rho, probes.functions(), "right", "functions")
    return first_violation(
        "natural-relation", ((is_included(lhs, rhs), f) for lhs, rhs, f in squares), _func_note
    )


def linearity_check(
    rho: IndexedRelation,
    probes: ProbeUniverse,
    side: str = "both",
    mode: str = "relations",
) -> LawReport:
    """Linearity means the family commutes with lifted relations; the
    functions mode checks the equivalent equational form on graphs.  With
    both modes the functions mode goes first, as in the classification."""
    report = LawReport(f"linearity of {rho.name}", scope=probes.scope, seed=probes.seed)
    for m in ("functions", "relations") if mode == "both" else (mode,):
        for s in ("left", "right") if side == "both" else (side,):
            report.add(_linearity(rho, probes, s, m))
    return report


def classify_linearity(rho: IndexedRelation, probes: ProbeUniverse) -> LawReport:
    """Both sides in both modes, plus naturality and mode agreement."""
    report = LawReport(
        f"linearity classification of {rho.name}", scope=probes.scope, seed=probes.seed
    )
    lf, rf, lr, rr = linearity_check(rho, probes, "both", "both").verdicts
    for v in (lf, rf, lr, rr, is_natural_relation(rho, probes)):
        report.add(v)
    report.add(
        Verdict(
            "modes-agree",
            lf.ok == lr.ok and rf.ok == rr.ok,
            note="the equational and relational readings must classify alike",
        )
    )
    return report


def is_natural_transformation(phi: IndexedFunction, probes: ProbeUniverse) -> Verdict:
    _check_squares(probes, probes.function_count, phi.source, phi.target)

    def square(f):
        left = compose_func(phi.target.fmap(f), phi.func_at(f.src))
        right = compose_func(phi.func_at(f.tgt), phi.source.fmap(f))
        if left == right:
            return True
        x = next((lab for lab in left.src.elements if left(lab) != right(lab)), None)
        return Verdict("natural-transformation", False, (x,) if x else None)

    return first_violation(
        "natural-transformation", ((square(f), f) for _, _, f in probes.functions()), _func_note
    )


def is_linear_transformation(phi: IndexedFunction, probes: ProbeUniverse) -> LawReport:
    return linearity_check(phi.graph_family(), probes, side="both", mode="relations")


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
            arrows = ((a, b, x) for x in all_relations(a, b))
            for lhs, rhs, x in _squares(mu, arrows, "left", "relations"):
                checked += 1
                for side, small, big in (("left", lhs, rhs), ("right", rhs, lhs)):
                    got = is_included(small, big)
                    if not got.ok:
                        return {
                            "found": True,
                            "side": side,
                            "sizes": (na, nb),
                            "relation": sorted(x.pairs()),
                            "witness": got.witness,
                        }
    raise TheoremInconsistencyError(
        f"union-family linearity search exhausted {checked} relations "
        f"over probe sizes 2..{max_size} without a violation"
    )
