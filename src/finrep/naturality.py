"""Probe-based checks for set-indexed families of relations and functions.

Universal statements ("for every set, for every function...") are certified
over a finite probe universe: one carrier per size up to a bound, every
function between probe carriers, and relations either exhausted (small
pairs) or sampled with a seed.  Every verdict states that scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import TheoremInconsistencyError
from .fset import FiniteSet, intern, powerset_of
from .functors import (
    ComposedFunctor,
    Functor,
    IdentityFunctor,
    ListFunctor,
    PowersetFunctor,
    Signature,
    Term,
    TermFunctor,
    term_node,
    term_var,
    var_list,
)
from .laws import all_relations
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
    union,
)
from .verdict import LawReport, Verdict

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
                if len(b) == 0 and len(a) > 0:
                    continue
                for table in itertools.product(range(len(b)), repeat=len(a)):
                    yield a, b, FuncTable(a, b, table)

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
    def scope(self) -> str:
        return (
            f"probe carriers of sizes 0..{self.max_size}, all functions, "
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


def check_functor_laws(fun: Functor, probes: ProbeUniverse) -> LawReport:
    report = LawReport(subject=f"functor laws for {fun.name}")

    bad = None
    for a in probes.carriers():
        fa = fun.carrier(a)
        if fun.fmap(FuncTable.identity(a)) != FuncTable.identity(fa):
            bad = f"at {a.name}"
    report.add(Verdict("preserves-identity", bad is None, note=bad or ""))

    bad = None
    funcs = list(probes.functions())
    for a, b, f in funcs:
        for b2, c, g in funcs:
            if b2 is not b:
                continue
            if fun.fmap(compose_func(g, f)) != compose_func(fun.fmap(g), fun.fmap(f)):
                bad = f"{_func_note(f)} then {_func_note(g)}"
                break
        if bad:
            break
    report.add(Verdict("preserves-composition", bad is None, note=bad or ""))

    verdict = Verdict("lifting-extends-arrows", True)
    for a, b, f in funcs:
        got = equal_verdict(fun.lift(graph(f)), graph(fun.fmap(f)), "lifting-extends-arrows")
        if not got.ok:
            verdict = Verdict(got.law, False, got.witness, note=_func_note(f))
            break
    report.add(verdict)

    bad = None
    for a in probes.carriers():
        fa = fun.carrier(a)
        if fun.lift(Rel.identity(a)) != Rel.identity(fa):
            bad = f"at {a.name}"
    report.add(Verdict("lifting-identity", bad is None, note=bad or ""))

    verdict = Verdict("lifting-monotone", True)
    for a in probes.carriers():
        for b in probes.carriers():
            rels = list(probes.relations_between(a, b))
            for u, v in zip(rels, rels[1:]):
                small, big = inter(u, v), union(u, v)
                got = is_included(fun.lift(small), fun.lift(big), "lifting-monotone")
                if not got.ok:
                    verdict = Verdict(got.law, False, got.witness, note=_rel_note(small))
                    break
            if not verdict.ok:
                break
        if not verdict.ok:
            break
    report.add(verdict)

    verdict = Verdict("lifting-functorial", True)
    for a in probes.carriers():
        for b in probes.carriers():
            for c in probes.carriers():
                xs = list(probes.relations_between(a, b))
                ys = list(probes.relations_between(b, c))
                for x, y in zip(xs, ys):
                    got = equal_verdict(
                        fun.lift(compose(x, y)),
                        compose(fun.lift(x), fun.lift(y)),
                        "lifting-functorial",
                    )
                    if not got.ok:
                        verdict = Verdict(
                            got.law, False, got.witness,
                            note=f"{_rel_note(x)} ; {_rel_note(y)}",
                        )
                        break
                if not verdict.ok:
                    break
            if not verdict.ok:
                break
        if not verdict.ok:
            break
    report.add(verdict)
    report.scope = probes.scope
    return report


def is_natural_relation(rho: IndexedRelation, probes: ProbeUniverse) -> Verdict:
    """Pulling back along any probe function keeps the family related."""
    for a, b, f in probes.functions():
        lhs = compose(cograph(rho.source.fmap(f)), rho.rel_at(a))
        rhs = compose(rho.rel_at(b), cograph(rho.target.fmap(f)))
        got = is_included(lhs, rhs, "natural-relation")
        if not got.ok:
            return Verdict(got.law, False, got.witness, note=_func_note(f))
    return Verdict("natural-relation", True, note=probes.scope)


def _left_functions(rho, probes):
    for a, b, f in probes.functions():
        got = equal_verdict(
            compose(graph(rho.source.fmap(f)), rho.rel_at(b)),
            compose(rho.rel_at(a), graph(rho.target.fmap(f))),
            "left-linear-functions",
        )
        if not got.ok:
            return Verdict(got.law, False, got.witness, note=_func_note(f))
    return Verdict("left-linear-functions", True)


def _right_functions(rho, probes):
    for a, b, f in probes.functions():
        got = equal_verdict(
            compose(cograph(rho.source.fmap(f)), rho.rel_at(a)),
            compose(rho.rel_at(b), cograph(rho.target.fmap(f))),
            "right-linear-functions",
        )
        if not got.ok:
            return Verdict(got.law, False, got.witness, note=_func_note(f))
    return Verdict("right-linear-functions", True)


def _left_relations(rho, probes):
    for a, b, x in probes.relations():
        got = is_included(
            compose(rho.source.lift(x), rho.rel_at(b)),
            compose(rho.rel_at(a), rho.target.lift(x)),
            "left-linear-relations",
        )
        if not got.ok:
            return Verdict(got.law, False, got.witness, note=_rel_note(x))
    return Verdict("left-linear-relations", True)


def _right_relations(rho, probes):
    for a, b, x in probes.relations():
        got = is_included(
            compose(rho.rel_at(a), rho.target.lift(x)),
            compose(rho.source.lift(x), rho.rel_at(b)),
            "right-linear-relations",
        )
        if not got.ok:
            return Verdict(got.law, False, got.witness, note=_rel_note(x))
    return Verdict("right-linear-relations", True)


def linearity_check(
    rho: IndexedRelation,
    probes: ProbeUniverse,
    side: str = "both",
    mode: str = "relations",
) -> LawReport:
    """Linearity means the family commutes with lifted relations; the
    functions mode checks the equivalent equational form on graphs."""
    report = LawReport(subject=f"linearity of {rho.name}")
    runners = {
        ("left", "functions"): _left_functions,
        ("right", "functions"): _right_functions,
        ("left", "relations"): _left_relations,
        ("right", "relations"): _right_relations,
    }
    sides = ("left", "right") if side == "both" else (side,)
    for s in sides:
        report.add(runners[(s, mode)](rho, probes))
    report.scope = probes.scope
    return report


def classify_linearity(rho: IndexedRelation, probes: ProbeUniverse) -> LawReport:
    """Both sides in both modes, plus naturality and mode agreement."""
    report = LawReport(subject=f"linearity classification of {rho.name}")
    lf = _left_functions(rho, probes)
    rf = _right_functions(rho, probes)
    lr = _left_relations(rho, probes)
    rr = _right_relations(rho, probes)
    nat = is_natural_relation(rho, probes)
    for v in (lf, rf, lr, rr):
        report.add(Verdict(v.law, v.ok, v.witness, v.note))
    report.add(Verdict("natural-relation", nat.ok, nat.witness))
    report.add(
        Verdict(
            "modes-agree",
            lf.ok == lr.ok and rf.ok == rr.ok,
            note="the equational and relational readings must classify alike",
        )
    )
    report.scope = probes.scope
    return report


def is_natural_transformation(phi: IndexedFunction, probes: ProbeUniverse) -> Verdict:
    for a, b, f in probes.functions():
        left = compose_func(phi.target.fmap(f), phi.func_at(a))
        right = compose_func(phi.func_at(b), phi.source.fmap(f))
        if left != right:
            x = next(
                (lab for lab in left.src.elements if left(lab) != right(lab)),
                None,
            )
            return Verdict(
                "natural-transformation",
                False,
                witness=(x,) if x else None,
                note=_func_note(f),
            )
    return Verdict("natural-transformation", True, note=probes.scope)


def is_linear_transformation(phi: IndexedFunction, probes: ProbeUniverse) -> LawReport:
    return linearity_check(phi.graph_family(), probes, side="both", mode="relations")


# ------------------------------------------------------ builtin families

def membership_family(cap: int = 4) -> IndexedRelation:
    return IndexedRelation(
        "membership",
        IdentityFunctor(),
        PowersetFunctor(cap),
        lambda a: membership_rel(a, cap),
    )


def powerset_unit(cap: int = 4) -> IndexedFunction:
    pf = PowersetFunctor(cap)

    def at(a):
        p = powerset_of(a, cap)
        return FuncTable(a, p, [p.locate(1 << i) for i in range(len(a))])

    return IndexedFunction("singleton", IdentityFunctor(), pf, at)


def powerset_union(cap: int = 4, outer_cap: int = 16) -> IndexedFunction:
    inner = PowersetFunctor(cap)
    outer = PowersetFunctor(outer_cap)

    def at(a):
        p = powerset_of(a, cap)
        pp = powerset_of(p, outer_cap)
        table = []
        for mm in pp.payload:
            flat = 0
            for i in range(len(p)):
                if mm >> i & 1:
                    flat |= p.payload[i]
            table.append(p.locate(flat))
        return FuncTable(pp, p, table)

    return IndexedFunction(
        "union", ComposedFunctor(outer, inner), inner, at
    )


def term_unit(sig: Signature, depth: int) -> IndexedFunction:
    tf = TermFunctor(sig, depth)

    def at(a):
        t = tf.carrier(a)
        return FuncTable(a, t, [t.locate(term_var(i)) for i in range(len(a))])

    return IndexedFunction("term-unit", IdentityFunctor(), tf, at)


def term_flatten(sig: Signature, depth: int) -> IndexedFunction:
    """Substitution collapse: terms whose variables are terms flatten into
    one carrier deep enough to hold every image."""
    inner = TermFunctor(sig, depth)
    target = TermFunctor(sig, max(2 * depth - 1, 1))

    def at(a):
        ta = inner.carrier(a)
        tta = inner.carrier(ta)
        out = target.carrier(a)

        def subst(t: Term) -> Term:
            if t.op is None:
                return ta.payload[t.var]
            return term_node(t.op, tuple(subst(c) for c in t.children))

        return FuncTable(tta, out, [out.locate(subst(t)) for t in tta.payload])

    return IndexedFunction(
        "term-flatten", ComposedFunctor(inner, inner), target, at
    )


def max_var_count(sig: Signature, depth: int) -> int:
    widest = max((arity for _, arity in sig.ops), default=0)
    return max(widest ** (depth - 1), 1)


def varlist_family(sig: Signature, depth: int) -> IndexedFunction:
    tf = TermFunctor(sig, depth)
    lf = ListFunctor(max_var_count(sig, depth))

    def at(a):
        t = tf.carrier(a)
        l = lf.carrier(a)
        return FuncTable(t, l, [l.locate(var_list(term)) for term in t.payload])

    return IndexedFunction("variable-list", tf, lf, at)


def samevars_family(sig: Signature, depth: int) -> IndexedRelation:
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
            a = probe_carrier(na)
            b = probe_carrier(nb)
            cap = max(4, len(a), len(b))
            outer_cap = 1 << cap
            mu = powerset_union(cap, outer_cap)
            rho_a = graph(mu.func_at(a))
            rho_b = graph(mu.func_at(b))
            for x in all_relations(a, b):
                checked += 1
                fx = mu.source.lift(x)
                gx = mu.target.lift(x)
                left = is_included(compose(fx, rho_b), compose(rho_a, gx), "left")
                if not left.ok:
                    return {
                        "found": True,
                        "side": "left",
                        "sizes": (na, nb),
                        "relation": sorted(x.pairs()),
                        "witness": left.witness,
                    }
                right = is_included(compose(rho_a, gx), compose(fx, rho_b), "right")
                if not right.ok:
                    return {
                        "found": True,
                        "side": "right",
                        "sizes": (na, nb),
                        "relation": sorted(x.pairs()),
                        "witness": right.witness,
                    }
    raise TheoremInconsistencyError(
        f"union-family linearity search exhausted {checked} relations "
        f"over probe sizes 2..{max_size} without a violation"
    )
