"""Morphisms between representations, and the binary product.

A morphism carries a forward expression translation (a function) and a
backward trace relation.  The two laws: the translation preserves the
order, and satisfaction in the target factors through the trace relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CarrierMismatch
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
    on_carriers,
    product_set,
    sum_set,
    union,
)
from .represent import Representation, same_representation, validate_representation
from .verdict import LawReport, Verdict, checked_once, require


@dataclass(frozen=True, eq=False)
class Morphism:
    source: Representation
    target: Representation
    phi: FuncTable  # source.exprs -> target.exprs
    psi: Rel  # target.traces ⇸ source.traces
    # validate_morphism's verdicts, interned from its first call
    _memo: dict | None = field(default=None, init=False, repr=False)

    @property
    def validated(self) -> bool:
        """Whether the laws hold, checked now unless already checked."""
        return validate_morphism(self).passed

    def __post_init__(self):
        on_carriers(self.phi, self.source.exprs, self.target.exprs,
                    "translation must go source exprs -> target exprs")
        on_carriers(self.psi, self.target.traces, self.source.traces,
                    "trace relation must go target traces -> source traces")


def order_preservation(f: FuncTable, src: Representation, tgt: Representation, law: str) -> Verdict:
    """`f` (src exprs -> tgt exprs) maps ordered expressions to ordered ones."""
    return is_included(
        compose(cograph(f), src.leq), compose(tgt.leq, cograph(f)), law
    )


def models_transport(phi: FuncTable, psi: Rel, src: Representation, tgt: Representation) -> Verdict:
    """Satisfaction in `tgt` of a translated expression is satisfaction in
    `src` of the expression along the trace relation `psi`."""
    return equal_verdict(
        compose(tgt.models, cograph(phi)), compose(psi, src.models), "models-transport"
    )


def validate_morphism(m: Morphism) -> LawReport:
    """Order preservation and models transport, checked once per morphism."""
    return checked_once(m, f"morphism {m.source.name!r} -> {m.target.name!r}", _morphism_laws)


def _morphism_laws(m: Morphism) -> list[Verdict]:
    return [
        order_preservation(m.phi, m.source, m.target, "order-preservation"),
        models_transport(m.phi, m.psi, m.source, m.target),
    ]


def identity_morphism(r: Representation) -> Morphism:
    return Morphism(r, r, FuncTable.identity(r.exprs), Rel.identity(r.traces))


def compose_morphisms(m: Morphism, m2: Morphism) -> Morphism:
    """Diagrammatic order: m first, then m2."""
    if not same_representation(m.target, m2.source):
        raise CarrierMismatch("morphisms do not chain")
    return Morphism(
        m.source,
        m2.target,
        compose_func(m2.phi, m.phi),
        compose(m2.psi, m.psi),
    )


def morphisms_equal(m: Morphism, m2: Morphism) -> bool:
    return (
        same_representation(m.source, m2.source)
        and same_representation(m.target, m2.target)
        and np.array_equal(m.phi.table, m2.phi.table)
        and m.psi == m2.psi
    )


def product(r1: Representation, r2: Representation):
    """Product representation with its two projection morphisms.

    Traces are the tagged union, expressions the pair carrier; a tagged
    trace satisfies a pair through its own component, and pairs are ordered
    componentwise.  Refuses a factor that fails validation.
    """
    require(validate_representation(r1))
    require(validate_representation(r2))
    t, i1, i2 = sum_set(r1.traces, r2.traces)
    e, pr1, pr2 = product_set(r1.exprs, r2.exprs)
    models = union(
        compose(cograph(i1), compose(r1.models, cograph(pr1))),
        compose(cograph(i2), compose(r2.models, cograph(pr2))),
    )
    leq = inter(
        compose(graph(pr1), compose(r1.leq, cograph(pr1))),
        compose(graph(pr2), compose(r2.leq, cograph(pr2))),
    )
    rp = Representation(f"({r1.name} x {r2.name})", t, e, models, leq)
    p1 = Morphism(rp, r1, pr1, graph(i1))
    p2 = Morphism(rp, r2, pr2, graph(i2))
    return rp, p1, p2


def pairing(f1: Morphism, f2: Morphism, rp: Representation) -> Morphism:
    """The canonical mediating morphism into the product carrier rp."""
    r = f1.source
    n2 = len(f2.target.exprs)
    table = f1.phi.table * n2 + f2.phi.table
    t, i1, i2 = sum_set(f1.target.traces, f2.target.traces)
    psi = union(compose(cograph(i1), f1.psi), compose(cograph(i2), f2.psi))
    return Morphism(r, rp, FuncTable(r.exprs, rp.exprs, table), psi)


def product_universal(
    r: Representation,
    f1: Morphism,
    f2: Morphism,
    budget: int = 10**6,
    candidates: tuple[Morphism, ...] = (),
):
    """Mediating morphism plus a uniqueness report.

    Below the budget the whole morphism space into the product is searched;
    above it, only the supplied candidates are checked against the product
    equations.  Refuses an arrow that fails validation.
    """
    if f1.source is not r or f2.source is not r:
        raise CarrierMismatch("both arrows must start at the given representation")
    require(validate_morphism(f1))
    require(validate_morphism(f2))
    rp, p1, p2 = product(f1.target, f2.target)
    g = pairing(f1, f2, rp)
    laws = validate_morphism(g).verdicts + [
        Verdict("factor-first", morphisms_equal(compose_morphisms(g, p1), f1)),
        Verdict("factor-second", morphisms_equal(compose_morphisms(g, p2), f2)),
    ]

    cells = len(rp.traces) * len(r.traces)
    phi_count = len(rp.exprs) ** len(r.exprs)
    psi_count = 1 << cells if cells < 64 else budget + 1
    total = phi_count * psi_count
    exhaustive = total <= budget
    space = (
        (Morphism(r, rp, phi, psi)
         for phi in all_functions(r.exprs, rp.exprs)
         for psi in all_relations(rp.traces, r.traces))
        if exhaustive else candidates
    )
    matches, other = 0, False
    for cand in space:
        if (
            validate_morphism(cand).passed
            and morphisms_equal(compose_morphisms(cand, p1), f1)
            and morphisms_equal(compose_morphisms(cand, p2), f2)
        ):
            matches += 1
            if not morphisms_equal(cand, g):
                other = True
                break
    if not exhaustive:
        ok, note = not other, (f"space of {total} candidates over budget {budget}; "
                               f"refutation-only over {len(candidates)} supplied")
    elif other:
        ok, note = False, "a different mediating morphism satisfies both equations"
    else:
        ok, note = matches == 1, f"searched {total} candidates, {matches} satisfied the equations"
    return g, LawReport(f"universal property at {r.name!r}", [*laws, Verdict("uniqueness", ok, note=note)])
