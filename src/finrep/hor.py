"""Set-indexed representations built from a pair of functors.

A higher-order structure assigns to every carrier a representation
whose traces and expressions come from applying two functors, with the
satisfaction family right-linear and the order family natural.  Such a
structure acts on functions, lifts along preorders, and lifts along
representations.  The monoid-term built-in lives here; the bounded
regular-expression built-in lives in the kleene module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .fset import FiniteSet, check_cells, intern
from .functors import Signature
from .morphism import Morphism
from .naturality import IndexedRelation, samevars_family, varlist_family
from .rel import (
    FuncTable,
    Rel,
    cograph,
    compose,
    equal_verdict,
    is_included,
    is_preorder,
    on_carriers,
    product,
    star,
    union,
)
from .represent import Representation, validate_representation
from .verdict import LawReport, require

MON_SIG = Signature.of({"mul": 2, "one": 0})


@dataclass(frozen=True)
class PreorderedSet:
    carrier: FiniteSet
    order: Rel

    def __post_init__(self):
        on_carriers(self.order, self.carrier, self.carrier, "order off its carrier %s", self.carrier.name)
        require(is_preorder(self.order))


@dataclass(frozen=True, eq=False)
class HOR:
    """A satisfaction family T ⇸ E and an order family E ⇸ E over one
    functor pair (T, E), the families' `source` and `target`.  Both
    functors count their carriers in closed form (`size`), as the list,
    term and expression functors do.  Each carrier's instance is interned
    on the structure, each component on its family."""

    name: str
    models: IndexedRelation
    leq: IndexedRelation
    _memo: dict | None = field(default=None, init=False, repr=False)


def _checked(h: HOR, family: IndexedRelation, a: FiniteSet) -> IndexedRelation:
    """`family`, once its component at `a` is within the cell budget,
    counted from the functors' closed-form sizes, so a relation over the
    budget is refused before any carrier is built, on every request."""
    what = "satisfaction" if family is h.models else "order"
    check_cells(family.source.size(a), family.target.size(a), "%s of %s at %s", what, h.name, a.name)
    return family


def instantiate(h: HOR, a: FiniteSet) -> Representation:
    """The representation of `h` at `a`, built once per carrier; its laws
    are checked on demand, as every representation's are."""
    models, leq = _checked(h, h.models, a), _checked(h, h.leq, a)
    # ends in the structure, not the carrier: probe carriers are interned
    # module-wide and would keep every structure alive
    return intern(("instance", a, h), lambda: Representation(
        f"{h.name}({a.name})", models.source.carrier(a), models.target.carrier(a),
        models.rel_at(a), leq.rel_at(a)))


def hor_arrow(h: HOR, f: FuncTable) -> Morphism:
    """Action on a function: rename expressions forward, pull traces back."""
    return Morphism(
        source=instantiate(h, f.src),
        target=instantiate(h, f.tgt),
        phi=h.models.target.fmap(f),
        psi=cograph(h.models.source.fmap(f)),
    )


def tilde_lift(h: HOR, p: PreorderedSet) -> Representation:
    """Relax satisfaction along a preorder on the generators: the hat lift
    over the preorder read as a representation, its carrier on both sides
    and its order as satisfaction and order alike."""
    a = p.carrier
    return hat_lift(h, Representation(a.name, a, a, p.order, p.order))


def check_tilde_soundness(h: HOR, p: PreorderedSet) -> LawReport:
    """Validation of the lifted representation plus the two absorption
    inclusions that drive its soundness argument."""
    rep = tilde_lift(h, p)
    report = validate_representation(rep)
    return replace(report, verdicts=report.verdicts + [
        is_included(compose(rep.models, _lifted(h.models.target, p.order)), rep.models, "absorbs-lifted-order"),
        is_included(compose(rep.models, h.leq.rel_at(p.carrier)), rep.models, "absorbs-base-order"),
    ])


def _lifted(e, order: Rel) -> Rel:
    """`e`'s lift of `order`, as `hat_lift` and `check_tilde_soundness` both
    read it: built once per order and functor key, so a structure built
    afresh reads the same lift; its cells are checked on every request,
    with a syntax functor's lift message."""
    n = e.size(order.src)
    check_cells(n, n, "%s lift of a relation %r -> %r", e.name, order.src.name, order.tgt.name)
    return intern(("lift", *e.key, order), lambda: e.lift(order))


def hat_lift(h: HOR, r: Representation) -> Representation:
    """Parametrize by another representation: traces over its traces,
    expressions over its expressions.  Refuses a parameter that fails
    validation."""
    require(validate_representation(r))
    t, e = h.models.source, h.models.target
    return Representation(
        name=f"{h.name}-over-{r.name}",
        traces=t.carrier(r.traces),
        exprs=e.carrier(r.exprs),
        models=compose(t.lift(r.models), _checked(h, h.models, r.exprs).rel_at(r.exprs)),
        # the order has the cells of the lift of r.leq, refused there
        leq=star(union(_lifted(e, r.leq), h.leq.rel_at(r.exprs))),
    )


# ----------------------------------------------------------- monoid terms

def mon_hor(depth: int = 3) -> HOR:
    """Lists against monoid terms: a term satisfies exactly the list of
    its variables read left to right."""
    name, ell = f"mon(depth {depth})", varlist_family(MON_SIG, depth)
    models = IndexedRelation(f"{name}-satisfaction", ell.target, ell.source, lambda a: cograph(ell.func_at(a)))
    return HOR(name, models, samevars_family(MON_SIG, depth))


def tilde_mon_rule_check(p: PreorderedSet, depth: int = 2) -> LawReport:
    """The lifted order recomputed from its three inference rules
    (congruence step, monoid equality step, generator step) must equal
    the star-of-union form produced by the preorder lift."""
    h = mon_hor(depth)
    lifted = tilde_lift(h, p).leq
    term_carrier, ix = h.leq.source.arrays(p.carrier)

    m = h.leq.rel_at(p.carrier).m.copy()
    n = len(p.carrier)  # the variables lead the carrier
    m[:n, :n] |= p.order.m

    mul_ix = np.flatnonzero(ix.head == MON_SIG.code("mul"))
    lefts, rights = ix.kids[mul_ix, 0], ix.kids[mul_ix, 1]
    while True:
        before = m.copy()
        m |= product(m, m)
        if len(mul_ix):
            cong = m[np.ix_(lefts, lefts)] & m[np.ix_(rights, rights)]
            m[np.ix_(mul_ix, mul_ix)] |= cong
        if (m == before).all():
            break

    return LawReport(f"rule closure for the lifted monoid order over {p.carrier.name}", [
        equal_verdict(Rel(term_carrier, term_carrier, m), lifted, "rule-closure-matches-lifted-order"),
    ])
