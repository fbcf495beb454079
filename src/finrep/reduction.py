"""Reductions between representations and syntactic closures.

A reduction carries a forward expression translation, a backward one, and
a backward trace relation.  Its four laws make the target a faithful
shadow of the source: translating an expression there and back lands in
the same order-equivalence class.  Exactness then transfers backwards
along any valid reduction; that transfer is this module's load-bearing
theorem and failures of it raise an inconsistency alarm rather than an
ordinary violation verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CarrierMismatch, TheoremInconsistencyError
from .morphism import models_transport, order_preservation
from .rel import (
    FuncTable,
    Rel,
    cograph,
    compose,
    compose_func,
    graph,
    is_included,
    on_carriers,
)
from .represent import (
    Representation,
    interpretations,
    is_exact,
    same_representation,
    trivial_representation,
    validate_representation,
)
from .verdict import LawReport, Verdict, checked_once, require


@dataclass(frozen=True, eq=False)
class Reduction:
    source: Representation
    target: Representation
    phi: FuncTable  # source exprs -> target exprs
    tau: FuncTable  # target exprs -> source exprs
    psi: Rel  # target traces ⇸ source traces
    # validate_reduction's verdicts, interned from its first call
    _memo: dict | None = field(default=None, init=False, repr=False)

    @property
    def validated(self) -> bool:
        """Whether the laws hold, checked now unless already checked."""
        return validate_reduction(self).passed

    def __post_init__(self):
        on_carriers(self.phi, self.source.exprs, self.target.exprs,
                    "forward translation must go source exprs -> target exprs")
        on_carriers(self.tau, self.target.exprs, self.source.exprs,
                    "backward translation must go target exprs -> source exprs")
        on_carriers(self.psi, self.target.traces, self.source.traces,
                    "trace relation must go target traces -> source traces")


def validate_reduction(r: Reduction) -> LawReport:
    """The four reduction laws, checked once per reduction."""
    return checked_once(r, f"reduction {r.source.name!r} -> {r.target.name!r}", _reduction_laws)


def _reduction_laws(r: Reduction) -> list[Verdict]:
    return [
        order_preservation(r.tau, r.target, r.source, "tau-monotone"),
        models_transport(r.phi, r.psi, r.source, r.target),
        is_included(compose(cograph(r.tau), cograph(r.phi)), r.source.leq, "roundtrip-up"),
        is_included(compose(graph(r.phi), graph(r.tau)), r.source.leq, "roundtrip-down"),
    ]


def identity_reduction(rep: Representation) -> Reduction:
    return Reduction(
        rep,
        rep,
        FuncTable.identity(rep.exprs),
        FuncTable.identity(rep.exprs),
        Rel.identity(rep.traces),
    )


def compose_reductions(r: Reduction, r2: Reduction) -> Reduction:
    """Diagrammatic order: r first, then r2."""
    if not same_representation(r.target, r2.source):
        raise CarrierMismatch("reductions do not chain")
    return Reduction(
        r.source,
        r2.target,
        compose_func(r2.phi, r.phi),
        compose_func(r.tau, r2.tau),
        compose(r2.psi, r.psi),
    )


def self_reduction(rep: Representation):
    """Identity-shaped reduction onto the trivial representation of its
    own satisfaction.  Validates exactly when `rep` is exact; the report
    pinpoints the failing law otherwise."""
    red = replace(identity_reduction(rep), target=trivial_representation(rep.models))
    return red, validate_reduction(red)


def _setwise_exactness(rep: Representation) -> Verdict:
    # second route: compare satisfying-trace sets directly, no residual;
    # the pairs the order misses, in row-major order
    sets = interpretations(rep)
    for i, j in zip(*np.nonzero(~rep.leq.m)):
        if sets[i] <= sets[j]:
            return Verdict("exactness-setwise-route", False,
                           witness=(rep.exprs.elements[i], rep.exprs.elements[j]))
    return Verdict("exactness-setwise-route", True)


def transfer_exactness(r: Reduction) -> LawReport:
    """Exactness of the target forces exactness of the source; checked by
    two independent routes that must also agree with each other.  Refuses,
    through `verdict.require`, a reduction, or either end, that fails
    validation, and an inexact target, naming the expression pair its
    order misses."""
    require(validate_reduction(r))
    require(LawReport(f"target representation {r.target.name!r}", [is_exact(r.target)]))
    residual = replace(is_exact(r.source), law="exactness-residual-route")
    setwise = _setwise_exactness(r.source)
    report = LawReport(f"exactness transfer onto {r.source.name!r}", [residual, setwise])
    if residual.ok != setwise.ok:
        raise TheoremInconsistencyError(
            "the two exactness routes disagree:\n" + report.describe()
        )
    if not residual.ok:
        raise TheoremInconsistencyError(
            "valid reduction onto an exact target, yet the source is not exact:\n"
            + report.describe()
        )
    return report


def validate_syntactic_closure(
    r1: Representation, r2: Representation, down: FuncTable
) -> LawReport:
    """A closure maps each expression to one that the finer satisfaction
    already covers, without leaving its order-equivalence class."""
    if r1.traces is not r2.traces or r1.exprs is not r2.exprs:
        raise CarrierMismatch("closure needs representations over shared carriers")
    if down.src is not r1.exprs or down.tgt is not r1.exprs:
        raise CarrierMismatch("closure map must be square on the expression carrier")
    return LawReport(f"closure {r1.name!r} / {r2.name!r}", [
        is_included(r1.models, compose(r2.models, cograph(down)), "closure-covers-satisfaction"),
        is_included(cograph(down), r1.leq, "closure-within-order"),
    ])


def closure_hypotheses(r1: Representation, r2: Representation) -> LawReport:
    """Side conditions under which the closure and reduction readings of a
    map necessarily agree."""
    if r1.traces is not r2.traces or r1.exprs is not r2.exprs:
        raise CarrierMismatch("hypotheses compare representations over shared carriers")
    exact = is_exact(r2) if validate_representation(r2).passed else Verdict("exactness", False)
    return LawReport("closure hypotheses", [
        is_included(r2.leq, r1.leq, "order-hypothesis"),
        is_included(r2.models, r1.models, "satisfaction-hypothesis"),
        replace(exact, law="target-exact-hypothesis"),
    ])


def closure_reduction_equivalence(
    r1: Representation, r2: Representation, down: FuncTable
) -> LawReport:
    """Under the hypotheses, the two readings of `down` stand or fall
    together; without them, only the two verdicts are reported."""
    hyp = closure_hypotheses(r1, r2)
    red = Reduction(
        r1,
        r2,
        down,
        FuncTable.identity(r1.exprs),
        Rel.identity(r1.traces),
    )
    as_reduction = validate_reduction(red).passed
    as_closure = validate_syntactic_closure(r1, r2, down).passed
    scope = (
        f"reduction route {'valid' if as_reduction else 'invalid'}, "
        f"closure route {'valid' if as_closure else 'invalid'}"
    )
    agree = [Verdict("routes-agree", as_reduction == as_closure, note=scope)] if hyp.passed else []
    return LawReport("closure/reduction equivalence", hyp.verdicts + agree, scope)

