"""Representations: a trace carrier, an expression carrier, a satisfaction
relation between them, and a preorder on expressions.

A representation is *sound* when enlarging an expression along the preorder
never loses a satisfying trace, and *exact* when the preorder captures all
of semantic containment.  Soundness is part of validation, which runs once per representation object;
exactness is a separate verdict because many useful representations are
sound but inexact, and it refuses a representation that fails validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fset import SUBSET_CAP, FiniteSet, check_cells, intern, powerset_of
from .rel import Rel, compose, is_included, is_preorder, membership_rel, on_carriers, under
from .verdict import LawReport, Verdict, checked_once, require


@dataclass(frozen=True, eq=False)
class Representation:
    name: str
    traces: FiniteSet
    exprs: FiniteSet
    models: Rel  # traces ⇸ exprs
    leq: Rel  # square on exprs
    # validate_representation's verdicts, interned from its first call
    _memo: dict | None = field(default=None, init=False, repr=False)

    @property
    def validated(self) -> bool:
        """Whether the laws hold, checked now unless already checked."""
        return validate_representation(self).passed

    def __post_init__(self):
        on_carriers(self.models, self.traces, self.exprs,
                    "satisfaction of %r must go traces -> exprs", self.name)
        on_carriers(self.leq, self.exprs, self.exprs, "order of %r must be square on exprs", self.name)


def same_representation(r1: Representation, r2: Representation) -> bool:
    """Value-level sameness: identical carriers, equal relations.

    Distinct wrapper objects over the same data count as the same
    representation; construction helpers build fresh wrappers freely.
    """
    return (
        r1.traces is r2.traces
        and r1.exprs is r2.exprs
        and r1.models == r2.models
        and r1.leq == r2.leq
    )


def validate_representation(rep: Representation) -> LawReport:
    """Preorder and soundness axioms, checked once per representation."""
    return checked_once(rep, f"representation {rep.name!r}", _representation_laws)


def _representation_laws(rep: Representation) -> list[Verdict]:
    preorder = is_preorder(rep.leq).verdicts
    sound = is_included(compose(rep.models, rep.leq), rep.models, "soundness")
    if not sound.ok:
        t, e = sound.witness
        ti = rep.traces.index(t)
        ei = rep.exprs.index(e)
        row = rep.models.m[ti] & rep.leq.m[:, ei]
        mid = rep.exprs.elements[int(np.argmax(row))]
        sound = Verdict(
            "soundness",
            False,
            witness=(t, e),
            note=f"via link ({mid}, {e})",
        )
    return [*preorder, sound]


def semantic_containment(models: Rel, name: str) -> Rel:
    """Expressions ordered by inclusion of their satisfying-trace sets: the
    self-residual of the satisfaction `models` of representation `name`,
    computed once per `models` relation.  Every request is refused over
    the cell budget, the first before it is allocated."""
    check_cells(len(models.tgt), len(models.tgt), "semantic containment of %r", name)
    return intern(("semantic containment", models), lambda: under(models, models))


def is_exact(rep: Representation) -> Verdict:
    require(validate_representation(rep))
    return is_included(semantic_containment(rep.models, rep.name), rep.leq, "exactness")


def exactness_finding(rep: Representation) -> Verdict:
    """Exactness reported, never asserted: a passing verdict that names the
    first containment the order misses, if there is one."""
    sem = is_exact(rep)
    note = "exact at this instance" if sem.ok else "not exact at this instance"
    return Verdict("exactness-finding", True, sem.witness, note)


def interpretations(rep: Representation) -> list[frozenset[int]]:
    """For each expression, the indices of the traces that satisfy it."""
    return [frozenset(np.flatnonzero(col).tolist()) for col in rep.models.m.T]


def trivial_representation(x: Rel, name: str | None = None) -> Representation:
    """Expressions ordered by the self-residual of the given satisfaction."""
    if name is None:
        name = f"trivial({x.src.name}|{x.tgt.name})"
    return Representation(name, x.src, x.tgt, x, semantic_containment(x, name))


def membership_representation(a: FiniteSet, cap: int = SUBSET_CAP) -> Representation:
    """Subsets as expressions, ordered by subset inclusion.  The order is
    read from the subset masks, not from the membership matrix, so it
    stays an independent oracle for the residual route."""
    p = powerset_of(a, cap)
    check_cells(len(p), len(p), "subset order over %r", a.name)
    masks = np.array(p.payload, dtype=np.int64)
    return Representation(
        f"membership({a.name})",
        a,
        p,
        membership_rel(a, cap),
        Rel(p, p, (masks[:, None] & ~masks[None, :]) == 0),
    )

