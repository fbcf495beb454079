"""The refusals no other test raises, one case each, reached through the
public call that guards them, with the exception class and message pinned.

The two exactness alarms of `transfer_exactness` cannot fire on a correct
program, so each case replaces one route: the set-wise route, or the
target's exactness check."""

import numpy as np
import pytest

from finrep import reduction
from finrep.errors import CarrierMismatch, TheoremInconsistencyError
from finrep.fset import FiniteSet
from finrep.functors import ListFunctor, Signature, TermFunctor
from finrep.laws import random_func
from finrep.morphism import identity_morphism, product_universal
from finrep.reduction import (
    Reduction,
    closure_hypotheses,
    compose_reductions,
    identity_reduction,
    transfer_exactness,
    validate_syntactic_closure,
)
from finrep.rel import FuncTable, Rel, compose_func, is_included, is_preorder, star, under
from finrep.represent import Representation, is_exact, membership_representation
from finrep.verdict import Verdict

A = FiniteSet("A", ["a", "b"])
B = FiniteSet("B", ["c"])
EMPTY = FiniteSet("empty", [])


def _member(name: str) -> Representation:
    return membership_representation(FiniteSet(name, ["x"]))


def _bound_and_free():
    """Two representations over one pair of carriers, the second
    satisfying less."""
    r = _member("one")
    return r, Representation("less", r.traces, r.exprs, Rel.empty(r.traces, r.exprs), r.leq)


CASES = {
    "label-type": (lambda: FiniteSet("A", ["a", 1]), TypeError, "element label 1 is not a string"),
    "payload-length": (lambda: FiniteSet("A", ["a"], payload=[0, 1]), ValueError,
                       "payload length does not match element count"),
    "empty-operator": (lambda: Signature.of({"": 0}), ValueError, "operator symbol '' must be a nonempty string"),
    "unknown-operator": (lambda: Signature.of({"one": 0}).code("mul"), KeyError, "unknown operator 'mul'"),
    "list-bound": (lambda: ListFunctor(-1), ValueError, "length bound must be nonnegative"),
    "term-bound": (lambda: TermFunctor(Signature.of({"one": 0}), 0), ValueError, "depth bound must be at least 1"),
    "random-func-into-empty": (lambda: random_func(np.random.default_rng(0), A, EMPTY), ValueError,
                               "no function into an empty carrier"),
    "product-arrow-start": (lambda: product_universal(_member("r"), *[identity_morphism(_member("s"))] * 2),
                            CarrierMismatch, "both arrows must start at the given representation"),
    "reductions-chain": (lambda: compose_reductions(identity_reduction(_member("r")),
                                                    identity_reduction(_member("s"))),
                         CarrierMismatch, "reductions do not chain"),
    "closure-map-square": (lambda: validate_syntactic_closure(*_bound_and_free(), FuncTable(A, A, [0, 1])),
                           CarrierMismatch, "closure map must be square on the expression carrier"),
    "hypotheses-carriers": (lambda: closure_hypotheses(_member("r"), _member("s")), CarrierMismatch,
                            "hypotheses compare representations over shared carriers"),
    "rel-shape": (lambda: Rel(A, B, [[True, False]]), CarrierMismatch,
                  "matrix shape (1, 2) does not fit carriers 'A' (2) and 'B' (1)"),
    "table-shape": (lambda: FuncTable(A, B, [0]), CarrierMismatch, "table length (1,) does not fit carrier 'A'"),
    "table-range": (lambda: FuncTable(A, B, [0, 1]), CarrierMismatch, "table entry out of range for carrier 'B'"),
    "tables-chain": (lambda: compose_func(FuncTable(A, B, [0, 0]), FuncTable(A, B, [0, 0])), CarrierMismatch,
                     "function tables do not chain"),
    "under-source": (lambda: under(Rel.full(A, B), Rel.full(B, A)), CarrierMismatch,
                     "residual under(x, z) needs a shared source carrier"),
    "star-square": (lambda: star(Rel.full(A, B)), CarrierMismatch, "closure needs a square relation"),
    "preorder-square": (lambda: is_preorder(Rel.full(A, B)), CarrierMismatch,
                        "preorder check needs a square relation"),
    "inclusion-carriers": (lambda: is_included(Rel.full(A, A), Rel.full(A, B)), CarrierMismatch,
                           "carriers differ: A->A vs A->B"),
}


@pytest.mark.parametrize("name", CASES)
def test_each_guard_refuses_with_its_message(name):
    call, kind, message = CASES[name]
    with pytest.raises(kind) as refused:
        call()
    assert type(refused.value) is kind and refused.value.args == (message,)


def test_the_exactness_routes_disagreeing_is_an_alarm(monkeypatch):
    # the set-wise route claims a witness on an exact source
    monkeypatch.setattr(reduction, "_setwise_exactness",
                        lambda rep: Verdict("exactness-setwise-route", False, ("{}", "{x}")))
    r = identity_reduction(_member("one"))
    with pytest.raises(TheoremInconsistencyError) as alarm:
        transfer_exactness(r)
    assert str(alarm.value) == (
        "the two exactness routes disagree:\n"
        "exactness transfer onto 'membership(one)': FAIL\n"
        "  exactness-residual-route: ok\n"
        "  exactness-setwise-route: VIOLATION at ({}, {x})")


def test_an_inexact_source_under_an_exact_target_is_an_alarm(monkeypatch):
    # a valid reduction between two inexact copies, the target's
    # exactness check claiming it exact: both routes see the source's gap
    t, e = FiniteSet("T", ["t"]), FiniteSet("E", ["e", "f"])
    source = Representation("flat", t, e, Rel.full(t, e), Rel.identity(e))
    target = Representation("flat-copy", t, e, Rel.full(t, e), Rel.identity(e))
    monkeypatch.setattr(reduction, "is_exact",
                        lambda rep: Verdict("exactness", True) if rep is target else is_exact(rep))
    r = Reduction(source, target, FuncTable.identity(e), FuncTable.identity(e), Rel.identity(t))
    with pytest.raises(TheoremInconsistencyError) as alarm:
        transfer_exactness(r)
    assert str(alarm.value) == (
        "valid reduction onto an exact target, yet the source is not exact:\n"
        "exactness transfer onto 'flat': FAIL\n"
        "  exactness-residual-route: VIOLATION at (e, f)\n"
        "  exactness-setwise-route: VIOLATION at (e, f)")
