"""The laws of a representation, morphism or reduction are checked once
per object, and every operation that assumes them checks them on demand.

`dataclasses.replace` gives a new object whose laws are not yet checked,
so a law-breaking field is reported and refused however the object was
made.  Each refusal is a `ValueError` that names the first failing law.
"""

from dataclasses import replace

import pytest

from finrep.fset import FiniteSet
from finrep.hor import hat_lift, mon_hor
from finrep.morphism import identity_morphism, product, product_universal, validate_morphism
from finrep.reduction import identity_reduction, transfer_exactness, validate_reduction
from finrep.rel import FuncTable, Rel
from finrep.represent import Representation, is_exact, validate_representation

T = FiniteSet("T", ["t"])
E = FiniteSet("E", ["e0", "e1"])
CHAIN = Rel.from_pairs(E, E, [("e0", "e0"), ("e1", "e1"), ("e0", "e1")])
SWAP = FuncTable(E, E, [1, 0])


def _sound():
    # t satisfies both expressions, e0 below e1: sound and exact
    return Representation("chain", T, E, Rel.full(T, E), Rel.full(E, E))


def test_a_report_is_kept_and_copied():
    rep = _sound()
    first = validate_representation(rep)
    first.add(first.verdicts[0])
    assert [v.law for v in validate_representation(rep).verdicts] == ["reflexivity", "transitivity", "soundness"]


def test_a_replaced_representation_is_checked_afresh():
    sound = _sound()
    assert validate_representation(sound).passed and is_exact(sound).ok
    # t now satisfies e0 but not e1, which e0 is below
    broken = replace(sound, models=Rel.from_pairs(T, E, [("t", "e0")]), leq=CHAIN)
    assert not broken.validated
    assert validate_representation(broken).first_failure.law == "soundness"
    for refuse in (is_exact, lambda r: hat_lift(mon_hor(2), r),
                   lambda r: product(r, sound), lambda r: product(sound, r)):
        with pytest.raises(ValueError, match=r"representation 'chain' fails soundness: VIOLATION at \(t, e1\)"):
            refuse(broken)


def test_a_replaced_morphism_is_checked_afresh():
    rep = replace(_sound(), leq=CHAIN)
    m = identity_morphism(rep)
    assert m.validated
    broken = replace(m, phi=SWAP)  # e0 below e1, but e1 not below e0
    assert not broken.validated
    assert validate_morphism(broken).first_failure.law == "order-preservation"
    for f1, f2 in ((broken, m), (m, broken)):
        with pytest.raises(ValueError, match="morphism 'chain' -> 'chain' fails order-preservation"):
            product_universal(rep, f1, f2)


def test_a_replaced_reduction_is_checked_afresh():
    rep = _sound()
    red = identity_reduction(rep)
    assert red.validated and transfer_exactness(red).passed
    # e1 below e0 at the target, not at the source
    broken = replace(red, source=replace(rep, leq=CHAIN))
    assert not broken.validated
    assert validate_reduction(broken).first_failure.law == "tau-monotone"
    with pytest.raises(ValueError, match="reduction 'chain' -> 'chain' fails tau-monotone"):
        transfer_exactness(broken)
