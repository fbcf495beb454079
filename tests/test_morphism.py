"""Morphisms, products, and the universal property."""

import numpy as np
import pytest

from finrep.errors import CarrierMismatch
from finrep.fset import FiniteSet
from finrep.generate import carrier, random_exact_representation, random_sound_representation
from finrep.morphism import (
    Morphism,
    compose_morphisms,
    identity_morphism,
    morphisms_equal,
    pairing,
    product,
    product_universal,
    validate_morphism,
)
from finrep.rel import Rel
from finrep.represent import (
    Representation,
    is_exact,
    membership_representation,
    trivial_representation,
    validate_representation,
)


def test_identity_morphism_valid():
    rng = np.random.default_rng(1)
    t = carrier("t", 3)
    e = carrier("e", 4)
    for _ in range(20):
        r = random_sound_representation(rng, t, e)
        assert validate_morphism(identity_morphism(r)).passed


def test_projections_valid_and_product_validates():
    a = FiniteSet("Pa", ["a"])
    r1 = membership_representation(a)
    rp, p1, p2 = product(r1, r1)
    assert len(rp.traces) == 2
    assert len(rp.exprs) == 4
    assert validate_representation(rp).passed
    assert validate_morphism(p1).passed
    assert validate_morphism(p2).passed


def test_product_with_degenerate_factor():
    t = FiniteSet("Dt", [])
    e = FiniteSet("De", [])
    void = trivial_representation(Rel.empty(t, e), "void")
    a = FiniteSet("Da", ["a"])
    r = membership_representation(a)
    rp, p1, p2 = product(r, void)
    assert len(rp.exprs) == 0
    assert len(rp.traces) == len(r.traces)
    assert validate_representation(rp).passed


def test_product_refuses_an_unsound_factor():
    a = FiniteSet("Va", ["a"])
    r = membership_representation(a)
    # the empty subset satisfied by a, its superset {a} not
    r2 = Representation("unsound", r.traces, r.exprs, Rel(r.traces, r.exprs, [[True, False]]), r.leq)
    for factors in ((r, r2), (r2, r)):
        with pytest.raises(ValueError, match="representation 'unsound' fails soundness"):
            product(*factors)


def test_product_formula_oracle():
    # rebuild both product relations pointwise and compare with the matrix route
    rng = np.random.default_rng(8)
    t1, e1 = carrier("o1t", 2), carrier("o1e", 3)
    t2, e2 = carrier("o2t", 3), carrier("o2e", 2)
    for _ in range(25):
        r1 = random_sound_representation(rng, t1, e1)
        r2 = random_sound_representation(rng, t2, e2)
        rp, _, _ = product(r1, r2)
        for ti, tl in enumerate(rp.traces.elements):
            tag, base = rp.traces.payload[ti]
            for pi, pl in enumerate(rp.exprs.elements):
                i, j = rp.exprs.payload[pi]
                if tag == 0:
                    want = bool(r1.models.m[base, i])
                else:
                    want = bool(r2.models.m[base, j])
                assert rp.models.holds(tl, pl) == want
        for pi, pl in enumerate(rp.exprs.elements):
            i, j = rp.exprs.payload[pi]
            for qi, ql in enumerate(rp.exprs.elements):
                k, l = rp.exprs.payload[qi]
                want = bool(r1.leq.m[i, k]) and bool(r2.leq.m[j, l])
                assert rp.leq.holds(pl, ql) == want


def test_product_preserves_exactness_sampled():
    rng = np.random.default_rng(12)
    t1, e1 = carrier("x1t", 2), carrier("x1e", 3)
    t2, e2 = carrier("x2t", 3), carrier("x2e", 2)
    for _ in range(200):
        r1 = random_exact_representation(rng, t1, e1)
        r2 = random_exact_representation(rng, t2, e2)
        rp, _, _ = product(r1, r2)
        assert is_exact(rp).ok


def test_corrupting_psi_breaks_transport():
    a = FiniteSet("Ca", ["a"])
    r = membership_representation(a)
    rp, p1, _ = product(r, r)
    m = p1.psi.m.copy()
    m[0, 0] = not m[0, 0]
    bad = Morphism(rp, r, p1.phi, Rel(p1.psi.src, p1.psi.tgt, m))
    report = validate_morphism(bad)
    assert not report.passed
    failing = report.first_failure
    assert failing.law == "models-transport"
    assert failing.witness is not None


def test_compose_with_identity_and_associativity():
    a = FiniteSet("Aa", ["a", "b"])
    r1 = membership_representation(a)
    rp, p1, p2 = product(r1, r1)
    rq, q1, q2 = product(rp, r1)

    assert morphisms_equal(compose_morphisms(identity_morphism(rp), p1), p1)
    assert morphisms_equal(compose_morphisms(p1, identity_morphism(r1)), p1)

    chained = compose_morphisms(q1, p1)
    assert validate_morphism(chained).passed

    lhs = compose_morphisms(compose_morphisms(q1, p1), identity_morphism(r1))
    rhs = compose_morphisms(q1, compose_morphisms(p1, identity_morphism(r1)))
    assert morphisms_equal(lhs, rhs)


def test_compose_rejects_mismatched_chain():
    a = FiniteSet("Ba", ["a"])
    r = membership_representation(a)
    rp, p1, _ = product(r, r)
    with pytest.raises(CarrierMismatch):
        compose_morphisms(p1, p1)


def test_pairing_with_identity_factors():
    a = FiniteSet("Ga", ["a"])
    r = membership_representation(a)
    rp, p1, p2 = product(r, r)
    g, report = product_universal(r, identity_morphism(r), identity_morphism(r))
    assert report.passed
    assert morphisms_equal(compose_morphisms(g, p1), identity_morphism(r))
    assert morphisms_equal(compose_morphisms(g, p2), identity_morphism(r))


def test_universal_uniqueness_exhaustive_tiny():
    u = FiniteSet("Uu", ["u"])
    r = membership_representation(u)
    g, report = product_universal(r, identity_morphism(r), identity_morphism(r))
    assert report.passed
    uniq = report.verdicts[-1]
    assert uniq.law == "uniqueness"
    assert "searched 64 candidates, 1 satisfied" in uniq.note


def test_universal_refutation_mode_over_budget():
    a = FiniteSet("Ra", ["a", "b"])
    r = membership_representation(a)
    g, report = product_universal(
        r, identity_morphism(r), identity_morphism(r), budget=10, candidates=()
    )
    assert report.passed
    assert "refutation-only" in report.verdicts[-1].note
    g2, report2 = product_universal(
        r, identity_morphism(r), identity_morphism(r), budget=10, candidates=(g,)
    )
    assert report2.passed


def test_mediating_morphism_formula():
    # the backward relation of the pairing is the union of the two tagged halves
    rng = np.random.default_rng(3)
    t, e = carrier("Mt", 2), carrier("Me", 2)
    r = random_exact_representation(rng, t, e)
    validate_representation(r)
    rp, p1, p2 = product(r, r)
    g = pairing(identity_morphism(r), identity_morphism(r), rp)
    assert validate_morphism(g).passed
    for tl in rp.traces:
        tag, base = rp.traces.payload[rp.traces.index(tl)]
        for sl in r.traces:
            assert g.psi.holds(tl, sl) == (r.traces.index(sl) == base)
