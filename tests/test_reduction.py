"""Reductions, exactness transfer, and syntactic closures."""

import numpy as np
import pytest

from finrep.errors import CarrierMismatch
from finrep.fset import FiniteSet
from finrep.generate import (
    carrier,
    random_closure_instance,
    random_func,
    random_rel,
    random_reduction_instance,
    random_sound_representation,
    surjection_with_section,
)
from finrep.morphism import Morphism, validate_morphism
from finrep.reduction import (
    Reduction,
    _setwise_exactness,
    closure_hypotheses,
    closure_reduction_equivalence,
    compose_reductions,
    identity_reduction,
    self_reduction,
    transfer_exactness,
    validate_reduction,
    validate_syntactic_closure,
)
from finrep.rel import FuncTable, Rel, cograph, compose
from finrep.represent import (
    Representation,
    is_exact,
    membership_representation,
    trivial_representation,
    validate_representation,
)
from finrep.verdict import Verdict


def _closure_pair():
    # T={t}, expressions {e0,e1}; the fine side satisfies only e1, the
    # coarse side both, every pair ordered, and the closure maps all to e1
    t = FiniteSet("Tc", ["t"])
    e = FiniteSet("Ec", ["e0", "e1"])
    fine = trivial_representation(Rel.from_pairs(t, e, [("t", "e1")]), "fine")
    coarse = Representation(
        "coarse",
        t,
        e,
        Rel.from_pairs(t, e, [("t", "e0"), ("t", "e1")]),
        Rel.full(e, e),
    )
    down = FuncTable.from_map(e, e, {"e0": "e1", "e1": "e1"})
    return coarse, fine, down


def test_self_reduction_of_exact_is_valid():
    a = FiniteSet("Sa", ["a", "b"])
    r = membership_representation(a)
    red, report = self_reduction(r)
    assert report.passed
    assert red.validated


def test_self_reduction_of_empty_is_valid():
    t = FiniteSet("S0", [])
    e = FiniteSet("S1", [])
    r = trivial_representation(Rel.empty(t, e))
    _, report = self_reduction(r)
    assert report.passed


def test_self_reduction_pinpoints_failure_on_inexact():
    t = FiniteSet("St", ["t"])
    e = FiniteSet("Se", ["e0", "e1"])
    r = Representation("inexact", t, e, Rel.full(t, e), Rel.identity(e))
    _, report = self_reduction(r)
    assert not report.passed
    assert report.first_failure.law == "tau-monotone"


def test_two_element_closure_instance_as_reduction():
    coarse, fine, down = _closure_pair()
    red = Reduction(
        coarse,
        fine,
        down,
        FuncTable.identity(coarse.exprs),
        Rel.identity(coarse.traces),
    )
    assert validate_reduction(red).passed


def test_breaking_tau_monotonicity_reports_witness():
    coarse, fine, down = _closure_pair()
    squeezed = Representation(
        "squeezed",
        coarse.traces,
        coarse.exprs,
        coarse.models,
        Rel.identity(coarse.exprs),
    )
    bad = Reduction(
        squeezed, fine, down, FuncTable.identity(coarse.exprs), Rel.identity(coarse.traces)
    )
    report = validate_reduction(bad)
    assert not report.passed
    assert report.first_failure.law == "tau-monotone"
    assert report.first_failure.witness == ("e0", "e1")


def test_identity_reduction_neutral_and_composites_validate():
    rng = np.random.default_rng(21)
    t = carrier("ci", 3)
    e1, e2, e3 = carrier("ce1", 5), carrier("ce2", 3), carrier("ce3", 2)
    for _ in range(20):
        phi2, tau2 = surjection_with_section(rng, e2, e3)
        r3 = trivial_representation(random_rel(rng, t, e3), "chain-end")
        r2 = trivial_representation(compose(r3.models, cograph(phi2)), "chain-mid")
        phi1, tau1 = surjection_with_section(rng, e1, e2)
        r1 = trivial_representation(compose(r2.models, cograph(phi1)), "chain-start")
        red_a = Reduction(r1, r2, phi1, tau1, Rel.identity(t))
        red_b = Reduction(r2, r3, phi2, tau2, Rel.identity(t))
        assert validate_reduction(red_a).passed
        assert validate_reduction(red_b).passed

        left = compose_reductions(identity_reduction(r1), red_a)
        assert np.array_equal(left.phi.table, red_a.phi.table)
        assert np.array_equal(left.tau.table, red_a.tau.table)
        assert left.psi == red_a.psi
        assert validate_reduction(left).passed

        comp = compose_reductions(red_a, red_b)
        assert validate_reduction(comp).passed
        assert comp.psi == compose(red_b.psi, red_a.psi)
        assert np.array_equal(comp.phi.table, red_b.phi.table[red_a.phi.table])


def test_transfer_exactness_on_generated_instances():
    rng = np.random.default_rng(33)
    for i in range(200):
        t = carrier(f"gt{i}", int(rng.integers(1, 4)))
        n2 = int(rng.integers(1, 4))
        n1 = n2 + int(rng.integers(0, 3))
        e1 = carrier(f"ge{i}", n1)
        e2 = carrier(f"gf{i}", n2)
        red = random_reduction_instance(rng, t, e1, e2)
        assert validate_reduction(red).passed
        report = transfer_exactness(red)
        assert report.passed


def _interpret(rep, e):
    """Satisfying traces of one expression, in trace-carrier order."""
    col = rep.models.m[:, rep.exprs.index(e)]
    return tuple(t for i, t in enumerate(rep.traces.elements) if col[i])


def _setwise_reference(rep):
    # the label-set loop the set-wise route replaced: two label sets per pair
    for i, e in enumerate(rep.exprs.elements):
        ie = set(_interpret(rep, e))
        for j, f in enumerate(rep.exprs.elements):
            if ie <= set(_interpret(rep, f)) and not rep.leq.m[i, j]:
                return Verdict("exactness-setwise-route", False, witness=(e, f))
    return Verdict("exactness-setwise-route", True)


def test_setwise_route_matches_the_label_set_loop_and_the_residual_route():
    # random sound representations, most of them inexact: the set-wise
    # route names the same first missed containment as the loop it
    # replaced and as the residual route
    rng = np.random.default_rng(19)
    inexact = 0
    for i in range(300):
        t = carrier(f"wt{i}", int(rng.integers(0, 5)))
        e = carrier(f"we{i}", int(rng.integers(0, 6)))
        r = random_sound_representation(rng, t, e)
        got = _setwise_exactness(r)
        assert got == _setwise_reference(r)
        residual = is_exact(r)
        assert (got.ok, got.witness) == (residual.ok, residual.witness)
        inexact += not got.ok
    assert inexact > 150


def test_transfer_exactness_on_closure_instance():
    coarse, fine, down = _closure_pair()
    red = Reduction(
        coarse, fine, down, FuncTable.identity(coarse.exprs), Rel.identity(coarse.traces)
    )
    validate_reduction(red)
    report = transfer_exactness(red)
    assert report.passed
    assert [v.law for v in report.verdicts] == [
        "exactness-residual-route",
        "exactness-setwise-route",
    ]


def test_transfer_preconditions_are_named():
    coarse, fine, down = _closure_pair()
    squeezed = Representation(
        "squeezed", coarse.traces, coarse.exprs, coarse.models, Rel.identity(coarse.exprs)
    )
    red = Reduction(
        squeezed, fine, down, FuncTable.identity(coarse.exprs), Rel.identity(coarse.traces)
    )
    with pytest.raises(ValueError, match="reduction 'squeezed' -> 'fine' fails tau-monotone"):
        transfer_exactness(red)

    t = FiniteSet("Pt", ["t"])
    e = FiniteSet("Pe", ["e0", "e1"])
    inexact = Representation(
        "inexact-target", t, e, Rel.full(t, e), Rel.identity(e)
    )
    red2 = Reduction(
        inexact, inexact, FuncTable.identity(e), FuncTable.identity(e), Rel.identity(t)
    )
    assert red2.validated
    with pytest.raises(ValueError, match=r"^target representation 'inexact-target' fails exactness: "
                                         r"VIOLATION at \(e0, e1\)$"):
        transfer_exactness(red2)


def test_syntactic_closure_two_element_instance():
    coarse, fine, down = _closure_pair()
    report = validate_syntactic_closure(coarse, fine, down)
    assert report.passed
    assert [v.law for v in report.verdicts] == [
        "closure-covers-satisfaction",
        "closure-within-order",
    ]


def test_identity_closure_when_satisfactions_match():
    a = FiniteSet("Ia", ["a", "b"])
    r = membership_representation(a)
    report = validate_syntactic_closure(r, r, FuncTable.identity(r.exprs))
    assert report.passed


def test_closure_violation_witness():
    coarse, fine, down = _closure_pair()
    e = coarse.exprs
    thin = Representation(
        "thin",
        coarse.traces,
        e,
        coarse.models,
        Rel.from_pairs(e, e, [("e0", "e0"), ("e1", "e1"), ("e0", "e1")]),
    )
    report = validate_syntactic_closure(thin, fine, down)
    assert not report.passed
    failing = report.first_failure
    assert failing.law == "closure-within-order"
    assert failing.witness == ("e1", "e0")


def test_closure_requires_shared_carriers():
    coarse, fine, down = _closure_pair()
    other = membership_representation(FiniteSet("Oa", ["a"]))
    with pytest.raises(CarrierMismatch):
        validate_syntactic_closure(coarse, other, down)


def test_equivalence_on_two_element_instance():
    coarse, fine, down = _closure_pair()
    report = closure_reduction_equivalence(coarse, fine, down)
    assert report.passed
    agree = report.verdicts[-1]
    assert agree.law == "routes-agree"
    assert "valid" in agree.note


def test_equivalence_over_generated_instances_and_random_maps():
    rng = np.random.default_rng(14)
    agreements = 0
    for i in range(60):
        t = carrier(f"qt{i}", int(rng.integers(1, 4)))
        e = carrier(f"qe{i}", int(rng.integers(1, 5)))
        coarse, fine = random_closure_instance(rng, t, e)
        hyp = closure_hypotheses(coarse, fine)
        assert hyp.passed, hyp.describe()
        for _ in range(8):
            down = random_func(rng, e, e)
            report = closure_reduction_equivalence(coarse, fine, down)
            assert report.passed, report.describe()
            agreements += 1
    assert agreements == 480


def test_equivalence_refused_without_hypotheses():
    coarse, fine, down = _closure_pair()
    # swap roles: the fine side does not contain the coarse satisfaction
    report = closure_reduction_equivalence(fine, coarse, down)
    assert not report.passed
    assert all(v.law != "routes-agree" for v in report.verdicts)
    assert "route" in report.scope


def _forward(red: Reduction) -> Morphism:
    return Morphism(red.source, red.target, red.phi, red.psi)


def test_a_reduction_between_exact_representations_is_a_forward_morphism():
    rng = np.random.default_rng(44)
    for i in range(40):
        t = carrier(f"xt{i}", int(rng.integers(1, 4)))
        n2 = int(rng.integers(1, 4))
        e1 = carrier(f"xe{i}", n2 + int(rng.integers(0, 3)))
        e2 = carrier(f"xf{i}", n2)
        red = random_reduction_instance(rng, t, e1, e2)
        assert validate_reduction(red).passed
        assert is_exact(red.source).ok and is_exact(red.target).ok
        assert validate_morphism(_forward(red)).passed
    ident = identity_reduction(membership_representation(FiniteSet("Ma", ["a", "b"])))
    assert validate_morphism(_forward(ident)).passed


def test_the_forward_pair_of_a_reduction_onto_an_inexact_target_can_fail():
    # frozen instance: the source order relates q below p, but the target
    # order is discrete, so forward order-preservation must fail
    t = FiniteSet("Nt", ["t"])
    e1 = FiniteSet("Ne1", ["p", "q"])
    e2 = FiniteSet("Ne2", ["P", "Q"])
    models2 = Rel.from_pairs(t, e2, [("t", "P")])
    target = Representation("discrete", t, e2, models2, Rel.identity(e2))
    source = trivial_representation(Rel.from_pairs(t, e1, [("t", "p")]), "pointed")
    phi = FuncTable.from_map(e1, e2, {"p": "P", "q": "Q"})
    tau = FuncTable.from_map(e2, e1, {"P": "p", "Q": "q"})
    red = Reduction(source, target, phi, tau, Rel.identity(t))
    assert validate_reduction(red).passed
    order, models = validate_morphism(_forward(red)).verdicts
    assert not order.ok and order.witness == ("Q", "p")
    assert models.ok
    assert validate_representation(source).passed and is_exact(source).ok
    validate_representation(target)
    assert not is_exact(target).ok
