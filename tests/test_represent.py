"""Representation structure: validation, exactness, interpretation."""

from pathlib import Path

import numpy as np
import pytest

from finrep import represent
from finrep.cli import main
from finrep.errors import BudgetError
from finrep.fset import FiniteSet, carrier_budget
from finrep.generate import (
    carrier,
    random_exact_representation,
    random_func,
    random_preorder,
    random_sound_representation,
)
from finrep.rel import Rel, compose, converse, graph, is_preorder
from finrep.represent import (
    Representation,
    interpretations,
    is_exact,
    membership_representation,
    semantic_containment,
    trivial_representation,
    validate_representation,
)


@pytest.fixture
def two():
    return FiniteSet("A2", ["a", "b"])


def test_validate_membership(two):
    r = membership_representation(two)
    report = validate_representation(r)
    assert report.passed
    assert [v.law for v in report.verdicts] == ["reflexivity", "transitivity", "soundness"]


def test_validate_soundness_witness_with_link():
    t = FiniteSet("T", ["t"])
    e = FiniteSet("E", ["e0", "e1"])
    models = Rel.from_pairs(t, e, [("t", "e0")])
    leq = Rel.from_pairs(e, e, [("e0", "e0"), ("e1", "e1"), ("e0", "e1")])
    r = Representation("broken", t, e, models, leq)
    report = validate_representation(r)
    assert not report.passed
    assert not r.validated
    sound = report.verdicts[-1]
    assert sound.law == "soundness"
    assert sound.witness == ("t", "e1")
    assert "(e0, e1)" in sound.note


def test_validate_empty_traces_vacuously_sound():
    t = FiniteSet("T0", [])
    e = FiniteSet("E1", ["e"])
    r = Representation("empty", t, e, Rel.empty(t, e), Rel.identity(e))
    assert validate_representation(r).passed


def test_exactness_refuses_an_unsound_representation():
    t = FiniteSet("T", ["t"])
    e = FiniteSet("E", ["e0", "e1"])
    leq = Rel.from_pairs(e, e, [("e0", "e0"), ("e1", "e1"), ("e0", "e1")])
    r = Representation("unsound", t, e, Rel.from_pairs(t, e, [("t", "e0")]), leq)
    with pytest.raises(ValueError, match=r"representation 'unsound' fails soundness: VIOLATION at \(t, e1\)"):
        is_exact(r)


def test_trivial_representation_frozen_order():
    a = FiniteSet("A", ["a", "b"])
    b = FiniteSet("B", ["0", "1"])
    r = trivial_representation(Rel.from_pairs(a, b, [("a", "0")]))
    assert sorted(r.leq.pairs()) == [("0", "0"), ("1", "0"), ("1", "1")]
    assert is_exact(r).ok


def test_trivial_of_empty_relation_orders_everything():
    a = FiniteSet("Ax", ["a", "b"])
    b = FiniteSet("Bx", ["0", "1"])
    r = trivial_representation(Rel.empty(a, b))
    assert r.leq == Rel.full(b, b)


def test_trivial_always_exact_sampled():
    rng = np.random.default_rng(5)
    t = carrier("rt", 4)
    e = carrier("re", 5)
    for _ in range(500):
        r = random_exact_representation(rng, t, e)
        assert validate_representation(r).passed
        assert is_exact(r).ok


def test_inexact_witness_is_first_collapsed_pair():
    t = FiniteSet("Ti", ["t"])
    e = FiniteSet("Ei", ["e0", "e1"])
    r = Representation(
        "inexact", t, e, Rel.full(t, e), Rel.identity(e)
    )
    assert validate_representation(r).passed
    verdict = is_exact(r)
    assert not verdict.ok
    assert verdict.witness == ("e0", "e1")


def test_membership_exact_small_sizes():
    for n in range(4):
        a = carrier(f"m{n}", n)
        r = membership_representation(a)
        assert validate_representation(r).passed
        assert is_exact(r).ok


def test_membership_sizes_and_identity_on_empty(two):
    r = membership_representation(two)
    assert len(r.exprs) == 4
    assert r.leq.count() == 9
    empty = FiniteSet("none", [])
    r0 = membership_representation(empty)
    assert r0.exprs.elements == ("{}",)
    assert r0.leq == Rel.identity(r0.exprs)


def test_semantic_containment_of_membership_is_subset_order():
    # dual route: the module builds ⊆ from masks, this rederives it as a residual
    for n in range(5):
        a = carrier(f"s{n}", n)
        r = membership_representation(a, cap=4)
        assert semantic_containment(r.models, r.name) == r.leq


def test_interpretations_of_membership(two):
    r = membership_representation(two)
    sets = dict(zip(r.exprs.elements, interpretations(r)))
    assert sets == {"{}": frozenset(), "{a}": {0}, "{b}": {1}, "{a,b}": {0, 1}}


def test_trace_preorder_properties():
    # traces ordered by the expressions they satisfy: the semantic
    # containment of the converse satisfaction, the converse of the
    # paper's trace preorder, is a preorder, and full when nothing is
    # satisfied
    rng = np.random.default_rng(2)
    t = carrier("tp", 4)
    e = carrier("te", 3)
    for _ in range(50):
        r = random_sound_representation(rng, t, e)
        assert is_preorder(semantic_containment(converse(r.models), r.name)).passed
    assert semantic_containment(converse(Rel.empty(t, e)), "void") == Rel.full(t, t)


def test_soundness_restated_and_exactness_as_coincidence():
    rng = np.random.default_rng(4)
    t = carrier("ct", 3)
    e = carrier("ce", 4)
    for _ in range(100):
        r = random_sound_representation(rng, t, e)
        sem = semantic_containment(r.models, r.name)
        assert is_preorder(sem).passed
        # soundness, read through the adjunction
        assert (r.leq.m & ~sem.m).sum() == 0
        if is_exact(r).ok:
            assert r.leq == sem


def test_interpretations_monotone_and_converse_for_exact():
    rng = np.random.default_rng(6)
    t = carrier("mt", 3)
    e = carrier("me", 4)
    for _ in range(60):
        r = random_sound_representation(rng, t, e)
        sets = interpretations(r)
        for i, j in np.argwhere(r.leq.m):
            assert sets[i] <= sets[j]
        x = random_exact_representation(rng, t, e)
        validate_representation(x)
        sets = interpretations(x)
        for i, si in enumerate(sets):
            for j, sj in enumerate(sets):
                if si <= sj:
                    assert x.leq.m[i, j]


def test_spec_theories_always_validate_random():
    # a characteristic-expression theory, one expression per trace and a
    # preorder, read as a representation: each trace satisfies everything
    # above its characteristic expression, and that is always sound
    rng = np.random.default_rng(13)
    for i in range(100):
        t = carrier(f"st{i}", int(rng.integers(0, 4)))
        e = carrier(f"se{i}", int(rng.integers(1, 5)))
        chi, leq = random_func(rng, t, e), random_preorder(rng, e)
        assert validate_representation(Representation("spec", t, e, compose(graph(chi), leq), leq)).passed


def test_semantic_containment_refused_over_the_cell_budget():
    rep = membership_representation(FiniteSet("four", ["a", "b", "c", "d"]))
    with carrier_budget(2), pytest.raises(BudgetError, match="16 x 16 = 256 cells, budget 200"):
        semantic_containment(rep.models, rep.name)
    assert semantic_containment(rep.models, rep.name).count() == 81


def test_semantic_containment_is_computed_once_per_satisfaction(monkeypatch, capsys):
    # build trivial orders by the containment and then checks exactness
    # against it: one residual, as for check exact
    doc = str(Path(__file__).resolve().parent.parent / "corpus" / "membership2.doc")
    calls = []
    monkeypatch.setattr(represent, "under", lambda x, z, under=represent.under: calls.append(x) or under(x, z))
    for what in (["build", "trivial", doc, "--rel", "member"], ["check", "exact", doc]):
        calls.clear()
        assert main(what) == 0
        assert len(calls) == 1, what
    capsys.readouterr()
    rep = membership_representation(FiniteSet("four", ["a", "b", "c", "d"]))
    first = semantic_containment(rep.models, rep.name)
    assert semantic_containment(rep.models, "again") is first
    with carrier_budget(2), pytest.raises(BudgetError, match="256 cells, budget 200"):
        semantic_containment(rep.models, rep.name)
