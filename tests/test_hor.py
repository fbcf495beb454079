import itertools
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from finrep.cli import main as cli_main
from finrep.errors import BudgetError, CarrierMismatch
from finrep.fset import FiniteSet, carrier_budget
from finrep.generate import carrier, random_exact_representation
from finrep.hor import (
    HOR,
    MON_SIG,
    PreorderedSet,
    check_tilde_soundness,
    hat_lift,
    hor_arrow,
    instantiate,
    mon_hor,
    tilde_lift,
    tilde_mon_rule_check,
)
from finrep.kleene import ka_hor
from finrep.morphism import compose_morphisms, morphisms_equal
from finrep.naturality import (
    ProbeUniverse,
    is_natural_relation,
    is_natural_transformation,
    linearity_check,
    probe_carrier,
    varlist_family,
)
from finrep.rel import FuncTable, Rel, compose, compose_func, star, union
from finrep.represent import (
    Representation,
    exactness_finding,
    membership_representation,
    trivial_representation,
    validate_representation,
)
from finrep.verdict import Verdict

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
P2 = ProbeUniverse(max_size=2)


def _pq_chain():
    pq = FiniteSet("pq", ["p", "q"])
    return PreorderedSet(pq, Rel(pq, pq, [[True, True], [False, True]]))


def _hat_report(h, r):
    """The lift of `r` and its report, exactness as a finding, as
    `hor lift-rep` reports it."""
    rep = hat_lift(h, r)
    report = validate_representation(rep)
    report.verdicts.append(exactness_finding(rep))
    return rep, report


@pytest.mark.parametrize("run, names", [
    (lambda: _hat_report(mon_hor(3), membership_representation(FiniteSet("one", ["o"]))),
     ["membership(one)", "mon(depth 3)-over-membership(one)"]),
    (lambda: check_tilde_soundness(mon_hor(2), _pq_chain()), ["pq", "mon(depth 2)-over-pq"]),
    (lambda: cli_main(["hor", "instantiate", str(CORPUS / "ka.doc"), "--set", "A"]),
     ["ka(semantic, size 3, words 2)(A)"]),
], ids=["hat-report", "tilde-soundness", "cli-instantiate"])
def test_each_lift_is_validated_once(law_computations, run, names):
    # the parameter of a lift is validated on demand, the lift itself once
    run()
    assert [rep.name for rep in law_computations] == names


def test_instantiate_frozen_sizes():
    h = mon_hor(3)
    r = instantiate(h, probe_carrier(2))
    assert r.validated
    assert (len(r.traces), len(r.exprs)) == (31, 147)
    r0 = instantiate(h, probe_carrier(0))
    assert r0.validated
    assert (len(r0.traces), len(r0.exprs)) == (1, 5)
    assert r0.traces.elements == ("[]",)


def _counted(base):
    """`base` with families whose components count their builds, by family
    and carrier name."""
    calls = Counter()

    def counting(kind, family):
        def at(a):
            calls[kind, a.name] += 1
            return family.at(a)
        return replace(family, at=at)

    return HOR(base.name, counting("models", base.models), counting("leq", base.leq)), calls


def _once_each(*names):
    return {(kind, name): 1 for kind in ("models", "leq") for name in names}


PROBE_NAMES = ("probe0", "probe1", "probe2")


@pytest.mark.parametrize("make", [lambda: mon_hor(2), lambda: ka_hor(3, 2)], ids=["mon", "ka"])
def test_a_hor_arrow_walk_builds_each_instance_once(law_computations, make):
    h, calls = _counted(make())
    assert all(hor_arrow(h, f).validated for _, _, f in ProbeUniverse(2).functions())
    reps = [x.name for x in law_computations if isinstance(x, Representation)]
    assert reps == [f"{h.name}({name})" for name in PROBE_NAMES]
    assert calls == _once_each(*PROBE_NAMES)


@pytest.mark.parametrize("make", [
    lambda: mon_hor(3), lambda: ka_hor(3, 2), lambda: ka_hor(3, 2, "axiomatic"),
], ids=["mon", "ka-semantic", "ka-axiomatic"])
def test_a_builtin_structure_meets_the_structure_laws(law_computations, make):
    # each probe instance validates, satisfaction is right-linear in both
    # readings (a renamed expression is satisfied by the renamed traces,
    # and the lifted relations commute), and the order family is natural;
    # each component is built once per carrier, each instance validates once
    h, calls = _counted(make())
    probes = ProbeUniverse(2)
    assert all(validate_representation(instantiate(h, a)).passed for a in probes.carriers())
    linear = linearity_check(h.models, probes, side="right", mode="both")
    assert [(v.law, v.ok) for v in linear.verdicts] == [
        ("right-linear-functions", True), ("right-linear-relations", True)]
    assert is_natural_relation(h.leq, probes).ok
    assert [rep.name for rep in law_computations] == [f"{h.name}({name})" for name in PROBE_NAMES]
    assert calls == _once_each(*PROBE_NAMES)


def test_tilde_soundness_calls_each_generator_once():
    h, calls = _counted(mon_hor(2))
    assert check_tilde_soundness(h, _pq_chain()).passed
    assert calls == _once_each("pq")


def test_a_lowered_budget_refuses_a_memoized_instance():
    # the budget is checked on every request, outside the memo
    h, a = mon_hor(3), probe_carrier(2)
    rep = instantiate(h, a)
    with carrier_budget(150):  # 147 expressions pass, their order's cells do not
        with pytest.raises(BudgetError, match=r"order of mon\(depth 3\) at probe2 has 147 x 147 = 21609 cells"):
            instantiate(h, a)
        assert h.models.rel_at(a) is rep.models
    with carrier_budget(1):
        with pytest.raises(BudgetError, match="list carrier over 'probe2' up to length 1 has 3 elements, budget 1"):
            instantiate(h, a)
    assert instantiate(h, a) is rep


def test_hor_arrow_validates_for_every_probe_function():
    h = mon_hor(2)
    n = 0
    for a, b, f in P2.functions():
        m = hor_arrow(h, f)
        assert m.validated, (a.name, b.name, tuple(f.table))
        n += 1
    assert n == 11


def test_hor_arrow_functoriality():
    h = mon_hor(2)
    a, b, c = probe_carrier(1), probe_carrier(2), probe_carrier(2)
    f = FuncTable(a, b, [1])
    g = FuncTable(b, c, [1, 0])
    lhs = hor_arrow(h, compose_func(g, f))
    rhs = compose_morphisms(hor_arrow(h, f), hor_arrow(h, g))
    assert morphisms_equal(lhs, rhs)
    ident = hor_arrow(h, FuncTable.identity(b))
    assert (ident.phi.table == np.arange(len(ident.source.exprs))).all()
    assert ident.psi == Rel.identity(ident.source.traces)


def test_corrupting_one_order_component_breaks_naturality():
    base = mon_hor(2)
    bad_at = probe_carrier(2)

    def leq(a):
        if a is bad_at:
            return Rel.identity(base.leq.target.carrier(a))
        return base.leq.at(a)

    h = HOR("dented-mon", base.models, replace(base.leq, at=leq))
    assert all(validate_representation(instantiate(h, a)).passed for a in P2.carriers())
    assert linearity_check(h.models, P2, side="right").passed
    assert is_natural_relation(h.leq, P2) == Verdict(
        "natural-relation", False, ("one", "mul(one,one)"), "probe0->probe2 []")


def test_emptying_one_satisfaction_component_breaks_right_linearity():
    # with nothing satisfied over probe1, renaming probe0 into it loses
    # the empty list's satisfaction of `one`; both readings of the
    # satisfaction condition fail on that first arrow
    base = mon_hor(2)

    def models(a):
        m = base.models.at(a)
        return Rel.empty(m.src, m.tgt) if a is probe_carrier(1) else m

    h = HOR("emptied-mon", replace(base.models, at=models), base.leq)
    assert all(validate_representation(instantiate(h, a)).passed for a in P2.carriers())
    assert linearity_check(h.models, P2, side="right", mode="both").verdicts == [
        Verdict("right-linear-functions", False, ("[]", "one"), "probe0->probe1 []"),
        Verdict("right-linear-relations", False, ("[]", "one"), "probe0-|probe1 {}"),
    ]


def test_tilde_lift_frozen_facts():
    lifted = tilde_lift(mon_hor(3), _pq_chain())
    assert lifted.validated
    assert lifted.models.holds("[p]", "q")
    assert not lifted.models.holds("[q]", "p")
    assert lifted.leq.holds("mul(p,one)", "q")
    assert lifted.leq.holds("mul(p,q)", "mul(q,q)")
    assert not lifted.leq.holds("q", "p")


def test_tilde_soundness_report():
    report = check_tilde_soundness(mon_hor(3), _pq_chain())
    assert report.passed, report.describe()
    assert [v.law for v in report.verdicts] == [
        "reflexivity",
        "transitivity",
        "soundness",
        "absorbs-lifted-order",
        "absorbs-base-order",
    ]


def test_tilde_soundness_lifts_the_preorder_once(monkeypatch):
    # hat_lift's order and the absorbs-lifted-order verdict read one lift
    h, p = ka_hor(3, 2), _pq_chain()
    e, lifted = h.models.target, []
    lift = e.lift
    monkeypatch.setattr(e, "lift", lambda x: lifted.append(x) or lift(x))
    report = check_tilde_soundness(h, p)
    assert len(lifted) == 1 and lifted[0] is p.order
    assert report.describe() == "\n".join([
        "representation 'ka(semantic, size 3, words 2)-over-pq': pass",
        "  reflexivity: ok", "  transitivity: ok", "  soundness: ok",
        "  absorbs-lifted-order: ok", "  absorbs-base-order: ok",
    ])


def test_the_shared_lift_checks_its_cells_on_every_request():
    h, p = mon_hor(3), _pq_chain()
    assert check_tilde_soundness(h, p).passed
    with carrier_budget(150):  # 147 expressions pass, the lift's cells do not
        with pytest.raises(BudgetError, match=r"depth 3\) lift of a relation 'pq' -> 'pq' has 147 x 147 = 21609"):
            check_tilde_soundness(h, p)


def test_tilde_discrete_order_equals_instantiate():
    h = mon_hor(2)
    pq = FiniteSet("pq", ["p", "q"])
    lifted = tilde_lift(h, PreorderedSet(pq, Rel.identity(pq)))
    plain = instantiate(h, pq)
    assert lifted.traces is plain.traces and lifted.exprs is plain.exprs
    assert lifted.models == plain.models
    assert lifted.leq == plain.leq


def _preorders(n: int):
    """Every preorder on n points."""
    g = FiniteSet(f"g{n}", [f"g{i}" for i in range(n)])
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product([False, True], repeat=len(off)):
        m = np.eye(n, dtype=bool)
        for (i, j), bit in zip(off, bits):
            m[i, j] = bit
        if (star(Rel(g, g, m)).m == m).all():
            yield PreorderedSet(g, Rel(g, g, m))


def _tilde_reference(h: HOR, p: PreorderedSet) -> Representation:
    """The tilde lift's own formula: satisfaction relaxed by the lifted
    preorder, and the order closed under it."""
    a, t, e = p.carrier, h.models.source, h.models.target
    return Representation(
        f"{h.name}-over-{a.name}",
        t.carrier(a),
        e.carrier(a),
        compose(t.lift(p.order), h.models.rel_at(a)),
        star(union(e.lift(p.order), h.leq.rel_at(a))),
    )


@pytest.mark.parametrize("make", [
    lambda: mon_hor(2), lambda: ka_hor(3, 2), lambda: ka_hor(3, 2, "axiomatic"),
], ids=["mon", "ka-semantic", "ka-axiomatic"])
def test_tilde_lift_is_its_own_formula(make):
    # the hat-lift route against the formula it replaced, over every
    # preorder on two and three points
    h = make()
    for p in [*_preorders(2), *_preorders(3)]:
        lifted, want = tilde_lift(h, p), _tilde_reference(h, p)
        assert lifted.name == want.name
        assert lifted.traces is want.traces and lifted.exprs is want.exprs
        assert lifted.models == want.models and lifted.leq == want.leq
        assert validate_representation(lifted).verdicts == validate_representation(want).verdicts


def test_rule_closure_matches_lifted_order():
    assert tilde_mon_rule_check(_pq_chain(), depth=2).passed
    assert tilde_mon_rule_check(_pq_chain(), depth=3).passed


def test_rule_closure_on_two_step_chain():
    pqr = FiniteSet("pqr", ["p", "q", "r"])
    step = Rel.from_pairs(pqr, pqr, [("p", "q"), ("q", "r")])
    p = PreorderedSet(pqr, star(step))
    assert tilde_mon_rule_check(p, depth=2).passed
    lifted = tilde_lift(mon_hor(2), p)
    assert lifted.leq.holds("p", "r")
    assert lifted.leq.holds("mul(p,p)", "mul(r,q)")
    assert not lifted.leq.holds("r", "p")


def test_discrete_rule_closure_is_monoid_equality():
    h = mon_hor(2)
    pq = FiniteSet("pq", ["p", "q"])
    lifted = tilde_lift(h, PreorderedSet(pq, Rel.identity(pq)))
    assert lifted.leq == h.leq.rel_at(pq)


def test_flattening_is_natural_and_linear_at_depth_three():
    ell = varlist_family(MON_SIG, 3)
    assert is_natural_transformation(ell, P2).ok


def test_lifted_list_order_is_same_length_pointwise():
    h = mon_hor(2)
    p = _pq_chain()
    lifted = h.models.source.lift(p.order)
    la = h.models.source.carrier(p.carrier)
    for i, u in enumerate(la.payload):
        for j, v in enumerate(la.payload):
            expect = len(u) == len(v) and all(
                p.order.m[x, y] for x, y in zip(u, v)
            )
            assert bool(lifted.m[i, j]) == expect


def test_hat_lift_frozen_facts():
    h = mon_hor(3)
    base = membership_representation(FiniteSet("one-elt", ["a"]))
    rep, report = _hat_report(h, base)
    assert rep.validated
    assert report.passed
    assert rep.models.holds("[a]", "{a}")
    assert rep.models.holds("[a]", "mul({a},one)")
    assert not rep.models.holds("[]", "{a}")
    finding = report.verdicts[-1]
    assert finding.law == "exactness-finding" and finding.ok
    assert "not exact" in finding.note


def test_hat_lift_over_degenerate_representation():
    h = mon_hor(3)
    empty = FiniteSet("void", [])
    base = trivial_representation(Rel.empty(empty, empty), name="void-rep")
    rep = hat_lift(h, base)
    assert rep.validated
    assert (len(rep.traces), len(rep.exprs)) == (1, 5)


def hat_exactness_search(h: HOR, sizes=(1, 2), seed: int = 0, tries: int = 20) -> dict:
    """Look for an exact parameter whose lift is inexact: lifting need not
    preserve exactness.  The report is descriptive either way: absence at
    this bound proves nothing."""
    rng = np.random.default_rng(seed)
    checked = 0
    for nt in sizes:
        for ne in sizes:
            for t in range(tries):
                base_t = carrier(f"t{nt}", nt)
                base_e = carrier(f"e{ne}", ne)
                r = random_exact_representation(rng, base_t, base_e)
                rep, report = _hat_report(h, r)
                checked += 1
                finding = report.verdicts[-1]
                if finding.witness is not None:
                    return {
                        "found": True,
                        "checked": checked,
                        "parameter": r,
                        "lifted": rep,
                        "witness": finding.witness,
                    }
    return {"found": False, "checked": checked}


def test_hat_exactness_search():
    res = hat_exactness_search(mon_hor(2), sizes=(1, 2), seed=0, tries=10)
    assert res["found"] and res["witness"] is not None
    assert res["checked"] >= 1
    none = hat_exactness_search(mon_hor(2), sizes=(), seed=0)
    assert none == {"found": False, "checked": 0}


def test_foreign_order_is_a_carrier_mismatch_with_and_without_asserts():
    pq, rs = FiniteSet("pq", ["p", "q"]), FiniteSet("rs", ["r", "s"])
    with pytest.raises(CarrierMismatch, match="order off its carrier pq"):
        PreorderedSet(pq, Rel.identity(rs))
    code = (
        "from finrep.errors import CarrierMismatch\n"
        "from finrep.fset import FiniteSet\n"
        "from finrep.hor import PreorderedSet\n"
        "from finrep.rel import Rel\n"
        "try:\n"
        "    PreorderedSet(FiniteSet('pq', ['p']), Rel.identity(FiniteSet('rs', ['r'])))\n"
        "except CarrierMismatch as e:\n"
        "    print('refused:', e)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.stdout == "refused: order off its carrier pq\n", out.stderr


def test_structure_off_its_carriers_is_a_carrier_mismatch():
    # each family is wired to the other's components
    h = mon_hor(2)
    stray = HOR("stray", replace(h.models, name="stray-satisfaction", at=h.leq.rel_at),
                replace(h.leq, name="stray-order", at=h.models.rel_at))
    a = probe_carrier(1)
    for request in (lambda: instantiate(stray, a), lambda: stray.models.rel_at(a)):
        with pytest.raises(CarrierMismatch, match="^family stray-satisfaction off its carriers at probe1$"):
            request()
    with pytest.raises(CarrierMismatch, match="^family stray-order off its carriers at probe1$"):
        stray.leq.rel_at(a)


def test_hat_refuses_an_unsound_parameter():
    h = mon_hor(2)
    sound = membership_representation(FiniteSet("one-elt", ["a"]))
    # the empty subset satisfied by a, its superset {a} not
    base = Representation("unsound", sound.traces, sound.exprs,
                          Rel(sound.traces, sound.exprs, [[True, False]]), sound.leq)
    with pytest.raises(ValueError, match="representation 'unsound' fails soundness"):
        hat_lift(h, base)


def test_preordered_set_rejects_non_preorder():
    pq = FiniteSet("pq", ["p", "q"])
    with pytest.raises(ValueError, match="preorder"):
        PreorderedSet(pq, Rel.from_pairs(pq, pq, [("p", "q")]))


def test_a_preordered_set_is_frozen_once_checked():
    p = _pq_chain()
    with pytest.raises(FrozenInstanceError):
        p.order = Rel(p.carrier, p.carrier, [[False, True], [False, False]])  # not reflexive
    with pytest.raises(FrozenInstanceError):
        p.carrier = FiniteSet("r", ["r"])
    assert p.order.holds("p", "p")
