import itertools

import numpy as np
import pytest

from finrep import functors, naturality
from finrep.errors import BudgetError, CarrierMismatch, TheoremInconsistencyError
from finrep.fset import FiniteSet, carrier_budget
from finrep.functors import (
    ComposedFunctor,
    IdentityFunctor,
    ListFunctor,
    PowersetFunctor,
    Signature,
    TermFunctor,
)
from finrep.naturality import (
    IndexedFunction,
    IndexedRelation,
    ProbeUniverse,
    check_functor_laws,
    classify_linearity,
    is_natural_relation,
    is_natural_transformation,
    linearity_check,
    membership_family,
    mu_p_counterexample_search,
    powerset_union,
    powerset_unit,
    probe_carrier,
    samevars_family,
    term_flatten,
    term_unit,
    varlist_family,
)
from finrep.rel import FuncTable, Rel, graph
from finrep.verdict import Verdict
from term_trees import enumerate_term_trees, term_node, term_var, var_list

SIG = Signature.of({"mul": 2, "one": 0})
P2 = ProbeUniverse(max_size=2)
P3 = ProbeUniverse(max_size=3)


def _oks(report):
    return {v.law: v.ok for v in report.verdicts}


# ------------------------------------------------------------ functor laws

@pytest.mark.parametrize(
    "fun,probes",
    [
        (IdentityFunctor(), P3),
        (ListFunctor(3), P3),
        (PowersetFunctor(4), P3),
        (TermFunctor(SIG, 2), P3),
        (ComposedFunctor(PowersetFunctor(8), PowersetFunctor(4)), P2),
        (ComposedFunctor(ListFunctor(2), PowersetFunctor(4)), P2),
        (ComposedFunctor(TermFunctor(SIG, 2), TermFunctor(SIG, 2)), ProbeUniverse(max_size=1)),
    ],
    ids=lambda v: getattr(v, "name", None) or f"sizes<={v.max_size}",
)
def test_functor_laws_hold(fun, probes):
    report = check_functor_laws(fun, probes)
    assert report.passed, report.describe()
    assert [v.law for v in report.verdicts] == [
        "preserves-identity",
        "preserves-composition",
        "lifting-extends-arrows",
        "lifting-identity",
        "lifting-monotone",
        "lifting-functorial",
    ]
    assert "probe carriers" in report.scope


def test_family_off_its_carriers_is_a_carrier_mismatch():
    # a family whose component lies over other carriers is refused even
    # when asserts are stripped
    foreign = FiniteSet("foreign", ["z"])
    lf = ListFunctor(1)
    rel = IndexedRelation("stray", lf, lf, lambda a: Rel.identity(lf.carrier(foreign)))
    with pytest.raises(CarrierMismatch, match="family stray off its carriers at probe1"):
        rel.rel_at(probe_carrier(1))
    fun = IndexedFunction("stray", lf, lf, lambda a: FuncTable.identity(lf.carrier(foreign)))
    with pytest.raises(CarrierMismatch, match="family stray off its carriers at probe1"):
        fun.func_at(probe_carrier(1))


def test_functor_law_check_catches_broken_lifting():
    class Dented(PowersetFunctor):
        def lift(self, x):
            out = super().lift(x)
            m = out.m.copy()
            m[:, :] = m | ~m[:, :]  # degrade to the full relation
            return Rel(out.src, out.tgt, m)

    report = check_functor_laws(Dented(4), P2)
    assert not report.passed
    assert report.first_failure.law == "lifting-extends-arrows"


def test_identity_laws_report_the_first_failing_carrier():
    class Collapsed(ListFunctor):
        # every arrow collapses onto one list and every relation lifts to
        # the full one: both identity laws hold at probe0 only
        def fmap(self, f):
            out = super().fmap(f)
            return FuncTable(out.src, out.tgt, [0] * len(out.src))

        def lift(self, x):
            out = super().lift(x)
            return Rel.full(out.src, out.tgt)

    verdicts = {v.law: v for v in check_functor_laws(Collapsed(2), P2).verdicts}
    assert verdicts["preserves-identity"].describe() == "preserves-identity: VIOLATION  [at probe1]"
    assert verdicts["lifting-identity"].describe() == "lifting-identity: VIOLATION  [at probe1]"


class _ConstantArrows(ListFunctor):
    # every arrow maps every list to the empty list
    def fmaps(self, a, b, tables):
        fa, fb, out = super().fmaps(a, b, tables)
        return fa, fb, np.zeros_like(out)


class _ConstantBetweenCarriers(ListFunctor):
    # an arrow between two carriers maps every list to the empty list, an
    # arrow on one carrier maps as it should: identities are kept
    def fmaps(self, a, b, tables):
        fa, fb, out = super().fmaps(a, b, tables)
        return fa, fb, out if a is b else np.zeros_like(out)


class _ComplementedLifts(ListFunctor):
    # every relation lifts to the complement of its lift
    def lifts(self, a, b, xs):
        fa, fb, out = super().lifts(a, b, xs)
        return fa, fb, ~out


_P2_SCOPE = ("  scope: probe carriers of sizes 0..2, all functions, "
             "relations exhaustive up to 6 cells then 25 samples (seed 0)")

# the dents are on the stacked maps `fmaps` and `lifts`, which the one-arrow
# `fmap` and `lift` call, so a walk of either kind sees them; each of the
# six laws fails on at least one dented functor
DENTED_REPORTS = {
    "constant-arrows": (_ConstantArrows, [
        "preserves-identity: VIOLATION  [at probe1]",
        "preserves-composition: ok",
        "lifting-extends-arrows: VIOLATION at ([x0], [x0])  [probe1->probe1 [x0>x0]]",
        "lifting-identity: ok",
        "lifting-monotone: ok",
        "lifting-functorial: ok",
    ]),
    "constant-between-carriers": (_ConstantBetweenCarriers, [
        "preserves-identity: ok",
        "preserves-composition: VIOLATION  [probe1->probe2 [x0>x0] then probe2->probe1 [x0>x0,x1>x0]]",
        "lifting-extends-arrows: VIOLATION at ([x0], [x0])  [probe1->probe2 [x0>x0]]",
        "lifting-identity: ok",
        "lifting-monotone: ok",
        "lifting-functorial: ok",
    ]),
    "complemented-lifts": (_ComplementedLifts, [
        "preserves-identity: ok",
        "preserves-composition: ok",
        "lifting-extends-arrows: VIOLATION at ([], [])  [probe0->probe0 []]",
        "lifting-identity: VIOLATION  [at probe0]",
        "lifting-monotone: VIOLATION at ([x0], [x0])  [probe1-|probe1 {}]",
        "lifting-functorial: VIOLATION at ([], [x0])  [probe0-|probe0 {} ; probe0-|probe1 {}]",
    ]),
}


@pytest.mark.parametrize("name", DENTED_REPORTS)
def test_a_dented_functor_fails_its_laws_with_these_witnesses(name):
    dented, verdicts = DENTED_REPORTS[name]
    report = check_functor_laws(dented(2), P2)
    assert report.describe().splitlines() == [
        "functor laws for list(len 2): FAIL", *("  " + v for v in verdicts), _P2_SCOPE]


def test_every_functor_law_fails_on_a_dented_functor():
    failing = {line.split(":")[0] for _, verdicts in DENTED_REPORTS.values()
               for line in verdicts if "VIOLATION" in line}
    assert failing == {"preserves-identity", "preserves-composition", "lifting-extends-arrows",
                       "lifting-identity", "lifting-monotone", "lifting-functorial"}


def test_the_functor_law_report_keeps_the_seed_of_its_samples():
    assert check_functor_laws(ListFunctor(2), ProbeUniverse(2, 25, 7)).seed == 7


# ------------------------------------------------------- linearity verdicts

def test_membership_is_right_but_not_left_linear():
    report = classify_linearity(membership_family(), P3)
    oks = _oks(report)
    assert oks == {
        "left-linear-functions": False,
        "right-linear-functions": True,
        "left-linear-relations": False,
        "right-linear-relations": True,
        "natural-relation": True,
        "modes-agree": True,
    }


def test_membership_left_failure_has_concrete_witness():
    # a non-surjective function breaks the left inclusion: the empty set
    # cannot cover an element outside the image
    report = linearity_check(membership_family(), P2, side="left", mode="functions")
    v = report.first_failure
    assert v is not None and v.law == "left-linear-functions"
    assert v.witness is not None
    assert "probe" in v.note


_P2_FUNCTION_SCOPE = "  scope: probe carriers of sizes 0..2, all functions"
_P2_SCOPE = f"{_P2_FUNCTION_SCOPE}, relations exhaustive up to 6 cells then 25 samples (seed 0)"
_PINNED = {
    "membership": {
        "left-linear-functions": "VIOLATION at (x0, {x0,x1})  [probe1->probe2 [x0>x0]]",
        "right-linear-functions": "ok",
        "left-linear-relations": "VIOLATION at (x0, {x0,x1})  [probe1-|probe2 {(x0,x0)}]",
        "right-linear-relations": "ok",
    },
    "singleton-graph": {
        "left-linear-functions": "ok",
        "right-linear-functions": "VIOLATION at (x0, {x0,x1})  [probe2->probe1 [x0>x0,x1>x0]]",
        "left-linear-relations": "ok",
        "right-linear-relations": "VIOLATION at (x0, {x0,x1})  [probe1-|probe2 {(x0,x0),(x0,x1)}]",
    },
}


@pytest.mark.parametrize(
    "family", [membership_family(), powerset_unit().graph_family()], ids=lambda f: f.name
)
def test_linearity_reports_are_pinned(family):
    # the full reports, witnesses and first failing probe arrows included
    lines = {law: f"  {law}: {got}" for law, got in _PINNED[family.name].items()}
    assert classify_linearity(family, P2).describe() == "\n".join(
        [f"linearity classification of {family.name}: FAIL", *lines.values(),
         "  natural-relation: ok",
         "  modes-agree: ok  [the equational and relational readings must classify alike]",
         _P2_SCOPE]
    )
    # the functions mode reads no relation, so it states only the function scope
    for mode, scope in (("functions", _P2_FUNCTION_SCOPE), ("relations", _P2_SCOPE)):
        for side, laws in (("left", ["left"]), ("right", ["right"]), ("both", ["left", "right"])):
            got = [lines[f"{s}-linear-{mode}"] for s in laws]
            verdict = "FAIL" if any("VIOLATION" in line for line in got) else "pass"
            report = linearity_check(family, P2, side, mode)
            assert report.describe() == "\n".join([f"linearity of {family.name}: {verdict}", *got, scope])
            assert report.seed == (None if mode == "functions" else 0)


def test_singleton_unit_is_left_but_not_right_linear():
    report = classify_linearity(powerset_unit().graph_family(), P3)
    oks = _oks(report)
    assert oks["left-linear-functions"] and oks["left-linear-relations"]
    assert not oks["right-linear-functions"] and not oks["right-linear-relations"]
    assert oks["natural-relation"] and oks["modes-agree"]


def test_singleton_right_failure_witness_is_a_two_element_cover():
    # x relating one source point to two targets: the lifted relation
    # accepts the two-point set, but no singleton maps onto it
    a = probe_carrier(1)
    b = probe_carrier(2)
    x = Rel.full(a, b)
    eta = powerset_unit()
    rho_a = graph(eta.func_at(a))
    rho_b = graph(eta.func_at(b))
    lhs = rho_a.m @ eta.target.lift(x).m
    rhs = eta.source.lift(x).m @ rho_b.m
    assert (lhs & ~rhs).any()


def test_union_family_is_linear_both_sides():
    report = classify_linearity(powerset_union().graph_family(), P3)
    assert report.passed, report.describe()


@pytest.mark.parametrize(
    "family",
    [
        term_unit(SIG, 2).graph_family(),
        term_flatten(SIG, 2).graph_family(),
        varlist_family(SIG, 2).graph_family(),
        samevars_family(SIG, 2),
    ],
    ids=["term-unit", "term-flatten", "variable-list", "same-variables"],
)
def test_term_side_families_are_linear(family):
    report = classify_linearity(family, P2)
    assert report.passed, report.describe()


def test_all_builtin_families_are_natural_relations():
    families = [
        membership_family(),
        powerset_unit().graph_family(),
        powerset_union().graph_family(),
        term_unit(SIG, 2).graph_family(),
        term_flatten(SIG, 2).graph_family(),
        varlist_family(SIG, 2).graph_family(),
        samevars_family(SIG, 2),
    ]
    for fam in families:
        v = is_natural_relation(fam, P2)
        assert v.ok, (fam.name, v.describe())


def test_function_families_are_natural_transformations():
    for fam in [
        powerset_unit(),
        powerset_union(),
        term_unit(SIG, 2),
        term_flatten(SIG, 2),
        varlist_family(SIG, 2),
    ]:
        v = is_natural_transformation(fam, P2)
        assert v.ok, (fam.name, v.describe())
    assert linearity_check(powerset_union().graph_family(), P2).passed


def test_size_parity_family_is_not_natural():
    ident = IdentityFunctor()

    def at(a):
        return Rel.full(a, a) if len(a) % 2 == 0 else Rel.empty(a, a)

    v = is_natural_relation(IndexedRelation("parity", ident, ident, at), P2)
    assert not v.ok
    assert v.witness is not None


def test_constant_family_is_not_natural_and_names_the_moved_element():
    # a -> a sending everything to the first element: renaming x0 to x1
    # moves the image on one path and not on the other
    ident = IdentityFunctor()

    def at(a):
        return FuncTable(a, a, np.zeros(len(a), dtype=int))

    v = is_natural_transformation(IndexedFunction("first", ident, ident, at), P2)
    assert v == Verdict("natural-transformation", False, ("x0",), "probe1->probe2 [x0>x1]")


def test_probe_walks_over_the_cell_budget_are_refused_before_any_square(monkeypatch):
    # 60 probe functions at max 3 through 4 x 4 squares: 960 cells fit a
    # cell budget of 1000 and not one of 900
    # fresh families, so that no component is served from a memo
    unit = term_unit(Signature.of({"one": 0}), 1)
    looked_up = []

    def fam():
        return IndexedFunction("unit", unit.source, unit.target, lambda a: looked_up.append(a) or unit.at(a))

    probes = ProbeUniverse(3)
    assert (probes.function_count, len(unit.target.carrier(probe_carrier(3)))) == (60, 4)
    with carrier_budget(10):
        assert is_natural_transformation(fam(), probes).ok
    assert len(looked_up) == 4
    looked_up.clear()
    monkeypatch.setattr(naturality, "_paths", None)  # is_natural_relation reaches no square
    with carrier_budget(9):
        with pytest.raises(BudgetError, match=r"^probe walk of 60 arrows to 'probe3' has 60 x 16 = 960 cells"):
            is_natural_transformation(fam(), probes)
        with pytest.raises(BudgetError, match=r"^probe walk of 60 arrows"):
            is_natural_relation(fam().graph_family(), probes)
    assert looked_up == []


@pytest.mark.parametrize("max_size, samples", [(0, 25), (2, 0), (3, 25), (4, 3)])
def test_closed_form_counts_match_the_walks(max_size, samples):
    probes = ProbeUniverse(max_size, samples, seed=1)
    assert probes.function_count == len(list(probes.functions()))
    pairs = itertools.product(probes.carriers(), repeat=2)
    assert probes.relation_count == sum(len(list(probes.relations_between(a, b))) for a, b in pairs)


@pytest.mark.parametrize("max_size, samples", [(0, 25), (1, 25), (2, 0), (3, 2), (3, 25)])
def test_functor_law_walk_counts_every_step(monkeypatch, max_size, samples):
    # every case each law's walk reads, counted as first_violation reads
    # it, on a functor that passes every law so that no walk stops early
    steps = []
    read = naturality.first_violation

    def counted(law, cases, *args, **kwargs):
        cases = list(cases)
        steps.append(len(cases))
        return read(law, cases, *args, **kwargs)

    monkeypatch.setattr(naturality, "first_violation", counted)
    probes = ProbeUniverse(max_size, samples, seed=1)
    assert check_functor_laws(ListFunctor(1), probes).passed
    assert sum(steps) == naturality._functor_law_walk(probes)


def test_functor_laws_count_the_composable_pairs():
    # 499 functions and 391 relations at max 4, but 133,799 composable
    # pairs: the walk is refused, where counting arrows alone let it run
    probes = ProbeUniverse(4)
    assert (probes.function_count, probes.relation_count) == (499, 391)
    with pytest.raises(BudgetError, match=r"^probe walk of 135813 arrows to 'probe4' has 135813 x 441 = "):
        check_functor_laws(ListFunctor(2), probes)


def test_every_probe_check_refuses_an_over_budget_scope_before_any_lift_or_fmap(monkeypatch):
    # at max 3 (60 functions, 207 relations) and a cell budget of 3000,
    # the first walk of every check is over: functions through 8 x 8
    # squares already read 3840 cells, and every square here fits alone
    def refuse(*args):
        raise AssertionError("a lift or fmap ran before the budget check")

    for cls in (IdentityFunctor, PowersetFunctor, functors.ContainerFunctor, ComposedFunctor):
        monkeypatch.setattr(cls, "lift", refuse)
        monkeypatch.setattr(cls, "fmap", refuse)
    member, unit = membership_family(), powerset_unit()
    checks = [
        lambda: check_functor_laws(ListFunctor(2), P3),
        *(lambda s=s, m=m: linearity_check(member, P3, side=s, mode=m)
          for s in ("left", "right", "both") for m in ("functions", "relations", "both")),
        lambda: classify_linearity(member, P3),
        lambda: is_natural_relation(member, P3),
        lambda: is_natural_transformation(unit, P3),
    ]
    with carrier_budget(30):
        for check in checks:
            with pytest.raises(BudgetError, match=r"^probe walk of \d+ arrows to 'probe3' has .* budget 3000$"):
                check()


def test_head_of_list_partial_family_is_natural():
    lf = ListFunctor(2)
    ident = IdentityFunctor()

    def at(a):
        la = lf.carrier(a)
        m = np.zeros((len(la), len(a)), dtype=bool)
        for i, seq in enumerate(la.payload):
            if seq:
                m[i, seq[0]] = True
        return Rel(la, a, m)

    v = is_natural_relation(IndexedRelation("head", lf, ident, at), P3)
    assert v.ok, v.describe()


def test_modes_agree_for_sampled_random_families():
    # arbitrary seeded relation families between powerset and identity:
    # the equational and relational readings must never disagree
    rng = np.random.default_rng(3)
    pf = PowersetFunctor(4)
    ident = IdentityFunctor()
    for trial in range(6):
        tables = {}
        for a in P2.carriers():
            pa = pf.carrier(a)
            tables[a] = rng.random((len(a), len(pa))) < 0.5

        def at(a, tables=tables):
            return Rel(a, pf.carrier(a), tables[a])

        report = classify_linearity(IndexedRelation(f"rand{trial}", ident, pf, at), P2)
        assert _oks(report)["modes-agree"], report.describe()


# ----------------------------------------------------- flatten and varlist

def test_term_flatten_substitutes_inner_terms():
    p = FiniteSet("p", ["p"])
    mu = term_flatten(SIG, 2)
    inner = enumerate_term_trees(SIG, 2, len(p))  # the terms over p, in carrier order
    outer = enumerate_term_trees(SIG, 2, len(inner))  # the terms over those
    i_mulpp = inner.index(term_node("mul", (term_var(0), term_var(0))))
    i_one = inner.index(term_node("one", ()))
    outer_term = term_node("mul", (term_var(i_mulpp), term_var(i_one)))
    f = mu.func_at(p)
    src_label = f.src.elements[outer.index(outer_term)]
    assert f(src_label) == "mul(mul(p,p),one)"
    assert mu.target.carrier(p) is TermFunctor(SIG, 3).carrier(p)


def test_varlist_family_frozen_values():
    a = FiniteSet("ab", ["a", "b"])
    ell = varlist_family(SIG, 2).func_at(a)
    assert ell("mul(b,a)") == "[b,a]"
    assert ell("one") == "[]"
    assert ell("a") == "[a]"


def test_samevars_matches_direct_comparison():
    a = FiniteSet("ab", ["a", "b"])
    rel = samevars_family(SIG, 2).rel_at(a)
    terms = enumerate_term_trees(SIG, 2, len(a))
    assert len(terms) == len(rel.src)
    for i, s in enumerate(terms):
        for j, t in enumerate(terms):
            assert rel.m[i, j] == (var_list(s) == var_list(t))


# ------------------------------------------------- union counterexample hunt

def test_union_counterexample_search_exhausts_and_alarms():
    # the union of a related cover is again a related cover, on both
    # sides, so the hunt must come up empty at every finite size and
    # the exhaustion contract turns that into an alarm
    with pytest.raises(TheoremInconsistencyError, match="exhausted"):
        mu_p_counterexample_search(max_size=2)
    with pytest.raises(TheoremInconsistencyError, match="656 relations"):
        mu_p_counterexample_search(max_size=3)


def test_search_reports_witness_when_family_is_dented(monkeypatch):
    # sanity check of the hunt itself: the singleton family genuinely
    # fails right linearity, so a search over the same probes finds it
    a = probe_carrier(1)
    b = probe_carrier(2)
    eta = powerset_unit()
    x = Rel.full(a, b)
    lhs = graph(eta.func_at(a)).m @ eta.target.lift(x).m
    rhs = eta.source.lift(x).m @ graph(eta.func_at(b)).m
    assert (lhs & ~rhs).any()
    monkeypatch.setattr(naturality, "powerset_union", lambda cap, outer: powerset_unit(cap))
    found = mu_p_counterexample_search(max_size=3)
    assert found["found"] and found["side"] == "right" and found["sizes"] == (2, 2)
    assert found["witness"] == ("x0", "{x0,x1}")
