"""Acceptance gate: one test per headline claim of the workbench.

Each test prints a single [PASS]/[FAIL] line on the real stdout, so the
gate summary survives output capture and piping, and each enforces its
own wall-clock bound on top of the functional assertions.

One criterion is expected red and left red on purpose.  The union
family over the subset functor is demanded to produce a concrete
linearity counterexample at probe size <= 3, but no finite probe can
produce one: the union of a related cover is itself a related cover on
both sides, so both linearity inclusions hold everywhere.  The search
proves exhaustion and raises TheoremInconsistencyError instead of
returning a witness, and the criterion test fails loudly with that
alarm rather than being weakened to pass.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np

from finrep.errors import TheoremInconsistencyError
from finrep.fset import FiniteSet, powerset_of
from finrep.functors import Signature
from finrep.generate import (
    random_closure_instance,
    random_func,
    random_reduction_instance,
    random_rel,
    random_sound_representation,
)
from finrep.hor import (
    PreorderedSet,
    check_tilde_soundness,
    hor_arrow,
    instantiate,
    mon_hor,
    tilde_lift,
    tilde_mon_rule_check,
)
from finrep.kleene import ka_completeness_report, ka_hor, ka_semantic_exactness
from finrep.laws import (
    LawConfig,
    all_relations,
    preorder_characterizations,
    relation_law_suite,
)
from finrep.morphism import (
    compose_morphisms,
    identity_morphism,
    morphisms_equal,
    product,
    product_universal,
    validate_morphism,
)
from finrep.naturality import (
    ProbeUniverse,
    classify_linearity,
    membership_family,
    mu_p_counterexample_search,
    probe_carrier,
    samevars_family,
    term_flatten,
    term_unit,
)
from finrep.rel import (
    FuncTable,
    Rel,
    check_coproduct_axioms,
    compose_func,
    membership_rel,
    under,
)
from finrep.reduction import (
    closure_reduction_equivalence,
    self_reduction,
    transfer_exactness,
    validate_reduction,
)
from finrep.represent import (
    Representation,
    is_exact,
    membership_representation,
    trivial_representation,
    validate_representation,
)


@contextmanager
def criterion(name, bound):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        tag = "PASS" if ok else "FAIL"
        print(
            f"[{tag}] {name} ({elapsed:.2f}s, bound {bound:g}s)",
            file=sys.__stdout__,
            flush=True,
        )
    assert elapsed < bound, f"{name}: {elapsed:.2f}s exceeds {bound:g}s"


def _sized(tag, n):
    return FiniteSet(f"{tag}{n}", [f"{tag}{n}x{i}" for i in range(n)])


def test_relation_algebra_laws():
    with criterion("relation-algebra laws", 10.0):
        report = relation_law_suite(
            LawConfig(exhaustive_max=2, sample_size=4, samples=1000, seed=0)
        )
        assert report.passed, report.describe()
        assert [v.law for v in report.verdicts] == [
            "residual-adjunction-exhaustive",
            "function-residual-exhaustive",
            "residual-adjunction-sampled",
            "function-residual-sampled",
        ]


def test_membership_self_residual_is_inclusion():
    with criterion("membership self-residual equals inclusion", 1.0):
        for n in range(5):
            a = _sized("A", n)
            p = powerset_of(a, 4)
            mem = membership_rel(a, 4)
            # mask arithmetic is the independent route to the subset order
            inclusion = np.zeros((len(p), len(p)), dtype=bool)
            for i, x in enumerate(p.payload):
                for j, y in enumerate(p.payload):
                    inclusion[i, j] = (x & ~y) == 0
            assert np.array_equal(under(mem, mem).m, inclusion), n


def test_coproduct_axioms():
    with criterion("coproduct axioms", 1.0):
        for na in range(5):
            for nb in range(5):
                report = check_coproduct_axioms(_sized("L", na), _sized("R", nb))
                assert report.passed, (na, nb, report.describe())


def test_preorder_characterizations_agree():
    with criterion("preorder characterizations", 5.0):
        p3 = FiniteSet("P3acc", ["p", "q", "r"])
        checked = 0
        for x in all_relations(p3, p3):
            agree = preorder_characterizations(x).verdicts[-1]
            assert agree.law == "characterizations-agree"
            assert agree.ok, sorted(x.pairs())
            checked += 1
        assert checked == 512


def test_trivial_representation_exactness():
    with criterion("trivial representation exactness", 5.0):
        rng = np.random.default_rng(5)
        for k in range(500):
            t = _sized("Tt", int(rng.integers(0, 5)))
            e = _sized("Te", int(rng.integers(0, 5)))
            v = is_exact(trivial_representation(random_rel(rng, t, e)))
            assert v.ok, (k, v.witness)


def test_product_theorems():
    with criterion("product theorems", 30.0):
        rng = np.random.default_rng(6)
        for k in range(20):
            t = _sized("Pt", 2 + int(rng.integers(0, 2)))
            r1 = random_sound_representation(rng, t, _sized("Pe", 3), "left-factor")
            r2 = random_sound_representation(rng, t, _sized("Pf", 2), "right-factor")
            assert validate_representation(r1).passed
            assert validate_representation(r2).passed
            rp, p1, p2 = product(r1, r2)
            assert validate_representation(rp).passed, k
            assert validate_morphism(p1).passed and validate_morphism(p2).passed
        for k in range(200):
            t = _sized("Qt", 1 + int(rng.integers(0, 3)))
            r1 = trivial_representation(random_rel(rng, t, _sized("Qe", 3)))
            r2 = trivial_representation(random_rel(rng, t, _sized("Qf", 2)))
            rp, _, _ = product(r1, r2)
            v = is_exact(rp)
            assert v.ok, (k, v.witness)
        r = membership_representation(FiniteSet("Ur", ["a", "b"]))
        rp, p1, p2 = product(r, r)
        f1 = identity_morphism(r)
        f2 = identity_morphism(r)
        g, report = product_universal(r, f1, f2)
        assert report.passed, report.describe()
        assert morphisms_equal(compose_morphisms(g, p1), f1)
        assert morphisms_equal(compose_morphisms(g, p2), f2)
        # tiny instance is below the budget, so uniqueness is exhaustive
        tiny = membership_representation(FiniteSet("Uu", ["u"]))
        _, uniq = product_universal(tiny, identity_morphism(tiny), identity_morphism(tiny))
        assert uniq.verdicts[-1].law == "uniqueness"
        assert "1 satisfied" in uniq.verdicts[-1].note


def test_reduction_theorem():
    with criterion("reduction theorem", 30.0):
        rng = np.random.default_rng(7)
        for k in range(100):
            t = _sized("St", 1 + int(rng.integers(0, 4)))
            e = _sized("Se", 1 + int(rng.integers(0, 4)))
            rep = trivial_representation(random_rel(rng, t, e))
            red, report = self_reduction(rep)
            assert report.passed, (k, report.describe())
            assert red.validated
        alarms = 0
        for k in range(200):
            t = _sized("Rt", 2 + int(rng.integers(0, 3)))
            big = _sized("Re", 3 + int(rng.integers(0, 3)))
            small = _sized("Rf", 2 + int(rng.integers(0, 2)))
            red = random_reduction_instance(rng, t, big, small)
            assert validate_reduction(red).passed, k
            try:
                report = transfer_exactness(red)
            except TheoremInconsistencyError:
                alarms += 1
                continue
            assert report.passed, (k, report.describe())
            assert is_exact(red.source).ok
        assert alarms == 0


def test_closure_lemma():
    with criterion("closure lemma", 10.0):
        rng = np.random.default_rng(8)
        agreements = 0
        for k in range(25):
            t = _sized("Ct", 2 + int(rng.integers(0, 2)))
            e = _sized("Ce", 2 + int(rng.integers(0, 3)))
            coarse, fine = random_closure_instance(rng, t, e)
            for _ in range(8):
                down = random_func(rng, e, e)
                report = closure_reduction_equivalence(coarse, fine, down)
                assert report.passed, (k, report.describe())
                agreements += 1
        assert agreements == 200
        t = FiniteSet("Ht", ["t"])
        e = FiniteSet("He", ["e0", "e1"])
        fine = trivial_representation(Rel.from_pairs(t, e, [("t", "e1")]), "fine")
        coarse = Representation(
            "coarse",
            t,
            e,
            Rel.from_pairs(t, e, [("t", "e0"), ("t", "e1")]),
            Rel.full(e, e),
        )
        down = FuncTable.from_map(e, e, {"e0": "e1", "e1": "e1"})
        report = closure_reduction_equivalence(coarse, fine, down)
        assert report.passed, report.describe()
        assert report.verdicts[-1].law == "routes-agree"


def test_linearity_classification():
    with criterion("linearity classification", 60.0):
        sig = Signature.of({"mul": 2, "one": 0})
        p2 = ProbeUniverse(max_size=2)
        p3 = ProbeUniverse(max_size=3)

        mem = classify_linearity(membership_family(4), p3)
        by = {v.law: v.ok for v in mem.verdicts}
        assert by["right-linear-relations"] and by["right-linear-functions"]
        assert not by["left-linear-relations"] and not by["left-linear-functions"]
        assert by["modes-agree"]

        for fam in (
            samevars_family(sig, 2),
            term_unit(sig, 2).graph_family(),
            term_flatten(sig, 2).graph_family(),
        ):
            report = classify_linearity(fam, p2)
            assert report.passed, (fam.name, report.describe())

        # the demanded union-family witness does not exist; the search
        # raises after exhausting every probe, and this stays red
        witness = mu_p_counterexample_search(3)
        assert witness["found"], witness


def test_higher_order_functoriality():
    with criterion("higher-order functoriality", 60.0):
        probes = ProbeUniverse(max_size=2, rel_samples=5, seed=0)
        for h in (mon_hor(2), ka_hor(3, 2, "semantic")):
            arrows = {}
            for a, b, f in probes.functions():
                m = hor_arrow(h, f)
                assert m.validated, (h.name, a.name, b.name)
                arrows[id(f)] = (a, b, f, m)
            for n in range(3):
                a = probe_carrier(n)
                ident = hor_arrow(h, FuncTable.identity(a))
                assert morphisms_equal(ident, identity_morphism(instantiate(h, a)))
            composed = 0
            for _, b, f, mf in arrows.values():
                for b2, _, g, mg in arrows.values():
                    if b2 is b:
                        both = hor_arrow(h, compose_func(g, f))
                        assert morphisms_equal(both, compose_morphisms(mf, mg))
                        composed += 1
            assert composed > 0, h.name

        pq = FiniteSet("pqAcc", ["p", "q"])
        chain = PreorderedSet(pq, Rel(pq, pq, [[True, True], [False, True]]))
        for h in (mon_hor(2), ka_hor(3, 2, "semantic")):
            lifted = tilde_lift(h, chain)
            assert validate_representation(lifted).passed, h.name
            assert check_tilde_soundness(h, chain).passed, h.name
        assert tilde_mon_rule_check(chain, depth=2).passed


def test_bounded_kleene_algebra():
    with criterion("bounded kleene algebra", 60.0):
        ab = FiniteSet("abAcc", ["a", "b"])
        v = ka_semantic_exactness(ab, 7, 3)
        assert v.law == "semantic-exactness"
        assert v.ok, v.describe()
        assert "22140 expressions" in v.note
        report = ka_completeness_report(ab, 7, 3)
        by = {x.law: x for x in report.verdicts}
        assert by["axiom-instances-sound"].ok, by["axiom-instances-sound"].describe()
        gap = by["completeness-gap"]
        assert gap.witness is not None, gap.note
        assert "not derivable" in gap.note
