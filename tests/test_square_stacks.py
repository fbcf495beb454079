"""The stacked linearity and naturality squares against the per-arrow walk
they replaced (`square_walk`), and the stacks' own bookkeeping: each probe
stack drawn once, each square shared by the laws that read it, every
stacked temporary within the laws' stack budget."""

import itertools
from dataclasses import replace

import pytest

from finrep import functors, laws, naturality, rel
from finrep.errors import BudgetError
from finrep.functors import ListFunctor, PowersetFunctor, Signature
from finrep.naturality import (
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
    samevars_family,
    term_flatten,
    term_unit,
    varlist_family,
)
import square_walk

SIG = Signature.of({"mul": 2, "one": 0})

# every builtin family, by the name a report gives it; the function
# families are also checked as natural transformations
FUNCTION_FAMILIES = {
    "singleton": lambda: powerset_unit(),
    "union": lambda: powerset_union(),
    "term-unit": lambda: term_unit(SIG, 2),
    "term-flatten": lambda: term_flatten(SIG, 2),
    "variable-list": lambda: varlist_family(SIG, 2),
}
FAMILIES = {
    "membership": lambda: membership_family(),
    "same-variables": lambda: samevars_family(SIG, 2),
    **{name: lambda make=make: make().graph_family() for name, make in FUNCTION_FAMILIES.items()},
}
# sizes 0..2 draw no samples, so one scope stands for all; at size 3 the
# 3 x 3 pair is sampled, under each sample count and seed, except for the
# two families with the widest squares, which take one sampled scope
SCOPES = [(n, 25, 0) for n in range(3)] + list(itertools.product([3], [0, 3, 25], [1, 7, 11]))
CASES = [(name, scope) for name in FAMILIES for scope in SCOPES
         if name not in ("union", "term-flatten") or scope[0] < 3 or scope == (3, 25, 1)]
SIDES_MODES = list(itertools.product(("left", "right", "both"), ("functions", "relations", "both")))


def _expected(name, probes):
    """The reference verdicts of every law, or the BudgetError the
    reference raises."""
    try:
        return square_walk.verdicts(FAMILIES[name](), probes)
    except BudgetError as err:
        return str(err)


def _check_against_reference(name, probes):
    rho, expected = FAMILIES[name](), _expected(name, probes)
    if isinstance(expected, str):
        with pytest.raises(BudgetError) as err:
            classify_linearity(rho, probes)
        assert str(err.value) == expected
        return
    report = classify_linearity(rho, probes)
    assert report.verdicts[:5] == [expected[law] for law in square_walk.LAWS]
    assert is_natural_relation(rho, probes) == expected["natural-relation"]
    for side, mode in SIDES_MODES:
        modes = ("functions", "relations") if mode == "both" else (mode,)
        sides = ("left", "right") if side == "both" else (side,)
        got = linearity_check(rho, probes, side, mode).verdicts
        assert got == [expected[f"{s}-linear-{m}"] for m in modes for s in sides]


@pytest.mark.parametrize("name, scope", CASES, ids=[f"{n}-max%d-samples%d-seed%d" % s for n, s in CASES])
def test_stacked_verdicts_match_the_per_arrow_walk(name, scope):
    _check_against_reference(name, ProbeUniverse(*scope))


@pytest.mark.parametrize("name", FUNCTION_FAMILIES)
@pytest.mark.parametrize("max_size", [0, 1, 2, 3])
def test_natural_transformations_match_the_per_arrow_walk(name, max_size):
    probes = ProbeUniverse(max_size)
    phi = FUNCTION_FAMILIES[name]()
    try:
        expected = square_walk.natural_transformation(phi, probes)
    except BudgetError as err:
        with pytest.raises(BudgetError, match=f"^{err}$"):
            is_natural_transformation(phi, probes)
        return
    assert is_natural_transformation(phi, probes) == expected


@pytest.mark.parametrize("stack_cells", [1, 40, 300])
@pytest.mark.parametrize("name", ["membership", "singleton", "same-variables", "term-unit"])
def test_small_stack_budgets_cross_block_boundaries(monkeypatch, name, stack_cells):
    # blocks of one square, and blocks that end inside a carrier pair's
    # stack, give the same verdicts
    monkeypatch.setattr(laws, "_STACK_CELLS", stack_cells)
    for scope in [(2, 25, 0), (3, 3, 7)]:
        _check_against_reference(name, ProbeUniverse(*scope))


def _noisy(name):
    """A family that breaks the laws at scattered arrows: the builtin one
    with its component at probe2 turned into the full relation."""
    base = FAMILIES[name]()

    def at(a):
        x = base.rel_at(a)
        return rel.Rel.full(x.src, x.tgt) if len(a) == 2 else x

    return naturality.IndexedRelation(f"{name}-full-at-2", base.source, base.target, at)


@pytest.mark.parametrize("stack_cells", [1, 7, 1 << 16])
@pytest.mark.parametrize("name", ["membership", "same-variables", "term-unit"])
def test_violations_inside_later_blocks_match_the_per_arrow_walk(monkeypatch, name, stack_cells):
    monkeypatch.setattr(laws, "_STACK_CELLS", stack_cells)
    rho, probes = _noisy(name), ProbeUniverse(3, 4, 2)
    expected = square_walk.verdicts(rho, probes)
    assert not all(v.ok for v in expected.values())
    assert classify_linearity(rho, probes).verdicts[:5] == [expected[law] for law in square_walk.LAWS]


def test_the_union_search_keeps_its_exhaustion_count(monkeypatch):
    monkeypatch.setattr(laws, "_STACK_CELLS", 5000)
    with pytest.raises(naturality.TheoremInconsistencyError, match="exhausted 656 relations over probe sizes 2..3"):
        mu_p_counterexample_search(max_size=3)


# ------------------------------------------------------------- bookkeeping

def test_each_carrier_pair_is_drawn_once(monkeypatch):
    # the functor laws read 16 carrier pairs at max 3, relations and
    # functions alike, however many law walks read each pair
    draws = []
    draw = ProbeUniverse._draw
    monkeypatch.setattr(ProbeUniverse, "_draw", lambda self, *key: draws.append(key) or draw(self, *key))
    probes = ProbeUniverse(3)
    assert check_functor_laws(ListFunctor(2), probes).passed
    pairs = list(itertools.product(range(4), repeat=2))
    assert sorted(draws) == sorted([("functions", *p) for p in pairs] + [("relations", *p) for p in pairs])


def test_relation_and_function_views_read_the_stacks():
    probes = ProbeUniverse(3, 4, seed=9)
    got = [(a.name, b.name, x.m.tolist()) for a, b in itertools.product(probes.carriers(), repeat=2)
           for x in probes.relations_between(a, b)]
    assert got == [(a.name, b.name, x.m.tolist()) for a, b, x in square_walk.relations(probes)]
    got = [(a.name, b.name, f.table.tolist()) for a, b, f in probes.functions()]
    assert got == [(a.name, b.name, f.table.tolist()) for a, b, f in square_walk.functions(probes)]
    with pytest.raises(ValueError):  # a shared stack is read-only
        probes.stack("relations", *probes.carriers()[3:] * 2)[0, 0, 0] = True


def test_a_classification_lifts_each_pair_once_and_looks_each_component_up_once(monkeypatch):
    # membership at max 2: 3 carriers and 9 carrier pairs, 7 of them with
    # functions.  Both relations sides read one lift per pair; the left
    # functions walk stops at its violation in the 5th pair with functions,
    # and the right functions walk serves naturality too: 5 + 7 fmaps.
    # Each of the 3 components is built once, for every walk
    calls = {"lifts": 0, "fmaps": 0, "at": 0}

    def counting(name, orig):
        def wrapper(*args):
            calls[name] += 1
            return orig(*args)

        return wrapper

    for name in ("lifts", "fmaps"):
        monkeypatch.setattr(PowersetFunctor, name, counting(name, getattr(PowersetFunctor, name)))
    family = membership_family()
    report = classify_linearity(replace(family, at=counting("at", family.at)), ProbeUniverse(2))
    assert [v.ok for v in report.verdicts] == [False, True, False, True, True, True]
    assert calls == {"lifts": 9, "fmaps": 12, "at": 3}


@pytest.mark.parametrize("name", ["term-flatten", "membership", "union"])
def test_no_stacked_product_exceeds_the_stack_budget(monkeypatch, name):
    # term-flatten squares are 182 x 182 at probe2, a block of one; the
    # powerset families also run products inside their lifts
    seen = []
    product = rel.product

    def watched(a, b):
        out = product(a, b)
        for m in (a, b, out):
            if m.ndim > 2 and m.shape[0] > 1:
                seen.append(m.size)
                assert m.size <= laws._STACK_CELLS, (m.shape, laws._STACK_CELLS)
        return out

    for module in (rel, functors, naturality):
        monkeypatch.setattr(module, "product", watched)
    classify_linearity(FAMILIES[name](), ProbeUniverse(2))
    assert seen  # some products were stacked
