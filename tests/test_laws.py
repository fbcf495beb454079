"""Law suite behaviour, including the exhaustive preorder sweep."""

import itertools

import numpy as np
import pytest

from finrep import laws, rel
from finrep.errors import BudgetError
from finrep.fset import FiniteSet, carrier_budget
from finrep.laws import (
    LawConfig,
    all_functions,
    all_relations,
    exhaustive_instances,
    preorder_characterizations,
    random_func,
    random_rel,
    relation_law_suite,
    relation_stack,
)
from finrep.rel import Rel, gather


def test_all_relations_count():
    a = FiniteSet("a", ["a0", "a1"])
    b = FiniteSet("b", ["b0", "b1", "b2"])
    rels = list(all_relations(a, b))
    assert len(rels) == 2 ** 6
    assert rels[0].count() == 0
    assert rels[-1].count() == 6


@pytest.mark.parametrize("rows,cols", list(itertools.product(range(3), repeat=2)))
def test_relation_stack_is_mask_order(rows, cols):
    # reference: the per-mask bit loop, cell k row-major is bit k
    cells = rows * cols
    masks = [[bool(mask >> k & 1) for k in range(cells)] for mask in range(1 << cells)]
    stack = relation_stack(rows, cols)
    assert stack.shape == (1 << cells, rows, cols)
    assert [m.ravel().tolist() for m in stack] == masks
    a = FiniteSet("a", [f"a{i}" for i in range(rows)])
    b = FiniteSet("b", [f"b{i}" for i in range(cols)])
    rels = list(all_relations(a, b))
    assert len(rels) == len(stack)
    assert all(np.array_equal(r.m, m) for r, m in zip(rels, stack))


def test_all_functions_count_and_empty_cases():
    a = FiniteSet("a", ["a0", "a1"])
    b = FiniteSet("b", ["b0", "b1", "b2"])
    assert len(list(all_functions(a, b))) == 9
    empty = FiniteSet("e", [])
    assert len(list(all_functions(empty, b))) == 1
    assert len(list(all_functions(empty, empty))) == 1
    assert len(list(all_functions(a, empty))) == 0


def test_law_suite_passes():
    report = relation_law_suite(LawConfig(exhaustive_max=2, sample_size=4, samples=200, seed=7))
    assert report.passed, report.describe()
    names = [v.law for v in report.verdicts]
    assert names == [
        "residual-adjunction-exhaustive",
        "function-residual-exhaustive",
        "residual-adjunction-sampled",
        "function-residual-sampled",
    ]


def test_law_suite_deterministic_for_fixed_seed():
    cfg = LawConfig(exhaustive_max=1, sample_size=3, samples=50, seed=11)
    assert relation_law_suite(cfg).describe() == relation_law_suite(cfg).describe()


def _full_residual(x, z):
    batch = np.broadcast_shapes(x.shape[:-2], z.shape[:-2])
    return np.ones(batch + (x.shape[-1], z.shape[-1]), dtype=bool)


def _empty_graph_gather(m, table, axis):
    # graph(f) ; m comes out empty, m ; cograph(f) stays right
    out = gather(m, table, axis)
    return np.zeros_like(out) if axis == -2 else out


@pytest.mark.parametrize(
    "name,stub,verdicts",
    [
        # a residual that is always full breaks the adjunction first at
        # one-element carriers, where x;y can leave z, and disagrees with
        # the pointwise residual first where x = {(0,0)} and y is empty
        ("residual", _full_residual,
         ["VIOLATION  [sizes (1,1,1)]", "VIOLATION  [sizes (1,0,1,1,0)]", "VIOLATION  [sample 0]"]),
        # an empty graph side leaves the composite route empty while the
        # residual over an empty source is full
        ("gather", _empty_graph_gather,
         ["ok  [5053 instances]", "VIOLATION  [sizes (0,1,1,1,1)]", "ok  [1000 samples at size 4]"]),
    ],
    ids=["under", "graph"],
)
def test_law_suite_reports_first_failing_sizes(monkeypatch, name, stub, verdicts):
    monkeypatch.setattr(laws, name, stub)
    report = relation_law_suite()
    assert [v.describe().split(": ", 1)[1] for v in report.verdicts[:3]] == verdicts


def test_sampled_laws_name_a_failing_sample_past_the_first_block(monkeypatch):
    # replay the suite's draws to find sample k, then make the residual
    # full at that sample alone
    k = laws._SAMPLE_BLOCK + 37
    rng = np.random.default_rng(5)
    s = FiniteSet("law4", [f"x{i}" for i in range(4)])
    for _ in range(k + 1):
        x_k = random_rel(rng, s, s).m
        random_rel(rng, s, s), random_rel(rng, s, s), random_func(rng, s, s), random_func(rng, s, s)

    def residual(x, z):
        out = rel.residual(x, z)
        if x.shape[-2:] != x_k.shape:
            return out
        return out | np.all(x == x_k, axis=(-2, -1))[..., None, None]

    monkeypatch.setattr(laws, "residual", residual)
    report = relation_law_suite(LawConfig(samples=k + 100, seed=5))
    assert [v.describe().split(": ", 1)[1] for v in report.verdicts] == [
        "ok  [5053 instances]", "ok  [16971 instances]",
        f"VIOLATION  [sample {k}]", f"VIOLATION  [sample {k}]",
    ]


@pytest.mark.parametrize("samples", [0, 1])
def test_law_suite_notes_at_zero_and_one_sample(samples):
    report = relation_law_suite(LawConfig(samples=samples))
    assert [v.describe().split(": ", 1)[1] for v in report.verdicts] == [
        "ok  [5053 instances]", "ok  [16971 instances]",
        f"ok  [{samples} samples at size 4]", f"ok  [{samples} samples at size 4]",
    ]
    assert report.scope == f"exhaustive to size 2, {samples} samples at size 4, seed 0"


@pytest.mark.parametrize("n", [0, 1, 2])
def test_exhaustive_instances_in_closed_form_are_the_counted_ones(n):
    report = relation_law_suite(LawConfig(exhaustive_max=n, samples=0))
    assert [v.note for v in report.verdicts[:2]] == [f"{k} instances" for k in exhaustive_instances(n)]


def test_exhaustive_laws_over_the_cell_budget_are_refused_before_any_stack(monkeypatch):
    def no_stack(*shape):
        raise AssertionError("a stack was built")

    monkeypatch.setattr(laws, "relation_stack", no_stack)
    monkeypatch.setattr(laws, "function_stack", no_stack)
    with pytest.raises(BudgetError) as refused:
        relation_law_suite(LawConfig(exhaustive_max=9))
    assert str(refused.value) == (
        "residual-adjunction-exhaustive to size 3 has 140823792 instances, budget 20000000")
    with carrier_budget(2_000_000), pytest.raises(BudgetError) as refused:  # 200,000,000 cells
        relation_law_suite(LawConfig(exhaustive_max=3))
    assert str(refused.value) == (
        "function-residual-exhaustive to size 3 has 469180139 instances, budget 200000000")


def _square_rels(n):
    s = FiniteSet(f"q{n}", [f"e{i}" for i in range(n)])
    return list(all_relations(s, s))


def test_preorder_characterizations_agree_exhaustively():
    # labeled preorder counts by size, frozen: 1, 1, 4, 29
    expected_counts = {0: 1, 1: 1, 2: 4, 3: 29}
    for n in range(4):
        found = 0
        for x in _square_rels(n):
            report = preorder_characterizations(x)
            agree = report.verdicts[-1]
            assert agree.law == "characterizations-agree"
            assert agree.ok, f"size {n}: {report.describe()}"
            if report.verdicts[0].ok:
                found += 1
        assert found == expected_counts[n]


def test_preorder_characterizations_verdict_values():
    s = FiniteSet("p", ["p0", "p1", "p2"])
    chain = Rel.from_pairs(
        s, s, [("p0", "p0"), ("p1", "p1"), ("p2", "p2"), ("p0", "p1"), ("p1", "p2"), ("p0", "p2")]
    )
    report = preorder_characterizations(chain)
    assert all(v.ok for v in report.verdicts)

    broken = Rel.from_pairs(
        s, s, [("p0", "p0"), ("p1", "p1"), ("p2", "p2"), ("p0", "p1"), ("p1", "p2")]
    )
    report = preorder_characterizations(broken)
    assert [v.ok for v in report.verdicts] == [False, False, False, True]


def test_random_rel_density_honored():
    rng = np.random.default_rng(3)
    s = FiniteSet("d", [f"d{i}" for i in range(10)])
    assert random_rel(rng, s, s, density=0.0).count() == 0
    assert random_rel(rng, s, s, density=1.0).count() == 100
