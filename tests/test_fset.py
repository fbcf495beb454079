"""Carrier construction and interning behaviour."""

import gc
import weakref

import numpy as np
import pytest

from finrep import fset
from finrep.errors import BudgetError
from finrep.fset import (
    FiniteSet,
    carrier_budget,
    check_budget,
    check_cells,
    locate_subsets,
    membership_matrix,
    powerset_of,
    product_of,
    sum_of,
)
from finrep.hor import instantiate, mon_hor
from finrep.naturality import ProbeUniverse, probe_carrier
from finrep.rel import Rel, is_preorder
from finrep.represent import Representation, validate_representation


def _members(p, base, label):
    """Base labels of one powerset element, in base order."""
    mask = p.payload[p.index(label)]
    return tuple(lab for i, lab in enumerate(base.elements) if mask >> i & 1)


def test_labels_must_be_distinct():
    with pytest.raises(ValueError):
        FiniteSet("A", ["a", "a"])


def test_identity_not_structural():
    a1 = FiniteSet("A", ["a", "b"])
    a2 = FiniteSet("A", ["a", "b"])
    assert a1 is not a2


def test_empty_carrier_is_legal():
    e = FiniteSet("E", [])
    assert len(e) == 0
    assert list(e) == []


def test_sum_layout_and_interning():
    a = FiniteSet("A", ["a", "b"])
    b = FiniteSet("B", ["x", "y", "z"])
    s = sum_of(a, b)
    assert len(s) == 5
    assert s.elements == ("inl(a)", "inl(b)", "inr(x)", "inr(y)", "inr(z)")
    assert sum_of(a, b) is s
    assert sum_of(b, a) is not s


def test_product_row_major():
    a = FiniteSet("A", ["a", "b"])
    b = FiniteSet("B", ["0", "1"])
    p = product_of(a, b)
    assert p.elements == ("(a,0)", "(a,1)", "(b,0)", "(b,1)")
    assert p.payload == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert product_of(a, b) is p


def test_powerset_order_and_masks():
    a = FiniteSet("A", ["b", "a"])  # declaration order differs from label order
    p = powerset_of(a)
    # ordered by subset size, then lexicographically on sorted member labels
    assert p.elements == ("{}", "{a}", "{b}", "{a,b}")
    assert _members(p, a, "{a,b}") == ("b", "a")  # base order
    assert _members(p, a, "{a}") == ("a",)
    assert powerset_of(a, cap=2) is p


def test_powerset_cap_is_loud():
    a = FiniteSet("A5", list("abcde"))
    with pytest.raises(BudgetError):
        powerset_of(a, cap=4)
    # a larger cap allows it, and interning is cap-independent
    p = powerset_of(a, cap=5)
    assert len(p) == 32
    assert powerset_of(a, cap=6) is p


def test_rederiving_from_distinct_bases_differs():
    a1 = FiniteSet("A", ["a"])
    a2 = FiniteSet("A", ["a"])
    assert powerset_of(a1) is not powerset_of(a2)


def test_locate_finds_payloads_and_names_the_carrier():
    a = FiniteSet("A", ["a", "b", "c"])
    p = powerset_of(a)
    for i, mask in enumerate(p.payload):
        assert p.locate(mask) == i
    assert p.locate(1 << 5, None) is None
    with pytest.raises(KeyError, match="carrier 'P\\(A\\)'"):
        p.locate(1 << 5)
    with pytest.raises(KeyError, match="carrier 'A'"):
        a.locate(0)


def test_locate_builds_its_payload_index_once_per_carrier_through_intern(monkeypatch):
    built = []

    def counting(recipe, build, real=fset.intern):
        return real(recipe, lambda: built.append(recipe) or build())

    monkeypatch.setattr(fset, "intern", counting)
    a, b = FiniteSet("A", ["x", "y"]), FiniteSet("B", ["u", "v"])
    s = sum_of(a, b)
    assert [s.locate((1, 0)), s.locate((0, 1)), s.locate((2, 0), None), s.locate((0, 0))] == [2, 1, None, 0]
    assert built == [("sum", a, b), ("where", s)]
    assert s._memo == {("where",): {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}}


def test_derived_carriers_live_on_their_base():
    a, b = FiniteSet("A", ["a"]), FiniteSet("B", ["b"])
    s = sum_of(a, b)
    assert b._memo[("sum", a)] is s
    assert a._memo is None


def test_cell_budget_follows_the_carrier_budget():
    check_cells(4000, 5000, "twenty million cells")
    with pytest.raises(BudgetError, match="big has 4000 x 5001 = 20004000 cells, budget 20000000"):
        check_cells(4000, 5001, "big")
    with carrier_budget(10):
        check_cells(10, 100, "a thousand cells")
        with pytest.raises(BudgetError, match="budget 1000"):
            check_cells(1001, 1, "%s cells", "too many")


def test_carrier_budget_is_scoped():
    check_budget(200_000, "anything")
    with carrier_budget(10):
        check_budget(10, "ten")
        with pytest.raises(BudgetError, match="eleven has 11 elements, budget 10"):
            check_budget(11, "eleven")
        with carrier_budget(None):
            with pytest.raises(BudgetError):
                check_budget(11, "eleven")
    with pytest.raises(RuntimeError):
        with carrier_budget(5):
            raise RuntimeError
    check_budget(200_000, "anything")


def test_membership_matrix_reads_the_subsets():
    a = FiniteSet("A", ["b", "a", "c"])
    p, m = membership_matrix(a)
    assert p is powerset_of(a) and membership_matrix(a)[1] is m
    assert m.shape == (3, 8) and not m.flags.writeable
    for j, label in enumerate(p.elements):
        assert tuple(a.elements[i] for i in np.flatnonzero(m[:, j])) == _members(p, a, label)
    assert locate_subsets(p, m).tolist() == list(range(8))
    picks = np.array([[0, 1], [0, 0], [0, 1]], dtype=bool)
    assert [p.elements[j] for j in locate_subsets(p, picks)] == ["{}", "{b,c}"]


def test_membership_matrix_dies_with_its_base():
    # the matrix and the subset index are memoized as bare arrays on the
    # powerset, which is memoized on the base: reference counting alone
    # frees them all
    gc.disable()
    try:
        a = FiniteSet("fresh", ["a", "b"])
        p, m = membership_matrix(a)
        locate_subsets(p, m)
        dead_matrix = weakref.ref(m)
        dead_index = weakref.ref(p._memo[("rank",)])
        del a, p, m
        assert dead_matrix() is None
        assert dead_index() is None
    finally:
        gc.enable()


def _preorder_report():
    r = Rel.identity(FiniteSet("fresh", ["a", "b"]))
    return r, is_preorder(r).verdicts[-1]


def _law_report():
    t, e = FiniteSet("T", ["t"]), FiniteSet("E", ["e"])
    rep = Representation("fresh", t, e, Rel.full(t, e), Rel.identity(e))
    return rep, validate_representation(rep).verdicts[-1]  # soundness, not the order's


def _probe_stack():
    probes = ProbeUniverse(2)
    return probes, probes.stack("relations", probe_carrier(1), probe_carrier(2))


def _hor_instance():
    h = mon_hor(2)
    return h, instantiate(h, probe_carrier(1))


@pytest.mark.parametrize("make", [_preorder_report, _law_report, _probe_stack, _hor_instance],
                         ids=["rel-preorder", "representation-laws", "probe-stack", "hor-instance"])
def test_an_interned_value_dies_with_its_anchor(make):
    # each anchor keeps its value, which holds no reference back to it,
    # so reference counting alone frees the value with the anchor
    gc.disable()
    try:
        anchor, value = make()
        dead = weakref.ref(value)
        del value
        assert dead() is not None
        del anchor
        assert dead() is None
    finally:
        gc.enable()


def test_derived_carriers_are_refused_over_the_budget_before_they_are_built():
    a, b = FiniteSet("A", ["a", "b"]), FiniteSet("B", ["x", "y", "z"])
    with carrier_budget(5):
        assert len(sum_of(a, b)) == 5
        with pytest.raises(BudgetError, match="product of 'A' and 'B' has 6 elements, budget 5"):
            product_of(a, b)
        with pytest.raises(BudgetError, match="powerset of 'B' has 8 elements, budget 5"):
            powerset_of(b)
        with pytest.raises(BudgetError, match="over the cap"):  # the cap is checked first
            powerset_of(b, cap=2)
    assert list(b._memo) == [("sum", a)]  # neither the product nor the powerset was built
    with carrier_budget(4):
        with pytest.raises(BudgetError, match="sum of 'A' and 'B'"):
            sum_of(a, b)  # checked on every request, memoized or not
