"""The powerset routes read off the membership matrix, against the subset
bit-mask loops they replaced.  The loops stay here as the reference: they
decode each subset's payload mask bit by bit, with no relational product."""

import itertools

import numpy as np
import pytest

from finrep import functors
from finrep.errors import BudgetError
from finrep.fset import locate_subsets, powerset_of
from finrep.functors import ComposedFunctor, PowersetFunctor
from finrep.laws import all_functions, all_relations
from finrep.naturality import powerset_union, powerset_unit, probe_carrier
from finrep.rel import FuncTable, Rel, cograph, compose, membership_rel
from finrep.represent import membership_representation, trivial_representation


def _mask_membership(a, cap):
    p = powerset_of(a, cap)
    m = np.zeros((len(a), len(p)), dtype=bool)
    for j, mask in enumerate(p.payload):
        for i in range(len(a)):
            if mask >> i & 1:
                m[i, j] = True
    return Rel(a, p, m)


def _mask_fmap(pf, f):
    pa, pb = pf.carrier(f.src), pf.carrier(f.tgt)
    table = []
    for mask in pa.payload:
        image = 0
        for i in range(len(f.src)):
            if mask >> i & 1:
                image |= 1 << int(f.table[i])
        table.append(pb.locate(image))
    return FuncTable(pa, pb, table)


def _mask_lift(pf, x):
    pa, pb = pf.carrier(x.src), pf.carrier(x.tgt)
    amasks = np.array(pa.payload, dtype=np.int64)
    bmasks = np.array(pb.payload, dtype=np.int64)
    na, nb = len(x.src), len(x.tgt)
    succ, pred = [0] * na, [0] * nb
    for i in range(na):
        for j in range(nb):
            if x.m[i, j]:
                succ[i] |= 1 << j
                pred[j] |= 1 << i
    hungry_a = np.zeros(len(pb), dtype=np.int64)  # members of a with no match in Y
    for yi, ymask in enumerate(pb.payload):
        for i in range(na):
            if not succ[i] & ymask:
                hungry_a[yi] |= 1 << i
    hungry_b = np.zeros(len(pa), dtype=np.int64)  # members of b with no match in X
    for xi, xmask in enumerate(pa.payload):
        for j in range(nb):
            if not pred[j] & xmask:
                hungry_b[xi] |= 1 << j
    fwd = (amasks[:, None] & hungry_a[None, :]) == 0
    bwd = (bmasks[None, :] & hungry_b[:, None]) == 0
    return Rel(pa, pb, fwd & bwd)


def _mask_union(a, cap, outer_cap):
    p = powerset_of(a, cap)
    pp = powerset_of(p, outer_cap)
    table = []
    for family in pp.payload:
        flat = 0
        for i in range(len(p)):
            if family >> i & 1:
                flat |= p.payload[i]
        table.append(p.locate(flat))
    return FuncTable(pp, p, table)


def _mask_interpretation(rep, cap):
    p = powerset_of(rep.traces, cap)
    masks = [sum(1 << int(i) for i in np.flatnonzero(col)) for col in rep.models.m.T]
    return FuncTable(rep.exprs, p, [p.locate(mask) for mask in masks])


PROBES = [probe_carrier(n) for n in range(4)]


def _probe_relations(carriers):
    return [x for a, b in itertools.product(carriers, repeat=2) for x in all_relations(a, b)]


def _probe_functions(carriers):
    return [f for a, b in itertools.product(carriers, repeat=2) for f in all_functions(a, b)]


def test_membership_matches_mask_decoding(differential_cases):
    rels, _ = differential_cases
    bases = [c for x in rels for c in (x.src, x.tgt)] + PROBES + [probe_carrier(4)]
    for a in bases:
        assert membership_rel(a, 4) == _mask_membership(a, 4)


@pytest.mark.parametrize("cap", [3, 4])
def test_fmap_and_lift_match_mask_loops_on_differential_cases(cap, differential_cases, differential_stacks):
    rels, funcs = differential_cases
    pf = PowersetFunctor(cap)
    for x in rels:
        assert pf.lift(x) == _mask_lift(pf, x)
    for f in funcs:
        assert pf.fmap(f) == _mask_fmap(pf, f)
    # the stacked maps, row by row, against the same loops
    rel_groups, func_groups = differential_stacks
    for a, b, xs, group in rel_groups:
        pa, pb, rows = pf.lifts(a, b, xs)
        assert (pa, pb) == (pf.carrier(a), pf.carrier(b))
        assert rows.tolist() == [_mask_lift(pf, x).m.tolist() for x in group]
    for a, b, tables, group in func_groups:
        pa, pb, rows = pf.fmaps(a, b, tables)
        assert (pa, pb) == (pf.carrier(a), pf.carrier(b))
        assert rows.tolist() == [_mask_fmap(pf, f).table.tolist() for f in group]


def test_fmap_and_lift_match_mask_loops_between_probe_carriers():
    pf = PowersetFunctor(4)
    relations, functions = _probe_relations(PROBES), _probe_functions(PROBES)
    assert (len(relations), len(functions)) == (689, 60)
    for x in relations:
        assert pf.lift(x) == _mask_lift(pf, x)
    for f in functions:
        assert pf.fmap(f) == _mask_fmap(pf, f)


def test_composed_powerset_matches_mask_loops():
    inner, outer = PowersetFunctor(4), PowersetFunctor(16)
    pp = ComposedFunctor(outer, inner)
    small = PROBES[:3]
    for x in _probe_relations(small):
        assert pp.lift(x) == _mask_lift(outer, _mask_lift(inner, x))
    for f in _probe_functions(small):
        assert pp.fmap(f) == _mask_fmap(outer, _mask_fmap(inner, f))
    # the stacked maps, one stack per carrier pair, row by row
    for a, b in itertools.product(small, repeat=2):
        xs, fs = list(all_relations(a, b)), list(all_functions(a, b))
        rows = pp.lifts(a, b, np.stack([x.m for x in xs]))[2]
        assert rows.tolist() == [_mask_lift(outer, _mask_lift(inner, x)).m.tolist() for x in xs]
        if fs:
            rows = pp.fmaps(a, b, np.stack([f.table for f in fs]))[2]
            assert rows.tolist() == [_mask_fmap(outer, _mask_fmap(inner, f)).table.tolist() for f in fs]


def test_union_and_unit_match_mask_loops():
    union, unit = powerset_union(4, 16), powerset_unit(4)
    for a in PROBES:
        assert union.func_at(a) == _mask_union(a, 4, 16)
        p = powerset_of(a, 4)
        assert unit.func_at(a) == FuncTable(a, p, [p.locate(1 << i) for i in range(len(a))])


def test_interpretation_matches_mask_loops(differential_cases):
    # satisfaction factors through membership in the interpretation
    # table, by the residual route and by the mask loops alike
    rels, _ = differential_cases
    reps = [trivial_representation(x) for x in rels + _probe_relations(PROBES[:3])]
    reps += [membership_representation(a) for a in PROBES]
    for rep in reps:
        p = powerset_of(rep.traces, 4)
        interp = FuncTable(rep.exprs, p, locate_subsets(p, rep.models.m))
        assert np.array_equal(interp.table, _mask_interpretation(rep, 4).table)
        assert compose(membership_rel(rep.traces, 4), cograph(interp)) == rep.models
        assert compose(_mask_membership(rep.traces, 4), cograph(_mask_interpretation(rep, 4))) == rep.models


def test_lift_over_the_cell_budget_is_refused_before_any_product(monkeypatch):
    # P(P(probe4)) has 65,536 subsets: a relation on P(probe4) would lift to
    # 65536 x 65536 cells, far over the default 20,000,000-cell budget
    p4 = powerset_of(probe_carrier(4), 4)

    def no_product(*args):
        raise AssertionError("a relational product ran before the cell check")

    monkeypatch.setattr(functors, "product", no_product)
    monkeypatch.setattr(functors, "residual", no_product)
    with pytest.raises(BudgetError, match=r"powerset lift of a relation 'P\(probe4\)' -> 'P\(probe4\)' "
                                          r"has 65536 x 65536 = 4294967296 cells, budget 20000000"):
        PowersetFunctor(16).lift(Rel.identity(p4))
