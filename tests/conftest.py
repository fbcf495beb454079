"""Shared fixtures."""

import itertools

import numpy as np
import pytest

from finrep import morphism, reduction, represent
from finrep.fset import FiniteSet
from finrep.rel import FuncTable, Rel


@pytest.fixture
def law_computations(monkeypatch):
    """The representations, morphisms and reductions whose laws are
    computed while the test runs, in order, one entry per computation.
    A `validate_*` call that reads the kept report computes nothing and
    adds no entry."""
    computed = []
    for module, name in ((represent, "_representation_laws"), (morphism, "_morphism_laws"),
                         (reduction, "_reduction_laws")):
        def counting(obj, laws=getattr(module, name)):
            computed.append(obj)
            return laws(obj)

        monkeypatch.setattr(module, name, counting)
    return computed


@pytest.fixture(scope="session")
def differential_cases():
    """Relations and functions between distinct carriers of sizes 0-3: all
    16 relations on 2x2, random 3x2 and 1x3 relations, relations with an
    empty side, every function 3->2 and the empty function 0->2."""
    none = FiniteSet("none", [])
    one = FiniteSet("o", ["o"])
    ab = FiniteSet("ab", ["a", "b"])
    uv = FiniteSet("uv", ["u", "v"])
    abc = FiniteSet("abc", ["a", "b", "c"])
    pqr = FiniteSet("pqr", ["p", "q", "r"])
    rng = np.random.default_rng(5)
    rels = [Rel(ab, uv, np.array([[mask >> (2 * i + j) & 1 for j in range(2)] for i in range(2)]))
            for mask in range(16)]
    rels += [Rel(abc, uv, rng.random((3, 2)) < 0.6) for _ in range(4)]
    rels += [Rel(one, pqr, rng.random((1, 3)) < 0.6) for _ in range(2)]
    rels += [Rel.empty(none, uv), Rel.empty(ab, none)]
    funcs = [FuncTable(abc, uv, t) for t in itertools.product(range(2), repeat=3)]
    funcs += [FuncTable(none, uv, []), FuncTable(one, pqr, [2])]
    return rels, funcs


@pytest.fixture(scope="session")
def differential_stacks(differential_cases):
    """The differential cases grouped by carrier pair, for the stacked
    `lifts` and `fmaps`: (relation groups, function groups), each group
    `(a, b, stack, cases)` in case order."""

    def groups(cases, read):
        by_pair = {}
        for case in cases:
            by_pair.setdefault((case.src, case.tgt), []).append(case)
        return [(a, b, np.stack([read(c) for c in group]), group) for (a, b), group in by_pair.items()]

    rels, funcs = differential_cases
    return groups(rels, lambda x: x.m), groups(funcs, lambda f: f.table)
