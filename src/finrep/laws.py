"""Law suites for the relation kernel.

The suite runs every law exhaustively over small carriers, then resamples
at a larger size with a seeded generator.  Exhaustive outcomes do not
depend on the seed; only the sampled portion does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fset import FiniteSet
from .rel import (
    FuncTable,
    Rel,
    cograph,
    compose,
    equal_verdict,
    graph,
    is_included,
    is_preorder,
    star,
    under,
)
from .verdict import LawReport, Verdict


@dataclass(frozen=True)
class LawConfig:
    exhaustive_max: int = 2
    sample_size: int = 4
    samples: int = 1000
    seed: int = 0


def all_relations(src: FiniteSet, tgt: FiniteSet):
    """Every relation src ⇸ tgt, in mask order.  Exponential; small use only."""
    cells = len(src) * len(tgt)
    for mask in range(1 << cells):
        m = np.zeros(cells, dtype=bool)
        rest, i = mask, 0
        while rest:
            if rest & 1:
                m[i] = True
            rest >>= 1
            i += 1
        yield Rel(src, tgt, m.reshape(len(src), len(tgt)))


def all_functions(src: FiniteSet, tgt: FiniteSet):
    """Every total function src -> tgt."""
    if len(src) == 0:
        yield FuncTable(src, tgt, [])
        return
    if len(tgt) == 0:
        return
    for table in itertools.product(range(len(tgt)), repeat=len(src)):
        yield FuncTable(src, tgt, table)


def random_rel(rng: np.random.Generator, src: FiniteSet, tgt: FiniteSet, density=None) -> Rel:
    if density is None:
        density = rng.uniform(0.1, 0.9)
    return Rel(src, tgt, rng.random((len(src), len(tgt))) < density)


def random_func(rng: np.random.Generator, src: FiniteSet, tgt: FiniteSet) -> FuncTable:
    if len(tgt) == 0 and len(src) > 0:
        raise ValueError("no function into an empty carrier")
    table = rng.integers(0, max(len(tgt), 1), size=len(src))
    return FuncTable(src, tgt, table)


def _galois_holds(x: Rel, y: Rel, z: Rel) -> bool:
    lhs = is_included(y, under(x, z)).ok
    rhs = is_included(compose(x, y), z).ok
    return lhs == rhs


def _function_residual_holds(f: FuncTable, g: FuncTable, x: Rel, y: Rel) -> bool:
    # f and g frame the residual of x against y; both routes must agree
    lhs = compose(graph(f), compose(under(x, y), cograph(g)))
    rhs = under(compose(x, cograph(f)), compose(y, cograph(g)))
    return equal_verdict(lhs, rhs).ok


def _adjunction_instances(sets, sizes):
    """(y ⊆ x\\z iff x;y ⊆ z, sizes) for every x, y, z over these sizes."""
    for na, nb, nc in itertools.product(sizes, repeat=3):
        sa, sb, sc = sets[na], sets[nb], sets[nc]
        ys = list(all_relations(sb, sc))
        zs = list(all_relations(sa, sc))
        for x in all_relations(sa, sb):
            for z in zs:
                u = under(x, z)
                for y in ys:
                    yield is_included(y, u).ok == is_included(compose(x, y), z).ok, (na, nb, nc)


def _function_residual_instances(sets, sizes):
    """(the two residual routes agree, sizes) for every x, y, f, g."""
    for n0, na, nb, nc0, nd in itertools.product(sizes, repeat=5):
        s0, sa, sb, sc0, sd = sets[n0], sets[na], sets[nb], sets[nc0], sets[nd]
        fs = list(all_functions(sa, sb))
        gs = list(all_functions(sd, sc0))
        if not fs or not gs:
            continue
        for x in all_relations(s0, sb):
            for y in all_relations(s0, sc0):
                u = under(x, y)
                for f in fs:
                    left_part = compose(graph(f), u)
                    xf = compose(x, cograph(f))
                    for g in gs:
                        lhs = compose(left_part, cograph(g))
                        rhs = under(xf, compose(y, cograph(g)))
                        yield equal_verdict(lhs, rhs).ok, (n0, na, nb, nc0, nd)


def _exhaustive(law: str, instances) -> Verdict:
    """The first failing sizes among (holds, sizes) instances, in order,
    else a pass noted with the number of instances checked."""
    checked = 0
    for holds, sizes in instances:
        if not holds:
            return Verdict(law, False, note=f"sizes ({','.join(map(str, sizes))})")
        checked += 1
    return Verdict(law, True, note=f"{checked} instances")


def relation_law_suite(config: LawConfig = LawConfig()) -> LawReport:
    """Adjunction and function-residual laws, exhaustive then sampled."""
    top = max(config.exhaustive_max, config.sample_size)
    sets = {n: FiniteSet(f"law{n}", [f"x{i}" for i in range(n)]) for n in range(top + 1)}
    report = LawReport(subject="relation-algebra laws")

    sizes = range(config.exhaustive_max + 1)
    report.add(_exhaustive("residual-adjunction-exhaustive", _adjunction_instances(sets, sizes)))
    report.add(_exhaustive("function-residual-exhaustive", _function_residual_instances(sets, sizes)))

    rng = np.random.default_rng(config.seed)
    s = sets[config.sample_size]
    galois_witness = None
    residual_witness = None
    for i in range(config.samples):
        x = random_rel(rng, s, s)
        y = random_rel(rng, s, s)
        z = random_rel(rng, s, s)
        if galois_witness is None and not _galois_holds(x, y, z):
            galois_witness = f"sample {i}"
        f = random_func(rng, s, s)
        g = random_func(rng, s, s)
        if residual_witness is None and not _function_residual_holds(f, g, x, y):
            residual_witness = f"sample {i}"
    report.add(
        Verdict(
            "residual-adjunction-sampled",
            galois_witness is None,
            note=galois_witness or f"{config.samples} samples at size {config.sample_size}",
        )
    )
    report.add(
        Verdict(
            "function-residual-sampled",
            residual_witness is None,
            note=residual_witness or f"{config.samples} samples at size {config.sample_size}",
        )
    )
    report.scope = (
        f"exhaustive to size {config.exhaustive_max}, "
        f"{config.samples} samples at size {config.sample_size}, seed {config.seed}"
    )
    return report


def preorder_characterizations(x: Rel) -> LawReport:
    """Three equivalent readings of 'preorder'; the agreement line is the theorem."""
    report = LawReport(subject="preorder characterizations")
    direct = is_preorder(x).passed
    closure_fix = x == star(x)
    residual_fix = x == under(x, x)
    report.add(Verdict("direct-definition", direct))
    report.add(Verdict("closure-fixpoint", closure_fix))
    report.add(Verdict("self-residual-fixpoint", residual_fix))
    report.add(
        Verdict(
            "characterizations-agree",
            direct == closure_fix == residual_fix,
            note="all three must answer alike",
        )
    )
    return report
