"""Seeded random instances for the sampling suites: test support.

Constructions here are correct by construction (sound, exact, law-abiding)
so the suites can assert properties over them; the matching negative cases
are produced by explicit mutation at the call sites.  Only tests import
this module (`tests/test_imports.py` refuses it in the package); it stays
in the package only because the tracer self-test imports `finrep.generate`.
"""

from __future__ import annotations

import numpy as np

from .fset import FiniteSet
from .laws import random_func, random_rel
from .rel import FuncTable, Rel, cograph, compose, star, union
from .reduction import Reduction
from .represent import Representation, trivial_representation

__all__ = [
    "carrier",
    "random_rel",
    "random_func",
    "random_preorder",
    "random_sound_representation",
    "random_exact_representation",
    "surjection_with_section",
    "random_reduction_instance",
    "random_closure_instance",
]


def carrier(name: str, n: int) -> FiniteSet:
    return FiniteSet(name, [f"{name}{i}" for i in range(n)])


def random_preorder(rng: np.random.Generator, s: FiniteSet, density: float = 0.25) -> Rel:
    return star(random_rel(rng, s, s, density))


def random_sound_representation(
    rng: np.random.Generator, traces: FiniteSet, exprs: FiniteSet, name: str = "random-sound"
) -> Representation:
    # closing satisfaction under the order makes soundness automatic
    q = random_preorder(rng, exprs)
    models = compose(random_rel(rng, traces, exprs), q)
    return Representation(name, traces, exprs, models, q)


def random_exact_representation(
    rng: np.random.Generator, traces: FiniteSet, exprs: FiniteSet, name: str = "random-exact"
) -> Representation:
    return trivial_representation(random_rel(rng, traces, exprs), name)


def surjection_with_section(rng: np.random.Generator, big: FiniteSet, small: FiniteSet):
    """Onto map big -> small plus a right inverse picking one preimage each."""
    if len(big) < len(small):
        raise ValueError("need at least as many sources as targets")
    if len(small) == 0 and len(big) > 0:
        raise ValueError("nothing maps onto an empty carrier")
    sec = rng.choice(len(big), size=len(small), replace=False)
    table = rng.integers(0, max(len(small), 1), size=len(big))
    table[sec] = np.arange(len(small))
    return FuncTable(big, small, table), FuncTable(small, big, sec)


def random_reduction_instance(
    rng: np.random.Generator, traces: FiniteSet, e_big: FiniteSet, e_small: FiniteSet
) -> Reduction:
    """Valid-by-construction reduction between two exact representations.

    Built backwards: target satisfaction is random, the source one is its
    pullback along an onto translation, and both orders are self-residuals.
    """
    phi, tau = surjection_with_section(rng, e_big, e_small)
    target = trivial_representation(random_rel(rng, traces, e_small), "generated-target")
    source = trivial_representation(
        compose(target.models, cograph(phi)), "generated-source"
    )
    return Reduction(source, target, phi, tau, Rel.identity(traces))


def random_closure_instance(
    rng: np.random.Generator, traces: FiniteSet, exprs: FiniteSet
) -> tuple[Representation, Representation]:
    """Representation pair over shared carriers satisfying the closure
    hypotheses: coarser order, larger satisfaction, exact fine side."""
    fine = trivial_representation(random_rel(rng, traces, exprs, 0.3), "generated-fine")
    leq1 = star(union(fine.leq, random_rel(rng, exprs, exprs, 0.15)))
    models1 = compose(
        union(fine.models, random_rel(rng, traces, exprs, 0.2)), leq1
    )
    coarse = Representation("generated-coarse", traces, exprs, models1, leq1)
    return coarse, fine
