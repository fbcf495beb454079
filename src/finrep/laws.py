"""Law suites for the relation kernel.

The suite runs every law exhaustively over small carriers, then resamples
at a larger size with a seeded generator.  Exhaustive outcomes do not
depend on the seed; only the sampled portion does.  Both portions run on
stacks of matrices through the kernel's own array formulas
(`rel.product`, `rel.residual`, `rel.included`, `rel.gather`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .fset import FiniteSet, cell_budget
from .rel import (
    FuncTable,
    Rel,
    gather,
    included,
    is_preorder,
    product,
    residual,
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


# samples evaluated per stacked kernel call
_SAMPLE_BLOCK = 256
# cells a stacked temporary of the exhaustive laws aims to stay under
_STACK_CELLS = 1 << 16
_EXHAUSTIVE = ("residual-adjunction-exhaustive", "function-residual-exhaustive")
_SAMPLED = ("residual-adjunction-sampled", "function-residual-sampled")


def relation_stack(rows: int, cols: int) -> np.ndarray:
    """Every rows x cols bool matrix, stacked in mask order (row-major cell k is bit k)."""
    cells = rows * cols
    bits = np.arange(1 << cells)[:, None] >> np.arange(cells) & 1
    return bits.astype(bool).reshape(1 << cells, rows, cols)


def function_stack(rows: int, cols: int) -> np.ndarray:
    """Every function table rows -> cols, stacked in product order."""
    tables = list(itertools.product(range(cols), repeat=rows))
    return np.array(tables, dtype=np.int64).reshape(cols ** rows, rows)


def all_relations(src: FiniteSet, tgt: FiniteSet):
    """Every relation src ⇸ tgt, in mask order.  Exponential; small use only."""
    for m in relation_stack(len(src), len(tgt)):
        yield Rel(src, tgt, m)


def all_functions(src: FiniteSet, tgt: FiniteSet):
    """Every total function src -> tgt."""
    for table in function_stack(len(src), len(tgt)):
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


def _adjunction(x, y, z) -> np.ndarray:
    """y ⊆ x\\z iff x;y ⊆ z, per broadcast batch index."""
    return included(y, residual(x, z)) == included(product(x, y), z)


def _function_residual(f, g, x, y) -> np.ndarray:
    """graph(f);(x\\y);cograph(g) = (x;cograph(f))\\(y;cograph(g)), and
    the kernel's x\\y equal to its pointwise ∀/∃ reading, which uses
    neither `rel` nor a matrix product; per broadcast batch index."""
    u = residual(x, y)
    oracle = np.all(~x[..., :, :, None] | y[..., :, None, :], axis=-3)
    lhs = gather(gather(u, f, -2), g, -1)
    rhs = residual(gather(x, f, -1), gather(y, g, -1))
    return (u == oracle).all(axis=(-2, -1)) & included(lhs, rhs) & included(rhs, lhs)


def stack_blocks(xs: np.ndarray, cells_per_x: int):
    """Consecutive blocks of the stack xs, small enough that a stacked
    temporary of `cells_per_x` cells per x stays under _STACK_CELLS cells
    (one x at the least)."""
    step = max(1, _STACK_CELLS // max(cells_per_x, 1))
    return (xs[lo:lo + step] for lo in range(0, len(xs), step))


def _adjunction_at(na, nb, nc):
    """The adjunction for every x: na ⇸ nb, y: nb ⇸ nc and z: na ⇸ nc, a
    block of x at a time; results index (x, z, y)."""
    xs, ys, zs = relation_stack(na, nb), relation_stack(nb, nc), relation_stack(na, nc)
    for x in stack_blocks(xs, len(ys) * len(zs) * (na + nb) * nc):
        yield _adjunction(x[:, None, None], ys, zs[:, None])


def _function_residual_at(n0, na, nb, nc, nd):
    """The function residual for every x: n0 ⇸ nb, y: n0 ⇸ nc, f: na -> nb
    and g: nd -> nc, a block of x at a time; results index (x, y, f, g)."""
    fs, gs = function_stack(na, nb), function_stack(nd, nc)
    if not (len(fs) and len(gs)):
        return
    xs, ys = relation_stack(n0, nb), relation_stack(n0, nc)
    for x in stack_blocks(xs, len(ys) * (len(fs) * len(gs) * na * nd + n0 * nb * nc)):
        yield _function_residual(fs[:, None], gs, x[:, None, None, None], ys[:, None, None])


def exhaustive_instances(n: int) -> tuple[int, int]:
    """Instances of the two exhaustive laws over sizes 0..n, in closed form.
    The adjunction takes every x: a ⇸ b, y: b ⇸ c and z: a ⇸ c, so sizes
    (a, b, c) give 2^(ab+bc+ca).  The function residual takes every
    x: n0 ⇸ nb, y: n0 ⇸ nc, f: na -> nb and g: nd -> nc, which gives
    2^(n0 nb + n0 nc) nb^na nc^nd; its sum splits into a square per n0."""
    sizes = range(n + 1)
    adjunction = sum(2 ** (a * b + b * c + c * a) for a, b, c in itertools.product(sizes, repeat=3))
    reach = (sum(2 ** (n0 * m) * sum(m ** k for k in sizes) for m in sizes) for n0 in sizes)
    return adjunction, sum(r * r for r in reach)


def _by_sizes(law: str, check, sizes, arity: int) -> Verdict:
    """The first size tuple, in product order, at which a result array of
    `check(*sizes)` holds a failing instance, else a pass noted with the
    instances checked."""
    checked = 0
    for case in itertools.product(sizes, repeat=arity):
        for holds in check(*case):
            if not holds.all():
                return Verdict(law, False, note=f"sizes ({','.join(map(str, case))})")
            checked += holds.size
    return Verdict(law, True, note=f"{checked} instances")


def relation_law_suite(config: LawConfig = LawConfig()) -> LawReport:
    """Adjunction and function-residual laws, exhaustive then sampled."""
    # refused before any stack is built, at the first size over the cell
    # budget: the counts grow with the size, so no larger one is counted;
    # a sample counts as one instance, refused before the first draw
    for top in range(config.exhaustive_max + 1):
        for law, count in zip(_EXHAUSTIVE, exhaustive_instances(top)):
            if count > cell_budget():
                raise BudgetError(f"{law} to size {top} has {count} instances, budget {cell_budget()}")
    if config.samples > cell_budget():
        raise BudgetError(f"{_SAMPLED[0]} has {config.samples} instances, budget {cell_budget()}")
    sizes = range(config.exhaustive_max + 1)
    exhaustive = [_by_sizes(law, check, sizes, arity)
                  for law, check, arity in zip(_EXHAUSTIVE, (_adjunction_at, _function_residual_at), (3, 5))]

    rng = np.random.default_rng(config.seed)
    n = config.sample_size
    s = FiniteSet(f"law{n}", [f"x{i}" for i in range(n)])
    witness = {}
    for lo in range(0, config.samples, _SAMPLE_BLOCK):
        # drawn sample by sample in the order x, y, z, f, g, so a sample's
        # index does not depend on the block size
        draws = [
            [random_rel(rng, s, s).m for _ in "xyz"] + [random_func(rng, s, s).table for _ in "fg"]
            for _ in range(min(_SAMPLE_BLOCK, config.samples - lo))
        ]
        x, y, z, f, g = map(np.stack, zip(*draws))
        for law, ok in zip(_SAMPLED, (_adjunction(x, y, z), _function_residual(f, g, x, y))):
            if not ok.all():
                witness.setdefault(law, f"sample {lo + np.argmin(ok)}")
    sampled = [Verdict(law, law not in witness, note=witness.get(law, f"{config.samples} samples at size {n}"))
               for law in _SAMPLED]
    scope = f"exhaustive to size {config.exhaustive_max}, {config.samples} samples at size {n}, seed {config.seed}"
    return LawReport("relation-algebra laws", exhaustive + sampled, scope, config.seed)


def preorder_characterizations(x: Rel) -> LawReport:
    """Three equivalent readings of 'preorder'; the agreement line is the theorem."""
    direct = is_preorder(x).passed
    closure_fix = x == star(x)
    residual_fix = x == under(x, x)
    return LawReport("preorder characterizations", [
        Verdict("direct-definition", direct),
        Verdict("closure-fixpoint", closure_fix),
        Verdict("self-residual-fixpoint", residual_fix),
        Verdict("characterizations-agree", direct == closure_fix == residual_fix, note="all three must answer alike"),
    ])
