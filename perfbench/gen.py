"""Seeded scaled documents for the `cli` workload, with their oracle.

A scaled document declares one sound representation over `n_traces`
traces and `n_exprs` expressions.  The order is a block chain: the
expressions are cut into consecutive blocks and each block is a chain
(e_k <= e_l for k <= l inside the block).  Satisfaction is sparse and
sound by construction: a trace that satisfies anything in a block
satisfies a suffix of that block's chain.  When `characteristic` is set,
the first `n_exprs` traces each satisfy exactly the up-set of one
expression and nothing else, which makes the order exact.

The document also declares two identity-shaped reductions (`step1`,
`step2`) and an identity morphism (`ident`), so `check reduction`,
`reduce compose` and `check morphism` have something to check.

The expected verdicts are computed here with numpy integer and bitwise
arithmetic on the generated matrices, never through `finrep`, so no
optimized kernel of the program feeds its own oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spec:
    """Shape of one scaled document; the seed fills in the contents."""

    n_traces: int
    n_exprs: int
    block: int
    density: float
    characteristic: bool


@dataclass
class Scaled:
    text: str
    sat: np.ndarray      # (n_traces, n_exprs) bool
    leq: np.ndarray      # (n_exprs, n_exprs) bool
    exprs: list[str]


def _block_starts(n: int, block: int) -> np.ndarray:
    """First index of the block holding each expression."""
    return (np.arange(n) // block) * block


def build(rng: np.random.Generator, spec: Spec) -> Scaled:
    n_t, n_e = spec.n_traces, spec.n_exprs
    if spec.characteristic and n_t < n_e:
        raise ValueError("an exact document needs a characteristic trace per expression")
    traces = [f"t{i}" for i in range(n_t)]
    exprs = [f"e{j}" for j in range(n_e)]
    first = _block_starts(n_e, spec.block)
    last = np.minimum(first + spec.block, n_e)          # one past the block end
    pos = np.arange(n_e)
    leq = (
        (first[:, None] == first[None, :])
        & (pos[:, None] <= pos[None, :])
    )

    sat = np.zeros((n_t, n_e), dtype=bool)
    n_blocks = -(-n_e // spec.block)
    hit = rng.random((n_t, n_blocks)) < spec.density
    if spec.characteristic:
        hit[:n_e] = False       # characteristic traces satisfy one up-set only
    ti, bi = np.nonzero(hit)
    lo = bi * spec.block
    hi = np.minimum(lo + spec.block, n_e)
    start = lo + (rng.random(len(lo)) * (hi - lo)).astype(np.int64)
    for t, s, h in zip(ti.tolist(), start.tolist(), hi.tolist()):
        sat[t, s:h] = True
    if spec.characteristic:
        for j in range(n_e):
            sat[j, j:last[j]] = True

    lines = [
        f"# scaled document: {n_t} traces, {n_e} expressions, chains of {spec.block}",
        "set T = " + " ".join(traces),
        "set E = " + " ".join(exprs),
        "rel sat : T -> E = "
        + " ".join(f"({traces[i]}, {exprs[j]})" for i, j in np.argwhere(sat).tolist()),
        "preorder leq : E = "
        + " ".join(f"({exprs[i]}, {exprs[j]})" for i, j in np.argwhere(leq).tolist()),
        "representation R = traces T exprs E models sat leq leq",
        "fun same : E -> E = " + ", ".join(f"{e} -> {e}" for e in exprs),
        "rel keep : T -> T = " + " ".join(f"({t}, {t})" for t in traces),
        "reduction step1 : R -> R = phi same tau same psi keep",
        "reduction step2 : R -> R = phi same tau same psi keep",
        "morphism ident : R -> R = phi same psi keep",
    ]
    return Scaled("\n".join(lines) + "\n", sat, leq, exprs)


# ------------------------------------------------------------------ oracle

def _packed(rows: np.ndarray) -> np.ndarray:
    """bool (r, c) -> uint64 (r, words): bit j of row i is rows[i, j]."""
    b = np.packbits(rows, axis=1, bitorder="little")
    pad = (-b.shape[1]) % 8
    if pad or b.shape[1] == 0:
        b = np.pad(b, ((0, 0), (0, pad or 8)))
    return np.ascontiguousarray(b).view(np.uint64)


def _first_extra(sub: np.ndarray, sup: np.ndarray, pairs_i, pairs_j):
    """First (i, j) of the pair list whose row i is not inside row j."""
    bad = np.any(sub[pairs_i] & ~sup[pairs_j], axis=1)
    k = np.flatnonzero(bad)
    return None if k.size == 0 else int(k[0])


def expected(doc: Scaled) -> dict:
    """Verdicts every scaled-document command must report.

    Maps a command name to (exit code, [(law, ok, witness or None)]).
    """
    sat, leq = doc.sat, doc.leq
    n_e = leq.shape[0]
    ii, jj = np.nonzero(leq)
    rows = _packed(leq)
    reflexive = bool(np.all(np.diagonal(leq)))
    # R is transitive iff every related (i, j) has succ(j) inside succ(i)
    transitive = _first_extra(rows, rows, jj, ii) is None
    cols = _packed(np.ascontiguousarray(sat.T))
    # sound iff every ordered pair (i, j) has sat column i inside column j
    sound = _first_extra(cols, cols, ii, jj) is None

    witness = None
    for i in range(n_e):
        inside = ~np.any(cols[i] & ~cols, axis=1)       # column i within column j
        extra = np.flatnonzero(inside & ~leq[i])
        if extra.size:
            witness = (doc.exprs[i], doc.exprs[int(extra[0])])
            break
    exact = witness is None

    base = [("reflexivity", reflexive, None), ("transitivity", transitive, None),
            ("soundness", sound, None)]
    ok_base = reflexive and transitive and sound
    # identity translations: both round trips reduce to reflexivity
    reduction = [("tau-monotone", True, None), ("models-transport", True, None),
                 ("roundtrip-up", reflexive, None), ("roundtrip-down", reflexive, None)]
    return {
        "check rep": (0 if ok_base else 1, base),
        "check exact": (0 if ok_base and exact else 1,
                        base + [("exactness", exact, witness)]),
        "check reduction": (0 if reflexive else 1, reduction),
        "reduce compose": (0 if reflexive else 1, reduction),
        "check morphism": (0, [("order-preservation", True, None),
                               ("models-transport", True, None)]),
        # the trivial representation of any relation is sound and exact
        "build trivial": (0, [(law, True, None) for law in
                              ("reflexivity", "transitivity", "soundness", "exactness")]),
    }


COMMANDS = {
    "check rep": ["check", "rep"],
    "check exact": ["check", "exact"],
    "check reduction": ["check", "reduction", "--name", "step1"],
    "reduce compose": ["reduce", "compose"],
    "check morphism": ["check", "morphism", "--name", "ident"],
    "build trivial": ["build", "trivial", "--rel", "sat"],
}
